"""Count code lines per module under src/curvgraph, and their total.

A code line holds a token other than a comment or whitespace and is not
part of a module, class or function docstring.  Run from anywhere:

    python3 tools/code_lines.py
"""
import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "curvgraph"
_BLANK = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source):
    """Number of code lines in one module's source text."""
    lines = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type not in _BLANK}
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and ast.get_docstring(node) is not None):
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def main():
    counts = {p.name: code_lines(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
