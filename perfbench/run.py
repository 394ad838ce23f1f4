"""curvgraph benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports curvgraph from its
`src/`.  Commands go through `curvgraph.cli.main(argv)` in this process
with stdout captured, one thread, BLAS/OpenMP pools pinned to one thread.
Whole rounds of the workload's operations run until S seconds have passed;
then the outputs are checked, one command is repeated for byte
determinism, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 calls into curvgraph are wrapped
in spans and the metrics are the per-layer ones.  Progress goes to stderr.
"""

import os

# one process, one thread: pin the native pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def process_age():
    """Seconds since this process started."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED


def run_command(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):  # a traceback or a usage exit fails the operation
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(workload_cls, seed, seconds, trace, workdir):
    import curvgraph.cli as cli

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    workload = workload_cls(seed, workdir, trace_path=workdir / "setup-spans.jsonl.gz"
                            if trace else None)
    setup_spans = workload.setup()
    setup_s = process_age()
    if tracer:
        tracer.extend(setup_spans)
    log(f"{workload.name}: set-up {setup_s:.3f} s")

    ops = []
    loop_start = time.perf_counter()
    round_index = 0
    while True:
        for op in workload.round(round_index):
            for argv in op.commands:
                op.results.append(run_command(cli, argv))
                if op.results[-1][0] != 0:
                    log(f"  failed: {argv}: {op.results[-1][2].strip()}")
                    break
            log(f"  round {op.round_index} slot {op.slot}: {op.seconds:.3f} s ("
                + ", ".join(f"{argv[0]} {result[3]:.3f}"
                            for argv, result in zip(op.commands, op.results)) + ")")
            ops.append(op)
        round_index += 1
        if time.perf_counter() - loop_start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    # the checks import scipy modules the program does not, so only now
    import checks

    problems = workload.check(ops)
    repeat_op, k, files = workload.repeat(ops)
    before = [Path(f).read_bytes() for f in files] if repeat_op.ok else []
    repeat = run_command(cli, repeat_op.commands[k])
    repeat_problems = (["repeated command failed"] if repeat[0] != 0 or not repeat_op.ok else
                       checks.check_repeat(repeat_op.stdout(k), repeat[1])
                       + checks.check_repeat(before, [Path(f).read_bytes() for f in files]))
    failed_ops = {i for i, _ in problems if i is not None}
    failed_ops |= {i for i, op in enumerate(ops) if not op.ok}
    for index, problem in problems:
        log(f"  check failed (operation {index}): {problem}")
    for problem in repeat_problems:
        log(f"  check failed (repeat): {problem}")
    correct = not problems and not repeat_problems

    if tracer:
        outputs = [(argv, result[1]) for op in ops if op.ok
                   for argv, result in zip(op.commands, op.results)]
        expectation = getattr(workload, "fractal_expectation", None)
        trace_problems = checks.trace_problems(
            tracer.spans, outputs, expectation()[1] if expectation else None)
        for problem in trace_problems:
            log(f"  trace check failed: {problem}")
        correct = correct and not trace_problems
        trace_dir = HERE / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{workload.name}-seed{seed}.jsonl.gz")
        from tracing import layer_metrics
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_metrics(tracer.spans).items()}
        log(f"  repeated command: {repeat_op.results[k][3]:.3f} s traced, "
            f"{repeat[3]:.3f} s untraced")
    else:
        times = [op.seconds for op in ops if op.ok]
        if not times:
            raise RuntimeError("no operation completed")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": correct, "attempted": len(ops) + 1,
            "failed": len(failed_ops) + (1 if repeat_problems else 0), "metrics": metrics}


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="curvgraph benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "curvgraph" / "cli.py").is_file():
        log(f"no curvgraph source under {ROOT / 'src'}; run from a source checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
