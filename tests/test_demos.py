"""Each script in demos/ runs to completion against the package under test."""
import subprocess
import sys
from pathlib import Path

import pytest

from cli_env import cli_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, proc.stderr
