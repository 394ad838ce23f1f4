"""The benchmark's selftest, run as a test: each of its output checks passes on
a real output and fails on a corrupted copy, so a change that breaks one of
those checks fails here too."""
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
