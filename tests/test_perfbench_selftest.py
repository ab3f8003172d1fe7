"""The benchmark's own self-test, run as a tier-1 test: it drives every
workload at tiny scale, traced and untraced, through the same library
entry points the benchmark wraps (``evaluation.evaluate``,
``evaluate_rec``, ``match_detections``, ``average_precision``, the set
loss), so a change to their signatures or behaviour that breaks the
benchmark fails here. Takes about half a minute."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
