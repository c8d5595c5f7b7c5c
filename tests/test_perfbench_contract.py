"""The benchmark's own self-check runs against the current package.

``perfbench/`` drives the package through its public functions (it builds,
pickles, measures and iterates datasets, and checks output digests), so a
change to that surface shows up here as a failed self-check.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_check_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "self-check passed" in proc.stdout + proc.stderr
