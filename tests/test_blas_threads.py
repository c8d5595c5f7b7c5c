"""
The estimator's golden digests under two BLAS threads.

``tests/test_estimator_digests.py`` pins the output bits of the three
variance routes, and the tier-1 run and the benchmark leave the BLAS thread
count to the host.  The fit reads X through BLAS as one (N*T, q+p) matrix,
so a threaded BLAS that split its sums another way would move those bits.
This test recomputes every digest of that file in a fresh interpreter with
two OpenBLAS threads and compares them with the recorded ones.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RECOMPUTE = """
import ctypes, glob, json, os, sys
sys.path[:0] = [{src!r}, {tests!r}]
import numpy
import test_estimator_digests as golden

# the thread count of numpy's bundled OpenBLAS, where the wheel has one
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
getter = libs and getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
threads = getter() if getter else None

observed = [
    [family, n, adjusted, "summed", golden._result_digest(family, n, adjusted), want]
    for (family, n, adjusted), want in golden.DIGESTS.items()
] + [
    [family, n, True, "averaged", golden._result_digest(family, n, True, gram="averaged"), want]
    for (family, n), want in golden.AVERAGED_GRAM_DIGESTS.items()
]
print(json.dumps([threads, observed]))
"""


def test_estimator_digests_hold_with_two_blas_threads():
    script = RECOMPUTE.format(src=str(ROOT / "src"), tests=str(ROOT / "tests"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    threads, observed = json.loads(proc.stdout)
    assert threads in (2, None)
    assert len(observed) == 8
    for family, n, adjusted, gram, got, want in observed:
        assert got == want, (family, n, adjusted, gram)
