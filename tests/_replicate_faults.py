"""
Minor page faults and time per Monte Carlo replicate (a probe, not a test).

Runs 1-worker ``monte_carlo`` calls of 2 and of 40 replicates on the
paper's type-I cell: the 42-day design with 5 decisions per day, rho = 0.4,
the working-true model with iid-normal errors and zero effect, availability
0.5, N = 42 and alpha0 = 0.05.  Each call size runs in a fresh interpreter,
since the C library's allocator makes faults depend on what the process did
before.  After warm-up calls, it prints the minor faults
(``resource.getrusage`` of that process) and the milliseconds per replicate
over one series of calls, one line per call size.  Nothing here is gated on
the faults.

Run from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/_replicate_faults.py
"""

import resource
import subprocess
import sys
import time

import numpy as np

from mrtpower.design import EffectPath, TrialDesign, make_availability
from mrtpower.simulate import ErrorProcess, GenerativeModel, monte_carlo

N, ALPHA0 = 42, 0.05
# (replicates per call, calls per series)
SERIES = ((2, 100), (40, 5))
WARM_UP_CALLS = 3


def model():
    design = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
    return GenerativeModel.working_true(
        design,
        EffectPath.quadratic(np.zeros(3), design),
        make_availability("constant", 0.5, design),
        ErrorProcess("iid-normal"),
    )


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def series(m, reps, calls):
    """(minor faults, ms) per replicate over ``calls`` calls of ``reps`` replicates."""
    for seed in range(WARM_UP_CALLS):
        monte_carlo(m, N, reps, ALPHA0, seed=seed, threads=1)
    faults, start = minor_faults(), time.perf_counter()
    for seed in range(calls):
        monte_carlo(m, N, reps, ALPHA0, seed=1000 + seed, threads=1)
    elapsed, faults = time.perf_counter() - start, minor_faults() - faults
    return faults / (reps * calls), elapsed * 1e3 / (reps * calls)


def main(args):
    if not args:  # each call size in its own interpreter
        for reps, calls in SERIES:
            subprocess.run([sys.executable, __file__, str(reps), str(calls)], check=True)
        return
    reps, calls = map(int, args)
    faults, ms = series(model(), reps, calls)
    print(f"{reps:>2}-replicate calls x {calls:>3}: "
          f"{faults:7.1f} minor faults and {ms:6.3f} ms per replicate")


if __name__ == "__main__":
    main(sys.argv[1:])
