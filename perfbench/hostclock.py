"""Timing in units of a fixed reference computation.

The benchmark runs on shared virtual machines whose speed swings by up to
1.8x over seconds to minutes as other tenants load the host.  Wall time and
CPU time swing together, so neither can be compared across runs.  Each timed
call is therefore bracketed by two runs of ``reference()``, a fixed mix of
interpreter arithmetic, allocation, small-array NumPy, JSON and sorting
work, and its time is divided by the mean of the two.  The quotient is
reported in ms of a host on which ``reference()`` takes ``REF_MS`` (about
its time on the 2-vCPU Xeon machine the bounds were set on), so the figures
keep the program's own scale.

The two vCPUs of that machine also ran at different speeds at the same
moment, so ``pin()`` keeps the benchmark and every process it starts on one
CPU, where the reference runs too; ``HostClock.time_parallel`` lifts that
for a call that is meant to use several workers.

On that machine, over 20-second windows, the spread (IQR over median) of
sizing, Monte Carlo and CSV calls fell from 0.11-0.18 in wall time to
0.02-0.07 in reference units, and that of a CLI subprocess from 0.18 to
about 0.09.
"""

import contextlib
import json
import os
import random
import time

import numpy as np

REF_MS = 1.5

_RECORDS = [{"a": i, "b": [i * 0.5, str(i)], "c": {"d": i % 7}} for i in range(150)]
_PAIRS = [(x, i) for i, x in enumerate(random.Random(3).random() for _ in range(1500))]


def reference():
    """The fixed unit of work every timing is divided by."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    table = {}
    for i in range(300):
        table[(i, i * 0.5)] = [i] * 3
    a = np.arange(64.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    records = json.loads(json.dumps(_RECORDS))
    pairs = sorted(_PAIRS)
    return total + len(table) + float(a[0]) + len(records) + pairs[0][1]


CPUS = sorted(os.sched_getaffinity(0))


def pin():
    """Runs this process, and the processes it starts, on one CPU; returns it."""
    os.sched_setaffinity(0, {CPUS[-1]})
    return CPUS[-1]


@contextlib.contextmanager
def _all_cpus():
    """Lets processes started inside the block use every CPU."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def reference_s(cpus=None):
    """Seconds ``reference()`` takes here, or its mean over ``cpus`` in turn."""
    if cpus is None:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    pinned = os.sched_getaffinity(0)
    try:
        total = 0.0
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            total += reference_s()
        return total / len(cpus)
    finally:
        os.sched_setaffinity(0, pinned)


def scale(elapsed, before, after):
    """``elapsed`` seconds, scaled by the reference times around them."""
    return elapsed * REF_MS * 2e-3 / (before + after)


class HostClock:
    """Times calls and scales each by the reference runs around it.

    ``raw_s`` accumulates the unscaled seconds spent in timed calls.
    """

    def __init__(self):
        self.raw_s = 0.0
        reference()  # warm the interpreter's caches

    def time(self, fn, *args, **kwargs):
        """Returns ``(fn(*args, **kwargs), scaled seconds)``."""
        return self._time(None, fn, args, kwargs)

    def time_parallel(self, fn, *args, **kwargs):
        """As ``time``, for a call whose worker processes may use every CPU;
        the reference then runs on each CPU and its mean scales the call."""
        return self._time(CPUS, fn, args, kwargs)

    def _time(self, cpus, fn, args, kwargs):
        before = reference_s(cpus)
        with _all_cpus() if cpus else contextlib.nullcontext():
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
        after = reference_s(cpus)
        self.raw_s += elapsed
        return out, scale(elapsed, before, after)
