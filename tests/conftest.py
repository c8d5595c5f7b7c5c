"""
Shared fixtures.

The 1000-replicate null Monte Carlo run is expensive (~7 s) and is consumed
by both the simulate-module calibration test and the acceptance suite, so it
runs once per session here.  MC_SEED is the pinned seed for every
statistical fixture; the bands asserted elsewhere were sized against
independent large-replicate runs, and the fixed seed makes each test
deterministic.
"""

import time

import numpy as np
import pytest

MC_SEED = 20260816


@pytest.fixture(scope="session")
def null_mc():
    """(report, seconds) for the 1000-replicate null run at the sized design.

    Working-model-true generation, i.i.d. normal errors, constant
    availability 0.5, N=42 subjects, zero effect, adjusted test.  The timer
    covers only the tallied run (a tiny warmup call precedes it so
    first-call costs are not billed to the run).
    """
    from mrtpower.design import EffectPath, TrialDesign, make_availability
    from mrtpower.simulate import ErrorProcess, GenerativeModel, monte_carlo

    design = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
    model = GenerativeModel.working_true(
        design,
        EffectPath.quadratic(np.zeros(3), design),
        make_availability("constant", 0.5, design),
        ErrorProcess("iid-normal"),
    )
    monte_carlo(model, 42, 2, 0.05, seed=MC_SEED)  # warmup
    start = time.perf_counter()
    report = monte_carlo(model, 42, 1000, 0.05, seed=MC_SEED)
    elapsed = time.perf_counter() - start
    return report, elapsed
