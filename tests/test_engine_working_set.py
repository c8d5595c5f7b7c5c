"""
The replicate engine's working set under its byte budget.

A treatment-feedback AR(5) calibration of 400 subjects at T = 210 (the
paper's six-week design) must take wider engine calls than the fixed
96-row engine did, and still peak no higher.  Peaks are traced by
tracemalloc, which sees numpy's buffers, after a warm-up call has filled
the engine's caches; the same call always allocates the same buffers, so
the peak repeats exactly.  The datasets of a replicate pass share the
model's read-only rho, where each once held its own (n, T) copy.
"""

import tracemalloc

import numpy as np
import pytest

from mrtpower import simulate
from mrtpower.design import TrialDesign, elicit_quadratic_effect, make_availability
from mrtpower.simulate import ErrorProcess, GenerativeModel, calibrate_sigma_star

# Traced peak of this calibration when every engine call held 96 rows
# (numpy 2.4, Python 3.11): 1.09 MiB.
FIXED_ROW_PEAK = 1_144_440
# Slack for allocator and library-version differences in the traced bytes.
TOLERANCE = 0.02
REPS = 400


@pytest.fixture(scope="module")
def model():
    design = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
    return GenerativeModel.treatment_feedback(
        design,
        elicit_quadratic_effect(0.0, 0.10, 29, design),
        make_availability("constant", 0.5, design),
        ErrorProcess("ar5", 0.6),
        eta1=0.1, eta2=0.1, gamma1=0.1, gamma2=0.1,
    )


def test_calibration_takes_three_engine_calls(model, monkeypatch):
    # the full calls hold at least 144 rows each, the last one the rest
    rows = []
    engine = simulate._simulate

    def counting(model, streams):
        rows.append(len(streams))
        return engine(model, streams)

    monkeypatch.setattr(simulate, "_simulate", counting)
    calibrate_sigma_star(model, REPS, seed=1)
    full = simulate._engine_rows(model.T)
    assert full >= 144
    assert len(rows) == 3 and sum(rows) == REPS
    assert rows[:-1] == [full] * 2


def test_calibration_peaks_no_higher_than_the_fixed_row_engine(model):
    calibrate_sigma_star(model, REPS, seed=1)  # warm-up: caches, not buffers
    tracemalloc.start()
    try:
        calibrate_sigma_star(model, REPS, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FIXED_ROW_PEAK * (1.0 + TOLERANCE), peak


# A pass of three 145-subject replicates of working-true AR(5) at T = 210,
# one replicate per engine call, traced at 1.52 MiB when every dataset held
# its own (n, T) copy of rho, and at 1.28 MiB with rho shared.
SHARED_RHO_PEAK = int(1.30 * 2**20)


@pytest.fixture(scope="module")
def working_model():
    design = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
    return GenerativeModel.working_true(
        design,
        elicit_quadratic_effect(0.0, 0.10, 29, design),
        make_availability("constant", 0.5, design),
        ErrorProcess("ar5", 0.6),
    )


def _replicate_pass(model):
    for dataset in simulate._replicate_datasets(model, 145, 1, range(3)):
        assert np.shares_memory(dataset.prob, model.rho)


def test_replicate_datasets_share_rho(working_model):
    _replicate_pass(working_model)  # warm-up: caches, not buffers
    tracemalloc.start()
    try:
        _replicate_pass(working_model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SHARED_RHO_PEAK, peak
