"""
Tests for the one Gram guard, ``design._equilibrated_eigh``, through its
public callers: feature construction, the information matrix Q, and the
effect projection.

Tolerance strategy
------------------
Guard verdicts are exact (accept or raise), so no tolerance is involved.
The reference for a verdict is the raw-trace check the package used before
(``tests/_reference_guard.py``): over a seeded sweep of designs and
availability patterns, every Gram the raw check accepts must be accepted by
the equilibrated one.  Long designs, which the raw check rejects because the
u^2 column dominates the trace, must build, size and project.
"""

import numpy as np
import pytest

from _reference_guard import reference_check_invertible, reference_q_matrix
from mrtpower.design import (
    _SHAPE_PARAMS,
    AVAILABILITY_KINDS,
    FeaturePaths,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
    project_effect,
)
from mrtpower.exceptions import NumericError
from mrtpower.samplesize import compute_q_matrix


@pytest.mark.parametrize("per_day", [1, 5])
@pytest.mark.parametrize("days", [865, 1000, 5000])
class TestLongDesigns:
    def test_quadratic_features_build(self, days, per_day):
        feats = build_quadratic_features(TrialDesign(days, per_day, 0.4))
        assert feats.T == days * per_day

    @pytest.mark.parametrize(
        "kind, kwargs", [("constant", {}), ("linear", {"amplitude": 1.0})], ids=["constant", "linear"]
    )
    def test_information_matrix_is_accepted(self, days, per_day, kind, kwargs):
        design = TrialDesign(days, per_day, 0.4)
        tau = make_availability(kind, 0.5, design, **kwargs)
        q = compute_q_matrix(tau, design.rho, build_quadratic_features(design))
        assert q.shape == (3, 3) and np.array_equal(q, q.T)

    def test_effect_projection_returns(self, days, per_day):
        design = TrialDesign(days, per_day, 0.4)
        feats = build_quadratic_features(design)
        tau = make_availability("linear", 0.5, design, amplitude=1.0)
        effect = elicit_quadratic_effect(0.0, 0.1, days // 2, design)
        proj = project_effect(effect, tau, feats, design.rho)
        assert np.all(np.isfinite(proj.coeffs))
        assert np.allclose(proj.path, effect.path, rtol=0.0, atol=1e-9)


def _verdict(check, *args):
    try:
        check(*args)
    except NumericError:
        return False
    return True


def _sweep_case(rng):
    days = int(np.exp(rng.uniform(np.log(3), np.log(3000))))
    design = TrialDesign(days, int(rng.choice([1, 5])), 0.4)
    kind = str(rng.choice(AVAILABILITY_KINDS))
    average = rng.uniform(0.1, 0.9)
    # within these amplitudes every pattern stays inside [0, 1]
    amplitude = rng.uniform(0.0, 2.0 if kind == "linear" else 1.0) * min(average, 1.0 - average)
    break_day = int(rng.integers(1, days + 1))
    # both shape parameters are drawn for every kind, so the cases do not
    # depend on which ones a kind reads
    shape = {"amplitude": amplitude, "break_day": break_day}
    tau = make_availability(
        kind, average, design, **{key: shape[key] for key in _SHAPE_PARAMS[kind]}
    ).tau
    u = design.day_index
    if rng.random() < 0.25:
        # availability on a window of 1-4 days: singular Q, or barely regular
        start = rng.integers(0, days)
        tau = np.where((u >= start) & (u < start + rng.integers(1, 5)), tau, 0.0)
    return design, tau, np.column_stack([np.ones(design.T), u, u * u])


def test_equilibrated_guard_accepts_whatever_the_raw_guard_accepts():
    rng = np.random.default_rng(20261018)
    only_equilibrated = 0
    for _ in range(300):
        design, tau, Z = _sweep_case(rng)
        raw_features = _verdict(reference_check_invertible, Z.T @ Z, "features")
        raw_q = _verdict(reference_q_matrix, tau, design.rho, Z)
        try:
            feats = FeaturePaths(Z=Z, B=Z.copy())
        except NumericError:
            assert not (raw_features or raw_q), design
            continue
        ok_q = _verdict(compute_q_matrix, tau, design.rho, feats)
        assert ok_q or not raw_q, design
        only_equilibrated += (not raw_features) + (ok_q and not raw_q)
    # the sweep reaches the lengths where the raw guard gives up
    assert only_equilibrated > 0
