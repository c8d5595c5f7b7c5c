"""
Tests for the information matrix, noncentrality, power function, and the
minimal-sample-size solver.

Tolerance strategy
------------------
The information matrix and noncentrality have exact closed forms for
constant availability (integer power sums times a rational weight), so they
are checked against `fractions.Fraction` oracles at 1e-12 relative.  The
solver is checked against a frozen grid of 78 reference sizes computed with
an independent implementation of the same formula (scipy's F distributions)
before this package was written; the solver must reproduce every integer
exactly and certify minimality.
"""

import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtpower import ConfigError, NumericError, samplesize
from mrtpower.design import (
    EffectPath,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.samplesize import (
    SampleSizeResult,
    SizingInputs,
    compute_q_matrix,
    noncentrality,
    power,
    solve_sample_size,
)

EXACT_REL = 1e-12
NULL_POWER_TOL = 1e-10
KAPPA_TOL = 1e-10

ALPHA0 = 0.05
TARGET = 0.80

# ---------------------------------------------------------------------
# Frozen reference sizing grids (verified against an independent scipy
# implementation of the identical formula; every entry must match exactly).
#
# 42-day design, 5 decisions/day, rho = 0.4, effect peaking on day 29,
# zero initial effect: (average effect, constant availability) -> n.
# ---------------------------------------------------------------------
REFERENCE_SIZES_42_DAY = {
    (0.10, 0.7): 32, (0.10, 0.6): 36, (0.10, 0.5): 42, (0.10, 0.4): 52,
    (0.09, 0.7): 38, (0.09, 0.6): 44, (0.09, 0.5): 51, (0.09, 0.4): 63,
    (0.08, 0.7): 47, (0.08, 0.6): 54, (0.08, 0.5): 64, (0.08, 0.4): 78,
    (0.07, 0.7): 60, (0.07, 0.6): 69, (0.07, 0.5): 81, (0.07, 0.4): 101,
    (0.06, 0.7): 79, (0.06, 0.6): 92, (0.06, 0.5): 109, (0.06, 0.4): 135,
    (0.05, 0.7): 112, (0.05, 0.6): 130, (0.05, 0.5): 155, (0.05, 0.4): 193,
}

# (days, peak day) -> {availability: (n at average effect 0.10, 0.08, 0.06)}.
# The 28-day/peak-29 rows place the vertex past the study end; they are
# exercised through directly constructed coefficients since the elicitation
# API (correctly) rejects a peak day beyond the study.
REFERENCE_SIZES_BY_DURATION = {
    (28, 15): {0.5: (59, 89, 154), 0.7: (43, 65, 112)},
    (28, 22): {0.5: (60, 91, 158), 0.7: (44, 66, 114)},
    (28, 29): {0.5: (58, 87, 152), 0.7: (43, 64, 110)},
    (42, 22): {0.5: (41, 61, 105), 0.7: (31, 45, 76)},
    (42, 29): {0.5: (42, 64, 109), 0.7: (32, 47, 79)},
    (42, 36): {0.5: (41, 62, 106), 0.7: (31, 45, 77)},
    (56, 29): {0.5: (32, 47, 80), 0.7: (25, 35, 58)},
    (56, 36): {0.5: (33, 49, 84), 0.7: (26, 37, 61)},
    (56, 43): {0.5: (33, 48, 82), 0.7: (25, 36, 60)},
}


@pytest.fixture(scope="module")
def design():
    return TrialDesign(days=42, decisions_per_day=5, rho=0.4)


@pytest.fixture(scope="module")
def feats(design):
    return build_quadratic_features(design)


@pytest.fixture
def evaluated(monkeypatch):
    """The n of every power evaluation the solver makes, in order."""
    ns = []
    real_power = samplesize._power

    def counting_power(p, q, n, alpha0, lam):
        ns.append(n)
        return real_power(p, q, n, alpha0, lam)

    monkeypatch.setattr(samplesize, "_power", counting_power)
    return ns


def _effect_with_peak(dbar, max_day, design):
    """Quadratic effect with zero initial value, given average and peak day.

    Solves the constraint system directly so vertices past the study end
    (used by some reference rows) can be constructed without the elicitation
    API's range check.
    """
    u = design.day_index.astype(np.float64)
    system = np.array(
        [[1.0, 0.0, 0.0], [1.0, u.mean(), (u * u).mean()], [0.0, 1.0, 2.0 * (max_day - 1)]]
    )
    return EffectPath.quadratic(np.linalg.solve(system, [0.0, dbar, 0.0]), design)


def _sizing(design, feats, taubar, effect, alpha0=ALPHA0, target=TARGET):
    tau = make_availability("constant", taubar, design)
    return SizingInputs(design, feats, tau, effect, alpha0, target)


# =====================================================================
# Information matrix
# =====================================================================


class TestQMatrix:
    def test_matches_exact_rational_summation(self, design, feats):
        # constant tau = 0.5, rho = 0.4: Q = (3/25) * integer power sums
        tau = make_availability("constant", 0.5, design)
        q = compute_q_matrix(tau, design.rho, feats)
        w = Fraction(1, 2) * Fraction(2, 5) * Fraction(3, 5)
        days = range(42)
        s = [5 * sum(u**k for u in days) for k in range(5)]
        exact = [[s[0], s[1], s[2]], [s[1], s[2], s[3]], [s[2], s[3], s[4]]]
        for i in range(3):
            for j in range(3):
                want = float(w * exact[i][j])
                assert q[i, j] == pytest.approx(want, rel=EXACT_REL)

    def test_constant_inputs_factor_out(self, design, feats):
        tau = make_availability("constant", 0.5, design)
        q = compute_q_matrix(tau, design.rho, feats)
        base = compute_q_matrix(np.ones(design.T), 0.4, feats)
        assert np.allclose(q, 0.5 * base, rtol=EXACT_REL, atol=0)

    def test_symmetric(self, design, feats):
        tau = make_availability("linear", 0.5, design, amplitude=0.4)
        q = compute_q_matrix(tau, design.rho, feats)
        assert np.array_equal(q, q.T)

    def test_zero_availability_not_positive_definite(self, design, feats):
        with pytest.raises(NumericError, match="positive definite"):
            compute_q_matrix(np.zeros(design.T), design.rho, feats)

    def test_single_day_support_not_positive_definite(self, design, feats):
        # availability confined to day 0 leaves only the constant feature
        tau = np.zeros(design.T)
        tau[:5] = 1.0
        with pytest.raises(NumericError, match="positive definite"):
            compute_q_matrix(tau, design.rho, feats)

    def test_length_mismatch_rejected(self, design, feats):
        with pytest.raises(ConfigError):
            compute_q_matrix(np.full(100, 0.5), design.rho, feats)


# =====================================================================
# Noncentrality
# =====================================================================


class TestNoncentrality:
    def test_zero_effect_gives_zero(self, design, feats):
        tau = make_availability("constant", 0.5, design)
        q = compute_q_matrix(tau, design.rho, feats)
        eff = EffectPath.quadratic([0.0, 0.0, 0.0], design)
        assert noncentrality(10, eff, q) == 0.0

    def test_linear_in_n(self, design, feats):
        tau = make_availability("constant", 0.5, design)
        q = compute_q_matrix(tau, design.rho, feats)
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        c1 = noncentrality(1, eff, q)
        for n in (2, 7, 64, 1000):
            assert noncentrality(n, eff, q) == pytest.approx(n * c1, rel=EXACT_REL)

    def test_matches_scalar_summation(self, design, feats):
        # constant tau, rho: c_n = n * sum_t tau*rho*(1-rho) * d(t)^2
        tau = make_availability("constant", 0.5, design)
        q = compute_q_matrix(tau, design.rho, feats)
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        d1, d2, d3 = eff.coeffs
        scalar = 5.0 * sum(
            0.5 * 0.4 * 0.6 * (d1 + d2 * u + d3 * u * u) ** 2 for u in range(42)
        )
        assert noncentrality(42, eff, q) == pytest.approx(42 * scalar, rel=1e-11)

    def test_requires_quadratic_form(self, design, feats):
        tau = make_availability("constant", 0.5, design)
        q = compute_q_matrix(tau, design.rho, feats)
        eff = EffectPath.explicit(np.full(design.T, 0.1))
        with pytest.raises(ConfigError, match="quadratic"):
            noncentrality(10, eff, q)

    def test_rejects_nonpositive_n(self, design, feats):
        tau = make_availability("constant", 0.5, design)
        q = compute_q_matrix(tau, design.rho, feats)
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        with pytest.raises(ConfigError):
            noncentrality(0, eff, q)


# =====================================================================
# Power function
# =====================================================================


class TestPower:
    def test_null_effect_power_equals_alpha(self, design, feats):
        si = _sizing(design, feats, 0.5, EffectPath.quadratic([0.0, 0.0, 0.0], design))
        for n in (10, 42, 500):
            assert abs(power(n, si) - ALPHA0) <= NULL_POWER_TOL

    def test_strictly_increasing_in_effect_size(self, design, feats):
        values = []
        for dbar in (0.02, 0.05, 0.08, 0.11, 0.14):
            si = _sizing(design, feats, 0.5, elicit_quadratic_effect(0.0, dbar, 29, design))
            values.append(power(42, si))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_reference_boundary_cell(self, design, feats):
        # availability 0.5, average effect 0.10: 42 subjects meet the 80%
        # target and 41 do not
        si = _sizing(design, feats, 0.5, elicit_quadratic_effect(0.0, 0.1, 29, design))
        assert power(42, si) >= TARGET
        assert power(41, si) < TARGET

    def test_degrees_of_freedom_guard(self, design, feats):
        si = _sizing(design, feats, 0.5, elicit_quadratic_effect(0.0, 0.1, 29, design))
        for n in (1, 6):
            with pytest.raises(ConfigError, match="degrees of freedom"):
                power(n, si)
        assert 0.0 < power(7, si) < 1.0

    def test_scaling_features_and_effect_inversely_is_invariant(self, design, feats):
        from mrtpower.design import FeaturePaths

        kappa = 3.7
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        si = _sizing(design, feats, 0.5, eff)
        scaled_feats = FeaturePaths(Z=kappa * feats.Z, B=feats.B.copy())
        scaled_eff = EffectPath.quadratic(eff.coeffs / kappa, design)
        si_scaled = _sizing(design, scaled_feats, 0.5, scaled_eff)
        for n in (20, 42, 64, 150):
            assert abs(power(n, si) - power(n, si_scaled)) <= KAPPA_TOL


# =====================================================================
# Sizing inputs validation
# =====================================================================


class TestSizingInputs:
    def test_alpha_domain(self, design, feats):
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        tau = make_availability("constant", 0.5, design)
        for bad in (0.0, 0.5, -0.01, 0.7):
            with pytest.raises(ConfigError):
                SizingInputs(design, feats, tau, eff, bad, TARGET)

    def test_alpha_without_a_double_precision_test_rejected(self, design, feats):
        # 1 - alpha0 rounds to 1.0, so the level-alpha0 critical value does not exist
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        tau = make_availability("constant", 0.5, design)
        for bad in (1e-17, 5e-324):
            with pytest.raises(ConfigError, match=r"1 - alpha0 below 1\.0"):
                SizingInputs(design, feats, tau, eff, bad, TARGET)

    def test_power_target_domain(self, design, feats):
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        tau = make_availability("constant", 0.5, design)
        for bad in (0.05, 1.0, 0.03):
            with pytest.raises(ConfigError):
                SizingInputs(design, feats, tau, eff, ALPHA0, bad)

    def test_power_target_within_the_quantile_tolerance_rejected(self, design, feats):
        # the critical value's tail is known to 1e-10; power(n) is not monotone below that
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        tau = make_availability("constant", 0.5, design)
        for alpha0, bad in ((1e-12, 1.0000000000000002e-12), (0.05, 0.05 + 5e-11)):
            with pytest.raises(ConfigError, match="exceed alpha0 by more than 1e-10"):
                SizingInputs(design, feats, tau, eff, alpha0, bad)
        SizingInputs(design, feats, tau, eff, 0.05, 0.05 + 2e-10)

    def test_explicit_effect_rejected(self, design, feats):
        tau = make_availability("constant", 0.5, design)
        eff = EffectPath.explicit(np.full(design.T, 0.1))
        with pytest.raises(ConfigError, match="quadratic"):
            SizingInputs(design, feats, tau, eff, ALPHA0, TARGET)

    def test_length_mismatch_rejected(self, design, feats):
        short = TrialDesign(days=28, decisions_per_day=5, rho=0.4)
        tau = make_availability("constant", 0.5, short)
        eff = elicit_quadratic_effect(0.0, 0.1, 15, short)
        with pytest.raises(ConfigError, match="lengths"):
            SizingInputs(design, feats, tau, eff, ALPHA0, TARGET)

    def test_q_matrix_computed_once_and_read_only(self, design, feats):
        si = _sizing(design, feats, 0.5, elicit_quadratic_effect(0.0, 0.1, 29, design))
        q = si.q_matrix
        assert si.q_matrix is q
        assert not q.flags.writeable
        np.testing.assert_array_equal(q, compute_q_matrix(si.tau, design.rho, feats))

    def test_pickled_copy_is_rebuilt_read_only(self, design, feats):
        si = _sizing(design, feats, 0.5, elicit_quadratic_effect(0.0, 0.1, 29, design))
        si.q_matrix  # cached in the instance before pickling
        copy = pickle.loads(pickle.dumps(si))
        assert copy == si
        assert not copy.q_matrix.flags.writeable
        np.testing.assert_array_equal(copy.q_matrix, si.q_matrix)
        assert solve_sample_size(copy) == solve_sample_size(si)

    def test_result_validation(self):
        with pytest.raises(ConfigError):
            SampleSizeResult(0, 1.0, 0.8, 0.7, 0.8)
        with pytest.raises(ConfigError):
            SampleSizeResult(10, 1.0, 1.3, 0.7, 0.8)


# =====================================================================
# Sample-size solver
# =====================================================================


class TestSolveSampleSize:
    @pytest.mark.parametrize(
        "dbar,taubar,expected",
        [(d, t, n) for (d, t), n in sorted(REFERENCE_SIZES_42_DAY.items())],
    )
    def test_reference_grid_42_day(self, design, feats, dbar, taubar, expected):
        si = _sizing(design, feats, taubar, elicit_quadratic_effect(0.0, dbar, 29, design))
        res = solve_sample_size(si)
        assert res.n == expected
        assert res.achieved_power >= TARGET > res.power_at_n_minus_1
        # power is nondecreasing through the solution neighborhood
        assert res.achieved_power >= res.power_at_n_minus_1

    @pytest.mark.parametrize(
        "days,max_day,taubar,dbar,expected",
        [
            (days, max_day, taubar, dbar, n)
            for (days, max_day), cols in sorted(REFERENCE_SIZES_BY_DURATION.items())
            for taubar, triple in sorted(cols.items())
            for dbar, n in zip((0.10, 0.08, 0.06), triple)
        ],
    )
    def test_reference_grid_other_durations(self, days, max_day, taubar, dbar, expected):
        d = TrialDesign(days=days, decisions_per_day=5, rho=0.4)
        f = build_quadratic_features(d)
        if max_day > days:
            eff = _effect_with_peak(dbar, max_day, d)
        else:
            eff = elicit_quadratic_effect(0.0, dbar, max_day, d)
        res = solve_sample_size(_sizing(d, f, taubar, eff))
        assert res.n == expected
        assert res.achieved_power >= TARGET > res.power_at_n_minus_1

    def test_noncentrality_reported_consistently(self, design, feats):
        si = _sizing(design, feats, 0.5, elicit_quadratic_effect(0.0, 0.1, 29, design))
        res = solve_sample_size(si)
        q = compute_q_matrix(si.tau, design.rho, feats)
        assert res.c_n == pytest.approx(
            noncentrality(res.n, si.effect, q), rel=EXACT_REL
        )
        assert res.achieved_power == pytest.approx(power(res.n, si), rel=EXACT_REL)

    def test_zero_effect_rejected(self, design, feats):
        si = _sizing(design, feats, 0.5, EffectPath.quadratic([0.0, 0.0, 0.0], design))
        with pytest.raises(ConfigError, match="zero"):
            solve_sample_size(si)

    def test_unreachable_target_raises_at_cap(self, design, feats):
        tiny = EffectPath.quadratic([1e-6, 0.0, 0.0], design)
        si = _sizing(design, feats, 0.5, tiny)
        with pytest.raises(NumericError, match="not reached"):
            solve_sample_size(si, n_cap=10_000)

    def test_cap_below_minimum_rejected(self, design, feats):
        si = _sizing(design, feats, 0.5, elicit_quadratic_effect(0.0, 0.1, 29, design))
        with pytest.raises(ConfigError):
            solve_sample_size(si, n_cap=5)

    def test_huge_effect_hits_minimal_n(self, design, feats):
        # an enormous effect saturates power at the smallest testable n
        si = _sizing(design, feats, 0.5, EffectPath.quadratic([5.0, 0.0, 0.0], design))
        res = solve_sample_size(si)
        assert res.n == 7  # p + q + 1
        assert res.power_at_n_minus_1 == 0.0

    @pytest.mark.parametrize(
        "coeffs,n_cap",
        [
            (None, samplesize.DEFAULT_N_CAP),  # elicited 0.10 effect, n = 42
            ([5.0, 0.0, 0.0], samplesize.DEFAULT_N_CAP),  # n = p + q + 1
            ([1e-6, 0.0, 0.0], None),  # target not reached by n_cap = 10_000
            ([0.00757, 0.0, 0.0], samplesize.DEFAULT_N_CAP),  # starts above n = 7554
            ([0.0055, 0.0, 0.0], None),  # starts at n_cap = 10_000, power there 0.63
            ([0.406, 0.0, 0.0], samplesize.DEFAULT_N_CAP),  # starts at n_min, n = 10
        ],
        ids=["elicited", "minimal-n", "cap-reached", "start-above", "start-at-cap",
             "start-at-n-min"],
    )
    def test_no_sample_size_evaluated_twice(self, design, feats, evaluated, coeffs, n_cap):
        if coeffs is None:
            effect = elicit_quadratic_effect(0.0, 0.1, 29, design)
        else:
            effect = EffectPath.quadratic(coeffs, design)
        si = _sizing(design, feats, 0.5, effect)
        if n_cap is None:
            n_cap = 10_000
            with pytest.raises(NumericError, match=(
                r"^power target 0\.8 not reached by n = 10000 \(power there is 0\.\d{4}\)$"
            )):
                solve_sample_size(si, n_cap=n_cap)
        else:
            solve_sample_size(si, n_cap=n_cap)
        assert evaluated
        assert len(evaluated) == len(set(evaluated))
        assert all(7 <= n <= n_cap for n in evaluated)  # n_min = p + q + 1

    @pytest.mark.parametrize(
        "c,n_cap,direction",
        [(0.00757, samplesize.DEFAULT_N_CAP, "down"), (0.0055, 10_000, "cap"),
         (0.406, samplesize.DEFAULT_N_CAP, "up")],
    )
    def test_search_start(self, design, feats, evaluated, c, n_cap, direction):
        # the cases above start where their ids say: above the answer (power
        # there reaches the target, so the search gallops down), clamped at
        # n_cap, and clamped at n_min below the answer
        si = _sizing(design, feats, 0.5, EffectPath.quadratic([c, 0.0, 0.0], design))
        if direction == "cap":
            with pytest.raises(NumericError, match="power there is 0.6305"):
                solve_sample_size(si, n_cap=n_cap)
            assert evaluated == [n_cap]
            return
        res = solve_sample_size(si, n_cap=n_cap)
        if direction == "down":
            assert evaluated[0] > res.n
        else:
            assert evaluated[0] == 7 < res.n

    @settings(deadline=None, max_examples=20)
    @given(
        dbar=st.floats(0.05, 0.2),
        taubar=st.floats(0.3, 0.9),
        max_day=st.integers(15, 42),
    )
    def test_solver_certificate_property(self, dbar, taubar, max_day):
        design = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
        feats = build_quadratic_features(design)
        eff = elicit_quadratic_effect(0.0, dbar, max_day, design)
        res = solve_sample_size(_sizing(design, feats, taubar, eff))
        assert res.achieved_power >= TARGET
        assert res.power_at_n_minus_1 < TARGET
