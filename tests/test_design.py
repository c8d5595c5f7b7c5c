"""
Tests for trial-design construction: feature paths, effect elicitation,
availability patterns, and weighted projection.

Tolerance strategy
------------------
Elicited coefficients for the reference design have closed forms (the 3x3
system has rational entries), so they are checked against exact rationals at
float precision.  Constraint-closure and idempotence checks use the 1e-9 /
1e-10 contract tolerances.  The projection is cross-checked against an
independent least-squares route (QR via numpy.linalg.lstsq on the
square-root-weighted system).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtpower import ConfigError, NumericError
from mrtpower.design import (
    AvailabilityPattern,
    EffectPath,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
    project_effect,
)

CONSTRAINT_TOL = 1e-9
IDEMPOTENCE_TOL = 1e-10

# Reference design: 42 days, 5 decision points per day.
DAYS = 42
PER_DAY = 5


@pytest.fixture()
def design():
    return TrialDesign(days=DAYS, decisions_per_day=PER_DAY, rho=0.4)


# =====================================================================
# TrialDesign
# =====================================================================


class TestTrialDesign:
    def test_total_decision_times(self, design):
        assert design.T == 210

    def test_day_index_spot_values(self, design):
        u = design.day_index
        # decision times t = 1..5 fall on day 0, t = 6 starts day 1
        assert u[0] == 0
        assert u[4] == 0
        assert u[5] == 1
        assert u[209] == 41

    def test_scalar_rho_broadcasts(self, design):
        assert design.rho.shape == (210,)
        assert np.all(design.rho == 0.4)

    def test_per_time_rho_accepted(self):
        rho = np.linspace(0.3, 0.5, 210)
        d = TrialDesign(days=DAYS, decisions_per_day=PER_DAY, rho=rho)
        assert np.array_equal(d.rho, rho)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rho_outside_open_interval_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrialDesign(days=DAYS, decisions_per_day=PER_DAY, rho=bad)

    @pytest.mark.parametrize("rho", [0.4, [0.4], np.full(210, 0.4)])
    def test_broadcastable_rho_accepted(self, rho):
        d = TrialDesign(days=DAYS, decisions_per_day=PER_DAY, rho=rho)
        assert d.rho.shape == (210,)

    @pytest.mark.parametrize("rho", [[0.4, 0.5], np.full((1, 210), 0.4), []])
    def test_wrong_length_rho_rejected(self, rho):
        with pytest.raises(ConfigError, match=r"length 210.*got shape"):
            TrialDesign(days=DAYS, decisions_per_day=PER_DAY, rho=rho)

    @pytest.mark.parametrize("days,per_day", [(0, 5), (-1, 5), (42, 0), (2.5, 5)])
    def test_bad_grid_rejected(self, days, per_day):
        with pytest.raises(ConfigError):
            TrialDesign(days=days, decisions_per_day=per_day, rho=0.4)

    @pytest.mark.parametrize(
        "days,per_day,T", [(10**30, 1, 10**30), (2**62, 2, 2**63)], ids=["1e30", "2^63"]
    )
    def test_unrepresentable_length_rejected(self, days, per_day, T):
        # numpy refuses the shape itself, so nothing is allocated
        with pytest.raises(ConfigError, match=rf"^the design has T = {T} decision times"):
            TrialDesign(days=days, decisions_per_day=per_day, rho=0.4)

    def test_arrays_are_read_only(self, design):
        with pytest.raises(ValueError):
            design.rho[0] = 0.5


# =====================================================================
# Quadratic feature paths
# =====================================================================


class TestQuadraticFeatures:
    def test_spot_rows(self, design):
        feats = build_quadratic_features(design)
        assert np.array_equal(feats.Z[0], [1.0, 0.0, 0.0])      # t = 1
        assert np.array_equal(feats.Z[5], [1.0, 1.0, 1.0])      # t = 6
        assert np.array_equal(feats.Z[209], [1.0, 41.0, 1681.0])  # t = 210

    def test_effect_and_nuisance_features_coincide(self, design):
        feats = build_quadratic_features(design)
        assert np.array_equal(feats.Z, feats.B)
        assert feats.p == 3 and feats.q == 3 and feats.T == 210

    def test_one_array_serves_both_paths(self, design):
        feats = build_quadratic_features(design)
        assert feats.B is feats.Z
        assert not feats.Z.flags.writeable

    def test_shared_path_is_guarded_once(self, design, monkeypatch):
        from mrtpower import design as design_module

        guarded = []
        real = design_module._equilibrated_eigh

        def record(mat, what):
            guarded.append(what)
            return real(mat, what)

        monkeypatch.setattr(design_module, "_equilibrated_eigh", record)
        design_module._quadratic_features.cache_clear()  # build, not a memo hit
        feats = build_quadratic_features(design)
        assert guarded == ["effect-feature Gram matrix"]
        design_module.FeaturePaths(Z=feats.Z, B=feats.Z[:, :2])
        assert guarded[1:] == ["effect-feature Gram matrix", "nuisance-feature Gram matrix"]

    def test_degenerate_features_rejected(self):
        # a rank-deficient Z (third column duplicates the second)
        u = np.arange(10.0)
        Z = np.column_stack([np.ones(10), u, u])
        with pytest.raises(NumericError):
            from mrtpower.design import FeaturePaths

            FeaturePaths(Z=Z, B=Z.copy())


# =====================================================================
# Effect elicitation
# =====================================================================


class TestElicitation:
    def test_reference_coefficients_exact(self, design):
        # For the 42x5 grid, mean(u) = 20.5 and mean(u^2) = 3403/6, so the
        # solve for initial=0, average=0.1, max_day=29 reduces to
        #   d3 = -0.6/3485,  d2 = 33.6/3485,  d1 = 0.
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        assert eff.coeffs[0] == 0.0
        assert eff.coeffs[1] == pytest.approx(33.6 / 3485.0, rel=1e-12)
        assert eff.coeffs[2] == pytest.approx(-0.6 / 3485.0, rel=1e-12)

    def test_constraints_closed_loop(self, design):
        eff = elicit_quadratic_effect(0.02, 0.15, 20, design)
        d1, d2, d3 = eff.coeffs
        assert abs(eff.path[0] - 0.02) <= CONSTRAINT_TOL
        assert abs(eff.average - 0.15) <= CONSTRAINT_TOL
        assert abs(d2 + 2.0 * d3 * (20 - 1)) <= CONSTRAINT_TOL
        assert d3 < 0.0

    def test_flat_specification_rejected(self, design):
        with pytest.raises(ConfigError, match="flat"):
            elicit_quadratic_effect(0.1, 0.1, 29, design)

    def test_no_interior_maximum_rejected(self, design):
        # average above initial with a very early peak cannot come from a
        # concave quadratic on this grid
        with pytest.raises(ConfigError, match="interior maximum"):
            elicit_quadratic_effect(0.0, 0.1, 5, design)

    @pytest.mark.parametrize("max_day", [1, 0, 43, 2.5])
    def test_max_day_domain(self, design, max_day):
        with pytest.raises(ConfigError):
            elicit_quadratic_effect(0.0, 0.1, max_day, design)

    @settings(deadline=None, max_examples=50)
    @given(
        initial=st.floats(-0.05, 0.05),
        lift=st.floats(0.01, 0.3),
        max_day=st.integers(15, DAYS),
    )
    def test_elicitation_closes_for_feasible_inputs(self, initial, lift, max_day):
        # with the vertex late enough, average > initial is always feasible
        design = TrialDesign(days=DAYS, decisions_per_day=PER_DAY, rho=0.4)
        eff = elicit_quadratic_effect(initial, initial + lift, max_day, design)
        assert abs(eff.path[0] - initial) <= CONSTRAINT_TOL
        assert abs(eff.average - (initial + lift)) <= CONSTRAINT_TOL
        assert abs(eff.coeffs[1] + 2.0 * eff.coeffs[2] * (max_day - 1)) <= CONSTRAINT_TOL
        assert eff.coeffs[2] < 0.0


# =====================================================================
# Availability patterns
# =====================================================================


class TestAvailability:
    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("constant", {}),
            ("linear", {"amplitude": 0.4}),
            ("weekly-periodic", {"amplitude": -0.2}),
            ("piecewise", {"amplitude": 0.3, "break_day": 22}),
        ],
    )
    def test_mean_matches_target(self, design, kind, kwargs):
        pat = make_availability(kind, 0.5, design, **kwargs)
        assert abs(pat.tau.mean() - 0.5) <= CONSTRAINT_TOL
        assert pat.tau.min() >= 0.0 and pat.tau.max() <= 1.0
        assert pat.kind == kind

    def test_constant_is_exactly_flat(self, design):
        pat = make_availability("constant", 0.7, design)
        assert np.all(pat.tau == 0.7)

    def test_linear_is_monotone(self, design):
        pat = make_availability("linear", 0.5, design, amplitude=0.4)
        assert np.all(np.diff(pat.tau) > 0)
        assert pat.tau[0] == pytest.approx(0.3)
        assert pat.tau[-1] == pytest.approx(0.7)

    def test_weekly_pattern_repeats_by_day_of_week(self, design):
        pat = make_availability("weekly-periodic", 0.5, design, amplitude=-0.2)
        u = design.day_index
        by_dow = [np.unique(pat.tau[u % 7 == k]) for k in range(7)]
        assert all(len(vals) == 1 for vals in by_dow)
        # weekend (day-of-week 5, 6) sits amplitude below the weekdays
        assert by_dow[5][0] == pytest.approx(by_dow[0][0] - 0.2)

    def test_piecewise_has_two_levels(self, design):
        pat = make_availability("piecewise", 0.5, design, amplitude=0.3, break_day=22)
        levels = np.unique(pat.tau)
        assert len(levels) == 2
        assert levels[1] - levels[0] == pytest.approx(0.3)
        # the step lands exactly at the start of day 22 (u = 21)
        u = design.day_index
        assert np.all(pat.tau[u < 21] == levels[0])
        assert np.all(pat.tau[u >= 21] == levels[1])

    def test_infeasible_pattern_rejected(self, design):
        with pytest.raises(ConfigError, match="infeasible"):
            make_availability("linear", 0.9, design, amplitude=0.4)

    def test_shape_parameters_follow_the_kind(self, design):
        with pytest.raises(ConfigError, match="constant availability takes no amplitude"):
            make_availability("constant", 0.5, design, amplitude=0.9)
        with pytest.raises(ConfigError, match="weekly-periodic availability takes no break_day"):
            make_availability("weekly-periodic", 0.5, design, amplitude=0.1, break_day=2)
        with pytest.raises(ConfigError, match="linear availability requires amplitude"):
            make_availability("linear", 0.5, design)
        with pytest.raises(ConfigError, match="piecewise availability requires break_day"):
            make_availability("piecewise", 0.5, design, amplitude=0.1)

    def test_unknown_kind_rejected(self, design):
        with pytest.raises(ConfigError):
            make_availability("sinusoid", 0.5, design, amplitude=0.1)

    def test_target_average_domain(self, design):
        with pytest.raises(ConfigError):
            make_availability("constant", 0.0, design)
        with pytest.raises(ConfigError):
            make_availability("constant", 1.2, design)

    def test_direct_construction_validates_mean(self, design):
        with pytest.raises(ConfigError, match="target average"):
            AvailabilityPattern(tau=np.full(210, 0.5), kind="constant", target_average=0.6)

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "kind,extra", [("linear", {}), ("weekly-periodic", {}), ("piecewise", {"break_day": 22})]
    )
    def test_non_finite_amplitude_rejected(self, design, kind, extra, amplitude):
        with pytest.raises(ConfigError, match="^amplitude must be a number"):
            make_availability(kind, 0.5, design, amplitude=amplitude, **extra)

    def test_direct_construction_rejects_nan(self, design):
        tau = np.full(210, 0.5)
        tau[7] = np.nan
        with pytest.raises(ConfigError, match=r"lie in \[0, 1\]"):
            AvailabilityPattern(tau=tau, kind="constant", target_average=0.5)
        with pytest.raises(ConfigError, match="target average"):
            AvailabilityPattern(
                tau=np.full(210, 0.5), kind="constant", target_average=float("nan")
            )


# =====================================================================
# Effect paths and projection
# =====================================================================


class TestEffectPath:
    def test_quadratic_evaluates_on_day_grid(self, design):
        eff = EffectPath.quadratic([0.1, 0.01, -0.001], design)
        u = design.day_index
        expected = 0.1 + 0.01 * u - 0.001 * u**2
        assert np.allclose(eff.path, expected, rtol=1e-15, atol=1e-15)

    def test_explicit_path_round_trips(self):
        values = np.linspace(0.0, 0.2, 210)
        eff = EffectPath.explicit(values)
        assert eff.form == "explicit"
        assert eff.coeffs is None
        assert np.array_equal(eff.path, values)

    def test_quadratic_requires_three_coefficients(self, design):
        with pytest.raises(ConfigError):
            EffectPath(form="quadratic", path=np.zeros(210), coeffs=np.zeros(2))


class TestProjection:
    def test_idempotent_on_quadratic(self, design):
        feats = build_quadratic_features(design)
        tau = make_availability("linear", 0.5, design, amplitude=0.4)
        eff = elicit_quadratic_effect(0.0, 0.1, 29, design)
        proj = project_effect(eff, tau, feats, design.rho)
        assert np.max(np.abs(proj.coeffs - eff.coeffs)) <= IDEMPOTENCE_TOL
        assert np.max(np.abs(proj.path - eff.path)) <= IDEMPOTENCE_TOL

    def test_projection_is_idempotent(self, design):
        feats = build_quadratic_features(design)
        tau = make_availability("weekly-periodic", 0.5, design, amplitude=0.2)
        rng = np.random.default_rng(7)
        raw = rng.normal(0.1, 0.05, size=210)
        once = project_effect(raw, tau, feats, design.rho)
        twice = project_effect(once, tau, feats, design.rho)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) <= IDEMPOTENCE_TOL

    def test_matches_independent_least_squares(self, design):
        feats = build_quadratic_features(design)
        tau = make_availability("linear", 0.6, design, amplitude=0.3)
        rng = np.random.default_rng(11)
        raw = rng.normal(0.1, 0.05, size=210)
        proj = project_effect(raw, tau, feats, design.rho)
        # independent route: QR least squares on the sqrt-weighted system
        w = tau.tau * design.rho * (1.0 - design.rho)
        sw = np.sqrt(w)
        coeffs, *_ = np.linalg.lstsq(sw[:, None] * feats.Z, sw * raw, rcond=None)
        assert np.max(np.abs(proj.coeffs - coeffs)) <= 1e-10

    def test_weights_matter(self, design):
        # a steep availability gradient must tilt the projection relative to
        # the unweighted fit
        feats = build_quadratic_features(design)
        flat = make_availability("constant", 0.5, design)
        tilted = make_availability("linear", 0.5, design, amplitude=0.9)
        raw = np.where(design.day_index < 21, 0.05, 0.15)
        a = project_effect(raw, flat, feats, design.rho)
        b = project_effect(raw, tilted, feats, design.rho)
        assert np.max(np.abs(a.coeffs - b.coeffs)) > 1e-4

    def test_length_mismatch_rejected(self, design):
        feats = build_quadratic_features(design)
        tau = make_availability("constant", 0.5, design)
        with pytest.raises(ConfigError):
            project_effect(np.zeros(100), tau, feats, design.rho)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_idempotence_property(self, seed):
        design = TrialDesign(days=DAYS, decisions_per_day=PER_DAY, rho=0.4)
        feats = build_quadratic_features(design)
        tau = make_availability("constant", 0.5, design)
        rng = np.random.default_rng(seed)
        raw = rng.normal(0.0, 1.0, size=210)
        once = project_effect(raw, tau, feats, design.rho)
        twice = project_effect(once, tau, feats, design.rho)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) <= IDEMPOTENCE_TOL
