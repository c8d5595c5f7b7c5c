"""
Tests for trial generation and the Monte Carlo driver.

Tolerance strategy
------------------
Deterministic structure (draw-order contracts, centering constants, variance
normalizations, Yule-Walker solutions) is checked exactly or at 1e-12
relative against closed forms derived independently in the test (for the
equal-coefficient AR(5), the autocovariance is phi / (5 - 4 phi) at every
lag).  Statistical invariants use fixed seeds with bands set at ~3 standard
errors for the given sample size; each band was sized against the probe run
whose values are quoted in the assertion comments, so the tests are
deterministic, not flaky.
"""

import dataclasses
import functools
import json
import multiprocessing
import pickle

import numpy as np
import pytest

from mrtpower import ConfigError, NumericError, distributions, estimator, simulate
from mrtpower.design import (
    EffectPath,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.distributions import hotelling_critical
from mrtpower.estimator import asymptotic_targets, hypothesis_test
from mrtpower.simulate import (
    SCENARIOS,
    VARIANCE_TREND_SPAN,
    VARIANCE_TRENDS,
    ErrorProcess,
    GenerativeModel,
    MonteCarloReport,
    ar_autocovariances,
    calibrate_sigma_star,
    config_digest,
    draw_errors,
    generate_dataset,
    generate_subject,
    monte_carlo,
    resolve_threads,
    shaped_effect,
    subject_stream,
    variance_trend_path,
)

EXACT_REL = 1e-12
ANALYTIC_TOL = 1e-9


@pytest.fixture(scope="module")
def design():
    return TrialDesign(days=42, decisions_per_day=5, rho=0.4)


@pytest.fixture(scope="module")
def tau_half(design):
    return make_availability("constant", 0.5, design)


@pytest.fixture(scope="module")
def effect_10(design):
    return elicit_quadratic_effect(0.0, 0.1, 29, design)


@pytest.fixture(scope="module")
def null_effect(design):
    return EffectPath.quadratic(np.zeros(3), design)


@pytest.fixture(scope="module")
def tiny_design():
    return TrialDesign(days=3, decisions_per_day=4, rho=0.4)


@functools.lru_cache(maxsize=None)
def million_draws(family, phi):
    """1e6 consecutive errors of one stream, drawn once per (family, phi)."""
    e = draw_errors(ErrorProcess(family, phi), 1_000_000, subject_stream(97, 0, 0))
    e.setflags(write=False)
    return e


def one_stream_chunks(model, rng, n_sub, chunk=1000):
    """(avail, action, outcome) of n_sub consecutive subjects of one stream.

    Each chunk is one engine call on [rng] * k, which draws k subjects from
    the stream in turn, as k ``generate_subject(model, rng)`` calls would.
    """
    for start in range(0, n_sub, chunk):
        yield simulate._generate(model, [rng] * min(chunk, n_sub - start))


def tiny_null_model(tiny_design, average=0.6):
    return GenerativeModel.working_true(
        tiny_design,
        EffectPath.quadratic(np.zeros(3), tiny_design),
        make_availability("constant", average, tiny_design),
        ErrorProcess("iid-normal"),
    )


# =====================================================================
# Error processes
# =====================================================================


class TestErrorProcess:
    def test_family_validation(self):
        with pytest.raises(ConfigError, match="family"):
            ErrorProcess("gaussian")

    def test_phi_domain(self):
        with pytest.raises(ConfigError, match="phi"):
            ErrorProcess("ar1", 1.0)
        with pytest.raises(ConfigError, match="phi"):
            ErrorProcess("ar5", -1.5)
        with pytest.raises(ConfigError, match="phi"):
            ErrorProcess("iid-normal", 0.3)

    def test_ar1_autocovariance_closed_form(self):
        for phi in (0.6, -0.6, 0.25):
            r = ar_autocovariances(np.array([phi]))
            assert r[0] == 1.0
            assert r[1] == pytest.approx(phi, rel=EXACT_REL)

    def test_ar5_equal_coefficient_closed_form(self):
        # with a_j = phi/5 the Yule-Walker solution is r_k = phi / (5 - 4 phi)
        # at every lag k = 1..5 (plug a constant into the defining recursion)
        for phi in (0.6, -0.6, 0.3):
            r = ar_autocovariances(np.full(5, phi / 5.0))
            want = phi / (5.0 - 4.0 * phi)
            assert np.max(np.abs(r[1:] - want)) <= abs(want) * EXACT_REL

    @pytest.mark.parametrize(
        "family,phi,var_tol",
        [
            ("iid-normal", 0.0, 0.01),
            ("iid-t3-scaled", 0.0, 0.05),  # t(3) has no 4th moment
            ("iid-exp-centered", 0.0, 0.01),
            ("ar1", 0.6, 0.01),
            ("ar1", -0.6, 0.01),
            ("ar5", 0.6, 0.01),
            ("ar5", -0.6, 0.01),
        ],
    )
    def test_marginal_moments_one_million_draws(self, family, phi, var_tol):
        e = million_draws(family, phi)
        assert abs(e.mean()) <= 0.005
        assert abs(e.var() - 1.0) <= var_tol

    @pytest.mark.parametrize("family,phi", [("ar1", 0.6), ("ar1", -0.6), ("ar5", 0.6), ("ar5", -0.6)])
    def test_lag_one_autocorrelation(self, family, phi):
        e = million_draws(family, phi)
        lag1 = float(np.corrcoef(e[:-1], e[1:])[0, 1])
        want = phi if family == "ar1" else phi / (5.0 - 4.0 * phi)
        assert lag1 == pytest.approx(want, abs=0.01)

    def test_iid_draws_uncorrelated(self):
        e = million_draws("iid-exp-centered", 0.0)
        assert abs(np.corrcoef(e[:-1], e[1:])[0, 1]) <= 0.01

    def test_stationary_initialization_every_position(self):
        # no burn-in bias: the variance is 1 at t=1 as much as at t=210
        proc = ErrorProcess("ar5", 0.6)
        # 5000 consecutive 210-step paths of one stream, as rows of one call
        paths = simulate._noise(
            proc,
            np.stack([simulate._noise_primitives(proc, 210, rng)
                      for rng in [subject_stream(96, 0, 0)] * 5000]),
        )
        v = paths.var(axis=0)
        assert np.max(np.abs(v - 1.0)) <= 3.0 * np.sqrt(2.0 / 5000.0)

    def test_draws_are_stream_deterministic(self):
        a = draw_errors(ErrorProcess("ar5", 0.6), 300, subject_stream(5, 1, 2))
        b = draw_errors(ErrorProcess("ar5", 0.6), 300, subject_stream(5, 1, 2))
        assert a.tobytes() == b.tobytes()


# =====================================================================
# Variance trends and effect shapes
# =====================================================================


class TestVarianceTrends:
    @pytest.mark.parametrize("trend", VARIANCE_TRENDS)
    def test_mean_square_is_one(self, trend, design):
        s = variance_trend_path(trend, design)
        assert np.mean(s * s) == pytest.approx(1.0, abs=1e-12)

    def test_linear_trend_span(self, design):
        s = variance_trend_path("increasing", design)
        assert s.max() / s.min() == pytest.approx(VARIANCE_TREND_SPAN, rel=EXACT_REL)
        assert np.all(np.diff(s) > 0)
        assert np.array_equal(
            variance_trend_path("decreasing", design), s[::-1]
        )

    def test_weekend_trend_levels(self, design):
        s = variance_trend_path("weekend", design)
        weekend = design.day_index % 7 >= 5
        assert np.unique(s).size == 2
        assert s[weekend].max() / s[~weekend].max() == pytest.approx(
            1.5 / 0.8, rel=EXACT_REL
        )

    def test_unknown_trend_rejected(self, design):
        with pytest.raises(ConfigError, match="trend"):
            variance_trend_path("quadratic", design)


class TestShapedEffect:
    def test_average_and_endpoints(self, design):
        for fraction in (1.0, 0.5, 0.0):
            eff = shaped_effect(design, 0.1, 29, fraction)
            assert eff.average == pytest.approx(0.1, rel=EXACT_REL)
            assert eff.path[0] == 0.0
            peak_days = design.day_index == 28
            assert eff.path.max() == pytest.approx(eff.path[peak_days][0], rel=EXACT_REL)

    def test_maintained_shape_is_flat_after_peak(self, design):
        eff = shaped_effect(design, 0.1, 29, 1.0)
        tail = eff.path[design.day_index >= 28]
        assert np.max(np.abs(tail - tail[0])) <= 1e-15

    def test_severe_shape_vanishes_at_the_end(self, design):
        eff = shaped_effect(design, 0.1, 29, 0.0)
        assert eff.path[-1] == pytest.approx(0.0, abs=1e-15)

    def test_rise_is_monotone(self, design):
        eff = shaped_effect(design, 0.1, 29, 0.5)
        day_values = eff.path[:: design.decisions_per_day]
        assert np.all(np.diff(day_values[:29]) > 0)

    def test_domain_errors(self, design):
        with pytest.raises(ConfigError, match="plateau"):
            shaped_effect(design, 0.1, 29, 1.5)
        with pytest.raises(ConfigError, match="max_day"):
            shaped_effect(design, 0.1, 99, 0.5)
        with pytest.raises(ConfigError, match="nonzero"):
            shaped_effect(design, 0.0, 29, 0.5)


# =====================================================================
# Generative models: construction
# =====================================================================


class TestGenerativeModel:
    def test_scenario_names(self):
        assert set(SCENARIOS) == {
            "working-true",
            "availability-feedback",
            "weekend-mean",
            "nonquadratic-effect",
            "heteroscedastic",
            "treatment-feedback",
        }

    def test_weekend_indicator_pattern(self, design, tau_half, null_effect):
        # W = 1 exactly on decisions 26..35 of each 35-decision week
        model = GenerativeModel.weekend_mean(
            design, null_effect, tau_half, ErrorProcess("iid-normal"), theta=0.7
        )
        base = elicit_quadratic_effect(2.5, 2.6, design.days, design)
        bump = (model.alpha_path - base.path) / 0.7
        within_week = np.arange(design.T) % 35
        want = (within_week >= 25).astype(float)
        assert np.max(np.abs(bump - want)) <= 1e-12

    def test_heteroscedastic_unit_average_variance(self, design, tau_half, effect_10):
        for trend in VARIANCE_TRENDS:
            for ratio in (0.8, 1.0, 1.2):
                m = GenerativeModel.heteroscedastic(
                    design, effect_10, tau_half, ErrorProcess("iid-normal"),
                    variance_ratio=ratio, variance_trend=trend,
                )
                avg = np.mean(m.rho * m.sigma1**2 + (1 - m.rho) * m.sigma0**2)
                assert abs(avg - 1.0) <= ANALYTIC_TOL
                ratios = m.sigma1 / m.sigma0
                assert np.max(np.abs(ratios - ratio)) <= 1e-12

    def test_treatment_feedback_centering_constant(self, design, tau_half, effect_10):
        m = GenerativeModel.treatment_feedback(
            design, effect_10, tau_half, ErrorProcess("iid-normal"),
            eta1=-0.1, eta2=-0.1, gamma1=-0.5, gamma2=-0.2,
        )
        # E[C_t] = rho * sum of tau over the last 5 in-study times
        want = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.0]
        assert np.max(np.abs(m.c_mean[:7] - want)) <= 1e-12
        assert np.all(m.c_mean[5:] == 1.0)

    def test_treatment_feedback_rejects_skewed_errors(self, design, tau_half, effect_10):
        with pytest.raises(ConfigError, match="symmetric"):
            GenerativeModel.treatment_feedback(
                design, effect_10, tau_half, ErrorProcess("iid-exp-centered"),
                eta1=-0.1, eta2=-0.1, gamma1=-0.5, gamma2=-0.2,
            )

    def test_overflowing_feedback_table_is_refused_when_built(self, design, tau_half, effect_10):
        # (tau_t eta1) (c - E[C_t]) overflows at eta1 = 1e308: refused with
        # the engine's message, without a numpy warning, by the constructor
        # (so also by dataclasses.replace and by unpickling)
        kw = dict(eta1=0.1, eta2=0.1, gamma1=0.1, gamma2=0.1)
        message = "availability probability left"
        with pytest.raises(ConfigError, match=message):
            GenerativeModel.treatment_feedback(
                design, effect_10, tau_half, ErrorProcess("iid-normal"), **{**kw, "eta1": 1e308}
            )
        m = GenerativeModel.treatment_feedback(
            design, effect_10, tau_half, ErrorProcess("iid-normal"), **kw
        )
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(m, eta1=1e308)

    def test_overflowing_availability_feedback_is_refused_when_built(self, design, tau_half,
                                                                     effect_10):
        # |s_t| <= 5 max(rho tau, 1 - rho tau) = 4 here, so eta = 1e308
        # would overflow eta * s_t in the engine: refused by the constructor
        # (so also by dataclasses.replace and by unpickling), naming eta
        errors = ErrorProcess("iid-normal")
        with pytest.raises(ConfigError, match=r"eta = 1e\+308 is too strong"):
            GenerativeModel.availability_feedback(design, effect_10, tau_half, errors, eta=1e308)
        m = GenerativeModel.availability_feedback(design, effect_10, tau_half, errors, eta=0.1)
        with pytest.raises(ConfigError, match=r"eta = -1e\+308 is too strong"):
            dataclasses.replace(m, eta=-1e308)
        # just inside the bound the model builds, and generates without a
        # numpy warning (pytest turns a RuntimeWarning into an error)
        strong = dataclasses.replace(m, eta=-4.4e307)
        data = generate_dataset(strong, 20, seed=3)
        assert np.isin(data.avail, (0, 1)).all()

    def test_uncalibrated_model_cannot_generate(self, design, tau_half, effect_10):
        m = GenerativeModel.treatment_feedback(
            design, effect_10, tau_half, ErrorProcess("iid-normal"),
            eta1=-0.1, eta2=-0.1, gamma1=-0.5, gamma2=-0.2,
        )
        assert not m.is_calibrated
        with pytest.raises(ConfigError, match="calibrat"):
            generate_subject(m, subject_stream(1, 0, 0))
        with pytest.raises(ConfigError, match="calibrat"):
            monte_carlo(m, 10, 2, 0.05, seed=1)

    def test_length_validation(self, design, tau_half, effect_10):
        short = TrialDesign(days=2, decisions_per_day=5, rho=0.4)
        with pytest.raises(ConfigError):
            GenerativeModel.working_true(
                short, effect_10, tau_half, ErrorProcess("iid-normal")
            )

    def test_describe_covers_the_configuration(self, design, tau_half, effect_10):
        m = GenerativeModel.working_true(
            design, effect_10, tau_half, ErrorProcess("ar1", 0.6)
        )
        d = m.describe()
        assert d["scenario"] == "working-true"
        assert d["errors"] == {"family": "ar1", "phi": 0.6}
        assert len(d["effect_path"]) == design.T
        json.dumps(d)  # must be serializable

    def test_pickle_round_trip_stays_read_only(self, design, tau_half, effect_10):
        # a threads > 1 run pickles the model for its children only when they
        # start by a method other than fork
        working = GenerativeModel.working_true(
            design, effect_10, tau_half, ErrorProcess("ar1", 0.6)
        )
        feedback = calibrate_sigma_star(GenerativeModel.treatment_feedback(
            design, effect_10, tau_half, ErrorProcess("iid-normal"),
            eta1=-0.1, eta2=-0.1, gamma1=-0.5, gamma2=-0.2,
        ), reps=400, seed=5)
        for model in (working, feedback):
            copy = pickle.loads(pickle.dumps(model))
            assert copy == model
            for field in dataclasses.fields(copy):
                value = getattr(copy, field.name)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, field.name
        assert copy.c_mean_avail is not None and copy.sigma_star == feedback.sigma_star

    def test_asymptotic_targets_accepts_models(self, design, tau_half, effect_10):
        model = GenerativeModel.working_true(
            design, effect_10, tau_half, ErrorProcess("iid-normal")
        )
        feats = build_quadratic_features(design)
        _, beta_t = asymptotic_targets(model, feats)
        assert np.max(np.abs(beta_t - effect_10.coeffs)) <= 1e-10


# =====================================================================
# Subject generation
# =====================================================================


class TestGenerateSubject:
    def test_record_contract(self, design, tau_half, effect_10):
        m = GenerativeModel.working_true(
            design, effect_10, tau_half, ErrorProcess("iid-normal")
        )
        rec = generate_subject(m, subject_stream(1, 0, 0))
        assert len(rec.avail) == design.T
        assert np.array_equal(rec.prob, m.rho)
        assert np.all(np.isnan(rec.outcome[rec.avail == 0]))
        assert np.all(np.isfinite(rec.outcome[rec.avail == 1]))

    def test_stream_determinism_and_separation(self, design, tau_half, effect_10):
        m = GenerativeModel.working_true(
            design, effect_10, tau_half, ErrorProcess("iid-normal")
        )
        a = generate_subject(m, subject_stream(9, 3, 7))
        b = generate_subject(m, subject_stream(9, 3, 7))
        c = generate_subject(m, subject_stream(9, 3, 8))
        assert a.outcome.tobytes() == b.outcome.tobytes()
        assert a.outcome.tobytes() != c.outcome.tobytes()

    def test_noise_free_outcome_equals_conditional_mean(self, design, tau_half, null_effect):
        m = GenerativeModel.working_true(
            design, null_effect, tau_half, ErrorProcess("iid-normal")
        )
        quiet = dataclasses.replace(
            m, sigma1=np.zeros(design.T), sigma0=np.zeros(design.T)
        )
        rec = generate_subject(quiet, subject_stream(1, 0, 0))
        on = rec.avail == 1
        assert np.array_equal(rec.outcome[on], m.alpha_path[on])

    def test_working_true_availability_and_variance(self, design, tau_half, effect_10):
        # 20k subjects, seed 2026: max availability deviation probed at 2.6 SE;
        # pooled conditional variance probed at 0.99936
        m = GenerativeModel.working_true(
            design, effect_10, tau_half, ErrorProcess("iid-normal")
        )
        rng = subject_stream(2026, 0, 0)
        n_sub = 20_000
        n_avail = np.zeros(design.T)
        resid_sq = np.zeros(design.T)
        for avail, action, outcome in one_stream_chunks(m, rng, n_sub):
            on = avail == 1
            n_avail += on.sum(axis=0)
            eps = outcome - (m.alpha_path + (action - 0.4) * effect_10.path)
            resid_sq += np.where(on, eps * eps, 0.0).sum(axis=0)
        se = np.sqrt(0.25 / n_sub)
        assert np.max(np.abs(n_avail / n_sub - 0.5)) <= 3.0 * se
        pooled_var = resid_sq.sum() / n_avail.sum()
        assert pooled_var == pytest.approx(1.0, abs=0.01)

    def test_availability_feedback_stays_centered(self, design, tau_half, effect_10):
        # 20k subjects, seed 404: max deviation probed at 2.28 SE
        m = GenerativeModel.availability_feedback(
            design, effect_10, tau_half, ErrorProcess("iid-normal"), eta=-0.2
        )
        rng = subject_stream(404, 0, 0)
        n_sub = 20_000
        n_avail = np.zeros(design.T)
        for avail, _, _ in one_stream_chunks(m, rng, n_sub):
            n_avail += avail.sum(axis=0)
        se = np.sqrt(0.25 / n_sub)
        assert np.max(np.abs(n_avail / n_sub - 0.5)) <= 3.0 * se

    def test_heteroscedastic_standardized_residuals(self, design, tau_half, effect_10):
        # standardizing by the arm- and time-specific scale recovers unit
        # variance (probed 0.99904 over 5k subjects, seed 95)
        m = GenerativeModel.heteroscedastic(
            design, effect_10, tau_half, ErrorProcess("ar1", -0.6),
            variance_ratio=0.8, variance_trend="weekend",
        )
        rng = subject_stream(95, 0, 0)
        total = 0.0
        count = 0
        for avail, action, outcome in one_stream_chunks(m, rng, 5000):
            on = avail == 1
            scale = np.where(action == 1, m.sigma1, m.sigma0)
            z = ((outcome - m.alpha_path - (action - 0.4) * effect_10.path) / scale)[on]
            total += float(z @ z)
            count += z.size
        assert total / count == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("lags", [2, 5, 7])
    def test_feedback_lags_drive_availability_feedback(self, monkeypatch, lags):
        # the lag window and nothing else follows FEEDBACK_LAGS: replay the
        # subject's own uniforms through a direct scalar recursion
        monkeypatch.setattr(simulate, "FEEDBACK_LAGS", lags)
        design = TrialDesign(days=8, decisions_per_day=5, rho=0.4)
        tau = make_availability("linear", 0.5, design, amplitude=0.4)
        effect = elicit_quadratic_effect(0.0, 0.1, 5, design)
        m = GenerativeModel.availability_feedback(
            design, effect, tau, ErrorProcess("iid-normal"), eta=-0.6
        )
        center = design.rho * tau.tau
        for i in range(20):
            rng = subject_stream(41, 0, i)
            u_avail, u_action = rng.random(design.T), rng.random(design.T)
            action = (u_action < design.rho).astype(int)
            avail = np.zeros(design.T, dtype=int)
            for t in range(design.T):
                s = sum(
                    avail[t - j] * action[t - j] - center[t - j]
                    for j in range(1, lags + 1)
                    if t - j >= 0
                )
                p = min(max(tau.tau[t] - 0.6 * s, 0.0), 1.0)
                avail[t] = u_avail[t] < p
            rec = generate_subject(m, subject_stream(41, 0, i))
            assert np.array_equal(rec.action, action)
            assert np.array_equal(rec.avail, avail)

    @pytest.mark.parametrize("lags", [2, 5, 7])
    def test_feedback_lags_drive_the_treatment_count(self, monkeypatch, lags):
        # eta2 = 0 leaves the count C_t over FEEDBACK_LAGS decision points as
        # the only feedback on availability
        monkeypatch.setattr(simulate, "FEEDBACK_LAGS", lags)
        design = TrialDesign(days=8, decisions_per_day=5, rho=0.4)
        tau = make_availability("constant", 0.5, design)
        effect = elicit_quadratic_effect(0.0, 0.1, 5, design)
        m = GenerativeModel.treatment_feedback(
            design, effect, tau, ErrorProcess("iid-normal"),
            eta1=-0.1, eta2=0.0, gamma1=0.0, gamma2=0.0,
        )
        rate = design.rho * tau.tau
        c_mean = [rate[max(t - lags, 0):t].sum() for t in range(design.T)]
        assert np.array_equal(m.c_mean, c_mean)
        cal = calibrate_sigma_star(m, reps=300, seed=3)
        for i in range(20):
            rng = subject_stream(43, 0, i)
            u_avail, u_action = rng.random(design.T), rng.random(design.T)
            action = (u_action < design.rho).astype(int)
            avail = np.zeros(design.T, dtype=int)
            for t in range(design.T):
                c = sum(avail[t - j] * action[t - j] for j in range(1, lags + 1) if t - j >= 0)
                avail[t] = u_avail[t] < 0.5 + 0.5 * -0.1 * (c - c_mean[t])
            rec = generate_subject(cal, subject_stream(43, 0, i))
            assert np.array_equal(rec.avail, avail)

    def test_generate_dataset_layout(self, tiny_design):
        m = tiny_null_model(tiny_design)
        data = generate_dataset(m, 5, seed=3)
        assert len(data) == 5
        assert data.avail.shape == data.outcome.shape == (5, tiny_design.T)
        assert len({rec.outcome.tobytes() for rec in data}) == 5
        again = generate_dataset(m, 5, seed=3)
        assert all(
            a.outcome.tobytes() == b.outcome.tobytes() for a, b in zip(data, again)
        )
        with pytest.raises(ConfigError):
            generate_dataset(m, 0, seed=3)


# =====================================================================
# sigma* calibration (treatment feedback)
# =====================================================================


class TestCalibration:
    def make_model(self, design, tau, effect, **kw):
        params = dict(eta1=-0.1, eta2=-0.1, gamma1=-0.5, gamma2=-0.2)
        params.update(kw)
        return GenerativeModel.treatment_feedback(
            design, effect, tau, ErrorProcess("iid-normal"), **params
        )

    def test_no_outcome_feedback_gives_unit_sigma_star(self, design, tau_half, effect_10):
        m = self.make_model(design, tau_half, effect_10, gamma1=0.0, gamma2=0.0)
        cal = calibrate_sigma_star(m, reps=500, seed=11)
        assert cal.sigma_star == pytest.approx(1.0, abs=1e-15)

    def test_no_availability_feedback_gives_binomial_mean(self, design, tau_half, effect_10):
        # with eta = 0, C is independent of I: E[C|I=1] = 5 rho tau = 1
        # (probed max deviation 0.0512 at 4000 reps, 3SE = 0.06)
        m = self.make_model(design, tau_half, effect_10, eta1=0.0, eta2=0.0,
                            gamma1=0.0, gamma2=0.0)
        cal = calibrate_sigma_star(m, reps=4000, seed=11)
        assert np.max(np.abs(cal.c_mean_avail[5:] - 1.0)) <= 0.06

    def test_calibration_is_seed_deterministic(self, design, tau_half, effect_10):
        m = self.make_model(design, tau_half, effect_10)
        a = calibrate_sigma_star(m, reps=400, seed=5)
        b = calibrate_sigma_star(m, reps=400, seed=5)
        assert a.sigma_star == b.sigma_star
        assert a.c_mean_avail.tobytes() == b.c_mean_avail.tobytes()

    def test_insufficient_replicates_rejected(self, design, tau_half, effect_10):
        m = self.make_model(design, tau_half, effect_10)
        with pytest.raises(ConfigError, match="insufficient"):
            calibrate_sigma_star(m, reps=60, seed=5)

    def test_oversized_feedback_rejected(self, design, tau_half, effect_10):
        m = self.make_model(design, tau_half, effect_10, gamma1=2.0, gamma2=0.0)
        with pytest.raises(NumericError, match="unit variance"):
            calibrate_sigma_star(m, reps=1000, seed=5)

    def test_wrong_scenario_rejected(self, design, tau_half, effect_10):
        m = GenerativeModel.working_true(
            design, effect_10, tau_half, ErrorProcess("iid-normal")
        )
        with pytest.raises(ConfigError, match="treatment-feedback"):
            calibrate_sigma_star(m, reps=100, seed=5)

    def test_closed_loop_average_variance(self, design, tau_half, effect_10):
        # calibrate, regenerate, and re-measure the average conditional
        # variance: probed 0.9981 (20k calibration + 20k evaluation subjects)
        m = self.make_model(design, tau_half, effect_10)
        cal = calibrate_sigma_star(m, reps=20_000, seed=77)
        rng = subject_stream(500, 0, 0)
        n_sub = 20_000
        T = design.T
        stats = {a: [np.zeros(T), np.zeros(T), np.zeros(T)] for a in (0, 1)}
        n_avail = np.zeros(T)
        for avail, action, outcome in one_stream_chunks(cal, rng, n_sub):
            on = avail == 1
            n_avail += on.sum(axis=0)
            for a in (0, 1):
                sel = on & (action == a)
                y = np.where(sel, outcome, 0.0)
                cnt, s, ss = stats[a]
                cnt += sel.sum(axis=0)
                s += y.sum(axis=0)
                ss += (y * y).sum(axis=0)
        per_arm_var = {}
        for a in (0, 1):
            cnt, s, ss = stats[a]
            per_arm_var[a] = (ss - s * s / cnt) / (cnt - 1.0)
        sigma_bar_sq = 0.4 * per_arm_var[1] + 0.6 * per_arm_var[0]
        assert np.mean(sigma_bar_sq) == pytest.approx(1.0, abs=0.01)
        # centering held: availability stayed at tau (probed 2.7 SE max)
        se = np.sqrt(0.25 / n_sub)
        assert np.max(np.abs(n_avail / n_sub - 0.5)) <= 3.0 * se


# =====================================================================
# Monte Carlo driver
# =====================================================================


class TestMonteCarlo:
    def test_same_seed_bit_identical(self, tiny_design):
        m = tiny_null_model(tiny_design)
        a = monte_carlo(m, 10, 40, 0.05, seed=7)
        b = monte_carlo(m, 10, 40, 0.05, seed=7)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_worker_count_does_not_change_the_report(self, tiny_design):
        m = tiny_null_model(tiny_design)
        one = monte_carlo(m, 10, 40, 0.05, seed=7, threads=1)
        three = monte_carlo(m, 10, 40, 0.05, seed=7, threads=3)
        five = monte_carlo(m, 10, 40, 0.05, seed=7, threads=5)
        assert json.dumps(one.to_dict()) == json.dumps(three.to_dict())
        assert json.dumps(one.to_dict()) == json.dumps(five.to_dict())

    def test_digest_tracks_the_configuration(self, tiny_design):
        m = tiny_null_model(tiny_design)
        base = monte_carlo(m, 10, 5, 0.05, seed=7)
        assert monte_carlo(m, 10, 5, 0.05, seed=8).config_digest != base.config_digest
        assert monte_carlo(m, 10, 5, 0.01, seed=7).config_digest != base.config_digest
        assert monte_carlo(m, 11, 5, 0.05, seed=7).config_digest != base.config_digest
        assert config_digest(m, 10, 5, 0.05, True, "summed", 7) == base.config_digest

    @pytest.mark.parametrize(
        "n,reps,alpha0",
        [(10, 5, "0.05"), (10, 5, float("nan")), (10, 5, 0.7), (10, 5, True), (10, 0, 0.05),
         (10, -3, 0.05), (0, 5, 0.05)],
        ids=["alpha0-string", "alpha0-nan", "alpha0-0.7", "alpha0-true", "reps-0", "reps-neg",
             "n-0"],
    )
    def test_digest_refuses_what_monte_carlo_refuses(self, tiny_design, n, reps, alpha0):
        m = tiny_null_model(tiny_design)
        with pytest.raises(ConfigError):
            monte_carlo(m, n, reps, alpha0, seed=1)
        with pytest.raises(ConfigError):
            config_digest(m, n, reps, alpha0, True, "summed", 1)

    def test_failed_replicates_are_counted_separately(self, tiny_design):
        # sparse availability makes some replicates numerically singular;
        # probed: 9 of 30 fail at this configuration
        m = tiny_null_model(tiny_design, average=0.25)
        rep = monte_carlo(m, 7, 30, 0.05, seed=3)
        assert rep.requested == 30
        assert rep.failures == 9
        assert rep.replicates == 21
        assert rep.rate == rep.rejections / rep.replicates
        assert rep.ci_low <= rep.rate <= rep.ci_high

    def test_all_replicates_failing_is_an_error(self, tiny_design):
        m = tiny_null_model(tiny_design, average=0.04)
        with pytest.raises(NumericError, match="replicate"):
            monte_carlo(m, 7, 30, 0.05, seed=3)

    def test_a_run_forms_one_critical_value_and_no_test_report(self, tiny_design, monkeypatch):
        # a replicate is its statistic against the run's critical value: no
        # per-replicate p-value (f_cdf), TestResult or critical-value lookup
        calls = dict.fromkeys(("f_cdf", "hotelling_critical", "TestResult"), 0)

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for name in ("f_cdf", "hotelling_critical"):
            fn = getattr(distributions, name)
            for module in (distributions, estimator, simulate):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, spy(name, fn))
        monkeypatch.setattr(estimator.TestResult, "__post_init__",
                            spy("TestResult", estimator.TestResult.__post_init__))
        m = tiny_null_model(tiny_design)
        report = monte_carlo(m, 10, 40, 0.05, seed=7, threads=1)
        assert report.replicates == 40
        assert calls == {"f_cdf": 0, "hotelling_critical": 1, "TestResult": 0}
        # the spies see the one function that forms a test report
        hypothesis_test(generate_dataset(m, 10, seed=7), build_quadratic_features(tiny_design),
                        0.05)
        assert calls == {"f_cdf": 1, "hotelling_critical": 2, "TestResult": 1}

    def test_a_critical_value_that_cannot_be_computed_is_refused_first(self, tiny_design):
        # n = 7 leaves d2 = 1, where the F(3, 1) quantile at 1 - 1e-8 fails
        with pytest.raises(NumericError) as direct:
            hotelling_critical(3, 3, 7, 1e-8)
        seen = []
        with pytest.raises(NumericError) as info:
            monte_carlo(tiny_null_model(tiny_design), 7, 4, 1e-8, seed=3,
                        each_dataset=lambda replicate, _: seen.append(replicate))
        assert str(info.value) == str(direct.value)
        assert str(info.value).startswith("F quantile search failed to bracket or converge")
        assert seen == []

    def test_overflowing_replicates_fail_without_a_warning(self, tiny_design):
        # outcomes near 1e160 overflow the sandwich's meat in every replicate
        big = np.full(tiny_design.T, 1e160)
        m = dataclasses.replace(tiny_null_model(tiny_design), sigma1=big, sigma0=big)
        with pytest.raises(NumericError, match="^every replicate failed"):
            monte_carlo(m, 10, 3, 0.05, seed=7)

    def test_domain_errors(self, tiny_design):
        m = tiny_null_model(tiny_design)
        with pytest.raises(ConfigError, match="reps"):
            monte_carlo(m, 10, 0, 0.05, seed=1)
        with pytest.raises(ConfigError, match="subjects"):
            monte_carlo(m, 6, 5, 0.05, seed=1)
        with pytest.raises(ConfigError, match=r"1 - alpha0 below 1\.0"):
            monte_carlo(m, 10, 5, 1e-17, seed=1)

    def test_report_stores_counts_only(self):
        rep = MonteCarloReport(
            requested=10, failures=2, rejections=3, alpha0=0.05, seed=1, config_digest="x"
        )
        assert [f.name for f in dataclasses.fields(rep)] == [
            "requested", "failures", "rejections", "alpha0", "seed", "config_digest"
        ]
        assert rep.replicates == 8 and rep.rate == 3 / 8
        assert (rep.ci_low, rep.ci_high) == simulate._wilson_interval(3, 8)
        assert json.dumps(rep.to_dict()) == json.dumps({
            "requested": 10, "replicates": 8, "failures": 2, "rejections": 3,
            "rate": 3 / 8, "ci95": [rep.ci_low, rep.ci_high], "alpha0": 0.05,
            "seed": 1, "config_digest": "x",
        })

    @pytest.mark.parametrize(
        "counts, match",
        [
            ((3, 3, 0, 0.05, 1), "failures"),   # no replicate completed
            ((3, 0, 5, 0.05, 1), "rejections"),  # more rejections than replicates
            ((0, 0, 0, 0.05, 1), "requested"),
            ((3, -1, 0, 0.05, 1), "failures"),
            ((3, 1, -1, 0.05, 1), "rejections"),
            ((3, 0, 1, 0.5, 1), "alpha0"),
            ((3, 0, 1, 0.05, -1), "seed"),
            ((3.0, 0, 1, 0.05, 1), "requested"),
        ],
        ids=["all-failed", "rejections-over-replicates", "no-request", "negative-failures",
             "negative-rejections", "alpha0", "negative-seed", "float-count"],
    )
    def test_report_refuses_counts_no_run_produces(self, counts, match):
        with pytest.raises(ConfigError, match=match):
            MonteCarloReport(*counts, "x")

    def test_no_worker_is_started_without_a_replicate(self, tiny_design, monkeypatch):
        # threads=64 with 3 replicates: two children, and this process runs
        # the third share (replicate 0)
        started, here = [], []

        class CountingProcess(multiprocessing.Process):
            def start(self):
                started.append(self)
                super().start()

        m = tiny_null_model(tiny_design)
        alone = monte_carlo(m, 10, 3, 0.05, seed=7).to_dict()
        monkeypatch.setattr(multiprocessing, "Process", CountingProcess)
        report = monte_carlo(m, 10, 3, 0.05, seed=7, threads=64,
                             each_dataset=lambda replicate, _: here.append(replicate))
        assert report.to_dict() == alone
        assert len(started) == 2
        assert here == [0]

    def test_zero_rejections_interval_is_anchored_at_zero(self, tiny_design):
        m = tiny_null_model(tiny_design, average=0.25)
        rep = monte_carlo(m, 7, 30, 0.05, seed=3)
        if rep.rejections == 0:
            assert rep.ci_low == 0.0

    def test_thread_resolution(self, monkeypatch):
        monkeypatch.delenv("MRTPOWER_THREADS", raising=False)
        assert resolve_threads() == 1
        monkeypatch.setenv("MRTPOWER_THREADS", "4")
        assert resolve_threads() == 4
        assert resolve_threads(2) == 2
        monkeypatch.setenv("MRTPOWER_THREADS", "soup")
        with pytest.raises(ConfigError, match="MRTPOWER_THREADS"):
            resolve_threads()
        with pytest.raises(ConfigError, match="thread"):
            resolve_threads(0)

    def test_null_rejection_rate_is_calibrated(self, null_mc):
        # 1000-replicate null run at the sized design (shared fixture);
        # truth established at 0.0435 (CI 0.0397-0.0477) by a 10k-replicate
        # run, this seed draws 0.0490
        report, _ = null_mc
        assert report.failures == 0
        assert 0.037 <= report.rate <= 0.065


def test_wilson_interval_contains_the_rate_for_every_count():
    """0 <= ci_low <= rate <= ci_high <= 1 at every (successes, trials), trials <= 1000."""
    outside = []
    for trials in range(1, 1001):
        for successes in range(trials + 1):
            low, high = simulate._wilson_interval(successes, trials)
            if not 0.0 <= low <= successes / trials <= high <= 1.0:
                outside.append((successes, trials, low, high))
    assert outside == []
