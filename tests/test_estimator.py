"""
Tests for the working-model fit, sandwich variance, and hypothesis test.

Tolerance strategy
------------------
Coefficients and variances on the tiny instances are checked against frozen
values from an independent mpmath implementation (50 significant digits; see
_make_estimator_reference.py) at 1e-10 relative -- far looser than the
observed agreement (~1e-13) but tight enough to catch any formula drift.
Structural identities (exact recovery, shift invariance, inert unavailable
rows) use the contract tolerances; Monte Carlo convergence checks use the
stated band per sample size.
"""

import pickle

import numpy as np
import pytest

from mrtpower import ConfigError, NumericError, estimator
from mrtpower.design import (
    FeaturePaths,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
    project_effect,
)
from mrtpower.estimator import (
    Dataset,
    asymptotic_targets,
    fit_working_model,
    hypothesis_test,
    sandwich_variance,
)
from mrtpower.estimator import TestResult as HypothesisResult
from mrtpower.simulate import ErrorProcess, GenerativeModel, generate_dataset

from _tiny_instances import INSTANCE_A, INSTANCE_B, instance_c_arrays
import _reference_estimator as ref

ORACLE_REL = 1e-10
RECOVERY_TOL = 1e-10
NORMAL_EQ_TOL = 1e-8
SHIFT_TOL = 1e-10

ALPHA_TRUE = np.array([2.5, 0.727, -8.66e-4])
BETA_TRUE = np.array([0.0, 33.6 / 3485.0, -0.6 / 3485.0])


def constant_features(T):
    return FeaturePaths(Z=np.ones((T, 1)), B=np.ones((T, 1)))


def records_from(inst):
    avail = np.array(inst["avail"])
    return Dataset(
        avail=avail,
        action=np.array(inst["action"]),
        prob=np.full(avail.shape, inst["prob"]),
        outcome=np.array(inst["outcome"]),
    )


@pytest.fixture(scope="module")
def design():
    return TrialDesign(days=42, decisions_per_day=5, rho=0.4)


@pytest.fixture(scope="module")
def feats(design):
    return build_quadratic_features(design)


def simulate_subjects(design, feats, n, seed, *, beta=None, noise=1.0, avail_rate=0.5, shift=0.0, garbage=False):
    """Working-model data for structural tests (not a generative scenario)."""
    beta = BETA_TRUE if beta is None else np.asarray(beta, dtype=np.float64)
    rng = np.random.default_rng(seed)
    filler_rng = np.random.default_rng(seed + 10_000)  # separate stream so the
    # garbage draws cannot perturb the data draws
    T = design.T
    B = feats.B
    rows = []
    for _ in range(n):
        avail = (rng.random(T) < avail_rate).astype(np.int8)
        action = (rng.random(T) < 0.4).astype(np.int8)
        prob = np.full(T, 0.4)
        mean = B @ ALPHA_TRUE + (action - prob) * (feats.Z @ beta)
        y = mean + noise * rng.normal(size=T) + shift
        filler = filler_rng.normal(size=T) * 1e12 if garbage else np.nan
        rows.append((avail, action, prob, np.where(avail == 1, y, filler)))
    return Dataset(*map(np.stack, zip(*rows)))


def dense_averaged_sandwich(data, fit, feats):
    """Reference adjusted sandwich under the averaged Gram, computed literally.

    Each subject's T x T matrix I - H_i, H_i = X_i (G/N)^{-1} X_i', is formed
    and solved densely behind a cond(I - H_i) <= 1e12 guard.
    """
    avail = data.avail.astype(float)
    X = np.concatenate(
        [
            avail[:, :, None] * feats.B[None],
            (avail * (data.action - data.prob))[:, :, None] * feats.Z[None],
        ],
        axis=2,
    )
    n, T, k = X.shape
    g_avg_inv = np.linalg.inv(np.einsum("nti,ntj->ij", X, X) / n)
    g_full = np.empty((n, k))
    for i in range(n):
        imh = np.eye(T) - X[i] @ g_avg_inv @ X[i].T
        if np.linalg.cond(imh) > 1e12:
            raise NumericError("(I - H) is numerically singular")
        g_full[i] = X[i].T @ np.linalg.solve(imh, fit.residuals[i])
    q = feats.q
    w_hat = (g_full[:, q:, None] * g_full[:, None, q:]).mean(axis=0)
    q_inv = g_avg_inv[q:, q:]
    return q_inv @ w_hat @ q_inv


# =====================================================================
# Dataset validation
# =====================================================================


class TestDataset:
    def _ok(self, **kw):
        base = dict(
            avail=np.array([[1, 0, 1], [1, 1, 0]]),
            action=np.array([[0, 1, 1], [1, 0, 0]]),
            prob=np.full((2, 3), 0.4),
            outcome=np.array([[0.5, np.nan, -0.2], [0.1, 0.3, np.nan]]),
        )
        base.update(kw)
        return Dataset(**base)

    def test_valid_record_accepted(self):
        data = self._ok()
        assert len(data) == 2
        assert data.avail.shape == data.outcome.shape == (2, 3)
        assert data.avail.dtype == data.action.dtype == np.int8
        rows = list(data)
        assert len(rows) == 2
        assert np.array_equal(rows[1].avail, [1, 1, 0])
        assert rows[0].outcome[2] == -0.2

    def test_nan_marker_allowed_only_when_unavailable(self):
        with pytest.raises(ConfigError, match="available"):
            self._ok(outcome=np.array([[np.nan, np.nan, -0.2], [0.1, 0.3, np.nan]]))

    def test_infinite_outcome_at_available_time_rejected(self):
        with pytest.raises(ConfigError, match="available"):
            self._ok(outcome=np.array([[np.inf, np.nan, -0.2], [0.1, 0.3, np.nan]]))

    def test_binary_indicators_enforced(self):
        with pytest.raises(ConfigError):
            self._ok(avail=np.array([[1, 2, 0], [1, 1, 0]]))
        with pytest.raises(ConfigError):
            self._ok(action=np.array([[0.5, 0, 1], [1, 0, 0]]))

    def test_probability_domain(self):
        with pytest.raises(ConfigError):
            self._ok(prob=np.array([[0.4, 0.0, 0.4], [0.4, 0.4, 0.4]]))
        with pytest.raises(ConfigError):
            self._ok(prob=np.array([[0.4, 0.4, 0.4], [0.4, 1.0, 0.4]]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            self._ok(action=np.array([[0, 1], [1, 0]]))
        with pytest.raises(ConfigError):
            self._ok(prob=np.full((3, 3), 0.4))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ConfigError, match="rectangular"):
            self._ok(avail=[[1, 0, 1], [1, 1]])

    def test_one_dimensional_arrays_rejected(self):
        with pytest.raises(ConfigError, match="2-D"):
            self._ok(
                avail=np.array([1, 0, 1]),
                action=np.array([0, 1, 1]),
                prob=np.full(3, 0.4),
                outcome=np.array([0.5, np.nan, -0.2]),
            )

    def test_no_decision_times_rejected(self):
        empty = np.zeros((2, 0))
        with pytest.raises(ConfigError, match="empty"):
            self._ok(avail=empty, action=empty, prob=empty, outcome=empty)

    def test_arrays_read_only(self):
        data = self._ok()
        with pytest.raises(ValueError):
            data.avail[0, 0] = 0
        row = next(iter(data))
        for column in row:
            with pytest.raises(ValueError):
                column[0] = 0

    def test_pickle_round_trip_stays_read_only(self):
        data = self._ok()
        copy = pickle.loads(pickle.dumps(data))
        for name in ("avail", "action", "prob", "outcome"):
            got, want = getattr(copy, name), getattr(data, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        with pytest.raises(ValueError):
            copy.outcome[0, 0] = 1.0


# =====================================================================
# Least-squares fit
# =====================================================================


class TestFit:
    def test_matches_extended_precision_oracle(self):
        fit = fit_working_model(records_from(INSTANCE_A), constant_features(4))
        assert fit.alpha_hat[0] == pytest.approx(float(ref.FIT_A_ALPHA), rel=ORACLE_REL)
        assert fit.beta_hat[0] == pytest.approx(float(ref.FIT_A_BETA), rel=ORACLE_REL)

    def test_noiseless_exact_recovery(self, design, feats):
        data = simulate_subjects(design, feats, 10, seed=5, noise=0.0)
        fit = fit_working_model(data, feats)
        assert np.max(np.abs(fit.alpha_hat - ALPHA_TRUE)) <= RECOVERY_TOL
        assert np.max(np.abs(fit.beta_hat - BETA_TRUE)) <= RECOVERY_TOL

    def test_normal_equations_hold(self, design, feats):
        data = simulate_subjects(design, feats, 42, seed=11)
        fit = fit_working_model(data, feats)
        avail = data.avail.astype(float)
        action = data.action.astype(float)
        prob = data.prob
        s_alpha = np.einsum("nt,tk->k", avail * fit.residuals, feats.B) / len(data)
        s_beta = np.einsum(
            "nt,tk->k", avail * (action - prob) * fit.residuals, feats.Z
        ) / len(data)
        assert np.max(np.abs(s_alpha)) <= NORMAL_EQ_TOL
        assert np.max(np.abs(s_beta)) <= NORMAL_EQ_TOL

    def test_residuals_zero_at_unavailable_times(self, design, feats):
        data = simulate_subjects(design, feats, 5, seed=7)
        fit = fit_working_model(data, feats)
        assert np.all(fit.residuals[data.avail == 0] == 0.0)

    def test_residuals_are_positive_zero_at_unavailable_times(self, design, feats, monkeypatch):
        # action 0 where unavailable: the centred weight 0 * (0 - rho) is -0.0,
        # so those design rows hold -0.0 entries; outcomes are negative elsewhere
        rng = np.random.default_rng(3)
        shape = (30, feats.T)
        avail = (rng.random(shape) < 0.6).astype(np.int8)
        action = np.where(avail == 1, rng.random(shape) < 0.4, 0)
        data = Dataset(avail=avail, action=action, prob=np.full(shape, design.rho),
                       outcome=np.where(avail == 1, -1.0 - rng.random(shape), np.nan))
        fits = []
        real_fit = estimator._fit

        def recording_fit(*args):
            fits.append(real_fit(*args))
            return fits[-1]

        monkeypatch.setattr(estimator, "_fit", recording_fit)
        hypothesis_test(data, feats, 0.05)
        fits.append(fit_working_model(data, feats))
        off = data.avail == 0
        X = estimator._stack(avail, action, data.prob, feats)
        assert np.signbit(X[off]).any() and not X[off].any()  # signed zeros only
        for fit in fits:
            assert np.all(fit.residuals[off] == 0.0)
            assert not np.signbit(fit.residuals[off]).any()

    def test_no_availability_is_singular(self, feats):
        shape = (5, feats.T)
        recs = Dataset(
            avail=np.zeros(shape, dtype=np.int8),
            action=np.zeros(shape, dtype=np.int8),
            prob=np.full(shape, 0.4),
            outcome=np.full(shape, np.nan),
        )
        with pytest.raises(NumericError, match="singular design"):
            fit_working_model(recs, feats)

    def test_outcome_shift_moves_only_the_intercept(self, design, feats):
        base = fit_working_model(simulate_subjects(design, feats, 42, seed=11), feats)
        shifted = fit_working_model(
            simulate_subjects(design, feats, 42, seed=11, shift=7.3), feats
        )
        assert np.max(np.abs(shifted.beta_hat - base.beta_hat)) <= SHIFT_TOL
        assert shifted.alpha_hat[0] - base.alpha_hat[0] == pytest.approx(7.3, abs=1e-9)
        assert np.max(np.abs(shifted.alpha_hat[1:] - base.alpha_hat[1:])) <= SHIFT_TOL

    def test_garbage_at_unavailable_times_is_bit_identical(self, design, feats):
        clean = fit_working_model(simulate_subjects(design, feats, 42, seed=11), feats)
        dirty = fit_working_model(
            simulate_subjects(design, feats, 42, seed=11, garbage=True), feats
        )
        assert clean.alpha_hat.tobytes() == dirty.alpha_hat.tobytes()
        assert clean.beta_hat.tobytes() == dirty.beta_hat.tobytes()
        assert clean.residuals.tobytes() == dirty.residuals.tobytes()

    def test_empty_dataset_rejected(self, feats):
        empty = np.zeros((0, feats.T))
        with pytest.raises(ConfigError, match="empty"):
            fit_working_model(Dataset(empty, empty, empty, empty), feats)

    def test_length_mismatch_rejected(self, feats):
        rec = Dataset(
            avail=np.array([[1, 1]]),
            action=np.array([[0, 1]]),
            prob=np.full((1, 2), 0.4),
            outcome=np.array([[0.1, 0.2]]),
        )
        with pytest.raises(ConfigError, match="length"):
            fit_working_model(rec, feats)


# =====================================================================
# Sandwich variance
# =====================================================================


@pytest.fixture(scope="module")
def instance_b():
    recs = records_from(INSTANCE_B)
    feats = constant_features(3)
    return recs, feats, fit_working_model(recs, feats)


class TestSandwichVariance:

    def test_unadjusted_matches_oracle(self, instance_b):
        recs, feats, fit = instance_b
        sigma = sandwich_variance(recs, fit, feats, adjusted=False)
        assert sigma[0, 0] == pytest.approx(float(ref.SANDWICH_B_UNADJUSTED), rel=ORACLE_REL)

    def test_adjusted_summed_matches_oracle(self, instance_b):
        recs, feats, fit = instance_b
        sigma = sandwich_variance(recs, fit, feats, adjusted=True, gram="summed")
        assert sigma[0, 0] == pytest.approx(
            float(ref.SANDWICH_B_ADJUSTED_SUMMED), rel=ORACLE_REL
        )

    def test_adjusted_averaged_matches_oracle(self, instance_b):
        recs, feats, fit = instance_b
        sigma = sandwich_variance(recs, fit, feats, adjusted=True, gram="averaged")
        assert sigma[0, 0] == pytest.approx(
            float(ref.SANDWICH_B_ADJUSTED_AVERAGED), rel=ORACLE_REL
        )

    def test_hat_adjustment_inflates_variance(self, instance_b):
        assert ref.SANDWICH_B_TRACE_INFLATION is True
        recs, feats, fit = instance_b
        unadj = sandwich_variance(recs, fit, feats, adjusted=False)
        adj = sandwich_variance(recs, fit, feats, adjusted=True, gram="summed")
        assert np.trace(adj) >= np.trace(unadj)

    def test_single_time_reduces_to_classical_robust_form(self):
        # T=1, everyone available: the pipeline collapses to scalars
        actions = np.array([1, 0, 1, 0, 1, 0], dtype=np.int8)
        ys = np.array([0.3, -0.1, 0.8, 0.2, -0.5, 0.4])
        recs = Dataset(
            avail=np.ones((6, 1), dtype=np.int8),
            action=actions[:, None],
            prob=np.full((6, 1), 0.5),
            outcome=ys[:, None],
        )
        feats = constant_features(1)
        fit = fit_working_model(recs, feats)
        sigma = sandwich_variance(recs, fit, feats, adjusted=False)
        # hand computation with plain floats
        a = actions - 0.5
        denom = float(np.sum(a * a))
        theta_b = float(np.sum(a * (ys - ys.mean())) / denom)
        resid = ys - ys.mean() - a * theta_b
        w_hand = float(np.mean((resid * a) ** 2))
        q_hand = 0.25  # rho (1 - rho) with rho = 1/2
        assert sigma[0, 0] == pytest.approx(w_hand / q_hand**2, rel=1e-10)

    def test_woodbury_equals_dense_solve(self, design, feats):
        # independent dense (I - H)^{-1} route computed here in the test
        data = simulate_subjects(design, feats, 8, seed=23)
        fit = fit_working_model(data, feats)
        sigma = sandwich_variance(data, fit, feats, adjusted=True, gram="summed")
        avail = data.avail.astype(float)
        action = data.action.astype(float)
        prob = data.prob
        X = np.concatenate(
            [
                avail[:, :, None] * feats.B[None],
                (avail * (action - prob))[:, :, None] * feats.Z[None],
            ],
            axis=2,
        )
        G = np.einsum("nti,ntj->ij", X, X)
        g_inv = np.linalg.inv(G)
        T = feats.T
        g_full = np.empty((8, 6))
        for i in range(8):
            imh = np.eye(T) - X[i] @ g_inv @ X[i].T
            g_full[i] = X[i].T @ np.linalg.solve(imh, fit.residuals[i])
        w_hat = (g_full[:, 3:, None] * g_full[:, None, 3:]).mean(axis=0)
        q_inv = np.linalg.inv(G / 8)[3:, 3:]
        dense = q_inv @ w_hat @ q_inv
        assert np.allclose(sigma, dense, rtol=1e-8, atol=1e-12)

    def test_positive_semidefinite(self, design, feats):
        data = simulate_subjects(design, feats, 30, seed=31)
        fit = fit_working_model(data, feats)
        for adjusted in (False, True):
            sigma = sandwich_variance(data, fit, feats, adjusted=adjusted)
            eigs = np.linalg.eigvalsh(sigma)
            assert eigs[0] >= -1e-12 * np.trace(sigma)
            assert np.array_equal(sigma, sigma.T)

    def test_unknown_gram_rejected(self, instance_b):
        recs, feats, fit = instance_b
        with pytest.raises(ConfigError, match="gram"):
            sandwich_variance(recs, fit, feats, adjusted=True, gram="pooled")

    def test_single_subject_adjustment_fails(self):
        rec = Dataset(
            avail=np.ones((1, 3), dtype=np.int8),
            action=np.array([[1, 0, 1]], dtype=np.int8),
            prob=np.full((1, 3), 0.4),
            outcome=np.array([[0.1, -0.2, 0.4]]),
        )
        feats = constant_features(3)
        fit = fit_working_model(rec, feats)
        with pytest.raises(NumericError):
            sandwich_variance(rec, fit, feats, adjusted=True, gram="summed")

    def test_averaged_gram_condition_guard(self):
        # identical subjects with T = p + q rows make (I - H) exactly
        # singular under the averaged-Gram convention
        recs = Dataset(
            avail=np.ones((2, 2), dtype=np.int8),
            action=np.array([[1, 0], [1, 0]], dtype=np.int8),
            prob=np.full((2, 2), 0.4),
            outcome=np.array([[0.7, -0.3], [0.7, -0.3]]),
        )
        feats = constant_features(2)
        fit = fit_working_model(recs, feats)
        with pytest.raises(NumericError, match="singular"):
            sandwich_variance(recs, fit, feats, adjusted=True, gram="averaged")

    def test_averaged_gram_near_singular_guard(self):
        # probabilities 1e-13 apart make cond(I - H_i) ~ 9e12 under the
        # averaged Gram: past the 1e12 bound, though an LU solve succeeds
        prob = np.full((2, 3), 0.4)
        prob[1] += 1e-13
        recs = Dataset(
            avail=np.ones((2, 3), dtype=np.int8),
            action=np.array([[1, 0, 1], [1, 0, 1]], dtype=np.int8),
            prob=prob,
            outcome=np.array([[0.7, -0.3, 0.2], [0.5, -0.1, 0.4]]),
        )
        feats = constant_features(3)
        fit = fit_working_model(recs, feats)
        with pytest.raises(NumericError, match="numerically singular"):
            dense_averaged_sandwich(recs, fit, feats)
        with pytest.raises(NumericError, match="numerically singular"):
            sandwich_variance(recs, fit, feats, adjusted=True, gram="averaged")

    def test_averaged_woodbury_equals_dense_solve(self, design, feats):
        # sized design, N = 42, AR(1) errors: the k x k Woodbury route and the
        # dense T x T reference round differently, hence a relative tolerance
        model = GenerativeModel.working_true(
            design,
            elicit_quadratic_effect(0.0, 0.1, 29, design),
            make_availability("constant", 0.5, design),
            ErrorProcess("ar1", 0.6),
        )
        data = generate_dataset(model, 42, seed=5)
        fit = fit_working_model(data, feats)
        sigma = sandwich_variance(data, fit, feats, adjusted=True, gram="averaged")
        dense = dense_averaged_sandwich(data, fit, feats)
        np.testing.assert_allclose(sigma, dense, rtol=1e-8, atol=0.0)


# =====================================================================
# Hypothesis test
# =====================================================================


class TestHypothesisTest:
    def test_statistic_matches_end_to_end_oracle(self):
        C = instance_c_arrays()
        recs = Dataset(
            avail=C["avail"], action=C["action"], prob=C["prob"], outcome=C["outcome"]
        )
        feats = FeaturePaths(Z=C["Z"], B=C["B"])
        res = hypothesis_test(recs, feats, 0.05, adjusted=True, gram="summed")
        assert res.statistic == pytest.approx(float(ref.STAT_C_STATISTIC), rel=ORACLE_REL)
        assert res.p_value == pytest.approx(float(ref.STAT_C_P_VALUE), rel=1e-9)
        want_beta = np.array([float(x) for x in ref.STAT_C_BETA_HAT])
        assert np.max(np.abs(res.beta_hat - want_beta)) <= 1e-9
        want_diag = np.array([float(x) for x in ref.STAT_C_SIGMA_DIAG])
        assert np.max(np.abs(np.diag(res.sigma_beta_hat) - want_diag)) <= 1e-8
        assert res.reject and res.p_value < 0.05

    def test_zero_effect_estimate_never_rejects(self):
        # paired subjects with complementary actions at rho = 1/2 and equal
        # outcomes force the effect score to cancel exactly
        T = 12
        u = (np.arange(T) // 4).astype(np.float64)
        Z = np.column_stack([np.ones(T), u, u * u])
        feats = FeaturePaths(Z=Z, B=Z.copy())
        rng = np.random.default_rng(3)
        actions, outcomes = [], []
        for _ in range(5):
            action = (rng.random(T) < 0.5).astype(np.int8)
            y = Z @ np.array([1.0, 0.5, -0.1]) + rng.normal(size=T)
            actions += [action, (1 - action).astype(np.int8)]
            outcomes += [y, y]
        recs = Dataset(
            avail=np.ones((10, T), dtype=np.int8),
            action=np.stack(actions),
            prob=np.full((10, T), 0.5),
            outcome=np.stack(outcomes),
        )
        res = hypothesis_test(recs, feats, 0.05, adjusted=False)
        assert np.max(np.abs(res.beta_hat)) <= 1e-14
        assert res.statistic <= 1e-20
        assert not res.reject

    def test_rejection_consistency(self, design, feats):
        # reject <=> statistic > critical value <=> p-value < alpha0
        for seed in range(6):
            beta = BETA_TRUE * (seed % 3)  # null, x1, x2 effect sizes
            data = simulate_subjects(design, feats, 30, seed=100 + seed, beta=beta)
            res = hypothesis_test(data, feats, 0.05)
            assert res.reject == (res.statistic > res.critical_value)
            assert res.reject == (res.p_value < 0.05)

    def test_adjustment_label(self, design, feats):
        data = simulate_subjects(design, feats, 20, seed=42)
        assert hypothesis_test(data, feats, 0.05, adjusted=True).adjustment == "hat-matrix"
        assert hypothesis_test(data, feats, 0.05, adjusted=False).adjustment == "none"

    def test_fit_and_result_pickle_round_trip_stays_read_only(self, design, feats):
        data = simulate_subjects(design, feats, 20, seed=42)
        fit = fit_working_model(data, feats)
        res = hypothesis_test(data, feats, 0.05)
        for obj, names in (
            (fit, ("alpha_hat", "beta_hat", "residuals")),
            (res, ("beta_hat", "sigma_beta_hat")),
        ):
            copy = pickle.loads(pickle.dumps(obj))
            assert type(copy) is type(obj)
            for name in names:
                got, want = getattr(copy, name), getattr(obj, name)
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable, name
        assert copy.to_dict() == res.to_dict()

    def test_too_few_subjects_rejected(self, design, feats):
        data = simulate_subjects(design, feats, 6, seed=9)
        with pytest.raises(ConfigError, match="subjects"):
            hypothesis_test(data, feats, 0.05)

    def test_result_label_validation(self):
        with pytest.raises(ConfigError, match="adjustment"):
            HypothesisResult(
                beta_hat=np.zeros(3),
                sigma_beta_hat=np.eye(3),
                statistic=0.0,
                critical_value=1.0,
                p_value=1.0,
                reject=False,
                adjustment="bootstrap",
                n=10,
                alpha0=0.05,
            )


# =====================================================================
# Asymptotic targets
# =====================================================================


class _Generative:
    def __init__(self, alpha_path, beta_path, tau, rho):
        self.alpha_path = alpha_path
        self.beta_path = beta_path
        self.tau = tau
        self.rho = rho


class TestAsymptoticTargets:
    def test_quadratic_effect_recovered_exactly(self, design, feats):
        gen = _Generative(
            alpha_path=feats.B @ ALPHA_TRUE,
            beta_path=feats.Z @ BETA_TRUE,
            tau=np.full(design.T, 0.5),
            rho=0.4,
        )
        alpha_t, beta_t = asymptotic_targets(gen, feats)
        assert np.max(np.abs(alpha_t - ALPHA_TRUE)) <= 1e-9
        assert np.max(np.abs(beta_t - BETA_TRUE)) <= 1e-12

    def test_null_effect_maps_to_zero(self, design, feats):
        gen = _Generative(
            alpha_path=feats.B @ ALPHA_TRUE,
            beta_path=np.zeros(design.T),
            tau=np.full(design.T, 0.7),
            rho=0.4,
        )
        _, beta_t = asymptotic_targets(gen, feats)
        assert np.max(np.abs(beta_t)) == 0.0

    def test_agrees_with_projection_for_nonquadratic_path(self, design, feats):
        rng = np.random.default_rng(17)
        path = 0.1 + 0.05 * np.sin(np.arange(design.T) / 9.0) + rng.normal(0, 0.01, design.T)
        tau = make_availability("constant", 0.5, design)
        gen = _Generative(
            alpha_path=feats.B @ ALPHA_TRUE, beta_path=path, tau=tau, rho=0.4
        )
        _, beta_t = asymptotic_targets(gen, feats)
        proj = project_effect(path, tau, feats, np.full(design.T, 0.4))
        assert np.array_equal(beta_t, proj.coeffs)

    def test_degenerate_availability_is_singular(self, design, feats):
        gen = _Generative(
            alpha_path=feats.B @ ALPHA_TRUE,
            beta_path=feats.Z @ BETA_TRUE,
            tau=np.zeros(design.T),
            rho=0.4,
        )
        with pytest.raises(NumericError):
            asymptotic_targets(gen, feats)


# =====================================================================
# Adjusted / unadjusted convergence
# =====================================================================


class TestAdjustmentConvergence:
    @pytest.mark.parametrize("n,tol", [(50, 0.10), (500, 0.03), (5000, 0.01)])
    def test_trace_ratio_approaches_one(self, design, feats, n, tol):
        data = simulate_subjects(design, feats, n, seed=2026, beta=np.zeros(3))
        fit = fit_working_model(data, feats)
        unadj = np.trace(sandwich_variance(data, fit, feats, adjusted=False))
        adj = np.trace(sandwich_variance(data, fit, feats, adjusted=True))
        assert abs(adj / unadj - 1.0) <= tol
