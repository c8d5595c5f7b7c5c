"""
Working-model estimation and the proximal-effect hypothesis test.

The centered working model for the outcome at an available decision time is

    E[Y_{t+1} | I_t = 1, A_t] = B_t' alpha + (A_t - rho_t) Z_t' beta,

fit by pooled least squares over all subjects and available times.  The test
of H0: beta(t) = 0 uses the statistic N * beta_hat' Sigma_hat^{-1} beta_hat
with a sandwich variance estimate and a scaled-F (Hotelling) critical value.
The N subjects' data arrive as one :class:`Dataset` of (N, T) arrays, which
is validated once, when it is built.  :func:`hypothesis_test` is the one
function that forms a critical value, a p-value and a :class:`TestResult`;
the Monte Carlo engine hands the same statistic path its own arrays, which
it builds valid, and compares each statistic with one critical value per run.

Variance estimation supports the small-sample hat-matrix adjustment with two
Gram conventions for the per-subject hat matrix H_i = X_i A^{-1} X_i':

* ``gram="summed"`` (default): A = G = sum_j X_j' X_j.  Per-subject
  leverages shrink like 1/N.
* ``gram="averaged"``: A = G / N.  Leverages are N times larger and
  (I - H_i) is frequently near-singular, so the test raises when the
  condition number of I - H_i exceeds 1e12 for any subject.

Both apply (I - H_i)^{-1} through the Woodbury identity, using only
(q+p)-dimensional solves.

Two layouts of the same values fix the output bits: the design tensor X
(N, T, q+p) feeds BLAS (the fit) and the n-major einsums for G and m, and a
subject-innermost copy of it, a block of subjects at a time, feeds the
per-subject Grams K_i (see ``_stack`` and ``_subject_grams``).

Unavailable decision times are inert throughout: their design rows are zero
and their outcomes (which may be absent, marked NaN) never enter arithmetic.

The test takes its large arrays (X, y, the fitted values or the plug-in
weights, and the K block) from a buffer provider: new arrays on the public
paths, a Monte Carlo run's arena in the engine (see ``_statistic_bytes``).
"""

from typing import NamedTuple

import numpy as np

from .design import _FRESH, GRAM_KINDS, _SINGULAR_REL_TOL, _aligned, _choice, _equilibrated_eigh
from .design import _flag, _freeze, _integer, _inv_eigh, _level, _real, _real_array, _solve_sym
from .design import _value_type
from .design import _information_weights, _weighted_projection
from .exceptions import ConfigError, NumericError
from .distributions import FDistParams, f_cdf, hotelling_critical

__all__ = [
    "Dataset",
    "SubjectRow",
    "ModelFit",
    "TestResult",
    "fit_working_model",
    "sandwich_variance",
    "hypothesis_test",
    "asymptotic_targets",
]


class SubjectRow(NamedTuple):
    """One subject's (T,) trajectory: a row of a :class:`Dataset`."""

    avail: np.ndarray
    action: np.ndarray
    prob: np.ndarray
    outcome: np.ndarray


@_value_type(hashable=False)
class Dataset:
    """N subjects' trajectories over T decision times, as (N, T) arrays.

    ``outcome`` holds Y_{t+1} for available times; at unavailable times the
    value is ignored and is conventionally NaN (the absent marker).  A
    non-finite outcome at an available time is an input error.  Validated
    once, here; stored read-only, with ``avail`` and ``action`` as int8.
    ``len`` is N; iteration yields one :class:`SubjectRow` per subject.
    """

    avail: np.ndarray
    action: np.ndarray
    prob: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        try:
            avail, action, prob, outcome = map(
                np.asarray, (self.avail, self.action, self.prob, self.outcome))
        except ValueError as exc:  # ragged rows
            raise ConfigError(f"dataset arrays must be rectangular: {exc}") from None
        prob = _real_array(prob, "prob")
        outcome = _real_array(outcome, "outcome")
        if avail.ndim != 2 or avail.size == 0:
            raise ConfigError(
                f"dataset arrays must be non-empty and 2-D (subjects x decision "
                f"times), got shape {avail.shape}"
            )
        if not (action.shape == prob.shape == outcome.shape == avail.shape):
            raise ConfigError("subject arrays must share one length")
        if not ((avail == 0) | (avail == 1)).all():
            raise ConfigError("availability indicators must be 0 or 1")
        if not ((action == 0) | (action == 1)).all():
            raise ConfigError("action indicators must be 0 or 1")
        if not ((prob > 0.0) & (prob < 1.0)).all():
            raise ConfigError("randomization probabilities must lie in (0, 1)")
        _require_finite_outcome(avail, outcome)
        object.__setattr__(self, "avail", _freeze(avail, np.int8))
        object.__setattr__(self, "action", _freeze(action, np.int8))
        object.__setattr__(self, "prob", _freeze(prob))
        object.__setattr__(self, "outcome", _freeze(outcome))

    def __len__(self):
        return self.avail.shape[0]

    def __iter__(self):
        return map(SubjectRow, self.avail, self.action, self.prob, self.outcome)


def _require_finite_outcome(avail, outcome, buffers=_FRESH):
    """Refuse a non-finite outcome where ``avail`` (0 or 1) is 1.

    One boolean array is taken from ``buffers`` and given back.
    """
    mark = buffers.mark()
    ok = np.isfinite(outcome, out=buffers.take(outcome.shape, np.bool_))
    # finite, or unavailable: ok >= avail, as avail is 0 or 1
    finite = np.greater_equal(ok, avail, out=ok).all()
    buffers.release(mark)
    if not finite:
        raise ConfigError(
            "missing or non-finite outcome at an available decision time"
        )


@_value_type(hashable=False)
class ModelFit:
    """Pooled least-squares solution and per-subject residuals.

    ``residuals[i, t]`` is Y_{t+1} - B_t'alpha_hat - (A_t - rho_t)Z_t'beta_hat
    at available times and exactly zero at unavailable times.
    """

    alpha_hat: np.ndarray
    beta_hat: np.ndarray
    residuals: np.ndarray

    def __post_init__(self):
        for name in ("alpha_hat", "beta_hat", "residuals"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@_value_type(hashable=False)
class TestResult:
    """Outcome of the proximal-effect test at level ``alpha0``.

    Each field is read by its rule (the arrays by the real-array rule, the
    critical value > 0, the p-value in [0, 1], ``n`` >= 1, ``alpha0`` by the
    level rule); anything else raises :class:`ConfigError`.
    """

    beta_hat: np.ndarray
    sigma_beta_hat: np.ndarray
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    adjustment: str
    n: int
    alpha0: float

    def __post_init__(self):
        for name in ("beta_hat", "sigma_beta_hat"):
            object.__setattr__(self, name, _freeze(_real_array(getattr(self, name), name)))
        for name, value in (
            ("statistic", _real(self.statistic, "statistic")),
            ("critical_value", _real(self.critical_value, "critical_value", 0.0, open_low=True)),
            ("p_value", _real(self.p_value, "p_value", 0.0, 1.0)),
            ("reject", _flag(self.reject, "reject")),
            ("adjustment", _choice(self.adjustment, "adjustment", ("none", "hat-matrix"))),
            ("n", _integer(self.n, "n", 1)),
            ("alpha0", _level(self.alpha0)),
        ):
            object.__setattr__(self, name, value)

    def to_dict(self):
        return {
            "n": self.n,
            "alpha0": self.alpha0,
            "beta_hat": self.beta_hat.tolist(),
            "sigma_beta_hat": self.sigma_beta_hat.tolist(),
            "statistic": self.statistic,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "reject": self.reject,
            "adjustment": self.adjustment,
        }


def _stack(avail, action, prob, features, buffers=_FRESH):
    """The per-subject design tensor X (N, T, q+p) of int8 availability.

    Rows of X at unavailable times are identically zero.  The public
    functions each stack for themselves; ``_statistic`` (the test's and the
    Monte Carlo engine's) stacks once and hands X to the private ``_fit``
    and ``_sandwich``, which read the int8 ``avail`` itself: no float copy
    of it is kept.

    X is one C-contiguous float64 array from ``buffers``, filled a column
    at a time with one multiply per element: ``X[n, t, i] = avail[n, t] *
    B[t, i]`` and ``X[n, t, q + j] = centered[n, t] * Z[t, j]``, where 0/1
    times a float is exact, as it was when avail was cast to float first.
    The centered weights avail * (A - rho) are formed in column q, which
    takes its own values last.  That layout fixes the output bits of the
    fit, G and m: BLAS reads X as one (N*T, q+p) matrix, and the n-major
    einsums over X sum in t order, so another layout may change how they
    sum.  K is summed over a copy of X's values in another layout (see
    :func:`_subject_grams`).
    """
    if avail.shape[1] != features.T:
        raise ConfigError("subject length does not match the feature paths")
    q = features.q
    X = buffers.take(avail.shape + (q + features.p,))
    centered = X[:, :, q]
    np.subtract(action, prob, out=centered)
    np.multiply(avail, centered, out=centered)
    for i in range(q):
        np.multiply(avail, features.B[:, i], out=X[:, :, i])
    for j in reversed(range(features.p)):
        np.multiply(centered, features.Z[:, j], out=X[:, :, q + j])
    return X


# Subjects per block of :func:`_subject_grams`: about 0.3 MB at T = 210, so
# the block never grows to a second full-size copy of a large X, and X with
# the block keeps a Monte Carlo run's arena under the traced peak that
# tests/test_run_arena.py bounds.  Moves no bit.
_GRAM_BLOCK = 32


def _subject_grams(X, buffers=_FRESH):
    """K_i = X_i'X_i of every subject, as a C-contiguous (N, q+p, q+p) array.

    X's values are copied, ``_GRAM_BLOCK`` subjects at a time, into a
    subject-innermost (q+p, T, nb) block.  On that block einsum steps along
    the subjects and adds over t in order, t = 0 first, which is how the
    n-major ``"nti,ntj->nij"`` sums X_i: the same bits, with the einsum in
    about a fifth of the time.  The buffer is one subject wider than the
    subjects it holds, up to the block size: a lone subject in a
    (q+p, T, 1) block would leave t as the contiguous axis, which einsum
    sums in another order.  The buffer comes from ``buffers``.
    """
    n, T, k = X.shape
    K = np.empty((n, k, k))
    buffer = buffers.take((k, T, min(_GRAM_BLOCK, n + 1)))
    for start in range(0, n, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, n)
        block = buffer[:, :, :stop - start]
        np.copyto(block, X[start:stop].transpose(2, 1, 0))
        K[start:stop] = np.einsum("itn,jtn->nij", block, block)
    return K


def _refusing_overflow(what):
    """Run the decorated step with numpy's overflow and invalid-value flags
    raised, and raise each as :class:`NumericError` naming ``what``.

    Outcomes near the float64 limit make the fit's moments or the sandwich's
    meat overflow; the step then ends in that error, with no numpy warning
    and no infinity handed on.  Where nothing overflows, no bit moves.
    """
    def decorate(step):
        def guarded(*args):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    return step(*args)
            except FloatingPointError as exc:
                raise NumericError(
                    f"{what} overflows ({exc}); the outcomes are too large"
                ) from None
        return guarded
    return decorate


def fit_working_model(dataset, features):
    """Pooled least squares for (alpha, beta) over all available rows."""
    X = _stack(dataset.avail, dataset.action, dataset.prob, features)
    return _fit(dataset.avail, X, dataset.outcome, features.q)


@_refusing_overflow("pooled fit")
def _fit(avail, X, outcome, q, buffers=_FRESH):
    """The pooled fit, with y and the fitted values the only (N, T) arrays it takes.

    Masked outcomes are selected, never multiplied, so the NaN markers at
    unavailable times cannot propagate: y is +0.0 there.  The residuals are
    formed in y's buffer with no mask, and the fitted values' buffer is
    given back.  At an unavailable time X's row is all (signed) zeros, so
    the fitted value is +0.0 or -0.0, and y minus it is +0.0: the value a
    mask would write.
    """
    y = buffers.take(avail.shape)
    np.copyto(y, 0.0)
    np.copyto(y, outcome, where=avail == 1)
    flat = X.reshape(-1, X.shape[2])
    gram = flat.T @ flat
    moment = flat.T @ y.reshape(-1)
    try:
        theta = _solve_sym(gram, moment, "pooled design matrix")
    except NumericError as exc:
        raise NumericError(f"singular design: {exc}") from exc
    mark = buffers.mark()
    fitted = np.matmul(X, theta, out=buffers.take(avail.shape))
    residuals = np.subtract(y, fitted, out=y)
    buffers.release(mark)
    for arr in (theta, residuals):
        arr.setflags(write=False)  # handed to ModelFit as they are, not copied
    return ModelFit(alpha_hat=theta[:q], beta_hat=theta[q:], residuals=residuals)


def sandwich_variance(dataset, fit, features, adjusted, *, gram="summed"):
    """Sandwich variance of sqrt(N) (beta_hat - beta): Q^{-1} W Q^{-1}.

    Unadjusted: Q and W are the plug-in sample averages

        Q_hat = avg_i sum_t I_it rho_it (1 - rho_it) Z_t Z_t'
        W_hat = avg_i m_i m_i',   m_i = sum_t I_it e_it (A_it - rho_it) Z_t.

    Adjusted (hat-matrix): W is replaced by the lower-right p x p block of
    avg_i X_i'(I - H_i)^{-1} e_i e_i' (I - H_i)^{-1} X_i and Q^{-1} by the
    lower-right block of the inverse of the averaged design Gram.  ``gram``
    selects the Gram convention for H (see module docstring).
    """
    X = _stack(dataset.avail, dataset.action, dataset.prob, features)
    if fit.residuals.shape != dataset.avail.shape:
        raise ConfigError("fit residuals do not match the dataset shape")
    m = _scores(X, fit.residuals)
    return _sandwich(dataset.avail, X, dataset.prob, m, features, adjusted, gram)


@_refusing_overflow("sandwich variance")
def _scores(X, residuals):
    """m_i = X_i'e_i of every subject, as (N, q+p): all the sandwich reads
    of the residuals."""
    return np.einsum("nti,nt->ni", X, residuals)


@_refusing_overflow("sandwich variance")
def _sandwich(avail, X, prob, m, features, adjusted, gram, buffers=_FRESH):
    """The sandwich of the scores ``m`` (see :func:`sandwich_variance`)."""
    adjusted = _flag(adjusted, "adjusted")
    gram = _choice(gram, "gram", GRAM_KINDS)
    n = X.shape[0]
    q = features.q

    if not adjusted:
        weights = np.multiply(avail, prob, out=buffers.take(avail.shape))
        spread = np.subtract(1.0, prob, out=buffers.take(avail.shape))
        weights = np.multiply(weights, spread, out=weights).mean(axis=0)
        q_hat = features.Z.T @ (weights[:, None] * features.Z)
        q_inv = _inv_eigh(*_equilibrated_eigh(q_hat, "plug-in information matrix"))
        g = m
    else:
        # hat-matrix adjustment with H_i = X_i A^{-1} X_i'.  Woodbury:
        # (I - X A^{-1} X')^{-1} e = e + X (A - X'X)^{-1} X'e, so
        # X'(I - H)^{-1} e = m + K (A - K)^{-1} m with K = X'X per subject.
        G = np.einsum("nti,ntj->ij", X, X)
        A = G if gram == "summed" else G / n
        d, w, v = _equilibrated_eigh(G / n, "averaged design Gram")
        q_inv = _inv_eigh(d, w, v)[q:, q:]
        K = _subject_grams(X, buffers)
        if gram == "averaged":
            # I - H_i has eigenvalues 1 and 1 - eig(A^{-1} K_i), the latter
            # those of R'K_iR with R R' = A^{-1} (d, w, v decompose A here)
            R = v / np.sqrt(w) / d[:, None]
            dev = np.abs(1.0 - np.linalg.eigvalsh(R.T @ K @ R))
            bound = _SINGULAR_REL_TOL * np.maximum(1.0, dev.max(axis=1))
            if np.any(dev.min(axis=1) < bound):
                raise NumericError(
                    "(I - H) is numerically singular for a subject under the "
                    "averaged-Gram convention; use gram='summed'"
                )
        try:
            adj = np.linalg.solve(A[None] - K, m[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"leave-one-subject-out Gram is singular (N={n} too small "
                f"or design pathological): {exc}"
            ) from exc
        g = m + np.einsum("nij,nj->ni", K, adj)
    w_hat = (g[:, q:, None] * g[:, None, q:]).mean(axis=0)
    sigma = q_inv @ w_hat @ q_inv
    return 0.5 * (sigma + sigma.T)


def hypothesis_test(dataset, features, alpha0, adjusted=True, *, gram="summed"):
    """Test H0: beta(t) = 0 for all t against the feature-spanned alternative.

    Returns the statistic N beta_hat' Sigma_hat^{-1} beta_hat, the scaled-F
    critical value, and the p-value on the same scale (the statistic divided
    by the Hotelling multiplier is F-distributed under H0).  An ``alpha0``
    outside (0, 0.5), or whose 1 - alpha0 rounds to 1.0, raises
    :class:`ConfigError`.
    """
    alpha0 = _level(alpha0)
    beta_hat, sigma, stat = _statistic(dataset.avail, dataset.action, dataset.prob,
                                       dataset.outcome, features, adjusted, gram)
    p = features.p
    q = features.q
    n = len(dataset)
    crit = hotelling_critical(p, q, n, alpha0)
    mult = p * (n - q - 1) / (n - q - p)
    p_value = 1.0 - f_cdf(stat / mult, FDistParams(p, n - q - p))
    return TestResult(
        beta_hat=beta_hat,
        sigma_beta_hat=sigma,
        statistic=stat,
        critical_value=crit,
        p_value=p_value,
        reject=bool(stat > crit),
        adjustment="hat-matrix" if adjusted else "none",
        n=n,
        alpha0=alpha0,
    )


def _statistic(avail, action, prob, outcome, features, adjusted, gram, buffers=_FRESH):
    """(beta_hat, Sigma_hat, statistic) of the (N, T) arrays of a dataset.

    The statistic is N beta_hat' Sigma_hat^{-1} beta_hat.  The Monte Carlo
    engine calls this on its own output, which meets every :class:`Dataset`
    check by construction except the finite outcome, and which it checks
    itself; it compares each statistic with one critical value per run.
    The large working arrays come from ``buffers``, at most
    :func:`_statistic_bytes` of them at once from an arena; the caller
    gives them back.
    """
    p = features.p
    q = features.q
    n = avail.shape[0]
    if n <= p + q:
        raise ConfigError(
            f"hypothesis test needs more than p + q = {p + q} subjects, got {n}"
        )
    X = _stack(avail, action, prob, features, buffers)
    mark = buffers.mark()
    fit = _fit(avail, X, outcome, q, buffers)
    beta_hat, m = fit.beta_hat, _scores(X, fit.residuals)
    del fit
    buffers.release(mark)  # the residuals are spent: the K block takes their buffer
    sigma = _sandwich(avail, X, prob, m, features, adjusted, gram, buffers)
    try:
        stat = float(n) * float(beta_hat @ _solve_sym(sigma, beta_hat, "variance"))
    except NumericError as exc:
        raise NumericError(f"singular variance estimate: {exc}") from exc
    return beta_hat, sigma, stat


def _statistic_bytes(n, T, k, adjusted):
    """Arena bytes :func:`_statistic` takes at most for n subjects, T times
    and k = q + p: X, then two (N, T) arrays (y with the fitted values, or
    the plug-in weights), or in their place the block of
    :func:`_subject_grams` when the test is ``adjusted``."""
    columns = 2 * _aligned(8 * n * T)
    block = _aligned(8 * k * T * min(_GRAM_BLOCK, n + 1)) if adjusted else 0
    return _aligned(8 * n * T * k) + max(columns, block)


def asymptotic_targets(generative, features):
    """Large-sample targets (alpha_tilde, beta_tilde) of the working-model fit.

    Evaluates the population least-squares projections

        alpha_tilde = (sum_t tau_t B B')^{-1} sum_t tau_t alpha(t) B_t
        beta_tilde  = (sum_t tau_t rho_t(1-rho_t) Z Z')^{-1}
                      sum_t tau_t rho_t(1-rho_t) beta(t) Z_t

    from a generative model exposing closed-form paths ``alpha_path``,
    ``beta_path``, ``tau`` and ``rho``.  Each path is read by
    :func:`_real_array` at the features' length.
    """
    T = features.T
    tau, w = _information_weights(generative.tau, generative.rho, T)
    alpha_path = _real_array(generative.alpha_path, "alpha_path", T)
    beta_path = _real_array(generative.beta_path, "beta_path", T)
    alpha_tilde = _weighted_projection(features.B, tau, alpha_path, "nuisance projection")
    beta_tilde = _weighted_projection(features.Z, w, beta_path, "effect projection")
    return alpha_tilde, beta_tilde
