"""
Synthetic-trial generation and Monte Carlo evaluation of the test pipeline.

This module generates micro-randomized-trial datasets under six generative
scenario families and estimates the type I error and power of the full
sizing-plus-test pipeline by Monte Carlo:

``working-true``
    Availability and treatment are independent Bernoulli draws; the outcome
    follows the working model exactly: Y = alpha(t) + (A - rho) d(t) + eps.
``weekend-mean``
    The conditional mean gains a day-of-week term theta * W_t (W_t = 1 on
    weekend days) that a quadratic-in-day nuisance basis cannot represent.
``nonquadratic-effect``
    Identical generation law to ``working-true`` but with an arbitrary
    (typically non-quadratic) proximal-effect path d(t); see
    :func:`shaped_effect` for the built-in plateau/decay family.
``heteroscedastic``
    The noise standard deviation depends on the treatment arm
    (sigma1_t / sigma0_t = ``variance_ratio``) and follows a time trend
    (:func:`variance_trend_path`), scaled so that the average conditional
    variance is exactly 1.
``availability-feedback``
    Availability decreases with the number of treatments in the last
    :data:`FEEDBACK_LAGS` (five) decision points:
    I_t ~ Ber(tau_t + eta * sum_j (A I - E[A I])).  The feedback term is
    mean-centered, so E[I_t] = tau_t; the Bernoulli mean is clamped to
    [0, 1] (the centered sum can overshoot for large |eta|, and the clamp is
    part of this family's definition).
``treatment-feedback``
    Both availability and the outcome depend on the cumulative treatment
    count C_t over the same last decision points and on recent noise; all
    feedback terms are centered so E[I_t] = tau_t and the standardized
    effect stays d(t).  Requires :func:`calibrate_sigma_star` before
    generation, which estimates E[C_t | I_t = 1] and the residual scale
    sigma* keeping the average conditional variance at 1.  (The
    unavailable-arm outcome mean is irrelevant here: only the noise sequence
    feeds the availability recursion, and unavailable outcomes are exported
    as missing.)

Error processes are scaled to zero mean and unit marginal variance
analytically (no burn-in): the t(3) family by sqrt(1/3), the centered
exponential by rate 1, and the AR families by solving the Yule-Walker
system and initializing from the exact stationary distribution.

Reproducibility: every (replicate, subject) pair owns a private
counter-based RNG stream, Philox keyed by ``SeedSequence(seed,
spawn_key=(replicate, subject))``, so results are bit-identical for any
worker count.  A Philox stream is fixed by its key alone (Salmon et al.
2011), so the engine derives the keys itself and re-keys a single Philox
for each subject in turn.  numpy's ``SeedSequence`` hash (O'Neill's
``seed_seq``) gives the pool of (seed, replicate); one vectorized step then
mixes in every subject index, which must be below 2**32, and hashes out the
keys.  :func:`subject_stream`, the replicate blocks and the calibration
blocks all take this one route.  Each subject draws all of its primitives
in a fixed order before the next subject draws; the per-time-step
recursions then run across all rows at once -- the subjects of one
replicate, or of a block of replicates -- each row taking the same float
operations in the same order.  So a subject drawn alone
(:func:`generate_subject`) equals its row of :func:`generate_dataset`, and
k subjects drawn in turn from one stream equal k rows drawn together.
Lagged quantities at times before the study start contribute zero.
"""

import dataclasses
import math
import os
from functools import cached_property, lru_cache, partial

import numpy as np

from .design import (
    _FRESH,
    GRAM_KINDS,
    AvailabilityPattern,
    EffectPath,
    TrialDesign,
    _aligned,
    _arena,
    _canonical_digest,
    _canonical_json,
    _choice,
    _flag,
    _freeze,
    _integer,
    _level,
    _real,
    _real_array,
    _value_type,
    build_quadratic_features,
    elicit_quadratic_effect,
)
from .distributions import hotelling_critical
from .estimator import Dataset, SubjectRow, _require_finite_outcome, _statistic, _statistic_bytes
from .exceptions import ConfigError, NumericError

__all__ = [
    "ERROR_FAMILIES",
    "SCENARIOS",
    "VARIANCE_TRENDS",
    "VARIANCE_TREND_SPAN",
    "ALPHA_COEFFS",
    "FEEDBACK_LAGS",
    "ErrorProcess",
    "GenerativeModel",
    "MonteCarloReport",
    "ar_autocovariances",
    "calibrate_sigma_star",
    "config_digest",
    "draw_errors",
    "generate_dataset",
    "generate_subject",
    "monte_carlo",
    "resolve_threads",
    "shaped_effect",
    "subject_stream",
    "variance_trend_path",
]

ERROR_FAMILIES = ("iid-normal", "iid-t3-scaled", "iid-exp-centered", "ar1", "ar5")

SCENARIOS = (
    "working-true",
    "availability-feedback",
    "weekend-mean",
    "nonquadratic-effect",
    "heteroscedastic",
    "treatment-feedback",
)

VARIANCE_TRENDS = ("constant", "increasing", "decreasing", "weekend")

# Max/min ratio of the time-varying noise scale for the linear variance
# trends.  A configuration stand-in, not an estimate; change at will.
VARIANCE_TREND_SPAN = 1.5

# Weekend variance-trend levels (weekday / weekend noise SD before the
# mean-square-1 normalization).
WEEKEND_SIGMA_WEEKDAY = 0.8
WEEKEND_SIGMA_WEEKEND = 1.5

# Default conditional-mean coefficients on the (1, day, day^2) basis.
ALPHA_COEFFS = (2.5, 0.727, -8.66e-4)

# Number of lagged decision points feeding the two feedback scenarios.
FEEDBACK_LAGS = 5

# Minimum available samples per decision point for sigma* calibration.
CALIBRATION_MIN_SAMPLES = 100

# spawn_key branch reserved for calibration streams so they can never
# collide with (replicate, subject) generation streams.
_CALIBRATION_BRANCH = 0xFFFFFFFF

# Bytes one engine call may hold: the 56 per (row, decision time) that the
# engine held when a call took 96 rows, at T = 210 (1.08 MiB).  Slimmer
# buffers buy wider calls, and fewer per-step passes, at that same peak.
_ENGINE_BYTES = 96 * 210 * 56
# Bytes the engine holds per (row, decision time) at its peak on new arrays:
# the (rows, 2T) uniforms, the noise and one time-major recursion buffer (32
# bytes of float64), three int8 arrays, and 2 bytes for what does not grow
# with the rows.  At T = 210 a call takes 145 rows.  A Monte Carlo run's
# arena keeps each buffer of a call until the call ends, with the block's
# outputs: 35 bytes per (row, time) for i.i.d. working-true outcomes, up to
# 53 for AR(5) treatment feedback (see :func:`_engine_bytes`).
_ROW_STEP_BYTES = 37

# Largest counts that size an array: _stream_keys holds a subject index in
# one uint32 word (so this also bounds a subject index), and numpy cannot
# hold any other count above intp.
_MAX_SUBJECTS = 2**32 - 1
_MAX_COUNT = int(np.iinfo(np.intp).max)

_WILSON_Z = 1.959963984540054  # standard normal 97.5% quantile


# ---------------------------------------------------------------------------
# error processes
# ---------------------------------------------------------------------------


@_value_type
class ErrorProcess:
    """Noise family for the outcome model, scaled to unit marginal variance.

    ``phi`` is the autoregression strength: for ``ar1`` the lag-1
    coefficient, for ``ar5`` the sum of the five (equal) lag coefficients.
    It must be 0 for the i.i.d. families and satisfy |phi| < 1 otherwise.
    """

    family: str
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "family", _choice(self.family, "family", ERROR_FAMILIES))
        if self.family in ("ar1", "ar5"):
            phi = _real(self.phi, "phi", -1.0, 1.0, open_low=True, open_high=True)
        else:
            phi = _real(self.phi, "phi")
            if phi != 0.0:
                raise ConfigError(f"phi is only meaningful for AR families, got {phi}")
        object.__setattr__(self, "phi", phi)

    @property
    def order(self):
        if self.family == "ar1":
            return 1
        if self.family == "ar5":
            return 5
        return 0

    def coefficients(self):
        """Lag coefficients (a_1 ... a_k) of the autoregression."""
        k = self.order
        if k == 0:
            return np.zeros(0)
        return np.full(k, self.phi / k)


def ar_autocovariances(coeffs):
    """Autocovariances r_0..r_k of a unit-variance AR(k) process.

    Solves the Yule-Walker system r_m = sum_j a_j r_|m-j| (m = 1..k) under
    the normalization r_0 = 1.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    k = coeffs.shape[0]
    if k == 0:
        return np.ones(1)
    mat = np.eye(k)
    rhs = np.zeros(k)
    for m in range(1, k + 1):
        for j in range(1, k + 1):
            lag = abs(m - j)
            if lag == 0:
                rhs[m - 1] += coeffs[j - 1]
            else:
                mat[m - 1, lag - 1] -= coeffs[j - 1]
    try:
        r = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Yule-Walker system is singular: {exc}") from exc
    return np.concatenate([[1.0], r])


@lru_cache(maxsize=64)
def _stationary_setup(family, phi):
    """(coefficients, innovation SD, Cholesky of the initial-block covariance).

    Cached per (family, phi); arrays are frozen read-only.
    """
    process = ErrorProcess(family, phi)
    coeffs = process.coefficients()
    k = coeffs.shape[0]
    r = ar_autocovariances(coeffs)
    var_v = 1.0 - float(coeffs @ r[1:]) if k else 1.0
    if var_v <= 0.0:
        raise NumericError(
            f"non-stationary autoregression (innovation variance {var_v})"
        )
    if k:
        cov = r[np.abs(np.arange(k)[:, None] - np.arange(k)[None, :])]
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"stationary covariance is not positive definite: {exc}"
            ) from exc
    else:
        chol = np.zeros((0, 0))
    return _freeze(coeffs), math.sqrt(var_v), _freeze(chol)


def draw_errors(process, size, rng):
    """Draw ``size`` consecutive noise values from one subject's stream.

    The draw order per family is fixed, so a given (stream, family) pair
    always produces the same sequence.
    """
    size = _integer(size, "size", 0, _MAX_COUNT)
    return np.ascontiguousarray(_noise(process, _noise_primitives(process, size, rng)[None])[0])


# ---------------------------------------------------------------------------
# replicate engine: streams drawn per subject, recursions run across subjects
# ---------------------------------------------------------------------------
# Every subject draws its primitives from its own stream in a fixed order.
# The per-time-step recursions (AR(k) noise, availability feedback,
# treatment feedback) are loops over t whose steps act on all n subjects at
# once; each subject's values take the same float operations, in the same
# order, as a scalar recursion over that subject alone would.  Each subject
# draws straight into its rows of the (n, .) draw buffers; the recursion
# buffers are time-major (T, n), so each step reads and writes contiguous
# rows of them and one column of the draws and of the int8 outputs.  The
# rows one call takes follow a byte budget (:func:`_engine_rows`).
# Each call takes its outputs and work buffers from two buffer providers
# (design._NewArrays): new arrays on the public paths, or the two regions of
# the one arena a Monte Carlo run allocates (:func:`_run_arena`), which the
# run's blocks and tests then reuse, so a replicate makes no large
# allocation and faults in no fresh pages.  The outputs region holds a
# block's avail, action and outcome; the scratch region serves the block's
# draws, noise and recursion buffers, then each replicate's test.  Every
# statement writes into its buffer with ``out=``, so the two providers give
# the same bits.  A lag
# sum reduces a window of lag rows that starts with a 0.0 row.  numpy adds
# the rows in order, or for a single subject 0.0 + (the rest, in order from
# -0.0); the two differ at most in the sign of a zero partial sum, which the
# leading 0.0 clears, so they give the same bits.


def _noise_primitives(process, size, rng, out=None):
    """One subject's noise primitives, drawn from ``rng`` as one call.

    AR(k) families draw k standard normals for the stationary initial block
    followed by ``size`` innovations; i.i.d. families draw the values.  The
    draws fill ``out``, a row of k + ``size`` floats, when it is given.
    """
    family = process.family
    if family == "iid-t3-scaled":
        draws = rng.standard_t(3.0, size)
    elif family == "iid-exp-centered":
        draws = rng.exponential(1.0, size)
    else:
        return rng.standard_normal(process.order + size, out=out)
    if out is None:
        return draws
    out[:] = draws
    return out


def _noise(process, primitives, buffers=_FRESH):
    """Noise rows from stacked :func:`_noise_primitives` rows, which it overwrites.

    AR families form the stationary initial block as the Cholesky factor
    times each row's first k normals, then run the recursion on the scaled
    innovations; the rows returned are then a view of a time-major buffer
    taken from ``buffers``.
    """
    family = process.family
    if family == "iid-normal":
        return primitives
    if family == "iid-t3-scaled":
        return np.multiply(primitives, math.sqrt(1.0 / 3.0), out=primitives)
    if family == "iid-exp-centered":
        return np.subtract(primitives, 1.0, out=primitives)
    coeffs, sigma_v, chol = _stationary_setup(family, process.phi)
    k = coeffs.shape[0]
    first = np.matmul(chol, primitives[:, :k, None])[:, :, 0]
    shocks = np.multiply(sigma_v, primitives[:, k:], out=primitives[:, k:])
    return _autoregress(first, shocks, coeffs, buffers)


def _autoregress(first, shocks, coeffs, buffers):
    """AR(k) rows: the stationary block ``first``, then the recursion.

    x_t = (0.0 + a_1 x_{t-1} + ... + a_k x_{t-k}) + shock_t, summed left to
    right: the k products go after a zero row, and one reduction sums them.
    Time runs backwards through the work buffer, so
    the lags of x_t form one contiguous newest-first block; the rows
    returned are a view of it, and their transpose runs time-major.
    """
    n, size = shocks.shape
    k = coeffs.shape[0]
    head = min(k, size)
    back = buffers.take((size, n))  # back[size - 1 - t] holds x_t
    back[size - head:] = first[:, :head][:, ::-1].T
    terms = np.zeros((k + 1, n))
    products, total = terms[1:], np.empty(n)
    weights = coeffs[:, None]
    forward = back[::-1]  # forward[t] holds x_t
    for t, shock, x in zip(range(head, size), shocks.T[head:], forward[head:]):
        np.multiply(weights, back[size - t:size - t + k], out=products)
        np.add.reduce(terms, axis=0, out=total)
        np.add(total, shock, out=x)
    return forward.T


def _availability_feedback(model, u_avail, action, avail, buffers):
    """Availability when treatment suppresses it, written to the (n, T) bool ``avail``.

    I_t = [u_t < tau_t + eta s_t] with s_t = 0.0 + sum_j (A I - rho tau)[t-j]
    over j = 1 .. :data:`FEEDBACK_LAGS`, newest first; lags before the
    study start are zero.  The leading 0.0 is the not yet written slot of
    time t itself, so one reduction over the work buffer forms s_t.  The
    terms are never -0.0 (A I is +0.0 or 1.0, and x - y rounds to -0.0 only
    for x = -0.0), so the trailing zeros of the early lags leave the sum
    unchanged.  The clamp of the Bernoulli mean to [0, 1] never changes
    u < p for u in [0, 1), so the comparison uses p as is.
    """
    n, T = u_avail.shape
    lags = FEEDBACK_LAGS
    tau = model.tau_path.tolist()
    center = (model.rho * model.tau_path).tolist()
    eta = model.eta
    back = buffers.take((T + lags, n))  # back[T - 1 - t] holds (A I - rho tau) at t
    back.fill(0.0)
    s = np.empty(n)
    prob = np.empty(n)
    treated = np.empty(n, dtype=bool)
    on = buffers.take((T, n), bool)  # on[t] holds I_t, so each step writes contiguously
    steps = zip(range(T), u_avail.T, action.T, on, back[T - 1::-1])
    for t, u, a, i, term in steps:
        np.add.reduce(back[T - 1 - t:T - t + lags], axis=0, out=s)
        np.add(tau[t], eta * s, out=prob)
        np.less(u, prob, out=i)
        np.logical_and(i, a, out=treated)
        np.subtract(treated, center[t], out=term)
    np.copyto(avail, on.T)


def _treatment_feedback(model, u_avail, action, eps, avail, buffers):
    """Availability and the recent-treatment count C under treatment feedback.

    Writes availability to the (n, T) bool ``avail`` and returns C as an
    (n, T) int8 view of a time-major buffer.  C_t counts treatments at
    available decision points over the last L = :data:`FEEDBACK_LAGS` times,
    and the availability mean is (tau_t + (tau_t eta1) (C_t - E[C_t])) +
    (tau_t eta2) Trunc(es_t / L), with es_t = 0.0 + the noise over the same
    lags, newest first.  The first term takes L + 1 values at each t, read
    from a table by C_t.  Raises :class:`ConfigError` if the mean leaves
    [0, 1] (invalid parameterization).
    """
    n, T = u_avail.shape
    lags = FEEDBACK_LAGS
    tau_path = model.tau_path
    # prob[t] holds the noise term (tau_t eta2) Trunc(es_t / L), then the mean
    prob = buffers.take((T, n))
    prob.fill(0.0)
    past = eps.T
    for j in range(1, lags + 1):
        prob[j:] += past[:-j]
    np.divide(prob, lags, out=prob)
    np.clip(prob, -1.0, 1.0, out=prob)
    np.multiply(prob, (tau_path * model.eta2)[:, None], out=prob)
    table = _feedback_table(model)
    recent = np.zeros((lags, n), dtype=bool)  # A I at the last L times, in turn
    c_path = buffers.take((T, n), np.int8)
    on = buffers.take((T, n), bool)  # on[t] holds I_t, so each step writes contiguously
    steps = zip(range(T), prob, table, c_path, u_avail.T, action.T, on)
    for t, p, row, c, u, a, i in steps:
        np.add.reduce(recent, axis=0, dtype=np.int8, out=c)
        np.add(row.take(c), p, out=p)
        np.less(u, p, out=i)
        np.logical_and(i, a, out=recent[t % lags])
    if not (prob.min() >= 0.0 and prob.max() <= 1.0):
        raise ConfigError(_FEEDBACK_RANGE_ERROR)
    np.copyto(avail, on.T)
    return c_path.T


def _feedback_table(model):
    """(T, L + 1) count term of the treatment-feedback availability mean:
    tau_t + (tau_t eta1) (c - c_mean_t) for c = 0 .. L."""
    tau_path = model.tau_path
    return tau_path[:, None] + (tau_path * model.eta1)[:, None] * (
        np.arange(FEEDBACK_LAGS + 1.0) - model.c_mean[:, None]
    )


_FEEDBACK_RANGE_ERROR = (
    "availability probability left [0, 1]; the feedback "
    "parameterization (eta1, eta2) is too strong for this tau"
)


def _engine_rows(T):
    """Rows (subjects, across replicates) one engine call takes at T steps.

    Depends on T alone, so blocks and outcomes do not depend on the worker
    count.
    """
    return max(1, _ENGINE_BYTES // (T * _ROW_STEP_BYTES))


def _draw(process, T, streams, buffers):
    """(uniforms, noise primitives) rows, one subject's draws at a time."""
    uniforms = buffers.take((len(streams), 2 * T))
    primitives = buffers.take((len(streams), process.order + T))
    for u, v, rng in zip(uniforms, primitives, streams):
        rng.random(out=u)
        _noise_primitives(process, T, rng, out=v)
    return uniforms, primitives


def _simulate(model, streams, outputs=_FRESH, scratch=_FRESH):
    """Trajectories of the subjects drawn from ``streams``, as (n, T) arrays.

    Each subject draws all of its primitives (T availability and T action
    uniforms as one call, then the noise primitives) straight into its rows
    of the work buffers before the next subject draws.  So ``streams`` (n =
    its ``len``) may yield one generator re-keyed per subject
    (:class:`_Streams`), or one stream n times for n consecutive subjects of
    that stream.  Returns (avail, action, C path or None, noise, uniforms):
    the flags are int8 views of bool arrays from ``outputs``, every work
    buffer comes from ``scratch``, and the (n, 2T) uniforms are spent.
    """
    T = model.T
    process = model.errors
    shape = (len(streams), T)
    uniforms, primitives = _draw(process, T, streams, scratch)
    action = np.less(uniforms[:, T:], model.rho, out=outputs.take(shape, bool)).view(np.int8)
    u_avail = uniforms[:, :T]
    eps = _noise(process, primitives, scratch)
    del primitives  # an AR noise has its own buffer, so new arrays free the draws
    avail = outputs.take(shape, bool)
    c_path = None
    if model.scenario == "availability-feedback":
        _availability_feedback(model, u_avail, action, avail, scratch)
    elif model.scenario == "treatment-feedback":
        c_path = _treatment_feedback(model, u_avail, action, eps, avail, scratch)
    else:
        np.less(u_avail, model.tau_path, out=avail)
    return avail.view(np.int8), action, c_path, eps, uniforms


def _generate(model, streams, outputs=_FRESH, scratch=_FRESH):
    """(avail, action, outcome) of the subjects drawn from ``streams``, (n, T) each.

    Outcomes at unavailable decision points are NaN (absent).  The three
    arrays come from ``outputs``, every work buffer from ``scratch``
    (:func:`_engine_bytes` of it from an arena).
    """
    _require_calibrated(model)
    avail, action, c_path, eps, spent = _simulate(model, streams, outputs, scratch)
    # Y is built in place, each element through the same float operations
    # as alpha + gamma1 dev + (A - rho) d (1 + gamma2 dev) + sigma* eps
    # (treatment feedback) or alpha + (A - rho) d + sigma_A eps, in order
    T = model.T
    outcome = outputs.take(avail.shape)
    if model.scenario == "treatment-feedback":
        # the two halves of the spent uniforms hold the (n, T) work arrays
        effect, dev = spent[:, :T], spent[:, T:]
        np.subtract(action, model.rho, out=effect)
        np.multiply(effect, model.effect.path, out=effect)
        np.copyto(dev, c_path)
        np.subtract(dev, model.c_mean_avail, out=dev)
        mean = np.multiply(model.gamma1, dev, out=outcome)
        np.add(model.alpha_path, mean, out=mean)
        np.multiply(model.gamma2, dev, out=dev)
        np.add(1.0, dev, out=dev)
        np.multiply(effect, dev, out=effect)
        np.add(mean, effect, out=mean)
        noise = np.multiply(model.sigma_star, eps, out=effect)
    else:
        # no work array: the noise sigma_A eps is formed in the outcome, the
        # mean in the spent noise draws; new uniforms are freed here
        del spent
        np.copyto(outcome, model.sigma0)
        # sigma1 repeats along the flat rows, one value per time
        np.putmask(outcome, action.view(bool), model.sigma1)
        noise = np.multiply(outcome, eps, out=outcome)
        mean = np.subtract(action, model.rho, out=eps)
        np.multiply(mean, model.effect.path, out=mean)
        np.add(model.alpha_path, mean, out=mean)
    np.add(mean, noise, out=outcome)
    np.copyto(outcome, np.nan, where=np.logical_not(avail, out=scratch.take(avail.shape, bool)))
    return avail, action, outcome


def _engine_bytes(model, rows):
    """Arena bytes one :func:`_generate` call of ``rows`` rows takes from
    ``scratch``, none given back until the call ends: the uniforms, the
    noise primitives, the AR recursion's buffer, a feedback recursion's
    buffers, and the flags of the unavailable times."""
    T = model.T
    flags = _aligned(rows * T)
    total = _aligned(16 * rows * T) + _aligned(8 * rows * (model.errors.order + T)) + flags
    if model.errors.order:
        total += _aligned(8 * T * rows)
    if model.scenario == "availability-feedback":
        total += _aligned(8 * (T + FEEDBACK_LAGS) * rows) + flags
    elif model.scenario == "treatment-feedback":
        total += _aligned(8 * T * rows) + 2 * flags
    return total


def _require_calibrated(model):
    if not model.is_calibrated:
        raise ConfigError(
            "treatment-feedback model is uncalibrated; run calibrate_sigma_star first"
        )


# ---------------------------------------------------------------------------
# generative model
# ---------------------------------------------------------------------------


def variance_trend_path(trend, design):
    """Per-decision noise scale (sigma-bar_t), normalized to mean square 1.

    ``increasing``/``decreasing`` are linear in decision time with max/min
    ratio :data:`VARIANCE_TREND_SPAN`; ``weekend`` takes the weekday /
    weekend levels 0.8 / 1.5 on the day-of-week grid before normalization.
    """
    trend = _choice(trend, "variance_trend", VARIANCE_TRENDS)
    T = design.T
    if trend == "constant":
        return np.ones(T)
    if trend == "weekend":
        base = np.where(
            design.day_index % 7 >= 5, WEEKEND_SIGMA_WEEKEND, WEEKEND_SIGMA_WEEKDAY
        ).astype(np.float64)
    else:
        base = np.linspace(1.0, VARIANCE_TREND_SPAN, T)
        if trend == "decreasing":
            base = base[::-1].copy()
    return base / math.sqrt(float(np.mean(base * base)))


def shaped_effect(design, average, max_day, plateau_fraction):
    """Non-quadratic proximal-effect path: quadratic rise, then linear fade.

    The path starts at zero, rises like a quadratic to its peak on day
    ``max_day``, then declines linearly so the final day sits at
    ``plateau_fraction`` of the peak (1 = fully maintained, 0 = effect gone
    by the end).  The whole path is scaled to time-average ``average``.
    """
    average = _real(average, "average")
    fraction = _real(plateau_fraction, "plateau_fraction", 0.0, 1.0)
    max_day = _integer(max_day, "max_day")
    if not 1 < max_day <= design.days:
        raise ConfigError(
            f"max_day must lie in (1, {design.days}], got {max_day}"
        )
    if average == 0.0:
        raise ConfigError("average effect must be nonzero (null paths need no shape)")
    u = design.day_index
    peak = float(max_day - 1)
    shape = 1.0 - ((u - peak) / peak) ** 2
    tail = u > peak
    if np.any(tail):
        last = float(design.days - 1)
        shape[tail] = 1.0 + (fraction - 1.0) * (u[tail] - peak) / (last - peak)
    return EffectPath.explicit(shape * (average / float(np.mean(shape))))


@_value_type(hashable=False)
class GenerativeModel:
    """One fully specified generative scenario.

    Build instances through the per-scenario classmethods rather than the
    raw constructor; they derive the dependent fields and enforce each
    family's variance normalization.  Fields left at their defaults take
    the working-model values: ``alpha_path`` the :data:`ALPHA_COEFFS`
    quadratic in day, ``sigma1`` and ``sigma0`` unit noise scales, and the
    scenario parameters their no-effect values.  Each scalar scenario
    parameter is stored as a finite float; anything else raises
    :class:`ConfigError`.
    """

    scenario: str
    design: TrialDesign
    effect: EffectPath
    tau: AvailabilityPattern
    errors: ErrorProcess
    alpha_path: np.ndarray = None
    sigma1: np.ndarray = None
    sigma0: np.ndarray = None
    theta: float = 0.0
    eta: float = 0.0
    eta1: float = 0.0
    eta2: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0
    variance_ratio: float = 1.0
    variance_trend: str = "constant"
    c_mean: np.ndarray = None
    c_mean_avail: np.ndarray = None
    sigma_star: float = None

    def __post_init__(self):
        for name, choices in (("scenario", SCENARIOS), ("variance_trend", VARIANCE_TRENDS)):
            object.__setattr__(self, name, _choice(getattr(self, name), name, choices))
        for name in ("theta", "eta", "eta1", "eta2", "gamma1", "gamma2", "variance_ratio"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        T = self.design.T
        if self.alpha_path is None:
            a0, a1, a2 = ALPHA_COEFFS
            u = self.design.day_index
            object.__setattr__(self, "alpha_path", a0 + a1 * u + a2 * u * u)
        for name in ("sigma1", "sigma0"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, np.ones(T))
        for name, low in (("alpha_path", None), ("sigma1", 0.0), ("sigma0", 0.0),
                          ("c_mean", None), ("c_mean_avail", None)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _real_array(getattr(self, name), name, T, low))
        _real_array(self.effect.path, "effect", T)
        _real_array(self.tau.tau, "tau", T)
        if self.sigma_star is not None:
            sigma_star = _real(self.sigma_star, "sigma_star", 0.0, open_low=True)
            object.__setattr__(self, "sigma_star", sigma_star)
        if self.c_mean is not None:
            if self.scenario == "treatment-feedback":
                # checked once here, so the engine needs no errstate of its own
                with np.errstate(over="ignore", invalid="ignore"):
                    finite = np.isfinite(_feedback_table(self)).all()
                if not finite:
                    raise ConfigError(_FEEDBACK_RANGE_ERROR)
        if self.scenario == "availability-feedback":
            # each of the L lagged terms A I - rho tau of s_t lies in
            # [-rho tau, 1 - rho tau]; the margin covers the rounding of s_t
            # and of the bound, so eta s_t in the engine never overflows
            center = self.rho * self.tau_path
            bound = FEEDBACK_LAGS * float(np.maximum(center, 1.0 - center).max())
            if not math.isfinite(abs(self.eta) * bound * (1.0 + 1e-9)):
                raise ConfigError(
                    f"eta = {self.eta!r} is too strong: the availability-feedback "
                    f"term eta * s overflows (|s| can reach {bound:.6g} in this design)"
                )

    # -- derived views ----------------------------------------------------

    @property
    def T(self):
        return self.design.T

    @property
    def rho(self):
        return self.design.rho

    @property
    def tau_path(self):
        return self.tau.tau

    @property
    def beta_path(self):
        """True standardized proximal-effect path (unit average variance)."""
        return self.effect.path

    @property
    def is_calibrated(self):
        return self.scenario != "treatment-feedback" or self.sigma_star is not None

    def describe(self):
        """JSON-serializable full description (drives the config digest)."""
        out = {
            "days": self.design.days,
            "decisions_per_day": self.design.decisions_per_day,
            "rho": self.design.rho.tolist(),
            "tau": self.tau.tau.tolist(),
            "tau_kind": self.tau.kind,
            "effect_form": self.effect.form,
            "effect_path": self.effect.path.tolist(),
            "errors": {"family": self.errors.family, "phi": self.errors.phi},
        }
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name in ("design", "effect", "tau", "errors") or value is None:
                continue
            out[field.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out

    @cached_property
    def _description_json(self):
        # describe() as canonical JSON text, encoded once per instance
        return _canonical_json(self.describe())

    # -- scenario constructors --------------------------------------------

    @classmethod
    def working_true(cls, design, effect, tau, errors):
        """Outcome follows the working model exactly."""
        return cls("working-true", design, effect, tau, errors)

    @classmethod
    def weekend_mean(cls, design, effect, tau, errors, *, theta):
        """Conditional mean gains a weekend bump theta outside the basis span.

        The quadratic part of the mean starts at 2.5, exceeds that by 0.1 on
        time-average, and peaks on the final day.
        """
        theta = _real(theta, "theta")
        base = elicit_quadratic_effect(2.5, 2.6, design.days, design)
        weekend = (design.day_index % 7 >= 5).astype(np.float64)
        return cls(
            "weekend-mean", design, effect, tau, errors,
            alpha_path=base.path + theta * weekend,
            theta=theta,
        )

    @classmethod
    def nonquadratic_effect(cls, design, effect, tau, errors):
        """Working-model generation with an arbitrary effect path d(t)."""
        return cls("nonquadratic-effect", design, effect, tau, errors)

    @classmethod
    def heteroscedastic(cls, design, effect, tau, errors, *, variance_ratio, variance_trend):
        """Arm- and time-dependent noise scale with unit average variance.

        sigma1_t / sigma0_t = ``variance_ratio`` everywhere, and the
        per-time average variance rho sigma1_t^2 + (1-rho) sigma0_t^2
        follows ``variance_trend`` scaled so its time-average equals 1.
        """
        ratio = _real(variance_ratio, "variance_ratio", 0.0, open_low=True)
        sbar = variance_trend_path(variance_trend, design)
        rho = design.rho
        sigma0 = sbar / np.sqrt(rho * ratio * ratio + 1.0 - rho)
        sigma1 = ratio * sigma0
        model = cls(
            "heteroscedastic", design, effect, tau, errors,
            sigma1=sigma1,
            sigma0=sigma0,
            variance_ratio=ratio,
            variance_trend=variance_trend,
        )
        mean_var = float(np.mean(rho * sigma1**2 + (1.0 - rho) * sigma0**2))
        if abs(mean_var - 1.0) > 1e-9:
            raise NumericError(
                f"variance normalization failed (average variance {mean_var})"
            )
        return model

    @classmethod
    def availability_feedback(cls, design, effect, tau, errors, *, eta):
        """Availability drops with the centered recent-treatment count."""
        return cls("availability-feedback", design, effect, tau, errors, eta=eta)

    @classmethod
    def treatment_feedback(cls, design, effect, tau, errors, *, eta1, eta2, gamma1, gamma2):
        """Availability and outcome both react to recent treatment.

        The returned model is uncalibrated: run
        :func:`calibrate_sigma_star` to fill E[C_t | I_t = 1] and sigma*
        before generating subjects.  The centering argument behind
        E[I_t] = tau_t needs symmetric noise, so the skewed family is
        rejected here.  So is an ``eta1`` so large that the availability
        mean's count term (tau_t eta1) (c - E[C_t]) overflows: the model
        raises :class:`ConfigError` when it is built.
        """
        if errors.family == "iid-exp-centered":
            raise ConfigError(
                "treatment-feedback requires a symmetric error family "
                "(the availability centering relies on it)"
            )
        rate = design.rho * tau.tau
        c_mean = np.array(
            [rate[max(t - FEEDBACK_LAGS, 0):t].sum() for t in range(design.T)]
        )
        return cls(
            "treatment-feedback", design, effect, tau, errors,
            eta1=eta1,
            eta2=eta2,
            gamma1=gamma1,
            gamma2=gamma2,
            c_mean=c_mean,
        )


# ---------------------------------------------------------------------------
# subject generation
# ---------------------------------------------------------------------------


# numpy's SeedSequence hash (O'Neill's seed_seq) over uint32 words, with
# the constants numpy.random.bit_generator documents.
_SEED_POOL = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _hash_steps(hash_const, mult):
    """(xor, multiplier) constants of the next four hash steps, as uint32."""
    consts = [hash_const]
    for _ in range(_SEED_POOL):
        consts.append(consts[-1] * mult & _WORD)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


# generate_state's four output steps, the same for every key
_OUT_XOR, _OUT_MUL = _hash_steps(_HASH_INIT_B, _HASH_MULT_B)


def _stream_keys(seed, replicate, subjects):
    """(len(subjects), 2) uint64 Philox keys of the (seed, replicate, subject) streams.

    Row k equals ``Philox(SeedSequence(seed, spawn_key=(replicate,
    subjects[k]))).state["state"]["key"]``.  numpy hashes the seed's words
    (zero-padded to the pool size), then the replicate's, then the subject's
    into its pool.  The pool after the replicate's words is that of
    ``SeedSequence(seed, spawn_key=(replicate,))``; the subject word (one
    word, as every index is below 2**32) is mixed into each pool word and
    the pool hashed out to four key words as uint32 arrays, which wrap like
    the C code.
    """
    seed = _integer(seed, "seed", 0)
    replicate = _integer(replicate, "replicate", 0)
    pool = np.random.SeedSequence(seed, spawn_key=(replicate,)).pool
    # numpy took _SEED_POOL hash steps per entropy word: the seed's, padded
    # to the pool size, then the replicate's (one word for 0)
    words = max(_SEED_POOL, -(-seed.bit_length() // 32))
    words += max(1, -(-replicate.bit_length() // 32))
    hash_const = _HASH_INIT_A * pow(_HASH_MULT_A, _SEED_POOL * words, 2**32) & _WORD

    # the subject word's hashmix into each pool word, then generate_state's
    # four output words (two uint64 keys), one column each
    mix_xor, mix_mul = _hash_steps(hash_const, _HASH_MULT_A)
    shift = np.uint32(16)
    value = (np.asarray(subjects, dtype=np.uint32)[:, None] ^ mix_xor) * mix_mul
    value ^= value >> shift
    value = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * value
    value ^= value >> shift
    value = (value ^ _OUT_XOR) * _OUT_MUL
    value ^= value >> shift
    return value.astype("<u4").view("<u8").astype(np.uint64)


def _keyed_streams(keys):
    """One generator per row of ``keys``, valid until the next is yielded.

    A single Philox is re-keyed per row.  Philox is counter-based, so a
    stream is its key with the counter and output buffer at their fresh
    values, which the first state read below holds.
    """
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    for key in keys:
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng


class _Streams:
    """The keyed streams of a block of engine rows; ``len`` counts the rows."""

    def __init__(self, keys):
        self.keys = keys

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return _keyed_streams(self.keys)


def _unit_streams(seed, units):
    """Keyed streams of the subjects of each (replicate, subjects) unit, in order."""
    return _Streams(
        np.concatenate([_stream_keys(seed, rep, subjects) for rep, subjects in units])
    )


def subject_stream(seed, replicate, subject):
    """Private counter-based RNG stream for one (replicate, subject) pair."""
    subject = _integer(subject, "subject", 0, _MAX_SUBJECTS)
    (rng,) = _keyed_streams(_stream_keys(seed, replicate, [subject]))
    return rng


def generate_subject(model, rng):
    """Draw one subject's trajectory from ``model`` using stream ``rng``.

    Primitives are consumed in a fixed order (availability uniforms, action
    uniforms, noise), so a given stream yields a reproducible
    :class:`SubjectRow`, equal to the matching row of
    :func:`generate_dataset`.  Outcomes at unavailable decision points are
    exported as NaN (absent).
    """
    avail, action, outcome = _generate(model, [rng])
    return SubjectRow(
        avail=avail[0], action=action[0], prob=model.rho.copy(), outcome=outcome[0]
    )


def generate_dataset(model, n, *, seed, replicate=0):
    """n subjects drawn from per-subject streams keyed by (seed, replicate)."""
    n = _integer(n, "n", 1, _MAX_SUBJECTS)
    arrays = next(_replicate_arrays(model, n, seed, [replicate]))
    for arr in arrays:
        arr.setflags(write=False)  # new arrays: the Dataset keeps them as views
    return Dataset(*arrays)


def _block_replicates(T, n):
    """Replicates B = max(1, :func:`_engine_rows` // n) one engine call generates."""
    return max(1, _engine_rows(T) // n)


def _replicate_arrays(model, n, seed, replicates, outputs=_FRESH, scratch=_FRESH):
    """Yield the (avail, action, prob, outcome) (n, T) arrays of each of
    ``replicates``, in order: writable, except the shared prob, and not
    checked as a :class:`Dataset` checks them.

    Replicates are generated B = :func:`_block_replicates` at a time, one
    engine call per block with the block's subjects stacked as rows.  The
    rows are independent, so each dataset equals the one its replicate
    gives alone; B depends on (n, T) alone.  A block's arrays come from
    ``outputs``, given back once its replicates are consumed, and its work
    buffers from ``scratch``, given back before the first is yielded.
    """
    replicates = list(replicates)
    block = _block_replicates(model.T, n)
    prob = np.broadcast_to(model.rho, (n, model.T))
    for start in range(0, len(replicates), block):
        units = [(rep, range(n)) for rep in replicates[start:start + block]]
        kept, mark = outputs.mark(), scratch.mark()
        avail, action, outcome = _generate(model, _unit_streams(seed, units), outputs, scratch)
        scratch.release(mark)
        for i in range(0, avail.shape[0], n):
            rows = slice(i, i + n)
            yield avail[rows], action[rows], prob, outcome[rows]
        outputs.release(kept)


# ---------------------------------------------------------------------------
# sigma* calibration for the treatment-feedback scenario
# ---------------------------------------------------------------------------


def calibrate_sigma_star(model, reps=10_000, *, seed):
    """Estimate E[C_t | I_t = 1] and solve for the residual scale sigma*.

    Simulates ``reps`` subjects' (I, A, C) trajectories on a dedicated
    stream branch, estimates the conditional mean and variance of C_t among
    available times, and chooses sigma* so the average conditional variance
    of the outcome equals 1.  Returns the calibrated copy of ``model``.
    """
    if model.scenario != "treatment-feedback":
        raise ConfigError(
            f"calibration applies to the treatment-feedback scenario, "
            f"not {model.scenario!r}"
        )
    reps = _integer(reps, "reps", 1, _MAX_SUBJECTS)  # one calibration subject each
    T = model.T
    rho = model.rho
    # C is a small integer count, so these sums are exact in any order
    count = np.zeros(T)
    total = np.zeros(T)
    total_sq = np.zeros(T)
    rows = _engine_rows(T)
    for start in range(0, reps, rows):
        chunk = range(start, min(start + rows, reps))
        streams = _unit_streams(seed, [(_CALIBRATION_BRANCH, chunk)])
        avail, action, c_path, eps, spent = _simulate(model, streams)
        del action, eps, spent
        c_on = np.where(avail == 1, c_path, 0.0)
        count += avail.sum(axis=0)
        total += c_on.sum(axis=0)
        total_sq += np.multiply(c_on, c_on, out=c_on).sum(axis=0)
        del avail, c_path, c_on  # free the block before the next
    if count.min() < CALIBRATION_MIN_SAMPLES:
        raise ConfigError(
            f"insufficient calibration replicates: a decision point has only "
            f"{int(count.min())} available samples "
            f"(need {CALIBRATION_MIN_SAMPLES}); increase reps"
        )
    c_avail = total / count
    c_var = (total_sq - count * c_avail * c_avail) / (count - 1.0)
    d_path = model.effect.path
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        weight = (
            rho * (model.gamma1 + (1.0 - rho) * d_path * model.gamma2) ** 2
            + (1.0 - rho) * (model.gamma1 - rho * d_path * model.gamma2) ** 2
        )
        residual_var = 1.0 - float(np.mean(weight * c_var))
    if not residual_var > 0.0:  # NaN too, when the feedback weights overflow
        raise NumericError(
            f"feedback terms already exceed unit variance "
            f"(residual variance {residual_var}); weaken gamma1/gamma2"
        )
    return dataclasses.replace(
        model, c_mean_avail=c_avail, sigma_star=math.sqrt(residual_var)
    )


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------


@_value_type
class MonteCarloReport:
    """Rejection tally over independent simulated trials.

    Only counts are stored.  ``replicates`` counts completed replicates;
    replicates aborted by a numeric estimation failure are tallied in
    ``failures`` instead (their sum is ``requested``).  ``rate`` is
    rejections / replicates, and ``ci_low``/``ci_high`` its 95% score
    (Wilson) interval.  Counts that no run produces (no replicate completed,
    or more rejections than completed replicates) raise :class:`ConfigError`.
    """

    requested: int
    failures: int
    rejections: int
    alpha0: float
    seed: int
    config_digest: str

    def __post_init__(self):
        requested = _integer(self.requested, "requested", 1)
        failures = _integer(self.failures, "failures", 0, requested - 1)
        _integer(self.rejections, "rejections", 0, requested - failures)
        _level(self.alpha0)
        _integer(self.seed, "seed", 0)

    @property
    def replicates(self):
        return self.requested - self.failures

    @property
    def rate(self):
        return self.rejections / self.replicates

    @property
    def ci_low(self):
        return _wilson_interval(self.rejections, self.replicates)[0]

    @property
    def ci_high(self):
        return _wilson_interval(self.rejections, self.replicates)[1]

    def to_dict(self):
        return {
            "requested": self.requested,
            "replicates": self.replicates,
            "failures": self.failures,
            "rejections": self.rejections,
            "rate": self.rate,
            "ci95": [self.ci_low, self.ci_high],
            "alpha0": self.alpha0,
            "seed": self.seed,
            "config_digest": self.config_digest,
        }


def _wilson_interval(successes, trials):
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    # at the boundaries center -+ half equals the endpoint analytically;
    # pin it so rounding cannot push the interval off the observed rate
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _run_arena(model, n, k, adjusted, replicates):
    """(outputs, scratch) regions of one arena for a run of ``replicates``
    replicates of n subjects, k = q + p, with the test ``adjusted`` or not.

    Outputs hold one block's avail, action and outcome; the scratch serves
    the block's engine call, then each replicate's test in turn.
    """
    T = model.T
    rows = min(_block_replicates(T, n), replicates) * n
    outputs = 2 * _aligned(rows * T) + _aligned(8 * rows * T)
    scratch = max(_engine_bytes(model, rows), _statistic_bytes(n, T, k, adjusted))
    return _arena(outputs, scratch)


def _replicate_outcomes(model, features, n, crit, adjusted, gram, seed, each_dataset, indices):
    """Outcomes for the replicates ``indices``: 1 reject, 0 accept, -1 failure.

    A replicate rejects when its statistic exceeds ``crit``, the run's one
    critical value.  The datasets come from :func:`_replicate_arrays`, whose
    block size depends on n alone, so the outcomes do not depend on how
    replicates are split among workers.  The engine's arrays go to the
    statistic as they are; they meet every :class:`Dataset` check by
    construction except a finite outcome, which is checked here, with the
    same error.  Every large array of the run lives in one arena
    (:func:`_run_arena`), allocated here, so each worker has its own.  A
    :class:`Dataset` is built only for ``each_dataset``; it copies the
    arena's writable views, so no view of the arena leaves the run.
    """
    outputs, scratch = _run_arena(model, n, features.p + features.q, adjusted, len(indices))
    out = []
    for replicate, arrays in zip(
            indices, _replicate_arrays(model, n, seed, indices, outputs, scratch)):
        avail, _, _, outcome = arrays
        _require_finite_outcome(avail, outcome, scratch)
        if each_dataset is not None:
            each_dataset(replicate, Dataset(*arrays))
        mark = scratch.mark()
        try:
            _, _, stat = _statistic(*arrays, features, adjusted, gram, scratch)
        except NumericError:
            out.append(-1)
        else:
            out.append(1 if stat > crit else 0)
        scratch.release(mark)
    return np.array(out, dtype=np.int8)


def resolve_threads(threads=None):
    """Worker count: explicit argument, else MRTPOWER_THREADS, else 1."""
    if threads is None:
        raw = os.environ.get("MRTPOWER_THREADS", "1").strip()
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ConfigError(f"MRTPOWER_THREADS must be an integer, got {raw!r}") from exc
    return _integer(threads, "thread count", 1)


def config_digest(model, n, reps, alpha0, adjusted, gram, seed):
    """sha256 digest of the full run configuration (excludes worker count).

    Each argument is read by the rule :func:`monte_carlo` applies to it, so
    a configuration that it refuses has no digest.  The model enters as its
    :meth:`GenerativeModel.describe`, encoded once per model instance; the
    digest is that of the whole payload encoded at once.
    """
    payload = {
        "n": _integer(n, "n", 1, _MAX_SUBJECTS),
        "reps": _integer(reps, "reps", 1, _MAX_COUNT),
        "alpha0": _level(alpha0),
        "adjusted": _flag(adjusted, "adjusted"),
        "gram": _choice(gram, "gram", GRAM_KINDS),
        "seed": _integer(seed, "seed", 0),
    }
    return _canonical_digest(payload, model=model._description_json)


def _send_outcomes(send, run, share):
    """A child's work: ``run(share)``, or the error it raised, sent down ``send``."""
    try:
        result = run(share)
    except Exception as exc:  # the caller re-raises it, as a 1-worker run would
        result = exc
    with send:
        send.send(result)


def _worker_outcomes(run, shares):
    """``run(share)`` of each share: the first in this process, each other in a child.

    Each child gets ``run`` and its share as its ``Process`` arguments,
    inherited at fork, and sends back its outcome array, or the exception it
    raised, over a one-way pipe.  The caller runs the first share while the
    children run.  Each child's send end is closed here before the next
    child starts, so a child that dies without sending reads as EOF; that
    raises naming the child's exit code.  On any error every child is
    terminated, and every child is joined before this returns or raises.
    ``multiprocessing`` is loaded only to start a child, so a 1-worker run
    never loads it.
    """
    children = []
    try:
        for share in shares[1:]:
            import multiprocessing

            receive, send = multiprocessing.Pipe(duplex=False)
            with send:
                child = multiprocessing.Process(target=_send_outcomes, args=(send, run, share))
                try:
                    child.start()
                except BaseException:
                    receive.close()
                    raise
            children.append((child, receive))
        parts = [run(shares[0])]
        for worker, (child, receive) in enumerate(children, 1):
            try:
                result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"Monte Carlo worker {worker} exited with code {child.exitcode} "
                    f"without sending its outcomes"
                ) from None
            if isinstance(result, BaseException):
                raise result
            parts.append(result)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    return parts


def monte_carlo(model, n, reps, alpha0, adjusted=True, *, seed, gram="summed", threads=None,
                each_dataset=None):
    """Estimate the test's rejection rate over ``reps`` simulated trials.

    Each replicate generates ``n`` subjects on its own deterministic RNG
    streams and rejects when its test statistic exceeds the Hotelling
    critical value.  That value is computed once, after the argument checks
    and before anything is generated, so one that cannot be computed raises
    its :class:`NumericError` there.  The report is identical for any
    worker count because per-replicate outcomes depend only on (seed,
    replicate) and the tally is order-independent.  Worker w runs replicates
    w, w + threads, ...: worker 0 is this process, and each other worker is
    one child process, so a run starts ``threads - 1`` children, at most
    ``reps - 1``.  ``each_dataset(replicate, dataset)``, if given, sees each
    replicate once, before its test, in the process that generated it; it
    must pickle only when children start by a method other than fork, enters
    neither the report nor its digest, and ends the run if it raises.  An
    ``alpha0`` outside (0, 0.5), or whose 1 - alpha0 rounds to 1.0, or an
    ``adjusted`` or ``gram`` that :func:`hypothesis_test` refuses, raises
    :class:`ConfigError` before anything is generated.
    """
    n = _integer(n, "n", high=_MAX_SUBJECTS)
    reps = _integer(reps, "reps", 1, _MAX_COUNT)
    alpha0 = _level(alpha0)
    adjusted = _flag(adjusted, "adjusted")
    gram = _choice(gram, "gram", GRAM_KINDS)
    features = build_quadratic_features(model.design)
    if n <= features.p + features.q:
        raise ConfigError(
            f"need more than p + q = {features.p + features.q} subjects, got {n}"
        )
    _require_calibrated(model)
    # a worker beyond the reps-th would get no replicate
    threads = min(resolve_threads(threads), reps)
    seed = _integer(seed, "seed", 0)
    crit = hotelling_critical(features.p, features.q, n, alpha0)

    run = partial(_replicate_outcomes, model, features, n, crit, adjusted, gram, seed,
                  each_dataset)
    outcomes = np.concatenate(
        _worker_outcomes(run, [range(w, reps, threads) for w in range(threads)]))

    failures = int(np.sum(outcomes == -1))
    if failures == reps:
        raise NumericError("every replicate failed; the configuration is pathological")
    return MonteCarloReport(
        requested=reps,
        failures=failures,
        rejections=int(np.sum(outcomes == 1)),
        alpha0=alpha0,
        seed=seed,
        config_digest=config_digest(model, n, reps, alpha0, adjusted, gram, seed),
    )
