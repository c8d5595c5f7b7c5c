"""
Special-function kernels for the sizing and testing pipeline.

Self-contained implementations (no scipy dependency) of:

* ``ln_gamma``       -- Lanczos log-gamma,
* ``reg_inc_beta``   -- regularized incomplete beta via Lentz's continued
                        fraction with the standard symmetry switch,
* ``f_cdf`` / ``f_quantile`` -- central F distribution function and inverse,
* ``ncf_cdf``        -- noncentral F CDF as a Poisson mixture of incomplete
                        betas, summed outward from the modal Poisson index,
* ``hotelling_critical`` -- the scaled-F critical value used by the
                        multivariate Wald test at small sample sizes.

Everything here is a pure function.  Kernels signal non-convergence by
returning NaN; the public wrappers translate that into
:class:`~mrtpower.exceptions.NumericError`.

Sizing and testing ask for the same few critical values over and over, so
the F quantile search is memoized per (prob, d1, d2) in a bounded
``lru_cache`` (``hotelling_critical`` keeps no cache of its own); a failed
search is cached as NaN and raises on every call.  Within one search the
log-beta normalizer ln Gamma(a+b) - ln Gamma(a) - ln Gamma(b) is computed
once, not at every bisection step.  Neither changes a returned bit.

Accuracy notes: the continued fraction is iterated to ~1e-15 relative
convergence, giving CDF values accurate to ~1e-13 absolute; the log-gamma
kernel is accurate to ~1e-14 *relative* error, which for very large
arguments (where log-gamma is ~1e7) corresponds to an absolute error of
order 1e-7 -- the inherent granularity of double precision at that scale.
That granularity reaches the CDFs through the log-beta normalizer: for
d2 above ~5e4 the F CDF is off by up to ~1e-9 (d2 ~ 1e6).  Far in the upper
tail at d2 = 1, 1 - y is formed from a rounded y near 1, with errors up to
~2e-9 (tests/test_scipy_oracle.py).
"""

import math
from functools import lru_cache

from .design import _integer, _level, _real, _value_type
from .exceptions import NumericError

__all__ = [
    "FDistParams",
    "ln_gamma",
    "reg_inc_beta",
    "f_cdf",
    "f_quantile",
    "ncf_cdf",
    "hotelling_critical",
]

# Series/continued-fraction controls.  _SERIES_TOL is the term-plus-tail
# threshold for the noncentral mixture; _CF_EPS is the Lentz relative
# convergence target; caps convert runaway loops into explicit errors.
_CF_EPS = 1.0e-15
_CF_MAXIT = 400
_SERIES_TOL = 1.0e-13
_SERIES_CAP = 200_000
_QUANTILE_CDF_TOL = 1.0e-10
_QUANTILE_MAXIT = 200
# Distinct (prob, d1, d2) quantile keys kept; a 96-cell sizing grid needs 253.
_QUANTILE_MEMO_SIZE = 1024

# Lanczos coefficients, g = 7, n = 9.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.91893853320467274178  # log(sqrt(2*pi))
_LN_PI = 1.1447298858494001741  # log(pi)


# ======================================================================
# scalar kernels
# ======================================================================

def _lanczos_ln_gamma(x):
    # Lanczos sum, valid for x >= 0.5.  The terms are unrolled for CPython
    # speed: a loop over _LANCZOS gives the same bits but takes ~40% longer
    # per call, and solving one sizing cell makes over a thousand calls.
    z = x - 1.0
    acc = _LANCZOS[0]
    acc += _LANCZOS[1] / (z + 1.0)
    acc += _LANCZOS[2] / (z + 2.0)
    acc += _LANCZOS[3] / (z + 3.0)
    acc += _LANCZOS[4] / (z + 4.0)
    acc += _LANCZOS[5] / (z + 5.0)
    acc += _LANCZOS[6] / (z + 6.0)
    acc += _LANCZOS[7] / (z + 7.0)
    acc += _LANCZOS[8] / (z + 8.0)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _ln_gamma_kernel(x):
    # Reflection for x < 0.5 (the reflected argument is then >= 0.5).
    if x < 0.5:
        return _LN_PI - math.log(abs(math.sin(math.pi * x))) - _lanczos_ln_gamma(1.0 - x)
    return _lanczos_ln_gamma(x)


def _beta_cf(a, b, x):
    # Lentz's algorithm for the continued fraction in the incomplete beta
    # (Numerical Recipes normalization).  Returns NaN on non-convergence.
    tiny = 1.0e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return math.nan


def _ln_beta_norm(a, b):
    # log of Gamma(a+b) / (Gamma(a) Gamma(b)): fixed for a whole quantile
    # search, so the search computes it once and passes it in
    return _ln_gamma_kernel(a + b) - _ln_gamma_kernel(a) - _ln_gamma_kernel(b)


def _inc_beta_body(a, b, x, ln_norm):
    # I_x(a, b) given ln_norm = _ln_beta_norm(a, b)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    # log of x^a (1-x)^b / (a*B(a,b)) assembled in log space for stability
    ln_front = ln_norm + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        cf = _beta_cf(a, b, x)
        return math.exp(ln_front) * cf / a
    cf = _beta_cf(b, a, 1.0 - x)
    return 1.0 - math.exp(ln_front) * cf / b


def _reg_inc_beta_kernel(a, b, x):
    return _inc_beta_body(a, b, x, _ln_beta_norm(a, b))


def _f_cdf_kernel(x, d1, d2, ln_norm):
    # ln_norm = _ln_beta_norm(d1/2, d2/2)
    if x <= 0.0:
        return 0.0
    y = d1 * x / (d1 * x + d2)
    return _inc_beta_body(0.5 * d1, 0.5 * d2, y, ln_norm)


def _ncf_cdf_kernel(x, d1, d2, lam):
    # P(F_{d1,d2;lam} <= x) = sum_k Pois(k; lam/2) * I_y(d1/2 + k, d2/2)
    # summed outward from the modal index, with recurrences
    #   T_a      = y^a (1-y)^b Gamma(a+b) / (Gamma(a+1) Gamma(b))
    #   I_y(a+1,b) = I_y(a,b) - T_a,      T_{a+1} = T_a * y (a+b) / (a+1)
    #   p_{k+1}  = p_k (lam/2)/(k+1),     p_{k-1} = p_k * k/(lam/2)
    if x <= 0.0:
        return 0.0
    half = 0.5 * lam
    y = d1 * x / (d1 * x + d2)
    b = 0.5 * d2
    k0 = int(half)
    a0 = 0.5 * d1 + k0

    i0 = _reg_inc_beta_kernel(a0, b, y)
    if math.isnan(i0):
        return math.nan
    # Poisson weight at the modal index, in log space for large lam
    if half > 0.0:
        p0 = math.exp(-half + k0 * math.log(half) - _ln_gamma_kernel(k0 + 1.0))
    else:
        p0 = 1.0
    # T at a0 (log space); lets both directions start from one anchor
    if 0.0 < y < 1.0:
        t0 = math.exp(
            _ln_gamma_kernel(a0 + b)
            - _ln_gamma_kernel(a0 + 1.0)
            - _ln_gamma_kernel(b)
            + a0 * math.log(y)
            + b * math.log1p(-y)
        )
    else:
        t0 = 0.0

    total = p0 * i0
    iterations = 0

    # upward pass: k = k0+1, k0+2, ...
    p = p0
    icur = i0
    t = t0
    k = k0
    while True:
        icur -= t  # I_y(a+1, b)
        t *= y * ((0.5 * d1 + k) + b) / ((0.5 * d1 + k) + 1.0)
        p *= half / (k + 1.0)
        k += 1
        if icur < 0.0:
            icur = 0.0  # guard against cancellation at the tail
        term = p * icur
        total += term
        iterations += 1
        if iterations > _SERIES_CAP:
            return math.nan
        # stop once the term is negligible and the remaining Poisson mass
        # (geometric bound, valid once k+1 > lam/2) is negligible too
        ratio = half / (k + 1.0)
        if term < _SERIES_TOL and ratio < 1.0:
            tail_bound = p * ratio / (1.0 - ratio)
            if tail_bound < _SERIES_TOL:
                break

    # downward pass: k = k0-1, ..., 0
    p = p0
    icur = i0
    t = t0
    k = k0
    while k > 0:
        # T_{a-1} = T_a * a / (y * (a - 1 + b));  I_y(a-1,b) = I_y(a,b) + T_{a-1}
        a = 0.5 * d1 + k
        t = t * a / (y * (a - 1.0 + b))
        icur += t
        if icur > 1.0:
            icur = 1.0
        p *= k / half
        k -= 1
        term = p * icur
        total += term
        iterations += 1
        if iterations > _SERIES_CAP:
            return math.nan
        if term < _SERIES_TOL and k >= 1:
            # downward Poisson tail bound: successive ratios are <= k/half
            ratio = k / half
            if ratio < 1.0 and p * ratio / (1.0 - ratio) < _SERIES_TOL:
                break

    if total < 0.0:
        return 0.0
    if total > 1.0:
        return 1.0
    return total


@lru_cache(maxsize=_QUANTILE_MEMO_SIZE)
def _f_quantile_kernel(prob, d1, d2):
    # geometric bracket expansion from x=1, then bisection on the CDF; NaN
    # when no bracket is found or the bisection hits its iteration cap.
    # Memoized per (prob, d1, d2), NaN included.
    ln_norm = _ln_beta_norm(0.5 * d1, 0.5 * d2)
    lo = 0.0
    hi = 1.0
    while _f_cdf_kernel(hi, d1, d2, ln_norm) < prob:
        lo = hi
        hi *= 2.0
        if hi > 1.0e300:
            return math.nan
    for _ in range(_QUANTILE_MAXIT):
        mid = 0.5 * (lo + hi)
        c = _f_cdf_kernel(mid, d1, d2, ln_norm)
        if abs(c - prob) <= _QUANTILE_CDF_TOL:
            return mid
        if c < prob:
            lo = mid
        else:
            hi = mid
    return math.nan


# ======================================================================
# public API
# ======================================================================

@_value_type
class FDistParams:
    """Degrees of freedom and noncentrality of an F distribution.

    ``lam`` is the noncentrality parameter; ``lam = 0`` gives the central
    distribution.
    """

    d1: int
    d2: int
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "d1", _integer(self.d1, "d1", 1))
        object.__setattr__(self, "d2", _integer(self.d2, "d2", 1))
        if not (self.lam >= 0.0):
            raise ValueError(f"lam must be >= 0, got {self.lam}")


def ln_gamma(x):
    """Natural log of the gamma function for finite x > 0."""
    return _ln_gamma_kernel(_real(x, "x", 0.0, open_low=True))


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b), finite a, b > 0, x in [0, 1]."""
    a, b = _real(a, "a", 0.0, open_low=True), _real(b, "b", 0.0, open_low=True)
    x = _real(x, "x", 0.0, 1.0)
    value = _reg_inc_beta_kernel(a, b, x)
    if math.isnan(value):
        raise NumericError(
            f"incomplete-beta continued fraction failed to converge "
            f"(a={a}, b={b}, x={x})"
        )
    if not 0.0 <= value <= 1.0:
        raise NumericError(
            f"incomplete beta {value} is not a probability (a={a}, b={b}, x={x}): "
            f"the log-beta normalizer has lost its precision"
        )
    return value


def _central(params):
    if params.lam != 0.0:
        raise ValueError("central F function called with nonzero noncentrality")
    return float(params.d1), float(params.d2)


def f_cdf(x, params):
    """P(F <= x) for the central F distribution given by ``params``."""
    d1, d2 = _central(params)
    x = float(x)
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"f_cdf requires x >= 0, got {x}")
    if math.isinf(x):
        return 1.0
    value = _f_cdf_kernel(x, d1, d2, _ln_beta_norm(0.5 * d1, 0.5 * d2))
    if math.isnan(value):
        raise NumericError(f"F CDF evaluation failed (x={x}, d1={d1}, d2={d2})")
    if not 0.0 <= value <= 1.0:
        raise NumericError(
            f"F CDF {value} is not a probability (x={x}, d1={d1}, d2={d2}): "
            f"the log-beta normalizer has lost its precision"
        )
    return value


def f_quantile(prob, params):
    """Inverse of :func:`f_cdf`: the x with P(F <= x) = prob, prob in (0,1).

    Bracketing plus bisection on the CDF; terminates when the CDF at the
    midpoint is within 1e-10 of ``prob`` (monotonicity makes this safe).
    Raises :class:`NumericError` when no bracket is found or the bisection
    does not converge within its iteration cap.  The search runs once per
    distinct (prob, d1, d2) in a process and its result is reused; a failed
    search is remembered too and raises again on every call.
    """
    d1, d2 = _central(params)
    return _f_quantile(float(prob), d1, d2)


def _f_quantile(prob, d1, d2):
    if not (0.0 < prob < 1.0):
        raise ValueError(f"f_quantile requires prob in (0, 1), got {prob}")
    value = _f_quantile_kernel(prob, d1, d2)
    if math.isnan(value):
        raise NumericError(
            f"F quantile search failed to bracket or converge "
            f"(prob={prob}, d1={d1}, d2={d2})"
        )
    return value


def ncf_cdf(x, params):
    """P(F <= x) for the noncentral F distribution given by ``params``.

    Poisson-mixture series over incomplete betas, summed outward from the
    modal Poisson index; terminates when both the current term and an
    analytic bound on the remaining Poisson tail fall below 1e-13.  An
    infinite noncentrality raises :class:`NumericError`.
    """
    x = float(x)
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"ncf_cdf requires x >= 0, got {x}")
    if math.isinf(x):
        return 1.0
    if math.isinf(params.lam):
        raise NumericError(
            f"noncentrality is infinite (x={x}, d1={params.d1}, d2={params.d2}); "
            f"the effect is too large for the noncentral-F series"
        )
    value = _ncf_cdf_kernel(x, float(params.d1), float(params.d2), float(params.lam))
    if math.isnan(value):
        raise NumericError(
            f"noncentral-F series did not converge within the iteration cap "
            f"(x={x}, d1={params.d1}, d2={params.d2}, lam={params.lam}); "
            f"the noncentrality may exceed the configured cap"
        )
    return value


def hotelling_critical(p, q, n, alpha0):
    """Critical value of the scaled-F reference distribution for the Wald test.

    For a p-dimensional effect, q nuisance parameters, and n subjects, the
    test statistic is compared against

        p (n - q - 1) / (n - q - p) * F^{-1}_{p, n-q-p}(1 - alpha0),

    which converges to the chi-square(p) quantile as n grows.  The F
    quantile comes from :func:`f_quantile`'s per-key memo, so a Monte Carlo
    run, which asks for the same value on every replicate, solves it once.
    ``alpha0`` is read by the level rule, as :func:`hypothesis_test` reads it.
    """
    p, q = _integer(p, "p", 1), _integer(q, "q", 0)
    n, alpha0 = _integer(n, "n", p + q + 1), _level(alpha0)
    mult = p * (n - q - 1) / (n - q - p)
    return mult * _f_quantile(1.0 - alpha0, float(p), float(n - q - p))
