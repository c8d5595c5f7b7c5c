"""
Sample-size determination for the standardized proximal treatment effect.

The detectable alternative is a day-quadratic standardized effect d(t) = Z_t'd.
With availability-weighted information

    Q = sum_t tau_t rho_t (1 - rho_t) Z_t Z_t',

the test statistic's alternative distribution is noncentral F with
noncentrality c_n = n d'Qd, numerator degrees of freedom p, and denominator
degrees of freedom n - q - p, so

    power(n) = 1 - ncf_cdf( f_quantile(1 - alpha0; p, n-q-p); p, n-q-p, c_n ).

The Hotelling small-sample multiplier p(n-q-1)/(n-q-p) scales both the
critical value and the statistic, so it cancels on the F scale used here.
The critical value depends only on (alpha0, p, n-q-p); ``f_quantile``
memoizes it per process, so grid cells sharing degrees of freedom pay for
its bisection once.
``solve_sample_size`` returns the smallest integer n meeting the power target
together with a minimality certificate.  Its search starts near the answer.
The F(p, d2) test reaches the target at a noncentrality of about
lambda (1 + shift / d2), lambda being the large-d2 limit; with c_n = n d'Qd and
d2 = n - q - p, the answer is then about lambda / d'Qd + shift.  lambda and
shift are bisected once per (p, alpha0, target), at d2 = 5e4 and d2 = 100,
and memoized.  From the start the search gallops by 1, 2, 4, ... towards the
target and bisects: 2 power evaluations for each criterion 01 cell.
``power`` is a pure function of n, so wherever it rises with n the start
changes which n are evaluated, not the answer.
"""

import math
from functools import cached_property, lru_cache

import numpy as np

from .design import (
    _MEMO_SIZE, AvailabilityPattern, EffectPath, FeaturePaths, TrialDesign, _equilibrated_eigh,
    _freeze, _information_weights, _integer, _level, _real, _value_type,
)
from .distributions import (
    _QUANTILE_CDF_TOL, FDistParams, _f_quantile_kernel, _ncf_cdf_kernel, f_quantile, ncf_cdf,
)
from .exceptions import ConfigError, NumericError

__all__ = [
    "SizingInputs",
    "SampleSizeResult",
    "compute_q_matrix",
    "noncentrality",
    "power",
    "solve_sample_size",
]

DEFAULT_N_CAP = 1_000_000
# The search start's two F tests (module docstring): d2 = 5e4 is near the
# large-sample limit and inside the kernels' accurate range (the log-beta
# normalizer cancels above ~5e4).  Halving a noncentrality bracket 20 times
# leaves a relative width of about 1e-6; the start is an integer, so more is
# waste.  Noncentralities past _START_LAM_MAX make the series hit its cap.
_START_DFD = 50_000.0
_SHIFT_DFD = 100.0
_START_BISECTIONS = 20
_START_LAM_MAX = 1.0e8


@_value_type
class SizingInputs:
    """Everything the sizing formula consumes.

    ``effect`` must be in quadratic form (project explicit paths first); the
    significance level must satisfy 0 < alpha0 < 0.5, with 1 - alpha0 below
    1.0 in double precision, and the power target must lie below 1 and more
    than the F quantile's CDF tolerance (1e-10) above alpha0: the critical
    value's upper tail is known only to that tolerance, so below it power(n)
    need not rise with n and no search could tell which n is smallest.
    alpha0 and the target are stored as floats; anything else raises
    :class:`ConfigError`.
    """

    design: TrialDesign
    features: FeaturePaths
    tau: AvailabilityPattern
    effect: EffectPath
    alpha0: float
    power_target: float

    def __post_init__(self):
        alpha0 = _level(self.alpha0)
        target = _real(
            self.power_target, "power target", alpha0, 1.0, open_low=True, open_high=True
        )
        if target - alpha0 <= _QUANTILE_CDF_TOL:
            raise ConfigError(
                f"power target must exceed alpha0 by more than {_QUANTILE_CDF_TOL:g}, "
                f"got {target!r} at alpha0 = {alpha0!r}"
            )
        object.__setattr__(self, "alpha0", alpha0)
        object.__setattr__(self, "power_target", target)
        if self.effect.form != "quadratic":
            raise ConfigError("sizing requires the effect in quadratic form")
        T = self.design.T
        if self.features.T != T or self.tau.tau.shape[0] != T or self.effect.path.shape[0] != T:
            raise ConfigError("design, features, availability and effect lengths differ")

    @cached_property
    def q_matrix(self):
        """Read-only Q for these inputs, shared by every input with equal
        availability, design and features."""
        return _q_matrix(self.tau, self.design, self.features)


@lru_cache(maxsize=_MEMO_SIZE)
def _q_matrix(tau, design, features):
    # compute_q_matrix's guard runs once per distinct key
    return _freeze(compute_q_matrix(tau, design.rho, features))


@lru_cache(maxsize=_MEMO_SIZE)
def _per_subject(effect, tau, design, features):
    # d'Qd once per distinct key: its np.errstate costs a power call ~5 %
    return noncentrality(1, effect, _q_matrix(tau, design, features))


@_value_type
class SampleSizeResult:
    """Minimal sample size with its certificate.

    ``power_at_n_minus_1`` is the power one subject below the solution; it is
    0.0 when n - 1 would not leave a positive denominator degree of freedom
    (no valid test exists there).  ``n`` is read by the integer rule and the
    rest by the real-number rule (``c_n`` >= 0, the powers in [0, 1]);
    anything else raises :class:`ConfigError`.
    """

    n: int
    c_n: float
    achieved_power: float
    power_at_n_minus_1: float
    power_target: float

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        object.__setattr__(self, "c_n", _real(self.c_n, "c_n", 0.0))
        for name in ("achieved_power", "power_at_n_minus_1", "power_target"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0.0, 1.0))

    def to_dict(self):
        return {
            "n": self.n,
            "noncentrality": self.c_n,
            "achieved_power": self.achieved_power,
            "power_at_n_minus_1": self.power_at_n_minus_1,
            "power_target": self.power_target,
        }


def compute_q_matrix(tau, rho, features):
    """Availability-weighted effect-feature information matrix.

    Q = sum_t tau_t rho_t (1 - rho_t) Z_t Z_t'.  ``tau`` may be an
    AvailabilityPattern or a bare array; ``rho`` a scalar or per-time array.
    Raises when Q, scaled to unit diagonal, is not numerically positive definite.
    """
    Z = features.Z
    _, w = _information_weights(tau, rho, Z.shape[0])
    q = Z.T @ (w[:, None] * Z)
    q = 0.5 * (q + q.T)
    try:
        _equilibrated_eigh(q, "information matrix")
    except NumericError:
        raise NumericError(
            "information matrix is not positive definite for this "
            "availability/feature combination"
        ) from None
    return q


def noncentrality(n, effect, q_matrix):
    """Noncentrality c_n = n * d'Qd of the alternative distribution.

    d'Qd is formed without numpy's overflow warning: an overflow to inf is
    left to the F kernel, which refuses it, and one whose terms cancel to
    NaN raises :class:`NumericError` here.
    """
    n = _integer(n, "n", 1)
    if effect.form != "quadratic":
        raise ConfigError("noncentrality requires the effect in quadratic form")
    d = effect.coeffs
    if q_matrix.shape != (d.shape[0], d.shape[0]):
        raise ConfigError("effect coefficients and Q matrix dimensions differ")
    with np.errstate(over="ignore", invalid="ignore"):
        per_subject = float(d @ q_matrix @ d)
    if math.isnan(per_subject):
        raise NumericError("noncentrality overflows (d'Qd is NaN); the effect is too large")
    return float(n) * per_subject


def power(n, inputs):
    """Probability of rejecting the null at sample size n.

    Requires n > p + q so the denominator degrees of freedom are positive.
    """
    n = _integer(n, "n")
    p = inputs.features.p
    q = inputs.features.q
    if n <= p + q:
        raise ConfigError(
            f"sample size {n} leaves no denominator degrees of freedom "
            f"(need n > p + q = {p + q})"
        )
    lam = float(n) * _per_subject(inputs.effect, inputs.tau, inputs.design, inputs.features)
    return _power(p, q, n, inputs.alpha0, lam)


def _power(p, q, n, alpha0, lam):
    """Noncentral-F power at n with noncentrality ``lam``; requires n > p + q."""
    dfd = n - q - p
    crit = f_quantile(1.0 - alpha0, FDistParams(p, dfd))
    return 1.0 - ncf_cdf(crit, FDistParams(p, dfd, lam))


@lru_cache(maxsize=64)
def _start_terms(p, alpha0, target):
    """(lambda, shift) of the search start; (0.0, 0.0) when the kernels give
    no noncentrality that reaches the target."""
    lam = _needed_noncentrality(p, alpha0, target, _START_DFD)
    near = _needed_noncentrality(p, alpha0, target, _SHIFT_DFD)
    if lam == 0.0 or near == 0.0:
        return 0.0, 0.0
    return lam, _SHIFT_DFD * (near / lam - 1.0)


def _needed_noncentrality(p, alpha0, target, d2):
    # noncentrality at which the level-alpha0 F(p, d2) test reaches the
    # target power, bisected on the kernels; 0.0 when none is found
    d1 = float(p)
    crit = _f_quantile_kernel(1.0 - alpha0, d1, d2)

    def reached(lam):
        return 1.0 - _ncf_cdf_kernel(crit, d1, d2, lam) >= target

    lo, hi = 0.0, 1.0
    while not reached(hi):  # False while crit or the series is NaN
        lo, hi = hi, 2.0 * hi
        if hi > _START_LAM_MAX:
            return 0.0
    for _ in range(_START_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return hi


def solve_sample_size(inputs, *, n_cap=DEFAULT_N_CAP):
    """Smallest integer n with power(n) >= the target, with certificate.

    Strategy: start at lambda / d'Qd + shift (module docstring) clamped to
    [n_min, n_cap], gallop by 1, 2, 4, ... in the direction its power
    points, then bisect the integer bracket.  The search keeps
    power(lo) < target <= power(hi) with both ends evaluated, so when
    hi - lo = 1 the answer is hi, its certificate is power(lo), and no n is
    evaluated twice.  Raises when no n <= n_cap reaches the target, and when
    the effect is identically zero (no finite n can ever reach a target
    above alpha0).
    """
    n_cap = _integer(n_cap, "n_cap")
    p = inputs.features.p
    q = inputs.features.q
    n_min = p + q + 1
    if n_cap < n_min:
        raise ConfigError(f"n_cap={n_cap} is below the minimal sample size {n_min}")

    per_subject = _per_subject(inputs.effect, inputs.tau, inputs.design, inputs.features)
    if per_subject <= 0.0:
        raise ConfigError(
            "no solution: null effect (identically zero) can never reach a "
            "power target above the significance level"
        )

    def power_at(n):
        return _power(p, q, n, inputs.alpha0, float(n) * per_subject)

    target = inputs.power_target
    lam, shift = _start_terms(p, inputs.alpha0, target)
    start = max(n_min, math.ceil(min(lam / per_subject + shift, n_cap)))
    p_start = power_at(start)
    step = 1
    if p_start >= target:
        hi, p_hi = start, p_start
        lo, p_lo = n_min - 1, 0.0  # no valid test below n_min
        while hi > n_min:
            n = max(hi - step, n_min)
            p_n = power_at(n)
            if p_n < target:
                lo, p_lo = n, p_n
                break
            hi, p_hi = n, p_n
            step *= 2
    else:
        lo, p_lo = start, p_start
        while True:
            if lo == n_cap:
                raise NumericError(
                    f"power target {target} not reached by n = {n_cap} "
                    f"(power there is {p_lo:.4f})"
                )
            hi = min(lo + step, n_cap)
            p_hi = power_at(hi)
            if p_hi >= target:
                break
            lo, p_lo = hi, p_hi
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        p_mid = power_at(mid)
        if p_mid >= target:
            hi, p_hi = mid, p_mid
        else:
            lo, p_lo = mid, p_mid

    return SampleSizeResult(
        n=hi,
        c_n=float(hi) * per_subject,
        achieved_power=p_hi,
        power_at_n_minus_1=p_lo,
        power_target=target,
    )
