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
together with a minimality certificate.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import (
    AvailabilityPattern, EffectPath, FeaturePaths, TrialDesign, _equilibrated_eigh, _freeze,
    _integer,
)
from .distributions import FDistParams, f_quantile, ncf_cdf
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


@dataclass(frozen=True)
class SizingInputs:
    """Everything the sizing formula consumes.

    ``effect`` must be in quadratic form (project explicit paths first); the
    significance level must satisfy 0 < alpha0 < 0.5 and the power target
    must lie strictly between alpha0 and 1.
    """

    design: TrialDesign
    features: FeaturePaths
    tau: AvailabilityPattern
    effect: EffectPath
    alpha0: float
    power_target: float

    def __post_init__(self):
        if not (0.0 < self.alpha0 < 0.5):
            raise ConfigError(f"alpha0 must be in (0, 0.5), got {self.alpha0}")
        if not (self.alpha0 < self.power_target < 1.0):
            raise ConfigError(
                f"power target must be in (alpha0, 1), got {self.power_target}"
            )
        if self.effect.form != "quadratic" or self.effect.coeffs is None:
            raise ConfigError("sizing requires the effect in quadratic form")
        T = self.design.T
        if self.features.T != T or self.tau.tau.shape[0] != T or self.effect.path.shape[0] != T:
            raise ConfigError("design, features, availability and effect lengths differ")

    @cached_property
    def q_matrix(self):
        """Read-only Q for these inputs, computed on first access."""
        return _freeze(compute_q_matrix(self.tau, self.design.rho, self.features))


@dataclass(frozen=True)
class SampleSizeResult:
    """Minimal sample size with its certificate.

    ``power_at_n_minus_1`` is the power one subject below the solution; it is
    0.0 when n - 1 would not leave a positive denominator degree of freedom
    (no valid test exists there).
    """

    n: int
    c_n: float
    achieved_power: float
    power_at_n_minus_1: float
    power_target: float

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"sample size must be positive, got {self.n}")
        for name in ("achieved_power", "power_at_n_minus_1", "power_target"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise ConfigError(f"{name} must be a probability, got {val}")

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
    tau_arr = np.asarray(getattr(tau, "tau", tau), dtype=np.float64)
    Z = features.Z
    if tau_arr.shape[0] != Z.shape[0]:
        raise ConfigError("availability and feature path lengths differ")
    rho_arr = np.broadcast_to(np.asarray(rho, dtype=np.float64), (Z.shape[0],))
    w = tau_arr * rho_arr * (1.0 - rho_arr)
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
    """Noncentrality c_n = n * d'Qd of the alternative distribution."""
    n = _integer(n, "n", 1)
    if effect.form != "quadratic" or effect.coeffs is None:
        raise ConfigError("noncentrality requires the effect in quadratic form")
    d = effect.coeffs
    if q_matrix.shape != (d.shape[0], d.shape[0]):
        raise ConfigError("effect coefficients and Q matrix dimensions differ")
    return float(n) * float(d @ q_matrix @ d)


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
    lam = noncentrality(n, inputs.effect, inputs.q_matrix)
    return _power(p, q, n, inputs.alpha0, lam)


def _power(p, q, n, alpha0, lam):
    """Noncentral-F power at n with noncentrality ``lam``; requires n > p + q."""
    dfd = n - q - p
    crit = f_quantile(1.0 - alpha0, FDistParams(p, dfd))
    return 1.0 - ncf_cdf(crit, FDistParams(p, dfd, lam))


def solve_sample_size(inputs, *, n_cap=DEFAULT_N_CAP):
    """Smallest integer n with power(n) >= the target, with certificate.

    Strategy: geometric bracket upward from the minimal feasible n, then
    integer bisection inside the bracket.  Both keep power(lo) < target <=
    power(hi) with both ends evaluated, so when hi - lo = 1 the answer is hi,
    its certificate is power(lo), and no n is evaluated twice.  Raises when
    no n <= n_cap reaches the target, and when the effect is identically zero
    (no finite n can ever reach a target above alpha0).
    """
    n_cap = _integer(n_cap, "n_cap")
    p = inputs.features.p
    q = inputs.features.q
    n_min = p + q + 1
    if n_cap < n_min:
        raise ConfigError(f"n_cap={n_cap} is below the minimal sample size {n_min}")

    q_matrix = inputs.q_matrix
    per_subject = float(inputs.effect.coeffs @ q_matrix @ inputs.effect.coeffs)
    if per_subject <= 0.0:
        raise ConfigError(
            "no solution: null effect (identically zero) can never reach a "
            "power target above the significance level"
        )

    def power_at(n):
        return _power(p, q, n, inputs.alpha0, float(n) * per_subject)

    target = inputs.power_target
    lo, p_lo = n_min, power_at(n_min)
    if p_lo >= target:
        n, achieved, below = n_min, p_lo, 0.0
    else:
        while True:
            if lo >= n_cap:
                raise NumericError(
                    f"power target {target} not reached by n = {n_cap} "
                    f"(power there is {p_lo:.4f})"
                )
            hi = min(2 * lo, n_cap)
            p_hi = power_at(hi)
            if p_hi >= target:
                break
            lo, p_lo = hi, p_hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            p_mid = power_at(mid)
            if p_mid >= target:
                hi, p_hi = mid, p_mid
            else:
                lo, p_lo = mid, p_mid
        n, achieved, below = hi, p_hi, p_lo

    return SampleSizeResult(
        n=n,
        c_n=float(n) * per_subject,
        achieved_power=achieved,
        power_at_n_minus_1=below,
        power_target=target,
    )
