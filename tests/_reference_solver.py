"""Gallop-from-n_min sample-size search: the test oracle for
``samplesize.solve_sample_size``.

This is the search ``mrtpower.samplesize`` used before it started near the
large-sample answer, kept unchanged as the definition of what the solver must
return: the same ``SampleSizeResult`` bits, and for a failed search the same
exception class and message.  It evaluates power through
``samplesize._power``, as the solver does.
"""

from mrtpower import samplesize
from mrtpower.design import _integer
from mrtpower.exceptions import ConfigError, NumericError
from mrtpower.samplesize import DEFAULT_N_CAP, SampleSizeResult


def reference_solve_sample_size(inputs, *, n_cap=DEFAULT_N_CAP):
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
        return samplesize._power(p, q, n, inputs.alpha0, float(n) * per_subject)

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
