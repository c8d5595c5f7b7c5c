"""Frozen copies of the two inner sizing kernels, kept as a bit oracle.

``reference_beta_cf`` and ``reference_ncf_cdf_kernel`` are
``distributions._beta_cf`` and ``distributions._ncf_cdf_kernel`` as they
were before their loops were rewritten to do less work per term, unchanged
but for their names; ``_reference_reg_inc_beta`` is the incomplete beta
of ``_ln_beta_norm`` and ``_inc_beta_body`` over ``reference_beta_cf``.
The rewrite must return the same float, bit for bit, for every input
(tests/test_kernel_bits.py).  Do not edit.
"""

import math

from mrtpower.distributions import (
    _CF_EPS,
    _CF_MAXIT,
    _SERIES_CAP,
    _SERIES_TOL,
    _ln_gamma_kernel,
)


def reference_beta_cf(a, b, x):
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


def _reference_reg_inc_beta(a, b, x):
    # I_x(a, b) as the series took it, through the reference continued fraction
    ln_norm = _ln_gamma_kernel(a + b) - _ln_gamma_kernel(a) - _ln_gamma_kernel(b)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = ln_norm + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        cf = reference_beta_cf(a, b, x)
        return math.exp(ln_front) * cf / a
    cf = reference_beta_cf(b, a, 1.0 - x)
    return 1.0 - math.exp(ln_front) * cf / b


def reference_ncf_cdf_kernel(x, d1, d2, lam):
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

    i0 = _reference_reg_inc_beta(a0, b, y)
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
