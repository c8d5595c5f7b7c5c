"""
Property tests of the F kernels against scipy.stats (a test-only oracle).

For each draw (d1, d2, lam, alpha), the critical value
crit = f_quantile(1 - alpha; d1, d2) must leave an upper tail
scipy.stats.f.sf(crit) within QUANTILE_TOL of alpha (the bisection's own CDF
tolerance is 1e-10), and ncf_cdf(crit; d1, d2, lam) -- one minus the power
at that critical value -- must match scipy.stats.ncf.cdf within NCF_TOL.  An
explicit NumericError is the only other accepted outcome.

The full domain (d1 <= 50, d2 <= 1e6, lam <= 1e4, alpha >= 1e-6) does not
hold today; extended-precision (mpmath) evaluations at the failing draws put
the error on mrtpower's side, scipy being right to ~1e-16:

* d2 above ~5e4: ln Gamma(a+b) - ln Gamma(a) - ln Gamma(b) cancels terms of
  order d2 log d2, so the CDF is off by up to ~1.3e-9 at d2 ~ 1e6;
* d2 = 1 far in the tail: 1 - y is formed from a rounded y near 1, so
  (1 - y)^(d2/2) carries a relative error of up to ~1e-3 and the CDF of the
  upper tail is off by up to ~3e-10 (quantile) and ~2e-9 (ncf_cdf).

The full-domain test is therefore a strict expected failure: it turns into
an error the day both are mended.  The domain 2 <= d2 <= 5e4 is gated as
passing at the same tolerances.  scipy's ncf is itself wrong at some tiny
normal lam (d1 = 1, d2 = 2, lam = 3.13e-158), so there a mismatch beyond
NCF_TOL is settled by a 50-digit mpmath value, which mrtpower must match
within NCF_TOL: that gate fails only when mrtpower is wrong.
"""

import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from mrtpower import NumericError
from mrtpower.distributions import FDistParams, f_quantile, ncf_cdf

QUANTILE_TOL = 2e-10
NCF_TOL = 1e-9

D1 = st.integers(1, 50)
# scipy's ncf is wrong at subnormal lam (cdf 0.0 at lam = 5e-324 where the
# central value is 0.5), so the oracle is asked only at normal floats.
LAM = st.floats(0.0, 1.0e4, allow_subnormal=False)
ALPHA = st.floats(1.0e-6, 0.5)


def _scipy_ncf_cdf(x, d1, d2, lam):
    # scipy's ncf.cdf is NaN where the true value underflows (x = 0.455,
    # d1 = 1, d2 = 2267, lam = 1366); its sf is still right there
    value = stats.ncf.cdf(x, d1, d2, lam)
    return 1.0 - stats.ncf.sf(x, d1, d2, lam) if math.isnan(value) else value


def _mpmath_ncf_cdf(x, d1, d2, lam):
    # the Poisson(lam / 2) mixture of I_y(d1 / 2 + j, d2 / 2), y = d1 x / (d1 x + d2),
    # summed at 50 digits outward from the mixture's mode until the weights
    # fall below 1e-30
    with mpmath.workdps(50):
        x, h = mpmath.mpf(x), mpmath.mpf(lam) / 2
        y = d1 * x / (d1 * x + d2)
        a, b = mpmath.mpf(d1) / 2, mpmath.mpf(d2) / 2

        def beta(j):
            return mpmath.betainc(a + j, b, 0, y, regularized=True)

        if h == 0:
            return float(beta(0))
        mode = int(h)
        w_mode = mpmath.exp(-h + mode * mpmath.log(h) - mpmath.loggamma(mode + 1))
        total = w_mode * beta(mode)
        j, w = mode, w_mode
        while w > 1e-30:
            w *= h / (j + 1)
            j += 1
            total += w * beta(j)
        j, w = mode, w_mode
        while j > 0 and w > 1e-30:
            w *= j / h
            j -= 1
            total += w * beta(j)
        return float(total)


def _check_against_scipy(d1, d2, lam, alpha, *, exact_on_mismatch=False):
    try:
        crit = f_quantile(1.0 - alpha, FDistParams(d1, d2))
    except NumericError:
        return
    assert abs(stats.f.sf(crit, d1, d2) - alpha) <= QUANTILE_TOL
    try:
        value = ncf_cdf(crit, FDistParams(d1, d2, lam))
    except NumericError:
        return
    expected = _scipy_ncf_cdf(crit, d1, d2, lam)
    if exact_on_mismatch and not abs(value - expected) <= NCF_TOL:
        expected = _mpmath_ncf_cdf(crit, d1, d2, lam)
    assert abs(value - expected) <= NCF_TOL


@settings(max_examples=200, deadline=None)
@given(d1=D1, d2=st.integers(2, 50_000), lam=LAM, alpha=ALPHA)
@example(d1=1, d2=2, lam=3.13e-158, alpha=0.5)
def test_matches_scipy_for_moderate_denominator_df(d1, d2, lam, alpha):
    _check_against_scipy(d1, d2, lam, alpha, exact_on_mismatch=True)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="log-beta cancellation at d2 > ~5e4 and 1 - y rounding at d2 = 1",
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(d1=D1, d2=st.integers(1, 1_000_000), lam=LAM, alpha=ALPHA)
def test_matches_scipy_over_the_full_domain(d1, d2, lam, alpha):
    _check_against_scipy(d1, d2, lam, alpha)
