"""
The rewritten sizing kernels return what the frozen ones did, bit for bit.

``distributions._beta_cf`` (Lentz's continued fraction) and
``distributions._ncf_cdf_kernel`` (the noncentral-F Poisson mixture) were
rewritten to do less work per term.  tests/_reference_kernels.py keeps the
kernels as they were; every input must give the same outcome from both: the
same float (NaN matching NaN, -0.0 not matching 0.0) or the same exception
type.  The iteration caps are shrunk in both at once to check that each
counts its steps as before, across both passes of the series.
"""

import math
import os
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, os.path.dirname(__file__))
import _reference_kernels as ref

from mrtpower import distributions
from mrtpower.distributions import _beta_cf, _ncf_cdf_kernel


def _outcome(kernel, *args):
    try:
        value = kernel(*args)
    except ArithmeticError as exc:
        return type(exc)
    return "nan" if math.isnan(value) else value.hex()


def _same(kernel, reference, *args):
    assert _outcome(kernel, *args) == _outcome(reference, *args), args


LAMBDAS = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2e-308),  # subnormal
    st.floats(0.0, 1e7),
)


@settings(max_examples=300, deadline=None, derandomize=True)
# found by random search against deliberately broken kernels: the upward
# stop ratio taken before k is incremented, and each pass without its clamp
@example(x=0.7385084861891217, d1=972, d2=56, lam=166.28573509623678)
@example(x=693.6517942006633, d1=9, d2=52, lam=1272.8187114197976)
@example(x=7.879641919619999, d1=11, d2=35966750, lam=48.479740418435156)
@example(x=4.433497761507072, d1=1, d2=62970506, lam=25.05639022970691)
@given(
    x=st.floats(0.0, 1e12),
    d1=st.integers(1, 1000),
    d2=st.integers(1, 10**8),
    lam=LAMBDAS,
)
def test_ncf_cdf_kernel_keeps_every_bit(x, d1, d2, lam):
    _same(_ncf_cdf_kernel, ref.reference_ncf_cdf_kernel, x, float(d1), float(d2), lam)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.floats(0.5, 1e7), b=st.floats(0.5, 1e8), x=st.floats(0.0, 1.0))
def test_beta_cf_keeps_every_bit(a, b, x):
    _same(_beta_cf, ref.reference_beta_cf, a, b, x)


def test_series_cap_gives_nan_in_both():
    # lam/2 = 5e10: the Poisson weights spread over ~2e5 indices on each side
    args = (1.0, 3.0, 36.0, 1e11)
    assert _outcome(_ncf_cdf_kernel, *args) == _outcome(ref.reference_ncf_cdf_kernel, *args)
    assert _outcome(_ncf_cdf_kernel, *args) == "nan"


# (x, d1, d2, lam): series of 45 and 78 terms, of which the downward pass
# adds at most k0 = lam / 2 (12 and 30), and one of 14 terms with no
# downward pass (k0 = 0); a cap below the count gives NaN
CAP_SERIES = [(2.5, 3.0, 36.0, 24.0), (8.0, 3.0, 36.0, 60.0), (2.5, 3.0, 36.0, 1.5)]


@pytest.mark.parametrize("args", CAP_SERIES)
def test_series_cap_counts_terms_of_both_passes_alike(monkeypatch, args):
    outcomes = set()
    for cap in range(0, 90):
        monkeypatch.setattr(distributions, "_SERIES_CAP", cap)
        monkeypatch.setattr(ref, "_SERIES_CAP", cap)
        _same(_ncf_cdf_kernel, ref.reference_ncf_cdf_kernel, *args)
        outcomes.add(_outcome(_ncf_cdf_kernel, *args))
    assert "nan" in outcomes and len(outcomes) == 2


def test_continued_fraction_cap_counts_alike(monkeypatch):
    outcomes = set()
    for maxit in range(0, 30):
        monkeypatch.setattr(distributions, "_CF_MAXIT", maxit)
        monkeypatch.setattr(ref, "_CF_MAXIT", maxit)
        _same(_beta_cf, ref.reference_beta_cf, 40.0, 60.0, 0.35)
        outcomes.add(_outcome(_beta_cf, 40.0, 60.0, 0.35))
    assert "nan" in outcomes and len(outcomes) == 2
