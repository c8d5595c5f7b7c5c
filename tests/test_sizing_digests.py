"""
Golden sha256 digests of the sizing kernels' outputs.

The F quantile, the central and noncentral F CDFs, the incomplete beta and
the sample-size solver must return the same floats bit for bit whatever is
done to make them faster (memoizing, hoisting invariant work out of a loop).
Each digest covers the ``float.hex`` of every value a fixed list of calls
returns, with an explicit marker where a call raises ``NumericError``; the
values below were recorded before the F quantile was memoized and hold for
every later implementation.
"""

import hashlib

import pytest

from mrtpower import NumericError
from mrtpower.design import (
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.distributions import (
    FDistParams,
    f_cdf,
    f_quantile,
    ncf_cdf,
    reg_inc_beta,
)
from mrtpower.samplesize import SizingInputs, solve_sample_size

# The paper's sizing problem has p = 3 effect features, so its critical
# values are F(3, dfd) quantiles; dfd = n - 6 runs past every solved n.
PAPER_KEYS = [
    (1.0 - alpha0, 3, dfd) for alpha0 in (0.05, 0.01) for dfd in range(1, 401)
]
EXTREME_KEYS = [
    (prob, d1, d2)
    for prob in (1e-6, 0.5, 1.0 - 1e-6)
    for d1 in (1, 50)
    for d2 in (1, 1_000_000)
]
CDF_POINTS = [
    (x, d1, d2)
    for x in (1e-8, 0.05, 0.7, 1.0, 2.5, 40.0, 1e6)
    for d1 in (1, 3, 50)
    for d2 in (1, 36, 1_000_000)
]
BETA_POINTS = [
    (a, b, x)
    for a in (0.5, 1.5, 25.0, 5e5)
    for b in (0.5, 18.0, 5e5)
    for x in (0.0, 1e-9, 0.3, 0.5, 0.999999, 1.0)
]
NCF_POINTS = [
    (x, d1, d2, lam)
    for x in (0.3, 2.7, 60.0)
    for d1 in (1, 3, 50)
    for d2 in (1, 36, 1_000_000)
    for lam in (0.0, 2.5, 40.0, 1e4)
]
# Acceptance criterion 01's cells: average effect x constant availability.
EFFECTS = (0.10, 0.09, 0.08, 0.07, 0.06, 0.05)
AVAILS = (0.7, 0.6, 0.5, 0.4)

DIGESTS = {
    "f_quantile_paper":
        "2fa35b90dca81e80178bc984e507ee51fe15e81e4d61cdcc26f06b7c89925d62",
    "f_quantile_extremes":
        "8aba2a80066c4cb85c6ca08b0f5c713ec0ad7eec0fda6a4c740dea1ccad5ead4",
    "f_cdf":
        "a672115f4fdcbcced376c8e922a828f35673faa2d944a2f042ec523b4b796d0e",
    "reg_inc_beta":
        "f48f9952e998ef7f78375975d0d76ca99590e20fe0ac2cb6d7b242617ed2337c",
    "ncf_cdf":
        "0f0b4e6fdbc4dae31dd49a80d999ad7d1a6f6d5c45fc03bf3d50d70b4b7869d0",
    "sizing_power_0.80":
        "52d84ecdc208ae006c82b683043cc25bf656866584dbc55ef1f5e6f5d09bad3f",
    "sizing_power_0.90":
        "501722a93f41b81163542fcb90499fcd21ef2a8f681d641f4fcc72573545be9f",
}


def _digest(values):
    text = " ".join(v if isinstance(v, str) else float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _or_marker(fn, *args):
    try:
        return fn(*args)
    except NumericError:
        return "NumericError"


def _quantiles(keys):
    return [_or_marker(f_quantile, prob, FDistParams(d1, d2)) for prob, d1, d2 in keys]


def test_f_quantile_paper_grid():
    assert _digest(_quantiles(PAPER_KEYS)) == DIGESTS["f_quantile_paper"]


def test_f_quantile_extremes():
    assert _digest(_quantiles(EXTREME_KEYS)) == DIGESTS["f_quantile_extremes"]


def test_f_cdf():
    values = [_or_marker(f_cdf, x, FDistParams(d1, d2)) for x, d1, d2 in CDF_POINTS]
    assert _digest(values) == DIGESTS["f_cdf"]


def test_reg_inc_beta():
    values = [_or_marker(reg_inc_beta, a, b, x) for a, b, x in BETA_POINTS]
    assert _digest(values) == DIGESTS["reg_inc_beta"]


def test_ncf_cdf():
    values = [
        _or_marker(ncf_cdf, x, FDistParams(d1, d2, lam)) for x, d1, d2, lam in NCF_POINTS
    ]
    assert _digest(values) == DIGESTS["ncf_cdf"]


@pytest.mark.parametrize("target", [0.80, 0.90])
def test_sizing_cells(target):
    design = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
    features = build_quadratic_features(design)
    values = []
    for effect in EFFECTS:
        for avail in AVAILS:
            result = solve_sample_size(
                SizingInputs(
                    design=design,
                    features=features,
                    tau=make_availability("constant", avail, design),
                    effect=elicit_quadratic_effect(0.0, effect, 29, design),
                    alpha0=0.05,
                    power_target=target,
                )
            )
            values += [result.n, result.achieved_power, result.power_at_n_minus_1]
    assert _digest(values) == DIGESTS[f"sizing_power_{target:.2f}"]


def test_repeated_quantile_is_the_same_float():
    params = FDistParams(3, 57)
    first = f_quantile(0.97, params)
    assert f_quantile(0.97, params).hex() == first.hex()


def test_failed_quantile_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(NumericError, match="bracket or converge"):
            f_quantile(1 - 1e-8, FDistParams(50, 1))
