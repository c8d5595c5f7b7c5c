"""
Value semantics of the frozen types, and the sizing builders' memos.

``make_availability``, ``elicit_quadratic_effect`` and
``build_quadratic_features`` return the object already built for equal
normalized arguments and an equal design, and ``SizingInputs.q_matrix`` the Q
already computed for an equal (availability, design, features) key.  A memo
must never change a bit: warm results equal cold ones, a key is exact (a
float's bits, after the same normalization an uncached call applies), an
error is never cached, and every memo is bounded.  The memos look designs up
by content, so every frozen dataclass of the package must compare by content
without raising.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from mrtpower import ConfigError, NumericError, cli, design, distributions, estimator
from mrtpower import samplesize, simulate
from mrtpower.design import (
    AvailabilityPattern,
    EffectPath,
    FeaturePaths,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.distributions import FDistParams
from mrtpower.estimator import Dataset, ModelFit
from mrtpower.samplesize import SampleSizeResult, SizingInputs, solve_sample_size
from mrtpower.simulate import ErrorProcess, GenerativeModel, MonteCarloReport

MEMOS = (
    design._availability,
    design._quadratic_effect,
    design._quadratic_features,
    samplesize._q_matrix,
)
# criterion 01's 24 cells: (average effect, constant availability)
CELLS = [
    (dbar, avail)
    for dbar in (0.10, 0.09, 0.08, 0.07, 0.06, 0.05)
    for avail in (0.7, 0.6, 0.5, 0.4)
]


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def paper_design(rho=0.4):
    return TrialDesign(days=42, decisions_per_day=5, rho=rho)


def values(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def exact(obj):
    """Every bit of a frozen dataclass: arrays as bytes, floats as hex."""
    return tuple(
        (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
        else v.hex() if isinstance(v, float) else v
        for v in values(obj)
    )


# =====================================================================
# Memos
# =====================================================================


def _cell(dbar, avail, target):
    # a new (equal) design per cell, so hits are found by content
    d = paper_design()
    inputs = SizingInputs(
        d,
        build_quadratic_features(d),
        make_availability("constant", avail, d),
        elicit_quadratic_effect(0.0, dbar, 29, d),
        0.05,
        target,
    )
    return exact(solve_sample_size(inputs)), inputs.q_matrix.tobytes()


def test_warm_memos_give_the_cold_bits():
    cells = [(dbar, avail, target) for dbar, avail in CELLS for target in (0.80, 0.90)]
    cold = {}
    for cell in cells:
        clear_memos()
        cold[cell] = _cell(*cell)
    clear_memos()
    for cell in cells:
        _cell(*cell)
    # 4 availabilities, 6 effects, 1 feature set, 4 Q matrices
    assert [memo.cache_info().currsize for memo in MEMOS] == [4, 6, 1, 4]
    hits = [memo.cache_info().hits for memo in MEMOS]
    assert {cell: _cell(*cell) for cell in cells} == cold
    assert all(memo.cache_info().hits > before for memo, before in zip(MEMOS, hits))


D = paper_design()


@pytest.mark.parametrize(
    "first, second",
    [
        (lambda: elicit_quadratic_effect(0.0, 0.1, 29, D),
         lambda: elicit_quadratic_effect(-0.0, 0.1, 29, D)),
        (lambda: elicit_quadratic_effect(-0.0, 0.1, 29, D),
         lambda: elicit_quadratic_effect(0.0, 0.1, 29, D)),
        (lambda: elicit_quadratic_effect(0.0, 0.1, 29, D),
         lambda: elicit_quadratic_effect(np.float64(0.0), np.float32(0.1), np.int64(29), D)),
        (lambda: elicit_quadratic_effect(0.0, 0.1, 29, D),
         lambda: elicit_quadratic_effect(np.float64(0.0), np.float64(0.1), np.int64(29), D)),
        (lambda: make_availability("linear", 0.5, D, amplitude=0.0),
         lambda: make_availability("linear", 0.5, D, amplitude=-0.0)),
        (lambda: make_availability("constant", 0.6, D),
         lambda: make_availability("constant", np.float32(0.6), D)),
        (lambda: make_availability("constant", 0.5, D),
         lambda: make_availability("constant", np.float64(0.5), D)),
        (lambda: make_availability("piecewise", 0.5, D, amplitude=0.2, break_day=4),
         lambda: make_availability("piecewise", 0.5, D, amplitude=np.float64(0.2),
                                   break_day=np.int64(4))),
        (lambda: build_quadratic_features(D),
         lambda: build_quadratic_features(paper_design(np.full(210, 0.4)))),
    ],
    ids=[
        "initial-0.0-then--0.0", "initial--0.0-then-0.0", "numpy-float32-average",
        "numpy-scalars", "amplitude-0.0-then--0.0", "float32-average",
        "float64-average", "numpy-shape-params", "per-time-rho",
    ],
)
def test_a_memo_hit_returns_the_bits_of_a_cleared_memo(first, second):
    clear_memos()
    cold = exact(second())
    clear_memos()
    first()
    assert exact(second()) == cold


def test_signed_zeros_are_distinct_keys():
    clear_memos()
    elicit_quadratic_effect(0.0, 0.1, 29, D)
    elicit_quadratic_effect(-0.0, 0.1, 29, D)
    make_availability("linear", 0.5, D, amplitude=0.0)
    make_availability("linear", 0.5, D, amplitude=-0.0)
    assert design._quadratic_effect.cache_info().currsize == 2
    assert design._availability.cache_info().currsize == 2


def _zero_availability_q():
    tau = AvailabilityPattern(tau=np.zeros(D.T), kind="constant", target_average=0.0)
    inputs = SizingInputs(
        D, build_quadratic_features(D), tau, elicit_quadratic_effect(0.0, 0.1, 29, D),
        0.05, 0.8,
    )
    return inputs.q_matrix


@pytest.mark.parametrize(
    "call, error, memo",
    [
        (lambda: make_availability("constant", 1.5, D), ConfigError, design._availability),
        (lambda: make_availability("linear", 0.9, D, amplitude=0.5), ConfigError,
         design._availability),
        (lambda: make_availability("piecewise", 0.5, D, amplitude=0.1, break_day=99),
         ConfigError, design._availability),
        (lambda: make_availability("weekly-periodic", 0.5, D), ConfigError,
         design._availability),
        (lambda: elicit_quadratic_effect(0.1, 0.1, 29, D), ConfigError,
         design._quadratic_effect),
        (lambda: elicit_quadratic_effect(0.0, -0.1, 29, D), ConfigError,
         design._quadratic_effect),
        (lambda: elicit_quadratic_effect(0.0, 0.1, 43, D), ConfigError,
         design._quadratic_effect),
        (lambda: build_quadratic_features(TrialDesign(2, 5, 0.4)), ConfigError,
         design._quadratic_features),
        (_zero_availability_q, NumericError, samplesize._q_matrix),
    ],
    ids=[
        "average-out-of-range", "infeasible-pattern", "break_day-out-of-range",
        "missing-amplitude", "flat-effect", "no-interior-maximum", "max_day-out-of-range",
        "two-day-features", "singular-q",
    ],
)
def test_errors_are_never_cached(call, error, memo):
    clear_memos()
    messages = []
    for _ in range(2):
        with pytest.raises(error) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert memo.cache_info().currsize == 0


def test_integral_float_break_day_refused_after_the_integer_is_memoized():
    make_availability("piecewise", 0.5, D, amplitude=0.1, break_day=4)
    with pytest.raises(ConfigError, match="break_day must be an integer"):
        make_availability("piecewise", 0.5, D, amplitude=0.1, break_day=4.0)


@pytest.mark.parametrize("memo", MEMOS, ids=lambda memo: memo.__name__)
def test_every_memo_is_bounded(memo):
    assert 0 < memo.cache_info().maxsize < 1000


def test_day_index_is_cached_and_read_only():
    d = paper_design()
    assert d.day_index is d.day_index
    assert not d.day_index.flags.writeable


# =====================================================================
# Value semantics
# =====================================================================


def _quadratic_z():
    u = np.arange(D.T, dtype=np.float64) // 5
    return np.column_stack([np.ones(D.T), u, u * u])


def _model(family):
    d = paper_design()
    return GenerativeModel.working_true(
        d,
        EffectPath.quadratic([0.0, 0.01, -0.0002], d),
        AvailabilityPattern(np.full(d.T, 0.5), "constant", 0.5),
        ErrorProcess(family, 0.5 if family == "ar1" else 0.0),
    )


def _dataset(last):
    return Dataset(
        avail=[[1, 1, 0]], action=[[0, 1, 0]], prob=[[0.4, 0.4, 0.4]],
        outcome=[[0.5, last, np.nan]],
    )


def _test_result(statistic):
    return estimator.TestResult(
        beta_hat=np.array([0.1, 0.0, 0.0]), sigma_beta_hat=np.eye(3), statistic=statistic,
        critical_value=8.0, p_value=0.3, reject=False, adjustment="hat-matrix", n=42,
        alpha0=0.05,
    )


def _sizing_inputs(target):
    d = paper_design()
    return SizingInputs(
        d,
        FeaturePaths(Z=_quadratic_z(), B=_quadratic_z()),
        AvailabilityPattern(np.full(d.T, 0.5), "constant", 0.5),
        EffectPath.quadratic([0.0, 0.01, -0.0002], d),
        0.05,
        target,
    )


# each frozen dataclass -> a factory of fresh instances, called with the
# first argument twice (equal content) and with the second (other content)
FACTORIES = {
    TrialDesign: (lambda rho: TrialDesign(42, 5, rho), 0.4, 0.3),
    FeaturePaths: (lambda cols: FeaturePaths(Z=_quadratic_z()[:, :cols], B=_quadratic_z()),
                   3, 2),
    AvailabilityPattern: (lambda a: AvailabilityPattern(np.full(D.T, a), "constant", a),
                          0.5, 0.6),
    EffectPath: (lambda c: EffectPath.quadratic([0.0, c, -0.0002], D), 0.01, 0.02),
    FDistParams: (lambda d2: FDistParams(3, d2, 1.5), 36, 37),
    Dataset: (_dataset, 1.0, 2.0),
    ModelFit: (lambda r: ModelFit(np.zeros(3), np.ones(3), np.full((2, 4), r)), 0.5, -0.5),
    estimator.TestResult: (_test_result, 2.5, 2.6),
    SizingInputs: (_sizing_inputs, 0.8, 0.9),
    SampleSizeResult: (lambda n: SampleSizeResult(n, 12.0, 0.81, 0.79, 0.8), 42, 43),
    ErrorProcess: (lambda phi: ErrorProcess("ar1", phi), 0.5, 0.6),
    GenerativeModel: (_model, "iid-normal", "ar1"),
    MonteCarloReport: (lambda r: MonteCarloReport(100, 0, r, 0.05, 1, "x"), 5, 6),
}


def test_every_frozen_dataclass_is_covered():
    found = {
        obj
        for module in (design, distributions, estimator, samplesize, simulate, cli)
        for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__ and obj.__dataclass_params__.frozen
    }
    assert found == set(FACTORIES)


@pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda cls: cls.__name__)
def test_equality_by_content_never_raises(cls):
    make, same, other = FACTORIES[cls]
    a, b, c = make(same), make(same), make(other)
    assert a is not b
    assert a == b and not (a != b)
    assert a != c and not (a == c)
    assert a != "not a design"
    try:
        key = hash(a)
    except TypeError:
        with pytest.raises(TypeError, match="unhashable"):
            hash(b)
    else:
        assert hash(b) == key


@pytest.mark.parametrize(
    "cls", [TrialDesign, FeaturePaths, AvailabilityPattern, EffectPath],
    ids=lambda cls: cls.__name__,
)
def test_design_types_are_values(cls):
    make, same, other = FACTORIES[cls]
    a = make(same)
    key = hash(a)
    copy = pickle.loads(pickle.dumps(a))
    assert "_hash" not in copy.__dict__  # the salted hash stays in its process
    assert copy == a and hash(copy) == key
    assert len({a, make(same), copy}) == 1
    assert make(other) not in {a}
    for value in values(copy):
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
