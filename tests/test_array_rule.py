"""
The one real-array rule, ``design._real_array``, at every array argument it
guards, and the copy rule of ``design._freeze``.

A real array argument (a design's rho, feature and availability paths, an
effect path or its coefficients, a dataset's probabilities and outcomes, a
generative model's mean and noise paths, ``project_effect``'s path, the
availability and randomization probabilities that ``compute_q_matrix``,
``project_effect`` and ``asymptotic_targets`` weight by) accepts
anything numpy reads as real numbers, and refuses a ragged sequence and
strings, bytes, Python objects and complex numbers, numeric strings such as
"0.4" included, with a ConfigError naming the argument (a Dataset names
ragged rows in its own words).  The value types keep a copy of a caller's
writable array and leave that array writable.

A per-decision-time path (and an effect's three coefficients) follows the
whole path rule: it is 1-D of its owner's length T (of any non-empty
length where the owner does not know T), finite and in its range; a scalar
stands for a constant path only as rho.  Anything else raises a ConfigError
naming the argument, with no numpy warning on the way.  A guard keeps the
refusal table complete: every array field of a value type and every public
function that reads a path is in it, or is named as no path.
"""

import dataclasses
import inspect
import re
import warnings
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from mrtpower import ConfigError, cli, design, distributions, estimator, samplesize, simulate
from mrtpower.design import (
    AvailabilityPattern,
    EffectPath,
    FeaturePaths,
    TrialDesign,
    build_quadratic_features,
    make_availability,
    project_effect,
)
from mrtpower.estimator import Dataset, asymptotic_targets
from mrtpower.samplesize import compute_q_matrix
from mrtpower.simulate import ErrorProcess, GenerativeModel

TINY = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
FEATURES = build_quadratic_features(TINY)
TAU = make_availability("constant", 0.6, TINY)
EFFECT = EffectPath.explicit(np.linspace(0.0, 0.2, TINY.T))
SHAPE = (2, TINY.T)


def _dataset(**arrays):
    base = dict(
        avail=np.ones(SHAPE, dtype=np.int8), action=np.zeros(SHAPE, dtype=np.int8),
        prob=np.full(SHAPE, 0.4), outcome=np.zeros(SHAPE),
    )
    return Dataset(**{**base, **arrays})


def _targets(tau=TAU, rho=0.4, features=FEATURES, alpha_path=np.zeros(TINY.T),
             beta_path=EFFECT.path):
    paths = SimpleNamespace(alpha_path=alpha_path, beta_path=beta_path, tau=tau, rho=rho)
    return asymptotic_targets(paths, features)


def _test_result(**arrays):
    base = dict(beta_hat=np.zeros(3), sigma_beta_hat=np.eye(3))
    return estimator.TestResult(
        statistic=1.0, critical_value=8.0, p_value=0.3, reject=False, adjustment="none",
        n=42, alpha0=0.05, **{**base, **arrays},
    )


def _model(**fields):
    base = dict(effect=EFFECT, tau=TAU)
    return GenerativeModel(
        scenario="working-true", design=TINY, errors=ErrorProcess("iid-normal"),
        **{**base, **fields},
    )


class Argument(NamedTuple):
    """One routed argument: its name, a valid value, and a call that uses it."""

    name: str
    value: np.ndarray
    call: Callable
    # a Dataset reads its rows before the rule, and names a ragged value itself
    ragged: str = None


ARGUMENTS = [
    Argument("rho", np.array(0.4), lambda v: TrialDesign(3, 4, v)),
    Argument("rho", np.full(TINY.T, 0.4), lambda v: TrialDesign(3, 4, v)),
    Argument("Z", FEATURES.Z, lambda v: FeaturePaths(Z=v, B=FEATURES.B[:, :1])),
    Argument("B", FEATURES.B, lambda v: FeaturePaths(Z=FEATURES.Z, B=v)),
    Argument("tau", TAU.tau, lambda v: AvailabilityPattern(v, "constant", 0.6)),
    Argument("path", EFFECT.path, EffectPath.explicit),
    Argument("path", EFFECT.path, lambda v: EffectPath(form="explicit", path=v)),
    Argument("coeffs", np.array([0.0, 0.1, -0.01]), lambda v: EffectPath.quadratic(v, TINY)),
    Argument(
        "coeffs", np.array([0.0, 0.1, -0.01]),
        lambda v: EffectPath(form="quadratic", path=EFFECT.path, coeffs=v),
    ),
    Argument("path", EFFECT.path, lambda v: project_effect(v, TAU, FEATURES, 0.4)),
    Argument("prob", np.full(SHAPE, 0.4), lambda v: _dataset(prob=v),
             "dataset arrays must be rectangular: "),
    Argument("outcome", np.zeros(SHAPE), lambda v: _dataset(outcome=v),
             "dataset arrays must be rectangular: "),
    Argument("alpha_path", np.zeros(TINY.T), lambda v: _model(alpha_path=v)),
    Argument("sigma1", np.ones(TINY.T), lambda v: _model(sigma1=v)),
    Argument("sigma0", np.ones(TINY.T), lambda v: _model(sigma0=v)),
    Argument("rho", np.array(0.4), lambda v: compute_q_matrix(TAU, v, FEATURES)),
    Argument("tau", TAU.tau, lambda v: compute_q_matrix(v, 0.4, FEATURES)),
    Argument("rho", np.full(TINY.T, 0.4), lambda v: project_effect(EFFECT, TAU, FEATURES, v)),
    Argument("rho", np.array(0.4), lambda v: _targets(rho=v)),
    Argument("tau", TAU.tau, lambda v: _targets(tau=v)),
    Argument("alpha_path", np.zeros(TINY.T), lambda v: _targets(alpha_path=v)),
    Argument("beta_path", EFFECT.path, lambda v: _targets(beta_path=v)),
    Argument("beta_hat", np.zeros(3), lambda v: _test_result(beta_hat=v)),
    Argument("sigma_beta_hat", np.eye(3), lambda v: _test_result(sigma_beta_hat=v)),
]

REFUSED = {
    "numeric strings": ("strings", lambda a: a.astype(str).tolist()),
    "string array": ("strings", lambda a: a.astype(str)),
    "bytes array": ("bytes", lambda a: a.astype(bytes)),
    "object array": ("Python objects", lambda a: a.astype(object)),
    "complex array": ("complex numbers", lambda a: a.astype(complex)),
    "ragged sequence": ("a ragged sequence", lambda a: [a.tolist(), [0.0]]),
}
CASES = [(index, kind) for index in range(len(ARGUMENTS)) for kind in REFUSED]


@pytest.mark.parametrize(
    "index,kind", CASES, ids=[f"{ARGUMENTS[i].name}-{i}-{kind}" for i, kind in CASES]
)
def test_every_real_array_argument_follows_one_rule(index, kind):
    arg = ARGUMENTS[index]
    arg.call(arg.value)  # the numbers themselves are accepted
    what, convert = REFUSED[kind]
    message = f"^{arg.name} must hold numbers, got {what}$"
    if kind == "ragged sequence" and arg.ragged:
        message = f"^{arg.ragged}"
    with pytest.raises(ConfigError, match=message):
        arg.call(convert(arg.value))


LONG_FEATURES = build_quadratic_features(TrialDesign(days=4, decisions_per_day=4, rho=0.4))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: compute_q_matrix(TAU, np.full(5, 0.4), FEATURES),
         "rho must be a scalar or have length 12, got shape (5,)"),
        (lambda: project_effect(EFFECT, TAU, FEATURES, np.full(5, 0.4)),
         "rho must be a scalar or have length 12, got shape (5,)"),
        (lambda: _targets(rho=np.full(5, 0.4)),
         "rho must be a scalar or have length 12, got shape (5,)"),
        (lambda: compute_q_matrix(TAU, 0.4, LONG_FEATURES),
         "tau must have length 16, got shape (12,)"),
        (lambda: project_effect(np.zeros(16), TAU, LONG_FEATURES, 0.4),
         "tau must have length 16, got shape (12,)"),
        (lambda: _targets(features=LONG_FEATURES), "tau must have length 16, got shape (12,)"),
        (lambda: _targets(alpha_path=np.zeros(5)),
         "alpha_path must have length 12, got shape (5,)"),
        (lambda: _targets(beta_path=np.zeros((1, 12))),
         "beta_path must have length 12, got shape (1, 12)"),
    ],
    ids=["q-rho", "projection-rho", "targets-rho", "q-tau", "projection-tau", "targets-tau",
         "targets-alpha-path", "targets-beta-path"],
)
def test_tau_and_rho_take_the_features_length(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


def test_dataset_copies_a_writable_prob():
    p = np.full(SHAPE, 0.4)
    data = _dataset(prob=p)
    assert p.flags.writeable
    p[0, 0] = 0.9
    assert data.prob[0, 0] == 0.4
    assert not data.prob.flags.writeable


def test_effect_path_copies_a_writable_path():
    path = np.zeros(TINY.T)
    effect = EffectPath.explicit(path)
    assert path.flags.writeable
    path[0] = 1.0
    assert effect.path[0] == 0.0


def test_a_read_only_array_is_kept_as_it_is():
    prob = np.broadcast_to(TINY.rho, SHAPE)  # read-only, not contiguous
    outcome = np.zeros(SHAPE)
    outcome.setflags(write=False)
    data = _dataset(prob=prob, outcome=outcome)
    assert data.prob is prob and data.outcome is outcome


# -- the path rule ----------------------------------------------------------


class Path(NamedTuple):
    """One path argument: the owner that reads it (a ``Class.field`` or a
    public function), the name its errors give, a valid value of the
    owner's length, the call that reads it, and its range."""

    owner: str
    name: str
    value: np.ndarray
    call: Callable
    low: float = None
    high: float = None
    # the owner knows T, so a shorter path is refused (else an empty one)
    knows_T: bool = True
    # a scalar stands for a constant path
    broadcast: bool = False
    # only the length is read here: the value was built by its own rule
    length_only: bool = False


RHO, TAU_PATH, ZEROS = np.full(TINY.T, 0.4), TAU.tau, np.zeros(TINY.T)
COEFFS = np.array([0.0, 0.1, -0.01])

PATHS = [
    Path("TrialDesign.rho", "rho", RHO, lambda v: TrialDesign(3, 4, v), 0.0, 1.0,
         broadcast=True),
    Path("AvailabilityPattern.tau", "tau", TAU_PATH,
         lambda v: AvailabilityPattern(v, "constant", 0.6), 0.0, 1.0, knows_T=False),
    Path("EffectPath.path", "path", EFFECT.path, EffectPath.explicit, knows_T=False),
    Path("EffectPath.coeffs", "coeffs", COEFFS,
         lambda v: EffectPath(form="quadratic", path=EFFECT.path, coeffs=v)),
    Path("EffectPath.quadratic", "coeffs", COEFFS, lambda v: EffectPath.quadratic(v, TINY)),
    Path("compute_q_matrix", "tau", TAU_PATH, lambda v: compute_q_matrix(v, 0.4, FEATURES),
         0.0, 1.0),
    Path("compute_q_matrix", "rho", RHO, lambda v: compute_q_matrix(TAU, v, FEATURES),
         0.0, 1.0, broadcast=True),
    Path("project_effect", "path", EFFECT.path, lambda v: project_effect(v, TAU, FEATURES, 0.4)),
    Path("project_effect", "tau", TAU_PATH,
         lambda v: project_effect(EFFECT, v, FEATURES, 0.4), 0.0, 1.0),
    Path("project_effect", "rho", RHO, lambda v: project_effect(EFFECT, TAU, FEATURES, v),
         0.0, 1.0, broadcast=True),
    Path("asymptotic_targets", "tau", TAU_PATH, lambda v: _targets(tau=v), 0.0, 1.0),
    Path("asymptotic_targets", "rho", RHO, lambda v: _targets(rho=v), 0.0, 1.0,
         broadcast=True),
    Path("asymptotic_targets", "alpha_path", ZEROS, lambda v: _targets(alpha_path=v)),
    Path("asymptotic_targets", "beta_path", EFFECT.path, lambda v: _targets(beta_path=v)),
    Path("GenerativeModel.alpha_path", "alpha_path", ZEROS, lambda v: _model(alpha_path=v)),
    Path("GenerativeModel.sigma1", "sigma1", np.ones(TINY.T), lambda v: _model(sigma1=v), 0.0),
    Path("GenerativeModel.sigma0", "sigma0", np.ones(TINY.T), lambda v: _model(sigma0=v), 0.0),
    Path("GenerativeModel.c_mean", "c_mean", ZEROS, lambda v: _model(c_mean=v)),
    Path("GenerativeModel.c_mean_avail", "c_mean_avail", ZEROS,
         lambda v: _model(c_mean_avail=v)),
    Path("GenerativeModel.effect", "effect", EFFECT.path,
         lambda v: _model(effect=EffectPath.explicit(v)), length_only=True),
    Path("GenerativeModel.tau", "tau", TAU_PATH,
         lambda v: _model(tau=AvailabilityPattern(v, "constant", 0.6)), length_only=True),
]


def _with(value, entry):
    bad = value.copy()
    bad[1] = entry
    return bad


# case -> the refused value made from a row (None: the case does not apply)
PATH_CASES = {
    "nan": lambda row: _with(row.value, np.nan),
    "+inf": lambda row: _with(row.value, np.inf),
    "-inf": lambda row: _with(row.value, -np.inf),
    "below": lambda row: None if row.low is None else _with(row.value, row.low - 0.5),
    "above": lambda row: None if row.high is None else _with(row.value, row.high + 0.5),
    "0-D": lambda row: None if row.broadcast else np.array(row.value[0]),
    "2-D": lambda row: row.value[None, :],
    "wrong-length": lambda row: row.value[:-1] if row.knows_T else row.value[:0],
}
REFUSED_PATHS = [
    (index, case)
    for index, row in enumerate(PATHS)
    for case, make in PATH_CASES.items()
    if make(row) is not None and (case == "wrong-length" or not row.length_only)
]


@pytest.mark.parametrize(
    "index,case", REFUSED_PATHS,
    ids=[f"{PATHS[i].owner}-{PATHS[i].name}-{case}" for i, case in REFUSED_PATHS],
)
def test_every_path_follows_the_path_rule(index, case):
    row = PATHS[index]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row.call(row.value)  # the valid path is accepted
        with pytest.raises(ConfigError) as info:
            row.call(PATH_CASES[case](row))
    assert re.match(f"(every entry of )?{row.name} must ", str(info.value)), str(info.value)


def _value_types():
    for module in (design, estimator, samplesize, simulate, distributions, cli):
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__dict__.get("__reduce__") is design._reduce_through_init:
                yield cls


# array fields that are no per-decision-time path, each with the rule it follows
NOT_PATHS = {
    "FeaturePaths.Z": "a (T, p) matrix, finite and of full rank",
    "FeaturePaths.B": "a (T, q) matrix, finite and of full rank",
    "Dataset.avail": "(N, T) data, validated by Dataset",
    "Dataset.action": "(N, T) data, validated by Dataset",
    "Dataset.prob": "(N, T) data, validated by Dataset",
    "Dataset.outcome": "(N, T) data, NaN where unavailable, validated by Dataset",
    "ModelFit.alpha_hat": "an estimate, computed and never an argument",
    "ModelFit.beta_hat": "an estimate, computed and never an argument",
    "ModelFit.residuals": "computed and never an argument",
    "TestResult.beta_hat": "an estimate, computed and never an argument",
    "TestResult.sigma_beta_hat": "an estimate, computed and never an argument",
}


def test_the_refusal_table_lists_every_path():
    array_fields = {
        f"{cls.__name__}.{field.name}"
        for cls in _value_types()
        for field in dataclasses.fields(cls)
        if field.type is np.ndarray
    }
    readers = {
        name
        for module in (design, estimator, samplesize, simulate, cli)
        for name in getattr(module, "__all__", ())
        if inspect.isfunction(fn := getattr(module, name))
        and {"_real_array", "_information_weights"} & set(fn.__code__.co_names)
    }
    assert readers >= {"compute_q_matrix", "project_effect", "asymptotic_targets"}
    assert NOT_PATHS.keys() <= array_fields
    owners = {row.owner for row in PATHS}
    required = (array_fields - NOT_PATHS.keys()) | readers
    assert required <= owners, f"not in the refusal table: {sorted(required - owners)}"


TAU_TWO = np.full(TINY.T, 2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: compute_q_matrix(TAU_TWO, 0.4, FEATURES),
        lambda: project_effect(EFFECT, TAU_TWO, FEATURES, 0.4),
        lambda: _targets(tau=TAU_TWO),
    ],
    ids=["compute_q_matrix", "project_effect", "asymptotic_targets"],
)
def test_an_availability_above_one_is_refused(call):
    # each took tau = 2.0 and returned numbers
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == "every entry of tau must be a number in [0, 1], got 2.0"


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["alpha_path", "beta_path"])
def test_asymptotic_targets_refuse_a_non_finite_path(name, entry):
    # each returned NaN targets
    with pytest.raises(ConfigError) as info:
        _targets(**{name: np.full(TINY.T, entry)})
    assert str(info.value) == f"every entry of {name} must be a number, got {entry!r}"


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["Z", "B"])
def test_feature_paths_refuse_a_non_finite_entry(name, entry):
    paths = {"Z": FEATURES.Z.copy(), "B": FEATURES.B.copy()}
    paths[name][2, 1] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as info:
            FeaturePaths(**paths)
    assert str(info.value) == f"every entry of {name} must be a number, got {entry!r}"
