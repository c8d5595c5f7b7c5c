"""
The named-choice and flag rules, ``design._choice`` and ``design._flag``,
at every argument they guard.

A choice argument (an availability kind, an effect form, an error family, a
scenario, a variance trend, an adjustment label, a Gram convention) accepts
only a ``str`` among its options; numpy's ``str_`` gives the result of the
equal ``str``.  A flag (``adjusted``) accepts only a bool, numpy's included.
Everything else -- None, a number, bytes, a list, an array of strings, a
string in the wrong case, the empty string -- raises ConfigError naming the
argument, never a TypeError or numpy's ambiguous-truth ValueError, and is
never read for its truth value.

The kernels and the Hotelling critical value read their real arguments by
the real rule and their level by the level rule, as the rest of the package
does.
"""

import json
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner

from mrtpower import ConfigError, estimator, simulate
from mrtpower.cli import main
from mrtpower.design import (
    AvailabilityPattern,
    EffectPath,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.distributions import hotelling_critical, ln_gamma, reg_inc_beta
from mrtpower.estimator import fit_working_model, hypothesis_test, sandwich_variance
from mrtpower.simulate import (
    ErrorProcess,
    GenerativeModel,
    config_digest,
    generate_dataset,
    monte_carlo,
    variance_trend_path,
)

TINY = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
FEATURES = build_quadratic_features(TINY)
_TINY_ARGS = (
    TINY,
    elicit_quadratic_effect(0.0, 0.3, 2, TINY),
    make_availability("constant", 0.6, TINY),
    ErrorProcess("iid-normal"),
)
WORKING = GenerativeModel.working_true(*_TINY_ARGS)
TINY_DATA = generate_dataset(WORKING, 20, seed=1)
TINY_FIT = fit_working_model(TINY_DATA, FEATURES)


def _model(model):
    return json.dumps(model.describe())


def _test(**kwargs):
    result = hypothesis_test(TINY_DATA, FEATURES, 0.05, **kwargs)
    return repr((result.statistic, result.critical_value, result.p_value, result.adjustment))


def _sandwich(adjusted=True, gram="summed"):
    return sandwich_variance(TINY_DATA, TINY_FIT, FEATURES, adjusted, gram=gram).tobytes()


def _monte_carlo(**kwargs):
    return json.dumps(monte_carlo(WORKING, 10, 3, 0.05, seed=5, **kwargs).to_dict())


def _test_result(adjustment="none", reject=False):
    return repr(estimator.TestResult(
        beta_hat=np.zeros(3), sigma_beta_hat=np.eye(3), statistic=1.0, critical_value=8.0,
        p_value=0.3, reject=reject, adjustment=adjustment, n=42, alpha0=0.05,
    ))


class Argument(NamedTuple):
    """One routed argument: its name, a valid value, and a call that uses it."""

    name: str
    base: object
    call: Callable


CHOICES = [
    Argument("kind", "linear",
             lambda v: make_availability(v, 0.6, TINY, amplitude=0.2).tau.tobytes()),
    Argument("kind", "constant",
             lambda v: repr(AvailabilityPattern(np.full(TINY.T, 0.6), v, 0.6))),
    Argument("form", "explicit", lambda v: repr(EffectPath(v, np.zeros(TINY.T)))),
    Argument("family", "ar1", lambda v: repr(ErrorProcess(v, 0.5))),
    Argument("scenario", "nonquadratic-effect", lambda v: _model(GenerativeModel(v, *_TINY_ARGS))),
    Argument("variance_trend", "weekend",
             lambda v: _model(GenerativeModel("working-true", *_TINY_ARGS, variance_trend=v))),
    Argument("variance_trend", "increasing", lambda v: variance_trend_path(v, TINY).tobytes()),
    Argument("variance_trend", "decreasing",
             lambda v: _model(GenerativeModel.heteroscedastic(
                 *_TINY_ARGS, variance_ratio=1.5, variance_trend=v))),
    Argument("adjustment", "none", _test_result),
    Argument("gram", "averaged", lambda v: _test(gram=v)),
    Argument("gram", "averaged", lambda v: _sandwich(gram=v)),
    Argument("gram", "averaged", lambda v: _monte_carlo(gram=v)),
    Argument("gram", "averaged", lambda v: config_digest(WORKING, 10, 3, 0.05, True, v, 5)),
]

FLAGS = [
    Argument("adjusted", False, lambda v: _test(adjusted=v)),
    Argument("adjusted", False, lambda v: _sandwich(adjusted=v)),
    Argument("adjusted", False, lambda v: _monte_carlo(adjusted=v)),
    Argument("adjusted", False,
             lambda v: config_digest(WORKING, 10, 3, 0.05, v, "summed", 5)),
    Argument("reject", False, lambda v: _test_result(reject=v)),
]

REFUSED = {
    "None": lambda base: None,
    "int": lambda base: 7,
    "bytes": lambda base: b"ar1",
    "list": lambda base: ["x"],
    "two-string array": lambda base: np.array(["ar1", "ar5"]),
    "wrong case": lambda base: str(base).upper(),
    "empty string": lambda base: "",
}
# what a truth test would have read as a flag
REFUSED_FLAGS = {**REFUSED, "zero": lambda base: 0, "one": lambda base: 1,
                 "no": lambda base: "no", "numpy int": lambda base: np.int64(0)}


def _cases(arguments, kinds, prefix):
    return [
        pytest.param(arg, kind, id=f"{prefix}-{arg.name}-{index}-{kind}")
        for index, arg in enumerate(arguments)
        for kind in kinds
    ]


@pytest.mark.parametrize(
    "arg,kind", _cases(CHOICES, REFUSED, "choice") + _cases(FLAGS, REFUSED_FLAGS, "flag")
)
def test_every_choice_and_flag_argument_follows_one_rule(arg, kind):
    value = REFUSED_FLAGS[kind](arg.base)
    with pytest.raises(ConfigError) as info:
        arg.call(value)
    assert str(info.value).startswith(f"{arg.name} must be"), str(info.value)


@pytest.mark.parametrize(
    "arg", [pytest.param(arg, id=f"{arg.name}-{index}") for index, arg in enumerate(CHOICES)]
)
def test_numpy_str_gives_the_result_of_the_equal_str(arg):
    assert arg.call(np.str_(arg.base)) == arg.call(arg.base)


@pytest.mark.parametrize(
    "arg", [pytest.param(arg, id=f"{arg.name}-{index}") for index, arg in enumerate(FLAGS)]
)
def test_numpy_bool_gives_the_result_of_the_equal_bool(arg):
    for value in (False, True):
        assert arg.call(np.bool_(value)) == arg.call(value)


def test_stored_choices_are_plain_str():
    assert type(ErrorProcess(np.str_("ar1"), 0.5).family) is str
    assert type(make_availability(np.str_("constant"), 0.6, TINY).kind) is str
    assert type(EffectPath(np.str_("explicit"), np.zeros(TINY.T)).form) is str


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("bad", [{"gram": "mean"}, {"adjusted": "no"}], ids=["gram", "adjusted"])
def test_monte_carlo_refuses_before_generating(monkeypatch, bad, threads):
    calls = []
    engine = simulate._generate

    def counting(model, streams, *args):
        calls.append(len(streams))
        return engine(model, streams, *args)

    monkeypatch.setattr(simulate, "_generate", counting)
    with pytest.raises(ConfigError, match=f"^{next(iter(bad))} must be"):
        monte_carlo(WORKING, 10, 3, 0.05, seed=5, threads=threads, **bad)
    assert calls == []


# -- the Hotelling critical value and the scalar kernels --------------------


@pytest.mark.parametrize(
    "alpha0,message",
    [
        (0.7, "alpha0 must be a number in (0, 0.5), got 0.7"),
        ("0.05", "alpha0 must be a number, got '0.05'"),
        (True, "alpha0 must be a number, got True"),
        (1e-17, "alpha0 must leave 1 - alpha0 below 1.0 in double precision, got 1e-17"),
    ],
    ids=["0.7", "string", "bool", "rounds-to-one"],
)
def test_hotelling_critical_reads_alpha0_by_the_level_rule(alpha0, message):
    with pytest.raises(ConfigError) as info:
        hotelling_critical(3, 3, 42, alpha0)
    assert str(info.value) == message


def test_hotelling_critical_refuses_n_at_p_plus_q():
    with pytest.raises(ConfigError, match=r"^n must be an integer >= 7, got 6$"):
        hotelling_critical(3, 3, 6, 0.05)
    assert hotelling_critical(3, 3, 7, 0.05) > 0.0


KERNEL_REFUSED = {"string": "0.5", "bool": True, "nan": math.nan, "inf": math.inf}


@pytest.mark.parametrize("kind", KERNEL_REFUSED)
@pytest.mark.parametrize(
    "name,call",
    [
        ("x", ln_gamma),
        ("a", lambda v: reg_inc_beta(v, 2.0, 0.5)),
        ("b", lambda v: reg_inc_beta(2.0, v, 0.5)),
        ("x", lambda v: reg_inc_beta(2.0, 2.0, v)),
    ],
    ids=["ln_gamma-x", "reg_inc_beta-a", "reg_inc_beta-b", "reg_inc_beta-x"],
)
def test_kernels_read_reals_by_the_real_rule(name, call, kind):
    with pytest.raises(ConfigError) as info:
        call(KERNEL_REFUSED[kind])
    assert str(info.value).startswith(f"{name} must be a number"), str(info.value)


# -- the config reader shares the rules --------------------------------------


def _tiny_config(**overrides):
    doc = {
        "design": {"days": 3, "decisions_per_day": 4, "rho": 0.4},
        "availability": {"kind": "constant", "average": 0.6},
        "effect": {"form": "quadratic", "initial": 0.0, "average": 0.3, "max_day": 2},
        "errors": {"family": "iid-normal"},
        "scenario": {"name": "working-true"},
        "n": 9,
        "alpha0": 0.05,
        "reps": 4,
    }
    for path, value in overrides.items():
        section, _, key = path.rpartition(".")
        (doc[section] if section else doc)[key] = value
    return doc


@pytest.mark.parametrize(
    "path,value,message",
    [
        ("gram", "mean", "gram must be one of summed, averaged; got 'mean'"),
        ("adjusted", "yes", "adjusted must be true or false, got 'yes'"),
        ("adjusted", 1, "adjusted must be true or false, got 1"),
        ("availability.kind", "Constant",
         "availability.kind must be one of constant, linear, weekly-periodic, piecewise; "
         "got 'Constant'"),
        ("availability.kind", ["constant"],
         "availability.kind must be a string, got ['constant']"),
        ("errors.family", "gauss",
         "errors.family must be one of iid-normal, iid-t3-scaled, iid-exp-centered, ar1, "
         "ar5; got 'gauss'"),
        ("scenario.name", 7, "scenario.name must be a string, got 7"),
        ("effect.form", None, "effect.form must be a string, got None"),
    ],
    ids=["gram", "adjusted", "adjusted-int", "kind-case", "kind-list", "family", "scenario",
         "form"],
)
def test_config_choice_and_flag_keys_follow_the_rules(tmp_path, path, value, message):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_tiny_config(**{path: value})))
    res = CliRunner().invoke(main, ["simulate", str(config)])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"
