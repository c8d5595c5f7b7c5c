"""
The one real-number rule, ``design._real``, at every argument it guards.

A real argument (a level, a power target, an elicited effect, an
availability average or amplitude, an AR strength, a scenario parameter,
sigma*)
accepts any ``numbers.Real`` but a bool, numpy scalars included, each giving
the same result as the equal Python float.  NaN, an infinity, a bool, a
numeric string, an integer too large for a float and a value outside the
argument's range raise ConfigError naming the argument.

The holes the rule closes end in one of the package's errors too: a
non-finite effect path, an infinite or NaN noncentrality and a NaN sigma*,
none of them after a numpy warning.  The F functions read x, prob and lam by
the rule as well, where x = +inf (probability 1) and lam = +inf (refused by
ncf_cdf with NumericError) still pass.
"""

import dataclasses
import json
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner

from mrtpower import ConfigError, NumericError, estimator
from mrtpower.cli import main
from mrtpower.design import (
    AvailabilityPattern,
    EffectPath,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
    project_effect,
)
from mrtpower.distributions import FDistParams, f_cdf, f_quantile, ncf_cdf
from mrtpower.estimator import hypothesis_test
from mrtpower.samplesize import SampleSizeResult, SizingInputs, power
from mrtpower.simulate import (
    ErrorProcess,
    GenerativeModel,
    calibrate_sigma_star,
    generate_dataset,
    monte_carlo,
    shaped_effect,
)

TINY = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
_TINY_ARGS = (
    TINY,
    elicit_quadratic_effect(0.0, 0.3, 2, TINY),
    make_availability("constant", 0.6, TINY),
    ErrorProcess("iid-normal"),
)
WORKING = GenerativeModel.working_true(*_TINY_ARGS)
TINY_DATA = generate_dataset(WORKING, 20, seed=1)
SIX_WEEKS = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
_SIZING = dict(
    design=SIX_WEEKS,
    features=build_quadratic_features(SIX_WEEKS),
    tau=make_availability("constant", 0.5, SIX_WEEKS),
    effect=elicit_quadratic_effect(0.0, 0.1, 29, SIX_WEEKS),
)


def _sizing(alpha0=0.05, target=0.8):
    return repr(power(42, SizingInputs(**_SIZING, alpha0=alpha0, power_target=target)))


def _model(model):
    return json.dumps(model.describe())


def _test(alpha0):
    result = hypothesis_test(TINY_DATA, build_quadratic_features(TINY), alpha0)
    return repr((result.statistic, result.critical_value, result.p_value, result.alpha0))


def _sample_size(**fields):
    base = dict(n=42, c_n=12.0, achieved_power=0.81, power_at_n_minus_1=0.79, power_target=0.8)
    return repr(SampleSizeResult(**{**base, **fields}))


def _test_result(**fields):
    base = dict(beta_hat=np.zeros(3), sigma_beta_hat=np.eye(3), statistic=1.0,
                critical_value=8.0, p_value=0.3, reject=False, adjustment="none", n=42,
                alpha0=0.05)
    return repr(estimator.TestResult(**{**base, **fields}))


def _feedback(**params):
    base = dict(eta1=0.1, eta2=0.1, gamma1=0.1, gamma2=0.1)
    return _model(GenerativeModel.treatment_feedback(*_TINY_ARGS, **{**base, **params}))


class Argument(NamedTuple):
    """One routed argument: its name, valid values, and a call that uses it."""

    name: str
    base: float
    call: Callable
    # an integral value in range, for the numpy-integer case (None: there is none)
    integral: int = None
    # a finite value out of range (None: every finite value is in range)
    outside: float = None


ARGUMENTS = [
    Argument(
        "target_average", 0.5,
        lambda v: make_availability("constant", v, TINY).tau.tobytes(), 1, 1.5,
    ),
    Argument(
        "amplitude", 0.2,
        lambda v: make_availability("linear", 0.5, TINY, amplitude=v).tau.tobytes(), 0,
    ),
    Argument(
        "initial", -0.5, lambda v: elicit_quadratic_effect(v, 0.3, 2, TINY).path.tobytes(), 0,
    ),
    Argument("average", 0.3, lambda v: elicit_quadratic_effect(0.0, v, 2, TINY).path.tobytes(), 1),
    Argument("alpha0", 0.05, lambda v: _sizing(alpha0=v), None, 0.7),
    Argument(
        "alpha0", 0.05,
        lambda v: json.dumps(monte_carlo(WORKING, 10, 3, v, seed=5).to_dict()), None, 0.5,
    ),
    Argument("power target", 0.8, lambda v: _sizing(target=v), None, 0.01),
    Argument("phi", 0.5, lambda v: repr(ErrorProcess("ar1", v)), 0, 1.0),
    Argument("phi", -0.5, lambda v: repr(ErrorProcess("ar5", v)), 0, -1.0),
    Argument("phi", 0.0, lambda v: repr(ErrorProcess("iid-normal", v)), 0),
    Argument("average", 0.3, lambda v: shaped_effect(TINY, v, 2, 0.5).path.tobytes(), 1),
    Argument(
        "plateau_fraction", 0.5, lambda v: shaped_effect(TINY, 0.3, 2, v).path.tobytes(), 1, 1.5,
    ),
    Argument(
        "variance_ratio", 1.5,
        lambda v: _model(GenerativeModel.heteroscedastic(
            *_TINY_ARGS, variance_ratio=v, variance_trend="increasing")),
        2, 0.0,
    ),
    Argument(
        "theta", 0.5, lambda v: _model(GenerativeModel.weekend_mean(*_TINY_ARGS, theta=v)), 1,
    ),
    Argument(
        "eta", -0.5,
        lambda v: _model(GenerativeModel.availability_feedback(*_TINY_ARGS, eta=v)), -1,
    ),
    Argument("eta1", 0.5, lambda v: _feedback(eta1=v), 0),
    Argument("eta2", 0.5, lambda v: _feedback(eta2=v), 0),
    Argument("gamma1", 0.5, lambda v: _feedback(gamma1=v), 0),
    Argument("gamma2", 0.5, lambda v: _feedback(gamma2=v), 0),
    Argument("alpha0", 0.05, _test, None, 0.7),
    Argument(
        "target_average", 0.5,
        lambda v: repr(AvailabilityPattern(np.full(TINY.T, 0.5), "constant", v)), None, 1.5,
    ),
    Argument("sigma_star", 0.5, lambda v: _model(dataclasses.replace(WORKING, sigma_star=v)),
             1, 0.0),
    Argument("c_n", 12.0, lambda v: _sample_size(c_n=v), 12, -1.0),
    Argument("achieved_power", 0.81, lambda v: _sample_size(achieved_power=v), 1, 1.5),
    Argument("power_at_n_minus_1", 0.79, lambda v: _sample_size(power_at_n_minus_1=v), 0, -0.5),
    Argument("power_target", 0.8, lambda v: _sample_size(power_target=v), 1, 1.5),
    Argument("statistic", 1.0, lambda v: _test_result(statistic=v), 1),
    Argument("critical_value", 8.0, lambda v: _test_result(critical_value=v), 8, 0.0),
    Argument("p_value", 0.3, lambda v: _test_result(p_value=v), 1, 2.0),
    Argument("alpha0", 0.05, lambda v: _test_result(alpha0=v), None, 0.7),
]

REFUSED = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "numpy nan": np.float64("nan"),
    "bool": True,
    "numeric string": "0.5",
    "integer too large for a float": 10**400,
}


def _ids(cases):
    return [f"{ARGUMENTS[index].name}-{index}-{kind}" for index, kind in cases]


ACCEPTED_CASES = [
    (index, kind)
    for index, arg in enumerate(ARGUMENTS)
    for kind in ("numpy float32", "numpy int64")
    if kind == "numpy float32" or arg.integral is not None
]
REFUSED_CASES = [
    (index, kind)
    for index, arg in enumerate(ARGUMENTS)
    for kind in (*REFUSED, "out of range")
    if kind != "out of range" or arg.outside is not None
]


@pytest.mark.parametrize("index,kind", ACCEPTED_CASES, ids=_ids(ACCEPTED_CASES))
def test_numpy_scalars_give_the_result_of_the_equal_float(index, kind):
    arg = ARGUMENTS[index]
    value = np.float32(arg.base) if kind == "numpy float32" else np.int64(arg.integral)
    assert arg.call(value) == arg.call(float(value))


@pytest.mark.parametrize("index,kind", REFUSED_CASES, ids=_ids(REFUSED_CASES))
def test_every_real_argument_follows_one_rule(index, kind):
    arg = ARGUMENTS[index]
    value = arg.outside if kind == "out of range" else REFUSED[kind]
    with pytest.raises(ConfigError) as info:
        arg.call(value)
    assert str(info.value).startswith(f"{arg.name} must be a number"), str(info.value)


def test_monte_carlo_refuses_alpha0_before_generating():
    seen = []
    for alpha0 in (math.nan, 0.7):
        with pytest.raises(ConfigError, match="^alpha0 must be a number"):
            monte_carlo(WORKING, 10, 3, alpha0, seed=5,
                        each_dataset=lambda replicate, dataset: seen.append(replicate))
    assert seen == []


# -- non-finite effect paths -------------------------------------------


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: EffectPath.explicit([math.nan] * SIX_WEEKS.T),
         "every entry of path must be a number, got nan"),
        (lambda: EffectPath.explicit([math.inf] * SIX_WEEKS.T),
         "every entry of path must be a number, got inf"),
        (lambda: EffectPath.quadratic([0.0, math.inf, 0.0], SIX_WEEKS),
         "every entry of coeffs must be a number, got inf"),
        (lambda: project_effect(
            np.full(SIX_WEEKS.T, math.nan), _SIZING["tau"], _SIZING["features"], SIX_WEEKS.rho
        ), "every entry of path must be a number, got nan"),
        # the plateau rescale overflows to inf, and inf * 0 is NaN
        (lambda: shaped_effect(SIX_WEEKS, 1e308, 10, 0.0),
         "every entry of path must be a number, got nan"),
    ],
    ids=["explicit-nan", "explicit-inf", "quadratic-inf", "projected-nan", "shaped-overflow"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_effect_path_is_config_error(build, message):
    with pytest.raises(ConfigError) as info:
        build()
    assert str(info.value) == message


# -- infinite noncentrality ----------------------------------------------


def test_infinite_noncentrality_is_numeric_error():
    # lam = +inf builds, for ncf_cdf to refuse; x = +inf is the whole distribution
    for inf in (math.inf, np.float64("inf"), np.float32("inf")):
        with pytest.raises(NumericError, match="noncentrality is infinite"):
            ncf_cdf(1.0, FDistParams(3, 10, inf))
        assert ncf_cdf(inf, FDistParams(3, 10, 2.0)) == 1.0
        assert f_cdf(inf, FDistParams(3, 10)) == 1.0


def _one_error_line(res, code, start):
    # the whole of stderr: no numpy warning may precede the error line
    assert res.exit_code == code, res.output
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {start}"), res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n"), res.stderr


@pytest.mark.parametrize("command", ["size", "power"])
def test_infinite_noncentrality_exits_3(tmp_path, command):
    doc = {
        "design": {"days": 42, "decisions_per_day": 5, "rho": 0.4},
        "availability": {"kind": "constant", "average": 0.7},
        "effect": {"form": "quadratic", "initial": 0.0, "average": 1e300, "max_day": 29},
        "alpha0": 0.05,
        "power": 0.8,
    }
    if command == "power":
        doc["n"] = 42
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, [command, str(path)])
    _one_error_line(res, 3, "noncentrality is infinite")


@pytest.mark.parametrize("command", ["size", "power"])
def test_noncentrality_cancelling_to_nan_exits_3(tmp_path, command):
    # at this average d'Qd overflows with both signs, inf - inf
    doc = {
        "design": {"days": 42, "decisions_per_day": 5, "rho": 0.4},
        "availability": {"kind": "constant", "average": 0.7},
        "effect": {"form": "quadratic", "initial": 0.0, "average": 1e305, "max_day": 29},
        "alpha0": 0.05,
        "power": 0.8,
    }
    if command == "power":
        doc["n"] = 42
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, [command, str(path)])
    _one_error_line(res, 3, "noncentrality overflows")


# -- NaN sigma* ----------------------------------------------------------


_OVERFLOWING_FEEDBACK = dict(eta1=0.1, eta2=0.1, gamma1=1e300, gamma2=0.1)


def test_nan_sigma_star_is_numeric_error():
    model = GenerativeModel.treatment_feedback(*_TINY_ARGS, **_OVERFLOWING_FEEDBACK)
    with pytest.raises(NumericError, match=r"\(residual variance nan\)"):
        calibrate_sigma_star(model, reps=400, seed=1)


def test_nan_sigma_star_exits_3(tmp_path):
    doc = {
        "design": {"days": 3, "decisions_per_day": 4, "rho": 0.4},
        "availability": {"kind": "constant", "average": 0.6},
        "effect": {"form": "quadratic", "initial": 0.0, "average": 0.3, "max_day": 2},
        "scenario": {"name": "treatment-feedback", "calibration_reps": 400,
                     **_OVERFLOWING_FEEDBACK},
        "n": 9,
        "alpha0": 0.05,
        "reps": 4,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["simulate", str(path)])
    _one_error_line(res, 3, "feedback terms already exceed unit variance")


# -- the CLI reads every real key by the same rule -----------------------


@pytest.mark.parametrize(
    "section,key,text,message",
    [
        (None, "alpha0", '"0.05"', "alpha0 must be a number, got '0.05'"),
        (None, "alpha0", "NaN", "alpha0 must be a number in (0, 0.5), got nan"),
        (None, "alpha0", "Infinity", "alpha0 must be a number in (0, 0.5), got inf"),
        (None, "alpha0", "true", "alpha0 must be a number, got True"),
        ("availability", "average", "NaN",
         "availability.average must be a number in (0, 1], got nan"),
        ("effect", "average", '"0.1"', "effect.average must be a number, got '0.1'"),
        ("design", "rho", "[0.4, Infinity]", "design.rho[1] must be a number in (0, 1), got inf"),
    ],
    ids=["alpha0-string", "alpha0-nan", "alpha0-inf", "alpha0-bool", "number", "string",
         "number-list"],
)
def test_config_real_keys_follow_the_rule(tmp_path, section, key, text, message):
    doc = {
        "design": {"days": 42, "decisions_per_day": 5, "rho": 0.4},
        "availability": {"kind": "constant", "average": 0.7},
        "effect": {"form": "quadratic", "initial": 0.0, "average": 0.1, "max_day": 29},
        "alpha0": 0.05,
        "power": 0.8,
    }
    (doc[section] if section else doc)[key] = "VALUE"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc).replace('"VALUE"', text))
    res = CliRunner().invoke(main, ["size", str(path)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {message}\n"


# -- the F functions' own arguments ---------------------------------------

F_ARGUMENTS = {
    "x": [lambda v: f_cdf(v, FDistParams(3, 10)), lambda v: ncf_cdf(v, FDistParams(3, 10, 2.0))],
    "prob": [lambda v: f_quantile(v, FDistParams(3, 10))],
    "lam": [lambda v: FDistParams(3, 10, v)],
}
F_REFUSED = {
    "string": "1", "None": None, "bool": True, "nan": math.nan, "-inf": -math.inf, "negative": -1,
    "array": np.array([1.0, 2.0]),
}
F_CASES = [
    (name, index, kind)
    for name, calls in F_ARGUMENTS.items()
    for index in range(len(calls))
    for kind in F_REFUSED
]


@pytest.mark.parametrize(
    "name,index,kind", F_CASES, ids=[f"{n}-{i}-{k}" for n, i, k in F_CASES]
)
def test_f_function_arguments_follow_the_rule(name, index, kind):
    with pytest.raises(ConfigError) as info:
        F_ARGUMENTS[name][index](F_REFUSED[kind])
    assert str(info.value).startswith(f"{name} must be a number"), str(info.value)


@pytest.mark.parametrize("call", [f_cdf, f_quantile], ids=["f_cdf", "f_quantile"])
def test_central_f_functions_refuse_a_noncentrality_by_name(call):
    with pytest.raises(ConfigError, match=r"^lam must be 0 for the central F distribution, got 2\.0$"):
        call(0.5, FDistParams(3, 10, 2.0))
