"""
The one integer rule, ``design._integer``, at every argument it guards.

An integer argument (a count, a day, an index or a degree of freedom)
accepts what ``operator.index`` accepts, bools aside: Python and numpy
integers, each giving the same result as the plain int.  Every other input
-- an integral float such as 3.0, a fractional float, a bool, a numeric
string, None -- raises ConfigError naming the argument.  Nothing raises
TypeError, and nothing is truncated.

2**70 is an integer too.  Where the argument does not size an allocation
or a loop, it must give a result or one of the package's errors, never a
TypeError or an OverflowError.  Where it does (a subject count, a replicate
count, a draw size), it and the first count past what numpy can hold raise
ConfigError before anything is allocated, in the library and through the
CLI.
"""

import functools
import json
from typing import Callable, NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtpower import ConfigError, NumericError
from mrtpower.cli import main
from mrtpower.design import (
    EffectPath,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.distributions import FDistParams, hotelling_critical
from mrtpower.samplesize import SizingInputs, noncentrality, power, solve_sample_size
from mrtpower.simulate import (
    ErrorProcess,
    GenerativeModel,
    calibrate_sigma_star,
    config_digest,
    draw_errors,
    generate_dataset,
    monte_carlo,
    resolve_threads,
    shaped_effect,
    subject_stream,
)

HUGE = 2**70
NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)

TINY = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
_TINY_ARGS = (
    TINY,
    EffectPath.quadratic(np.zeros(3), TINY),
    make_availability("constant", 0.6, TINY),
    ErrorProcess("iid-normal"),
)
WORKING = GenerativeModel.working_true(*_TINY_ARGS)
FEEDBACK = GenerativeModel.treatment_feedback(
    *_TINY_ARGS, eta1=0.1, eta2=0.1, gamma1=0.1, gamma2=0.1
)
SIX_WEEKS = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
INPUTS = SizingInputs(
    design=SIX_WEEKS,
    features=build_quadratic_features(SIX_WEEKS),
    tau=make_availability("constant", 0.5, SIX_WEEKS),
    effect=elicit_quadratic_effect(0.0, 0.1, 29, SIX_WEEKS),
    alpha0=0.05,
    power_target=0.8,
)


def _data(dataset):
    return [getattr(dataset, name).tobytes() for name in ("avail", "action", "outcome")]


def _report(report):
    return json.dumps(report.to_dict())


class Argument(NamedTuple):
    """One routed argument: its name, a valid value, and a call that uses it."""

    name: str
    base: int
    call: Callable
    # 2**70 is asked only of arguments that size no allocation or loop
    huge: bool = True
    # None means "the default" for an optional argument
    optional: bool = False


ARGUMENTS = [
    Argument("days", 3, lambda v: repr(TrialDesign(v, 4, 0.4))),
    Argument("decisions_per_day", 4, lambda v: repr(TrialDesign(3, v, 0.4))),
    Argument("max_day", 2, lambda v: elicit_quadratic_effect(0.0, 0.3, v, TINY).path.tobytes()),
    Argument("max_day", 2, lambda v: shaped_effect(TINY, 0.3, v, 0.5).path.tobytes()),
    Argument(
        "break_day", 2,
        lambda v: make_availability(
            "piecewise", 0.5, TINY, amplitude=0.2, break_day=v
        ).tau.tobytes(),
        optional=True,
    ),
    Argument("n", 4, lambda v: _data(generate_dataset(WORKING, v, seed=5)), huge=False),
    Argument("seed", 5, lambda v: _data(generate_dataset(WORKING, 4, seed=v))),
    Argument("replicate", 1, lambda v: _data(generate_dataset(WORKING, 4, seed=5, replicate=v))),
    Argument("seed", 5, lambda v: subject_stream(v, 1, 2).random(3).tobytes()),
    Argument("replicate", 1, lambda v: subject_stream(5, v, 2).random(3).tobytes()),
    Argument("subject", 2, lambda v: subject_stream(5, 1, v).random(3).tobytes()),
    Argument(
        "size", 5,
        lambda v: draw_errors(ErrorProcess("ar1", 0.5), v, subject_stream(5, 1, 2)).tobytes(),
        huge=False,
    ),
    Argument("n", 10, lambda v: _report(monte_carlo(WORKING, v, 3, 0.05, seed=5)), huge=False),
    Argument("reps", 3, lambda v: _report(monte_carlo(WORKING, 10, v, 0.05, seed=5)), huge=False),
    Argument("seed", 5, lambda v: _report(monte_carlo(WORKING, 10, 3, 0.05, seed=v))),
    Argument(
        "reps", 250,
        lambda v: repr(calibrate_sigma_star(FEEDBACK, reps=v, seed=5).sigma_star),
        huge=False,
    ),
    Argument("seed", 5, lambda v: repr(calibrate_sigma_star(FEEDBACK, reps=250, seed=v).sigma_star)),
    Argument("thread count", 2, resolve_threads, optional=True),
    Argument("n", 10, lambda v: config_digest(WORKING, v, 3, 0.05, True, "summed", 5)),
    Argument("reps", 3, lambda v: config_digest(WORKING, 10, v, 0.05, True, "summed", 5)),
    Argument("seed", 5, lambda v: config_digest(WORKING, 10, 3, 0.05, True, "summed", v)),
    Argument("n", 42, lambda v: repr(noncentrality(v, INPUTS.effect, INPUTS.q_matrix))),
    Argument("n", 42, lambda v: repr(power(v, INPUTS))),
    Argument("n_cap", 1000, lambda v: repr(solve_sample_size(INPUTS, n_cap=v))),
    Argument("d1", 3, lambda v: repr(FDistParams(v, 36))),
    Argument("d2", 36, lambda v: repr(FDistParams(3, v))),
    Argument("p", 3, lambda v: repr(hotelling_critical(v, 3, 42, 0.05))),
    Argument("q", 3, lambda v: repr(hotelling_critical(3, v, 42, 0.05))),
    Argument("n", 42, lambda v: repr(hotelling_critical(3, 3, v, 0.05))),
]


ACCEPTED = ("int", "numpy int")
REFUSED = ("integral float", "fractional float", "bool", "numeric string", "None")


def _values(kind, base):
    """Strategy for the inputs of one class, around the valid value ``base``."""
    if kind == "int":
        return st.just(base)
    if kind == "numpy int":
        fits = [t for t in NUMPY_INTS if np.iinfo(t).max >= base]
        return st.sampled_from(fits).map(lambda t: t(base))
    if kind == "integral float":
        return st.sampled_from([float(base), np.float64(base), np.float32(base)])
    if kind == "fractional float":
        return st.floats(0.01, 0.99).map(lambda frac: base + frac)
    if kind == "bool":
        return st.sampled_from([True, False, np.True_])
    if kind == "numeric string":
        return st.sampled_from([str(base), f"{base}.0"])
    if kind == "None":
        return st.none()
    return st.just(HUGE)


def _cases():
    for index, arg in enumerate(ARGUMENTS):
        for kind in ACCEPTED + REFUSED + ("2**70",):
            if (kind == "None" and arg.optional) or (kind == "2**70" and not arg.huge):
                continue
            yield pytest.param(index, kind, id=f"{arg.name}-{index}-{kind}")


@functools.lru_cache(maxsize=None)
def _expected(index):
    arg = ARGUMENTS[index]
    return arg.call(arg.base)


@pytest.mark.parametrize("index,kind", _cases())
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_integer_argument_follows_one_rule(index, kind, data):
    arg = ARGUMENTS[index]
    value = data.draw(_values(kind, arg.base))
    if kind in ACCEPTED:
        assert arg.call(value) == _expected(index)
    elif kind in REFUSED:
        with pytest.raises(ConfigError) as info:
            arg.call(value)
        assert str(info.value).startswith(f"{arg.name} must be"), str(info.value)
    else:
        try:
            arg.call(value)
        except (ValueError, NumericError):  # ConfigError is a ValueError
            pass


def test_huge_seeds_are_not_reduced():
    """A seed past 2**64 keys its own stream, not the stream of its low word."""
    assert subject_stream(HUGE, 0, 0).random() != subject_stream(HUGE % 2**64, 0, 0).random()


# A subject index must fit the one uint32 word of its stream key; any other
# count must fit numpy's intp.
SUBJECT_BOUND = 2**32
COUNT_BOUND = int(np.iinfo(np.intp).max) + 1
SIZING_ARGUMENTS = [
    ("n", lambda v: generate_dataset(WORKING, v, seed=5), SUBJECT_BOUND),
    ("size", lambda v: draw_errors(ErrorProcess("ar1", 0.5), v, subject_stream(5, 1, 2)),
     COUNT_BOUND),
    ("n", lambda v: monte_carlo(WORKING, v, 3, 0.05, seed=5), SUBJECT_BOUND),
    ("reps", lambda v: monte_carlo(WORKING, 10, v, 0.05, seed=5), COUNT_BOUND),
    ("reps", lambda v: calibrate_sigma_star(FEEDBACK, reps=v, seed=5), SUBJECT_BOUND),
    ("subject", lambda v: subject_stream(5, 1, v), SUBJECT_BOUND),
]


@pytest.mark.parametrize(
    "name,call,value",
    [
        pytest.param(name, call, value, id=f"{name}-{index}-{label}")
        for index, (name, call, bound) in enumerate(SIZING_ARGUMENTS)
        for label, value in (("first-past-bound", bound), ("2**70", HUGE))
    ],
)
def test_a_count_numpy_cannot_hold_is_config_error(name, call, value):
    with pytest.raises(ConfigError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{name} must be") and message.endswith(f"got {value}"), message


def _tiny_config(**overrides):
    """A small simulate config; an override of None drops the key."""
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
    doc.update(overrides)
    return {key: value for key, value in doc.items() if value is not None}


_FEEDBACK_SCENARIO = {
    "name": "treatment-feedback", "eta1": 0.1, "eta2": 0.1, "gamma1": 0.1, "gamma2": 0.1,
}


@pytest.mark.parametrize(
    "command,doc,flags,name",
    [
        ("simulate", _tiny_config(n=HUGE), [], "n"),
        ("simulate", _tiny_config(n=SUBJECT_BOUND), [], "n"),
        ("simulate", _tiny_config(reps=HUGE), [], "reps"),
        ("simulate", _tiny_config(), ["--reps", str(HUGE)], "reps"),
        ("simulate", _tiny_config(), ["--reps", str(HUGE), "--threads", "2"], "reps"),
        (
            "simulate",
            _tiny_config(scenario={**_FEEDBACK_SCENARIO, "calibration_reps": HUGE}),
            [],
            "reps",
        ),
        ("power", _tiny_config(scenario=None, reps=HUGE), ["--mc"], "reps"),
        ("power", _tiny_config(scenario=None), ["--mc", "--reps", str(HUGE)], "reps"),
    ],
    ids=["simulate-n", "simulate-n-2**32", "simulate-reps", "simulate---reps",
         "simulate---reps-2-threads", "simulate-calibration_reps", "power-reps",
         "power---reps"],
)
def test_a_count_numpy_cannot_hold_exits_2(tmp_path, command, doc, flags, name):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, [command, str(path), *flags])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {name} must be an integer"), res.stderr
    assert len(res.stderr.splitlines()) == 1
