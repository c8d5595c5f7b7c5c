"""
The one real-array rule, ``design._real_array``, at every array argument it
guards, and the copy rule of ``design._freeze``.

A real array argument (a design's rho, feature and availability paths, an
effect path or its coefficients, a dataset's probabilities and outcomes, a
generative model's mean and noise paths, ``project_effect``'s path, the
availability and randomization probabilities that ``compute_q_matrix``,
``project_effect`` and ``asymptotic_targets`` weight by) accepts
anything numpy reads as real numbers, and refuses strings, bytes, Python
objects and complex numbers, numeric strings such as "0.4" included, with a
ConfigError naming the argument; those three also refuse a tau or rho of
another length than the features', and ``asymptotic_targets`` also its
``alpha_path`` and ``beta_path`` (the generative model's mean and effect
paths, which it projects).  The value types keep a copy of a caller's
writable array and leave that array writable.
"""

from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from mrtpower import ConfigError
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


def _model(**paths):
    return GenerativeModel(
        scenario="working-true", design=TINY, effect=EFFECT, tau=TAU,
        errors=ErrorProcess("iid-normal"), **paths,
    )


class Argument(NamedTuple):
    """One routed argument: its name, a valid value, and a call that uses it."""

    name: str
    value: np.ndarray
    call: Callable


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
    Argument("prob", np.full(SHAPE, 0.4), lambda v: _dataset(prob=v)),
    Argument("outcome", np.zeros(SHAPE), lambda v: _dataset(outcome=v)),
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
]

REFUSED = {
    "numeric strings": ("strings", lambda a: a.astype(str).tolist()),
    "string array": ("strings", lambda a: a.astype(str)),
    "bytes array": ("bytes", lambda a: a.astype(bytes)),
    "object array": ("Python objects", lambda a: a.astype(object)),
    "complex array": ("complex numbers", lambda a: a.astype(complex)),
}
CASES = [(index, kind) for index in range(len(ARGUMENTS)) for kind in REFUSED]


@pytest.mark.parametrize(
    "index,kind", CASES, ids=[f"{ARGUMENTS[i].name}-{i}-{kind}" for i, kind in CASES]
)
def test_every_real_array_argument_follows_one_rule(index, kind):
    arg = ARGUMENTS[index]
    arg.call(arg.value)  # the numbers themselves are accepted
    what, convert = REFUSED[kind]
    with pytest.raises(ConfigError, match=f"^{arg.name} must hold numbers, got {what}$"):
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
         "availability and feature path lengths differ"),
        (lambda: project_effect(np.zeros(16), TAU, LONG_FEATURES, 0.4),
         "availability and feature path lengths differ"),
        (lambda: _targets(features=LONG_FEATURES), "availability and feature path lengths differ"),
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
