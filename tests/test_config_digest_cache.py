"""
``config_digest`` encodes each generative model's description once per model
instance, and still digests the same bytes as encoding the whole payload.

The oracle below is the digest's definition: sha256 of the sorted, compact
JSON of the full payload, the model entering as ``model.describe()``.  It
must hold on a repeated call, on the new instances that
``calibrate_sigma_star`` and ``dataclasses.replace`` return, and on a pickled
copy, which is rebuilt through the constructor and so carries no encoded
text until a digest is asked of it.
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from mrtpower.simulate import (
    SCENARIOS,
    GenerativeModel,
    calibrate_sigma_star,
    config_digest,
    monte_carlo,
)
from test_generation_digests import DESIGN, EFFECT, TAU, _model, _process

ARGS = (40, 200, 0.05, True, "summed", 11)
CACHED = "_description_json"


def _oracle(model, n, reps, alpha0, adjusted, gram, seed):
    payload = {
        "model": model.describe(), "n": n, "reps": reps, "alpha0": alpha0,
        "adjusted": adjusted, "gram": gram, "seed": seed,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@pytest.fixture(params=SCENARIOS)
def model(request):
    return _model(request.param, "ar1")


def test_a_repeated_call_gives_the_oracle(model):
    assert CACHED not in model.__dict__
    first = config_digest(model, *ARGS)
    assert first == _oracle(model, *ARGS)
    assert CACHED in model.__dict__
    assert config_digest(model, *ARGS) == first
    other = (41, 3, 0.01, False, "averaged", 0)
    assert config_digest(model, *other) == _oracle(model, *other)


def test_a_replaced_model_is_digested_afresh(model):
    config_digest(model, *ARGS)
    same = dataclasses.replace(model)
    assert CACHED not in same.__dict__
    assert config_digest(same, *ARGS) == config_digest(model, *ARGS)
    moved = dataclasses.replace(model, alpha_path=model.alpha_path + 1.0)
    assert config_digest(moved, *ARGS) == _oracle(moved, *ARGS)
    assert config_digest(moved, *ARGS) != config_digest(model, *ARGS)


def test_a_pickled_copy_carries_no_text(model):
    config_digest(model, *ARGS)
    copy = pickle.loads(pickle.dumps(model))
    assert CACHED not in copy.__dict__
    assert config_digest(copy, *ARGS) == config_digest(model, *ARGS)
    assert CACHED in copy.__dict__


def test_a_calibrated_model_is_digested_afresh():
    raw = GenerativeModel.treatment_feedback(
        DESIGN, EFFECT, TAU, _process("ar1"), eta1=-0.1, eta2=-0.1, gamma1=-0.5, gamma2=-0.2
    )
    before = config_digest(raw, *ARGS)
    assert before == _oracle(raw, *ARGS)
    calibrated = calibrate_sigma_star(raw, reps=400, seed=3)
    assert CACHED not in calibrated.__dict__
    assert config_digest(calibrated, *ARGS) == _oracle(calibrated, *ARGS)
    assert config_digest(calibrated, *ARGS) != before
    again = calibrate_sigma_star(calibrated, reps=400, seed=4)
    assert config_digest(again, *ARGS) == _oracle(again, *ARGS)
    assert config_digest(again, *ARGS) != config_digest(calibrated, *ARGS)


def test_two_workers_report_what_one_does(model):
    one = monte_carlo(model, 8, 4, 0.05, seed=5, threads=1)
    two = monte_carlo(model, 8, 4, 0.05, seed=5, threads=2)
    assert json.dumps(two.to_dict()) == json.dumps(one.to_dict())
    assert one.config_digest == _oracle(model, 8, 4, 0.05, True, "summed", 5)
