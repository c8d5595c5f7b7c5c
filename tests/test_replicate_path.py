"""
A Monte Carlo replicate hands the engine's arrays to the test without
building a ``Dataset``.  Its outcome must equal ``hypothesis_test`` on the
dataset ``generate_dataset`` gives for that replicate, a non-finite outcome
must raise the ``Dataset`` error, and ``each_dataset`` must still receive a
validated, read-only ``Dataset``.
"""

import numpy as np
import pytest

from mrtpower import ConfigError
from mrtpower.design import (
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.estimator import Dataset, hypothesis_test
from mrtpower.simulate import ErrorProcess, GenerativeModel, generate_dataset, monte_carlo

DESIGN = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
EFFECT = elicit_quadratic_effect(0.0, 0.3, 2, DESIGN)
TAU = make_availability("constant", 0.6, DESIGN)
NONFINITE = "missing or non-finite outcome at an available decision time"


def huge_noise_model():
    # sigma * eps overflows to +-inf for |eps| > 1.06
    return GenerativeModel("working-true", DESIGN, EFFECT, TAU, ErrorProcess("iid-normal"),
                           sigma1=np.full(DESIGN.T, 1.7e308), sigma0=np.full(DESIGN.T, 1.7e308))


def test_replicate_outcomes_equal_hypothesis_test_on_each_dataset():
    model = GenerativeModel.working_true(DESIGN, EFFECT, TAU, ErrorProcess("ar1", 0.6))
    features = build_quadratic_features(DESIGN)
    report = monte_carlo(model, 10, 40, 0.05, seed=7)
    results = [hypothesis_test(generate_dataset(model, 10, seed=7, replicate=r), features, 0.05)
               for r in range(40)]
    assert report.failures == 0
    assert report.rejections == sum(result.reject for result in results)
    assert 0 < report.rejections < 40  # both outcomes are compared


def test_nonfinite_outcome_is_the_dataset_error():
    model = huge_noise_model()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigError) as from_dataset:
            generate_dataset(model, 10, seed=7)
        with pytest.raises(ConfigError) as from_replicate:
            monte_carlo(model, 10, 3, 0.05, seed=7)
        with pytest.raises(ConfigError) as from_hooked:
            monte_carlo(model, 10, 3, 0.05, seed=7, each_dataset=lambda r, d: None)
    assert str(from_dataset.value) == str(from_replicate.value) == NONFINITE
    assert str(from_hooked.value) == NONFINITE


def test_each_dataset_receives_a_validated_read_only_dataset():
    model = GenerativeModel.availability_feedback(
        DESIGN, EFFECT, TAU, ErrorProcess("iid-normal"), eta=-0.2)
    seen = {}
    monte_carlo(model, 10, 4, 0.05, seed=7, each_dataset=seen.__setitem__)
    assert sorted(seen) == [0, 1, 2, 3]
    for replicate, dataset in seen.items():
        assert type(dataset) is Dataset
        assert dataset == generate_dataset(model, 10, seed=7, replicate=replicate)
        for name in ("avail", "action", "prob", "outcome"):
            assert not getattr(dataset, name).flags.writeable, name
        assert dataset.avail.dtype == dataset.action.dtype == np.int8
