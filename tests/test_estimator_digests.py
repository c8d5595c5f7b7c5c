"""
Golden sha256 digests of the hypothesis test's outputs.

The three variance routes (adjusted with the "summed" or the "averaged"
Gram, and unadjusted) must keep their output bits through any rewrite of the
estimator.  Each digest covers every value of ``TestResult.to_dict()``
(floats as ``float.hex``) and the bytes of ``sigma_beta_hat`` for one seeded
dataset at T = 210.
"""

import hashlib

import numpy as np
import pytest

from mrtpower.design import (
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.estimator import hypothesis_test
from mrtpower.simulate import ErrorProcess, GenerativeModel, generate_dataset

SEED = 2718
DESIGN = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
FEATURES = build_quadratic_features(DESIGN)
EFFECT = elicit_quadratic_effect(0.0, 0.1, 28, DESIGN)
TAU = make_availability("constant", 0.5, DESIGN)


def _flatten(value):
    if isinstance(value, list):
        return ",".join(_flatten(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _result_digest(family, n, adjusted, gram="summed"):
    errors = ErrorProcess(family, 0.5 if family == "ar1" else 0.0)
    model = GenerativeModel.working_true(DESIGN, EFFECT, TAU, errors)
    data = generate_dataset(model, n, seed=SEED, replicate=1)
    result = hypothesis_test(data, FEATURES, 0.05, adjusted=adjusted, gram=gram)
    h = hashlib.sha256()
    for key, value in sorted(result.to_dict().items()):
        h.update(f"{key}={_flatten(value)};".encode())
    h.update(np.ascontiguousarray(result.sigma_beta_hat).tobytes())
    return h.hexdigest()


DIGESTS = {
    ("iid-normal", 42, True): "7f8714e71371048a88bc6792e7f80bc98fe5511ed7c79c41ba7368d4aa71b0ab",
    ("iid-normal", 42, False): "9431519a992db50a375856a3643fefb58735dd3463558ccede3f6d009af0baae",
    ("ar1", 400, True): "d6886c0b554d16a2033de302fdec13df66acde32eb45cddfea1f7bb921e0b17e",
    ("ar1", 400, False): "09ad5e7b7ec623fe9781d7e9d6c1900199d4e89c08a2a1c6eb798eff413609cd",
    ("iid-normal", 8, True): "37fee6499fdabc6f504eda5bbd1fef9188b5c0dd192353c8e5eb85059b0674d4",
    ("iid-normal", 8, False): "cdfaa0375f9ce4fc44755b2472b149f81625bfaf5001c755f7cd3084c9b17132",
}


@pytest.mark.parametrize("family,n,adjusted", list(DIGESTS))
def test_hypothesis_test_digest(family, n, adjusted):
    assert _result_digest(family, n, adjusted) == DIGESTS[(family, n, adjusted)]


AVERAGED_GRAM_DIGESTS = {
    ("iid-normal", 42): "4d51d83c72a03d26760a3e040c6ebdc6d89b3b104c5a67ea91e401873839e5f2",
    ("ar1", 400): "1a64c559533726a008e067c4ebd03d90a707ce0eb10838e746a7903432fd9bdb",
}


@pytest.mark.parametrize("family,n", list(AVERAGED_GRAM_DIGESTS))
def test_averaged_gram_digest(family, n):
    digest = _result_digest(family, n, True, gram="averaged")
    assert digest == AVERAGED_GRAM_DIGESTS[(family, n)]
