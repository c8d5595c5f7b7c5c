"""
Golden sha256 digests of generated data.

The generator's outputs are fixed by the per-(replicate, subject) streams and
the draw order, so any rewrite of the generation code must reproduce them
bit for bit.  Each digest covers the bytes, dtype and shape of every array
that a seeded call returns; the values below were recorded from the scalar
per-subject generator and hold for every later implementation.
"""

import hashlib

import numpy as np
import pytest

from mrtpower.design import TrialDesign, elicit_quadratic_effect, make_availability
from mrtpower.simulate import (
    ERROR_FAMILIES,
    ErrorProcess,
    GenerativeModel,
    calibrate_sigma_star,
    draw_errors,
    generate_dataset,
    generate_subject,
    shaped_effect,
    subject_stream,
)

SEED = 314
N_SUBJECTS = 6
REPLICATE = 2
CALIBRATION_REPS = 400  # six full blocks of 64 and a partial one

# Eight days of three decisions (T = 24 > the five feedback lags), with a
# weekend in the grid and time-varying availability.
DESIGN = TrialDesign(days=8, decisions_per_day=3, rho=0.4)
TAU = make_availability("linear", 0.5, DESIGN, amplitude=0.2)
EFFECT = elicit_quadratic_effect(0.0, 0.1, 5, DESIGN)
PHI = {"ar1": 0.6, "ar5": -0.6}


def _process(family):
    return ErrorProcess(family, PHI.get(family, 0.0))


def _model(scenario, family):
    errors = _process(family)
    if scenario == "working-true":
        return GenerativeModel.working_true(DESIGN, EFFECT, TAU, errors)
    if scenario == "weekend-mean":
        return GenerativeModel.weekend_mean(DESIGN, EFFECT, TAU, errors, theta=0.5)
    if scenario == "nonquadratic-effect":
        shaped = shaped_effect(DESIGN, 0.1, 5, 0.5)
        return GenerativeModel.nonquadratic_effect(DESIGN, shaped, TAU, errors)
    if scenario == "heteroscedastic":
        return GenerativeModel.heteroscedastic(
            DESIGN, EFFECT, TAU, errors, variance_ratio=0.8, variance_trend="weekend"
        )
    if scenario == "availability-feedback":
        return GenerativeModel.availability_feedback(DESIGN, EFFECT, TAU, errors, eta=-0.2)
    model = GenerativeModel.treatment_feedback(
        DESIGN, EFFECT, TAU, errors, eta1=-0.1, eta2=-0.1, gamma1=-0.5, gamma2=-0.2
    )
    return calibrate_sigma_star(model, reps=CALIBRATION_REPS, seed=SEED)


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _dataset_digest(scenario, family):
    data = generate_dataset(
        _model(scenario, family), N_SUBJECTS, seed=SEED, replicate=REPLICATE
    )
    return _digest(data.avail, data.action, data.prob, data.outcome)


DATASET_DIGESTS = {
    ("working-true", "iid-normal"): "5a348798dd691c45a5feb6883974cd9bdb02856c5d1a5df6c2d74b3bc3ab5d6d",
    ("working-true", "iid-t3-scaled"): "cfffd3591065b31527a5d265be226944c986d0efbfec206c2daf560361b7a5e1",
    ("working-true", "iid-exp-centered"): "0bddb38ec28d293ecd410a8efb528abb673f84cbe6845d5ebbe7775ea2215069",
    ("working-true", "ar1"): "c3b95190de0a1360f318be6f730f0a4e1248e8b66828bdf4fc63fa5c5d43d2de",
    ("working-true", "ar5"): "473aca6d2a8c41f75430c145c9c7ec833ee64ea3899f2e54c58ae9e9077f6871",
    ("weekend-mean", "iid-normal"): "a3b0b869d7a3a00efc0095fe10ea0748dd497f2d9341edb963ae0f7d6beea1fe",
    ("weekend-mean", "iid-t3-scaled"): "311818d1a0b09cd859d9a617c05c39d6c4978938bc7736fd75c73ab44eac17f3",
    ("weekend-mean", "iid-exp-centered"): "98f0e07b34c110899c0724048ae074c534a43dbb33d6107d603f787c704aaeab",
    ("weekend-mean", "ar1"): "befb120b5a5891f26e698651766fef1475d0a1a78c60acea4ff7e56bd8cb1440",
    ("weekend-mean", "ar5"): "3a271c9ad4d971fb70e721bea812bad0f20807ab0cdd50b35c0a22be690b7bd1",
    ("nonquadratic-effect", "iid-normal"): "2767b9b363d70ff93bbe843e3858b615cd0ae0db1cc800fe562b0ec4341d2fdd",
    ("nonquadratic-effect", "iid-t3-scaled"): "0dac4090ba8a299997806a43ef19dddee13362341e9ac82635c073e86dea17ea",
    ("nonquadratic-effect", "iid-exp-centered"): "649b43de455cdeb45e0c8caa351dac6ead6c7a1fdaef44153c2d3ddb45718f9d",
    ("nonquadratic-effect", "ar1"): "202e3989585ec6b41bf5f1da1374816120f5090bd3902be1571ed499cca11f04",
    ("nonquadratic-effect", "ar5"): "367794470c86d4af5df096df50f45fa935c2017486bfa805ca7601902308af2a",
    ("heteroscedastic", "iid-normal"): "8289e666fbf157639251489e78528e67a89aaf91facb31628045172fcf637f52",
    ("heteroscedastic", "iid-t3-scaled"): "d7207ac190803e89deb592b9468d498410098ad2eaf1c3750fce41e7a1cd960b",
    ("heteroscedastic", "iid-exp-centered"): "f58fe871a631392e2c8b9c8f7a84c7c51daa3214c2c6bbfe1319d7c8c8dbea62",
    ("heteroscedastic", "ar1"): "99fe6447bc20175107c453be717f22ef446af1a8fef5165b8463057e1b99e672",
    ("heteroscedastic", "ar5"): "acaa25a07a048ba8b14d5520829271c73061463ebe86724bb9d761e96765630c",
    ("availability-feedback", "iid-normal"): "fb7edc021bb6a3aba2a7ec5120270624a169ab664acc755ec439525443af4621",
    ("availability-feedback", "iid-t3-scaled"): "892b56fe96408e8ea8f2c93381878637a965735b175953d40c425374ad746bb5",
    ("availability-feedback", "iid-exp-centered"): "1256b7accba7f035d162e9350a1416a6952c696594811944dc749323f120f6d5",
    ("availability-feedback", "ar1"): "6366a73777c994202a8f6246c68b42612b47bd24bed3815466207a06ca49247d",
    ("availability-feedback", "ar5"): "b195aa1cc43dc57a8aeecf1d78feb971011a14c88ea201cfef50630a22525bbb",
    ("treatment-feedback", "iid-normal"): "431d2615cde97c3ce5eb0f13a8375400ee60bfe37dbbe0050c763e735657910a",
    ("treatment-feedback", "iid-t3-scaled"): "b5624b6a0e51ec25ae7678d355cb9a30d41ac36b9d2b9a8b97a1a6b44a087910",
    ("treatment-feedback", "ar1"): "2e7ebc9fdbaa245bee8ecc94e3601c85af4d3190869eda0f52497ea534ef8450",
    ("treatment-feedback", "ar5"): "5fef2120f6726c4edb9f8ecd17300166ba8d627d1b8dfe38cad62804a0263ef6",
}

CALIBRATION_DIGEST = "28ea13d4c90d25a59aca0ee7748ee2f657fea17cc1b994b0ce56a9516925dd1d"

NOISE_DIGESTS = {
    "iid-normal": "bc9ed9df4df08cc8245cc1245374ce91f7aeb9e5717197436c2f4fe29f6b2e82",
    "iid-t3-scaled": "765376473ac53bfe2b10ee32bb82094c026b99761a0ce392ae29e50c5c649552",
    "iid-exp-centered": "3edcfb3912b0c49eaa8794c1e72801b38d38cbb83101e60254eadf9a91d2b10d",
    "ar1": "8817685af17fceebe6b08cba8f409a6e79119da034ec8599cf8b83ebfb83dbe5",
    "ar5": "e268d4851290e5e7ca1f1125ab7c0031eaf965b2e3efce7700fbcd155fe94523",
}

CASES = [
    (scenario, family)
    for scenario in (
        "working-true",
        "weekend-mean",
        "nonquadratic-effect",
        "heteroscedastic",
        "availability-feedback",
        "treatment-feedback",
    )
    for family in ERROR_FAMILIES
    if not (scenario == "treatment-feedback" and family == "iid-exp-centered")
]


@pytest.mark.parametrize("scenario,family", CASES)
def test_dataset_digest(scenario, family):
    assert _dataset_digest(scenario, family) == DATASET_DIGESTS[(scenario, family)]


def test_calibration_digest():
    model = _model("treatment-feedback", "ar5")
    assert _digest(model.c_mean_avail, np.float64(model.sigma_star)) == CALIBRATION_DIGEST


@pytest.mark.parametrize("family", ERROR_FAMILIES)
def test_noise_digest(family):
    noise = draw_errors(_process(family), 50, subject_stream(SEED, 0, 0))
    assert _digest(noise) == NOISE_DIGESTS[family]


@pytest.mark.parametrize("scenario,family", CASES)
def test_subjects_are_dataset_rows(scenario, family):
    model = _model(scenario, family)
    data = generate_dataset(model, N_SUBJECTS, seed=SEED, replicate=REPLICATE)
    for i, row in enumerate(data):
        alone = generate_subject(model, subject_stream(SEED, REPLICATE, i))
        for got, want in zip(alone, row):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
