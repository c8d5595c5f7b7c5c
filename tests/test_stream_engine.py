"""
Tests for the keyed stream engine: Philox keys derived from numpy's
SeedSequence pool in one vectorized step, one draw pass per subject, and
replicate blocks on stacked rows.

Every test here is exact.  The keys must equal numpy's own, and every array
the engine returns must equal, byte for byte, the one a per-stream or
per-replicate call returns; the generation digests in
``test_generation_digests.py`` pin those calls to recorded values.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrtpower import ConfigError, simulate
from mrtpower.design import EffectPath, TrialDesign, build_quadratic_features, make_availability
from mrtpower.estimator import hypothesis_test
from mrtpower.simulate import (
    ErrorProcess,
    GenerativeModel,
    calibrate_sigma_star,
    generate_dataset,
    generate_subject,
    monte_carlo,
    subject_stream,
)
from test_generation_digests import CASES, DESIGN, N_SUBJECTS, SEED, _model


def _numpy_stream(seed, replicate, subject):
    """The oracle: numpy's own stream for one (seed, replicate, subject)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(replicate, subject)))
    )


def _numpy_keys(seed, replicate, subjects):
    return np.array([
        _numpy_stream(seed, replicate, i).bit_generator.state["state"]["key"]
        for i in subjects
    ], dtype=np.uint64).reshape(len(subjects), 2)


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SUBJECTS = st.lists(
    st.one_of(st.sampled_from([0, 1, 2**32 - 2, 2**32 - 1]), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=64,
)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**200 - 1),
    replicate=st.integers(0, 2**70 - 1),
    subjects=SUBJECTS,
)
def test_stream_keys_equal_numpy_keys(seed, replicate, subjects):
    _same_bytes(
        simulate._stream_keys(seed, replicate, subjects),
        _numpy_keys(seed, replicate, subjects),
    )


@pytest.mark.parametrize(
    "seed,replicate",
    [(0, 0), (2**32 - 1, 2**32), (2**128, 2**64 + 5), (2**160 - 1, 2**32 - 1)],
)
def test_stream_keys_at_word_boundaries(seed, replicate):
    subjects = [0, 1, 2, 2**31, 2**32 - 1]
    _same_bytes(
        simulate._stream_keys(seed, replicate, subjects),
        _numpy_keys(seed, replicate, subjects),
    )


def test_rekeyed_philox_is_a_fresh_stream():
    # the whole bit-generator state, not just the key, matches numpy's own
    keys = simulate._stream_keys(9, 4, range(3))
    for i, rng in enumerate(simulate._keyed_streams(keys)):
        fresh = _numpy_stream(9, 4, i)
        assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
        _same_bytes(rng.random(7), fresh.random(7))


@pytest.mark.parametrize(
    "seed,replicate,subject", [(0, 0, 0), (9, 4, 7), (2**70, 2**33, 2**32 - 1)]
)
def test_subject_stream_is_numpy_stream(seed, replicate, subject):
    rng = subject_stream(seed, replicate, subject)
    fresh = _numpy_stream(seed, replicate, subject)
    assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
    _same_bytes(rng.random(7), fresh.random(7))
    _same_bytes(rng.standard_normal(5), fresh.standard_normal(5))


@pytest.mark.parametrize("scenario,family", CASES)
def test_one_stream_gives_consecutive_subjects(scenario, family):
    # k rows drawn from one stream equal k generate_subject calls on it
    model = _model(scenario, family)
    k = 5
    rows = simulate._generate(model, [subject_stream(SEED, 1, 0)] * k)
    rng = subject_stream(SEED, 1, 0)
    for i in range(k):
        alone = generate_subject(model, rng)
        for got, want in zip(rows, (alone.avail, alone.action, alone.outcome)):
            _same_bytes(got[i], want)


@pytest.mark.parametrize("scenario,family", CASES)
def test_replicate_block_equals_separate_datasets(scenario, family):
    model = _model(scenario, family)
    replicates = [0, 1, 2, 7]
    block = list(simulate._replicate_datasets(model, N_SUBJECTS, SEED, replicates))
    assert len(block) == len(replicates)
    for data, rep in zip(block, replicates):
        alone = generate_dataset(model, N_SUBJECTS, seed=SEED, replicate=rep)
        for name in ("avail", "action", "prob", "outcome"):
            _same_bytes(getattr(data, name), getattr(alone, name))


def test_report_is_worker_invariant_for_partial_blocks():
    design = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
    model = GenerativeModel.working_true(
        design,
        EffectPath.quadratic(np.zeros(3), design),
        make_availability("constant", 0.6, design),
        ErrorProcess("ar1", 0.5),
    )
    n = simulate._engine_rows(design.T) // 3  # blocks of 3 replicates
    reps = 7
    features = build_quadratic_features(design)
    rejections = sum(
        hypothesis_test(generate_dataset(model, n, seed=5, replicate=r), features, 0.05).reject
        for r in range(reps)
    )
    reports = [
        json.dumps(monte_carlo(model, n, reps, 0.05, seed=5, threads=t).to_dict())
        for t in (1, 2, 3)
    ]
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["rejections"] == rejections


# Rows per engine call: one, fewer than a dataset's subjects, the 96 of the
# fixed-row engine, and more than any block or calibration below needs.
BLOCK_ROWS = [1, N_SUBJECTS - 2, 96, 10_000]


def _block_outputs(scenario, family):
    """Bytes of everything the engine returns for one case: the calibration
    (in ``_model``), four datasets and a Monte Carlo report."""
    model = _model(scenario, family)
    out = [json.dumps(monte_carlo(model, 10, 9, 0.05, seed=SEED).to_dict())]
    if model.sigma_star is not None:
        out += [model.c_mean_avail.tobytes(), repr(model.sigma_star)]
    for data in simulate._replicate_datasets(model, N_SUBJECTS, SEED, [0, 1, 2, 7]):
        out += [getattr(data, name).tobytes() for name in ("avail", "action", "outcome")]
    return out


@pytest.mark.parametrize("scenario,family", CASES)
def test_block_size_never_changes_a_bit(scenario, family, monkeypatch):
    outputs = []
    for rows in BLOCK_ROWS:
        budget = rows * DESIGN.T * simulate._ROW_STEP_BYTES
        monkeypatch.setattr(simulate, "_ENGINE_BYTES", budget)
        assert simulate._engine_rows(DESIGN.T) == rows
        outputs.append(_block_outputs(scenario, family))
    assert all(out == outputs[0] for out in outputs[1:])


class TestStreamArguments:
    @pytest.mark.parametrize("bad", [-1, 1.5, 2.0, "3", None])
    def test_subject_stream_rejects(self, bad):
        for args in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(ConfigError, match="nonnegative integer"):
                subject_stream(*args)

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_keyed_path_rejects(self, bad):
        design = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
        model = GenerativeModel.working_true(
            design,
            EffectPath.quadratic(np.zeros(3), design),
            make_availability("constant", 0.6, design),
            ErrorProcess("iid-normal"),
        )
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            generate_dataset(model, 3, seed=bad)
        with pytest.raises(ConfigError, match="replicate must be a nonnegative integer"):
            generate_dataset(model, 3, seed=1, replicate=bad)
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            monte_carlo(model, 10, 2, 0.05, seed=bad)
        feedback = GenerativeModel.treatment_feedback(
            design,
            EffectPath.quadratic(np.zeros(3), design),
            make_availability("constant", 0.6, design),
            ErrorProcess("iid-normal"),
            eta1=0.1, eta2=0.1, gamma1=0.1, gamma2=0.1,
        )
        with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
            calibrate_sigma_star(feedback, reps=10, seed=bad)

    def test_numpy_integers_are_accepted(self):
        rng = subject_stream(np.int64(3), np.uint32(1), np.int16(2))
        _same_bytes(rng.random(4), subject_stream(3, 1, 2).random(4))
        _same_bytes(
            simulate._stream_keys(np.uint64(2**63), np.int8(4), range(3)),
            simulate._stream_keys(2**63, 4, range(3)),
        )


class TestCountArguments:
    """Subject and replicate counts follow the stream indices' ``operator.index`` rule."""

    @pytest.fixture(scope="class")
    def models(self):
        design = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
        args = (
            design,
            EffectPath.quadratic(np.zeros(3), design),
            make_availability("constant", 0.6, design),
            ErrorProcess("iid-normal"),
        )
        return (
            GenerativeModel.working_true(*args),
            GenerativeModel.treatment_feedback(
                *args, eta1=0.1, eta2=0.1, gamma1=0.1, gamma2=0.1
            ),
        )

    @pytest.mark.parametrize("bad", [2.9, 3.0, "3", None])
    def test_generate_dataset_rejects_non_integer_n(self, models, bad):
        with pytest.raises(ConfigError, match="^n must be an integer"):
            generate_dataset(models[0], bad, seed=1)

    @pytest.mark.parametrize(
        "n,reps,name", [(10.7, 3, "n"), ("10", 3, "n"), (10, 3.9, "reps"), (10, 3.0, "reps")]
    )
    def test_monte_carlo_rejects_non_integer_n_and_reps(self, models, n, reps, name):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            monte_carlo(models[0], n, reps, 0.05, seed=1)

    @pytest.mark.parametrize("bad", [150.5, 150.0, "150"])
    def test_calibrate_sigma_star_rejects_non_integer_reps(self, models, bad):
        with pytest.raises(ConfigError, match="^reps must be an integer"):
            calibrate_sigma_star(models[1], reps=bad, seed=1)

    def test_numpy_integers_are_accepted(self, models):
        working, feedback = models
        for name in ("avail", "action", "prob", "outcome"):
            _same_bytes(
                getattr(generate_dataset(working, np.int64(4), seed=1), name),
                getattr(generate_dataset(working, 4, seed=1), name),
            )
        assert (
            monte_carlo(working, np.int32(10), np.uint16(3), 0.05, seed=1).to_dict()
            == monte_carlo(working, 10, 3, 0.05, seed=1).to_dict()
        )
        _same_bytes(
            calibrate_sigma_star(feedback, reps=np.int64(250), seed=1).c_mean_avail,
            calibrate_sigma_star(feedback, reps=250, seed=1).c_mean_avail,
        )
