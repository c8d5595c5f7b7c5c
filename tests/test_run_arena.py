"""
One arena per Monte Carlo run.

Each worker's run allocates one block of memory: its outputs region holds
one engine block's avail, action and outcome, and its scratch region serves
the block's engine call, then each replicate's test.  No view of it leaves
the run: a dataset that ``each_dataset`` keeps equals ``generate_dataset``
for its replicate after the run, at 1 and 2 workers.  The arena is sized
exactly: an engine call and a test fit the bytes the sizing gives them and
no fewer, with the same bits as on new arrays.  And a run's traced peak stays flat
from one block to the next, below the peak of the engine that made new
arrays for every block and test.
"""

import os
import pickle
import tracemalloc

import numpy as np
import pytest

from mrtpower import estimator, simulate
from mrtpower.design import (
    _ARENA_ALIGN,
    _FRESH,
    EffectPath,
    TrialDesign,
    _arena,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.simulate import ErrorProcess, GenerativeModel, generate_dataset, monte_carlo
from test_generation_digests import CASES, N_SUBJECTS, SEED, _model

PAPER = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
N = 42  # three replicates per engine block at T = 210
K = 6


def null_model():
    """The paper's type-I cell: working-true, iid-normal errors, no effect."""
    return GenerativeModel.working_true(
        PAPER, EffectPath.quadratic(np.zeros(3), PAPER),
        make_availability("constant", 0.5, PAPER), ErrorProcess("iid-normal"))


# -- no view of the arena leaves the run --------------------------------------


@pytest.mark.parametrize("threads", [1, 2])
def test_kept_datasets_outlive_the_run(threads, tmp_path):
    # 12 replicates: each worker's share spans at least two engine blocks,
    # so a kept view of the outputs would be overwritten by a later block
    model = GenerativeModel.working_true(
        PAPER, elicit_quadratic_effect(0.0, 0.10, 29, PAPER),
        make_availability("constant", 0.5, PAPER), ErrorProcess("ar1", 0.6))
    assert simulate._block_replicates(PAPER.T, N) == 3
    kept = []

    def keep(replicate, dataset):
        # a child's datasets reach this process through its last dump
        kept.append((replicate, dataset))
        with open(tmp_path / f"{os.getpid()}.pkl", "wb") as f:
            pickle.dump(kept, f)

    monte_carlo(model, N, 12, 0.05, seed=3, threads=threads, each_dataset=keep)
    seen = dict(kept)
    for path in tmp_path.iterdir():
        with open(path, "rb") as f:
            seen.update(pickle.load(f))
    assert sorted(seen) == list(range(12))
    for replicate, dataset in seen.items():
        assert dataset == generate_dataset(model, N, seed=3, replicate=replicate), replicate


# -- exact sizing ---------------------------------------------------------------


def _same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _takes_exactly(call, *sizes):
    """``call(*regions)`` on an arena of regions of ``sizes`` bytes, after
    checking that it overruns each region made one aligned span smaller."""
    for i in range(len(sizes)):
        smaller = [size - _ARENA_ALIGN * (j == i) for j, size in enumerate(sizes)]
        with pytest.raises(RuntimeError, match="overrun"):
            call(*_arena(*smaller))
    return call(*_arena(*sizes))


@pytest.mark.parametrize("scenario,family", CASES)
def test_an_engine_call_takes_exactly_its_bytes(scenario, family):
    model = _model(scenario, family)
    units = [(rep, range(N_SUBJECTS)) for rep in range(3)]
    outputs, _ = simulate._run_arena(model, N_SUBJECTS, K, True, len(units))
    got = _takes_exactly(
        lambda *regions: simulate._generate(model, simulate._unit_streams(SEED, units), *regions),
        outputs._memory.size, simulate._engine_bytes(model, len(units) * N_SUBJECTS))
    _same_bytes(got, simulate._generate(model, simulate._unit_streams(SEED, units)))


@pytest.mark.parametrize("adjusted", [True, False])
@pytest.mark.parametrize("gram", ["summed", "averaged"])
@pytest.mark.parametrize("n", [10, N, 400])  # the K block is larger, then two (n, T) arrays
def test_a_test_takes_exactly_its_bytes(n, gram, adjusted):
    model = GenerativeModel.working_true(
        PAPER, elicit_quadratic_effect(0.0, 0.10, 29, PAPER),
        make_availability("constant", 0.5, PAPER), ErrorProcess("ar1", 0.6))
    features = build_quadratic_features(PAPER)
    data = generate_dataset(model, n, seed=5)
    arrays = (data.avail, data.action, data.prob, data.outcome)
    beta_hat, sigma, stat = _takes_exactly(
        lambda scratch: estimator._statistic(*arrays, features, adjusted, gram, scratch),
        estimator._statistic_bytes(n, PAPER.T, K, adjusted))
    want = estimator._statistic(*arrays, features, adjusted, gram, _FRESH)
    _same_bytes((beta_hat, sigma, np.float64(stat)), (want[0], want[1], np.float64(want[2])))


# -- the run's working set ------------------------------------------------------

# Traced peak of the 2-block run below (6 replicates) when every engine block
# and every test made new arrays (numpy 2.4, Python 3.11): 1.17 MiB.
SEPARATE_ARRAYS_PEAK = 1_225_642
# A run's second block may add small allocations, not another block.
BLOCK_SLACK = 64 * 2**10


def traced_run_peak(reps):
    model = null_model()
    monte_carlo(model, N, reps, 0.05, seed=1, threads=1)  # warm-up: caches, not buffers
    tracemalloc.start()
    try:
        monte_carlo(model, N, reps, 0.05, seed=1, threads=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_second_block_adds_no_memory():
    one, two = traced_run_peak(3), traced_run_peak(6)
    assert abs(two - one) <= BLOCK_SLACK, (one, two)
    assert two <= SEPARATE_ARRAYS_PEAK, two
