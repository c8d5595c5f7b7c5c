"""No child process outlives ``monte_carlo``.

A ``threads > 1`` run starts ``threads - 1`` child processes and runs
share 0 itself.  After every run below, on success and on each error path,
``multiprocessing.active_children()`` must be empty, and an error must have
the type and message a 1-worker run raises, where a 1-worker run can raise
it.  Each run is bounded by an alarm, so a run that waits on a dead child
fails instead of hanging.
"""

import functools
import multiprocessing
import os
import signal

import numpy as np
import pytest

from mrtpower import ConfigError
from mrtpower.cli import _export_replicate
from mrtpower.design import EffectPath, TrialDesign, make_availability
from mrtpower.simulate import ErrorProcess, GenerativeModel, monte_carlo

DESIGN = TrialDesign(days=3, decisions_per_day=4, rho=0.4)
MODEL = GenerativeModel.working_true(
    DESIGN, EffectPath.quadratic(np.zeros(3), DESIGN),
    make_availability("constant", 0.6, DESIGN), ErrorProcess("iid-normal"),
)
DEADLINE_S = 60


@pytest.fixture(autouse=True)
def deadline():
    def expire(signum, frame):
        raise TimeoutError(f"monte_carlo ran past {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(threads, reps=6, each_dataset=None):
    return monte_carlo(MODEL, 10, reps, 0.05, seed=7, threads=threads,
                       each_dataset=each_dataset)


def error_of(threads, **kwargs):
    with pytest.raises(Exception) as info:
        run(threads, **kwargs)
    assert multiprocessing.active_children() == []
    return type(info.value), str(info.value)


def refuse_replicate_0(replicate, dataset):
    if replicate == 0:
        raise ConfigError("replicate 0 refused")


def exit_on_replicate_1(replicate, dataset):
    if replicate == 1:
        os._exit(9)


@pytest.mark.parametrize("threads", [2, 3])
def test_a_run_leaves_no_child(threads):
    assert run(threads).to_dict() == run(1).to_dict()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [2, 3])
def test_a_child_error_is_the_one_worker_error(tmp_path, threads):
    # replicate 1's file is a directory, so the child that runs share 1 fails
    # to write it, with the ConfigError a 1-worker run raises
    (tmp_path / "replicate-0001.csv").mkdir()
    export = functools.partial(_export_replicate, str(tmp_path), 4)
    one = error_of(1, each_dataset=export)
    assert one[0] is ConfigError and one[1].startswith("cannot write dataset")
    assert error_of(threads, each_dataset=export) == one


@pytest.mark.parametrize("threads", [2, 3])
def test_an_error_in_the_callers_share_stops_every_child(threads):
    one = error_of(1, each_dataset=refuse_replicate_0)
    assert one == (ConfigError, "replicate 0 refused")
    assert error_of(threads, each_dataset=refuse_replicate_0) == one


@pytest.mark.parametrize("threads", [2, 3])
def test_a_child_that_dies_without_sending_is_named(threads):
    assert error_of(threads, each_dataset=exit_on_replicate_1) == (
        RuntimeError, "Monte Carlo worker 1 exited with code 9 without sending its outcomes"
    )
