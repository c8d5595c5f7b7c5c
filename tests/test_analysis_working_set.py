"""
The analysis path's working set: ``read_dataset`` and ``hypothesis_test``
on the N = 400 trial of the paper's six-week design (T = 210).

The reader streams the file, so it holds the (R,) columns, one read block
and the text of the lines that end in it, never the whole text or a list
of lines; the test keeps X (N, T, q+p) and y and the residuals, with no
float copy of the availability.  Peaks are traced by tracemalloc, which
sees numpy's buffers, after a warm-up call; the same call allocates the
same buffers, so the peak repeats.  The bounds sit between the traced
peaks of this code and those of the whole-file reader and the estimator
with its spare (N, T) arrays (numpy 2.4, Python 3.11): 11.1 MiB for either
read, 7.13 MiB for the test.  The read bound also lies below the 3.41 MiB
of a reader that holds 4096 lines at a time as a list of line strings.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mrtpower import cli
from mrtpower.cli import read_dataset, write_dataset
from mrtpower.design import (
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from mrtpower.estimator import hypothesis_test
from mrtpower.simulate import ErrorProcess, GenerativeModel, generate_dataset

DESIGN = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
MiB = 2**20
READ_BOUND = 3 * MiB  # traced at 2.23 MiB, 2.28 when the line parser takes the last text
TEST_BOUND = int(5.5 * MiB)  # traced at 5.25 MiB: X alone is 3.85


@pytest.fixture(scope="module")
def trial():
    model = GenerativeModel.working_true(
        DESIGN, elicit_quadratic_effect(0.0, 0.10, 29, DESIGN),
        make_availability("constant", 0.5, DESIGN), ErrorProcess("ar1", 0.6))
    return generate_dataset(model, 400, seed=1)


@pytest.fixture(scope="module")
def trial_file(trial, tmp_path_factory):
    path = tmp_path_factory.mktemp("trial") / "trial.csv"
    write_dataset(trial, path)
    return path


def traced_peak(fn):
    fn()  # warm-up: caches, not buffers
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_columnar_read_holds_the_columns_and_one_chunk(trial_file):
    with mock.patch.object(cli, "_read_lines", wraps=cli._read_lines) as spy:
        read_dataset(trial_file)
    assert not spy.called
    peak = traced_peak(lambda: read_dataset(trial_file))
    assert peak < READ_BOUND, peak


def test_line_by_line_read_holds_the_columns_and_one_chunk(trial, trial_file, tmp_path):
    # the last line's subject spelled "+399": int() reads it, the layout check does not
    text = trial_file.read_text(encoding="utf-8")
    last = text.rindex("\n", 0, -1) + 1
    damaged = tmp_path / "damaged.csv"
    damaged.write_text(text[:last] + "+" + text[last:], encoding="utf-8")
    with mock.patch.object(cli, "_read_lines", wraps=cli._read_lines) as spy:
        data = read_dataset(damaged)
    assert spy.called
    assert data == trial
    peak = traced_peak(lambda: read_dataset(damaged))
    assert peak < READ_BOUND, peak


def test_hypothesis_test_keeps_no_spare_n_by_t_arrays(trial):
    features = build_quadratic_features(DESIGN)
    peak = traced_peak(lambda: hypothesis_test(trial, features, 0.05))
    assert peak < TEST_BOUND, peak
    x_bytes = np.empty((400, DESIGN.T, features.q + features.p)).nbytes
    assert peak > x_bytes  # the bound is not met by tracing nothing
