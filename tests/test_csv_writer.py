"""
Equivalence of the columnar dataset CSV writer and the line-by-line oracle.

Tolerance strategy
------------------
None: ``cli.write_dataset`` must write the same bytes as
``_reference_csv.reference_write_dataset`` for every ``Dataset``.  Inputs
are the reader tests' random small datasets plus hand-picked extremes,
written with ``_WRITE_CHUNK`` small enough that a block holds a single
subject, a few, or all of them.  The writer must also keep its memory
bounded and report a failed write as ``ConfigError``.
"""

import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_csv import reference_write_dataset
from mrtpower import cli
from mrtpower.cli import write_dataset
from mrtpower.estimator import Dataset
from mrtpower.exceptions import ConfigError
from test_csv_reader import datasets

CHUNKS = [1, 2, 3, 5, cli._WRITE_CHUNK]


def written_bytes(writer, data, path):
    writer(data, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv-writer")


@settings(deadline=None, max_examples=300)
@given(data=datasets(), chunk=st.sampled_from(CHUNKS))
def test_columnar_writer_matches_oracle(csv_dir, data, chunk):
    with mock.patch.object(cli, "_WRITE_CHUNK", chunk):
        got = written_bytes(write_dataset, data, csv_dir / "new.csv")
    assert got == written_bytes(reference_write_dataset, data, csv_dir / "old.csv")


EXTREMES = {
    "prob varies by row": Dataset(
        avail=[[1, 1, 0], [1, 0, 1]],
        action=[[0, 1, 1], [1, 0, 0]],
        prob=[[0.4, 0.1 + 0.2, 0.5], [0.1 + 0.2, 0.4, 5e-324]],
        outcome=[[1.0, 2.0, np.nan], [3.0, np.nan, 4.0]],
    ),
    "outcome extremes": Dataset(
        avail=[[1, 1, 1, 1, 0]],
        action=[[1, 0, 1, 0, 1]],
        prob=[[0.5] * 5],
        outcome=[[-0.0, 5e-324, 1e308, -2.5, 7.0]],
    ),
    "N = 1, T = 1": Dataset(avail=[[1]], action=[[0]], prob=[[0.25]], outcome=[[0.1]]),
    "one subject longer than the block": Dataset(
        avail=[[1, 0, 1, 1, 0, 1, 1]],
        action=[[0, 1, 1, 0, 0, 1, 0]],
        prob=[[0.3, 0.7, 0.1 + 0.2, 0.3, 0.3, 0.99999999999999989, 0.3]],
        outcome=[[-0.0, np.nan, 5e-324, 1e308, np.nan, -2.5, 1 / 3]],
    ),
}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", EXTREMES)
def test_extremes_match_oracle(csv_dir, name, chunk):
    data = EXTREMES[name]
    with mock.patch.object(cli, "_WRITE_CHUNK", chunk):
        got = written_bytes(write_dataset, data, csv_dir / "new.csv")
    assert got == written_bytes(reference_write_dataset, data, csv_dir / "old.csv")


def test_memory_stays_bounded(csv_dir):
    # One N = 400, T = 210 trial: building every line before writing peaks
    # near 15 MiB traced; writing block by block stays far below 5 MiB.
    rng = np.random.default_rng(11)
    shape = (400, 210)
    data = Dataset(
        avail=rng.integers(0, 2, shape),
        action=rng.integers(0, 2, shape),
        prob=np.full(shape, 0.4),
        outcome=rng.normal(size=shape),
    )
    path = csv_dir / "big.csv"
    tracemalloc.start()
    try:
        write_dataset(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"write_dataset peaked at {peak / 2**20:.1f} MiB traced"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_is_a_config_error():
    # open succeeds on /dev/full; the write after it fails with ENOSPC
    data = EXTREMES["outcome extremes"]
    with pytest.raises(ConfigError, match="cannot write dataset"):
        write_dataset(data, "/dev/full")
