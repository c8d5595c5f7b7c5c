"""Line-by-line dataset CSV reader and writer: the test oracles for
``cli.read_dataset`` and ``cli.write_dataset``.

These are the reader and writer ``mrtpower.cli`` used before their columnar
rewrites, kept as the definition of what the columnar code must do.  The one
later change, made in both readers: lines end at ``\n``, ``\r\n`` and ``\r``
only, not at every break ``str.splitlines`` knows.  The reader: the same accepted inputs, the same ``Dataset`` bits, and
for bad input the same ``ConfigError`` message, naming the first bad line in
file order and, for that line, the first failed check in the order below.
The writer: the same file bytes for every ``Dataset``.
"""

import math

import numpy as np

from mrtpower.cli import DATASET_HEADER
from mrtpower.estimator import Dataset
from mrtpower.exceptions import ConfigError


def _parse_int(text, label):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{label} must be an integer, got {text!r}") from None


def _parse_float(text, label):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{label} must be a number, got {text!r}") from None


def reference_write_dataset(dataset, path):
    """Write a :class:`~mrtpower.estimator.Dataset` as round-trip CSV."""
    lines = [DATASET_HEADER]
    for subject, row in enumerate(dataset):
        for t, (avail, action, prob, outcome) in enumerate(
            zip(*(column.tolist() for column in row)), start=1
        ):
            outcome = format(outcome, ".17g") if avail == 1 else ""
            lines.append(
                f"{subject},{t},{avail},{action},{format(prob, '.17g')},{outcome}"
            )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write dataset: {exc}") from None


def reference_read_dataset(path):
    try:
        # universal newlines: \n, \r\n and \r end a line, and nothing else
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from None
    if lines[-1] == "":
        lines.pop()  # the final line's newline, or an empty file
    if not lines or lines[0] != DATASET_HEADER:
        raise ConfigError(f"line 1: dataset header must be exactly {DATASET_HEADER!r}")

    rows = []
    block_rows = []  # rows read so far for each subject, in subject order
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 6:
            raise ConfigError(
                f"line {line_no}: expected 6 comma-separated fields, got {len(fields)}"
            )
        subject = _parse_int(fields[0], f"line {line_no}: subject")
        t = _parse_int(fields[1], f"line {line_no}: t")
        if fields[2] not in ("0", "1"):
            raise ConfigError(f"line {line_no}: avail must be 0 or 1, got {fields[2]!r}")
        if fields[3] not in ("0", "1"):
            raise ConfigError(f"line {line_no}: action must be 0 or 1, got {fields[3]!r}")
        avail = int(fields[2])
        action = int(fields[3])
        prob = _parse_float(fields[4], f"line {line_no}: prob")
        if not (0.0 < prob < 1.0):
            raise ConfigError(
                f"line {line_no}: randomization probability must lie in (0, 1), "
                f"got {fields[4]}"
            )
        if avail == 0:
            if fields[5] != "":
                raise ConfigError(
                    f"line {line_no}: outcome must be empty when avail is 0, "
                    f"got {fields[5]!r}"
                )
            outcome = math.nan
        else:
            outcome = _parse_float(fields[5], f"line {line_no}: outcome")
            if not math.isfinite(outcome):
                raise ConfigError(
                    f"line {line_no}: outcome must be a finite number, got {fields[5]!r}"
                )
        if not block_rows or subject != len(block_rows) - 1:
            _check_block_length(block_rows, line_no)
            if subject != len(block_rows):
                raise ConfigError(
                    f"line {line_no}: subject ids must be contiguous from 0 "
                    f"(expected {len(block_rows)}, got {subject})"
                )
            block_rows.append(0)
        block_rows[-1] += 1
        if t != block_rows[-1]:
            raise ConfigError(
                f"line {line_no}: expected decision time {block_rows[-1]} for "
                f"subject {subject}, got {t}"
            )
        rows.append((avail, action, prob, outcome))

    if not block_rows:
        raise ConfigError("dataset has no data rows")
    _check_block_length(block_rows, len(lines))
    shape = (len(block_rows), block_rows[0])
    return Dataset(*(np.array(column).reshape(shape) for column in zip(*rows)))


def _check_block_length(block_rows, line_no):
    """The subject whose block ends at ``line_no`` must have subject 0's length."""
    if block_rows and block_rows[-1] != block_rows[0]:
        raise ConfigError(
            f"line {line_no}: subject {len(block_rows) - 1} has {block_rows[-1]} "
            f"rows but subject 0 has {block_rows[0]}"
        )
