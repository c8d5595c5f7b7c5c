"""Command-line front end: configuration parsing, dataset I/O, workflows.

Four commands cover the user workflows:

* ``size``     -- minimal sample size for a target power; ``--grid`` sweeps
  the effect and availability averages from the config's ``grid`` block and
  renders the results as an aligned table;
* ``power``    -- analytic power at a fixed sample size and whether it
  reaches the power target, optionally with a Monte Carlo estimate side by
  side (``--mc``);
* ``analyze``  -- run the proximal-effect test on a CSV dataset;
* ``simulate`` -- Monte Carlo rejection rates for a generative scenario;
  ``--export`` writes every replicate's dataset as CSV and ``--paper-table``
  runs one of the bundled preset grids.

Configuration is a single JSON document per run.  Unknown keys are errors,
and every message carries the offending field path.  Each command reads the
document's blocks and keys in one order, and reports the first bad one:

* ``size``     -- design, availability, effect, alpha0, power, grid;
* ``power``    -- design, availability, effect, alpha0, n, power, errors,
  scenario, reps, seed, adjusted, gram;
* ``analyze``  -- design, alpha0, adjusted, gram;
* ``simulate`` -- design, availability, effect, errors, scenario, n, alpha0,
  reps, seed, adjusted, gram.

A block's unknown keys are reported as the block is read, the root's after
the last key.  The whole document is checked before anything is built from
it (availability, effect, generative model, dataset); only ``size`` and
``power`` check the design's quadratic features (at least 3 days) as soon as
they have read ``design``.  Machine output (JSON) goes to standard
output; human-readable tables and notes go to standard error.  Exit codes:
0 success, 2 configuration/validation error, 3 numeric failure.

Dataset CSV format (bit-exact round trip): header
``subject,t,avail,action,prob,outcome``, one row per subject per decision
time, decimals serialized with 17 significant digits, and the outcome field
literally empty when avail=0.
"""

import contextlib
import functools
import itertools
import json
import math
import os
import sys

import click
import numpy as np

from .design import (
    AVAILABILITY_KINDS,
    GRAM_KINDS,
    EffectPath,
    TrialDesign,
    _canonical_digest,
    _choice,
    _flag,
    _integer,
    _level,
    _real,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
)
from .exceptions import ConfigError, NumericError
from .samplesize import SizingInputs, noncentrality, solve_sample_size
from .samplesize import power as analytic_power

# ``estimator`` and ``simulate`` are imported inside the functions that run
# their code, so ``size`` and ``power`` without ``--mc`` never load them.

__all__ = [
    "DATASET_HEADER",
    "PAPER_TABLES",
    "load_config",
    "main",
    "read_dataset",
    "write_dataset",
]

DATASET_HEADER = "subject,t,avail,action,prob,outcome"
EFFECT_FORMS = ("quadratic", "shaped")

_MISSING = object()


# ---------------------------------------------------------------------
# configuration document
# ---------------------------------------------------------------------


def load_config(path):
    """Load one JSON configuration document (the root must be an object)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"config is not valid JSON (line {exc.lineno}, column "
                    f"{exc.colno}): {exc.msg}"
                ) from None
            except ValueError as exc:  # invalid UTF-8, or an integer past the digit limit
                raise ConfigError(f"cannot read config: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    return data


def _number_list(value, label, **bounds):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{label} must be a non-empty array of numbers, got {value!r}")
    return [_real(item, f"{label}[{i}]", **bounds) for i, item in enumerate(value)]


class _Section:
    """One object of the configuration document, addressed by dotted path.

    Every accessor marks its key as consumed; ``finish`` then rejects
    whatever remains, so misspelled keys can never pass silently.
    """

    def __init__(self, data, path=""):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'configuration root'} must be a JSON object")
        self._data = data
        self._path = path
        self._used = set()

    def _label(self, key):
        return f"{self._path}.{key}" if self._path else key

    def _get(self, key, default, check):
        """``check(value, label)`` of the key's value, or ``default`` when absent."""
        self._used.add(key)
        if key in self._data:
            return check(self._data[key], self._label(key))
        if default is _MISSING:
            raise ConfigError(f"missing required configuration key {self._label(key)!r}")
        return default

    def section(self, key, *, required=True):
        return self._get(key, _MISSING if required else None, _Section)

    def number(self, key, default=_MISSING, **bounds):
        return self._get(key, default, functools.partial(_real, **bounds))

    def integer(self, key, default=_MISSING, *, low):
        def check(value, label):
            value = _integer(value, label)
            if value < low:
                raise ConfigError(f"{label} must be an integer >= {low}, got {value!r}")
            return value

        return self._get(key, default, check)

    def boolean(self, key, default=_MISSING):
        return self._get(key, default, _flag)

    def string(self, key, default=_MISSING, *, choices):
        return self._get(key, default, functools.partial(_choice, choices=choices))

    def number_list(self, key, **bounds):
        return self._get(key, _MISSING, functools.partial(_number_list, **bounds))

    def number_or_list(self, key, **bounds):
        def check(value, label):
            if isinstance(value, list):
                return np.asarray(_number_list(value, label, **bounds))
            return _real(value, label, **bounds)

        return self._get(key, _MISSING, check)

    def finish(self):
        unknown = sorted(set(self._data) - self._used)
        if unknown:
            names = ", ".join(repr(self._label(k)) for k in unknown)
            raise ConfigError(f"unknown configuration key(s): {names}")


# ---------------------------------------------------------------------
# block readers
# ---------------------------------------------------------------------


def _read_design(cfg):
    sec = cfg.section("design")
    days = sec.integer("days", low=1)
    per_day = sec.integer("decisions_per_day", low=1)
    rho = sec.number_or_list("rho", low=0.0, high=1.0, open_low=True, open_high=True)
    sec.finish()
    return TrialDesign(days=days, decisions_per_day=per_day, rho=rho)


def _read_trial(cfg, design):
    """Read the ``availability`` and ``effect`` blocks of a trial of ``design``.

    Returns ``build(effect_average, avail_average, *, sizing=False)``, which
    builds ``(tau, effect)`` at those averages, the config's own by default.  With ``sizing``, a null effect (zero average, zero initial
    value) raises before it is elicited, as no sample size can detect it.
    """
    sec = cfg.section("availability")
    kind = sec.string("kind", choices=AVAILABILITY_KINDS)
    config_avail = sec.number("average", low=0.0, high=1.0, open_low=True)
    shape = {}
    if kind != "constant":
        shape["amplitude"] = sec.number("amplitude")
    if kind == "piecewise":
        shape["break_day"] = sec.integer("break_day", low=1)
    sec.finish()

    sec = cfg.section("effect")
    form = sec.string("form", choices=EFFECT_FORMS)
    initial = sec.number("initial", 0.0) if form == "quadratic" else 0.0
    config_effect = sec.number("average")
    max_day = sec.integer("max_day", low=1)
    if form == "shaped":
        fraction = sec.number("plateau_fraction", low=0.0, high=1.0)
    sec.finish()

    def build(effect_average=config_effect, avail_average=config_avail, *, sizing=False):
        if sizing and effect_average == 0.0 and initial == 0.0:
            raise ConfigError(
                "no solution: null effect (a zero average standardized effect "
                "can never reach the power target)"
            )
        tau = make_availability(kind, avail_average, design, **shape)
        if form == "quadratic":
            return tau, elicit_quadratic_effect(initial, effect_average, max_day, design)
        from .simulate import shaped_effect

        return tau, shaped_effect(design, effect_average, max_day, fraction)

    return build


def _read_scenario(cfg, *, required):
    """Read the ``errors`` and ``scenario`` blocks.

    Returns ``build(design, tau, effect, seed)``, the generative model, with
    sigma* calibrated on ``seed`` for treatment feedback.  No ``errors``
    block means iid-normal errors, no ``scenario`` block working-true.
    """
    sec = cfg.section("errors", required=False)
    errors = None
    if sec is not None:
        from .simulate import ERROR_FAMILIES, ErrorProcess

        family = sec.string("family", choices=ERROR_FAMILIES)
        phi = sec.number("phi", _MISSING if family in ("ar1", "ar5") else 0.0)
        sec.finish()
        errors = ErrorProcess(family, phi)

    sec = cfg.section("scenario", required=required)
    name, params, calibration = "working-true", {}, None
    if sec is not None:
        from .simulate import SCENARIOS, VARIANCE_TRENDS

        name = sec.string("name", choices=SCENARIOS)
        if name == "weekend-mean":
            params["theta"] = sec.number("theta")
        elif name == "heteroscedastic":
            params["variance_ratio"] = sec.number("variance_ratio", low=0.0, open_low=True)
            params["variance_trend"] = sec.string("variance_trend", choices=VARIANCE_TRENDS)
        elif name == "availability-feedback":
            params["eta"] = sec.number("eta")
        elif name == "treatment-feedback":
            for key in ("eta1", "eta2", "gamma1", "gamma2"):
                params[key] = sec.number(key)
            reps = sec.integer("calibration_reps", None, low=1)
            calibration = {} if reps is None else {"reps": reps}
        sec.finish()

    def build(design, tau, effect, seed):
        from .simulate import ErrorProcess, GenerativeModel, calibrate_sigma_star

        model = getattr(GenerativeModel, name.replace("-", "_"))(
            design, effect, tau, ErrorProcess("iid-normal") if errors is None else errors,
            **params)
        if calibration is not None:
            model = calibrate_sigma_star(model, **calibration, seed=seed)
        return model

    return build


def _alpha0(cfg):
    """The significance level, read by :func:`~mrtpower.design._level`."""
    return cfg._get("alpha0", _MISSING, _level)


def _test_keys(cfg):
    """(adjusted, gram) of the hypothesis test, from the config."""
    return cfg.boolean("adjusted", True), cfg.string("gram", "summed", choices=GRAM_KINDS)


def _monte_carlo_keys(cfg, reps, seed):
    """(reps, seed, adjusted, gram) from the config, ``--reps``/``--seed`` overriding."""
    config_reps = cfg.integer("reps", 1000, low=1)
    config_seed = cfg.integer("seed", 0, low=0)
    reps = config_reps if reps is None else reps
    seed = config_seed if seed is None else seed
    return (reps, seed, *_test_keys(cfg))


# ---------------------------------------------------------------------
# dataset CSV I/O
# ---------------------------------------------------------------------


_WRITE_CHUNK = 4096  # rows, about, the writer formats and writes at a time
_READ_BLOCK = 1 << 16  # characters per read of a dataset file


def write_dataset(dataset, path):
    """Write a :class:`~mrtpower.estimator.Dataset` as round-trip CSV.

    Columns are formatted a block of subjects, about ``_WRITE_CHUNK`` rows,
    at a time, and each block is one ``write``.
    """
    n, t_len = dataset.avail.shape
    block = max(1, _WRITE_CHUNK // t_len)
    flags = ("0,0,", "0,1,", "1,0,", "1,1,")  # "avail,action," at 2 * avail + action
    t_texts = [f",{t}," for t in range(1, t_len + 1)]
    prob_texts = {}
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(DATASET_HEADER + "\n")
            for start in range(0, n, block):
                rows = slice(start, start + block)
                avail = dataset.avail[rows]
                on = avail == 1
                prob = dataset.prob[rows].ravel().tolist()
                prob_texts.update({p: f"{p:.17g}" for p in set(prob).difference(prob_texts)})
                outcome = np.full(avail.shape, ",\n", dtype=object)  # empty if unavailable
                outcome[on] = [f",{y:.17g}\n" for y in dataset.outcome[rows][on].tolist()]
                fh.write("".join(map("".join, zip(
                    [s for s in map(str, range(start, start + len(avail))) for _ in t_texts],
                    t_texts * len(avail),
                    map(flags.__getitem__, (2 * avail + dataset.action[rows]).ravel().tolist()),
                    map(prob_texts.__getitem__, prob),
                    outcome.ravel().tolist()))))
    except OSError as exc:
        raise ConfigError(f"cannot write dataset: {exc}") from None


def read_dataset(path):
    """Read a dataset CSV into one :class:`~mrtpower.estimator.Dataset`.

    Subjects must appear as contiguous blocks numbered from 0, decision
    times must run 1..T within each block, and every block must have the
    same length.  A bad file is reported at its first bad line in file
    order, with that line's number and the first check it fails.  Numbers
    are read as ``int`` and ``float`` read them.

    A first pass decodes the file and counts its lines, so an undecodable
    byte is reported before any bad line.  The second parses the text of
    the lines that end in each read block as one byte buffer
    (:meth:`_Columns.parse`), and from the first text that it leaves
    :func:`_read_lines` goes on line by line.  So the reader holds the
    columns, one block and one text of at most ``_READ_BLOCK`` characters
    and a line.  A changed line count between the passes is a changed file.
    """
    n_rows = sum(text.count("\n") + 1 for text in _line_texts(path)) - 1  # after the header
    with contextlib.closing(_line_texts(path)) as texts:
        header, newline, body = next(texts, "").partition("\n")
        if header != DATASET_HEADER:
            raise ConfigError(f"line 1: dataset header must be exactly {DATASET_HEADER!r}")
        if n_rows == 0:
            raise ConfigError("dataset has no data rows")
        columns = _Columns(n_rows)
        texts = itertools.chain([body] if newline else [], texts)  # the body's texts
        rest = itertools.dropwhile(columns.parse, texts)
        first = next(rest, None)  # the first text that parse rejects
        full, part = divmod(columns.filled, columns.T or 1)
        blocks = [columns.T] * full + [part] * (part > 0)  # rows of each subject block so far
        if first is not None:  # the line parser takes over for good
            lines = (text.split("\n") for text in itertools.chain([first], rest))
            _read_lines(itertools.chain.from_iterable(lines), columns, blocks)
    if sum(blocks) < n_rows:
        raise ConfigError("cannot read dataset: the file changed while it was read")
    _check_block_length(blocks, n_rows + 1)
    from .estimator import Dataset

    arrays = [getattr(columns, name) for name in ("avail", "action", "prob", "outcome")]
    for arr in arrays:
        arr.setflags(write=False)  # the Dataset keeps the columns, not a copy
    return Dataset(*(arr.reshape(len(blocks), blocks[0]) for arr in arrays))


def _text_blocks(path):
    """The file's text, ``_READ_BLOCK`` characters at a time, as a text-mode
    ``open`` reads it, with universal newlines: LF, CR LF and CR end a line."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                yield from iter(functools.partial(fh.read, _READ_BLOCK), "")
            except UnicodeDecodeError:
                # decode the whole file, on this error path only, so that the
                # error names the byte's position in the file, not in the block
                fh.buffer.seek(0)
                fh.buffer.read().decode("utf-8")
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from None


def _line_texts(path):
    """For each block of :func:`_text_blocks` in which a line ends, the lines that end in it
    as one text with no final newline; then a last line with no newline, if there is one."""
    tail = []  # the pieces of the line read so far
    for text in _text_blocks(path):
        lines, newline, part = text.rpartition("\n")
        if newline:  # joined once, however many blocks a long line spans
            yield "".join([*tail, lines])
            tail = []
        tail.append(part)
    yield from filter(None, ["".join(tail)])


class _Columns:
    """Preallocated (R,) columns of a dataset CSV body of ``T``-row blocks."""

    def __init__(self, n_rows):
        self.T = 0  # leading rows that start with "0,": final once a row does not
        self.avail = np.empty(n_rows, dtype=np.int8)
        self.action = np.empty(n_rows, dtype=np.int8)
        self.prob = np.empty(n_rows)
        self.outcome = np.full(n_rows, np.nan)
        self.prob_memo = {}  # prob text -> value, NaN if it fails its checks
        self.filled = 0  # rows parsed so far

    def parse(self, text):
        """Fill the next rows from the lines of ``text``, newline-separated, as one byte buffer;
        False, with ``T`` and ``filled`` kept, unless it is ASCII with no NUL, every line passes
        its field checks, the subject and t texts are the layout's, no field is over 64 bytes and
        every outcome byte is one of ``+-.0-9Ee``, on whose texts numpy's cast reads what
        ``float`` reads."""
        start, size, T = self.filled, text.count("\n") + 1, self.T
        if not text.isascii() or "\0" in text or start + size > len(self.avail):
            return False  # or more rows than the first pass counted: a changed file
        buf = np.frombuffer(text.encode("ascii") + b"\n", dtype=np.uint8)
        ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))  # each field's end
        if ends.size != 6 * size or (buf[ends[5::6]] != ord("\n")).any():
            return False  # a line without 6 fields
        ends = ends.reshape(size, 6).T.copy()  # (6, L): one row a field
        first = np.zeros_like(ends)  # each field's first byte: 0, then 1 past the last end
        np.add(ends[5, :-1], 1, out=first[0, 1:])
        np.add(ends[:-1], 1, out=first[1:])
        width = ends - first
        if T == start:  # subject 0's block so far; the layout is the same for any longer T
            zero = (width[0] == 1) & (buf[first[0]] == ord("0"))
            T += size if zero.all() else int(zero.argmin())
        subject, t = np.divmod(np.arange(start, start + size), T or 1)
        flags = buf[first[2:4]]  # avail and action: a byte below "0" wraps past "1"
        if (not T or not _is_decimal(buf, ends[:2], width[:2], np.stack([subject, t + 1]))
                or (width[2:4] != 1).any() or (flags - ord("0") > 1).any()
                or width.max() > 64):  # a (rows, longest field) grid stays small
            return False
        avail, action = flags == ord("1")
        buf = np.concatenate((buf, np.zeros(width.max(), np.uint8)))  # room for windows
        prob = _field_texts(buf, first[4], width[4])
        one = prob[:1].tobytes() * size == prob.tobytes()  # as usual, one text for all rows
        texts = (prob[:1] if one else prob).tolist()
        memo = self.prob_memo
        memo.update((key, _prob_value(key.decode())) for key in set(texts).difference(memo))
        prob = np.fromiter(map(memo.__getitem__, texts), np.float64, len(texts))
        outcome = _field_texts(buf, first[5, avail], width[5, avail])
        if (np.isnan(prob).any() or ((width[5] == 0) == avail).any()  # an outcome iff avail
                or outcome.tobytes().translate(None, b"\0+-.0123456789Ee")):
            return False
        try:
            with np.errstate(over="ignore"):  # "1e309" reads as inf, as float reads it
                values = outcome.astype(np.float64)
        except ValueError:
            return False
        if not np.isfinite(values).all():
            return False
        rows = slice(start, start + size)
        self.avail[rows], self.action[rows], self.prob[rows] = avail, action, prob
        self.outcome[rows][avail] = values
        self.T, self.filled = T, start + size
        return True


def _is_decimal(buf, ends, width, values):
    """Whether each field of ``width`` bytes ending at ``ends`` is ``str`` of its value."""
    places, number = len(str(values.max())), np.zeros_like(values)
    ok = (width >= 1) & (width <= places) & ((buf[ends - width] != ord("0")) | (width == 1))
    for k in range(places):  # the digit k places from the right, 0 left of the field
        digit = (buf.take(ends - (k + 1), mode="clip") - np.uint8(ord("0"))) * (width > k)
        ok &= digit <= 9
        number += digit * np.int64(10**k)
    return (ok & (number == values)).all()


def _field_texts(buf, first, width):
    """The fields of ``width`` bytes from ``first`` as NUL-padded bytes (``S``) items."""
    size = max(int(width.max(initial=0)), 1)
    grid = np.ndarray((len(buf) - size + 1, size), np.uint8, buf, strides=(1, 1))[first]
    grid *= np.tri(size + 1, size, -1, dtype=np.uint8).take(width, axis=0)  # w ones in row w
    return grid.view(f"S{size}").ravel()


def _prob_value(text):
    """``float(text)`` if it lies in (0, 1), else NaN."""
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if 0.0 < value < 1.0 else math.nan


def _read_lines(lines, columns, blocks):
    """Parse body lines into ``columns`` one by one from row ``columns.filled``,
    adding them to ``blocks``, the rows of each subject block so far.

    Each line is split once and gets its field checks, then the block
    rules: a block starts where the subject changes, the previous block
    must be as long as subject 0's, the subject must be the block's index
    and t its position in the block.  The last block's length is left to
    the caller.  The first line that fails raises ConfigError.
    """
    for row, line in enumerate(lines, columns.filled):
        line_no = row + 2
        if row == len(columns.avail):
            raise ConfigError("cannot read dataset: the file changed while it was read")
        fields = line.split(",")
        if len(fields) != 6:
            raise ConfigError(
                f"line {line_no}: expected 6 comma-separated fields, got {len(fields)}")
        subject, t, avail, action, prob, outcome = fields
        try:
            subject = int(subject)
        except ValueError:
            raise ConfigError(
                f"line {line_no}: subject must be an integer, got {subject!r}") from None
        try:
            t = int(t)
        except ValueError:
            raise ConfigError(f"line {line_no}: t must be an integer, got {t!r}") from None
        if avail not in ("0", "1"):
            raise ConfigError(f"line {line_no}: avail must be 0 or 1, got {avail!r}")
        if action not in ("0", "1"):
            raise ConfigError(f"line {line_no}: action must be 0 or 1, got {action!r}")
        try:
            value = float(prob)
        except ValueError:
            raise ConfigError(f"line {line_no}: prob must be a number, got {prob!r}") from None
        if not (0.0 < value < 1.0):
            raise ConfigError(
                f"line {line_no}: randomization probability must lie in (0, 1), got {prob}")
        columns.prob[row] = value
        columns.action[row] = action == "1"
        columns.avail[row] = avail == "1"
        if avail == "0":
            if outcome != "":
                raise ConfigError(
                    f"line {line_no}: outcome must be empty when avail is 0, got {outcome!r}")
        else:
            try:
                value = float(outcome)
            except ValueError:
                raise ConfigError(
                    f"line {line_no}: outcome must be a number, got {outcome!r}") from None
            if not math.isfinite(value):
                raise ConfigError(
                    f"line {line_no}: outcome must be a finite number, got {outcome!r}")
            columns.outcome[row] = value

        if not blocks or subject != len(blocks) - 1:
            _check_block_length(blocks, line_no)
            if subject != len(blocks):
                raise ConfigError(
                    f"line {line_no}: subject ids must be contiguous from 0 "
                    f"(expected {len(blocks)}, got {subject})"
                )
            blocks.append(0)
        blocks[-1] += 1
        if t != blocks[-1]:
            raise ConfigError(
                f"line {line_no}: expected decision time {blocks[-1]} for "
                f"subject {subject}, got {t}"
            )


def _check_block_length(blocks, line_no):
    """The block that ends at ``line_no`` must be as long as subject 0's."""
    if blocks and blocks[-1] != blocks[0]:
        raise ConfigError(
            f"line {line_no}: subject {len(blocks) - 1} has {blocks[-1]} "
            f"rows but subject 0 has {blocks[0]}"
        )


# ---------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------


def _emit(payload):
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _digest(command, config, flags):
    return _canonical_digest({"command": command, "config": config, "flags": flags})


def _axis(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    return f"{value:g}"


def _render_table(corner, col_values, row_values, cells):
    head = [corner] + [_axis(v) for v in col_values]
    body = [[_axis(rv)] + [str(c) for c in row] for rv, row in zip(row_values, cells)]
    widths = [max(len(line[j]) for line in [head] + body) for j in range(len(head))]
    return "\n".join(
        "  ".join(s.rjust(w) for s, w in zip(line, widths)) for line in [head] + body
    )


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------


@click.group()
def main():
    """Sizing, power, analysis and simulation for micro-randomized trials."""


@main.command("size")
@click.argument("config_file", type=click.Path())
@click.option("--grid", is_flag=True,
              help="Sweep the config's grid block (effect x availability averages).")
@_guarded
def size_command(config_file, grid):
    """Solve for the minimal sample size meeting the power target."""
    raw = load_config(config_file)
    cfg = _Section(raw)
    design = _read_design(cfg)
    features = build_quadratic_features(design)
    build_trial = _read_trial(cfg, design)
    alpha0 = _alpha0(cfg)
    target = cfg.number("power", low=0.0, high=1.0, open_low=True, open_high=True)
    grid_sec = cfg.section("grid", required=False)
    effect_axis = avail_axis = None
    if grid_sec is not None:
        effect_axis = grid_sec.number_list("effect_averages")
        avail_axis = grid_sec.number_list("availability_averages", low=0.0, high=1.0,
                                          open_low=True)
        grid_sec.finish()
    cfg.finish()
    digest = _digest("size", raw, {"grid": bool(grid)})

    def solve(*averages):
        tau, effect = build_trial(*averages, sizing=True)
        return solve_sample_size(SizingInputs(design=design, features=features, tau=tau,
                                              effect=effect, alpha0=alpha0, power_target=target))

    if grid:
        if effect_axis is None:
            raise ConfigError("--grid requires a 'grid' block with effect_averages and "
                              "availability_averages")
        results = [[solve(d, a) for a in avail_axis] for d in effect_axis]
        sizes = [[r.n for r in row] for row in results]
        click.echo(_render_table("effect avg \\ avail avg", avail_axis, effect_axis, sizes),
                   err=True)
        _emit({
            "alpha0": alpha0, "power_target": target,
            "effect_averages": effect_axis, "availability_averages": avail_axis, "n": sizes,
            "achieved_power": [[r.achieved_power for r in row] for row in results],
            "power_at_n_minus_1": [[r.power_at_n_minus_1 for r in row] for row in results],
            "config_digest": digest,
        })
    else:
        result = solve()
        click.echo(f"minimal sample size n = {result.n} (power {result.achieved_power:.4f}; "
                   f"at n-1: {result.power_at_n_minus_1:.4f})", err=True)
        payload = result.to_dict()
        payload["config_digest"] = digest
        _emit(payload)


@main.command("power")
@click.argument("config_file", type=click.Path())
@click.option("--mc", is_flag=True, help="Add a Monte Carlo estimate next to the analytic value.")
@click.option("--reps", type=int, default=None, help="Replicates for --mc (overrides config).")
@click.option("--seed", type=int, default=None, help="Seed for --mc (overrides config).")
@click.option("--threads", type=int, default=None, help="Worker processes for --mc.")
@_guarded
def power_command(config_file, mc, reps, seed, threads):
    """Analytic power at a fixed sample size, against the power target."""
    raw = load_config(config_file)
    cfg = _Section(raw)
    design = _read_design(cfg)
    features = build_quadratic_features(design)
    build_trial = _read_trial(cfg, design)
    alpha0 = _alpha0(cfg)
    n = cfg.integer("n", low=1)
    target = cfg.number("power", 0.8, low=0.0, high=1.0, open_low=True, open_high=True)
    build_model = _read_scenario(cfg, required=False)
    reps, seed, adjusted, gram = _monte_carlo_keys(cfg, reps, seed)
    cfg.finish()

    tau, effect = build_trial()
    inputs = SizingInputs(
        design=design, features=features, tau=tau, effect=effect,
        alpha0=alpha0, power_target=target,
    )
    value = analytic_power(n, inputs)
    reached = value >= target
    verdict = f"{'reaches' if reached else 'misses'} the target {target:g}"
    payload = {
        "n": n,
        "alpha0": alpha0,
        "noncentrality": noncentrality(n, effect, inputs.q_matrix),
        "analytic_power": value,
        "power_target": target,
        "target_reached": reached,
        "config_digest": _digest("power", raw, {"mc": mc, "reps": reps if mc else None,
                                                "seed": seed if mc else None}),
    }
    if mc:
        from .simulate import monte_carlo

        report = monte_carlo(build_model(design, tau, effect, seed), n, reps, alpha0, adjusted,
                             seed=seed, gram=gram, threads=threads)
        payload["monte_carlo"] = report.to_dict()
        click.echo(f"analytic power {value:.4f} ({verdict}); simulated rate {report.rate:.4f} "
                   f"(95% CI {report.ci_low:.4f}-{report.ci_high:.4f}, "
                   f"{report.replicates}/{report.requested} replicates)", err=True)
    else:
        click.echo(f"analytic power at n = {n}: {value:.4f} ({verdict})", err=True)
    _emit(payload)


@main.command("analyze")
@click.argument("dataset_file", type=click.Path())
@click.argument("config_file", type=click.Path())
@_guarded
def analyze_command(dataset_file, config_file):
    """Test for a proximal treatment effect in a CSV dataset."""
    raw = load_config(config_file)
    cfg = _Section(raw)
    design = _read_design(cfg)
    alpha0 = _alpha0(cfg)
    adjusted, gram = _test_keys(cfg)
    cfg.finish()

    from .estimator import hypothesis_test

    result = hypothesis_test(read_dataset(dataset_file), build_quadratic_features(design),
                             alpha0, adjusted, gram=gram)
    click.echo(f"n = {result.n}; statistic {result.statistic:.6g} vs critical "
               f"{result.critical_value:.6g}; p = {result.p_value:.4g}; "
               f"reject = {result.reject}", err=True)
    payload = result.to_dict()
    payload["config_digest"] = _digest("analyze", raw, {})
    _emit(payload)


# name -> (row label, row values, column label, column values,
# model(GenerativeModel, design, errors, row value, column value)); one
# monte_carlo run per cell, N = 42
_PAPER_TABLES = {
    "typeI-6wk": (
        "scenario", ("null-6wk",), "availability average", (0.5, 0.7),
        lambda cls, design, errors, _scenario, avg: cls.working_true(
            design, EffectPath.quadratic(np.zeros(3), design),
            make_availability("constant", avg, design), errors,
        ),
    ),
    "power-hetero": (
        "variance ratio", (1.2, 1.0, 0.8),
        "variance trend", ("constant", "increasing", "decreasing"),
        lambda cls, design, errors, ratio, trend: cls.heteroscedastic(
            design, elicit_quadratic_effect(0.0, 0.10, 29, design),
            make_availability("constant", 0.5, design), errors,
            variance_ratio=ratio, variance_trend=trend,
        ),
    ),
}
PAPER_TABLES = tuple(_PAPER_TABLES)


def _run_paper_table(name, reps, seed, adjusted, gram, *, threads):
    if name not in _PAPER_TABLES:
        raise ConfigError(f"unknown table id {name!r}; expected one of {', '.join(PAPER_TABLES)}")
    from .simulate import ErrorProcess, GenerativeModel, monte_carlo

    row_label, row_values, col_label, col_values, model = _PAPER_TABLES[name]
    design = TrialDesign(days=42, decisions_per_day=5, rho=0.4)
    errors = ErrorProcess("iid-normal")
    reports = [[monte_carlo(model(GenerativeModel, design, errors, row, col), 42, reps, 0.05,
                            adjusted, seed=seed, gram=gram, threads=threads)
                 for col in col_values] for row in row_values]
    payload = {
        "table": name,
        "n": 42,
        "alpha0": 0.05,
        "reps": reps,
        "seed": seed,
        "row_label": row_label,
        "row_values": list(row_values),
        "col_label": col_label,
        "col_values": list(col_values),
        "rates": [[r.rate for r in row] for row in reports],
        "reports": [[r.to_dict() for r in row] for row in reports],
        "config_digest": _digest("simulate", {"paper_table": name}, {"reps": reps, "seed": seed}),
    }
    table = _render_table(f"{row_label} \\ {col_label}", col_values, row_values,
                          [[f"{r.rate:.3f}" for r in row] for row in reports])
    return payload, table


def _export_replicate(directory, width, replicate, dataset):
    write_dataset(dataset, os.path.join(directory, f"replicate-{replicate:0{width}d}.csv"))


@main.command("simulate")
@click.argument("config_file", type=click.Path(), required=False)
@click.option("--reps", type=int, default=None, help="Replicates (overrides config).")
@click.option("--seed", type=int, default=None, help="Seed (overrides config).")
@click.option("--threads", type=int, default=None, help="Worker processes.")
@click.option("--export", "export_dir", type=click.Path(), default=None,
              help="Write each replicate's dataset as CSV into this directory.")
@click.option("--paper-table", "paper_table", type=str, default=None,
              help=f"Run a bundled preset grid ({', '.join(PAPER_TABLES)}).")
@_guarded
def simulate_command(config_file, reps, seed, threads, export_dir, paper_table):
    """Estimate the rejection rate of a generative scenario by Monte Carlo."""
    if paper_table is not None:
        if config_file is not None:
            raise ConfigError(
                "--paper-table presets are self-contained; do not pass a config file")
        if export_dir is not None:
            raise ConfigError("--paper-table presets run several cells whose replicate "
                              "files would collide; do not pass --export")
        payload, table = _run_paper_table(
            paper_table, *_monte_carlo_keys(_Section({}), reps, seed), threads=threads)
        click.echo(table, err=True)
        _emit(payload)
        return
    if config_file is None:
        raise ConfigError("missing CONFIG_FILE argument (or use --paper-table)")

    raw = load_config(config_file)
    cfg = _Section(raw)
    design = _read_design(cfg)
    build_trial = _read_trial(cfg, design)
    build_model = _read_scenario(cfg, required=True)
    n = cfg.integer("n", low=1)
    alpha0 = _alpha0(cfg)
    reps, seed, adjusted, gram = _monte_carlo_keys(cfg, reps, seed)
    cfg.finish()

    from .simulate import monte_carlo

    model = build_model(design, *build_trial(), seed)
    export = None
    if export_dir is not None:
        try:
            os.makedirs(export_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create export directory: {exc}") from None
        export = functools.partial(_export_replicate, export_dir, max(4, len(str(reps - 1))))
    report = monte_carlo(model, n, reps, alpha0, adjusted, seed=seed, gram=gram,
                         threads=threads, each_dataset=export)
    if export_dir is not None:
        click.echo(f"wrote {reps} replicate dataset(s) to {export_dir}", err=True)
    click.echo(f"rejection rate {report.rate:.4f} "
               f"(95% CI {report.ci_low:.4f}-{report.ci_high:.4f}) from "
               f"{report.replicates}/{report.requested} replicates"
               + (f"; {report.failures} failed" if report.failures else ""), err=True)
    _emit(report.to_dict())


if __name__ == "__main__":
    main()
