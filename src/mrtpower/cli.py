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

Configuration is a single JSON document per run.  It validates completely
before any computation starts, unknown keys are errors, and every message
carries the offending field path.  Machine output (JSON) goes to standard
output; human-readable tables and notes go to standard error.  Exit codes:
0 success, 2 configuration/validation error, 3 numeric failure.

Dataset CSV format (bit-exact round trip): header
``subject,t,avail,action,prob,outcome``, one row per subject per decision
time, decimals serialized with 17 significant digits, and the outcome field
literally empty when avail=0.
"""

import codecs
import contextlib
import functools
import io
import itertools
import json
import math
import operator
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
# block parsers and builders
# ---------------------------------------------------------------------


def _parse_design(cfg):
    sec = cfg.section("design")
    days = sec.integer("days", low=1)
    per_day = sec.integer("decisions_per_day", low=1)
    rho = sec.number_or_list("rho", low=0.0, high=1.0, open_low=True, open_high=True)
    sec.finish()
    return TrialDesign(days=days, decisions_per_day=per_day, rho=rho)


def _availability_params(cfg):
    sec = cfg.section("availability")
    params = {
        "kind": sec.string("kind", choices=AVAILABILITY_KINDS),
        "average": sec.number("average", low=0.0, high=1.0, open_low=True),
        "shape": {},
    }
    if params["kind"] != "constant":
        params["shape"]["amplitude"] = sec.number("amplitude")
    if params["kind"] == "piecewise":
        params["shape"]["break_day"] = sec.integer("break_day", low=1)
    sec.finish()
    return params


def _build_availability(params, design, average=None):
    return make_availability(
        params["kind"],
        params["average"] if average is None else average,
        design,
        **params["shape"],
    )


def _effect_params(cfg):
    sec = cfg.section("effect")
    form = sec.string("form", choices=EFFECT_FORMS)
    if form == "quadratic":
        params = {
            "form": form,
            "initial": sec.number("initial", 0.0),
            "average": sec.number("average"),
            "max_day": sec.integer("max_day", low=1),
        }
    else:
        params = {
            "form": form,
            "average": sec.number("average"),
            "max_day": sec.integer("max_day", low=1),
            "plateau_fraction": sec.number("plateau_fraction", low=0.0, high=1.0),
        }
    sec.finish()
    return params


def _build_effect(params, design, average=None):
    avg = params["average"] if average is None else average
    if params["form"] == "quadratic":
        return elicit_quadratic_effect(params["initial"], avg, params["max_day"], design)
    from .simulate import shaped_effect

    return shaped_effect(design, avg, params["max_day"], params["plateau_fraction"])


def _parse_errors(cfg):
    """The ``errors`` block as an ``ErrorProcess``; None (iid-normal) when absent."""
    sec = cfg.section("errors", required=False)
    if sec is None:
        return None
    from .simulate import ERROR_FAMILIES, ErrorProcess

    family = sec.string("family", choices=ERROR_FAMILIES)
    phi = sec.number("phi", _MISSING if family in ("ar1", "ar5") else 0.0)
    sec.finish()
    return ErrorProcess(family, phi)


def _scenario_spec(cfg, *, required):
    sec = cfg.section("scenario", required=required)
    if sec is None:
        return {"name": "working-true"}
    from .simulate import SCENARIOS, VARIANCE_TRENDS

    name = sec.string("name", choices=SCENARIOS)
    spec = {"name": name}
    if name == "weekend-mean":
        spec["theta"] = sec.number("theta")
    elif name == "heteroscedastic":
        spec["variance_ratio"] = sec.number("variance_ratio", low=0.0, open_low=True)
        spec["variance_trend"] = sec.string("variance_trend", choices=VARIANCE_TRENDS)
    elif name == "availability-feedback":
        spec["eta"] = sec.number("eta")
    elif name == "treatment-feedback":
        for key in ("eta1", "eta2", "gamma1", "gamma2"):
            spec[key] = sec.number(key)
        reps = sec.integer("calibration_reps", None, low=1)
        spec["calibration"] = {} if reps is None else {"reps": reps}
    sec.finish()
    return spec


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


def _instantiate_model(spec, design, effect, tau, errors, *, seed):
    from .simulate import ErrorProcess, GenerativeModel, calibrate_sigma_star

    if errors is None:
        errors = ErrorProcess("iid-normal")
    params = dict(spec)
    build = getattr(GenerativeModel, params.pop("name").replace("-", "_"))
    calibration = params.pop("calibration", None)
    model = build(design, effect, tau, errors, **params)
    if calibration is not None:
        model = calibrate_sigma_star(model, **calibration, seed=seed)
    return model


# ---------------------------------------------------------------------
# dataset CSV I/O
# ---------------------------------------------------------------------


_READ_CHUNK = 4096  # lines: the reader holds one chunk of lines, the writer about one of rows
_READ_BLOCK = 1 << 16  # bytes per read of a dataset file, decoded a block at a time


def write_dataset(dataset, path):
    """Write a :class:`~mrtpower.estimator.Dataset` as round-trip CSV.

    Columns are formatted a block of subjects, about ``_READ_CHUNK`` lines,
    at a time, and each block is one ``write``.
    """
    n, t_len = dataset.avail.shape
    block = max(1, _READ_CHUNK // t_len)
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


_BINARY = frozenset(("0", "1"))


def read_dataset(path):
    """Read a dataset CSV into one :class:`~mrtpower.estimator.Dataset`.

    Subjects must appear as contiguous blocks numbered from 0, decision
    times must run 1..T within each block, and every block must have the
    same length.  A bad file is reported at its first bad line in file
    order, with that line's number and the first check it fails.  Numbers
    are read by ``int`` and ``float``, so exactly what they accept is
    accepted.

    The file is streamed: a first pass decodes it and counts its lines, so
    an undecodable byte is reported before any bad line.  A valid file laid
    out as ``write_dataset`` lays it out (subject and t texts ``str(i)`` and
    ``"1"``..``str(T)``) is then parsed column by column, ``_READ_CHUNK``
    lines at a time; any other file is read again from line 1 and parsed
    line by line, in file order, by :func:`_read_lines`.  So the reader
    holds the columns, one block and one chunk of lines, never the whole
    text or a list of all its lines.
    """
    n_rows, end = -1, "\n"  # lines after the header; the text's last character
    for text in _text_blocks(path):
        n_rows += text.count("\n")
        end = text[-1:] or end
    n_rows += end != "\n"  # a last line with no newline
    with contextlib.closing(_line_chunks(path)) as chunks:
        if next(chunks, None) != [DATASET_HEADER]:
            raise ConfigError(f"line 1: dataset header must be exactly {DATASET_HEADER!r}")
        if n_rows == 0:
            raise ConfigError("dataset has no data rows")
        columns = _Columns(n_rows)
        columnar = all(map(columns.parse, chunks)) and n_rows % columns.T == 0
    if columnar:
        shape = n_rows // columns.T, columns.T
    else:
        with contextlib.closing(_line_chunks(path)) as chunks:
            shape = _read_lines(itertools.chain.from_iterable(chunks), columns)
    from .estimator import Dataset

    arrays = [getattr(columns, name) for name in ("avail", "action", "prob", "outcome")]
    for arr in arrays:
        arr.setflags(write=False)  # the Dataset keeps the columns, not a copy
    return Dataset(*(arr.reshape(shape) for arr in arrays))


def _text_blocks(path):
    """The file's text, ``_READ_BLOCK`` bytes at a time, decoded as a text-mode
    ``open`` decodes it, with universal newlines: LF, CR LF and CR end a line."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), True)
    try:
        with open(path, "rb") as fh:
            while True:
                block = fh.read(_READ_BLOCK)
                try:
                    yield decoder.decode(block, final=not block)
                except UnicodeDecodeError:
                    # decode the whole file, on this error path only, so that the
                    # error names the byte's position in the file, not in the block
                    fh.seek(0)
                    fh.read().decode("utf-8")
                    raise
                if not block:
                    return
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from None


def _line_chunks(path):
    """The file's first line as a list, then its other lines, ``_READ_CHUNK`` a list."""
    lines, tail, size = [], [], 1  # tail: the pieces of the line read so far
    for text in _text_blocks(path):
        first, *rest = text.split("\n")
        tail.append(first)
        if rest:  # joined once, however many blocks a long line spans
            lines += ["".join(tail), *rest[:-1]]
            tail = rest[-1:]
        while len(lines) >= size:
            yield lines[:size]
            del lines[:size]
            size = _READ_CHUNK
    lines += filter(None, ["".join(tail)])  # a last line with no newline
    if lines:
        yield lines


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

    def parse(self, chunk):
        """Fill the next ``len(chunk)`` rows; False unless every line passes
        its field checks and the subject and t texts are the layout's."""
        start, size = self.filled, len(chunk)
        self.filled += size
        if self.T == start:  # subject 0's block so far; the layout is the same for any longer T
            self.T += sum(1 for _ in itertools.takewhile(
                operator.methodcaller("startswith", "0,"), chunk))
        if not self.T:
            return False
        rows = slice(start, start + size)
        if list(map(str.count, chunk, itertools.repeat(","))).count(5) != size:
            return False
        flat = ",".join(chunk).split(",")
        subject, t, avail, action, prob, outcome = (flat[k::6] for k in range(6))
        if (subject, t) != _layout_texts(start, start + size, self.T):
            return False
        if not _BINARY.issuperset(avail) or not _BINARY.issuperset(action):
            return False
        avail = _binary_column(avail)
        self.avail[rows] = avail
        self.action[rows] = _binary_column(action)

        memo = self.prob_memo
        new = set(prob).difference(memo)
        memo.update(zip(new, map(_prob_value, new)))
        self.prob[rows] = np.fromiter(map(memo.__getitem__, prob), np.float64, size)
        if np.isnan(self.prob[rows]).any():
            return False

        if any(itertools.compress(outcome, (~avail).tolist())):
            return False  # an outcome on an unavailable row
        on = np.flatnonzero(avail)
        try:
            values = np.fromiter(map(float, itertools.compress(outcome, avail.tolist())),
                                 np.float64, on.size)
        except ValueError:
            return False
        self.outcome[start + on] = values
        return bool(np.isfinite(values).all())


def _layout_texts(start, stop, T):
    """The subject and t texts of rows ``start:stop`` of a file of T-row blocks.

    Built for those rows alone, so they take O(stop - start) memory at any T.
    """
    block, offset = divmod(start, T)
    head = min(T - offset, stop - start)  # rows left in the first block
    full, tail = divmod(stop - start - head, T)  # whole blocks after it, then the rest
    counts = [head] + [T] * full + [tail]
    period = list(map(str, range(1, min(T, stop - start - head) + 1)))
    subject = list(itertools.chain.from_iterable(
        map(itertools.repeat, map(str, itertools.count(block)), counts)))
    t = list(map(str, range(offset + 1, offset + head + 1))) + period * full + period[:tail]
    return subject, t


def _binary_column(texts):
    """Texts known to be "0" or "1" as a bool array."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint8) == ord("1")


def _prob_value(text):
    """``float(text)`` if it lies in (0, 1), else NaN."""
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if 0.0 < value < 1.0 else math.nan


def _read_lines(lines, columns):
    """Parse a dataset CSV body into ``columns`` line by line; return (N, T).

    Each line is split once and gets its field checks, then the block
    rules: a block starts where the subject changes, the previous block
    must be as long as subject 0's, the subject must be the block's index
    and t its position in the block.  The last block's length is checked
    at the last line.  The first line that fails raises ConfigError.
    """
    columns.outcome.fill(np.nan)
    blocks = []  # rows of each subject block so far, in subject order
    for row, line in enumerate(itertools.islice(lines, 1, None)):
        line_no = row + 2
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
        if avail not in _BINARY:
            raise ConfigError(f"line {line_no}: avail must be 0 or 1, got {avail!r}")
        if action not in _BINARY:
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
    _check_block_length(blocks, line_no)
    return len(blocks), blocks[0]


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
    design = _parse_design(cfg)
    features = build_quadratic_features(design)
    avail_params = _availability_params(cfg)
    effect_params = _effect_params(cfg)
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

    def solve(effect_average=None, avail_average=None):
        average = effect_params["average"] if effect_average is None else effect_average
        if average == 0.0 and effect_params.get("initial", 0.0) == 0.0:
            raise ConfigError(
                "no solution: null effect (a zero average standardized effect "
                "can never reach the power target)"
            )
        return solve_sample_size(SizingInputs(
            design=design, features=features,
            tau=_build_availability(avail_params, design, avail_average),
            effect=_build_effect(effect_params, design, effect_average),
            alpha0=alpha0, power_target=target))

    if grid:
        if effect_axis is None:
            raise ConfigError("--grid requires a 'grid' block with effect_averages and "
                              "availability_averages")
        results = [[solve(effect_average=d, avail_average=a) for a in avail_axis]
                   for d in effect_axis]
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
    design = _parse_design(cfg)
    features = build_quadratic_features(design)
    avail_params = _availability_params(cfg)
    effect_params = _effect_params(cfg)
    alpha0 = _alpha0(cfg)
    n = cfg.integer("n", low=1)
    target = cfg.number("power", 0.8, low=0.0, high=1.0, open_low=True, open_high=True)
    errors = _parse_errors(cfg)
    spec = _scenario_spec(cfg, required=False)
    reps, seed, adjusted, gram = _monte_carlo_keys(cfg, reps, seed)
    cfg.finish()

    tau = _build_availability(avail_params, design)
    effect = _build_effect(effect_params, design)
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

        model = _instantiate_model(spec, design, effect, tau, errors, seed=seed)
        report = monte_carlo(model, n, reps, alpha0, adjusted, seed=seed, gram=gram,
                             threads=threads)
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
    design = _parse_design(cfg)
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
        payload, table = _run_paper_table(
            paper_table, *_monte_carlo_keys(_Section({}), reps, seed), threads=threads)
        click.echo(table, err=True)
        _emit(payload)
        return
    if config_file is None:
        raise ConfigError("missing CONFIG_FILE argument (or use --paper-table)")

    raw = load_config(config_file)
    cfg = _Section(raw)
    design = _parse_design(cfg)
    avail_params = _availability_params(cfg)
    effect_params = _effect_params(cfg)
    errors = _parse_errors(cfg)
    spec = _scenario_spec(cfg, required=True)
    n = cfg.integer("n", low=1)
    alpha0 = _alpha0(cfg)
    reps, seed, adjusted, gram = _monte_carlo_keys(cfg, reps, seed)
    cfg.finish()

    from .simulate import monte_carlo

    tau = _build_availability(avail_params, design)
    effect = _build_effect(effect_params, design)
    model = _instantiate_model(spec, design, effect, tau, errors, seed=seed)
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
