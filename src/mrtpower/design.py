"""
Trial-design construction: decision-time grids, feature paths, availability
patterns, and standardized proximal-effect paths.

Conventions used throughout the package:

* decision times are t = 1..T with T = days * decisions_per_day;
* the (zero-based) day index of decision t is u_t = floor((t-1)/m), so the
  quadratic feature path is Z_t = B_t = (1, u_t, u_t^2)';
* an effect path d(t) is the proximal treatment effect standardized by the
  average conditional outcome standard deviation;
* every per-decision-time path (rho, tau, an effect, a generative model's
  mean and noise) is read by :func:`_real_array`, one rule for all: 1-D of
  length T, each entry a finite number in range, a scalar only as rho;
* every Gram matrix is guarded and solved on its equilibrated (unit-diagonal)
  form by :func:`_equilibrated_eigh`, so long trials' large u^2 column is harmless;
* every frozen type of the package is declared by :func:`_value_type`, one
  rule for all: arrays are read-only, and two instances are equal, and hash
  alike, when their scalar fields and the dtype, shape and bytes of their
  arrays agree (a dataset, a fit, a test result and a generative model are
  unhashable).
  The hash is computed once per instance, and pickling re-runs the
  constructor, so a copy is validated and read-only again, and neither a
  hash, a cached array nor a cached text (a generative model's encoded
  description) travels to another process;
* :func:`make_availability`, :func:`elicit_quadratic_effect` and
  :func:`build_quadratic_features` validate their arguments on every call,
  then return the object built for the same normalized arguments and design
  if there is one.  Each keeps a bounded memo (floats keyed by their bits;
  errors are never cached), so every guard runs once per distinct input and
  a sizing grid builds each distinct availability, effect and feature set
  once (``samplesize`` keeps each distinct Q the same way).  A memo keeps
  at most ``_MEMO_SIZE`` = 32 entries of up to 9 T-length float arrays each,
  32 x 9 x T x 8 bytes (473 KiB at T = 210).

Returned objects can be shared freely across threads and processes.
"""

import hashlib
import json
import math
import numbers
import operator
import struct
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import ConfigError, NumericError

__all__ = [
    "GRAM_KINDS",
    "TrialDesign",
    "FeaturePaths",
    "AvailabilityPattern",
    "EffectPath",
    "build_quadratic_features",
    "elicit_quadratic_effect",
    "make_availability",
    "project_effect",
]

# availability kind -> the shape parameters it reads
_SHAPE_PARAMS = {
    "constant": (),
    "linear": ("amplitude",),
    "weekly-periodic": ("amplitude",),
    "piecewise": ("amplitude", "break_day"),
}
AVAILABILITY_KINDS = tuple(_SHAPE_PARAMS)

# Gram conventions of the hypothesis test's hat matrix (see ``estimator``);
# kept here so the config reader checks ``gram`` without loading the estimator.
GRAM_KINDS = ("summed", "averaged")

# Entries kept by each builder memo, and by samplesize's Q memo.  An entry
# keeps alive its result and its key: at most a design (rho and its day
# index), an availability pattern and a feature set (Z and B), 9 T-length
# float arrays, so a memo holds at most 32 x 9 x T x 8 bytes, 473 KiB at
# T = 210.  A 96-cell sizing grid needs 4 availability, 6 effect, 1 feature
# and 4 Q entries.
_MEMO_SIZE = 32

# Relative eigenvalue threshold below which a symmetric matrix is treated as
# singular, applied to the equilibrated (unit-diagonal) matrix and scaled by
# its trace; the estimator's (I - H) guard uses it too.
_SINGULAR_REL_TOL = 1e-12


def _freeze(arr, dtype=np.float64):
    """A read-only array of ``dtype`` holding ``arr``'s values.

    A read-only input of the dtype is kept as it is, so a view stays a
    view; anything else is copied, so a caller's writable array stays
    writable.  Hot paths hand their own buffers over already read-only.
    """
    if isinstance(arr, np.ndarray) and arr.dtype == dtype and not arr.flags.writeable:
        return arr
    arr = np.array(arr, dtype=dtype, order="C", ndmin=1)
    arr.setflags(write=False)
    return arr


_NOT_NUMBERS = {"U": "strings", "S": "bytes", "O": "Python objects", "c": "complex numbers"}


def _real_array(value, name, T=None, low=None, high=None, *,
                open_low=False, open_high=False, broadcast=False):
    """``value`` as a float64 array, not copied if it is one already.

    An array of strings, bytes, objects or complex numbers, numeric strings
    such as "0.4" included, raises :class:`ConfigError` naming ``name``, as
    :func:`_real` does for a scalar.  Given a length ``T`` (``...``: any
    non-empty length), this is the whole path rule: a 1-D array of length T
    (a scalar repeated T times when ``broadcast``) whose every entry passes
    :func:`_real` with these bounds, returned by :func:`_freeze`.
    """
    arr = np.asarray(value)
    if arr.dtype.kind in _NOT_NUMBERS:
        raise ConfigError(f"{name} must hold numbers, got {_NOT_NUMBERS[arr.dtype.kind]}")
    arr = arr.astype(np.float64, copy=False)
    if T is None:
        return arr
    if T is ...:
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigError(f"{name} must be 1-D and non-empty, got shape {arr.shape}")
    elif arr.shape != (T,) and not (broadcast and arr.shape in ((), (1,))):
        scalar = "be a scalar or " if broadcast else ""
        raise ConfigError(f"{name} must {scalar}have length {T}, got shape {arr.shape}")
    for extreme in (arr.min(), arr.max()):  # a NaN is both
        _real(float(extreme), f"every entry of {name}" if arr.ndim else name, low, high,
              open_low=open_low, open_high=open_high)
    if broadcast and arr.shape != (T,):
        try:
            arr = np.full(T, arr)
        except ValueError:  # numpy's "Maximum allowed dimension exceeded"
            raise ConfigError(
                f"the design has T = {T} decision times, more than an array can hold"
            ) from None
    return _freeze(arr)


_FLOAT = struct.Struct("<d")


def _bits(value):
    """A float's 8 bytes, as a memo key that keeps -0.0 and 0.0 apart."""
    return _FLOAT.pack(value)


def _unbits(key):
    return _FLOAT.unpack(key)[0]


def _value_key(obj):
    # a frozen dataclass's content: scalar fields as they are, each array as
    # (dtype, shape, bytes)
    return tuple(
        (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
        for v in (getattr(obj, f.name) for f in fields(obj))
    )


def _value_eq(self, other):
    """``==`` by content (see :func:`_value_key`); never an array comparison."""
    if other is self:
        return True
    if type(other) is not type(self):
        return NotImplemented
    return _value_key(self) == _value_key(other)


def _value_hash(self):
    """Hash of the content, computed once per instance."""
    try:
        return self.__dict__["_hash"]
    except KeyError:
        value = self.__dict__["_hash"] = hash(_value_key(self))
        return value


def _reduce_through_init(self):
    # Pickle a frozen dataclass as a constructor call, so a copy is validated
    # and read-only again (restoring __dict__ would leave writeable arrays,
    # and carry a hash of per-process salted bytes, a cached array or text).
    return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


def _value_type(cls=None, *, hashable=True):
    """Declare ``cls`` a frozen dataclass that is a value, as every frozen type
    of the package is: ``==`` by content (:func:`_value_eq`), a hash of the
    content computed once (:func:`_value_hash`; none when ``hashable`` is
    false), and pickling through the constructor
    (:func:`_reduce_through_init`).  Use as ``@_value_type`` or
    ``@_value_type(hashable=False)``.
    """
    def declare(cls):
        cls = dataclass(frozen=True, eq=False)(cls)
        cls.__eq__ = _value_eq
        cls.__hash__ = _value_hash if hashable else None
        cls.__reduce__ = _reduce_through_init
        return cls

    return declare if cls is None else declare(cls)


def _integer(value, name, low=None, high=None):
    """``value`` as an int by ``operator.index`` (bools refused), in [low, high].

    Anything else, 2.0 included, raises :class:`ConfigError` naming ``name``.
    A count that sizes an array passes the largest size it may take as
    ``high``, so a value numpy cannot hold fails here, before any allocation.
    """
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if (low is None or index >= low) and (high is None or index <= high):
                return index
    kind = {None: "an integer", 0: "a nonnegative integer"}.get(low, f"an integer >= {low}")
    if high is not None:
        kind += f" {'and ' if low else ''}<= {high}"
    raise ConfigError(f"{name} must be {kind}, got {value!r}")


def _real(value, name, low=None, high=None, *, open_low=False, open_high=False):
    """``value`` as a finite float in [low, high] (an end is left open on request).

    Any ``numbers.Real`` but a bool passes, numpy scalars included.  A
    string, NaN, an infinity, an integer too large for a float or a value
    out of range raises :class:`ConfigError` naming ``name``.  An exact
    float or int skips the abstract-class test, the slow part of the rule.
    """
    kind = type(value)
    if kind is not float and kind is not int and (
            kind is bool or not isinstance(value, numbers.Real)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(
            f"{name} must be a number, got an integer too large for a float"
        ) from None
    if (math.isfinite(number)
            and (low is None or (number > low if open_low else number >= low))
            and (high is None or (number < high if open_high else number <= high))):
        return number
    if high is None:
        bound = "" if low is None else f" {'>' if open_low else '>='} {low:g}"
    elif low is None:
        bound = f" {'<' if open_high else '<='} {high:g}"
    else:
        bound = f" in {'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
    raise ConfigError(f"{name} must be a number{bound}, got {value!r}")


def _level(alpha0, name="alpha0"):
    """``alpha0`` as a float in (0, 0.5) by :func:`_real`.  A level whose
    1 - alpha0 rounds to 1.0 raises :class:`ConfigError` too, as no
    level-alpha0 test exists in double precision."""
    alpha0 = _real(alpha0, name, 0.0, 0.5, open_low=True, open_high=True)
    if 1.0 - alpha0 == 1.0:
        raise ConfigError(
            f"{name} must leave 1 - {name} below 1.0 in double precision, got {alpha0!r}"
        )
    return alpha0


def _choice(value, name, choices):
    """``value`` as a ``str`` among ``choices``, else :class:`ConfigError` naming ``name``."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    if value not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}; got {value!r}")
    return str(value)


def _flag(value, name):
    """``value``, a bool (numpy's too), as a Python bool; else :class:`ConfigError`."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return bool(value)


# ``value`` as sorted, compact JSON text; one encoder for every call, where
# ``json.dumps`` with these options would build one per call
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _canonical_digest(payload, **encoded):
    """sha256 hex digest of the dict ``payload`` as sorted, compact, UTF-8 JSON.

    Each keyword adds one more entry, its value given already encoded as
    :func:`_canonical_json` text; the digest equals that of the payload
    holding the value itself.
    """
    parts = {key: _canonical_json(value) for key, value in payload.items()}
    parts.update(encoded)
    canon = "{" + ",".join(f"{_canonical_json(key)}:{parts[key]}" for key in sorted(parts)) + "}"
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _equilibrated_eigh(mat, what):
    """Symmetric eigendecomposition after diagonal equilibration.

    Feature columns span orders of magnitude (1 vs day^2); scaling to unit
    diagonal recovers the digits the raw Gram loses.  Returns (scale d,
    eigenvalues, eigenvectors) of mat / (d d'), whose trace is its dimension.
    """
    d = np.sqrt(np.diag(mat))
    if not np.all(d > 0.0):
        raise NumericError(f"{what} is singular or nearly singular")
    scaled = mat / d[:, None] / d[None, :]
    w, v = np.linalg.eigh(scaled)
    if w[0] <= _SINGULAR_REL_TOL * np.trace(scaled):
        raise NumericError(f"{what} is singular or nearly singular")
    return d, w, v


def _solve_sym(mat, rhs, what):
    """Solve a symmetric positive-definite system with a singularity guard."""
    d, w, v = _equilibrated_eigh(mat, what)
    return (v @ ((v.T @ (rhs / d)) / w)) / d


def _inv_eigh(d, w, v):
    """Inverse of a matrix from its :func:`_equilibrated_eigh` decomposition."""
    return ((v / w) @ v.T) / d[:, None] / d[None, :]


def _weighted_projection(F, w, values, what):
    """Weighted least-squares coefficients (F' W F)^{-1} F' W values, W = diag(w)."""
    return _solve_sym(F.T @ (w[:, None] * F), F.T @ (w * values), what)


def _information_weights(tau, rho, T):
    """(tau_t, w_t = tau_t rho_t (1 - rho_t)), the availability and the
    per-time weights of the effect's information, as length-T float arrays.

    ``tau`` is an :class:`AvailabilityPattern` or a path in [0, 1], ``rho``
    a scalar or a path in (0, 1); each is read by :func:`_real_array` at
    the features' ``T``.
    """
    tau = _real_array(getattr(tau, "tau", tau), "tau", T, 0.0, 1.0)
    rho = _real_array(rho, "rho", T, 0.0, 1.0, open_low=True, open_high=True, broadcast=True)
    return tau, tau * rho * (1.0 - rho)


@_value_type
class TrialDesign:
    """Decision-time grid and randomization probabilities of a trial.

    ``rho`` may be a scalar (constant randomization probability) or a
    length-T sequence; it is stored per decision time.
    """

    days: int
    decisions_per_day: int
    rho: np.ndarray

    def __post_init__(self):
        for name in ("days", "decisions_per_day"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        rho = _real_array(
            self.rho, "rho", self.T, 0.0, 1.0, open_low=True, open_high=True, broadcast=True
        )
        object.__setattr__(self, "rho", rho)

    @property
    def T(self):
        return self.days * self.decisions_per_day

    @cached_property
    def day_index(self):
        """Zero-based day index u_t for t = 1..T, as a read-only float array."""
        return _freeze(np.arange(self.T, dtype=np.float64) // self.decisions_per_day)

    @cached_property
    def _day_moments(self):
        # time averages of u_t and u_t^2, the elicitation system's middle row
        u = self.day_index
        return u.mean(), (u * u).mean()


@_value_type
class FeaturePaths:
    """Per-time feature vectors Z_t (effect, p-dim) and B_t (nuisance, q-dim).

    Construction verifies that the unweighted Grams sum_t Z_t Z_t' and
    sum_t B_t B_t' are invertible at unit diagonal, whatever a column's units
    (one array, stored and checked once, when ``B`` is ``Z``);
    availability-weighted invertibility is checked wherever an availability
    pattern is paired with the features (Q-matrix construction, fitting).
    """

    Z: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        Z = np.atleast_2d(_real_array(self.Z, "Z"))
        shared = self.B is self.Z
        B = Z if shared else np.atleast_2d(_real_array(self.B, "B"))
        if Z.shape[0] != B.shape[0]:
            raise ConfigError("Z and B must have one row per decision time")
        for name, arr in (("Z", Z), ("B", B)):
            for extreme in (arr.min(), arr.max()):  # a NaN is both
                _real(float(extreme), f"every entry of {name}")
        _equilibrated_eigh(Z.T @ Z, "effect-feature Gram matrix")
        if not shared:
            _equilibrated_eigh(B.T @ B, "nuisance-feature Gram matrix")
        object.__setattr__(self, "Z", _freeze(Z))
        object.__setattr__(self, "B", self.Z if shared else _freeze(B))

    @property
    def T(self):
        return self.Z.shape[0]

    @property
    def p(self):
        return self.Z.shape[1]

    @property
    def q(self):
        return self.B.shape[1]


@_value_type
class AvailabilityPattern:
    """Expected availability tau_t = E[I_t] per decision time."""

    tau: np.ndarray
    kind: str
    target_average: float

    def __post_init__(self):
        object.__setattr__(self, "kind", _choice(self.kind, "kind", AVAILABILITY_KINDS))
        tau = _real_array(self.tau, "tau", ..., 0.0, 1.0)
        target_average = _real(self.target_average, "target_average", 0.0, 1.0)
        if not abs(float(tau.mean()) - target_average) <= 1e-9:
            raise ConfigError(
                "availability pattern mean does not match its target average"
            )
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "target_average", target_average)


@_value_type
class EffectPath:
    """Standardized proximal effect d(t), quadratic-in-day or explicit.

    ``path`` always holds the evaluated per-time values, a path read by
    :func:`_real_array`; ``coeffs`` is the (d1, d2, d3) day-quadratic when
    ``form == "quadratic"``.
    """

    form: str
    path: np.ndarray
    coeffs: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "form", _choice(self.form, "form", ("quadratic", "explicit")))
        if self.form == "quadratic":
            if self.coeffs is None:
                raise ConfigError("quadratic effect requires 3 coefficients")
            object.__setattr__(self, "coeffs", _real_array(self.coeffs, "coeffs", 3))
        object.__setattr__(self, "path", _real_array(self.path, "path", ...))

    @classmethod
    def quadratic(cls, coeffs, design):
        coeffs = _real_array(coeffs, "coeffs", 3)
        u = design.day_index
        path = coeffs[0] + coeffs[1] * u + coeffs[2] * u * u
        return cls(form="quadratic", path=path, coeffs=coeffs)

    @classmethod
    def explicit(cls, path):
        return cls(form="explicit", path=path)

    @property
    def average(self):
        return float(self.path.mean())


def build_quadratic_features(design):
    """Quadratic day features Z_t = B_t = (1, u_t, u_t^2)' for the design (p = q = 3).

    Built once per distinct design (module docstring).
    """
    if design.days < 3:
        raise ConfigError(
            f"quadratic day features need at least 3 days (u^2 = u on days 0 and 1), "
            f"got days={design.days}"
        )
    return _quadratic_features(design)


@lru_cache(maxsize=_MEMO_SIZE)
def _quadratic_features(design):
    u = design.day_index
    Z = np.column_stack([np.ones(design.T), u, u * u])
    return FeaturePaths(Z=Z, B=Z)


def elicit_quadratic_effect(initial, average, max_day, design):
    """Solve for day-quadratic effect coefficients from elicited quantities.

    The three constraints are: d(1) = ``initial`` (value on the first day);
    the time-average of d(t) equals ``average``; and the quadratic's vertex
    falls on day ``max_day`` (one-based), i.e. d2 + 2 d3 (max_day - 1) = 0.
    The solved path must attain an interior maximum (d3 < 0).  Solved once
    per distinct (initial, average, max_day, design) (module docstring).
    """
    initial = _real(initial, "initial")
    average = _real(average, "average")
    max_day = _integer(max_day, "max_day")
    if not (1 < max_day <= design.days):
        raise ConfigError(
            f"max_day must satisfy 1 < max_day <= days={design.days}, got {max_day}"
        )
    if average == initial:
        raise ConfigError(
            "average effect equal to the initial effect gives a flat path "
            "with no interior maximum"
        )
    return _quadratic_effect(_bits(initial), _bits(average), max_day, design)


@lru_cache(maxsize=_MEMO_SIZE)
def _quadratic_effect(initial, average, max_day, design):
    initial, average = _unbits(initial), _unbits(average)
    u_mean, u2_mean = design._day_moments
    system = np.array(
        [
            [1.0, 0.0, 0.0],
            [1.0, u_mean, u2_mean],
            [0.0, 1.0, 2.0 * (max_day - 1)],
        ]
    )
    rhs = np.array([initial, average, 0.0])
    try:
        coeffs = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"elicitation system is singular: {exc}") from exc
    if not np.all(np.isfinite(coeffs)):
        raise NumericError("elicitation system produced non-finite coefficients")
    if coeffs[2] >= 0.0:
        raise ConfigError(
            "elicited effect has no interior maximum (leading coefficient "
            f"{coeffs[2]:.3e} >= 0); check initial/average/max_day"
        )
    return EffectPath.quadratic(coeffs, design)


def make_availability(kind, target_average, design, *, amplitude=None, break_day=None):
    """Construct an expected-availability pattern of the requested kind.

    Non-constant kinds are built as a mean-zero shape scaled by ``amplitude``
    and shifted so the time average equals ``target_average`` exactly:

    * ``constant``        -- tau_t = target_average;
    * ``linear``          -- ramp from -amplitude/2 to +amplitude/2 around
                             the average over the study;
    * ``weekly-periodic`` -- weekend days (day mod 7 in {5, 6}) offset by
                             ``amplitude`` relative to weekdays, recentered;
    * ``piecewise``       -- step of height ``amplitude`` at ``break_day``
                             (one-based), recentered.

    A kind requires the shape parameters it reads and refuses the others.
    Raises an infeasible-pattern error when the requested combination cannot
    stay inside [0, 1].  Built once per distinct normalized arguments and
    design (module docstring).
    """
    kind = _choice(kind, "kind", AVAILABILITY_KINDS)
    for key, value in (("amplitude", amplitude), ("break_day", break_day)):
        if (value is None) == (key in _SHAPE_PARAMS[kind]):
            verb = "requires" if value is None else "takes no"
            raise ConfigError(f"{kind} availability {verb} {key}")
    target_average = _real(target_average, "target_average", 0.0, 1.0, open_low=True)
    if break_day is not None:
        break_day = _integer(break_day, "break_day")
        if not (1 <= break_day <= design.days):
            raise ConfigError(
                f"break_day must be in [1, {design.days}], got {break_day}"
            )
    if amplitude is not None:
        amplitude = _bits(_real(amplitude, "amplitude"))
    return _availability(kind, _bits(target_average), amplitude, break_day, design)


@lru_cache(maxsize=_MEMO_SIZE)
def _availability(kind, target_average, amplitude, break_day, design):
    target_average = _unbits(target_average)
    if kind == "constant":
        tau = np.full(design.T, target_average)
    elif kind == "linear":
        tau = target_average + _unbits(amplitude) * np.linspace(-0.5, 0.5, design.T)
    else:
        u = design.day_index
        if kind == "weekly-periodic":
            shape = ((u % 7) >= 5).astype(np.float64)
        else:
            shape = (u >= (break_day - 1)).astype(np.float64)
        tau = target_average + _unbits(amplitude) * (shape - shape.mean())
    # tolerate only float-level spill before declaring the shape infeasible
    if tau.min() < -1e-12 or tau.max() > 1.0 + 1e-12:
        raise ConfigError(
            f"infeasible availability pattern: kind={kind!r} with average "
            f"{target_average} leaves [0, 1] (range [{tau.min():.4f}, {tau.max():.4f}])"
        )
    tau = np.clip(tau, 0.0, 1.0)
    return AvailabilityPattern(tau=tau, kind=kind, target_average=target_average)


def project_effect(path, tau, features, rho):
    """Project an arbitrary effect path onto the quadratic feature span.

    Weighted least squares with per-time weights w_t = tau_t rho_t (1-rho_t)
    (the same weights that enter the information matrix, so the projection
    is the asymptotic target of the working-model effect estimate):

        d = (sum_t w_t Z_t Z_t')^{-1} sum_t w_t Z_t d(t)

    Idempotent on paths already in the span.
    """
    Z = features.Z
    values = _real_array(getattr(path, "path", path), "path", Z.shape[0])
    _, w = _information_weights(tau, rho, Z.shape[0])
    coeffs = _weighted_projection(Z, w, values, "projection Gram matrix")
    return EffectPath(form="quadratic", path=Z @ coeffs, coeffs=coeffs)
