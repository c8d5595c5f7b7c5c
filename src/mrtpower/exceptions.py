"""Exception types shared across the package.

Two broad classes matter to callers (and to the CLI's exit codes):

* :class:`ConfigError` - the inputs were malformed before any numerics ran
  (bad configuration values, unknown keys, CSV schema violations).  CLI exit
  code 2.
* :class:`NumericError` - a numerical procedure failed on structurally valid
  inputs (singular systems, non-convergent series, infeasible solves).  CLI
  exit code 3.

Scalar kernels raise plain :class:`ValueError` for domain violations
(``ln_gamma(-1)`` and the like); those are programming errors at call sites,
not run-level failures.  An integer argument (a count, a day, an index or
a degree of freedom) that is not an integer raises :class:`ConfigError`
everywhere, kernels included; it is a ``ValueError`` too.  So does every
real parameter (a level, a power target, an effect, an availability, an AR
strength, a scenario parameter), from a config or from the library, that is
not a finite number in its range: NaN, an infinity, a bool or a string.
"""

__all__ = ["ConfigError", "NumericError"]


class ConfigError(ValueError):
    """Invalid configuration or input data; raised before computation."""


class NumericError(RuntimeError):
    """A numerical routine failed (singularity, non-convergence, no solution)."""
