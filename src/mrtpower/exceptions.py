"""Exception types shared across the package.

Two broad classes matter to callers (and to the CLI's exit codes):

* :class:`ConfigError` - the inputs were malformed before any numerics ran
  (bad configuration values, unknown keys, CSV schema violations).  CLI exit
  code 2.
* :class:`NumericError` - a numerical procedure failed on structurally valid
  inputs (singular systems, non-convergent series, infeasible solves).  CLI
  exit code 3.

Each kind of argument has one rule, in :mod:`mrtpower.design`, shared by
the library and the config reader: ``_integer`` (a count, a day, an index or
a degree of freedom), ``_real`` (a finite number in its range; ``_level``
for a significance level), ``_choice`` (a ``str`` among named options) and
``_flag`` (a bool).  An argument that breaks its rule raises
:class:`ConfigError` naming it, from a config or from the library, kernels
included; a ``ConfigError`` is a ``ValueError`` too.  Left outside the rules,
on the sizing hot path, are the central and noncentral F functions
(``f_cdf``, ``f_quantile``, ``ncf_cdf``) and ``FDistParams.lam``: they raise
a plain ``ValueError`` for a value out of their domain.
"""

__all__ = ["ConfigError", "NumericError"]


class ConfigError(ValueError):
    """Invalid configuration or input data; raised before computation."""


class NumericError(RuntimeError):
    """A numerical routine failed (singularity, non-convergence, no solution)."""
