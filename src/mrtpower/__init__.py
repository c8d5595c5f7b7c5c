"""Design, sizing, analysis, and Monte-Carlo verification for micro-randomized trials.

``import mrtpower`` loads the sizing core (``exceptions``, ``design``,
``distributions`` and ``samplesize``) and binds its public names here.  The
public names of ``estimator`` and ``simulate``, and those two submodules
themselves, resolve on first access through a module ``__getattr__`` (PEP
562), so importing the package or sizing a trial never loads the estimator,
the Monte Carlo engine or its process pool.  ``from mrtpower import X`` works
for every ``X`` in ``__all__``.

A lazily resolved name is read from its submodule on every access and never
stored in this namespace, so rebinding it in the submodule (a monkeypatch, a
call tracer) shows through the package, and so does undoing that rebinding.
"""

import importlib
import sys

from . import design, distributions, exceptions, samplesize

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in (
        ("exceptions", ("ConfigError", "NumericError")),
        ("design", (
            "GRAM_KINDS", "TrialDesign", "FeaturePaths", "AvailabilityPattern", "EffectPath",
            "build_quadratic_features", "elicit_quadratic_effect", "make_availability",
            "project_effect",
        )),
        ("distributions", (
            "FDistParams", "f_cdf", "f_quantile", "ncf_cdf", "hotelling_critical",
            "ln_gamma", "reg_inc_beta",
        )),
        ("samplesize", (
            "SizingInputs", "SampleSizeResult", "compute_q_matrix", "noncentrality", "power",
            "solve_sample_size",
        )),
        ("estimator", (
            "Dataset", "SubjectRow", "ModelFit", "TestResult", "fit_working_model",
            "sandwich_variance", "hypothesis_test", "asymptotic_targets",
        )),
        ("simulate", (
            "ERROR_FAMILIES", "SCENARIOS", "VARIANCE_TRENDS", "VARIANCE_TREND_SPAN",
            "ALPHA_COEFFS", "FEEDBACK_LAGS", "ErrorProcess", "GenerativeModel",
            "MonteCarloReport", "ar_autocovariances", "draw_errors", "shaped_effect",
            "variance_trend_path", "calibrate_sigma_star", "subject_stream", "generate_subject",
            "generate_dataset", "monte_carlo", "config_digest", "resolve_threads",
        )),
    )
    for name in names
}

# Submodules imported with the package; their names are bound here once.
_EAGER = {
    "exceptions": exceptions,
    "design": design,
    "distributions": distributions,
    "samplesize": samplesize,
}
# Submodules loaded on first access: every other home of a public name.
_LAZY_MODULES = set(_HOME.values()).difference(_EAGER)

globals().update(
    (name, getattr(_EAGER[home], name)) for name, home in _HOME.items() if home in _EAGER
)


def backend_name() -> str:
    """Name of the kernel implementation: always ``"python"`` (pure Python/NumPy)."""
    return "python"


def _submodule(name):
    module = sys.modules.get(f"{__name__}.{name}")
    if module is None:
        module = importlib.import_module(f".{name}", __name__)
    return module


def __getattr__(name):
    """A lazy submodule, or a public name read from its lazy submodule."""
    if name in _LAZY_MODULES:
        return _submodule(name)
    home = _HOME.get(name)
    if home is None:  # the eager names are globals, so they never get here
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(home), name)


def __dir__():
    return sorted({*globals(), *_HOME, *_LAZY_MODULES})


__all__ = ["__version__", "backend_name", *_HOME]
