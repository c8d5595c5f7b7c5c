"""Design, sizing, analysis, and Monte-Carlo verification for micro-randomized trials."""

from .exceptions import ConfigError, NumericError
from .design import (
    AvailabilityPattern,
    EffectPath,
    FeaturePaths,
    TrialDesign,
    build_quadratic_features,
    elicit_quadratic_effect,
    make_availability,
    project_effect,
)
from .distributions import (
    FDistParams,
    f_cdf,
    f_quantile,
    hotelling_critical,
    ln_gamma,
    ncf_cdf,
    reg_inc_beta,
)
from .samplesize import (
    SampleSizeResult,
    SizingInputs,
    compute_q_matrix,
    noncentrality,
    power,
    solve_sample_size,
)
from .estimator import (
    Dataset,
    GRAM_KINDS,
    ModelFit,
    TestResult,
    asymptotic_targets,
    fit_working_model,
    hypothesis_test,
    sandwich_variance,
)
from .simulate import (
    ERROR_FAMILIES,
    SCENARIOS,
    VARIANCE_TRENDS,
    ErrorProcess,
    GenerativeModel,
    MonteCarloReport,
    calibrate_sigma_star,
    config_digest,
    generate_dataset,
    generate_subject,
    monte_carlo,
    resolve_threads,
    shaped_effect,
    subject_stream,
    variance_trend_path,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the kernel implementation: always ``"python"`` (pure Python/NumPy)."""
    return "python"


__all__ = [
    "__version__",
    # backend and errors
    "backend_name",
    "ConfigError",
    "NumericError",
    # trial structure
    "TrialDesign",
    "FeaturePaths",
    "AvailabilityPattern",
    "EffectPath",
    "build_quadratic_features",
    "elicit_quadratic_effect",
    "make_availability",
    "project_effect",
    # distribution kernel
    "FDistParams",
    "f_cdf",
    "f_quantile",
    "ncf_cdf",
    "hotelling_critical",
    "ln_gamma",
    "reg_inc_beta",
    # sizing
    "SizingInputs",
    "SampleSizeResult",
    "compute_q_matrix",
    "noncentrality",
    "power",
    "solve_sample_size",
    # estimation and testing
    "GRAM_KINDS",
    "Dataset",
    "ModelFit",
    "TestResult",
    "fit_working_model",
    "sandwich_variance",
    "hypothesis_test",
    "asymptotic_targets",
    # simulation
    "ERROR_FAMILIES",
    "SCENARIOS",
    "VARIANCE_TRENDS",
    "ErrorProcess",
    "GenerativeModel",
    "MonteCarloReport",
    "shaped_effect",
    "variance_trend_path",
    "calibrate_sigma_star",
    "subject_stream",
    "generate_subject",
    "generate_dataset",
    "monte_carlo",
    "config_digest",
    "resolve_threads",
]
