"""Load-sharing reliability systems: closed-form MLEs, simulation, verification.

A k-component parallel system redistributes load as components fail; the
surviving components' hazards change stage by stage. This package fits the
two standard parameterizations of that process ("kim-kvam": constant stage
hazards; "ssk": hazards that switch to linear growth after the s-th
failure), simulates them, and cross-checks the closed-form estimates
against an independent likelihood-only maximizer.
"""

from .errors import (
    DataFileError,
    DimensionMismatch,
    DuplicateLifetime,
    InvalidModel,
    InvalidParams,
    InvalidSampleSize,
    LoadShareError,
    NoConvergence,
    NonPositiveLifetime,
)
from .estimate import FitResult, closed_form_mle
from .model import (
    ModelKind,
    ModelSpec,
    Params,
    SpacingsMatrix,
    SufficientStats,
    log_likelihood,
    score,
    spacings_from_lifetimes,
    sufficient_stats,
)
from .oracle import (
    CrosscheckResult,
    crosscheck,
    finite_difference_gradient,
    numeric_mle,
    random_instances,
)
from .simulate import McSummary, RngState, mc_study, sample_dataset

__all__ = [
    "LoadShareError",
    "InvalidModel",
    "InvalidParams",
    "DimensionMismatch",
    "NonPositiveLifetime",
    "DuplicateLifetime",
    "InvalidSampleSize",
    "NoConvergence",
    "DataFileError",
    "ModelKind",
    "ModelSpec",
    "Params",
    "SpacingsMatrix",
    "SufficientStats",
    "spacings_from_lifetimes",
    "log_likelihood",
    "score",
    "sufficient_stats",
    "FitResult",
    "closed_form_mle",
    "RngState",
    "McSummary",
    "sample_dataset",
    "mc_study",
    "CrosscheckResult",
    "numeric_mle",
    "finite_difference_gradient",
    "random_instances",
    "crosscheck",
]

__version__ = "0.1.0"
