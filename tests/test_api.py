import loadshare

PUBLIC = [
    "CrosscheckResult",
    "DataFileError",
    "DimensionMismatch",
    "DuplicateLifetime",
    "FitResult",
    "InvalidModel",
    "InvalidParams",
    "InvalidSampleSize",
    "LoadShareError",
    "McSummary",
    "ModelKind",
    "ModelSpec",
    "NoConvergence",
    "NonPositiveLifetime",
    "Params",
    "RngState",
    "SpacingsMatrix",
    "SufficientStats",
    "closed_form_mle",
    "crosscheck",
    "finite_difference_gradient",
    "log_likelihood",
    "mc_study",
    "numeric_mle",
    "random_instances",
    "sample_dataset",
    "score",
    "spacings_from_lifetimes",
    "sufficient_stats",
]


def test_public_names_are_pinned():
    # Adding or removing a public name is a deliberate change to this list.
    assert sorted(loadshare.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in loadshare.__all__ if not hasattr(loadshare, name)]
    assert missing == []
