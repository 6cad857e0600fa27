import importlib

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


def test_public_names_are_the_modules_lists_joined():
    # Each name is declared once, in its module's __all__; the package only joins the lists.
    modules = [importlib.import_module(f"loadshare.{name}")
               for name in ("errors", "estimate", "model", "oracle", "simulate")]
    joined = [name for module in modules for name in module.__all__]
    assert loadshare.__all__ == joined and len(set(joined)) == len(joined)
    assert [(m.__name__, name) for m in modules for name in m.__all__ if not hasattr(m, name)] == []
