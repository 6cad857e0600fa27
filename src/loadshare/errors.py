"""Exception types shared across the package, and the ``exit_code`` each gives the CLI:

  1  DataFileError, NonPositiveLifetime, DuplicateLifetime: faults of the data
  2  InvalidModel, InvalidParams, DimensionMismatch, InvalidSampleSize (the default)
  3  NoConvergence: a maximum the oracle could not certify
"""

__all__ = ["LoadShareError", "InvalidModel", "InvalidParams", "DimensionMismatch",
           "NonPositiveLifetime", "DuplicateLifetime", "InvalidSampleSize", "NoConvergence",
           "DataFileError"]


class LoadShareError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


class InvalidModel(LoadShareError):
    """Model specification violates a structural invariant (k, s, kind)."""


class InvalidParams(LoadShareError):
    """Parameter vector violates positivity or finiteness."""


class DimensionMismatch(LoadShareError):
    """Shapes of model, parameters, and data disagree."""


class NonPositiveLifetime(LoadShareError):
    """A lifetime or spacing value is zero, negative, or not finite.

    ``row`` and ``col`` are 1-based indices into the offending data when
    known, else None.
    """
    exit_code = 1

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class DuplicateLifetime(LoadShareError):
    """Two component lifetimes within one system coincide (zero spacing).

    ``row`` is the 1-based index of the offending system when known.
    """
    exit_code = 1

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class InvalidSampleSize(LoadShareError):
    """Requested sample or replication count is too small."""


class NoConvergence(LoadShareError):
    """Iterative maximizer stopped without certifying a maximum."""
    exit_code = 3


class DataFileError(LoadShareError):
    """Dataset or parameter file is malformed, or its stage totals overflow float64."""
    exit_code = 1
