"""Exception types shared across the package."""


class LoadShareError(Exception):
    """Base class for all errors raised by this package."""


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

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class DuplicateLifetime(LoadShareError):
    """Two component lifetimes within one system coincide (zero spacing).

    ``row`` is the 1-based index of the offending system when known.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class InvalidSampleSize(LoadShareError):
    """Requested sample or replication count is too small."""


class NoConvergence(LoadShareError):
    """Iterative maximizer stopped without certifying a maximum."""


class DataFileError(LoadShareError):
    """Dataset or parameter file is malformed, or its stage totals overflow float64."""
