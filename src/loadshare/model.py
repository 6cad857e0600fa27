"""Domain types and exact log-likelihood machinery for load-sharing systems.

A load-sharing system is a parallel system of k components in which each
failure redistributes the load onto the survivors and changes their hazard.
Stage j is the period between the (j-1)-th and j-th failures, during which
k-j+1 components survive; the observable for system i is the spacing t_ij
between consecutive ordered failures.

Two hazard regimes are supported, selected by :class:`ModelSpec`:

* ``kim-kvam`` -- every stage has a constant per-component hazard
  ``lambda_{j-1} * theta`` (``lambda_0 = 1``), so each stage spacing is
  exponential with rate ``(k-j+1) * lambda_{j-1} * theta``.
* ``ssk`` -- constant hazards through the s-th failure; from stage s+1 on,
  the per-component hazard grows linearly in the time elapsed since the
  previous failure (``lambda_{j-1} * theta * t``), making those stage
  spacings Rayleigh-distributed.

Both regimes share one algebraic core: each stage contributes an "exposure"
(survivor-weighted time on test, or half the survivor-weighted squared
spacing in the accelerating phase) and the log-likelihood is linear in the
per-stage exposure totals S_1..S_k. The data enter only through n, those
totals and, for ssk, the sum of log-spacings past the switch. That summary,
:class:`SufficientStats`, is the one input of the likelihood, the score and
the closed form (see :mod:`loadshare.estimate`). :func:`format_float` spells
every float the package prints, in CSV, JSON or text, so that it reads back the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    DataFileError,
    DimensionMismatch,
    DuplicateLifetime,
    InvalidModel,
    InvalidParams,
    NonPositiveLifetime,
)

__all__ = [
    "ModelKind",
    "ModelSpec",
    "Params",
    "SpacingsMatrix",
    "SufficientStats",
    "sufficient_stats",
    "spacings_from_lifetimes",
    "log_likelihood",
    "score",
]


def format_float(value: float) -> str:
    """17 significant digits: parses back to the identical float64."""
    return format(float(value), ".17g")


class ModelKind(str, Enum):
    """Which hazard regime governs the stages."""

    KIM_KVAM = "kim-kvam"
    SSK = "ssk"


def _check_int(error: type, what: str, value, low=-math.inf, high=math.inf) -> None:
    """Raise ``error`` unless ``value`` is an int, and not a bool, in [low, high)."""
    if not (isinstance(value, int) and not isinstance(value, bool) and low <= value < high):
        raise error(f"{what}, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Model identity: hazard regime, component count k, and switch index s.

    ``kind`` is a ModelKind or its value, kept as the ModelKind. ``s`` is the failure count
    after which the ``ssk`` regime switches from constant to linearly increasing hazards; it
    must satisfy 2 <= s <= k-1 and must be None for ``kim-kvam``. This type is the only judge
    of the kind, k and s, whether they come from flags or from a parameter file.
    """

    kind: ModelKind
    k: int
    s: int | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", ModelKind(self.kind))
        except ValueError:
            raise InvalidModel(f"model must be 'kim-kvam' or 'ssk', got {self.kind!r}") from None
        _check_int(InvalidModel, "k must be an integer", self.k)
        _check_int(InvalidModel, "k must be at least 2", self.k, 2)
        if self.kind is ModelKind.KIM_KVAM:
            if self.s is not None:
                raise InvalidModel("s is only meaningful for the ssk model")
        else:
            if self.s is None:
                raise InvalidModel("ssk model requires the switch index 's'")
            _check_int(InvalidModel, "s must be an integer", self.s)
            if not 2 <= self.s <= self.k - 1:
                raise InvalidModel(
                    f"s must satisfy 2 <= s <= k-1, got s={self.s} with k={self.k}"
                )

    @classmethod
    def kim_kvam(cls, k: int) -> "ModelSpec":
        return cls(ModelKind.KIM_KVAM, k)

    @classmethod
    def ssk(cls, k: int, s: int) -> "ModelSpec":
        return cls(ModelKind.SSK, k, s)


@dataclass(frozen=True)
class Params:
    """Parameter vector (theta, lambda_1, ..., lambda_{k-1}).

    ``theta`` is the initial per-component failure rate; ``lambdas[j-1]`` is
    the multiplier applied to ``theta`` during stage j+1. The stage-1
    multiplier ``lambda_0 = 1`` is implicit and never stored.
    """

    theta: float
    lambdas: tuple[float, ...]

    def __post_init__(self):
        try:
            values = (self.theta, *self.lambdas)  # a TypeError if lambdas is not iterable
            if any(isinstance(v, (str, bool, np.bool_)) for v in values):  # float() would take these
                raise TypeError
            theta, *lambdas = map(float, values)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParams(f"parameters must be numbers, got {self.theta!r}, {self.lambdas!r}") from None
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "lambdas", tuple(lambdas))
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise InvalidParams(f"theta must be finite and > 0, got {self.theta}")
        if len(self.lambdas) == 0:
            raise InvalidParams("at least one load-share multiplier is required")
        for j, lam in enumerate(self.lambdas, start=1):
            if not (math.isfinite(lam) and lam > 0):
                raise InvalidParams(f"lambda_{j} must be finite and > 0, got {lam}")

    def as_array(self) -> np.ndarray:
        """Flat (theta, lambda_1, ..., lambda_{k-1}) vector."""
        return np.concatenate(([self.theta], self.lambdas))

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "Params":
        values = np.asarray(values, dtype=object)  # each value is judged by Params
        if values.ndim != 1 or not values.size:
            raise InvalidParams(f"parameters must be a non-empty vector, got shape {values.shape}")
        return cls(values[0], tuple(values[1:]))


def _first_bad(values: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first entry of ``values`` (in C order) that is not finite and > 0, or None."""
    if not values.size or (values.min() > 0 and values.max() < np.inf):  # NaN fails this too
        return None  # so the mask below is built only for an array that holds a bad entry
    bad = ~(np.isfinite(values) & (values > 0))
    return tuple(map(int, np.unravel_index(bad.argmax(), bad.shape)))


def _positive_matrix(data, what: str) -> np.ndarray:
    """Float copy of ``data``, checked to be 2-D with every cell finite and > 0.

    ``what`` ("spacing" or "lifetime") names the cells in the error messages.
    """
    arr = np.array(data, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{what}s must form a 2-D matrix, got {arr.ndim} dimension(s)")
    bad = _first_bad(arr)
    if bad is not None:
        i, j = bad
        raise NonPositiveLifetime(
            f"{what} at row {i + 1}, column {j + 1} must be finite and > 0 (got {arr[i, j]})",
            row=i + 1,
            col=j + 1,
        )
    return arr


class SpacingsMatrix:
    """n x k matrix of inter-failure spacings, one independent system per row.

    Column j holds the spacing between the (j-1)-th and j-th ordered failures
    (the 0-th failure time is 0). Every entry must be finite and strictly
    positive. The instance is immutable; what the likelihood needs of it is
    summarized by :func:`sufficient_stats`.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        self._hold(_positive_matrix(data, "spacing"))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> SpacingsMatrix:
        """The matrix of ``arr`` itself, with no copy and no second look at its cells: for
        callers that checked every cell of the 2-D float64 ``arr`` (finite and > 0) and give
        the array up."""
        self = cls.__new__(cls)
        self._hold(arr)
        return self

    def _hold(self, arr: np.ndarray) -> None:
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"spacings matrix must be non-empty, got shape {arr.shape}")
        arr.flags.writeable = False
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def n(self) -> int:
        return self._data.shape[0]

    @property
    def k(self) -> int:
        return self._data.shape[1]

    def __repr__(self):
        return f"SpacingsMatrix(n={self.n}, k={self.k})"


@lru_cache(maxsize=None)
def _log_factorial(k: int) -> float:
    # Summation instead of factorial() so large k cannot overflow.
    return sum(math.log(i) for i in range(2, k + 1))


def _weights(spec: ModelSpec) -> np.ndarray:
    """Components at risk during each stage, k-j+1 for j = 1..k, halved past the ssk switch:
    S_j's weight on stage j's sum of t (of t*t past the switch), and a factor of its rate."""
    w = np.arange(spec.k, 0, -1, dtype=float)
    w[spec.s or spec.k :] *= 0.5
    return w


def _multipliers(spec: ModelSpec, params: Params) -> np.ndarray:
    """Per-stage hazard multipliers (1, lambda_1, ..., lambda_{k-1})."""
    if len(params.lambdas) != spec.k - 1:
        raise DimensionMismatch(
            f"model with k={spec.k} needs {spec.k - 1} multipliers, got {len(params.lambdas)}"
        )
    return np.array((1.0, *params.lambdas))


def _exposure(theta: float, totals, lam_full: np.ndarray) -> float:
    """theta * S . (1, lambda...), the likelihood's exponent, in the order that keeps it finite."""
    with np.errstate(over="ignore"):
        exposure = theta * float(np.dot(totals, lam_full))
        if math.isinf(exposure):  # S . lambda overflowed; theta * S may not, as at the MLE
            exposure = float(np.dot([theta * s for s in totals], lam_full))
    return exposure


@dataclass(frozen=True)
class SufficientStats:
    """Everything the likelihood of one dataset under one model depends on.

    ``totals`` are the per-stage exposure totals S_1..S_k, so that the
    likelihood exponent is ``-theta * S . (1, lambda_1, ...)``; ``log_term``
    is the sum of log-spacings past the switch (ssk only, else 0). A plain
    value with no cache, so calls from several threads may overlap. Build it
    with :func:`sufficient_stats`, or from a file with :func:`loadshare.io.read_stats`.
    """

    spec: ModelSpec
    n: int
    totals: tuple[float, ...]
    log_term: float

    def log_likelihood(self, params: Params) -> float:
        """Exact log-likelihood; see :func:`log_likelihood`."""
        exposure = _exposure(params.theta, self.totals, _multipliers(self.spec, params))
        # fsum keeps the accumulation error at one rounding of the total, so that
        # verify's loglik gap measures the estimates, not the summation order.
        return math.fsum([
            self.n * _log_factorial(self.spec.k),
            self.n * self.spec.k * math.log(params.theta),
            self.n * math.fsum(map(math.log, params.lambdas)),
            -exposure,
            self.log_term,
        ])

    def score(self, params: Params) -> np.ndarray:
        """Log-likelihood gradient; see :func:`score`."""
        lam_full, theta = _multipliers(self.spec, params), params.theta
        grad = np.empty(self.spec.k)
        grad[0] = (self.n * self.spec.k - _exposure(theta, self.totals, lam_full)) / theta
        with np.errstate(over="ignore"):
            grad[1:] = self.n / lam_full[1:] - theta * np.array(self.totals[1:])
        return grad


def _stage_totals(spec: ModelSpec, sums: np.ndarray) -> np.ndarray:
    """Stage totals S_1..S_k along the last axis from :func:`_fold`'s first k rows of sums,
    weighted by :func:`_weights`. Overflow is left for the caller to find."""
    with np.errstate(over="ignore"):
        return _weights(spec) * sums[: spec.k].T


_FOLD_VALUES = 2**16  # values a fold adds at a time, so that its buffer stays 512 kB for any k


def _fold(d: np.ndarray, spec: ModelSpec, sums: np.ndarray | None = None) -> np.ndarray:
    """``sums`` (zeros if None) plus the sums over the systems, ``d``'s first axis, of what
    ``spec`` reads of the spacings ``d``: axis 1 holds the k stages, and further axes are kept.
    The rows of ``sums`` are the sums of t for the stages before ``spec.s or k``, then of t*t
    and, if ``sums`` has room, of log t for the stages from there on. numpy adds a C-order
    buffer's rows in order along axis 0 when a row holds k >= 2 values, so seeding it with the
    carried sums gives the same bits however the rows are split into steps of
    ``max(1, _FOLD_VALUES // sums.size)``. Callers: sufficient_stats,
    io.read_stats per chunk, simulate.mc_study per block (k rows: the closed form reads no log)."""
    m, k = spec.s or spec.k, spec.k
    if d.shape[1] != k:
        raise DimensionMismatch(f"data has {d.shape[1]} columns but the model expects k={k}")
    sums = np.zeros((2 * k - m, *d.shape[2:])) if sums is None else sums
    step = max(1, _FOLD_VALUES // sums.size)
    buffer = np.empty((min(step, len(d)) + 1, *sums.shape))  # made once, for every step
    with np.errstate(over="ignore", under="ignore"):
        for lo in range(0, len(d), step):
            rows = buffer[: len(block := d[lo : lo + step]) + 1]  # still C-order: same bits
            rows[0], rows[1:, :m] = sums, block[:, :m]
            np.square(block[:, m:], out=rows[1:, m:k])
            np.log(block[:, m : m + len(sums) - k], out=rows[1:, k:])
            np.add.reduce(rows, axis=0, out=sums)
    return sums


def _closed_form(n: int, totals) -> np.ndarray:
    """theta = n / S_1 and lambda_j = S_1 / S_{j+1} along the last axis of (..., k) totals."""
    s = np.asarray(totals)
    with np.errstate(all="ignore"):  # callers judge an estimate outside float64
        return np.concatenate((n / s[..., :1], s[..., :1] / s[..., 1:]), axis=-1)


def _stats(spec: ModelSpec, n: int, sums: np.ndarray) -> SufficientStats:
    """The stats under ``spec`` of ``n`` rows of spacings whose sums :func:`_fold` gave."""
    totals = _stage_totals(spec, sums)
    bad = _first_bad(totals)
    if bad is not None:
        raise DataFileError(f"column {bad[0] + 1}: the stage total {totals[bad]:g} is outside "
                            "the float64 range; rescale the data")
    log_term = float(sums[spec.k :].sum())  # 0.0 for kim-kvam, whose slice is empty
    return SufficientStats(spec, n, tuple(totals.tolist()), log_term)


def sufficient_stats(spec: ModelSpec, t: SpacingsMatrix | SufficientStats) -> SufficientStats:
    """Stage totals of the spacings under ``spec`` (stats taken under ``spec`` pass as they are).

    kim-kvam: S_j = (k-j+1) * sum_i t_ij for every stage.
    ssk:      same through stage s, then S_j = (k-j+1)/2 * sum_i t_ij^2,
              plus the log term sum_i sum_{j>s} log t_ij.

    A total that overflows or underflows float64 is a data error naming its
    column.
    """
    if isinstance(t, SufficientStats):
        if t.spec != spec:
            raise DimensionMismatch(f"the stats were taken under {t.spec}, not {spec}")
        return t
    return _stats(spec, t.n, _fold(t.data, spec))


def spacings_from_lifetimes(lifetimes) -> SpacingsMatrix:
    """Convert raw component lifetimes to inter-failure spacings.

    Each row holds the k individual component lifetimes of one system in any
    order. The row is sorted ascending and consecutive differences are taken
    (first spacing measured from time 0). Ties within a row are rejected:
    a zero spacing would make the load-share estimates undefined, and
    breaking ties is a caller policy, not something done silently here.
    """
    arr = _positive_matrix(lifetimes, "lifetime")  # a copy, sorted and differenced in place
    arr.sort(axis=1)
    tied = arr[:, 1:] == arr[:, :-1]
    if tied.any():
        i, j = map(int, np.argwhere(tied)[0])
        raise DuplicateLifetime(
            f"system {i + 1} contains the lifetime {arr[i, j]} twice; "
            "tied failures give a zero spacing",
            row=i + 1,
        )
    arr[:, 1:] -= arr[:, :-1]  # numpy buffers the overlap, so these are np.diff's values
    # Differences of sorted, distinct, finite positive floats are finite and > 0.
    return SpacingsMatrix._adopt(arr)


def log_likelihood(spec: ModelSpec, params: Params, t: SpacingsMatrix) -> float:
    """Exact log-likelihood of the spacings under the given model.

    Includes the n*log(k!) ordering constant and, for ssk, the
    sum-of-log-spacings term from the accelerating phase, so the value is a
    true log-density, directly comparable across implementations.
    """
    return sufficient_stats(spec, t).log_likelihood(params)


def score(spec: ModelSpec, params: Params, t: SpacingsMatrix) -> np.ndarray:
    """Gradient of the log-likelihood in (theta, lambda_1, ..., lambda_{k-1}).

    Component 0 is d logL / d theta; component j is d logL / d lambda_j.
    Zero at the maximum likelihood estimate.
    """
    return sufficient_stats(spec, t).score(params)
