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
the closed form (see :mod:`loadshare.estimate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


class ModelKind(str, Enum):
    """Which hazard regime governs the stages."""

    KIM_KVAM = "kim-kvam"
    SSK = "ssk"


@dataclass(frozen=True)
class ModelSpec:
    """Model identity: hazard regime, component count k, and switch index s.

    ``s`` is the failure count after which the ``ssk`` regime switches from
    constant to linearly increasing hazards; it must satisfy 2 <= s <= k-1
    and must be omitted for ``kim-kvam``.
    """

    kind: ModelKind
    k: int
    s: int | None = None

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise InvalidModel(f"k must be an integer, got {self.k!r}")
        if self.k < 2:
            raise InvalidModel(f"k must be at least 2, got {self.k}")
        if self.kind is ModelKind.KIM_KVAM:
            if self.s is not None:
                raise InvalidModel("s is only meaningful for the ssk model")
        elif self.kind is ModelKind.SSK:
            if self.s is None:
                raise InvalidModel("ssk model requires a switch index s")
            if not isinstance(self.s, int) or isinstance(self.s, bool):
                raise InvalidModel(f"s must be an integer, got {self.s!r}")
            if not 2 <= self.s <= self.k - 1:
                raise InvalidModel(
                    f"s must satisfy 2 <= s <= k-1, got s={self.s} with k={self.k}"
                )
        else:  # pragma: no cover - enum is closed
            raise InvalidModel(f"unknown model kind {self.kind!r}")

    @classmethod
    def kim_kvam(cls, k: int) -> "ModelSpec":
        return cls(ModelKind.KIM_KVAM, k)

    @classmethod
    def ssk(cls, k: int, s: int) -> "ModelSpec":
        return cls(ModelKind.SSK, k, s)

    @property
    def n_params(self) -> int:
        """Number of free parameters: theta plus k-1 load-share multipliers."""
        return self.k


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
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))
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
        values = list(values)
        return cls(values[0], tuple(values[1:]))


class SpacingsMatrix:
    """n x k matrix of inter-failure spacings, one independent system per row.

    Column j holds the spacing between the (j-1)-th and j-th ordered failures
    (the 0-th failure time is 0). Every entry must be finite and strictly
    positive. The instance is immutable; what the likelihood needs of it is
    summarized by :func:`sufficient_stats`.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch(
                f"spacings must form a 2-D matrix, got {arr.ndim} dimension(s)"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionMismatch(f"spacings matrix must be non-empty, got shape {arr.shape}")
        bad = ~(np.isfinite(arr) & (arr > 0))
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise NonPositiveLifetime(
                f"spacing at row {i + 1}, column {j + 1} must be finite and > 0 "
                f"(got {arr[i, j]})",
                row=i + 1,
                col=j + 1,
            )
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


def _survivors(k: int) -> np.ndarray:
    """Components at risk during each stage: k-j+1 for j = 1..k."""
    return np.arange(k, 0, -1, dtype=float)


def _check_lambdas(spec: ModelSpec, params: Params) -> None:
    if len(params.lambdas) != spec.k - 1:
        raise DimensionMismatch(
            f"model with k={spec.k} needs {spec.k - 1} multipliers, got {len(params.lambdas)}"
        )


def _multipliers(spec: ModelSpec, params: Params) -> np.ndarray:
    """Per-stage hazard multipliers (1, lambda_1, ..., lambda_{k-1})."""
    _check_lambdas(spec, params)
    return np.array((1.0, *params.lambdas))


@dataclass(frozen=True)
class SufficientStats:
    """Everything the likelihood of one dataset under one model depends on.

    ``totals`` are the per-stage exposure totals S_1..S_k, so that the
    likelihood exponent is ``-theta * S . (1, lambda_1, ...)``; ``log_term``
    is the sum of log-spacings past the switch (ssk only, else 0). Build it
    with :func:`sufficient_stats`.
    """

    spec: ModelSpec
    n: int
    totals: tuple[float, ...]
    log_term: float
    # Data-only parts of the log-likelihood, computed once for _log_likelihood.
    _log_orderings: float = field(init=False, repr=False, compare=False)
    _nk: int = field(init=False, repr=False, compare=False)
    _totals: np.ndarray = field(init=False, repr=False, compare=False)
    _lam_buf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.spec.k
        object.__setattr__(self, "_log_orderings", self.n * _log_factorial(k))
        object.__setattr__(self, "_nk", self.n * k)
        object.__setattr__(self, "_totals", np.asarray(self.totals))
        object.__setattr__(self, "_lam_buf", np.ones(k))

    def log_likelihood(self, params: Params) -> float:
        """Exact log-likelihood; see :func:`log_likelihood`."""
        _check_lambdas(self.spec, params)
        return self._log_likelihood(params.theta, params.lambdas)

    def _log_likelihood(self, theta: float, lambdas: Sequence[float]) -> float:
        """Log-likelihood at plain floats theta > 0 and k-1 lambdas > 0, unchecked.

        The value-only path for callers that evaluate it many times; it
        reuses one (1, lambda...) buffer, so calls must not overlap.
        """
        lam_full = self._lam_buf
        lam_full[1:] = lambdas
        # fsum keeps the accumulation error at one rounding of the total, which
        # matters to value-only consumers resolving tiny likelihood differences.
        return math.fsum([
            self._log_orderings,
            self._nk * math.log(theta),
            self.n * math.fsum(map(math.log, lambdas)),
            -theta * float(self._totals @ lam_full),
            self.log_term,
        ])

    def score(self, params: Params) -> np.ndarray:
        """Log-likelihood gradient; see :func:`score`."""
        lam_full = _multipliers(self.spec, params)
        totals = self._totals
        grad = np.empty(self.spec.k)
        grad[0] = self.n * self.spec.k / params.theta - float(totals @ lam_full)
        grad[1:] = self.n / lam_full[1:] - params.theta * totals[1:]
        return grad


def _stage_totals(spec: ModelSpec, d: np.ndarray) -> np.ndarray:
    """Stage totals S_1..S_k of spacings ``d``, reducing axis -2 of an (..., n, k) array.

    Overflow and underflow are left for the caller to detect in the result.
    """
    w = _survivors(spec.k)
    # Reduce whole columns, then slice: the summation order fixes the last bits.
    with np.errstate(over="ignore", under="ignore"):
        totals = w * d.sum(axis=-2)
        if spec.kind is ModelKind.SSK:
            accelerating = 0.5 * w * (d * d).sum(axis=-2)
            totals = np.concatenate((totals[..., : spec.s], accelerating[..., spec.s :]), axis=-1)
    return totals


def sufficient_stats(spec: ModelSpec, t: SpacingsMatrix) -> SufficientStats:
    """Stage totals of the spacings under ``spec``.

    kim-kvam: S_j = (k-j+1) * sum_i t_ij for every stage.
    ssk:      same through stage s, then S_j = (k-j+1)/2 * sum_i t_ij^2,
              plus the log term sum_i sum_{j>s} log t_ij.

    A total that overflows or underflows float64 is a data error naming its
    column.
    """
    if t.k != spec.k:
        raise DimensionMismatch(f"data has {t.k} columns but the model expects k={spec.k}")
    totals = tuple(_stage_totals(spec, t.data).tolist())
    log_term = 0.0
    if spec.kind is ModelKind.SSK:
        log_term = float(np.log(t.data).sum(axis=0)[spec.s :].sum())
    for j, v in enumerate(totals, start=1):
        if not (math.isfinite(v) and v > 0):
            raise DataFileError(
                f"column {j}: the stage total {v:g} is outside the float64 range; "
                "rescale the data"
            )
    return SufficientStats(spec, t.n, totals, log_term)


def spacings_from_lifetimes(lifetimes) -> SpacingsMatrix:
    """Convert raw component lifetimes to inter-failure spacings.

    Each row holds the k individual component lifetimes of one system in any
    order. The row is sorted ascending and consecutive differences are taken
    (first spacing measured from time 0). Ties within a row are rejected:
    a zero spacing would make the load-share estimates undefined, and
    breaking ties is a caller policy, not something done silently here.
    """
    arr = np.array(lifetimes, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(
            f"lifetimes must form a 2-D matrix, got {arr.ndim} dimension(s)"
        )
    bad = ~(np.isfinite(arr) & (arr > 0))
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise NonPositiveLifetime(
            f"lifetime at row {i + 1}, column {j + 1} must be finite and > 0 "
            f"(got {arr[i, j]})",
            row=i + 1,
            col=j + 1,
        )
    ordered = np.sort(arr, axis=1)
    tied = ordered[:, 1:] == ordered[:, :-1]
    if tied.any():
        i, j = map(int, np.argwhere(tied)[0])
        raise DuplicateLifetime(
            f"system {i + 1} contains the lifetime {ordered[i, j]} twice; "
            "tied failures give a zero spacing",
            row=i + 1,
        )
    spacings = np.diff(ordered, axis=1, prepend=0.0)
    return SpacingsMatrix(spacings)


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
