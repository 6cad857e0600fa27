"""Forward simulation and Monte Carlo parameter-recovery studies.

Spacings are simulated stage by stage rather than via k raw component
lifetimes: the likelihood factorizes over stages, so stage j's spacing can
be drawn directly from its marginal law. With k-j+1 survivors each at rate
``lambda_{j-1} * theta`` the stage spacing is exponential with rate
``(k-j+1) * lambda_{j-1} * theta``; in the ssk accelerating phase the
per-component hazard ``lambda_{j-1} * theta * t`` restarts its clock at each
failure, so the stage spacing is Rayleigh and is drawn by inverting its CDF.

All randomness flows through :class:`RngState` (PCG64), which yields the
same stream for the same seed on every platform. Replications in
:func:`mc_study` use child states derived from the master seed by mixing in
the replicate index, so results do not depend on execution order or worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParams, InvalidSampleSize
from .estimate import closed_form_mle
from .model import ModelKind, ModelSpec, Params, SpacingsMatrix, _multipliers, _survivors

__all__ = [
    "RngState",
    "McSummary",
    "exponential_spacing",
    "rayleigh_spacing",
    "sample_system",
    "sample_dataset",
    "mc_study",
]


class RngState:
    """Seeded, reproducible random generator (PCG64).

    ``seed`` is a 64-bit unsigned integer. ``child(index)`` derives an
    independent stream by mixing the index into the seed (SeedSequence spawn
    keys), so a family of replicate streams is fixed by the master seed
    alone.
    """

    __slots__ = ("seed", "_spawn_key", "_generator")

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise InvalidSampleSize(f"seed must be an integer in [0, 2**64), got {seed!r}")
        self.seed = seed
        self._spawn_key = tuple(_spawn_key)
        self._generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(seed, spawn_key=self._spawn_key))
        )

    def child(self, index: int) -> "RngState":
        """Derived stream for replicate ``index``; independent of this stream's state."""
        return RngState(self.seed, self._spawn_key + (int(index),))

    def uniform_open(self, size) -> np.ndarray:
        """Uniform draws from the open interval (0, 1).

        ``Generator.random`` covers [0, 1); the measure-zero exact zeros are
        redrawn so downstream logs and square roots stay finite.
        """
        u = self._generator.random(size)
        while True:
            zero = u == 0.0
            if not zero.any():
                return u
            u[zero] = self._generator.random(int(zero.sum()))

    def __repr__(self):
        return f"RngState(seed={self.seed}, spawn_key={self._spawn_key})"


def exponential_spacing(u, rate):
    """Inverse-CDF transform: exponential variate with the given rate from U in (0,1)."""
    return -np.log(u) / rate

def rayleigh_spacing(u, rate):
    """Inverse-CDF transform for the accelerating phase.

    The stage survival function is exp(-rate * t^2 / 2), so
    t = sqrt(2 * (-log U) / rate). Squaring back, rate * t^2 / 2 is a unit
    exponential: the accelerating-phase exposure is exponential just like
    the constant-phase one.
    """
    return np.sqrt(2.0 * (-np.log(u)) / rate)


def _stage_rates(spec: ModelSpec, params: Params) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        rates = _survivors(spec.k) * _multipliers(spec, params) * params.theta
    for j, rate in enumerate(rates.tolist(), start=1):
        if not (math.isfinite(rate) and rate > 0):
            raise InvalidParams(
                f"theta={params.theta:g} and lambda={','.join(f'{l:g}' for l in params.lambdas)} "
                f"give stage {j} the rate {rate:g}; every stage rate must be finite and > 0"
            )
    return rates


def _spacings_from_uniforms(spec: ModelSpec, rates: np.ndarray, u: np.ndarray) -> np.ndarray:
    if spec.kind is ModelKind.KIM_KVAM:
        return exponential_spacing(u, rates)
    constant = exponential_spacing(u[..., : spec.s], rates[: spec.s])
    accelerating = rayleigh_spacing(u[..., spec.s :], rates[spec.s :])
    return np.concatenate((constant, accelerating), axis=-1)


def sample_system(spec: ModelSpec, params: Params, rng: RngState) -> np.ndarray:
    """One system's k stage spacings, drawn stage by stage from ``rng``."""
    rates = _stage_rates(spec, params)
    return _spacings_from_uniforms(spec, rates, rng.uniform_open(spec.k))


def sample_dataset(spec: ModelSpec, params: Params, n: int, rng: RngState) -> SpacingsMatrix:
    """n independent systems; identical to n successive :func:`sample_system` rows."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidSampleSize(f"sample size n must be a positive integer, got {n!r}")
    rates = _stage_rates(spec, params)
    u = rng.uniform_open((n, spec.k))
    return SpacingsMatrix(_spacings_from_uniforms(spec, rates, u))


@dataclass(frozen=True)
class McSummary:
    """Per-parameter recovery summary over ``reps`` simulated replications.

    Vectors are ordered (theta, lambda_1, ..., lambda_{k-1}). ``se_mean`` and
    ``se_mse`` are the Monte Carlo standard errors of ``mean_estimates`` and
    ``mse``, for noise-aware comparisons; they are NaN when reps < 2.
    """

    reps: int
    mean_estimates: np.ndarray
    bias: np.ndarray
    mse: np.ndarray
    truth: Params
    se_mean: np.ndarray
    se_mse: np.ndarray

    def __post_init__(self):
        for name in ("mean_estimates", "bias", "mse", "se_mean", "se_mse"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        # variance nonnegativity, up to float rounding
        if not np.all(self.mse >= self.bias**2 - 1e-12):
            raise AssertionError("mse < bias^2 beyond rounding slack; summary is inconsistent")


def mc_study(
    spec: ModelSpec,
    truth: Params,
    n: int,
    reps: int,
    rng: RngState,
    workers: int = 1,
) -> McSummary:
    """Simulate ``reps`` datasets of size ``n``, fit each, summarize recovery.

    Requires n >= 2: the closed-form rate estimate has no finite mean at
    n = 1, so a recovery study there is meaningless. Results are bit-identical
    for a fixed master seed regardless of ``workers``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidSampleSize(
            f"recovery study needs n >= 2 (estimator mean is undefined at n = 1), got {n!r}"
        )
    if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
        raise InvalidSampleSize(f"reps must be a positive integer, got {reps!r}")
    _stage_rates(spec, truth)  # validate dimensions and rates up front
    estimates = np.empty((reps, spec.k))

    def run_block(block: range) -> None:
        for r in block:
            data = sample_dataset(spec, truth, n, rng.child(r))
            fit = closed_form_mle(spec, data)
            estimates[r, 0] = fit.params_hat.theta
            estimates[r, 1:] = fit.params_hat.lambdas

    if workers <= 1:
        run_block(range(reps))
    else:
        chunk = -(-reps // workers)
        blocks = [range(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, blocks))

    truth_vec = truth.as_array()
    mean = estimates.mean(axis=0)
    errors = estimates - truth_vec
    mse = (errors**2).mean(axis=0)
    if reps > 1:
        se_mean = estimates.std(axis=0, ddof=1) / np.sqrt(reps)
        se_mse = (errors**2).std(axis=0, ddof=1) / np.sqrt(reps)
    else:
        se_mean = np.full(spec.k, np.nan)
        se_mse = np.full(spec.k, np.nan)
    return McSummary(
        reps=reps,
        mean_estimates=mean,
        bias=mean - truth_vec,
        mse=mse,
        truth=truth,
        se_mean=se_mean,
        se_mse=se_mse,
    )
