"""Forward simulation and Monte Carlo parameter-recovery studies.

Spacings are simulated stage by stage rather than via k raw component
lifetimes: the likelihood factorizes over stages, so stage j's spacing can
be drawn directly from its marginal law. With k-j+1 survivors each at rate
``lambda_{j-1} * theta`` the stage spacing is exponential with rate
``(k-j+1) * lambda_{j-1} * theta``; in the ssk accelerating phase the
per-component hazard ``lambda_{j-1} * theta * t`` restarts its clock at each
failure, so the stage spacing is Rayleigh. Either way the stage's exposure
(rate * t, or rate * t**2 / 2 past the switch) is a unit exponential, -log U,
and each spacing is solved from it.

The parameters are judged before anything is drawn: the uniforms of
``Generator.random`` lie in [2**-53, 1 - 2**-53], so every exposure lies in
about [1.1e-16, 36.74], and each spacing is monotone in its exposure. If every
stage's spacing is finite and > 0 at both ends, no draw can fail. So
:func:`_sample_blocks` judges them once, then draws rows in blocks (about
``_BLOCK_UNIFORMS`` values of whole rows for ``simulate``, whose writer cuts
its own slices, n for :func:`sample_dataset`, whole replications for
:func:`mc_study`). Every block size reads the stream as one matrix would,
unless an exact zero (probability 2**-53 per draw) was redrawn, which happens
after its own block.

All randomness flows through :class:`RngState` (PCG64), which yields the
same stream for the same seed on every platform. :func:`mc_study` draws every
replication from one stream derived once from the master seed, in blocks of
about ``_BLOCK_UNIFORMS`` uniforms. :func:`model._fold`, the fold of
:func:`model.sufficient_stats` and :func:`io.read_stats`, sums each block's
(n, k, reps) view over its n systems, so a stage is a run of replications;
each block's closed-form estimates are folded into the summary's sums as they
are made, so memory is O(block) whatever the number of replications.
Replication r takes the stream's r-th run of n*k draws; the results depend on
the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidParams, InvalidSampleSize
from .model import (
    ModelSpec,
    Params,
    SpacingsMatrix,
    _check_int,
    _closed_form,
    _first_bad,
    _fold,
    _multipliers,
    _stage_totals,
    _survivors,
)

__all__ = [
    "RngState",
    "McSummary",
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
        _check_int(InvalidSampleSize, "seed must be an integer in [0, 2**64)", seed, 0, 2**64)
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
        while not u.all():  # the zero mask is built only when there is a zero to redraw
            zero = u == 0.0
            u[zero] = self._generator.random(int(zero.sum()))
        return u

    def __repr__(self):
        return f"RngState(seed={self.seed}, spawn_key={self._spawn_key})"


def _out_of_range(params: Params, what: str) -> InvalidParams:
    lambdas = ",".join(f"{l:g}" for l in params.lambdas)
    return InvalidParams(
        f"theta={params.theta:g} and lambda={lambdas} give {what} outside the float64 range"
    )


def _stage_rates(spec: ModelSpec, params: Params) -> np.ndarray:
    """The stage rates, once every spacing a draw can give is known to be finite and > 0."""
    with np.errstate(over="ignore", under="ignore"):
        rates = _survivors(spec.k) * _multipliers(spec, params) * params.theta
    bad = _first_bad(rates)
    if bad is not None:
        raise _out_of_range(params, f"stage {bad[0] + 1} the rate {rates[bad]:g}")
    # The least and greatest exposure: Generator.random's uniforms lie in [2**-53, 1 - 2**-53].
    ends = np.array([[1.0 - 2.0**-53], [2.0**-53]]).repeat(spec.k, 1)
    bad = _first_bad(_draw_spacings(spec, rates, ends).T)
    if bad is not None:
        raise _out_of_range(params, f"stage {bad[0] + 1} a sampled spacing")
    return rates


def _draw_spacings(spec: ModelSpec, rates: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The uniforms ``t`` (..., k) become spacings in place: -log U / rate, and past the ssk
    switch sqrt(2 * (-log U) / rate)."""
    rayleigh = t[..., spec.s or spec.k :]  # the stages past the switch; none in kim-kvam
    with np.errstate(all="ignore"):
        np.log(t, out=t)
        np.negative(t, out=t)  # the unit-exponential exposures
        rayleigh *= 2.0
        t /= rates
        np.sqrt(rayleigh, out=rayleigh)
    return t


# Uniforms drawn per block: enough to amortise numpy's per-call overhead, few enough that a
# block's temporaries stay a few hundred KB at any k (blocks of 2**16 raised the peak memory
# of a 20k-replication study by 5 %).
_BLOCK_UNIFORMS = 2**14


def _sample_blocks(spec: ModelSpec, params: Params, n: int, rng: RngState,
                   rows: int | None = None) -> Iterator[np.ndarray]:
    """n rows of spacings from ``rng``, ``rows`` (by default about ``_BLOCK_UNIFORMS`` values)
    at a time. n and the parameters are judged now; each block is drawn when it is asked for."""
    _check_int(InvalidSampleSize, "sample size n must be a positive integer", n, 1)
    rates, rows = _stage_rates(spec, params), rows or max(1, _BLOCK_UNIFORMS // spec.k)
    return (_draw_spacings(spec, rates, rng.uniform_open((min(rows, n - lo), spec.k)))
            for lo in range(0, n, rows))


def sample_dataset(spec: ModelSpec, params: Params, n: int, rng: RngState) -> SpacingsMatrix:
    """n independent systems in one block: the same draws as n successive datasets of one system."""
    # _stage_rates judged every spacing a draw can give, and the fresh array is no one else's.
    return SpacingsMatrix._adopt(next(_sample_blocks(spec, params, n, rng, n)))


@dataclass(frozen=True)
class McSummary:
    """Per-parameter recovery summary over ``reps`` simulated replications.

    Vectors are ordered (theta, lambda_1, ..., lambda_{k-1}); ``bias`` and
    ``mse`` are taken about the true parameters given to :func:`mc_study`.
    ``se_mean`` and ``se_mse`` are the Monte Carlo standard errors of
    ``mean_estimates`` and ``mse``, sqrt(M2 / (reps - 1) / reps) from the
    centred sums of squares M2, NaN when reps < 2. :func:`mc_study` merges each
    block of b replications after lo others into M2 (Chan, Golub & LeVeque
    1979): it adds the block's centred squares and (block mean - sums / lo)**2
    * lo * b / (lo + b), so memory is O(block) for any reps.
    """

    reps: int
    mean_estimates: np.ndarray
    bias: np.ndarray
    mse: np.ndarray
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


def _block_estimates(spec: ModelSpec, truth: Params, d: np.ndarray) -> np.ndarray:
    """(reps, k) closed-form estimates of the (reps, n, k) replications ``d`` drawn at ``truth``."""
    totals = _stage_totals(spec, _fold(d.transpose(1, 2, 0), spec, np.zeros((spec.k, len(d)))))
    bad = _first_bad(totals)
    if bad is not None:
        raise _out_of_range(truth, f"stage {bad[-1] + 1} an exposure total")
    estimates = _closed_form(d.shape[1], totals)
    bad = _first_bad(estimates)
    if bad is not None:
        name = "theta" if bad[-1] == 0 else f"lambda_{bad[-1]}"
        raise _out_of_range(truth, f"the estimate of {name} a value")
    return estimates


def mc_study(spec: ModelSpec, truth: Params, n: int, reps: int, rng: RngState,
             workers: int = 1) -> McSummary:
    """Simulate ``reps`` datasets of size ``n``, fit each, summarize recovery.

    Requires n >= 2: the closed-form rate estimate has no finite mean at
    n = 1, so a recovery study there is meaningless. Replications are drawn
    from the single stream ``rng.child(0)`` (``rng`` itself is not advanced)
    and fitted in blocks of about ``_BLOCK_UNIFORMS`` uniforms, each summarised
    as it is made, so the results depend only on the master seed and memory is
    O(block) whatever ``reps`` is. ``workers`` is accepted for compatibility
    and starts no threads: results are bit-identical for every value.

    Parameters so extreme that a sampled spacing, a stage total, an
    estimate or a summary statistic leaves the float64 range raise
    :class:`InvalidParams` naming theta and lambda.
    """
    _check_int(InvalidSampleSize,
               "recovery study needs n >= 2 (estimator mean is undefined at n = 1)", n, 2)
    _check_int(InvalidSampleSize, "reps must be a positive integer", reps, 1)
    truth_vec, per_block = truth.as_array(), max(1, _BLOCK_UNIFORMS // (n * spec.k))
    blocks = _sample_blocks(spec, truth, n * reps, rng.child(0), per_block * n)
    sums, m2 = np.zeros((2, spec.k)), np.zeros((2, spec.k))  # of the estimates, squared errors
    with np.errstate(all="ignore"):
        for lo, d in zip(range(0, reps, per_block), blocks):
            rows = np.empty((2, spec.k, len(d) // n + 1))  # column 0 holds the sums
            x, b, rows[..., 0] = rows[..., 1:], rows.shape[-1] - 1, sums
            x[0] = _block_estimates(spec, truth, d.reshape(b, n, spec.k)).T
            np.square(np.subtract(x[0], truth_vec[:, None], out=x[1]), out=x[1])
            block_mean = x.mean(axis=-1)
            m2 += np.square(x - block_mean[..., None]).sum(axis=-1)
            m2 += np.square(block_mean - sums / max(lo, 1)) * (lo * b / (lo + b))
            sums = np.add.accumulate(rows, axis=-1)[..., -1]  # in order, like numpy column sums
        (mean, mse), (se_mean, se_mse) = sums / reps, np.sqrt(m2 / (reps - 1) / reps)
        bias = mean - truth_vec
        checked = (mean, mse, bias**2) + ((se_mean, se_mse) if reps > 1 else ())
    if not all(np.isfinite(c).all() for c in checked):
        raise _out_of_range(truth, "a Monte Carlo summary statistic")
    return McSummary(reps, mean, bias, mse, se_mean, se_mse)
