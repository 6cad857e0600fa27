"""Independent numeric cross-check for the closed-form estimates.

This module re-derives the maximum likelihood estimates the slow way, the
way one would without the closed forms: a damped Newton ascent in log space
u = log(theta, lambda_1, ...) driven by nothing but values of its own formula
f(u) = c + nk u_0 + n sum_{j>=1} u_j - sum_j exp(u_0 + u_{j-1} + log S_j)
(u_{j-1} read as 0 at j = 1). Each exposure theta lambda_{j-1} S_j is formed
from its logarithm, so f is finite at every float64 scale of the data and
-inf only where an exposure overflows. The ascent starts at lambda = 1,
theta = 1 / max_j S_j. Each iteration takes central-difference estimates of
the gradient g and Hessian H, solves -H d = g by Cholesky, and backtracks,
halving t from 1 until f(u + t d) > f(u). Where an exposure underflows -H is
singular; d is then g over the floored diagonal of -H, so flat coordinates
still cross many log-units per step. The search shares no code path with the
likelihood, the score or the closed-form ratios, so agreement between the
two routes is meaningful evidence, not circularity.

f is strictly concave (the exponents are linearly independent in u), so it
has one maximum. The ascent stops on a certificate of it: the Newton
decrement g'(-H)^-1 g falls to the resolution of the value (Boyd &
Vandenberghe 2004, 9.5). One final undamped Newton step follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoConvergence
from .estimate import FitResult, closed_form_mle
from .model import ModelKind, ModelSpec, Params, SpacingsMatrix, SufficientStats, sufficient_stats

__all__ = [
    "CrosscheckResult",
    "numeric_mle",
    "finite_difference_gradient",
    "random_instances",
    "crosscheck",
]

# Agreement thresholds between the closed forms and the numeric maximizer.
VERIFY_PARAM_TOL = 1e-6
VERIFY_LOGLIK_TOL = 1e-9

_STEP = 2e-5  # central-difference step in log space
_DECREMENT_TOL = 1e-12  # certificate: Newton decrement <= this * max(1, |logL|)
_MAX_ITERS = 100


def _objective(stats: SufficientStats):
    """The module's f: the log-likelihood at u = log(theta, lambda...), -inf past float64."""
    n, k, log_totals = stats.n, stats.spec.k, [math.log(s) for s in stats.totals]
    const = (n * math.lgamma(k + 1), stats.log_term)

    def objective(u: np.ndarray) -> float:
        u0, *v = u.tolist()  # log theta, then the log lambdas
        try:
            return math.fsum([*const, n * k * u0, n * math.fsum(v), *(
                -math.exp(u0 + l + ls) for l, ls in zip((0.0, *v), log_totals))])
        except OverflowError:
            return -math.inf

    return objective


def _derivatives(f, u: np.ndarray, f_u: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient and Hessian of f at u, from 2k^2 evaluations."""
    e = _STEP * np.eye(u.size)
    plus = [f(u + ei) for ei in e]
    minus = [f(u - ei) for ei in e]
    grad = (np.array(plus) - np.array(minus)) / (2.0 * _STEP)
    hess = np.empty((u.size, u.size))
    for i in range(u.size):
        hess[i, i] = (plus[i] - 2.0 * f_u + minus[i]) / _STEP**2
        for j in range(i):
            hess[i, j] = hess[j, i] = (
                f(u + e[i] + e[j]) - f(u + e[i] - e[j]) - f(u - e[i] + e[j]) + f(u - e[i] - e[j])
            ) / (4.0 * _STEP**2)
    return grad, hess


def _backtrack(f, u: np.ndarray, f_u: float, d: np.ndarray) -> tuple[np.ndarray, float]:
    """Step to u + t d with the first t in 1, 1/2, 1/4, ... that raises f."""
    t = 1.0
    while not (f_new := f(u + t * d)) > f_u:
        t *= 0.5
        if t == 0.0:
            raise NoConvergence("no step along the ascent direction raises the log-likelihood")
    return u + t * d, f_new


def numeric_mle(spec: ModelSpec, t: SpacingsMatrix | SufficientStats) -> FitResult:
    """Maximize the log-likelihood of spacings, or stats, using function values only.

    Starts at lambda = 1 and theta = 1 / max_j S_j, where every exposure is at
    most 1: the start knows the data's scale but not the closed form, and only
    the certificate vouches for the result. Steps backtrack along the Newton
    direction, or along the diagonally scaled gradient where Cholesky rejects
    -H. Raises :class:`NoConvergence` if the iteration cap is hit, or no step
    improves the value, before the Newton decrement certifies the maximum.
    """
    stats = sufficient_stats(spec, t)
    objective = _objective(stats)
    evals = 0

    def f(u: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return objective(u)

    u = np.array([-math.log(max(stats.totals)), *[0.0] * (spec.k - 1)])
    # A probe whose exposure overflows scores -inf, and differences of -inf
    # are nan, which Cholesky rejects: numpy need not warn.
    with np.errstate(invalid="ignore"):
        f_u = f(u)
        for iteration in range(1, _MAX_ITERS + 1):
            grad, hess = _derivatives(f, u, f_u)
            try:
                chol = np.linalg.cholesky(-hess)
                z = np.linalg.solve(chol, grad)  # decrement = |L^-1 g|^2
                direction, decrement = np.linalg.solve(chol.T, z), float(z @ z)
            except np.linalg.LinAlgError:  # -H is singular where an exposure underflows
                curvature = -np.diag(hess)  # climb g per unit curvature, certify nothing
                floor = 1e-6 * max(1.0, float(np.max(curvature)))
                direction, decrement = grad / np.maximum(curvature, floor), math.inf
            if decrement <= _DECREMENT_TOL * max(1.0, abs(f_u)):
                u = u + direction
                f_u = f(u)
                break
            u, f_u = _backtrack(f, u, f_u, direction)
        else:
            raise NoConvergence(
                f"no certificate after {_MAX_ITERS} Newton iterations (decrement {decrement:.3e})"
            )

    values = np.exp(u)
    return FitResult(
        params_hat=Params(values[0], tuple(values[1:])),
        loglik_at_mle=f_u,
        stats=stats,
        # "sweeps" and "loglik_evals" keep the names the benchmark tracer reads.
        diagnostics={"sweeps": iteration, "loglik_evals": evals, "decrement": decrement},
    )


def finite_difference_gradient(
    spec: ModelSpec, params: Params, t: SpacingsMatrix, step: float
) -> np.ndarray:
    """Central-difference gradient of the log-likelihood.

    One component per parameter in (theta, lambda_1, ...) order. The step is
    scaled per parameter as ``step * max(1, |p|)``; a perturbation that would
    leave the positive orthant raises :class:`InvalidParams`.
    """
    if not step > 0:
        raise InvalidParams(f"step must be > 0, got {step}")
    stats = sufficient_stats(spec, t)
    base = params.as_array()
    grad = np.empty(base.size)
    for i, p in enumerate(base):
        h = step * max(1.0, abs(p))
        if p - h <= 0.0:
            raise InvalidParams(
                f"finite-difference step {h} pushes parameter {i} (value {p}) out of "
                "the positive orthant"
            )
        up, down = base.copy(), base.copy()
        up[i] = p + h
        down[i] = p - h
        f_up = stats.log_likelihood(Params.from_array(up))
        f_down = stats.log_likelihood(Params.from_array(down))
        grad[i] = (f_up - f_down) / (2.0 * h)
    return grad


def _log_uniform(rng, size, low=0.1, high=10.0) -> np.ndarray:
    u = rng.uniform_open(size)
    return np.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def random_instances(kind: ModelKind, count: int, seed: int):
    """Seeded random (spec, truth, data) triples for validation runs.

    k is uniform over 2..6 (3..6 for ssk, which needs 2 <= s <= k-1), n over
    1..20, and every parameter is log-uniform in [0.1, 10]. Instance i is a
    pure function of (seed, i): :func:`_random_instance` draws it alone.
    """
    return [_random_instance(kind, seed, i) for i in range(count)]


def _random_instance(kind: ModelKind, seed: int, i: int):
    """Instance ``i`` of :func:`random_instances`, drawn from ``RngState(seed).child(i)``."""
    from .simulate import RngState, sample_dataset
    rng, ssk = RngState(seed).child(i), kind == ModelKind.SSK
    k_low = 3 if ssk else 2
    k = k_low + int(rng.uniform_open(()) * (7 - k_low))
    s = 2 + int(rng.uniform_open(()) * (k - 2)) if ssk else None
    spec = ModelSpec(kind, k, s)  # the judge of the kind as well
    n = 1 + int(rng.uniform_open(()) * 20)
    truth = Params(float(_log_uniform(rng, ())), tuple(_log_uniform(rng, k - 1)))
    return spec, truth, sample_dataset(spec, truth, n, rng)


@dataclass(frozen=True)
class CrosscheckResult:
    """Closed form vs numeric maximizer on one dataset."""

    closed: FitResult
    numeric: FitResult
    max_param_rel_discrepancy: float
    loglik_gap: float

    @property
    def ok(self) -> bool:
        return (
            self.max_param_rel_discrepancy <= VERIFY_PARAM_TOL
            and self.loglik_gap <= VERIFY_LOGLIK_TOL
        )


def crosscheck(spec: ModelSpec, t: SpacingsMatrix | SufficientStats) -> CrosscheckResult:
    """Fit both routes from one set of stats and measure their disagreement."""
    stats = sufficient_stats(spec, t)
    closed = closed_form_mle(spec, stats)
    numeric = numeric_mle(spec, stats)
    ref = closed.params_hat.as_array()
    got = numeric.params_hat.as_array()
    discrepancy = float(np.max(np.abs(got - ref) / np.abs(ref)))
    gap = abs(closed.loglik_at_mle - numeric.loglik_at_mle)
    return CrosscheckResult(
        closed=closed,
        numeric=numeric,
        max_param_rel_discrepancy=discrepancy,
        loglik_gap=gap,
    )
