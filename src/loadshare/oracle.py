"""Independent numeric cross-check for the closed-form estimates.

This module re-derives the maximum likelihood estimates the slow way, the
way one would without the closed forms: a damped Newton ascent in log space
u = log(theta, lambda_1, ...) (so positivity is structural, never clamped)
driven by nothing but log-likelihood values of the data's sufficient
statistic. Each iteration takes central-difference estimates of the gradient
g and Hessian H, solves -H d = g by Cholesky, and steps along d with t = 1,
doubled while the value improves or halved until it does. The search shares
no code path with the analytic score or the closed-form ratios, so agreement
between the two routes is meaningful evidence, not circularity.

In u the log-likelihood is c + nk u_0 + n sum_j u_j - sum_j S_j exp(a_j . u)
with linearly independent a_j, so it is strictly concave with one maximum.
The ascent stops on a certificate of it: the Newton decrement g'(-H)^-1 g
falls to the resolution of the value (Boyd & Vandenberghe 2004, 9.5). One
final undamped Newton step follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoConvergence
from .estimate import FitResult, closed_form_mle
from .model import ModelKind, ModelSpec, Params, SpacingsMatrix, SufficientStats, sufficient_stats
from .simulate import RngState, sample_dataset

__all__ = [
    "CrosscheckResult",
    "numeric_mle",
    "finite_difference_gradient",
    "random_instances",
    "crosscheck",
    "VERIFY_PARAM_TOL",
    "VERIFY_LOGLIK_TOL",
]

# Agreement thresholds between the closed forms and the numeric maximizer.
VERIFY_PARAM_TOL = 1e-6
VERIFY_LOGLIK_TOL = 1e-9

_STEP = 2e-5  # central-difference step in log space
_DECREMENT_TOL = 1e-12  # certificate: Newton decrement <= this * max(1, |logL|)
_MAX_ITERS = 100


def _objective(stats: SufficientStats):
    """The log-likelihood at u = log(theta, lambda...); -inf if exp(u) leaves float64."""
    evaluate = stats._log_likelihood

    def objective(u: np.ndarray) -> float:
        values = np.exp(u).tolist()
        for v in values:
            if not (math.isfinite(v) and v > 0.0):
                return -math.inf
        return evaluate(values[0], values[1:])

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


def _expand_or_halve(f, u: np.ndarray, f_u: float, d: np.ndarray) -> tuple[np.ndarray, float]:
    """Step to u + t d with t = 1, doubled while f improves, else halved until it does."""
    t, f_new = 1.0, f(u + d)
    if f_new > f_u:
        while (f_next := f(u + 2.0 * t * d)) > f_new:
            t, f_new = 2.0 * t, f_next
    while not f_new > f_u:
        t *= 0.5
        if t == 0.0:
            raise NoConvergence("no step along the ascent direction raises the log-likelihood")
        f_new = f(u + t * d)
    return u + t * d, f_new


def numeric_mle(spec: ModelSpec, t: SpacingsMatrix) -> FitResult:
    """Maximize the log-likelihood using function values only.

    Starts from all parameters equal to 1 (the known stage-1 multiplier) with
    no data-dependent warm start, so the check stays adversarial. Raises
    :class:`NoConvergence` if the iteration cap is hit, or no step improves
    the value, before the Newton decrement certifies the maximum.
    """
    stats = sufficient_stats(spec, t)
    objective = _objective(stats)
    evals = 0

    def f(u: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return objective(u)

    u = np.zeros(spec.k)  # log space; exp(0) = 1 everywhere
    # Probes far out in log space overflow or underflow exp(u), and differences
    # of their -inf values are nan, which Cholesky rejects: numpy need not warn.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        f_u = f(u)
        for iteration in range(1, _MAX_ITERS + 1):
            grad, hess = _derivatives(f, u, f_u)
            try:
                chol = np.linalg.cholesky(-hess)
                z = np.linalg.solve(chol, grad)  # decrement = |L^-1 g|^2
                direction, decrement = np.linalg.solve(chol.T, z), float(z @ z)
            except np.linalg.LinAlgError:  # far from the maximum -H can be noise
                direction, decrement = grad, math.inf  # climb g, certify nothing
            if decrement <= _DECREMENT_TOL * max(1.0, abs(f_u)):
                u = u + direction
                f_u = f(u)
                break
            u, f_u = _expand_or_halve(f, u, f_u, direction)
        else:
            raise NoConvergence(
                f"no certificate after {_MAX_ITERS} Newton iterations (decrement {decrement:.3e})"
            )

    values = np.exp(u)
    return FitResult(
        params_hat=Params(values[0], tuple(values[1:])),
        loglik_at_mle=f_u,
        stats=stats,
        model=spec,
        n=t.n,
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


def _log_uniform(rng: RngState, size, low=0.1, high=10.0) -> np.ndarray:
    u = rng.uniform_open(size)
    return np.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def random_instances(kind: ModelKind, count: int, seed: int):
    """Seeded random (spec, truth, data) triples for validation runs.

    k is uniform over 2..6 (3..6 for ssk, which needs 2 <= s <= k-1), n over
    1..20, and every parameter is log-uniform in [0.1, 10]. Instance i is a
    pure function of (seed, i).
    """
    kind = ModelKind(kind)
    master = RngState(seed)
    instances = []
    for i in range(count):
        rng = master.child(i)
        k_low = 2 if kind is ModelKind.KIM_KVAM else 3
        k = k_low + int(rng.uniform_open(()) * (7 - k_low))
        if kind is ModelKind.KIM_KVAM:
            spec = ModelSpec.kim_kvam(k)
        else:
            s = 2 + int(rng.uniform_open(()) * (k - 2))
            spec = ModelSpec.ssk(k, s)
        n = 1 + int(rng.uniform_open(()) * 20)
        theta = float(_log_uniform(rng, ()))
        lambdas = tuple(_log_uniform(rng, k - 1))
        truth = Params(theta, lambdas)
        data = sample_dataset(spec, truth, n, rng)
        instances.append((spec, truth, data))
    return instances


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


def crosscheck(spec: ModelSpec, t: SpacingsMatrix) -> CrosscheckResult:
    """Fit both routes and measure their disagreement."""
    closed = closed_form_mle(spec, t)
    numeric = numeric_mle(spec, t)
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
