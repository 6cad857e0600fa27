"""Independent numeric cross-check for the closed-form estimates.

This module re-derives the maximum likelihood estimates the slow way, the
way one would without the closed forms: cyclic coordinate ascent driven by
nothing but log-likelihood values. Each coordinate is searched in log space
(so positivity is structural, never clamped) by bracketing a maximum with
geometric expansion and refining it with derivative-free golden-section
search on likelihood values of the data's sufficient statistics. The
objective is built once per dataset: the statistic is reduced once, and each
evaluation passes plain floats to its value-only log-likelihood. The search
shares no code path with the analytic score or the closed-form ratios, so
agreement between the two routes is meaningful evidence, not circularity.

A proposed coordinate move is accepted only if it strictly increases the
log-likelihood. That makes the ascent monotone by construction and lets it
terminate at an exact fixed point: once no coordinate can improve, the sweep
changes nothing and convergence is declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoConvergence
from .estimate import FitResult, closed_form_mle
from .model import ModelKind, ModelSpec, Params, SpacingsMatrix, sufficient_stats
from .simulate import RngState, sample_dataset

__all__ = [
    "OracleConfig",
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

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LINE_SEARCH_REL_WIDTH = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the coordinate-ascent maximizer.

    ``tol`` is the largest relative parameter change over a full sweep below
    which the search stops; ``bracket_expand`` is the geometric growth factor
    used while hunting for a bracket around each 1-D maximum.
    """

    max_iters: int = 200
    tol: float = 1e-10
    bracket_expand: float = 4.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidParams(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise InvalidParams(f"tol must be > 0, got {self.tol}")
        if not self.bracket_expand > 1:
            raise InvalidParams(f"bracket_expand must be > 1, got {self.bracket_expand}")


def _golden_section_max(g, a, b, best_x, best_f):
    """Refine a bracketed 1-D maximum, tracking the best point ever evaluated."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1 = g(x1)
    f2 = g(x2)
    if f1 > best_f:
        best_x, best_f = x1, f1
    if f2 > best_f:
        best_x, best_f = x2, f2
    while (b - a) > _LINE_SEARCH_REL_WIDTH * (1.0 + abs(a) + abs(b)):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = g(x2)
            if f2 > best_f:
                best_x, best_f = x2, f2
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = g(x1)
            if f1 > best_f:
                best_x, best_f = x1, f1
    return best_x, best_f


def _line_search_max(g, x0, f0, step, expand):
    """Bracket a maximum around x0 by geometric expansion, then golden-section it.

    Returns the best point found and its value; never worse than (x0, f0).
    """
    best_x, best_f = x0, f0
    xr, xl = x0 + step, x0 - step
    fr, fl = g(xr), g(xl)
    if fr > best_f:
        best_x, best_f = xr, fr
    if fl > best_f:
        best_x, best_f = xl, fl
    if fr <= f0 and fl <= f0:
        # x0 already beats both probes: the maximum is inside [xl, xr].
        a, b = xl, xr
    else:
        direction = 1.0 if fr >= fl else -1.0
        prev_x = x0
        curr_x, curr_f = (xr, fr) if direction > 0 else (xl, fl)
        h = step
        while True:
            h *= expand
            next_x = x0 + direction * h
            next_f = g(next_x)
            if next_f > best_f:
                best_x, best_f = next_x, next_f
            if next_f < curr_f:
                break
            prev_x = curr_x
            curr_x, curr_f = next_x, next_f
        a, b = (prev_x, next_x) if direction > 0 else (next_x, prev_x)
    return _golden_section_max(g, a, b, best_x, best_f)


def numeric_mle(spec: ModelSpec, t: SpacingsMatrix, cfg: OracleConfig | None = None) -> FitResult:
    """Maximize the log-likelihood using function values only.

    Starts from all parameters equal to 1 (the known stage-1 multiplier) with
    no data-dependent warm start, so the check stays adversarial. The
    objective is built once per dataset from its sufficient statistic; a probe
    whose exp(u) leaves the positive float64 range scores -inf. Raises
    :class:`NoConvergence` if the sweep limit is hit while parameters are
    still moving faster than ``cfg.tol``.
    """
    if cfg is None:
        cfg = OracleConfig()
    stats = sufficient_stats(spec, t)
    evaluate = stats._log_likelihood
    k = spec.k
    evals = 0

    def objective(u: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        values = np.exp(u).tolist()
        for v in values:
            if not (math.isfinite(v) and v > 0.0):
                return -math.inf
        return evaluate(values[0], values[1:])

    u = np.zeros(k)  # log space; exp(0) = 1 everywhere
    steps = np.full(k, 0.5)
    sweeps_used = cfg.max_iters
    converged = False

    # Probes far out in log space overflow or underflow exp(u) or the exponent;
    # the objective reads those as -inf, so numpy need not warn about them.
    with np.errstate(over="ignore", under="ignore"):
        f_cur = objective(u)
        for sweep in range(1, cfg.max_iters + 1):
            max_rel_change = 0.0
            for i in range(k):
                trial = u.copy()

                def g(x, _i=i, _trial=trial):
                    _trial[_i] = x
                    return objective(_trial)

                old = u[i]
                best_x, best_f = _line_search_max(g, old, f_cur, steps[i], cfg.bracket_expand)
                if best_f > f_cur:
                    u[i] = best_x
                    assert best_f >= f_cur, "line search decreased the log-likelihood"
                    f_cur = best_f
                    moved = abs(best_x - old)
                else:
                    moved = 0.0
                steps[i] = min(max(2.0 * moved, 1e-9), 1.0)
                max_rel_change = max(max_rel_change, abs(math.expm1(moved)))
            if max_rel_change < cfg.tol:
                sweeps_used = sweep
                converged = True
                break
    if not converged:
        raise NoConvergence(
            f"coordinate ascent still moving after {cfg.max_iters} sweeps "
            f"(last sweep's max relative change {max_rel_change:.3e} >= tol {cfg.tol:.3e})"
        )

    values = np.exp(u)
    params_hat = Params(values[0], tuple(values[1:]))
    return FitResult(
        params_hat=params_hat,
        loglik_at_mle=f_cur,
        stats=stats,
        model=spec,
        n=t.n,
        diagnostics={"sweeps": sweeps_used, "loglik_evals": evals},
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


def crosscheck(spec: ModelSpec, t: SpacingsMatrix, cfg: OracleConfig | None = None) -> CrosscheckResult:
    """Fit both routes and measure their disagreement."""
    closed = closed_form_mle(spec, t)
    numeric = numeric_mle(spec, t, cfg)
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
