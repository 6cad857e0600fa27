"""The likelihood against the models' definition: components, not stages.

Kim & Kvam (2004) and Singh, Sharma & Kumar (2008) define a load-sharing system by the hazard
of each component, which changes at every failure. During stage j the k-j+1 survivors share
one hazard, ``theta * lambda_{j-1}``: constant in kim-kvam and through stage s of ssk, and
``theta * lambda_{j-1} * u`` in the time u since the last failure past ssk's switch. The
density of one system's spacings is then, stage by stage, the failing component's hazard at
the spacing times every survivor's survival over it, with log k! for the k! labellings of
the failure order. Nothing here uses the package's survivor weights, multipliers or stage
totals, so the likelihood's algebra is checked against the definition, not against itself.

The same definition also simulates a system one component at a time: in each stage every
survivor draws its residual life from its own hazard, and the first failure ends the stage.
Its spacings must follow the package's sampler stage by stage, and ``fit`` must recover the
parameters from its raw component lifetimes within the exact law of the closed form.
"""

import json
import math

import numpy as np
import pytest

from loadshare import (
    ModelKind,
    ModelSpec,
    Params,
    RngState,
    SpacingsMatrix,
    sample_dataset,
    sufficient_stats,
)
from loadshare.cli import main

# Two-point Gauss-Legendre on [0, 1] integrates a hazard linear in u exactly.
_NODES = ((1 - 1 / math.sqrt(3)) / 2, (1 + 1 / math.sqrt(3)) / 2)

SPECS = [ModelSpec.kim_kvam(k) for k in range(2, 7)] + [
    ModelSpec.ssk(k, s) for k in range(3, 7) for s in range(2, k)
]
CASES = 50


def accelerating(spec: ModelSpec, stage: int) -> bool:
    """Whether the hazard grows linearly in the time since the last failure (past ssk's switch)."""
    return spec.kind is ModelKind.SSK and stage > spec.s


def stage_rate(params: Params, stage: int) -> float:
    return params.theta * (1.0 if stage == 1 else params.lambdas[stage - 2])


def hazard(spec: ModelSpec, params: Params, stage: int, u: float) -> float:
    """One surviving component's hazard, u after the (stage-1)-th failure (stages from 1)."""
    rate = stage_rate(params, stage)
    return rate * u if accelerating(spec, stage) else rate


def cumulative_hazard(spec: ModelSpec, params: Params, stage: int, t: float) -> float:
    return t * math.fsum(hazard(spec, params, stage, x * t) for x in _NODES) / 2


def system_log_density(spec: ModelSpec, params: Params, spacings) -> list[float]:
    """The terms of one system's log-density; their sum is the density."""
    terms = [math.log(math.factorial(spec.k))]
    for stage, t in enumerate(spacings, start=1):
        terms.append(math.log(hazard(spec, params, stage, t)))  # the component that fails
        # Every component at risk, the failing one too, lasted the spacing.
        terms.extend([-cumulative_hazard(spec, params, stage, t)] * (spec.k - stage + 1))
    return terms


def random_case(index: int):
    """A seeded spec, parameters and spacings; every spec comes up 3 or 4 times in 50."""
    rng = np.random.default_rng([27, index])
    spec = SPECS[index % len(SPECS)]
    params = Params(10 ** rng.uniform(-2, 2), tuple(10 ** rng.uniform(-1, 1, spec.k - 1)))
    n = int(rng.integers(1, 30))
    spacings = rng.exponential(10 ** rng.uniform(-2, 2, spec.k), size=(n, spec.k))
    return spec, params, spacings


@pytest.mark.parametrize("index", range(CASES))
def test_log_likelihood_equals_the_component_log_density(index):
    spec, params, spacings = random_case(index)
    first_principles = math.fsum(
        term for row in spacings.tolist() for term in system_log_density(spec, params, row)
    )
    got = sufficient_stats(spec, SpacingsMatrix(spacings)).log_likelihood(params)
    assert math.isclose(got, first_principles, rel_tol=1e-12, abs_tol=0.0), (got, first_principles)


def test_the_cases_cover_both_models_every_k_and_every_s():
    assert {random_case(i)[0] for i in range(CASES)} == set(SPECS)


# The criterion-4 truths, and an ssk whose k and s are neither theirs nor s = k - 2.
TRUTHS = [
    (ModelSpec.kim_kvam(4), Params(1.3, (0.8, 2.5, 1.2)), 41),
    (ModelSpec.ssk(4, 2), Params(0.7, (1.6, 0.5, 3.0)), 42),
    (ModelSpec.ssk(5, 4), Params(0.9, (1.4, 0.6, 2.2, 1.1)), 43),
]
TRUTH_IDS = ["kim-kvam-k4", "ssk-k4-s2", "ssk-k5-s4"]


def component_lifetimes(spec: ModelSpec, params: Params, n: int, seed: int) -> np.ndarray:
    """n systems' component lifetimes, column j for component j, drawn one failure at a time.

    Each survivor lasts until its cumulative hazard since the last failure reaches its own
    unit exponential: E / rate while the hazard is constant, sqrt(2 E / rate) once it grows
    linearly, its clock restarting at each failure. A constant hazard has no memory, so a
    fresh draw at each failure changes nothing there.
    """
    rng = np.random.default_rng(seed)
    life, clock, systems = np.full((n, spec.k), np.inf), np.zeros(n), np.arange(n)
    for stage in range(1, spec.k + 1):
        scaled = rng.exponential(size=(n, spec.k)) / stage_rate(params, stage)  # E / rate
        residual = np.sqrt(2 * scaled) if accelerating(spec, stage) else scaled
        residual[np.isfinite(life)] = np.inf  # a failed component draws nothing
        first = residual.argmin(axis=1)  # the first failure ends the stage
        clock += residual[systems, first]
        life[systems, first] = clock
    return life


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic: the widest gap of the empirical CDFs."""
    a, b, both = np.sort(a), np.sort(b), np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, both, "right") / len(a)
                        - np.searchsorted(b, both, "right") / len(b)).max())


@pytest.mark.parametrize("spec,truth,seed", TRUTHS, ids=TRUTH_IDS)
def test_component_spacings_follow_the_sampler_stage_by_stage(spec, truth, seed):
    n = 20_000
    ordered = np.sort(component_lifetimes(spec, truth, n, seed), axis=1)
    components = np.diff(ordered, axis=1, prepend=0.0)
    sampled = sample_dataset(spec, truth, n, RngState(seed)).data
    # The asymptotic critical value at the 0.1 % level, sqrt(-log(alpha / 2) / 2) * sqrt(2 / n).
    critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / n)
    distances = [ks_distance(components[:, j], sampled[:, j]) for j in range(spec.k)]
    assert max(distances) < critical, (distances, critical)


@pytest.mark.parametrize("spec,truth,seed", TRUTHS, ids=TRUTH_IDS)
def test_fit_recovers_the_parameters_from_component_lifetimes(spec, truth, seed, tmp_path, capsys):
    n = 2_000
    path = tmp_path / "lifetimes.csv"
    header = ",".join(f"x{j}" for j in range(1, spec.k + 1))
    life = component_lifetimes(spec, truth, n, seed + 1000)
    np.savetxt(path, life, fmt="%.17g", delimiter=",", header=header, comments="")
    switch = ["--s", str(spec.s)] if spec.s else []
    argv = ["fit", "--model", spec.kind.value, *switch, "--lifetimes", "--data", str(path),
            "--format", "json"]
    assert main(argv) == 0
    fit = json.loads(capsys.readouterr().out)
    # theta_hat / theta = n / G_1 and lambda_hat_j / lambda_j = G_1 / G_{j+1}, with independent
    # Gamma(n, 1) G's: both have mean n / (n - 1), and these exact standard deviations.
    ratios = [fit["theta_hat"] / truth.theta]
    ratios += [got / lam for got, lam in zip(fit["lambda_hat"], truth.lambdas)]
    se = [n / ((n - 1) * math.sqrt(n - 2))]
    se += [math.sqrt(n * (2 * n - 1) / (n - 2)) / (n - 1)] * (spec.k - 1)
    z = [(ratio - n / (n - 1)) / sd for ratio, sd in zip(ratios, se)]
    assert len(z) == spec.k and max(map(abs, z)) < 4, z
