"""The likelihood against the models' definition: components, not stages.

Kim & Kvam (2004) and Singh, Sharma & Kumar (2008) define a load-sharing system by the hazard
of each component, which changes at every failure. During stage j the k-j+1 survivors share
one hazard, ``theta * lambda_{j-1}``: constant in kim-kvam and through stage s of ssk, and
``theta * lambda_{j-1} * u`` in the time u since the last failure past ssk's switch. The
density of one system's spacings is then, stage by stage, the failing component's hazard at
the spacing times every survivor's survival over it, with log k! for the k! labellings of
the failure order. Nothing here uses the package's survivor weights, multipliers or stage
totals, so the likelihood's algebra is checked against the definition, not against itself.
"""

import math

import numpy as np
import pytest

from loadshare import ModelKind, ModelSpec, Params, SpacingsMatrix, sufficient_stats

# Two-point Gauss-Legendre on [0, 1] integrates a hazard linear in u exactly.
_NODES = ((1 - 1 / math.sqrt(3)) / 2, (1 + 1 / math.sqrt(3)) / 2)

SPECS = [ModelSpec.kim_kvam(k) for k in range(2, 7)] + [
    ModelSpec.ssk(k, s) for k in range(3, 7) for s in range(2, k)
]
CASES = 50


def hazard(spec: ModelSpec, params: Params, stage: int, u: float) -> float:
    """One surviving component's hazard, u after the (stage-1)-th failure (stages from 1)."""
    rate = params.theta * (1.0 if stage == 1 else params.lambdas[stage - 2])
    return rate * u if spec.kind is ModelKind.SSK and stage > spec.s else rate


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
