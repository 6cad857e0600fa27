import math
import warnings

import numpy as np
import pytest

import loadshare.oracle as oracle
from loadshare import (
    InvalidParams,
    ModelKind,
    ModelSpec,
    Params,
    RngState,
    SpacingsMatrix,
    closed_form_mle,
    crosscheck,
    finite_difference_gradient,
    numeric_mle,
    random_instances,
    sample_dataset,
    score,
)
from loadshare.errors import NoConvergence


class TestNumericMle:
    def test_kim_kvam_unit_spacings(self):
        fit = numeric_mle(ModelSpec.kim_kvam(2), SpacingsMatrix([[1.0, 1.0]]))
        assert fit.params_hat.theta == pytest.approx(0.5, rel=1e-6)
        assert fit.params_hat.lambdas[0] == pytest.approx(2.0, rel=1e-6)
        assert fit.diagnostics["sweeps"] >= 1

    def test_ssk_unit_spacings(self):
        fit = numeric_mle(ModelSpec.ssk(3, 2), SpacingsMatrix([[1.0, 1.0, 1.0]]))
        assert fit.params_hat.theta == pytest.approx(1 / 3, rel=1e-6)
        assert fit.params_hat.lambdas == pytest.approx((1.5, 6.0), rel=1e-6)

    def test_never_exceeds_closed_form_likelihood(self):
        for kind, seed in ((ModelKind.KIM_KVAM, 4), (ModelKind.SSK, 5)):
            for spec, _, data in random_instances(kind, 6, seed):
                numeric = numeric_mle(spec, data)
                closed = closed_form_mle(spec, data)
                assert numeric.loglik_at_mle <= closed.loglik_at_mle + 1e-9

    def test_no_convergence_reported(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_ITERS", 1)
        spec, _, data = random_instances(ModelKind.KIM_KVAM, 1, 0)[0]
        with pytest.raises(NoConvergence, match="no certificate after 1 Newton iterations"):
            numeric_mle(spec, data)

    def test_no_improving_step_reported(self):
        # Both stage totals are finite but their sum is not, so the likelihood is
        # -inf at the start u = 0 and its differences are nan: the step halving
        # must give up at t = 0, without a warning, rather than claim a maximum.
        with pytest.raises(NoConvergence, match="no step"):
            numeric_mle(ModelSpec.kim_kvam(2), SpacingsMatrix([[5e307, 1e308]]))

    @pytest.mark.parametrize(
        "kind,params_hex,loglik_hex,diagnostics",
        [
            (
                ModelKind.KIM_KVAM,
                ["0x1.1f2c4be5481f1p+3", "0x1.c41d5885e8896p-1", "0x1.bf09f1400951dp-2",
                 "0x1.a351003f2d6b2p-2"],
                "0x1.870039b07deccp+5",
                {"sweeps": 6, "loglik_evals": 205, "decrement": float.fromhex("0x1.1b02473902ccdp-43")},
            ),
            (
                ModelKind.SSK,
                ["0x1.5955b649bcddcp+1", "0x1.8f7d4b4bd1b8dp-3", "0x1.f514aee57b25cp-2",
                 "0x1.1483b6e129b15p-2", "0x1.62b0eb55049a4p-1"],
                "0x1.d1314ae4fcecep+2",
                {"sweeps": 6, "loglik_evals": 312, "decrement": float.fromhex("0x1.b06135c2be5c8p-48")},
            ),
        ],
        ids=["kim-kvam", "ssk"],
    )
    def test_search_path_pinned(self, kind, params_hex, loglik_hex, diagnostics):
        # Exact bits of the ascent's result: any change to the search path shows here.
        spec, _, data = random_instances(kind, 1, 3)[0]
        fit = numeric_mle(spec, data)
        assert [float(v).hex() for v in fit.params_hat.as_array()] == params_hex
        assert fit.loglik_at_mle.hex() == loglik_hex
        assert fit.diagnostics == diagnostics

    @pytest.mark.parametrize(
        "scale,outside",
        [
            (1e-300, lambda u: np.any(u > math.log(np.finfo(float).max))),  # exp(u) overflows
            (1e300, lambda u: np.any(np.exp(u) == 0.0)),  # exp(u) underflows to 0
        ],
        ids=["overflow", "underflow"],
    )
    def test_objective_outside_float_range_is_minus_inf(self, monkeypatch, scale, outside):
        probes = []
        make_objective = oracle._objective

        def recording_objective(stats):
            objective = make_objective(stats)

            def recorded(u):
                f = objective(u)
                probes.append((u.copy(), f))
                return f

            return recorded

        monkeypatch.setattr(oracle, "_objective", recording_objective)
        data = SpacingsMatrix(scale * np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 1.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            numeric_mle(ModelSpec.kim_kvam(3), data)
        with np.errstate(all="ignore"):
            hits = [f for u, f in probes if outside(u)]
        assert hits and all(f == -math.inf for f in hits)

    def test_converges_on_default_validation_sets(self):
        # small slice here; the full 50-instance sets run in the acceptance suite
        for kind, seed in ((ModelKind.KIM_KVAM, 1), (ModelKind.SSK, 1)):
            for spec, _, data in random_instances(kind, 8, seed):
                fit = numeric_mle(spec, data)
                # The certificate: the final Newton decrement is at the value's resolution.
                bound = oracle._DECREMENT_TOL * max(1.0, abs(fit.loglik_at_mle))
                assert 0.0 <= fit.diagnostics["decrement"] <= bound
                assert fit.diagnostics["sweeps"] <= oracle._MAX_ITERS
                # ... and it leaves a margin of 100x under the verify tolerance.
                closed = closed_form_mle(spec, data).params_hat.as_array()
                assert np.max(np.abs(fit.params_hat.as_array() / closed - 1.0)) <= 1e-8

    def test_diagnostics_keys_read_by_benchmark(self):
        # bench/tracer.py reads "sweeps" and "loglik_evals" from every verify run.
        fit = numeric_mle(ModelSpec.kim_kvam(2), SpacingsMatrix([[1.0, 1.0]]))
        for key in ("sweeps", "loglik_evals"):
            value = fit.diagnostics[key]
            assert type(value) is int and value > 0


class TestCrosscheck:
    def test_closed_and_numeric_agree(self):
        for kind, seed in ((ModelKind.KIM_KVAM, 2), (ModelKind.SSK, 3)):
            for spec, _, data in random_instances(kind, 5, seed):
                result = crosscheck(spec, data)
                assert result.max_param_rel_discrepancy <= 1e-6
                assert result.loglik_gap <= 1e-9
                assert result.ok

    def test_single_dataset_example(self):
        result = crosscheck(ModelSpec.kim_kvam(2), SpacingsMatrix([[1.0, 1.0]]))
        assert result.max_param_rel_discrepancy <= 1e-6


class TestFiniteDifferenceGradient:
    def test_hand_value(self):
        g = finite_difference_gradient(
            ModelSpec.kim_kvam(2), Params(1.0, (1.0,)), SpacingsMatrix([[1.0, 1.0]]), 1e-6
        )
        assert g == pytest.approx([-1.0, 0.0], abs=1e-8)

    def test_matches_analytic_score_at_random_points(self):
        for kind, seed in ((ModelKind.KIM_KVAM, 6), (ModelKind.SSK, 7)):
            for spec, truth, data in random_instances(kind, 10, seed):
                analytic = score(spec, truth, data)
                fd = finite_difference_gradient(spec, truth, data, 1e-6)
                rel = np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))
                assert np.max(rel) <= 1e-5

    def test_near_zero_at_closed_form_mle(self):
        data = SpacingsMatrix([[0.6, 1.4], [1.1, 0.5], [0.9, 1.2]])
        spec = ModelSpec.kim_kvam(2)
        fit = closed_form_mle(spec, data)
        fd = finite_difference_gradient(spec, fit.params_hat, data, 1e-6)
        assert np.max(np.abs(fd)) <= 1e-6

    def test_step_leaving_positive_orthant(self):
        with pytest.raises(InvalidParams):
            finite_difference_gradient(
                ModelSpec.kim_kvam(2), Params(0.5, (1.0,)), SpacingsMatrix([[1.0, 1.0]]), 0.9
            )

    def test_step_must_be_positive(self):
        with pytest.raises(InvalidParams):
            finite_difference_gradient(
                ModelSpec.kim_kvam(2), Params(1.0, (1.0,)), SpacingsMatrix([[1.0, 1.0]]), 0.0
            )


class TestRandomInstances:
    def test_deterministic(self):
        a = random_instances(ModelKind.SSK, 4, 9)
        b = random_instances(ModelKind.SSK, 4, 9)
        for (spec_a, truth_a, data_a), (spec_b, truth_b, data_b) in zip(a, b):
            assert spec_a == spec_b and truth_a == truth_b
            assert np.array_equal(data_a.data, data_b.data)

    def test_respects_structural_bounds(self):
        for spec, truth, data in random_instances(ModelKind.SSK, 30, 11):
            assert 3 <= spec.k <= 6 and 2 <= spec.s <= spec.k - 1
            assert 1 <= data.n <= 20
            for v in (truth.theta, *truth.lambdas):
                assert 0.1 <= v <= 10.0
        for spec, _, _ in random_instances(ModelKind.KIM_KVAM, 30, 11):
            assert 2 <= spec.k <= 6 and spec.s is None
