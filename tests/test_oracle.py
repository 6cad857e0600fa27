import math
import warnings

import numpy as np
import pytest

import loadshare.oracle as oracle
from loadshare import (
    InvalidParams,
    ModelKind,
    ModelSpec,
    OracleConfig,
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


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.max_iters == 200 and cfg.tol == 1e-10 and cfg.bracket_expand == 4.0

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iters": 0}, {"tol": 0.0}, {"tol": -1e-3}, {"bracket_expand": 1.0}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParams):
            OracleConfig(**kwargs)


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

    def test_no_convergence_reported(self):
        spec, _, data = random_instances(ModelKind.KIM_KVAM, 1, 0)[0]
        with pytest.raises(NoConvergence):
            numeric_mle(spec, data, OracleConfig(max_iters=1))

    @pytest.mark.parametrize(
        "kind,params_hex,loglik_hex,diagnostics",
        [
            (
                ModelKind.KIM_KVAM,
                ["0x1.1f2c4a1c474a7p+3", "0x1.c41d5cef7ce9bp-1", "0x1.bf09f49dddee7p-2",
                 "0x1.a35103fee74e5p-2"],
                "0x1.870039b07dec6p+5",
                {"sweeps": 57, "loglik_evals": 9938},
            ),
            (
                ModelKind.SSK,
                ["0x1.5955b1b096acap+1", "0x1.8f7d5204d0731p-3", "0x1.f514b6048d568p-2",
                 "0x1.1483bb695ba8bp-2", "0x1.62b0f0ba0aa6cp-1"],
                "0x1.d1314ae4fcd0ep+2",
                {"sweeps": 74, "loglik_evals": 16324},
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
            (1e-300, lambda x: x > math.log(np.finfo(float).max)),  # exp(u) overflows
            (1e300, lambda x: np.exp(x) == 0.0),  # exp(u) underflows to 0
        ],
        ids=["overflow", "underflow"],
    )
    def test_objective_outside_float_range_is_minus_inf(self, monkeypatch, scale, outside):
        probes = []
        search = oracle._line_search_max

        def recording_search(g, *args):
            def recorded(x):
                f = g(x)
                probes.append((x, f))
                return f

            return search(recorded, *args)

        monkeypatch.setattr(oracle, "_line_search_max", recording_search)
        data = SpacingsMatrix(scale * np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 1.5]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            numeric_mle(ModelSpec.kim_kvam(3), data)
        with np.errstate(all="ignore"):
            hits = [f for x, f in probes if outside(x)]
        assert hits and all(f == -math.inf for f in hits)

    def test_converges_on_default_validation_sets(self):
        # small slice here; the full 50-instance sets run in the acceptance suite
        for kind, seed in ((ModelKind.KIM_KVAM, 1), (ModelKind.SSK, 1)):
            for spec, _, data in random_instances(kind, 8, seed):
                fit = numeric_mle(spec, data)
                assert fit.diagnostics["sweeps"] <= OracleConfig().max_iters


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
