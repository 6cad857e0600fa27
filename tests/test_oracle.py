import math
import warnings

import numpy as np
import pytest

import loadshare.model
import loadshare.oracle as oracle
from loadshare import (
    InvalidModel,
    InvalidParams,
    ModelKind,
    ModelSpec,
    Params,
    SpacingsMatrix,
    closed_form_mle,
    crosscheck,
    finite_difference_gradient,
    numeric_mle,
    random_instances,
    score,
    sufficient_stats,
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

    def test_no_improving_step_reported(self, monkeypatch):
        # On a flat objective -H = 0 fails Cholesky and the scaled gradient is 0,
        # so no step raises the value: the halving must give up at t = 0, without
        # a warning, rather than claim a maximum.
        monkeypatch.setattr(oracle, "_objective", lambda stats: lambda u: 0.0)
        with pytest.raises(NoConvergence, match="no step"):
            numeric_mle(ModelSpec.kim_kvam(2), SpacingsMatrix([[1.0, 1.0]]))

    @pytest.mark.parametrize(
        "kind,params_hex,loglik_hex,diagnostics",
        [
            (
                ModelKind.KIM_KVAM,
                ["0x1.1f2c4be52923cp+3", "0x1.c41d5885ecc2bp-1", "0x1.bf09f140819d7p-2",
                 "0x1.a351003f8496ep-2"],
                "0x1.870039b07deccp+5",
                {"sweeps": 7, "loglik_evals": 234, "decrement": float.fromhex("0x1.550af94d69633p-42")},
            ),
            (
                ModelKind.SSK,
                ["0x1.5955b64aa4562p+1", "0x1.8f7d4b4a82890p-3", "0x1.f514aee3f7635p-2",
                 "0x1.1483b6e03a894p-2", "0x1.62b0eb53fa43ep-1"],
                "0x1.d1314ae4fcef2p+2",
                {"sweeps": 7, "loglik_evals": 363, "decrement": float.fromhex("0x1.9b85ba8f751b6p-42")},
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

    @pytest.mark.parametrize("scale", [1e-300, 1e300], ids=["tiny", "huge"])
    def test_objective_is_minus_inf_only_where_an_exposure_overflows(self, monkeypatch, scale):
        # The rule: f(u) is -inf exactly where some u_0 + l_j + log S_j (l_1 = 0,
        # l_j = u_{j-1}) exceeds log(float max), and finite everywhere else.
        spec = ModelSpec.kim_kvam(3)
        data = SpacingsMatrix(scale * np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 1.5]]))
        stats = oracle.sufficient_stats(spec, data)
        log_totals = [math.log(s) for s in stats.totals]
        log_max = math.log(np.finfo(float).max)

        def log_exposures(u):
            return [u[0] + l + ls for l, ls in zip((0.0, *u[1:]), log_totals)]

        # Every probe of the ascent, where theta = exp(u_0) alone is far outside
        # float64 at these scales ...
        probes = []
        make_objective = oracle._objective

        def recording_objective(stats):
            objective = make_objective(stats)
            return lambda u: probes.append(u.tolist()) or objective(u)

        monkeypatch.setattr(oracle, "_objective", recording_objective)
        numeric_mle(spec, data)
        # ... and probes that walk stage j's exposure across float max ulp by ulp,
        # the other exposures held near e^-50 so that their sum cannot overflow.
        for j in range(spec.k):
            x = [log_max if i == j else -50.0 for i in range(spec.k)]
            u = [x[0] - log_totals[0]]
            u += [xi - u[0] - ls for xi, ls in zip(x[1:], log_totals[1:])]
            for _ in range(12):
                u[j] = math.nextafter(u[j], -math.inf)
            for _ in range(24):
                probes.append(list(u))
                u[j] = math.nextafter(u[j], math.inf)
        f = make_objective(stats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [f(np.array(u)) for u in probes]
        over = [max(log_exposures(u)) > log_max for u in probes]
        assert sum(over) >= spec.k and not all(over)
        for u, value, outside in zip(probes, values, over):
            assert (value == -math.inf) if outside else math.isfinite(value), u

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

    def test_stats_stand_in_for_the_matrix(self, monkeypatch):
        # crosscheck takes the stats once; both fits, given stats, give what the matrix gives.
        for spec, _, data in random_instances(ModelKind.SSK, 3, 5):
            stats = sufficient_stats(spec, data)
            assert closed_form_mle(spec, stats) == closed_form_mle(spec, data)
            assert numeric_mle(spec, stats) == numeric_mle(spec, data)
            expected = crosscheck(spec, data)
            folds, fold = [], loadshare.model._fold
            monkeypatch.setattr(loadshare.model, "_fold", lambda *a: folds.append(1) or fold(*a))
            assert crosscheck(spec, data) == expected and len(folds) == 1
            monkeypatch.undo()


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

    def test_model_spec_judges_the_kind(self):
        with pytest.raises(InvalidModel, match="model must be 'kim-kvam' or 'ssk', got 'weibull'"):
            random_instances("weibull", 1, 0)
