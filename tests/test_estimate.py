import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshare import (
    DimensionMismatch,
    ModelKind,
    ModelSpec,
    Params,
    RngState,
    SpacingsMatrix,
    closed_form_mle,
    log_likelihood,
    sample_dataset,
    score,
    sufficient_stats,
)


def simulated(seed, kind=ModelKind.KIM_KVAM, k=4, n=6, s=2):
    rng = RngState(seed)
    spec = ModelSpec.kim_kvam(k) if kind is ModelKind.KIM_KVAM else ModelSpec.ssk(k, s)
    theta = float(np.exp(rng.uniform_open(()) * 3 - 1.5))
    lambdas = tuple(np.exp(rng.uniform_open(k - 1) * 3 - 1.5))
    params = Params(theta, lambdas)
    return spec, params, sample_dataset(spec, params, n, rng)


class TestSufficientStats:
    def test_kim_kvam_column_sums(self):
        # S_j = (k-j+1) * column sum, with column sums (4, 4, 4)
        stats = sufficient_stats(ModelSpec.kim_kvam(3), SpacingsMatrix([[1, 2, 3], [3, 2, 1]]))
        assert stats.totals == (12.0, 8.0, 4.0) and stats.n == 2

    def test_ssk_unit_row(self):
        stats = sufficient_stats(ModelSpec.ssk(3, 2), SpacingsMatrix([[1.0, 1.0, 1.0]]))
        assert stats.totals == (3.0, 2.0, 0.5)

    def test_ssk_two_rows(self):
        # exposure rows (3,2,0.5) and (6,2,2) summed columnwise
        stats = sufficient_stats(ModelSpec.ssk(3, 2), SpacingsMatrix([[1, 1, 1], [2, 1, 2]]))
        assert stats.totals == (9.0, 4.0, 2.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sufficient_stats(ModelSpec.kim_kvam(4), SpacingsMatrix([[1.0, 1.0]]))


class TestClosedFormMle:
    def test_unit_spacings_k2(self):
        fit = closed_form_mle(ModelSpec.kim_kvam(2), SpacingsMatrix([[1.0, 1.0]]))
        assert fit.params_hat.theta == 0.5
        assert fit.params_hat.lambdas == (2.0,)

    def test_kim_kvam_k3_two_systems(self):
        fit = closed_form_mle(ModelSpec.kim_kvam(3), SpacingsMatrix([[1, 2, 3], [3, 2, 1]]))
        assert fit.params_hat.theta == pytest.approx(2 / 12, rel=1e-15)
        assert fit.params_hat.lambdas == pytest.approx((1.5, 3.0), rel=1e-15)
        assert fit.stats.n == 2 and fit.stats.spec.k == 3

    def test_ssk_unit_spacings(self):
        fit = closed_form_mle(ModelSpec.ssk(3, 2), SpacingsMatrix([[1.0, 1.0, 1.0]]))
        assert fit.params_hat.theta == pytest.approx(1 / 3, rel=1e-15)
        assert fit.params_hat.lambdas == pytest.approx((1.5, 6.0), rel=1e-15)

    def test_single_system_allowed(self):
        fit = closed_form_mle(ModelSpec.kim_kvam(2), SpacingsMatrix([[0.3, 0.9]]))
        assert fit.params_hat.theta == pytest.approx(1 / 0.6, rel=1e-15)

    def test_loglik_field_matches_direct_evaluation(self):
        for kind, s in ((ModelKind.KIM_KVAM, None), (ModelKind.SSK, 2)):
            spec, _, data = simulated(3, kind=kind, s=s or 2)
            fit = closed_form_mle(spec, data)
            assert fit.loglik_at_mle == log_likelihood(spec, fit.params_hat, data)

    def test_stats_recorded(self):
        spec, _, data = simulated(4)
        fit = closed_form_mle(spec, data)
        assert fit.stats == sufficient_stats(spec, data)


class TestModelAgreement:
    def test_theta_bitwise_equal_across_models(self):
        # both estimates reduce to n / (k * first-column total)
        for seed in range(8):
            _, _, data = simulated(seed, k=5, n=9)
            kk = closed_form_mle(ModelSpec.kim_kvam(5), data)
            ssk = closed_form_mle(ModelSpec.ssk(5, 3), data)
            assert kk.params_hat.theta == ssk.params_hat.theta

    def test_constant_phase_lambdas_bitwise_equal(self):
        for seed in range(8):
            _, _, data = simulated(seed, k=5, n=9)
            kk = closed_form_mle(ModelSpec.kim_kvam(5), data)
            ssk = closed_form_mle(ModelSpec.ssk(5, 3), data)
            # stages j = 2..s share the spacing-total formula
            assert kk.params_hat.lambdas[:2] == ssk.params_hat.lambdas[:2]

    def test_row_permutation_leaves_estimates_unchanged(self):
        for kind, s in ((ModelKind.KIM_KVAM, None), (ModelKind.SSK, 2)):
            spec, _, data = simulated(21, kind=kind, k=4, n=8, s=s or 2)
            permuted = SpacingsMatrix(data.data[::-1].copy())
            a = closed_form_mle(spec, data).params_hat
            b = closed_form_mle(spec, permuted).params_hat
            assert a.theta == pytest.approx(b.theta, rel=1e-14)
            assert a.lambdas == pytest.approx(b.lambdas, rel=1e-14)


class TestScaleLaw:
    @given(st.floats(min_value=0.01, max_value=100.0), st.integers(min_value=0, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_rescaling_spacings_rescales_theta_only(self, c, seed):
        spec, _, data = simulated(seed, k=3, n=5)
        base = closed_form_mle(spec, data)
        scaled = closed_form_mle(spec, SpacingsMatrix(data.data * c))
        assert scaled.params_hat.theta == pytest.approx(base.params_hat.theta / c, rel=1e-12)
        assert scaled.params_hat.lambdas == pytest.approx(base.params_hat.lambdas, rel=1e-12)
        stats_scaled = np.array(sufficient_stats(spec, SpacingsMatrix(data.data * c)).totals)
        stats_base = np.array(sufficient_stats(spec, data).totals)
        assert np.allclose(stats_scaled, c * stats_base, rtol=1e-12)


class TestLocalMaximality:
    @pytest.mark.parametrize("kind,s", [(ModelKind.KIM_KVAM, None), (ModelKind.SSK, 3)])
    def test_axis_perturbations_lower_likelihood(self, kind, s):
        for seed in range(6):
            spec, _, data = simulated(seed, kind=kind, k=5, n=6, s=s or 3)
            fit = closed_form_mle(spec, data)
            hat = fit.params_hat.as_array()
            for i in range(hat.size):
                for factor in (1.05, 0.95):
                    bumped = hat.copy()
                    bumped[i] *= factor
                    assert (
                        log_likelihood(spec, Params.from_array(bumped), data)
                        < fit.loglik_at_mle
                    )


class TestStationarity:
    @pytest.mark.parametrize("kind,s", [(ModelKind.KIM_KVAM, None), (ModelKind.SSK, 2)])
    def test_score_vanishes_at_mle(self, kind, s):
        for seed in range(10):
            spec, _, data = simulated(seed, kind=kind, k=4, n=9, s=s or 2)
            fit = closed_form_mle(spec, data)
            g = score(spec, fit.params_hat, data)
            assert np.max(np.abs(g)) <= 1e-8 * data.n * data.k
