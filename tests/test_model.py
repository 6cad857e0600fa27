import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshare import (
    DataFileError,
    DimensionMismatch,
    DuplicateLifetime,
    InvalidModel,
    InvalidParams,
    ModelKind,
    ModelSpec,
    NonPositiveLifetime,
    Params,
    RngState,
    SpacingsMatrix,
    closed_form_mle,
    log_likelihood,
    sample_dataset,
    score,
    spacings_from_lifetimes,
    sufficient_stats,
)


def random_case(seed, kind=ModelKind.KIM_KVAM, k=3, n=4, s=2):
    rng = RngState(seed)
    spec = ModelSpec.kim_kvam(k) if kind is ModelKind.KIM_KVAM else ModelSpec.ssk(k, s)
    theta = float(np.exp(rng.uniform_open(()) * 2 - 1))
    lambdas = tuple(np.exp(rng.uniform_open(k - 1) * 2 - 1))
    params = Params(theta, lambdas)
    data = sample_dataset(spec, params, n, rng)
    return spec, params, data


class TestModelSpec:
    def test_kim_kvam_round_trip(self):
        spec = ModelSpec.kim_kvam(4)
        assert spec.kind is ModelKind.KIM_KVAM
        assert spec.k == 4 and spec.s is None and spec.n_params == 4

    def test_ssk_round_trip(self):
        spec = ModelSpec.ssk(5, 3)
        assert spec.kind is ModelKind.SSK and spec.s == 3

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_k_must_be_at_least_two(self, k):
        with pytest.raises(InvalidModel):
            ModelSpec.kim_kvam(k)

    @pytest.mark.parametrize("k,s", [(3, 1), (3, 3), (3, 4), (4, 1), (2, 2)])
    def test_switch_index_bounds(self, k, s):
        with pytest.raises(InvalidModel):
            ModelSpec.ssk(k, s)

    def test_ssk_requires_s(self):
        with pytest.raises(InvalidModel):
            ModelSpec(ModelKind.SSK, 3)

    def test_kim_kvam_rejects_s(self):
        with pytest.raises(InvalidModel):
            ModelSpec(ModelKind.KIM_KVAM, 3, 2)


class TestParams:
    def test_coerces_and_exposes_vector(self):
        p = Params(2, (1, 3))
        assert p.theta == 2.0 and p.lambdas == (1.0, 3.0)
        assert np.array_equal(p.as_array(), [2.0, 1.0, 3.0])
        assert Params.from_array([2.0, 1.0, 3.0]) == p

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_theta_must_be_positive_finite(self, theta):
        with pytest.raises(InvalidParams):
            Params(theta, (1.0,))

    @pytest.mark.parametrize("lam", [0.0, -0.5, math.nan])
    def test_lambdas_must_be_positive_finite(self, lam):
        with pytest.raises(InvalidParams):
            Params(1.0, (1.0, lam))

    def test_at_least_one_multiplier(self):
        with pytest.raises(InvalidParams):
            Params(1.0, ())


class TestSpacingsMatrix:
    def test_shape_and_aggregates(self):
        m = SpacingsMatrix([[1, 2, 3], [3, 2, 1]])
        assert (m.n, m.k) == (2, 3)
        assert np.array_equal(m.data.sum(axis=0), [4.0, 4.0, 4.0])

    def test_data_is_immutable(self):
        m = SpacingsMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.data[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_cells(self, bad):
        with pytest.raises(NonPositiveLifetime) as err:
            SpacingsMatrix([[1.0, 1.0], [1.0, bad]])
        assert err.value.row == 2 and err.value.col == 2

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            SpacingsMatrix([1.0, 2.0])


class TestSufficientStats:
    def test_positivity_enforced(self):
        # 1e-200 squared underflows: the stage-3 total would be 0
        with pytest.raises(DataFileError, match="column 3"):
            sufficient_stats(ModelSpec.ssk(3, 2), SpacingsMatrix([[1.0, 1.0, 1e-200]]))

    @pytest.mark.parametrize(
        "spec,row,totals",
        [
            # (k-j+1) t through stage s, then (k-j+1) t^2 / 2
            (ModelSpec.ssk(3, 2), [1.0, 1.0, 1.0], (3.0, 2.0, 0.5)),
            (ModelSpec.ssk(3, 2), [2.0, 1.0, 2.0], (6.0, 2.0, 2.0)),
            (ModelSpec.ssk(4, 3), [1.0] * 4, (4.0, 3.0, 2.0, 0.5)),
        ],
        ids=["ssk-k3-unit", "ssk-k3-mixed", "ssk-k4-unit"],
    )
    def test_stage_totals(self, spec, row, totals):
        stats = sufficient_stats(spec, SpacingsMatrix([row]))
        assert stats.totals == totals and stats.n == 1

    @pytest.mark.parametrize("kind", [ModelKind.KIM_KVAM, ModelKind.SSK])
    def test_value_path_is_bitwise_log_likelihood(self, kind):
        def reference(stats, params):
            n, k = stats.n, stats.spec.k
            lam_full = np.array((1.0, *params.lambdas))
            return math.fsum([
                n * sum(math.log(i) for i in range(2, k + 1)),
                n * k * math.log(params.theta),
                n * math.fsum(math.log(l) for l in params.lambdas),
                -params.theta * float(np.asarray(stats.totals) @ lam_full),
                stats.log_term,
            ])

        rng = RngState(20240101)
        for seed in range(10):
            k = 3 + seed % 4
            spec, _, data = random_case(seed, kind, k=k, n=1 + 3 * seed, s=2)
            stats = sufficient_stats(spec, data)
            points = [
                Params.from_array(np.exp(rng.uniform_open(k) * 20 - 10)) for _ in range(5)
            ]
            # The value path reuses one buffer; interleaving shows it carries nothing over.
            fast = [stats._log_likelihood(p.theta, list(p.lambdas)) for p in points]
            slow = [stats.log_likelihood(p) for p in reversed(points)][::-1]
            for p, f, full in zip(points, fast, slow):
                assert f.hex() == full.hex() == reference(stats, p).hex()


class TestSpacingsFromLifetimes:
    def test_sorts_then_differences(self):
        m = spacings_from_lifetimes([[3, 1, 2]])
        assert np.array_equal(m.data, [[1.0, 1.0, 1.0]])

    def test_two_system_example(self):
        m = spacings_from_lifetimes([[1, 2, 4], [5, 1, 2]])
        assert np.array_equal(m.data, [[1, 1, 2], [1, 1, 3]])

    def test_tie_raises_duplicate(self):
        with pytest.raises(DuplicateLifetime) as err:
            spacings_from_lifetimes([[2, 2, 3]])
        assert err.value.row == 1

    def test_first_tied_row_is_reported(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 0.5, 7], [1, 3, 2], [9, 9, 8]]
        with pytest.raises(DuplicateLifetime) as err:
            spacings_from_lifetimes(rows)
        assert err.value.row == 3
        assert str(err.value) == (
            "system 3 contains the lifetime 7.0 twice; tied failures give a zero spacing"
        )

    def test_tie_check_matches_row_loop(self):
        # Reference: the first tie found by scanning the sorted rows one by one.
        rng = np.random.default_rng(0)
        for _ in range(300):
            rows = rng.integers(1, 8, size=(int(rng.integers(1, 6)), 4)).astype(float)
            expected = None
            for i, row in enumerate(np.sort(rows, axis=1), start=1):
                dup = np.nonzero(row[1:] == row[:-1])[0]
                if dup.size:
                    expected = (i, f"system {i} contains the lifetime {row[dup[0]]} twice; "
                                   "tied failures give a zero spacing")
                    break
            if expected is None:
                spacings_from_lifetimes(rows)
                continue
            with pytest.raises(DuplicateLifetime) as err:
                spacings_from_lifetimes(rows)
            assert (err.value.row, str(err.value)) == expected

    def test_nonpositive_lifetime(self):
        with pytest.raises(NonPositiveLifetime):
            spacings_from_lifetimes([[1.0, -2.0, 3.0]])

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
                min_size=3,
                max_size=6,
                unique=True,
            ),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_cumulative_sums_recover_sorted_lifetimes(self, rows):
        m = spacings_from_lifetimes(rows)
        assert np.all(m.data > 0)
        recovered = np.cumsum(m.data, axis=1)
        assert np.allclose(recovered, np.sort(np.array(rows), axis=1), rtol=1e-12)


class TestLogLikelihood:
    def test_kim_kvam_hand_value(self):
        # density 2! * exp(-(2+1)) at unit spacings, unit parameters
        spec = ModelSpec.kim_kvam(2)
        ll = log_likelihood(spec, Params(1.0, (1.0,)), SpacingsMatrix([[1.0, 1.0]]))
        assert ll == pytest.approx(math.log(2) - 3.0, rel=1e-14)

    def test_ssk_hand_value(self):
        # prefactor 3!, exponent 3 + 2 + 0.5, log-data term log(1) = 0
        spec = ModelSpec.ssk(3, 2)
        ll = log_likelihood(spec, Params(1.0, (1.0, 1.0)), SpacingsMatrix([[1.0] * 3]))
        assert ll == pytest.approx(math.log(6) - 5.5, rel=1e-14)

    def test_includes_log_data_term(self):
        spec = ModelSpec.ssk(3, 2)
        t = SpacingsMatrix([[1.0, 1.0, 2.0]])
        # exponent 3 + 2 + 0.5*1*4 = 7, data term log 2
        expected = math.log(6) - 7.0 + math.log(2.0)
        assert log_likelihood(spec, Params(1.0, (1.0, 1.0)), t) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("kind,s", [(ModelKind.KIM_KVAM, None), (ModelKind.SSK, 2)])
    def test_doubling_theta_away_from_mle_lowers_likelihood(self, kind, s):
        for seed in range(4):
            spec, _, data = random_case(seed, kind=kind, k=4, n=5, s=s or 2)
            fit = closed_form_mle(spec, data)
            hat = fit.params_hat
            bumped = Params(2 * hat.theta, hat.lambdas)
            assert log_likelihood(spec, bumped, data) < fit.loglik_at_mle

    def test_row_permutation_invariance(self):
        for kind, s in ((ModelKind.KIM_KVAM, None), (ModelKind.SSK, 2)):
            spec, params, data = random_case(11, kind=kind, k=4, n=6, s=s or 2)
            shuffled = SpacingsMatrix(data.data[::-1].copy())
            assert log_likelihood(spec, params, shuffled) == pytest.approx(
                log_likelihood(spec, params, data), rel=1e-14
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            log_likelihood(ModelSpec.kim_kvam(3), Params(1.0, (1.0, 1.0)), SpacingsMatrix([[1.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            log_likelihood(ModelSpec.kim_kvam(2), Params(1.0, (1.0, 1.0)), SpacingsMatrix([[1.0, 1.0]]))

    def test_finite_on_extreme_scales(self):
        spec = ModelSpec.kim_kvam(2)
        t = SpacingsMatrix([[1e-9, 1e9]])
        assert math.isfinite(log_likelihood(spec, Params(1e3, (1e-3,)), t))


class TestScore:
    def test_kim_kvam_hand_value(self):
        spec = ModelSpec.kim_kvam(2)
        g = score(spec, Params(1.0, (1.0,)), SpacingsMatrix([[1.0, 1.0]]))
        assert np.allclose(g, [-1.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("kind,s", [(ModelKind.KIM_KVAM, None), (ModelKind.SSK, 3)])
    def test_zero_at_closed_form_mle(self, kind, s):
        for seed in range(5):
            spec, _, data = random_case(seed, kind=kind, k=5, n=7, s=s or 3)
            fit = closed_form_mle(spec, data)
            g = score(spec, fit.params_hat, data)
            assert np.max(np.abs(g)) <= 1e-8 * data.n * data.k

    def test_ssk_matches_kim_kvam_before_switch(self):
        # constant-phase multiplier components of the gradient are the same
        # computation in both models, down to the last bit
        for seed in range(5):
            spec_kk, params, data = random_case(seed, k=5, n=4)
            spec_ssk = ModelSpec.ssk(5, 3)
            g_kk = score(spec_kk, params, data)
            g_ssk = score(spec_ssk, params, data)
            # lambda components for j = 2..s live at indices 1..s-1
            assert np.array_equal(g_kk[1:3], g_ssk[1:3])

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(InvalidParams):
            score(ModelSpec.kim_kvam(2), Params(-1.0, (1.0,)), SpacingsMatrix([[1.0, 1.0]]))
