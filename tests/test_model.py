import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loadshare.model
from loadshare import (
    DataFileError,
    DimensionMismatch,
    DuplicateLifetime,
    InvalidModel,
    InvalidParams,
    LoadShareError,
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
        assert spec.k == 4 and spec.s is None

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

    @pytest.mark.parametrize("name,spec", [("ssk", ModelSpec.ssk(3, 2)),
                                           ("kim-kvam", ModelSpec.kim_kvam(3))])
    def test_kind_name_is_kept_as_the_kind(self, name, spec):
        named = ModelSpec(name, 3, spec.s)
        assert named == spec and named.kind is spec.kind

    # The kind is judged first: ("weibull", 1) has a bad k too.
    @pytest.mark.parametrize("args", [("weibull", 2), (None, 2), (["ssk"], 3, 2), ("weibull", 1)])
    def test_kind_outside_the_enum_is_an_invalid_model(self, args):
        with pytest.raises(InvalidModel) as err:
            ModelSpec(*args)
        assert str(err.value) == f"model must be 'kim-kvam' or 'ssk', got {args[0]!r}"


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

    @pytest.mark.parametrize("values, shape", [([], (0,)), (np.ones((1, 2)), (1, 2))])
    def test_from_array_names_a_shape_that_is_no_vector(self, values, shape):
        with pytest.raises(InvalidParams) as err:
            Params.from_array(values)
        assert str(err.value) == f"parameters must be a non-empty vector, got shape {shape}"


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

    def test_repr_names_the_shape(self):
        assert repr(SpacingsMatrix([[1.0, 2.0, 3.0]] * 2)) == "SpacingsMatrix(n=2, k=3)"


def _cell_case(build, what, value):
    """A 2 x 2 input whose cell (2, 1) holds ``value``, and the message naming it."""
    message = f"{what} at row 2, column 1 must be finite and > 0 (got {value})"
    return build, [[1.0, 2.0], [value, 3.0]], NonPositiveLifetime, message, 2, 1


class TestValidatorMessages:
    """The exact exception, message and cell of every rejected matrix."""

    @pytest.mark.parametrize(
        "build,data,exc,message,row,col",
        [
            (SpacingsMatrix, [1.0, 2.0], DimensionMismatch,
             "spacings must form a 2-D matrix, got 1 dimension(s)", None, None),
            (SpacingsMatrix, [[]], DimensionMismatch,
             "spacings matrix must be non-empty, got shape (1, 0)", None, None),
            *(_cell_case(SpacingsMatrix, "spacing", v) for v in (0.0, -1.0, math.nan, math.inf)),
            (spacings_from_lifetimes, [[[1.0, 2.0]]], DimensionMismatch,
             "lifetimes must form a 2-D matrix, got 3 dimension(s)", None, None),
            # an empty lifetimes matrix is rejected by the spacings it becomes
            (spacings_from_lifetimes, np.empty((0, 3)), DimensionMismatch,
             "spacings matrix must be non-empty, got shape (0, 3)", None, None),
            *(_cell_case(spacings_from_lifetimes, "lifetime", v)
              for v in (0.0, -1.0, math.nan, math.inf)),
        ],
        ids=[
            f"{build}-{case}"
            for build in ("spacings", "lifetimes")
            for case in ("rank", "empty", "zero", "negative", "nan", "inf")
        ],
    )
    def test_exact_error(self, build, data, exc, message, row, col):
        with pytest.raises(LoadShareError) as err:
            build(data)
        assert type(err.value) is exc
        assert str(err.value) == message
        assert (getattr(err.value, "row", None), getattr(err.value, "col", None)) == (row, col)


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
    def test_log_likelihood_is_bitwise_reference_formula(self, kind):
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
            for p in points:
                assert stats.log_likelihood(p).hex() == reference(stats, p).hex()

    @pytest.mark.parametrize("fold_rows", [1, 3, 4096])
    @pytest.mark.parametrize("spec", [ModelSpec.kim_kvam(2), ModelSpec.kim_kvam(5), ModelSpec.ssk(3, 2),
                                      ModelSpec.ssk(5, 2), ModelSpec.ssk(5, 4)],
                             ids=["kk-k2", "kk-k5", "ssk-k3-s2", "ssk-k5-s2", "ssk-k5-s4"])
    def test_blocked_sums_have_the_whole_matrix_bits(self, monkeypatch, fold_rows, spec):
        # Blocks of any size give the bits of the whole-matrix column sums, also where only
        # the last column is past the switch (numpy sums one column alone pairwise). A buffer
        # row holds 2k - (s or k) sums, so these values make steps of fold_rows rows.
        k, s = spec.k, spec.s
        monkeypatch.setattr(loadshare.model, "_FOLD_VALUES", fold_rows * (2 * k - (s or k)))
        d = np.random.default_rng(k).exponential(size=(3000, k)) * 10.0 ** np.arange(k)
        stats = sufficient_stats(spec, SpacingsMatrix(d))
        w = np.arange(k, 0, -1.0)
        totals = w * d.sum(axis=0)
        if s is not None:
            totals[s:] = (0.5 * w * (d * d).sum(axis=0))[s:]
        log_term = 0.0 if s is None else float(np.log(d).sum(axis=0)[s:].sum())
        assert [v.hex() for v in stats.totals] == [v.hex() for v in totals.tolist()]
        assert stats.log_term.hex() == log_term.hex() and stats.n == 3000

    @pytest.mark.parametrize("spec", [ModelSpec.kim_kvam(200), ModelSpec.ssk(60, 30)],
                             ids=["kk-k200", "ssk-k60-s30"])
    def test_fold_memory_does_not_grow_with_k(self, spec):
        # The fold adds _FOLD_VALUES sums at a time (a 512 kB buffer, two while the next one is
        # made), so 20,000 rows peak at 1.5 MB or less at any k; blocks of 8,192 rows peaked at
        # 25 MB at k = 200 and 11 MB for ssk(60, 30).
        data = SpacingsMatrix(np.random.default_rng(spec.k).exponential(size=(20_000, spec.k)))
        tracemalloc.start()
        try:
            sufficient_stats(spec, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20, peak

    def test_stats_pass_only_under_their_own_spec(self):
        stats = sufficient_stats(ModelSpec.ssk(4, 2), SpacingsMatrix([[1.0, 2.0, 3.0, 4.0]]))
        assert sufficient_stats(ModelSpec.ssk(4, 2), stats) is stats
        with pytest.raises(DimensionMismatch, match="taken under"):
            sufficient_stats(ModelSpec.ssk(4, 3), stats)

    def test_concurrent_evaluations_match_serial(self):
        # Two threads evaluate one SufficientStats at two points, switching
        # as often as the interpreter allows; no call may see the other's state.
        spec, _, data = random_case(5, ModelKind.SSK, k=4, n=6)
        stats = sufficient_stats(spec, data)
        points = [Params(0.7, (1.3, 0.4, 2.2)), Params(2.5, (0.6, 1.9, 0.8))]
        serial = [stats.log_likelihood(p) for p in points]
        results = [[], []]
        start = threading.Barrier(2, timeout=60)

        def evaluate(i):
            start.wait()
            results[i] = [stats.log_likelihood(points[i]) for _ in range(30_000)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(r) for r in results] == [30_000, 30_000]
        wrong = sum(v != serial[i] for i, values in enumerate(results) for v in values)
        assert wrong == 0, f"{wrong} of 60000 concurrent values differ from the serial ones"


class TestSpacingsFromLifetimes:
    def test_sorts_then_differences(self):
        m = spacings_from_lifetimes([[3, 1, 2]])
        assert np.array_equal(m.data, [[1.0, 1.0, 1.0]])

    def test_two_system_example(self):
        m = spacings_from_lifetimes([[1, 2, 4], [5, 1, 2]])
        assert np.array_equal(m.data, [[1, 1, 2], [1, 1, 3]])

    def test_caller_array_untouched_and_result_read_only(self):
        # The rows are sorted and differenced in place, on the function's own copy.
        lifetimes = np.array([[3.0, 1.0, 2.0], [0.5, 4.0, 2.5]])
        before = lifetimes.copy()
        m = spacings_from_lifetimes(lifetimes)
        assert np.array_equal(lifetimes, before) and lifetimes.flags.writeable
        assert not m.data.flags.writeable
        assert m.data.tobytes() == np.diff(np.sort(before, axis=1), axis=1, prepend=0.0).tobytes()

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

    def test_zero_at_mle_when_exposure_sum_overflows(self):
        # S_1 and S_2 are finite but S . (1, lambda) is not; theta * S_j is about 1.
        spec, data = ModelSpec.kim_kvam(2), SpacingsMatrix([[5e307, 1e308]])
        params = closed_form_mle(spec, data).params_hat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = score(spec, params, data)
        assert np.all(np.isfinite(g))
        # g_0 = (n k - theta S . lambda) / theta and g_1 = (n - lambda_1 theta S_2) / lambda_1:
        # scaled back, each is a difference of terms of size n k or n.
        assert abs(g[0] * params.theta) <= 1e-12 * data.n * data.k
        assert abs(g[1] * params.lambdas[0]) <= 1e-12 * data.n

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
