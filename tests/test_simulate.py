import math
import tracemalloc

import numpy as np
import pytest

from loadshare import (
    InvalidParams,
    InvalidSampleSize,
    McSummary,
    ModelSpec,
    Params,
    RngState,
    closed_form_mle,
    mc_study,
    sample_dataset,
)
from loadshare.model import _FOLD_VALUES, _multipliers, _survivors
from loadshare.simulate import (
    _BLOCK_UNIFORMS,
    _block_estimates,
    _draw_spacings,
    _sample_blocks,
    _stage_rates,
)


class TestRngState:
    def test_same_seed_same_stream(self):
        a = RngState(123).uniform_open(8)
        b = RngState(123).uniform_open(8)
        assert np.array_equal(a, b)

    def test_children_are_reproducible_and_distinct(self):
        base = RngState(9)
        c1 = base.child(0).uniform_open(4)
        c2 = RngState(9).child(0).uniform_open(4)
        other = base.child(1).uniform_open(4)
        assert np.array_equal(c1, c2)
        assert not np.array_equal(c1, other)

    def test_child_independent_of_parent_stream_position(self):
        a = RngState(9)
        a.uniform_open(100)  # advance the parent stream
        assert np.array_equal(a.child(3).uniform_open(4), RngState(9).child(3).uniform_open(4))

    def test_uniforms_strictly_inside_unit_interval(self):
        u = RngState(5).uniform_open(100_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidSampleSize):
            RngState(seed)

    def test_exact_zeros_are_redrawn(self):
        draws, asked = iter([[0.5, 0.0, 0.25, 0.0], [0.0, 0.75], [0.125]]), []

        class Stub:
            def random(self, size):
                asked.append(size)
                return np.array(next(draws))

        rng = RngState(0)
        rng._generator = Stub()
        assert np.array_equal(rng.uniform_open(4), [0.5, 0.125, 0.25, 0.75])
        assert asked == [4, 2, 1]

    def test_repr_names_the_seed_and_spawn_key(self):
        assert repr(RngState(9).child(3)) == "RngState(seed=9, spawn_key=(3,))"


class _Fixed(RngState):
    """Hands out a copy of the given uniforms; the draw must ask for their shape."""

    def __init__(self, u):
        super().__init__(0)
        self.u = u

    def uniform_open(self, size):
        assert tuple(size) == self.u.shape
        return self.u.copy()


class TestInverseTransforms:
    # The inverse CDFs by hand, through sample_dataset with fixed uniforms.
    def test_exponential_spacing_hand_value(self):
        # kim-kvam, rates (2, 2): -ln(e^-1) / 2 and -ln(e^-2) / 2
        u = np.array([[math.exp(-1.0), math.exp(-2.0)]])
        got = sample_dataset(ModelSpec.kim_kvam(2), Params(1.0, (2.0,)), 1, _Fixed(u)).data
        assert got[0] == pytest.approx([0.5, 1.0], rel=1e-15)

    def test_rayleigh_spacing_hand_value(self):
        # ssk k=3 s=2, rates (3, 2, 1): 1.5 / 3, 2 / 2 and, past the switch, sqrt(2 * 0.5 / 1)
        u = np.array([[math.exp(-1.5), math.exp(-2.0), math.exp(-0.5)]])
        got = sample_dataset(ModelSpec.ssk(3, 2), Params(1.0, (1.0, 1.0)), 1, _Fixed(u)).data
        assert got[0] == pytest.approx([0.5, 1.0, 1.0], rel=1e-15)


class TestDraw:
    # Every stage's exposure is -log(U): a spacing is that over the stage rate, and past the
    # ssk switch the Rayleigh root of twice that over the rate.
    @pytest.mark.parametrize("spec", [ModelSpec.kim_kvam(4), ModelSpec.ssk(4, 2), ModelSpec.ssk(4, 3),
                                      ModelSpec.ssk(3, 2)], ids=["kim-kvam", "ssk-2", "ssk-k-1", "ssk-3"])
    def test_spacings_are_the_inverse_cdf_bit_for_bit(self, spec):
        params = Params(0.7, (1.5, 0.3, 2.0)[: spec.k - 1])
        u = np.random.default_rng(2).random((200, spec.k))
        u[0] = [1.0 - 2.0**-53, 2.0**-1074, 0.5, math.exp(-1.0)][: spec.k]  # the largest double below 1, the least subnormal
        rates = np.arange(spec.k, 0, -1.0) * np.array((1.0, *params.lambdas)) * params.theta
        s = spec.s or spec.k
        expected = np.hstack([-np.log(u[:, :s]) / rates[:s],
                              np.sqrt(2.0 * (-np.log(u[:, s:])) / rates[s:])])
        got = sample_dataset(spec, params, 200, _Fixed(u)).data
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", [ModelSpec.kim_kvam(5), ModelSpec.ssk(5, 2)], ids=["kim-kvam", "ssk"])
    def test_draw_holds_one_matrix(self, spec):
        # The uniforms become the spacings in place, and neither the uniform sampler nor the
        # finite-and-positive check builds a mask unless it finds a value to mend or report:
        # the peak is the matrix alone, not the three matrices of a per-regime concatenation.
        sample_dataset(spec, Params(1.0, (1.0,) * 4), 10, RngState(0))  # warm up
        tracemalloc.start()
        try:
            sample_dataset(spec, Params(1.0, (1.0,) * 4), 200_000, RngState(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 200_000 * 5 * 8


class TestUpFrontJudgement:
    """Generator.random's uniforms lie in [2**-53, 1 - 2**-53] and each spacing is monotone in
    its exposure, so _stage_rates judges the parameters by the spacings at those two ends. Its
    verdict must be that of the draw itself fed the two ends, on both sides of each limit."""

    @staticmethod
    def drawn_ok(spec, theta):
        params = Params(theta, (1.0,) * (spec.k - 1))
        with np.errstate(over="ignore", under="ignore"):
            rates = _survivors(spec.k) * _multipliers(spec, params) * theta
        u = np.array([[2.0**-53] * spec.k, [1.0 - 2.0**-53] * spec.k])
        t = _draw_spacings(spec, rates, _Fixed(u).uniform_open((2, spec.k)))
        return bool(np.all(np.isfinite(t) & (t > 0)))

    @staticmethod
    def judged_ok(spec, theta):
        try:
            _stage_rates(spec, Params(theta, (1.0,) * (spec.k - 1)))
        except InvalidParams as exc:
            assert f"theta={theta:g}" in str(exc)
            return False
        return True

    @pytest.mark.parametrize("spec", [ModelSpec.kim_kvam(3), ModelSpec.ssk(3, 2)], ids=["kim-kvam", "ssk"])
    @pytest.mark.parametrize("ok, bad", [(1.0, 1e-310), (1.0, 1.7e308)], ids=["low", "high"])
    def test_verdict_is_the_draws_at_both_ends(self, spec, ok, bad):
        # Bisect theta, as the bits of a positive double, to two neighbours the draw tells apart.
        ok, bad = np.array([ok, bad]).view(np.int64)
        while abs(int(bad) - int(ok)) > 1:
            mid = ok + (bad - ok) // 2
            if self.drawn_ok(spec, float(mid.view(float))):
                ok = mid
            else:
                bad = mid
        ok, bad = float(ok.view(float)), float(bad.view(float))
        assert self.drawn_ok(spec, ok) and not self.drawn_ok(spec, bad)
        assert self.judged_ok(spec, ok) and not self.judged_ok(spec, bad)


class TestSampleSystem:
    def test_shape_and_positivity(self):
        spec = ModelSpec.ssk(4, 2)
        row = sample_dataset(spec, Params(1.5, (0.5, 2.0, 1.0)), 1, RngState(0)).data[0]
        assert row.shape == (4,)
        assert np.all(row > 0)

    def test_stage_one_mean_matches_exponential(self):
        # stage-1 rate is k * theta; mean of 1e5 draws within 3 standard errors
        spec = ModelSpec.kim_kvam(4)
        params = Params(2.0, (1.0, 1.0, 1.0))
        data = sample_dataset(spec, params, 100_000, RngState(31)).data[:, 0]
        se = data.std(ddof=1) / math.sqrt(data.size)
        assert abs(data.mean() - 0.125) <= 3 * se


class _NearOne(RngState):
    """Every uniform is the largest double below 1, so -log(U) is about 1.1e-16."""

    def uniform_open(self, size):
        return np.full(size, 1.0 - 2.0**-53)

    def child(self, index):
        return self


class TestSampleDataset:
    def test_spacing_underflow_is_a_parameter_error(self):
        # a valid stage rate near the float64 maximum sends -log(U) / rate to 0
        spec, params = ModelSpec.kim_kvam(2), Params(8e307, (1.0,))
        with pytest.raises(InvalidParams, match=r"theta=8e\+307.*stage 1"):
            sample_dataset(spec, params, 3, _NearOne(0))

    def test_zero_n_rejected(self):
        with pytest.raises(InvalidSampleSize):
            sample_dataset(ModelSpec.kim_kvam(2), Params(1.0, (1.0,)), 0, RngState(0))

    def test_deterministic_given_seed(self):
        spec = ModelSpec.ssk(3, 2)
        params = Params(1.0, (2.0, 0.7))
        a = sample_dataset(spec, params, 50, RngState(77))
        b = sample_dataset(spec, params, 50, RngState(77))
        assert np.array_equal(a.data, b.data)

    def test_rows_match_repeated_single_system_draws(self):
        # one block draw consumes the stream exactly like n row draws
        spec = ModelSpec.ssk(4, 2)
        params = Params(0.8, (1.2, 3.0, 0.4))
        block = sample_dataset(spec, params, 6, RngState(13))
        rng = RngState(13)
        rows = np.vstack([sample_dataset(spec, params, 1, rng).data for _ in range(6)])
        assert np.array_equal(block.data, rows)

    def test_first_column_total_near_expectation(self):
        # sum of n Exp(k * theta) draws: mean n / (k * theta)
        spec = ModelSpec.kim_kvam(3)
        params = Params(1.0, (1.0, 1.0))
        col = sample_dataset(spec, params, 10_000, RngState(5)).data[:, 0]
        se = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - 1 / 3) <= 3 * se

    def test_accelerating_phase_exposure_is_exponential(self):
        # past the switch, (k-j+1) T^2 / 2 has mean 1 / (lambda_{j-1} theta)
        spec = ModelSpec.ssk(3, 2)
        theta, lam2 = 0.7, 1.8
        params = Params(theta, (1.1, lam2))
        t3 = sample_dataset(spec, params, 100_000, RngState(12)).data[:, 2]
        y3 = 0.5 * 1 * t3**2
        se = y3.std(ddof=1) / math.sqrt(y3.size)
        assert abs(y3.mean() - 1 / (lam2 * theta)) <= 3 * se


def _merged_se(x, per_block):
    """Standard errors of the column means of ``x``, merged as mc_study merges them: each block
    of ``per_block`` rows adds to M2 its centred squares and the shift of its mean from the mean
    of the rows before it (Chan, Golub & LeVeque 1979); se = sqrt(M2 / (reps - 1) / reps). Like
    mc_study, it sums each column of a block as one contiguous run."""
    columns, m2 = np.ascontiguousarray(x.T), np.zeros(x.shape[1])
    for lo in range(0, len(x), per_block):
        block = columns[:, lo : lo + per_block]
        b, mean = block.shape[1], block.mean(axis=1)
        m2 += np.square(block - mean[:, None]).sum(axis=1)
        m2 += np.square(mean - x[:lo].sum(axis=0) / max(lo, 1)) * (lo * b / (lo + b))
    return np.sqrt(m2 / (len(x) - 1) / len(x))


def _assert_standard_errors(s, estimates, squared, n, k):
    # The bits of the block-by-block merge, and numpy's two-pass value to within 1e-13.
    per_block, reps = max(1, _BLOCK_UNIFORMS // (n * k)), len(estimates)
    assert np.array_equal(s.se_mean, _merged_se(estimates, per_block))
    assert np.array_equal(s.se_mse, _merged_se(squared, per_block))
    np.testing.assert_allclose(s.se_mean, estimates.std(axis=0, ddof=1) / math.sqrt(reps), rtol=1e-13)
    np.testing.assert_allclose(s.se_mse, squared.std(axis=0, ddof=1) / math.sqrt(reps), rtol=1e-13)


class TestMcStudy:
    def test_requires_n_at_least_two(self):
        with pytest.raises(InvalidSampleSize):
            mc_study(ModelSpec.kim_kvam(2), Params(1.0, (1.0,)), 1, 10, RngState(0))

    def test_requires_positive_reps(self):
        with pytest.raises(InvalidSampleSize):
            mc_study(ModelSpec.kim_kvam(2), Params(1.0, (1.0,)), 5, 0, RngState(0))

    def test_mean_matches_small_sample_inflation(self):
        # closed-form estimates have mean n/(n-1) * truth
        spec = ModelSpec.kim_kvam(3)
        truth = Params(1.0, (2.0, 0.5))
        s = mc_study(spec, truth, 10, 20_000, RngState(42))
        expected = 10 / 9 * truth.as_array()
        assert np.all(np.abs(s.mean_estimates - expected) <= 3 * s.se_mean)

    def test_mse_dominates_squared_bias(self):
        s = mc_study(ModelSpec.ssk(3, 2), Params(1.0, (1.0, 1.0)), 5, 500, RngState(3))
        assert np.all(s.mse >= s.bias**2 - 1e-12)

    def test_summary_with_mse_below_squared_bias_is_rejected(self):
        with pytest.raises(AssertionError, match="mse < bias"):
            McSummary(2, [1.0, 1.0], [0.5, 0.0], [0.2, 0.0], [0.1, 0.1], [0.1, 0.1])

    def test_deterministic_and_worker_invariant(self):
        spec = ModelSpec.ssk(4, 2)
        truth = Params(1.0, (1.5, 0.8, 2.0))
        a = mc_study(spec, truth, 6, 600, RngState(8))
        for other in (
            mc_study(spec, truth, 6, 600, RngState(8)),
            mc_study(spec, truth, 6, 600, RngState(8), workers=3),
            mc_study(spec, truth, 6, 600, RngState(8), workers=4),
        ):
            for field in ("mean_estimates", "bias", "mse", "se_mean", "se_mse"):
                assert np.array_equal(getattr(a, field), getattr(other, field))

    @pytest.mark.parametrize(
        "spec,truth",
        [
            (ModelSpec.kim_kvam(3), Params(1.0, (2.0, 0.5))),
            (ModelSpec.ssk(4, 2), Params(0.7, (1.5, 0.8, 2.0))),
        ],
        ids=["kim-kvam", "ssk"],
    )
    @pytest.mark.parametrize(
        "reps_for_block",
        [lambda b: 1, lambda b: b - 1, lambda b: b, lambda b: 2 * b + 3],
        ids=["one", "below-block", "at-block", "across-blocks"],
    )
    def test_matches_per_replication_reference(self, spec, truth, reps_for_block):
        # The blocks must give exactly what fitting each replication's rows of
        # the same stream one at a time gives.
        n = 7
        reps = reps_for_block(_BLOCK_UNIFORMS // (n * spec.k))
        stream = RngState(21).child(0)
        estimates = np.array([
            closed_form_mle(spec, sample_dataset(spec, truth, n, stream)).params_hat.as_array()
            for _ in range(reps)
        ])
        errors = estimates - truth.as_array()
        s = mc_study(spec, truth, n, reps, RngState(21))
        assert s.reps == reps
        assert np.array_equal(s.mean_estimates, estimates.mean(axis=0))
        assert np.array_equal(s.mse, (errors**2).mean(axis=0))
        if reps > 1:
            _assert_standard_errors(s, estimates, errors**2, n, spec.k)
        else:
            assert np.isnan(s.se_mean).all() and np.isnan(s.se_mse).all()

    @pytest.mark.parametrize("spec,truth", [
        (ModelSpec.kim_kvam(3), Params(1.0, (2.0, 0.5))),
        (ModelSpec.ssk(3, 2), Params(0.7, (1.5, 0.8))),
    ], ids=["kim-kvam", "ssk"])
    @pytest.mark.parametrize("n,reps", [(2, _BLOCK_UNIFORMS // 6 + 5), (_FOLD_VALUES // 3 + 100, 3)],
                             ids=["wide-blocks", "fold-split"])
    def test_matches_reference_where_blocks_change_shape(self, spec, truth, n, reps):
        # At n = 2 a block folds thousands of replications side by side; past _FOLD_VALUES // k
        # rows (k = 3 in both specs) a block is one replication (n * k > _BLOCK_UNIFORMS) and the
        # fold splits it. Either way the summary equals the one taken from fitting each
        # replication alone.
        stream = RngState(33).child(0)
        estimates = np.array([
            closed_form_mle(spec, sample_dataset(spec, truth, n, stream)).params_hat.as_array()
            for _ in range(reps)
        ])
        squared = (estimates - truth.as_array()) ** 2
        s = mc_study(spec, truth, n, reps, RngState(33))
        assert np.array_equal(s.mean_estimates, estimates.mean(axis=0))
        assert np.array_equal(s.mse, squared.mean(axis=0))
        _assert_standard_errors(s, estimates, squared, n, spec.k)

    def test_summary_memory_does_not_grow_with_reps(self):
        # Each block is summarised as it is made and no array is sized by reps, so ten times the
        # replications peak within 1 MB (2e5 replications' estimates alone would be 4.8 MB).
        spec, truth = ModelSpec.ssk(3, 2), Params(0.7, (1.5, 0.8))
        mc_study(spec, truth, 10, 10, RngState(0))  # warm up
        peaks = []
        for reps in (20_000, 200_000):
            tracemalloc.start()
            try:
                mc_study(spec, truth, 10, reps, RngState(1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20

    @pytest.mark.parametrize("spec,seed", [(ModelSpec.kim_kvam(4), 2004), (ModelSpec.ssk(4, 2), 2008)],
                             ids=["kim-kvam", "ssk"])
    def test_mse_matches_its_exact_value(self, spec, seed):
        # theta_hat / theta = n / G_1 and lambda_hat_j / lambda_j = G_1 / G_{j+1}, the G independent
        # Gamma(n, 1) (see TestExactLaw). E[1/G] = 1/(n-1) and E[1/G^2] = 1/((n-1)(n-2)) give
        # MSE(theta_hat) = theta^2 (n+2)/((n-1)(n-2)) and MSE(lambda_hat_j) = lambda_j^2 2(n+1)/((n-1)(n-2)).
        # n >= 5 gives se_mse a finite variance: the fourth moment of 1/G needs n > 4.
        n, truth = 10, Params(1.3, (0.8, 2.5, 1.2))
        s = mc_study(spec, truth, n, 100_000, RngState(seed))
        exact = truth.as_array() ** 2 * np.array([n + 2] + [2 * (n + 1)] * 3) / ((n - 1) * (n - 2))
        assert np.all(np.abs(s.mse - exact) <= 3 * s.se_mse)

    def test_caller_stream_not_advanced(self):
        rng = RngState(17)
        mc_study(ModelSpec.kim_kvam(3), Params(1.0, (1.0, 1.0)), 5, 40, rng)
        assert np.array_equal(rng.uniform_open(6), RngState(17).uniform_open(6))

    def test_spacing_underflow_is_a_parameter_error(self):
        with pytest.raises(InvalidParams, match=r"theta=8e\+307.*stage 1"):
            mc_study(ModelSpec.kim_kvam(2), Params(8e307, (1.0,)), 2, 3, _NearOne(0))

    def test_a_summary_statistic_out_of_range_is_a_parameter_error(self):
        # At theta = 1e80 the estimates and their squared errors (about 1e160) are finite, and so
        # are the mean and the mse; only se_mse, which sums squares of squared errors, overflows.
        expected = (r"^theta=1e\+80 and lambda=1 give a Monte Carlo summary statistic outside the "
                    r"float64 range$")
        with pytest.raises(InvalidParams, match=expected):
            mc_study(ModelSpec.kim_kvam(2), Params(1e80, (1.0,)), 3, 100, RngState(0))

    def test_bias_and_mse_shrink_with_sample_size(self):
        spec = ModelSpec.kim_kvam(3)
        truth = Params(1.0, (1.0, 2.0))
        summaries = [
            mc_study(spec, truth, n, 10_000, RngState(100 + n)) for n in (5, 20, 80)
        ]
        for small, large in zip(summaries, summaries[1:]):
            assert np.all(
                np.abs(large.bias)
                <= np.abs(small.bias) + 3 * (small.se_mean + large.se_mean)
            )
            assert np.all(large.mse <= small.mse + 3 * (small.se_mse + large.se_mse))

    def test_summary_shapes(self):
        s = mc_study(ModelSpec.kim_kvam(4), Params(1.0, (1.0, 1.0, 1.0)), 4, 50, RngState(1))
        assert s.reps == 50
        for field in ("mean_estimates", "bias", "mse", "se_mean", "se_mse"):
            assert getattr(s, field).shape == (4,)


def _gamma_cdf(n, x):
    """P(X <= x) for X ~ Gamma(n, 1), integer n: one minus a Poisson(x) sum below n."""
    term, total = np.exp(-x), np.zeros_like(x)
    for i in range(n):
        total += term
        term = term * x / (i + 1)
    return 1.0 - total


def _beta_cdf(n, p):
    """P(X <= p) for X ~ Beta(n, n), integer n: P(Binomial(2n - 1, p) >= n)."""
    m = 2 * n - 1
    return sum(math.comb(m, j) * p**j * (1.0 - p) ** (m - j) for j in range(n, m + 1))


class TestExactLaw:
    # Each stage's exposure is a unit exponential over theta * lambda_{j-1}, so S_j is
    # Gamma(n, theta * lambda_{j-1}), independently: theta * S_1 = n * theta / theta_hat is
    # Gamma(n, 1), and S_1 / (S_1 + lambda_j * S_{j+1}) = 1 / (1 + lambda_j / lambda_hat_j) is
    # Beta(n, n). Both laws are exact at every n, so the whole sampler and closed form are on test.
    N, n = 100_000, 6

    @pytest.mark.parametrize("spec,truth,seed", [
        (ModelSpec.kim_kvam(4), Params(1.3, (2.0, 0.5, 3.0)), 2004),
        (ModelSpec.ssk(4, 2), Params(0.7, (1.5, 0.8, 2.0)), 2008),
    ], ids=["kim-kvam", "ssk"])
    def test_pivots_follow_their_exact_laws(self, spec, truth, seed):
        rows = self.N * self.n
        d = next(_sample_blocks(spec, truth, rows, RngState(seed), rows))
        estimates = _block_estimates(spec, truth, d.reshape(self.N, self.n, spec.k))
        pivots = [(_gamma_cdf, self.n * truth.theta / estimates[:, 0])]
        pivots += [(_beta_cdf, 1.0 / (1.0 + lam / estimates[:, j]))
                   for j, lam in enumerate(truth.lambdas, start=1)]
        ranks = np.arange(1, self.N + 1) / self.N
        se = math.sqrt(0.95 * 0.05 / self.N)
        for cdf, pivot in pivots:
            f = cdf(self.n, np.sort(pivot))
            ks = max((ranks - f).max(), (f - (ranks - 1.0 / self.N)).max())
            assert ks < 1.63 / math.sqrt(self.N)  # the 1 % critical value
            # The equal-tailed 95 % interval covers the truth where the pivot's CDF is central.
            coverage = np.mean((f >= 0.025) & (f <= 0.975))
            assert abs(coverage - 0.95) <= 3 * se
