import numpy as np
import pytest

from riskfuse.copulas import fit_clayton, fit_family, fit_gaussian, fit_gumbel, kendall_tau, pseudo_observations, sample
from riskfuse.errors import DataError, NumericError
from riskfuse.gof import (
    _BLOCK_POINTS,
    GofResult,
    cvm_statistic,
    empirical_copula,
    parametric_bootstrap,
    select_best_copula,
)

from oracles import bootstrap_replicate, empirical_copula_brute


class TestEmpiricalCopula:
    def test_full_mass_at_corner(self, rng):
        u, v = rng.uniform(size=20), rng.uniform(size=20)
        assert empirical_copula(u, v, 1.0, 1.0) == 1.0

    def test_zero_below_minimum(self, rng):
        u, v = rng.uniform(0.2, 0.9, 20), rng.uniform(size=20)
        assert empirical_copula(u, v, 0.1, 1.0) == 0.0

    def test_three_point_example(self):
        u = np.array([0.25, 0.5, 0.75])
        v = np.array([0.5, 0.25, 0.75])
        assert empirical_copula(u, v, 0.5, 0.5) == pytest.approx(2.0 / 3.0)

    def test_matches_brute_force(self, rng):
        n = 500
        u, v = rng.uniform(size=n), rng.uniform(size=n)
        for _ in range(25):
            q1, q2 = rng.uniform(size=2)
            assert empirical_copula(u, v, q1, q2) == pytest.approx(
                empirical_copula_brute(u, v, q1, q2), abs=1e-12
            )

    def test_query_blocks_match_one_comparison_matrix(self, rng):
        n, q = 3000, 1000  # one rank pass over 4000 points against the full comparison matrix
        u, v = rng.uniform(size=n), rng.uniform(size=n)
        qu, qv = rng.uniform(size=q), rng.uniform(size=q)
        expected = ((u[:, None] <= qu[None, :]) & (v[:, None] <= qv[None, :])).sum(axis=0) / n
        assert np.array_equal(empirical_copula(u, v, qu, qv), expected)

    def test_monotone_in_each_argument(self, rng):
        u, v = rng.uniform(size=80), rng.uniform(size=80)
        grid = np.linspace(0, 1, 21)
        vals = empirical_copula(u, v, grid[:, None], grid[None, :])
        assert np.all(np.diff(vals, axis=0) >= 0)
        assert np.all(np.diff(vals, axis=1) >= 0)


class TestCvmStatistic:
    def test_definitional_zero_against_matching_model(self):
        # anti-monotone pair placed so the product copula reproduces C_n exactly
        u = np.array([0.6, 5.0 / 6.0])
        v = np.array([5.0 / 6.0, 0.6])
        model = fit_gumbel(0.0)  # theta 1: independence
        assert cvm_statistic(u, v, model) < 1e-30

    def test_two_point_hand_value(self):
        u = np.array([1.0 / 3.0, 2.0 / 3.0])
        v = np.array([1.0 / 3.0, 2.0 / 3.0])
        model = fit_gumbel(0.0)
        # C_n = (1/2, 1); independence = (1/9, 4/9); S = 149/648
        assert cvm_statistic(u, v, model) == pytest.approx(149.0 / 648.0, abs=1e-12)

    def test_nonnegative_on_random_samples(self, rng):
        model = fit_gaussian(0.5)
        u, v = sample(model, 100, seed=1)
        assert cvm_statistic(u, v, model) >= 0.0

    @pytest.mark.parametrize("family", ["gaussian", "clayton", "gumbel"])
    def test_row_order_leaves_every_bit(self, family):
        u, v = _observed(0.43, 1783, seed=5)
        model = fit_family(family, kendall_tau(u, v))
        stat = cvm_statistic(u, v, model)
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows = rng.permutation(len(u))
            assert cvm_statistic(u[rows], v[rows], model) == stat


class TestParametricBootstrap:
    def run_small(self, **kw):
        model = fit_gaussian(0.4)
        u, v = sample(model, 120, seed=9)
        u, v = pseudo_observations(u), pseudo_observations(v)
        args = dict(n_boot=50, replicate_size=None, seed=3, refit=True)
        args.update(kw)
        return parametric_bootstrap(u, v, "gaussian", **args)

    def test_zero_replicates_rejected(self):
        with pytest.raises(NumericError):
            self.run_small(n_boot=0)

    def test_p_value_bounds_and_formula(self):
        res = self.run_small()
        assert 1.0 / 51.0 <= res.p_value <= 1.0
        expected = (1.0 + np.sum(res.replicates >= res.statistic)) / 51.0
        assert res.p_value == expected

    def test_statistic_below_every_replicate_gives_one(self):
        res = self.run_small()
        forced = (1.0 + np.sum(res.replicates >= -1.0)) / 51.0
        assert forced == 1.0  # (1 + B) / (B + 1) at the formula boundary

    def test_reproducible_bit_exact(self):
        a = self.run_small()
        b = self.run_small()
        assert a.p_value == b.p_value
        assert np.array_equal(a.replicates, b.replicates)

    def test_replicate_size_flag(self):
        res = self.run_small(replicate_size=64)
        assert res.replicate_size == 64

    def test_no_refit_flag_changes_distribution(self):
        a = self.run_small(refit=True)
        b = self.run_small(refit=False)
        assert not np.array_equal(a.replicates, b.replicates)

    @pytest.mark.parametrize("family, bound", [("clayton", 1e-6), ("gumbel", 1.0)])
    def test_clayton_floor_flagged_degenerate(self, rng, family, bound):
        u = pseudo_observations(rng.standard_normal(80))
        v = 1.0 - u  # strongly negative dependence
        res = parametric_bootstrap(u, v, family, n_boot=20, replicate_size=None, seed=1, refit=True)
        assert res.degenerate_fit
        assert res.model.param == bound

    @pytest.mark.parametrize("family, m, seed, n_boot", [
        ("gaussian", 2, 3, 50), ("clayton", 2, 3, 50), ("gumbel", 2, 3, 50),
        ("gumbel", 8, 0, 1300),  # the first such replicate is 1107, in the second block of 8192 // 8
    ], ids=["gaussian-m2", "clayton-m2", "gumbel-m2", "gumbel-m8-second-block"])
    def test_perfectly_ordered_replicate_is_named(self, family, m, seed, n_boot):
        # a small replicate can have tau +-1, which no family inverts
        u, v = _observed(0.4, 120, seed=9)
        model_hat = fit_family(family, kendall_tau(u, v))
        first_bad = None
        for b in range(n_boot):
            try:
                bootstrap_replicate(model_hat, family, m, seed, b, refit=True)
            except NumericError:
                first_bad = b
                break
        assert first_bad is not None
        with pytest.raises(NumericError, match=rf"^{family} bootstrap replicate {first_bad + 1} of {n_boot} "
                                               rf"\(m = {m} pairs\) has Kendall tau -?1\.0: {family} fit requires "
                                               r".*; a larger m avoids it$"):
            parametric_bootstrap(u, v, family, n_boot=n_boot, replicate_size=m, seed=seed, refit=True)

    def test_power_direction_clayton_vs_gaussian_null(self):
        # data from the lower-tail family should look worse under the
        # symmetric model than symmetric data does
        null_ps, alt_ps = [], []
        gauss = fit_gaussian(2.0 / np.pi * np.arcsin(0.628))
        clay = fit_clayton(1.5 / (1.5 + 2.0))
        for i in range(50):
            u, v = sample(gauss, 500, np.random.default_rng((500, i)))
            u, v = pseudo_observations(u), pseudo_observations(v)
            null_ps.append(parametric_bootstrap(u, v, "gaussian", n_boot=99, replicate_size=None, seed=i, refit=True).p_value)
            u, v = sample(clay, 500, np.random.default_rng((501, i)))
            u, v = pseudo_observations(u), pseudo_observations(v)
            alt_ps.append(parametric_bootstrap(u, v, "gaussian", n_boot=99, replicate_size=None, seed=i, refit=True).p_value)
        assert np.median(alt_ps) < np.median(null_ps)


def _observed(tau, n, seed, decimals=None):
    x, y = sample(fit_gaussian(tau), n, seed=seed)
    if decimals is not None:  # tied observed margins
        x, y = np.round(x, decimals), np.round(y, decimals)
    return pseudo_observations(x), pseudo_observations(y)


class TestBlockBootstrapMatchesOneReplicateAtATime:
    """Every block replicate has the bits of the same replicate drawn, ranked, refitted and scored alone."""

    @pytest.mark.parametrize("family", ["gaussian", "clayton", "gumbel"])
    @pytest.mark.parametrize("case", [
        # tau, n, rounding, B, m, refit
        (0.4, 300, None, 3 * (_BLOCK_POINTS // 300) + 5, None, True),  # three full blocks and a partial one
        (0.4, 300, None, 40, 64, False),  # replicate size other than n, parameter not refitted
        (0.4, 150, 2, 60, None, True),  # tied observed margins
        (0.8, 200, None, 30, None, True),  # strong dependence: Gaussian replicate rho above 0.925
        (-0.3, 120, None, 30, None, True),  # tau <= 0: Clayton at its floor, Gumbel at theta = 1
        (0.4, 150, 2, 70, 16, True),  # some replicates have tau exactly 1/2, so Gumbel theta is exactly 2
        (0.4, 50, None, 30, 2, False),  # the smallest replicate
        (0.4, 50, None, 2, _BLOCK_POINTS + 1, True),  # a replicate larger than a block
    ], ids=["blocks", "m-no-refit", "tied", "extreme-rho", "tau-nonpositive", "gumbel-theta-2", "m2", "m-over-block"])
    def test_replicates_equal_the_oracle(self, family, case):
        tau, n, decimals, n_boot, m, refit = case
        u, v = _observed(tau, n, seed=n, decimals=decimals)
        res = parametric_bootstrap(u, v, family, n_boot=n_boot, replicate_size=m, seed=3, refit=refit)
        model_hat = fit_family(family, kendall_tau(u, v))
        expected = [bootstrap_replicate(model_hat, family, m or n, 3, b, refit) for b in range(n_boot)]
        assert np.array_equal(res.replicates, expected)


class TestSelectBestCopula:
    def make(self, family, p, s):
        return GofResult(family, s, 100, 100, p, fit_gaussian(0.3))

    def test_largest_p_value_wins(self):
        results = [
            self.make("gaussian", 0.997, 2.4e-5),
            self.make("clayton", 0.176, 1.93e-4),
            self.make("gumbel", 0.413, 9.81e-5),
        ]
        assert select_best_copula(results).family == "gaussian"

    def test_singleton(self):
        assert select_best_copula([self.make("gumbel", 0.4, 1e-4)]).family == "gumbel"

    def test_tie_falls_to_smaller_statistic(self):
        results = [
            self.make("clayton", 0.5, 2e-4),
            self.make("gumbel", 0.5, 1e-4),
        ]
        assert select_best_copula(results).family == "gumbel"

    def test_full_tie_uses_family_order(self):
        results = [
            self.make("gumbel", 0.5, 1e-4),
            self.make("gaussian", 0.5, 1e-4),
        ]
        assert select_best_copula(results).family == "gaussian"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            select_best_copula([])


def test_gof_result_serialization():
    res = GofResult("gumbel", 1e-4, 100, 200, 0.5, fit_gumbel(0.3))
    assert set(res.to_dict()) == {"family", "statistic", "B", "m", "p_value", "degenerate_fit"}
