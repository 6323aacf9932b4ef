import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskfuse.copulas import (
    FAMILIES,
    CopulaModel,
    copula_cdf,
    fit_clamps,
    fit_clayton,
    fit_family,
    fit_gaussian,
    fit_gumbel,
    kendall_tau,
    pseudo_observations,
    sample,
)
from riskfuse.errors import DataError, NumericError

from oracles import gumbel_sample_by_inversion, tau_brute


class TestPseudoObservations:
    def test_untied_ranks(self):
        assert pseudo_observations([10.0, 20.0, 30.0]) == pytest.approx([0.25, 0.5, 0.75])

    def test_average_ranks_on_ties(self):
        assert pseudo_observations([1.0, 1.0, 2.0]) == pytest.approx([0.375, 0.375, 0.75])

    def test_max_maps_to_n_over_n_plus_one(self, rng):
        x = rng.standard_normal(17)
        u = pseudo_observations(x)
        assert u[np.argmax(x)] == pytest.approx(17.0 / 18.0)

    def test_untied_margin_is_permutation_of_grid(self, rng):
        n = 25
        u = np.sort(pseudo_observations(rng.permutation(n).astype(float)))
        assert u == pytest.approx(np.arange(1, n + 1) / (n + 1))

    def test_needs_two_values(self):
        with pytest.raises(DataError):
            pseudo_observations([1.0])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(30)
        assert pseudo_observations(np.exp(2.0 * x) + 3.0) == pytest.approx(pseudo_observations(x))


class TestKendallTau:
    def test_three_pair_example(self):
        assert kendall_tau([0.25, 0.5, 0.75], [0.25, 0.75, 0.5]) == pytest.approx(1.0 / 3.0)

    def test_perfect_concordance(self, rng):
        u = rng.standard_normal(40)
        assert kendall_tau(u, u) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            kendall_tau([1.0, 2.0], [1.0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 200))
    def test_matches_pairwise_enumeration(self, seed, n):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 6, n).astype(float)  # heavy ties on both margins
        v = rng.integers(0, 6, n).astype(float)
        assert kendall_tau(u, v) == pytest.approx(tau_brute(u, v), abs=1e-12)


class TestFits:
    def test_gaussian_reference_value(self):
        model = fit_gaussian(0.432)
        assert model.param == pytest.approx(0.628, abs=0.01)
        assert (model.lambda_lower, model.lambda_upper) == (0.0, 0.0)

    def test_gaussian_special_points(self):
        assert fit_gaussian(0.0).param == 0.0
        assert fit_gaussian(0.5).param == pytest.approx(np.sin(np.pi / 4.0), abs=1e-15)

    def test_clayton_reference_value(self):
        model = fit_clayton(0.432)
        assert model.param == pytest.approx(1.523, abs=0.01)
        assert model.lambda_lower == pytest.approx(0.634, abs=0.005)
        assert model.lambda_upper == 0.0

    def test_clayton_third(self):
        assert fit_clayton(1.0 / 3.0).param == pytest.approx(1.0, abs=1e-12)

    def test_clayton_floor_for_nonpositive_tau(self):
        model = fit_clayton(-0.2)
        assert model.param == 1e-6

    def test_gumbel_reference_value(self):
        model = fit_gumbel(0.432)
        assert model.param == pytest.approx(1.761, abs=0.01)
        assert model.lambda_upper == pytest.approx(0.518, abs=0.005)
        assert model.lambda_lower == 0.0

    def test_gumbel_boundary_and_half(self):
        assert fit_gumbel(0.0).param == 1.0
        assert fit_gumbel(-0.3).param == 1.0  # constraint floor
        m = fit_gumbel(0.5)
        assert m.param == pytest.approx(2.0)
        assert m.lambda_upper == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)

    def test_degenerate_tau_rejected(self):
        with pytest.raises(NumericError):
            fit_gaussian(1.0)
        with pytest.raises(NumericError):
            fit_clayton(1.0)
        with pytest.raises(NumericError):
            fit_gumbel(1.0)

    @pytest.mark.parametrize("tau", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_tau_round_trip_archimedean(self, tau):
        assert fit_clayton(tau).tau == pytest.approx(tau, abs=1e-12)
        assert fit_gumbel(tau).tau == pytest.approx(tau, abs=1e-12)

    @pytest.mark.parametrize("tau", np.linspace(-0.89, 0.89, 9).tolist())
    def test_tau_round_trip_gaussian(self, tau):
        assert fit_gaussian(tau).tau == pytest.approx(tau, abs=1e-12)


ALL_MODELS = [
    fit_gaussian(0.432),
    fit_gaussian(-0.4),
    fit_clayton(0.432),
    fit_clayton(0.2),
    fit_gumbel(0.432),
    fit_gumbel(0.6),
]


class TestCopulaCdf:
    def test_independence_cases(self):
        assert copula_cdf(fit_gaussian(0.0), 0.5, 0.5) == pytest.approx(0.25, abs=1e-12)
        gumbel1 = fit_gumbel(0.0)
        assert copula_cdf(gumbel1, 0.3, 0.7) == pytest.approx(0.21, abs=1e-12)

    def test_clayton_closed_form_point(self):
        model = CopulaModel("clayton", 1.0, 1.0 / 3.0, 0.5, 0.0)
        assert copula_cdf(model, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.family}-{m.param:.3f}")
    def test_uniform_margins_and_groundedness(self, model, rng):
        u = rng.uniform(0.001, 0.999, 200)
        assert copula_cdf(model, u, np.ones_like(u)) == pytest.approx(u, abs=1e-9)
        assert copula_cdf(model, np.ones_like(u), u) == pytest.approx(u, abs=1e-9)
        assert np.all(copula_cdf(model, u, np.zeros_like(u)) == 0.0)
        assert np.all(copula_cdf(model, np.zeros_like(u), u) == 0.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: f"{m.family}-{m.param:.3f}")
    def test_two_increasing_and_frechet(self, model, rng):
        lo = rng.uniform(0.0, 1.0, (2000, 2))
        hi = lo + rng.uniform(0.0, 1.0, (2000, 2)) * (1.0 - lo)
        c11 = copula_cdf(model, hi[:, 0], hi[:, 1])
        c01 = copula_cdf(model, lo[:, 0], hi[:, 1])
        c10 = copula_cdf(model, hi[:, 0], lo[:, 1])
        c00 = copula_cdf(model, lo[:, 0], lo[:, 1])
        assert np.min(c11 - c01 - c10 + c00) >= -1e-12
        u = rng.uniform(0, 1, 2000)
        v = rng.uniform(0, 1, 2000)
        c = copula_cdf(model, u, v)
        assert np.all(c <= np.minimum(u, v))
        assert np.all(c >= np.maximum(u + v - 1.0, 0.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(NumericError):
            copula_cdf(fit_gaussian(0.3), 1.2, 0.5)

    @pytest.mark.parametrize("family, param, message", [
        ("gaussian", 1.0, "gaussian copula requires |rho| < 1"),
        ("clayton", 0.0, "clayton copula requires theta > 0"),
        ("gumbel", 0.99, "gumbel copula requires theta >= 1"),
        ("frank", 2.0, "unknown copula family 'frank'"),
    ])
    def test_bad_parameter_or_family_rejected(self, family, param, message):
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            copula_cdf(CopulaModel(family, param, 0.0, 0.0, 0.0), 0.5, 0.5)


class TestSampling:
    @pytest.mark.parametrize(
        "model",
        [fit_gaussian(0.0), fit_gaussian(0.43), fit_clayton(0.432), fit_gumbel(0.5)],
        ids=lambda m: f"{m.family}-{m.param:.3f}",
    )
    def test_tau_matches_closed_form_at_10k(self, model):
        u, v = sample(model, 10_000, seed=42)
        assert abs(kendall_tau(u, v) - model.tau) < 0.02
        assert np.all((u > 0) & (u < 1) & (v > 0) & (v < 1))
        # uniform margins: mean 1/2, variance 1/12
        assert abs(u.mean() - 0.5) < 0.02 and abs(v.mean() - 0.5) < 0.02

    def test_clayton_lower_tail_conditional(self):
        model = fit_clayton(0.432)
        u, v = sample(model, 10_000, seed=7)
        q = 0.05
        conditional = np.mean(v[u <= q] <= q)
        assert conditional == pytest.approx(0.634, abs=0.08)

    def test_gumbel_independence_at_theta_one(self):
        u, v = sample(fit_gumbel(0.0), 10_000, seed=3)
        assert abs(kendall_tau(u, v)) < 0.02

    def test_reproducible_given_seed(self):
        model = fit_gumbel(0.4)
        a = sample(model, 100, seed=5)
        b = sample(model, 100, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zero_draws_rejected(self):
        with pytest.raises(NumericError):
            sample(fit_gaussian(0.2), 0, seed=1)

    def test_unknown_family_rejected(self):
        with pytest.raises(NumericError, match="^unknown copula family 'frank'$"):
            sample(CopulaModel("frank", 2.0, 0.2, 0.0, 0.0), 10, seed=1)

    @pytest.mark.parametrize("family, param, message", [
        ("gaussian", 1.5, "gaussian copula requires |rho| < 1"),
        ("clayton", -0.5, "clayton copula requires theta > 0"),
        ("clayton", 0.0, "clayton copula requires theta > 0"),
        ("gumbel", 0.5, "gumbel copula requires theta >= 1"),
    ])
    def test_bad_parameter_rejected(self, family, param, message):
        with pytest.raises(NumericError, match=f"^{re.escape(message)}$"):
            sample(CopulaModel(family, param, 0.0, 0.0, 0.0), 5, seed=1)

    def test_gumbel_upper_tail_conditional(self):
        model = fit_gumbel(0.432)
        u, v = sample(model, 10_000, seed=7)
        q = 0.05
        conditional = np.mean(v[u > 1.0 - q] > 1.0 - q)
        assert conditional == pytest.approx(0.518, abs=0.08)


# At a fixed point (s, t), C_n(s, t) is a mean of LAW_N indicators, so by Hoeffding's inequality
# |C_n - C| >= LAW_EPS with probability at most 2 exp(-2 LAW_N LAW_EPS^2). Over the 19 x 19 grid
# (the union bound), a correct sampler fails one case with probability at most 1e-6, and one of
# the 17 cases below with probability at most 1.7e-5 at a fresh seed.
LAW_N = 100_000
LAW_GRID = np.arange(1, 20) / 20.0
LAW_EPS = math.sqrt(math.log(2 * LAW_GRID.size ** 2 / 1e-6) / (2 * LAW_N))
GUMBEL_THETAS = [1.0, 1.3, 1.761, 10.0, 1000.0]


def _gumbel(theta):
    return CopulaModel("gumbel", theta, 1.0 - 1.0 / theta, 0.0, 2.0 - 2.0 ** (1.0 / theta))


def _grid_gap(model, u, v):
    """The largest |C_n - C| over LAW_GRID x LAW_GRID, C_n counted directly."""
    below_u = np.searchsorted(LAW_GRID, u)  # u <= LAW_GRID[i] exactly when i >= below_u
    below_v = np.searchsorted(LAW_GRID, v)
    cells = np.bincount(below_u * 20 + below_v, minlength=400).reshape(20, 20)
    empirical = cells.cumsum(0).cumsum(1)[:19, :19] / len(u)
    s, t = np.meshgrid(LAW_GRID, LAW_GRID, indexing="ij")
    return np.max(np.abs(empirical - copula_cdf(model, s, t)))


LAW_MODELS = [
    fit_gaussian(-1.0 / 3.0), fit_gaussian(0.432), fit_gaussian(0.8),
    fit_clayton(-0.2), fit_clayton(0.2), fit_clayton(0.432), fit_clayton(0.8),
    *map(_gumbel, GUMBEL_THETAS),
]


class TestSamplerLaw:
    @pytest.mark.parametrize("case", range(len(LAW_MODELS)),
                             ids=lambda i: f"{LAW_MODELS[i].family}-{LAW_MODELS[i].param:g}")
    def test_empirical_copula_matches_the_cdf(self, case):
        u, v = sample(LAW_MODELS[case], LAW_N, seed=(31, case))
        assert _grid_gap(LAW_MODELS[case], u, v) < LAW_EPS

    @pytest.mark.parametrize("case", range(len(GUMBEL_THETAS)), ids=lambda i: f"gumbel-{GUMBEL_THETAS[i]:g}")
    def test_inversion_oracle_matches_the_cdf(self, case):
        theta = GUMBEL_THETAS[case]
        u, v = gumbel_sample_by_inversion(theta, LAW_N, seed=(32, case))
        assert _grid_gap(_gumbel(theta), u, v) < LAW_EPS


class _FixedUniforms(np.random.Generator):
    """A generator whose one uniform draw is a given (4, n) block."""

    def __init__(self, block):
        super().__init__(np.random.PCG64(0))
        self.block = block

    def uniform(self, low=0.0, high=1.0, size=None):
        assert size == self.block.shape
        return self.block.copy()


@pytest.mark.parametrize("theta", [1.0, 1.0001, 2.0, 1e3, 1e6])
def test_gumbel_pairs_stay_inside_at_extreme_uniforms(theta):
    # every assignment of 0, 1/2 and the largest double below 1 to the angle, W, E1 and E2 draws
    block = np.array(list(itertools.product([0.0, 0.5, 1.0 - 2.0 ** -53], repeat=4))).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, v = sample(_gumbel(theta), block.shape[1], _FixedUniforms(block))
    assert np.all((u > 0) & (u < 1) & (v > 0) & (v < 1))


def test_fit_family_dispatch():
    assert fit_family("gaussian", 0.3).family == "gaussian"
    assert fit_family("clayton", 0.3).family == "clayton"
    assert fit_family("gumbel", 0.3).family == "gumbel"
    with pytest.raises(NumericError):
        fit_family("frank", 0.3)


@pytest.mark.parametrize("tau", [-0.5, -0.0, 0.0, 1e-12, 0.3, float("nan")])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_fit_clamps_where_it_does_not_return_its_tau(family, tau):
    if family == "gaussian" and tau != tau:
        assert not fit_clamps(family, tau)  # the Gaussian fit rejects it
    else:
        assert fit_clamps(family, tau) == (fit_family(family, tau).tau != pytest.approx(tau))


def test_model_serialization_fields():
    d = fit_clayton(0.432).to_dict()
    assert set(d) == {"family", "param", "tau", "lambda_L", "lambda_U"}
