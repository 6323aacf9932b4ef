import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskfuse.copulas import fit_gaussian, kendall_tau, pseudo_observations, sample
from riskfuse.errors import DataError
from riskfuse.gof import empirical_copula, parametric_bootstrap
from riskfuse.ranks import _MERGE_BLOCK, average_ranks, rank_pass

from oracles import average_ranks_brute, empirical_copula_brute, tau_brute


def tied_sample(seed, n):
    """Integer margins with heavy ties, copied identical pairs and, at times, a constant column."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, rng.integers(1, 9), n).astype(float)
    v = rng.integers(0, rng.integers(1, 9), n).astype(float)
    copies = rng.integers(0, n, size=(n // 4, 2))
    u[copies[:, 0]] = u[copies[:, 1]]
    v[copies[:, 0]] = v[copies[:, 1]]
    return rng, u, v


class TestSamplePointCopula:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 600))
    def test_matches_pairwise_path_and_brute_force(self, seed, n):
        rng, u, v = tied_sample(seed, n)
        at_samples = empirical_copula(u, v, u, v)
        assert np.array_equal(at_samples, rank_pass(u, v).dominance / n)
        # tied integer queries inside and just outside the sample's range, plus copies of sample points
        k = int(max(u.max(), v.max()))
        picks = rng.integers(0, n, 40)
        qu = np.concatenate([rng.integers(-1, k + 2, 60), u[picks]]).astype(float)
        qv = np.concatenate([rng.integers(-1, k + 2, 60), v[picks]]).astype(float)
        matrix = ((u[:, None] <= qu[None, :]) & (v[:, None] <= qv[None, :])).sum(axis=0) / n
        assert np.array_equal(empirical_copula(u, v, qu, qv), matrix)
        for i in rng.choice(n, size=min(n, 25), replace=False):
            assert at_samples[i] == empirical_copula_brute(u, v, u[i], v[i])

    def test_dominance_counts_include_the_point_and_its_copies(self):
        u = np.array([1.0, 1.0, 1.0, 0.0])
        v = np.array([2.0, 2.0, 1.0, 3.0])
        assert rank_pass(u, v).dominance.tolist() == [3, 3, 1, 1]


class TestTauAboveBlockSize:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(_MERGE_BLOCK + 1, 10 * _MERGE_BLOCK))
    def test_variants_match_pairwise_enumeration(self, seed, n):
        _, u, v = tied_sample(seed, n)
        assert kendall_tau(u, v) == pytest.approx(tau_brute(u, v), abs=1e-12)


class TestAverageRanks:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300))
    def test_equals_tied_block_walk(self, seed, n):
        x = np.random.default_rng(seed).integers(0, 10, n).astype(float)
        assert np.array_equal(average_ranks(x), average_ranks_brute(x))


class TestRowsOfABlock:
    """Each row of a (rows, n) block gets exactly what a 1-D call on that row gets."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 300))
    def test_rows_match_one_dimensional_calls(self, seed, rows, n):
        # tied rows with copied identical pairs, then one row tied throughout in both margins
        u, v = np.array([tied_sample(seed + r, n)[1:] for r in range(rows + 1)]).transpose(1, 0, 2)
        u[-1], v[-1] = 2.0, 5.0
        ranks = rank_pass(u, v)
        for r in range(rows + 1):
            assert np.array_equal(average_ranks(u)[r], average_ranks(u[r]))
            one = rank_pass(u[r], v[r])
            assert np.array_equal(ranks.dominance[r], one.dominance)
            assert [ranks.discordant[r], ranks.ties_u[r], ranks.ties_v[r], ranks.ties_uv[r]] == list(one[1:5])
            assert np.array_equal(one.ranks_u, average_ranks(u[r])) and np.array_equal(one.ranks_v, average_ranks(v[r]))
            assert np.array_equal(ranks.ranks_u[r], one.ranks_u) and np.array_equal(ranks.ranks_v[r], one.ranks_v)
            if n >= 2:
                assert ranks.tau()[r] == one.tau()

    def test_two_identical_pairs(self):
        u = np.array([[0.3, 0.3], [0.1, 0.7]])
        v = np.array([[0.6, 0.6], [0.9, 0.2]])
        ranks = rank_pass(u, v)
        assert ranks.dominance.tolist() == [[2, 2], [1, 1]]
        assert ranks.discordant.tolist() == [0, 1]
        assert ranks.ties_uv.tolist() == [1, 0]
        assert ranks.tau().tolist() == [0.0, -1.0]


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rank_consumers_raise_data_error(self, bad):
        x = np.array([0.1, 0.5, bad, 0.3])
        y = np.array([0.2, 0.4, 0.6, 0.8])
        for call in (
            lambda: pseudo_observations(x),
            lambda: rank_pass(x, y),
            lambda: rank_pass(y, x),
            lambda: kendall_tau(y, x),
            lambda: empirical_copula(x, y, 0.5, 0.5),
            lambda: empirical_copula(y, y, x, 0.5),
        ):
            with pytest.raises(DataError, match="finite"):
                call()


# Recorded from the pairwise empirical copula and the np.unique tie counts that
# the rank pass replaced; the bootstrap must reproduce them bit for bit. The
# gaussian entry was re-recorded when the bivariate normal CDF moved from
# Gauss-Legendre quadrature to Owen's T: its statistics moved in the last bits. The
# gumbel replicates were re-recorded when its sampler moved from a root solve of the
# Archimedean K function to the stable-frailty draw: new draws from the same law.
# All three were re-recorded when cvm_statistic began summing its squared gaps in
# increasing order: some statistics moved in their last bit, no p-value moved.
FROZEN_BOOTSTRAP = {
    "gaussian": (0.00018988300377615003, 0.14285714285714285, [
        7.044841645984159e-05, 7.028667719750311e-05, 0.00013657755212955405, 0.00013010350689206867,
        0.00011273027639522948, 9.942597484837588e-05, 9.785899533747028e-05, 8.504685124079218e-05,
        0.0001394384178701031, 0.00023775837952134092, 0.00015189945726978146, 0.00014401584793879865,
        8.473822076687042e-05, 0.00010135189051562198, 8.968236503168852e-05, 7.606682057458507e-05,
        0.0001704697881368079, 0.00010794416561112535, 0.00010813485504279256, 0.00020316225584079137]),
    "clayton": (0.000497351222092873, 0.047619047619047616, [
        0.00019237569611519598, 0.00011171966769005946, 0.00017840804789029637, 9.43425359143038e-05,
        0.00013572475690266253, 0.00010873087287904241, 0.00015925067876615854, 5.301552144689422e-05,
        0.00010461994426391269, 0.00022203628978763272, 0.00013136757664101555, 0.00014442220636043612,
        0.00014260965927303805, 9.535221212250949e-05, 8.4729157854375e-05, 0.00010887160036067706,
        0.00011839109964919247, 7.534532679769954e-05, 0.00016287109084595934, 9.530919751108826e-05]),
    "gumbel": (0.0001959815398742901, 0.09523809523809523, [
        7.653085900719993e-05, 0.0001769224137573893, 0.00010360342169275684, 0.00010449581506522441,
        8.533810630014198e-05, 9.187283914924432e-05, 0.000189593014849972, 0.0001677518916424013,
        9.019062901963418e-05, 0.00014194127723499717, 0.00014299959441409443, 0.0001331634561525816,
        0.00010308898983540231, 0.00014864591986385976, 8.744153212025092e-05, 0.0001461052871071627,
        0.0001610850771241019, 0.00011185361478740675, 0.00022868543397728692, 0.00013323057042421708]),
}


@pytest.mark.parametrize("family", sorted(FROZEN_BOOTSTRAP))
def test_bootstrap_replicates_frozen(family):
    x, y = sample(fit_gaussian(0.4), 150, seed=11)
    u = pseudo_observations(np.round(x, 2))  # tied observed margins
    v = pseudo_observations(np.round(y, 2))
    res = parametric_bootstrap(u, v, family, n_boot=20, replicate_size=None, seed=7, refit=True)
    statistic, p_value, replicates = FROZEN_BOOTSTRAP[family]
    assert res.statistic == statistic
    assert res.p_value == p_value
    assert np.array_equal(res.replicates, replicates)
