import math

import numpy as np
import pytest

from riskfuse.bvn import _bvnu_moderate, bivariate_normal_cdf
from riskfuse.errors import NumericError

from oracles import bvn_quad, bvnu_moderate_pointwise


def PHI(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_zero_correlation_factorizes():
    assert bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)
    x, y = 0.7, -1.3
    expected = float(PHI(x) * PHI(y))
    assert bivariate_normal_cdf(x, y, 0.0) == pytest.approx(expected, abs=1e-10)


def test_origin_closed_form():
    # Pr(Z1<=0, Z2<=0) = 1/4 + arcsin(rho)/(2 pi)
    for rho in (0.628, -0.45, 0.95, 0.1):
        expected = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
        assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-10)


def test_deep_tail_is_zero():
    assert bivariate_normal_cdf(-8.0, 0.0, 0.5) <= 1e-12


def test_symmetry_exact():
    for x, y, r in ((1.3, -0.4, 0.7), (0.2, 2.2, -0.95), (-1.0, -1.0, 0.3)):
        assert bivariate_normal_cdf(x, y, r) == bivariate_normal_cdf(y, x, r)


def test_marginal_limit():
    for x in (-1.5, 0.0, 2.0):
        assert bivariate_normal_cdf(x, np.inf, 0.6) == pytest.approx(float(PHI(x)), abs=1e-7)
        assert bivariate_normal_cdf(x, 37.0, 0.6) == pytest.approx(float(PHI(x)), abs=1e-7)
    assert bivariate_normal_cdf(-np.inf, 1.0, 0.2) == 0.0
    assert bivariate_normal_cdf(np.inf, np.inf, 0.2) == 1.0


def test_invalid_correlation_rejected():
    with pytest.raises(NumericError):
        bivariate_normal_cdf(0.0, 0.0, 1.0)
    with pytest.raises(NumericError):
        bivariate_normal_cdf(0.0, 0.0, -1.2)


def test_vectorized_matches_scalar(rng):
    xs = rng.uniform(-3, 3, 40)
    ys = rng.uniform(-3, 3, 40)
    vec = bivariate_normal_cdf(xs, ys, 0.628)
    for i in range(40):
        assert vec[i] == bivariate_normal_cdf(xs[i], ys[i], 0.628)


def test_adaptive_integration_oracle(rng):
    # spot check across both quadrature regimes; the full 100-point sweep
    # runs in the acceptance suite
    for _ in range(12):
        x, y = rng.uniform(-4, 4, 2)
        r = rng.uniform(-0.99, 0.99)
        assert bivariate_normal_cdf(x, y, r) == pytest.approx(bvn_quad(x, y, r), abs=1e-7)


@pytest.mark.parametrize("n", [2, 3, 7, 16, 17, 150, 300, 765, 1783, 1999])
def test_moderate_nodes_per_distinct_rho_match_pointwise(n):
    rng = np.random.default_rng(n)
    h, k = rng.uniform(-4, 4, (2, n))
    for rho in np.linspace(-0.92, 0.92, 20):
        r = np.full(n, rho)
        assert np.array_equal(_bvnu_moderate(h, k, r), bvnu_moderate_pointwise(h, k, r))
    r = rng.choice(np.linspace(-0.92, 0.92, 7), n)
    assert np.array_equal(_bvnu_moderate(h, k, r), bvnu_moderate_pointwise(h, k, r))
