import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskfuse.bvn import bivariate_normal_cdf
from riskfuse.errors import NumericError

from oracles import bvn_genz, bvn_quad


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
    # spot check over moderate and strong correlations; the full 100-point sweep
    # runs in the acceptance suite
    for _ in range(12):
        x, y = rng.uniform(-4, 4, 2)
        r = rng.uniform(-0.99, 0.99)
        assert bivariate_normal_cdf(x, y, r) == pytest.approx(bvn_quad(x, y, r), abs=1e-7)


def test_rows_with_one_correlation_each_match_one_call_per_row():
    rng = np.random.default_rng(5)
    rho = np.array([-0.99, -0.93, -0.5, 0.0, 0.3, 0.924, 0.925, 0.97])[:, None]
    x, y = rng.uniform(-4, 4, (2, len(rho), 37))
    x[1, 3], y[2, 5], x[6, 0], y[6, 0] = np.inf, -np.inf, np.inf, np.inf
    block = bivariate_normal_cdf(x, y, rho)
    for row in range(len(rho)):
        assert np.array_equal(block[row], bivariate_normal_cdf(x[row], y[row], rho[row, 0]))


def test_nan_correlation_rejected():
    with pytest.raises(NumericError, match=r"\|rho\| < 1"):
        bivariate_normal_cdf(0.0, 0.0, np.nan)
    with pytest.raises(NumericError, match=r"\|rho\| < 1"):
        bivariate_normal_cdf([0.0, 0.5], [1.0, -0.5], [0.3, np.nan])


# Phi2(x, y; rho) by one-dimensional integration in mpmath at 40 digits
REFERENCE = [
    (0.3, -1.2, 0.5, 0.10364661613573979704),
    (-2.0, -1.5, -0.7, 2.0362502513791131957e-7),
    (1.5, 2.5, 0.95, 0.93318928355236612394),
    (-0.5, -0.4995, 0.999999, 0.30841462134146861529),
    (0.8, -0.8, -0.9999, 0.0016344144682826729388),
    (-3.0, 4.0, 0.1, 0.0013498887865459606539),
    (0.0, 1.0, -0.925, 0.34155863888073521423),
    (-6.0, -6.5, 0.8, 5.3052788747361252569e-12),
]


@pytest.mark.parametrize("x, y, rho, expected", REFERENCE)
def test_reference_values(x, y, rho, expected):
    assert bivariate_normal_cdf(x, y, rho) == pytest.approx(expected, rel=0, abs=2e-14)


@pytest.mark.parametrize("y", [-1.0, 0.0, 1.0, np.inf, -np.inf])
@pytest.mark.parametrize("rho", [-0.6, 0.0, 0.6])
def test_negative_zero_is_zero(y, rho):
    assert bivariate_normal_cdf(-0.0, y, rho) == bivariate_normal_cdf(0.0, y, rho)
    assert bivariate_normal_cdf(y, -0.0, rho) == bivariate_normal_cdf(y, 0.0, rho)


EDGE = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, np.inf, -np.inf])
RHO_MAX = 1.0 - 1e-6


@st.composite
def bvn_points(draw):
    x = draw(st.one_of(st.floats(-10.0, 10.0), EDGE))
    rho = draw(st.one_of(st.floats(0.0, RHO_MAX), st.floats(0.999, RHO_MAX), st.sampled_from([0.925, RHO_MAX])))
    rho *= draw(st.sampled_from([1.0, -1.0]))
    if np.isfinite(x) and draw(st.booleans()):  # next to the diagonal y = rho x
        y = rho * x + draw(st.floats(-1e-3, 1e-3))
    else:
        y = draw(st.one_of(st.floats(-10.0, 10.0), EDGE))
    return x, y, rho


@settings(max_examples=400, deadline=None)
@given(bvn_points())
def test_matches_the_quadrature_kernel(point):
    x, y, rho = point
    assert abs(bivariate_normal_cdf(x, y, rho) - float(bvn_genz(x, y, rho))) <= 1e-13
