"""Bivariate copulas on rank-transformed scores.

Three families, each fitted by inverting the closed-form map between the
family parameter and Kendall's tau:

    gaussian  rho = sin(pi * tau / 2)            tail-independent
    clayton   theta = 2 tau / (1 - tau)          lower-tail dependent
    gumbel    theta = max(1, 1 / (1 - tau))      upper-tail dependent

Samplers: Gaussian by correlated normals, Clayton by conditional inversion,
Gumbel through its Archimedean generator with a root solve of the inner
distribution function. Kendall's tau and the pseudo-observations come from
the rank module and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .bvn import bivariate_normal_cdf
from .errors import NumericError
from .ranks import kendall_tau, pseudo_observations  # noqa: F401  re-exported

FAMILIES = ("gaussian", "clayton", "gumbel")

CLAYTON_THETA_FLOOR = 1e-6

_GUMBEL_ROOT_TOL = 1e-12
_GUMBEL_ROOT_LO = 1e-12
_GUMBEL_ROOT_HI = 1.0 - 1e-12


@dataclass(frozen=True)
class CopulaModel:
    """A fitted family with its parameter and derived dependence summaries."""

    family: str
    param: float
    tau: float
    lambda_lower: float
    lambda_upper: float

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "param": self.param,
            "tau": self.tau,
            "lambda_L": self.lambda_lower,
            "lambda_U": self.lambda_upper,
        }


def fit_gaussian(tau: float) -> CopulaModel:
    if not -1.0 < tau < 1.0:
        raise NumericError("gaussian fit requires |tau| < 1")
    rho = float(np.sin(np.pi * tau / 2.0))
    return CopulaModel("gaussian", rho, tau, 0.0, 0.0)


def fit_clamps(family: str, tau: float) -> bool:
    """Whether the fit of ``family`` at ``tau`` pins its parameter at a bound
    instead of inverting tau: Clayton at tau <= 0 (theta held at
    ``CLAYTON_THETA_FLOOR``) and Gumbel at tau < 0 (theta 1, independence).
    The Gaussian never clamps."""
    return family == "clayton" and not tau > 0 or family == "gumbel" and not tau >= 0


def fit_clayton(tau: float) -> CopulaModel:
    if tau >= 1.0:
        raise NumericError("clayton fit requires tau < 1")
    theta = CLAYTON_THETA_FLOOR if fit_clamps("clayton", tau) else 2.0 * tau / (1.0 - tau)
    return CopulaModel("clayton", float(theta), theta / (theta + 2.0), float(2.0 ** (-1.0 / theta)), 0.0)


def fit_gumbel(tau: float) -> CopulaModel:
    if tau >= 1.0:
        raise NumericError("gumbel fit requires tau < 1")
    theta = 1.0 if fit_clamps("gumbel", tau) else 1.0 / (1.0 - tau)
    return CopulaModel("gumbel", float(theta), 1.0 - 1.0 / theta, 0.0, float(2.0 - 2.0 ** (1.0 / theta)))


def fit_family(family: str, tau: float) -> CopulaModel:
    if family == "gaussian":
        return fit_gaussian(tau)
    if family == "clayton":
        return fit_clayton(tau)
    if family == "gumbel":
        return fit_gumbel(tau)
    raise NumericError(f"unknown copula family {family!r}")


def _clayton_cdf(u, v, theta):
    # 1 + (u^-t - 1) + (v^-t - 1), assembled from expm1 so tiny theta stays exact
    s = np.expm1(-theta * np.log(u)) + np.expm1(-theta * np.log(v))
    return np.exp(-np.log1p(s) / theta)


# numpy answers x ** 2.0, x ** 0.5 and x ** -1.0 by square, sqrt and reciprocal, not pow
_FAST_EXPONENTS = (2.0, 0.5, -1.0)


def _power(x, p):
    """x ** p for a float p, or a column p of one exponent per row of x.

    Each row gets the bits of ``x[row] ** float(p[row])``: pow differs from
    numpy's shortcuts in the last bit, so rows with such an exponent are
    raised one at a time.
    """
    out = x ** p
    if np.ndim(p):
        for row in np.flatnonzero(np.isin(p[:, 0], _FAST_EXPONENTS)):
            out[row] = x[row] ** float(p[row, 0])
    return out


def _gumbel_cdf(u, v, theta):
    a = -np.log(u)
    b = -np.log(v)
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    inner = hi * _power(1.0 + _power(lo / hi, theta), 1.0 / theta)
    return np.exp(-inner)


def copula_cdf(model: CopulaModel, u, v):
    """C(u, v) for the fitted family; boundaries take their exact limits.

    ``model.param`` may also be a column of parameters, one per row of
    (rows, n) arrays u and v, so a block of bootstrap replicates is scored in
    one call; only the family and the parameter are read.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any((u < 0) | (u > 1) | (v < 0) | (v > 1)):
        raise NumericError("copula arguments must lie in [0, 1]")
    param = model.param
    if model.family == "gaussian":
        if not np.all((-1.0 < param) & (param < 1.0)):
            raise NumericError("gaussian copula requires |rho| < 1")
    elif model.family == "clayton":
        if np.any(param <= 0):
            raise NumericError("clayton copula requires theta > 0")
    elif model.family == "gumbel":
        if np.any(param < 1.0):
            raise NumericError("gumbel copula requires theta >= 1")
    else:
        raise NumericError(f"unknown copula family {model.family!r}")

    u, v = np.broadcast_arrays(u, v)
    zero = (u == 0.0) | (v == 0.0)
    u_one = (v == 1.0) & ~zero
    v_one = (u == 1.0) & ~zero & ~u_one
    interior = ~(zero | u_one | v_one)
    # the family formula runs on every point so that a block keeps its rows;
    # boundary points are evaluated at (1/2, 1/2) and replaced by their limits
    ui = np.where(interior, u, 0.5)
    vi = np.where(interior, v, 0.5)
    if model.family == "gaussian":
        vals = bivariate_normal_cdf(ndtri(ui), ndtri(vi), param)
    elif model.family == "clayton":
        vals = _clayton_cdf(ui, vi, param)
    else:
        vals = _gumbel_cdf(ui, vi, param)

    # Frechet-Hoeffding envelope; round-off in the family formulas never escapes it
    vals = np.clip(vals, np.maximum(ui + vi - 1.0, 0.0), np.minimum(ui, vi))
    out = np.where(zero, 0.0, np.where(u_one, u, np.where(v_one, v, vals)))
    return float(out) if out.ndim == 0 else out


def _solve_gumbel_inner(t, theta):
    """Solve K(w) = w - w ln(w) / theta = t on (0, 1), vectorized hybrid
    Newton / bisection with bracket maintenance."""
    t = np.asarray(t, dtype=float)
    lo = np.full(t.shape, _GUMBEL_ROOT_LO)
    hi = np.full(t.shape, _GUMBEL_ROOT_HI)

    def K(w):
        return w - w * np.log(w) / theta

    # clamp targets into the reachable range of K on the bracket
    t = np.clip(t, K(lo), K(hi))
    w = np.clip(t, lo, hi)
    for _ in range(100):
        log_w = np.log(w)
        f = w - w * log_w / theta - t
        lo = np.where(f < 0, w, lo)
        hi = np.where(f > 0, w, hi)
        deriv = 1.0 - (log_w + 1.0) / theta
        step = f / deriv
        w_new = w - step
        bad = (w_new <= lo) | (w_new >= hi) | ~np.isfinite(w_new)
        w_new = np.where(bad, 0.5 * (lo + hi), w_new)
        done = np.abs(w_new - w) <= _GUMBEL_ROOT_TOL
        w = w_new
        if done.all():
            break
    return w


def _clip_open(x):
    """Push values off the closed boundary so pairs stay strictly inside (0,1)."""
    return np.clip(x, 1e-300, np.nextafter(1.0, 0.0))


def sample(model: CopulaModel, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs from the fitted copula; margins are uniform on (0,1)."""
    if n <= 0:
        raise NumericError("sample size must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    if model.family == "gaussian":
        rho = model.param
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
        return _clip_open(ndtr(z1)), _clip_open(ndtr(z2))

    if model.family == "clayton":
        theta = model.param
        u = rng.uniform(size=n)
        w = rng.uniform(size=n)
        # conditional quantile V | U inverted in closed form, log-domain
        inner = np.exp(-theta * np.log(u)) * np.expm1(-theta / (1.0 + theta) * np.log(w))
        v = np.exp(-np.log1p(inner) / theta)
        return _clip_open(u), _clip_open(v)

    if model.family == "gumbel":
        theta = model.param
        s = rng.uniform(size=n)
        t = rng.uniform(size=n)
        w = _solve_gumbel_inner(t, theta)
        log_w = np.log(w)
        u = np.exp(s ** (1.0 / theta) * log_w)
        v = np.exp((1.0 - s) ** (1.0 / theta) * log_w)
        return _clip_open(u), _clip_open(v)

    raise NumericError(f"unknown copula family {model.family!r}")
