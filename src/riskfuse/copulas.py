"""Bivariate copulas on rank-transformed scores.

Three families, each fitted by inverting the closed-form map between the
family parameter and Kendall's tau:

    gaussian  rho = sin(pi * tau / 2)            tail-independent
    clayton   theta = 2 tau / (1 - tau)          lower-tail dependent
    gumbel    theta = max(1, 1 / (1 - tau))      upper-tail dependent

Samplers: Gaussian by correlated normals, Clayton by conditional inversion,
Gumbel by the Marshall-Olkin frailty construction, U = exp(-(E1 / S)^(1/theta))
with a positive stable frailty S drawn by Kanter's representation; all three
are closed forms. Kendall's tau and the pseudo-observations come from the
rank module and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, xlogy

from .bvn import bivariate_normal_cdf
from .errors import NumericError
from .ranks import kendall_tau, pseudo_observations  # noqa: F401  re-exported

FAMILIES = ("gaussian", "clayton", "gumbel")

CLAYTON_THETA_FLOOR = 1e-6


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


def _check_param(model: CopulaModel) -> None:
    """The family's parameter range, for a parameter or a column of them."""
    param = model.param
    if model.family == "gaussian":
        if not np.all((-1.0 < param) & (param < 1.0)):
            raise NumericError("gaussian copula requires |rho| < 1")
    elif model.family == "clayton":
        if not np.all(param > 0):
            raise NumericError("clayton copula requires theta > 0")
    elif model.family == "gumbel":
        if not np.all(param >= 1.0):
            raise NumericError("gumbel copula requires theta >= 1")
    else:
        raise NumericError(f"unknown copula family {model.family!r}")


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
    _check_param(model)
    param = model.param

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


def _clip_open(x):
    """Push values off the closed boundary so pairs stay strictly inside (0,1)."""
    return np.clip(x, 1e-300, np.nextafter(1.0, 0.0))


def sample(model: CopulaModel, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw n pairs from the fitted copula; margins are uniform on (0,1)."""
    if n <= 0:
        raise NumericError("sample size must be positive")
    _check_param(model)
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

    # gumbel (Marshall-Olkin): U = exp(-(E1 / S)^a), V = exp(-(E2 / S)^a) with a = 1 / theta and a
    # stable S of Laplace transform exp(-t^a), drawn by Kanter's formula from an angle x in (0, pi)
    # and a unit exponential W: S^a = sin(a x)^a (sin((1 - a) x) / W)^(1 - a) / sin(x). Taken in
    # logs, no power overflows at large theta; xlogy makes the (1 - a) term 0 at theta = 1.
    a = 1.0 / model.param
    angle, w, e1, e2 = _clip_open(rng.uniform(size=(4, n)))
    angle *= np.pi
    w, e1, e2 = -np.log(w), -np.log(e1), -np.log(e2)
    a_log_s = a * np.log(np.sin(a * angle)) + xlogy(1.0 - a, np.sin((1.0 - a) * angle) / w) - np.log(np.sin(angle))
    u = np.exp(-np.exp(a * np.log(e1) - a_log_s))
    v = np.exp(-np.exp(a * np.log(e2) - a_log_s))
    return _clip_open(u), _clip_open(v)
