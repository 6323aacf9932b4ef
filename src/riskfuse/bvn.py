"""Bivariate standard normal CDF in closed form through Owen's T function.

Owen (1956, Ann. Math. Statist. 27(4)) writes Pr(Z1 <= x, Z2 <= y) for
correlation rho as Phi(x)/2 + Phi(y)/2 - T(x, a_x) - T(y, a_y) - beta, where
a_x = (y - rho x) / (x sqrt(1 - rho^2)), a_y is a_x with x and y swapped, and
beta = 1/2 when x and y lie on opposite sides of zero (x < 0 <= y for x <= y),
else 0. ``scipy.special.owens_t`` evaluates T (Patefield & Tandy 2000, J.
Stat. Softw. 5(5)) to about double precision. At x = y = 0 both a's are 0/0
and the value is 1/4 + arcsin(rho) / (2 pi); infinite arguments take the
univariate marginal limits.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import NumericError


def bivariate_normal_cdf(x, y, rho):
    """Pr(Z1 <= x, Z2 <= y) for standard bivariate normal correlation rho.

    Accepts scalars or broadcastable arrays; +-inf arguments take their
    marginal limits. rho must lie strictly inside (-1, 1).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.abs(rho) < 1.0):
        raise NumericError("correlation must satisfy |rho| < 1")
    if np.any(np.isnan(x)) or np.any(np.isnan(y)):
        raise NumericError("arguments must not be NaN")

    # the canonical order x <= y keeps the function exactly symmetric; the
    # signs pick beta and the sign of a zero's a, so + 0.0 turns -0.0 into 0.0
    x, y = np.minimum(x, y) + 0.0, np.maximum(x, y) + 0.0
    lo = np.isneginf(x)
    hi = np.isposinf(y) & ~lo
    origin = (x == 0.0) & (y == 0.0)
    # the closed form runs on every point; these take their values afterwards
    fill = lo | hi | origin
    xf = np.where(fill, 1.0, x)
    yf = np.where(fill, 1.0, y)
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    # a_x as (y / x - rho) / s: a zero or subnormal x gives +-inf, never 0/0
    with np.errstate(divide="ignore", over="ignore"):
        ax = (yf / xf - rho) / s
        ay = (xf / yf - rho) / s
    beta = np.where((xf < 0.0) & (yf >= 0.0), 0.5, 0.0)
    out = 0.5 * (ndtr(xf) + ndtr(yf)) - owens_t(xf, ax) - owens_t(yf, ay) - beta
    out = np.where(origin, 0.25 + np.arcsin(rho) / (2.0 * np.pi), out)
    out = np.clip(np.where(lo, 0.0, np.where(hi, ndtr(x), out)), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out
