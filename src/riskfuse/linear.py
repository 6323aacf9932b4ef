"""Elastic-net penalized logistic regression fit by coordinate descent.

Minimizes mean logistic loss + lam * (alpha * ||w||_1 + (1 - alpha)/2 * ||w||_2^2)
with an unpenalized intercept, via iteratively reweighted least squares with
cyclic coordinate updates on the working response.

The coordinate updates use glmnet's covariance updates (Friedman, Hastie &
Tibshirani 2010, J. Stat. Softw. 33(1), section 2.2). Each IRLS step builds
the p x p weighted Gram matrix G = X'WX / n and q = X'(y - p) / n (X'W times
the working residual, over n) once; a visit to coordinate j reads q[j], and a
move of size d updates q by -d * G[:, j], so a visit costs O(p) instead of
O(n) and the working residual is never formed. The residual-update solver
this replaced (the test oracle in tests/oracles.py) sums in another order, so
out-of-fold probabilities, and the strata medians taken from them, differ
from it in their last bits while every selection is the same.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NumericError

_WEIGHT_FLOOR = 1e-5  # curvature floor keeps the working response finite


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class ElasticNetLogistic:
    """Logistic regression with combined L1/L2 penalty.

    lam="auto" picks the penalty from a log-spaced grid by inner stratified
    cross-validation at fit time (see scoring.fit_model); here lam must be a
    number.
    """

    def __init__(self, *, lam, alpha, max_iter, tol):
        if lam < 0:
            raise NumericError("penalty lam must be nonnegative")
        if not 0.0 <= alpha <= 1.0:
            raise NumericError("alpha must lie in [0, 1]")
        self.lam = float(lam)
        self.alpha = float(alpha)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.coef_ = None
        self.intercept_ = 0.0
        self.converged_ = False
        self.n_iter_ = 0

    def _objective(self, X, y, w, b):
        z = X @ w + b
        # log(1 + exp(-m)) with m = z for y=1, -z for y=0, stably
        m = np.where(y == 1, z, -z)
        loss = float(np.mean(np.logaddexp(0.0, -m)))
        pen = self.lam * (self.alpha * np.abs(w).sum() + 0.5 * (1 - self.alpha) * (w @ w))
        return loss + pen

    def fit(self, X, y, start=None):
        """Fit from ``start = (coef, intercept)``, or from zero coefficients and
        the prevalence intercept when ``start`` is None."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, p = X.shape
        if start is None:
            w = np.zeros(p)
            prev = float(np.clip(np.mean(y), 1e-12, 1 - 1e-12))
            b = float(np.log(prev / (1 - prev)))
        else:
            w = np.array(start[0], dtype=float)
            b = float(start[1])

        obj = self._objective(X, y, w, b)
        best_obj, best_w, best_b = obj, w.copy(), b
        w = w.tolist()
        sweeps = 0
        self.converged_ = False
        l1 = self.lam * self.alpha
        l2 = self.lam * (1 - self.alpha)

        while sweeps < self.max_iter:
            z = X @ np.array(w) + b
            pvec = _sigmoid(z)
            wt = np.clip(pvec * (1 - pvec), _WEIGHT_FLOOR, None)
            # covariance updates: instead of the working residual r = (y - p) / W,
            # keep q = X'W r / n and s = sum(W r) current through G = X'WX / n
            # and c = X'W 1 / n
            resid = y - pvec
            xs = np.sqrt(wt)[:, None] * X
            G = xs.T @ xs / n
            q = X.T @ resid / n
            col_sums = wt @ X
            c = col_sums / n
            s = float(np.sum(resid))
            swt = float(np.sum(wt))
            gdiag = G.diagonal().tolist()
            denoms = [g + l2 for g in gdiag]
            rows = list(G)  # G is symmetric: row j is column j
            nc = col_sums.tolist()

            # a few cyclic sweeps on the current quadratic approximation
            for _ in range(5):
                sweeps += 1
                delta = 0.0
                for j in range(p):
                    wj = w[j]
                    rho = q.item(j) + gdiag[j] * wj
                    denom = denoms[j]
                    shrunk = abs(rho) - l1
                    new = 0.0 if denom == 0.0 or shrunk <= 0.0 else math.copysign(shrunk, rho) / denom
                    if new != wj:
                        step = new - wj
                        q -= rows[j] * step
                        s -= nc[j] * step
                        delta = max(delta, abs(step))
                        w[j] = new
                db = s / swt
                if db != 0.0:
                    b += db
                    q -= c * db
                    s -= db * swt
                    delta = max(delta, abs(db))
                if delta < 1e-12 or sweeps >= self.max_iter:
                    break

            w_arr = np.array(w)
            new_obj = self._objective(X, y, w_arr, b)
            if new_obj < best_obj:
                best_obj, best_w, best_b = new_obj, w_arr, b
            rel = abs(obj - new_obj) / max(1.0, abs(obj))
            obj = new_obj
            if rel < self.tol:
                self.converged_ = True
                break

        if not self.converged_:
            warnings.warn("elastic-net logistic regression did not converge; returning best iterate")
        self.coef_ = best_w
        self.intercept_ = best_b
        self.n_iter_ = sweeps
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return _sigmoid(X @ self.coef_ + self.intercept_)


def lambda_grid(X, y, alpha, n_points):
    """Log-spaced penalty grid from the smallest all-zero lam down 3 decades."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    resid = y - y.mean()
    lam_max = float(np.max(np.abs(X.T @ resid)) / (n * max(alpha, 1e-3)))
    lam_max = max(lam_max, 1e-6)
    return np.geomspace(lam_max, lam_max * 1e-3, n_points)
