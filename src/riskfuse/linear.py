"""Elastic-net penalized logistic regression fit by coordinate descent.

Minimizes mean logistic loss + lam * (alpha * ||w||_1 + (1 - alpha)/2 * ||w||_2^2)
with an unpenalized intercept, via iteratively reweighted least squares with
cyclic coordinate updates on the working response.
"""

from __future__ import annotations

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


def _soft_threshold(x, t):
    return np.sign(x) * max(abs(x) - t, 0.0)


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
        sweeps = 0
        self.converged_ = False
        l1 = self.lam * self.alpha
        l2 = self.lam * (1 - self.alpha)

        while sweeps < self.max_iter:
            z = X @ w + b
            pvec = _sigmoid(z)
            wt = np.clip(pvec * (1 - pvec), _WEIGHT_FLOOR, None)
            zwork = z + (y - pvec) / wt
            wtX = wt[:, None] * X
            wx2 = (wtX * X).mean(axis=0)
            swt = float(np.sum(wt))
            r = zwork - z  # residual of the working response

            # a few cyclic sweeps on the current quadratic approximation
            for _ in range(5):
                sweeps += 1
                delta = 0.0
                for j in range(p):
                    rho = float(wtX[:, j] @ r) / n + wx2[j] * w[j]
                    denom = wx2[j] + l2
                    new = 0.0 if denom == 0.0 else _soft_threshold(rho, l1) / denom
                    if new != w[j]:
                        r -= X[:, j] * (new - w[j])
                        delta = max(delta, abs(new - w[j]))
                        w[j] = new
                db = float(wt @ r) / swt
                if db != 0.0:
                    b += db
                    r -= db
                    delta = max(delta, abs(db))
                if delta < 1e-12 or sweeps >= self.max_iter:
                    break

            new_obj = self._objective(X, y, w, b)
            if new_obj < best_obj:
                best_obj, best_w, best_b = new_obj, w.copy(), b
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
