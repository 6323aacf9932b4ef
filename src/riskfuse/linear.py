"""Elastic-net penalized logistic regression fit by proximal Newton steps.

Minimizes mean logistic loss + lam * (alpha * ||w||_1 + (1 - alpha)/2 * ||w||_2^2)
with an unpenalized intercept. Each Newton step replaces the loss by its
quadratic model at the current v0 = (b, w), as IRLS does, and minimizes that
penalized quadratic exactly:

    min over v = (b, w) of  1/2 v'Qv - c'v + lam * alpha * ||w||_1,

where H = A'WA / n is the Gram matrix of A = [1 X] (the intercept's column
borders X) weighted by W = p(1 - p) at v0, Q is H plus lam * (1 - alpha) on
the w diagonal, and c = A'(y - p) / n + H v0. This is glmnet's quadratic model
(Friedman, Hastie & Tibshirani 2010, J. Stat. Softw. 33(1)), solved by
feature-sign search (Lee, Battle, Raina & Ng, NIPS 19, 2007) instead of
coordinate sweeps: fix the signs of the nonzero coefficients, solve that
active block's linear system, stop at the first sign change on the way there,
and activate the zero coefficient that violates its optimality condition
most. A proximal term, _DAMPING/2 * sum_j Q_jj (v_j - v0_j)^2, keeps every
active block nonsingular when its columns are collinear or, under the lasso,
outnumber the rows; it changes the steps, not the points where they stop. A
column that is all zero and has no ridge term keeps a zero coefficient.
A fit and lambda_grid check their input with errors.check_training_data.

Proximal Newton needs step-size control to converge from any start (Lee, Sun
& Saunders 2014, SIAM J. Optim. 24(3)): when the step's minimizer raises the
objective by more than _RISE_TOL of max(1, objective), the step is halved
until it does not. Without that, a near-separable fit's full steps overshoot
until every probability rounds to 0 or 1. A fit stops as not converged when
_MAX_HALVINGS halvings do not help, or when every weight p(1 - p) of a column
the step would move has vanished, which leaves the quadratic model without a
unique minimum.

A fit converges when the objective's relative change falls below ``tol`` and
its largest violation of the optimality (KKT) conditions, in units of the
column's root mean square where that exceeds 1, falls below _KKT_TOL;
``max_iter`` counts Newton steps. Two solvers that meet that bound agree to
about 1e-10 in probability (see the oracle test in tests/test_models.py).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericError, check_training_data

_KKT_TOL = 1e-12  # largest optimality-condition violation of a converged fit, in column scales
_DAMPING = 1e-10  # each step's proximal term, relative to Q's diagonal
_RISE_TOL = 1e-14  # largest objective rise a step may make by rounding, relative to max(1, objective)
_MAX_HALVINGS = 50  # step halvings before a fit stops as not converged
_MODEL = "elastic-net logistic regression"  # the name its errors and warnings give


def _sigmoid(z):
    e = np.exp(np.minimum(z, -z))  # exp(-|z|), which keeps a NaN's bits
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _kkt_residual(grad, v, l1, l2, scale):
    """Largest violation of the optimality conditions at v = (b, w), given the
    loss's negative gradient grad = [1 X]'(y - p) / n there: grad[0] is zero,
    and each grad[j] lies within l1 of zero where w is zero and equals
    l2 * w + l1 * sign(w) where it is not. Each violation is divided by its
    column's scale, so that a column on a large scale, whose gradient rounds
    in proportion, can still meet the bound."""
    w, gw = v[1:], grad[1:]
    viol = np.where(w == 0.0, np.abs(gw) - l1, np.abs(gw - l2 * w - l1 * np.sign(w)))
    return max(abs(float(grad[0])), float((viol / scale[1:]).max(initial=0.0)))


def _feature_sign(Q, c, l1, x):
    """Minimize 1/2 x'Qx - c'x + l1 * ||x[1:]||_1 by feature-sign search from x.

    Q is symmetric positive definite and x[0] is unpenalized. Each round
    solves the active block with its coefficients' signs fixed. If a sign
    would change, the round stops at the first zero crossing and drops that
    coefficient; otherwise it takes the solution, and the next round first
    activates the zero coefficient that violates its optimality condition
    most, with the sign that lowers the objective. The search ends when no
    zero coefficient violates its condition.
    """
    x = x.copy()
    active = x != 0.0
    active[0] = True
    theta = np.sign(x)  # the signs the active block's solve assumes
    theta[0] = 0.0
    settled = False  # whether x solves the active block with these signs
    for _ in range(4 * len(x)):  # the search is finite; the bound only stops a cycle of rounding errors
        if settled:
            g = Q @ x - c
            viol = np.where(active, -np.inf, np.abs(g) - l1)
            j = int(np.argmax(viol))
            if not viol[j] > 0.0:
                break
            active[j] = True
            theta[j] = -np.sign(g[j])
        idx = np.flatnonzero(active)
        xa = x[idx]
        xhat = np.linalg.solve(Q[idx[:, None], idx], c[idx] - l1 * theta[idx])
        flips = np.flatnonzero(np.sign(xhat[1:]) != theta[idx[1:]]) + 1
        if not len(flips):
            x[idx] = xhat
            settled = True
            continue
        # the first point on the way to xhat where a coefficient reaches zero;
        # a just-activated coefficient pointing the wrong way makes that x itself
        t_zero = xa[flips] / (xa[flips] - xhat[flips])
        t = t_zero.min()
        if not t > 0.0:
            break
        new = xa + t * (xhat - xa)
        new[flips[t_zero == t]] = 0.0
        x[idx] = new
        active[idx[1:]] = new[1:] != 0.0
        theta[idx[1:]] = np.sign(new[1:])
        settled = False
    return x


def _flips(y):
    """-1 where y is 1 and 1 elsewhere: z * _flips(y) is minus the margin."""
    return np.where(y == 1, -1.0, 1.0)


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

    def _objective_at(self, z, flip, w):
        # log(1 + exp(-m)) with the margin m = z for y=1, -z for y=0, stably;
        # flip is _flips(y), so -m = z * flip
        loss = float(np.logaddexp(0.0, z * flip).sum() / len(z))
        pen = self.lam * (self.alpha * np.abs(w).sum() + 0.5 * (1 - self.alpha) * (w @ w))
        return loss + pen

    def _objective(self, X, y, w, b):
        return self._objective_at(X @ w + b, _flips(y), w)

    def fit(self, X, y, start=None):
        """Fit from ``start = (coef, intercept)``, or from zero coefficients and
        the prevalence intercept when ``start`` is None.

        A converged fit keeps the iterate that met the stopping rule; one that
        has not converged after ``max_iter`` Newton steps warns and keeps the
        iterate with the lowest objective.
        """
        X, y = check_training_data(X, y, _MODEL)
        n, p = X.shape
        v = np.empty(p + 1)  # (intercept, coefficients)
        if start is None:
            prev = float(np.clip(np.mean(y), 1e-12, 1 - 1e-12))
            v[0], v[1:] = np.log(prev / (1 - prev)), 0.0
        else:
            v[0], v[1:] = float(start[1]), np.asarray(start[0], dtype=float)
        At = np.empty((p + 1, n))  # [1 X]' with contiguous rows: its Gram matrix is one fast product
        At[0], At[1:] = 1.0, X.T
        scale = np.maximum(1.0, np.sqrt(np.mean(At * At, axis=1)))  # root mean square, at least 1
        l1 = self.lam * self.alpha
        l2 = self.lam * (1 - self.alpha)
        ridge = np.full(p + 1, l2)
        ridge[0] = 0.0

        flip = _flips(y)
        xs = np.empty_like(At)  # At's columns weighted by sqrt(p(1 - p)), rewritten at each step

        self.converged_ = False
        steps = 0
        best_obj, best_v = np.inf, v
        z = X @ v[1:] + v[0]
        obj = self._objective_at(z, flip, v[1:])
        while True:
            pvec = _sigmoid(z)
            grad = At @ (y - pvec) / n
            if steps:
                rel = abs(last_obj - obj) / max(1.0, abs(last_obj))
                if rel < self.tol and _kkt_residual(grad, v, l1, l2, scale) < _KKT_TOL:
                    self.converged_ = True
                    best_v = v
                    break
            if obj < best_obj:
                best_obj, best_v = obj, v
            if steps == self.max_iter:
                break
            last_obj = obj
            np.multiply(At, np.sqrt(pvec * (1 - pvec)), out=xs)
            H = xs @ xs.T / n
            d = H.diagonal() + ridge
            v = np.where(d > 0.0, v, 0.0)  # an all-zero column without a ridge term keeps a zero coefficient
            Q = H + np.diag(ridge + _DAMPING * d)
            try:
                step = _feature_sign(Q, grad + H @ v + _DAMPING * d * v, l1, v)
            except np.linalg.LinAlgError:
                break  # the weights of a column the step moves all vanished: the model has no unique minimum
            # the first of v + (step - v) / 2**k, k = 0, 1, ..., that does not raise the objective
            for k in range(_MAX_HALVINGS + 1):
                trial = step if k == 0 else v + 0.5**k * (step - v)
                trial_z = X @ trial[1:] + trial[0]
                trial_obj = self._objective_at(trial_z, flip, trial[1:])
                if trial_obj <= obj + _RISE_TOL * max(1.0, obj):
                    break
            else:
                break
            v, z, obj = trial, trial_z, trial_obj
            steps += 1

        if not self.converged_:
            warnings.warn(f"{_MODEL} did not converge; returning best iterate")
        self.coef_ = best_v[1:].copy()
        self.intercept_ = float(best_v[0])
        self.n_iter_ = steps
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return _sigmoid(X @ self.coef_ + self.intercept_)


def lambda_grid(X, y, alpha, n_points):
    """Log-spaced penalty grid from the smallest all-zero lam down 3 decades."""
    X, y = check_training_data(X, y, _MODEL)
    n = len(y)
    resid = y - y.mean()
    lam_max = float(np.max(np.abs(X.T @ resid)) / (n * max(alpha, 1e-3)))
    lam_max = max(lam_max, 1e-6)
    return np.geomspace(lam_max, lam_max * 1e-3, n_points)
