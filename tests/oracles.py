"""Independent brute-force oracles used to freeze expected values.

Each oracle is a direct transcription of a definition, kept deliberately
naive and separate from the implementation it checks.
"""

import numpy as np
from scipy import integrate

from riskfuse.folds import stratified_kfold
from riskfuse.linear import ElasticNetLogistic, lambda_grid
from riskfuse.metrics import roc_auc
from riskfuse.seeding import hash_seed


def tau_brute(u, v):
    """Pairwise sign count over all pairs; ties contribute zero."""
    n = len(u)
    s = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            s += np.sign(u[i] - u[j]) * np.sign(v[i] - v[j])
    return s / (n * (n - 1) / 2.0)


def empirical_copula_brute(u_sample, v_sample, u, v):
    n = len(u_sample)
    count = 0
    for i in range(n):
        if u_sample[i] <= u and v_sample[i] <= v:
            count += 1
    return count / n


def auc_brute(scores, y):
    """Pairwise enumeration with half credit for ties."""
    pos = [s for s, yy in zip(scores, y) if yy == 1]
    neg = [s for s, yy in zip(scores, y) if yy == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def km_brute(times, events):
    """Risk-set recomputation from the definition: at each distinct event
    time, multiply by (1 - deaths / at-risk); censored-at-t stays at risk."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    out_t, out_s, out_d, out_r = [], [], [], []
    s = 1.0
    for t in sorted(set(times[events == 1])):
        d = int(np.sum((times == t) & (events == 1)))
        r = int(np.sum(times >= t))
        s *= 1.0 - d / r
        out_t.append(t)
        out_s.append(s)
        out_d.append(d)
        out_r.append(r)
    return np.array(out_t), np.array(out_s), np.array(out_d), np.array(out_r)


def bvn_quad(x, y, rho, epsabs=1e-10):
    """Adaptive 2-D integration of the bivariate normal density."""

    def density(t, s):
        z = s * s - 2.0 * rho * s * t + t * t
        return np.exp(-z / (2.0 * (1.0 - rho * rho))) / (2.0 * np.pi * np.sqrt(1.0 - rho * rho))

    val, _ = integrate.dblquad(density, -np.inf, x, -np.inf, y, epsabs=epsabs)
    return val


def average_ranks_brute(x):
    """1-based ranks by walking each tied block of the sorted values."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(sx):
        j = i
        while j + 1 < len(sx) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def lambda_search_cold(X, y, seed, *, alpha, grid_points, inner_folds, max_iter, tol):
    """The inner-CV penalty search with every (lam, fold) fit started cold.

    Returns the selected lam (the first grid point with the largest inner
    out-of-fold AUC) and the coordinate sweeps summed over all its fits.
    """
    grid = lambda_grid(X, y, alpha, n_points=grid_points)
    inner = stratified_kfold(y, k=inner_folds, seed=hash_seed(seed, "inner"))
    best_lam, best_auc, sweeps = None, -np.inf, 0
    for lam in grid:
        oof = np.empty(len(y))
        for f in range(inner_folds):
            tr, te = inner.train_rows(f), inner.test_rows(f)
            model = ElasticNetLogistic(lam=lam, alpha=alpha, max_iter=max_iter, tol=tol).fit(X[tr], y[tr])
            oof[te] = model.predict_proba(X[te])
            sweeps += model.n_iter_
        auc = roc_auc(oof, y)
        if auc > best_auc:
            best_auc, best_lam = auc, lam
    return best_lam, sweeps
