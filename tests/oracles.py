"""Independent brute-force oracles used to freeze expected values.

Each oracle is a direct transcription of a definition, kept deliberately
naive and separate from the implementation it checks.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from riskfuse import preprocess, trees
from riskfuse.cohort import MISSING_TOKENS, CohortTable, Column
from riskfuse.copulas import FAMILIES, fit_family, pseudo_observations, sample
from riskfuse.errors import DataError
from riskfuse.folds import stratified_kfold
from riskfuse.gof import cvm_statistic
from riskfuse.linear import _KKT_TOL, ElasticNetLogistic, _kkt_residual, _sigmoid, lambda_grid
from riskfuse.metrics import roc_auc
from riskfuse.ranks import rank_pass
from riskfuse.scoring import ModelSpec, fit_model
from riskfuse.seeding import hash_seed, stream_rng


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


def gumbel_sample_by_inversion(theta, n, seed):
    """Gumbel pairs by conditional inversion (Genest & Rivest): the sampler
    that the stable-frailty draw replaced.

    With S and T uniform, W solves K(W) = W - W ln(W) / theta = T by hybrid
    Newton / bisection on a bracket clamped to [1e-12, 1 - 1e-12]; then
    U = W^(S^(1/theta)) and V = W^((1 - S)^(1/theta)).
    """
    rng = np.random.default_rng(seed)
    s = rng.uniform(size=n)
    t = rng.uniform(size=n)
    lo = np.full(n, 1e-12)
    hi = np.full(n, 1.0 - 1e-12)

    def K(w):
        return w - w * np.log(w) / theta

    t = np.clip(t, K(lo), K(hi))
    w = np.clip(t, lo, hi)
    for _ in range(100):
        log_w = np.log(w)
        f = w - w * log_w / theta - t
        lo = np.where(f < 0, w, lo)
        hi = np.where(f > 0, w, hi)
        w_new = w - f / (1.0 - (log_w + 1.0) / theta)
        bad = (w_new <= lo) | (w_new >= hi) | ~np.isfinite(w_new)
        w_new = np.where(bad, 0.5 * (lo + hi), w_new)
        done = np.abs(w_new - w) <= 1e-12
        w = w_new
        if done.all():
            break
    log_w = np.log(w)
    return np.exp(s ** (1.0 / theta) * log_w), np.exp((1.0 - s) ** (1.0 / theta) * log_w)


def bvn_quad(x, y, rho, epsabs=1e-10):
    """Adaptive 2-D integration of the bivariate normal density."""

    def density(t, s):
        z = s * s - 2.0 * rho * s * t + t * t
        return np.exp(-z / (2.0 * (1.0 - rho * rho))) / (2.0 * np.pi * np.sqrt(1.0 - rho * rho))

    val, _ = integrate.dblquad(density, -np.inf, x, -np.inf, y, epsabs=epsabs)
    return val


# 20-point Gauss-Legendre rule on (-1, 1), positive half
_GL_X = np.array([
    0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
    0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
    0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
    0.07652652113349733,
])
_GL_W = np.array([
    0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
    0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
    0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
    0.1527533871307259,
])


def _bvnu_moderate(h, k, r):
    """Upper-quadrant probability for |r| < 0.925 (arrays of equal shape)."""
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = np.arcsin(r)
    sn_lo = np.sin(asr[..., None] * (1.0 - _GL_X) / 2.0)
    sn_hi = np.sin(asr[..., None] * (1.0 + _GL_X) / 2.0)

    def integrand(sn):
        return np.exp((sn * hk[..., None] - hs[..., None]) / (1.0 - sn * sn))

    acc = np.sum(_GL_W * (integrand(sn_lo) + integrand(sn_hi)), axis=-1)
    return acc * asr / (4.0 * np.pi) + ndtr(-h) * ndtr(-k)


def _bvnu_extreme(h, k, r):
    """Upper-quadrant probability for 0.925 <= |r| < 1 (arrays of equal shape)."""
    neg = r < 0
    k = np.where(neg, -k, k)
    hk = h * k
    a_sq = (1.0 - r) * (1.0 + r)
    a = np.sqrt(a_sq)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr0 = -(bs / a_sq + hk) / 2.0

    series = a * np.exp(np.minimum(asr0, 700.0)) * (
        1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_sq * a_sq / 5.0
    )
    bvn = np.where(asr0 > -100.0, series, 0.0)

    keep = -hk < 100.0
    b = np.sqrt(bs)
    sp = np.sqrt(2.0 * np.pi) * ndtr(-b / a)
    tail = np.exp(np.where(keep, -hk / 2.0, 0.0)) * sp * b * (
        1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0
    )
    bvn = bvn - np.where(keep, tail, 0.0)

    half = a / 2.0
    for sign in (-1.0, 1.0):
        xs = (half[..., None] * (sign * _GL_X + 1.0)) ** 2
        rs = np.sqrt(1.0 - xs)
        asr1 = -(bs[..., None] / xs + hk[..., None]) / 2.0
        ok = asr1 > -100.0
        ep = np.exp(np.minimum(-hk[..., None] * (1.0 - rs) / (2.0 * (1.0 + rs)), 700.0)) / rs
        sp1 = 1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs)
        term = half[..., None] * _GL_W * np.exp(np.where(ok, asr1, -np.inf)) * (ep - sp1)
        bvn = bvn + np.sum(np.where(ok, term, 0.0), axis=-1)
    bvn = -bvn / (2.0 * np.pi)

    pos_val = bvn + ndtr(-np.maximum(h, k))
    neg_val = -bvn + np.maximum(0.0, ndtr(-h) - ndtr(-k))
    return np.where(neg, neg_val, pos_val)


def bvn_genz(x, y, rho):
    """The Gauss-Legendre kernel that ``riskfuse.bvn`` replaced, point by point.

    The Drezner-Wesolowsky correlation-integral form for |rho| < 0.925 and the
    high-|rho| reduction of Genz's BVND routine above it, on the canonical
    order x <= y; infinities take the marginal limits.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    h, k, r = np.broadcast_arrays(-np.minimum(x, y), -np.maximum(x, y), np.asarray(rho, dtype=float))
    lo = np.isposinf(h) | np.isposinf(k)  # x or y is -inf
    x_inf = np.isneginf(h) & ~lo  # x is +inf
    y_inf = np.isneginf(k) & ~lo
    finite = ~(lo | x_inf | y_inf)
    hf = np.where(finite, h, 0.0)
    kf = np.where(finite, k, 0.0)
    mod = np.abs(r) < 0.925
    out = np.where(mod, _bvnu_moderate(hf, kf, np.where(mod, r, 0.0)), _bvnu_extreme(hf, kf, np.where(mod, 0.95, r)))
    out = np.where(lo, 0.0, np.where(x_inf, ndtr(-k), np.where(y_inf, ndtr(-h), out)))
    return np.clip(out, 0.0, 1.0)


def bootstrap_replicate(model_hat, family, m, seed, b, refit):
    """One parametric-bootstrap statistic, drawn, ranked, refitted and scored on its own.

    The per-replicate loop that the block bootstrap replaced.
    """
    rng = stream_rng(seed, FAMILIES.index(family), b)
    u_rep, v_rep = sample(model_hat, m, rng)
    u_rep = pseudo_observations(u_rep)
    v_rep = pseudo_observations(v_rep)
    ranks = rank_pass(u_rep, v_rep)
    model_b = fit_family(family, ranks.tau()) if refit else model_hat
    return cvm_statistic(u_rep, v_rep, model_b, ranks)


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


def _is_missing_token(cell: str) -> bool:
    return cell.strip().lower() in MISSING_TOKENS


def _parse_number(cell: str) -> float | None:
    """Return a finite float, or None when the cell is not a usable number."""
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if np.isfinite(x) else None


def load_cohort_cells(csv_path) -> CohortTable:
    """The loader the one-pass column typing replaced: five Python passes over
    every cell, through the two per-cell helpers above. Kept as it was."""
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{csv_path}: file is empty")
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {csv_path}: {exc}") from exc

    if len(set(header)) != len(header):
        raise DataError(f"{csv_path}: duplicate header names")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{csv_path}: row {i + 2} has {len(row)} fields, header has {len(header)}")

    n = len(rows)
    columns = []
    for j, name in enumerate(header):
        raw = [rows[i][j] for i in range(n)]
        missing = [_is_missing_token(c) for c in raw]
        parsed = [None if m else _parse_number(c) for c, m in zip(raw, missing)]
        numeric = all(p is not None for p, m in zip(parsed, missing) if not m)
        if numeric:
            vals = np.array([np.nan if m else p for p, m in zip(parsed, missing)], dtype=float)
            columns.append(Column(name, "numeric", vals))
        else:
            vals = np.array([None if m else c.strip() for c, m in zip(raw, missing)], dtype=object)
            columns.append(Column(name, "categorical", vals))
    return CohortTable(tuple(columns), n)


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


# The tree grower the column blocks and the lockstep forest replaced: it
# argsorts every node's submatrix and grows one tree at a time. Kept as it was,
# with the one-tree walk every ensemble predicted with before _predict_all.

_NEWTON_EPS = trees._NEWTON_EPS


def _find_split(Xnode, target, min_leaf, gini):
    """Best (feature, threshold) for one node, or None when no cut is admissible."""
    m, f = Xnode.shape
    if m < 2 * min_leaf:
        return None
    order = np.argsort(Xnode, axis=0, kind="stable")
    xs = np.take_along_axis(Xnode, order, axis=0)
    ys = target[order]
    cs = np.cumsum(ys, axis=0)
    n_left = np.arange(1, m, dtype=float)[:, None]
    n_right = m - n_left
    s_left = cs[:-1]
    s_right = cs[-1] - s_left
    if gini:
        score = s_left * (n_left - s_left) / n_left + s_right * (n_right - s_right) / n_right
    else:
        score = -(s_left * s_left / n_left + s_right * s_right / n_right)
    valid = (xs[1:] > xs[:-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    score = np.where(valid, score, np.inf)
    flat = int(np.argmin(score))
    i, j = np.unravel_index(flat, score.shape)
    thr = 0.5 * (xs[i, j] + xs[i + 1, j])
    if thr >= xs[i + 1, j]:  # midpoint collapsed onto the right value
        thr = xs[i, j]
    return int(j), float(thr)


class _Tree(trees._Tree):
    """Grows one node at a time, argsorting every node's submatrix."""

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def _add_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    @classmethod
    def grow(cls, X, y, *, criterion, min_leaf, max_depth, mtry=None, rng=None, hess=None):
        """Grow a tree on (X, y). criterion: "gini" or "mse".

        With hess given, leaf values are Newton steps sum(y)/(sum(hess)+eps);
        otherwise the leaf mean of y. mtry features are drawn per split.
        """
        tree = cls()
        n, p = X.shape
        gini = criterion == "gini"
        depth_cap = math.inf if max_depth is None else max_depth

        def leaf_value(idx):
            if hess is not None:
                return float(np.sum(y[idx]) / (np.sum(hess[idx]) + _NEWTON_EPS))
            return float(np.mean(y[idx]))

        root = tree._add_node()
        stack = [(root, np.arange(n), 0)]
        while stack:
            node, idx, depth = stack.pop()
            ynode = y[idx]
            pure = np.all(ynode == ynode[0])
            if depth >= depth_cap or pure or len(idx) < 2 * min_leaf:
                tree.value[node] = leaf_value(idx)
                continue
            if mtry is not None and mtry < p:
                feats = np.sort(rng.choice(p, size=mtry, replace=False))
            else:
                feats = np.arange(p)
            found = _find_split(X[np.ix_(idx, feats)], ynode, min_leaf, gini)
            if found is None:
                tree.value[node] = leaf_value(idx)
                continue
            j_local, thr = found
            j = int(feats[j_local])
            go_left = X[idx, j] <= thr
            left_id = tree._add_node()
            right_id = tree._add_node()
            tree.feature[node] = j
            tree.threshold[node] = thr
            tree.left[node] = left_id
            tree.right[node] = right_id
            # push right first so the left child is grown (and draws rng) first
            stack.append((right_id, idx[~go_left], depth + 1))
            stack.append((left_id, idx[go_left], depth + 1))
        tree._freeze()
        return tree

    def _freeze(self):
        self.feature = np.asarray(self.feature, dtype=int)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=int)
        self.right = np.asarray(self.right, dtype=int)
        self.value = np.asarray(self.value, dtype=float)

    def predict(self, X):
        """Walk this tree alone for every row of X; also applies to any tree
        with the same arrays, as _Tree.predict(tree, X)."""
        n = len(X)
        node = np.zeros(n, dtype=int)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            cur = node[idx]
            goes_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(goes_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[node[idx]] >= 0
        return self.value[node]


class RandomForestOracle(trees.RandomForest):
    """RandomForest growing its trees one after another with _Tree.grow."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, p = X.shape
        mtry = self.mtry if self.mtry is not None else max(1, math.ceil(math.sqrt(p)))
        self.trees_ = []
        for t in range(self.n_trees):
            rng = stream_rng(self.seed, t)
            boot = rng.integers(0, n, size=n)
            tree = _Tree.grow(
                X[boot],
                y[boot],
                criterion="gini",
                min_leaf=self.min_leaf,
                max_depth=self.max_depth,
                mtry=mtry,
                rng=rng,
            )
            self.trees_.append(tree)
        return self


class GradientBoostingOracle(trees.GradientBoosting):
    """GradientBoosting growing each round's tree with _Tree.grow and scoring
    the training rows with its predict."""

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        prev = float(np.clip(np.mean(y), 1e-12, 1 - 1e-12))
        self.base_score_ = float(np.log(prev / (1 - prev)))
        score = np.full(len(y), self.base_score_)
        self.trees_ = []
        self.train_losses_ = [self._mean_logloss(y, score)]
        for _ in range(self.n_rounds):
            with np.errstate(over="ignore"):  # exp(-score) overflows to inf below -709: prob 0
                prob = 1.0 / (1.0 + np.exp(-score))
            grad = y - prob
            hess = prob * (1.0 - prob)
            tree = _Tree.grow(
                X,
                grad,
                criterion="mse",
                min_leaf=1,
                max_depth=self.max_depth,
                hess=hess,
            )
            score = score + self.learning_rate * tree.predict(X)
            self.trees_.append(tree)
            self.train_losses_.append(self._mean_logloss(y, score))
        return self


def per_tree_proba(model, X):
    """A forest's or a boosted model's predict_proba as it was before one walk
    predicted every tree: each tree walked alone, its predictions added in
    tree order."""
    X = np.asarray(X, dtype=float)
    if isinstance(model, trees.RandomForest):
        acc = np.zeros(len(X))
        for tree in model.trees_:
            acc += _Tree.predict(tree, X)
        return acc / len(model.trees_)
    score = np.full(len(X), model.base_score_)
    for tree in model.trees_:
        score += model.learning_rate * _Tree.predict(tree, X)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-score))


# The out-of-fold loop the forest's fold locksteps replaced: each fold's
# preprocessor, training design, model, test design and prediction in turn.
# Kept as it was.


def oof_scores_per_fold(view, y, spec, folds, row_ids=None):
    """Out-of-fold probabilities with one fit_model call per fold."""
    y = np.asarray(y, dtype=float)
    if row_ids is None:
        row_ids = np.arange(len(y))
    id_strings = np.array([str(r) for r in row_ids])
    out = np.empty(len(y))
    for f in range(folds.k):
        train = folds.train_rows(f)
        test = folds.test_rows(f)
        train = train[np.argsort(id_strings[train], kind="stable")]
        test = test[np.argsort(id_strings[test], kind="stable")]
        pre = preprocess.fit_preprocessor(view, train)
        model = fit_model(
            ModelSpec(spec.family, spec.hyperparameters, hash_seed(spec.seed, "fold", f)),
            preprocess.transform(pre, view, train),
            y[train],
        )
        out[test] = model.predict_proba(preprocess.transform(pre, view, test))
    return out


# The contour tracer the all-cells marching squares replaced: one cell and one
# corner at a time. Kept as it was.


def marching_squares_per_cell(g, z, level):
    """Line segments of the iso-contour z = level on grid coords g."""
    segs = []
    G = len(g)

    def interp(p, q, zp, zq):
        t = 0.5 if zq == zp else (level - zp) / (zq - zp)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    for a in range(G - 1):
        for b in range(G - 1):
            corners = [
                ((g[a], g[b]), z[a, b]),
                ((g[a + 1], g[b]), z[a + 1, b]),
                ((g[a + 1], g[b + 1]), z[a + 1, b + 1]),
                ((g[a], g[b + 1]), z[a, b + 1]),
            ]
            code = sum(1 << i for i, (_, zz) in enumerate(corners) if zz >= level)
            if code in (0, 15):
                continue
            edges = []
            for i in range(4):
                (p, zp), (q, zq) = corners[i], corners[(i + 1) % 4]
                if (zp >= level) != (zq >= level):
                    edges.append(interp(p, q, zp, zq))
            if len(edges) == 2:
                segs.append((edges[0], edges[1]))
            elif len(edges) == 4:  # saddle: split by center value
                center = np.mean([zz for _, zz in corners])
                if (center >= level) == (corners[0][1] >= level):
                    segs.append((edges[0], edges[3]))
                    segs.append((edges[1], edges[2]))
                else:
                    segs.append((edges[0], edges[1]))
                    segs.append((edges[2], edges[3]))
    return segs


# The coordinate-descent elastic-net solver that the covariance updates, and
# then the feature-sign Newton steps, replaced: every coordinate visit takes an
# n-length dot with the working residual and, when the coefficient moves,
# updates that residual. Kept as it was, except that it stops by
# ElasticNetLogistic's rule: a relative objective change below tol and a KKT
# residual below _KKT_TOL, keeping the iterate it stopped at.

_WEIGHT_FLOOR = 1e-5  # curvature floor keeps the working response finite


def _soft_threshold(x, t):
    return np.sign(x) * max(abs(x) - t, 0.0)


class ElasticNetLogisticOracle(ElasticNetLogistic):
    """ElasticNetLogistic keeping the working residual r itself up to date."""

    def fit(self, X, y, start=None):
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
            resid = y - _sigmoid(X @ w + b)
            grad = np.concatenate([[resid.sum() / n], X.T @ resid / n])
            scale = np.maximum(1.0, np.sqrt(np.mean(np.column_stack([np.ones(n), X]) ** 2, axis=0)))
            if rel < self.tol and _kkt_residual(grad, np.concatenate([[b], w]), l1, l2, scale) < _KKT_TOL:
                self.converged_ = True
                best_w, best_b = w.copy(), b
                break

        if not self.converged_:
            warnings.warn("elastic-net logistic regression did not converge; returning best iterate")
        self.coef_ = best_w
        self.intercept_ = best_b
        self.n_iter_ = sweeps
        return self


# The fold preprocessor that the one-tuple form replaced: a schema, a stats
# dict per column kind and a stats class per kind. Kept as it was.


@dataclass(frozen=True)
class NumericStats:
    median: float
    mean: float
    sd: float  # 0 flags a constant (or unobserved) column


@dataclass(frozen=True)
class CategoricalStats:
    mode: str
    categories: tuple[str, ...]


@dataclass(frozen=True)
class Preprocessor:
    schema: tuple[tuple[str, str], ...]  # (name, kind) pairs, input order
    numeric: dict
    categorical: dict


MISSING_CATEGORY = "__missing__"


def fit_preprocessor(view: CohortTable, train_rows: np.ndarray) -> Preprocessor:
    """Fit imputation / scaling / encoding statistics from training rows only."""
    train_rows = np.asarray(train_rows)
    if len(train_rows) == 0:
        raise DataError("cannot fit preprocessor on zero training rows")
    numeric = {}
    categorical = {}
    for col in view.columns:
        vals = col.values[train_rows]
        if col.kind == "numeric":
            obs = vals[~np.isnan(vals)]
            if len(obs) == 0:
                # entirely missing in training: impute to 0 on the standardized scale
                numeric[col.name] = NumericStats(median=0.0, mean=0.0, sd=0.0)
            else:
                sd = float(np.std(obs, ddof=1)) if len(obs) >= 2 else 0.0
                numeric[col.name] = NumericStats(
                    median=float(np.median(obs)), mean=float(np.mean(obs)), sd=sd
                )
        else:
            seen: dict[str, int] = {}
            for v in vals:
                if v is not None:
                    seen[v] = seen.get(v, 0) + 1
            if not seen:
                categorical[col.name] = CategoricalStats(MISSING_CATEGORY, (MISSING_CATEGORY,))
            else:
                # mode = most frequent, first-seen breaks ties
                mode = max(seen, key=lambda c: seen[c])
                categorical[col.name] = CategoricalStats(mode, tuple(seen))
    schema = tuple((c.name, c.kind) for c in view.columns)
    return Preprocessor(schema=schema, numeric=numeric, categorical=categorical)


def transform(pre: Preprocessor, view: CohortTable, rows: np.ndarray) -> np.ndarray:
    """Impute, standardize and one-hot encode the given rows into a float matrix."""
    if tuple((c.name, c.kind) for c in view.columns) != pre.schema:
        raise DataError("view schema does not match the fitted preprocessor")
    rows = np.asarray(rows)
    blocks = []
    for col in view.columns:
        vals = col.values[rows]
        if col.kind == "numeric":
            st = pre.numeric[col.name]
            x = np.where(np.isnan(vals.astype(float)), st.median, vals.astype(float))
            if st.sd > 0:
                z = (x - st.mean) / st.sd
            else:
                z = np.zeros(len(rows))
            blocks.append(z[:, None])
        else:
            st = pre.categorical[col.name]
            index = {cat: i for i, cat in enumerate(st.categories)}
            block = np.zeros((len(rows), len(st.categories)))
            for i, v in enumerate(vals):
                label = st.mode if v is None else v
                j = index.get(label)
                if j is not None:
                    block[i, j] = 1.0
                # unseen category: leave the block all-zero
            blocks.append(block)
    values = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    if not np.all(np.isfinite(values)):
        raise DataError("feature matrix contains non-finite entries")
    return values
