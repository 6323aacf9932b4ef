"""CART-style trees, bagged forests and boosted ensembles on dense matrices.

Split search is vectorized over the candidate features of a node: sort each
column, score every admissible cut from class/target prefix sums, take the
best. Ties resolve to the smallest (position, feature) pair, so growth is a
deterministic function of (data, hyperparameters, seed).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .seeding import stream_rng

_NEWTON_EPS = 1e-9


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


class _Tree:
    """Flat-array binary tree; leaves carry a scalar prediction."""

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


class RandomForest:
    """Bagged Gini trees; class probability = mean of leaf class fractions."""

    def __init__(self, *, n_trees, max_depth, mtry, min_leaf, seed):
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.mtry = mtry
        self.min_leaf = int(min_leaf)
        self.seed = seed
        self.trees_ = None

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

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        acc = np.zeros(len(X))
        for tree in self.trees_:
            acc += tree.predict(X)
        return acc / len(self.trees_)


class GradientBoosting:
    """Additive log-odds model: squared-error trees on the logistic-loss
    gradient with Newton leaf values."""

    def __init__(self, *, n_rounds, learning_rate, max_depth):
        if learning_rate <= 0:
            raise NumericError("learning_rate must be positive")
        self.n_rounds = int(n_rounds)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.trees_ = None
        self.base_score_ = 0.0
        self.train_losses_ = None

    @staticmethod
    def _mean_logloss(y, score):
        margin = np.where(y == 1, score, -score)
        return float(np.mean(np.logaddexp(0.0, -margin)))

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        prev = float(np.clip(np.mean(y), 1e-12, 1 - 1e-12))
        self.base_score_ = float(np.log(prev / (1 - prev)))
        score = np.full(len(y), self.base_score_)
        self.trees_ = []
        self.train_losses_ = [self._mean_logloss(y, score)]
        for _ in range(self.n_rounds):
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

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        score = np.full(len(X), self.base_score_)
        for tree in self.trees_:
            score += self.learning_rate * tree.predict(X)
        return score

    def predict_proba(self, X):
        return 1.0 / (1.0 + np.exp(-self.decision_function(X)))
