"""CART-style trees, bagged forests and boosted ensembles on dense matrices.

A node's split scores every admissible cut of its rows, in sorted order per
candidate feature, from class/target prefix sums and takes the best. Ties
resolve to the smallest (position, feature) pair, so growth is a
deterministic function of (data, hyperparameters, seed). Neither ensemble
sorts a node's rows:

- Boosting argsorts each column of X once per fit (stable) and keeps, per
  node, a (p, m) column block: the node's rows in each column's sorted order.
  A child's block is its parent's block filtered by a stable boolean
  partition. Node rows stay ascending, so a block equals the stable argsort
  of the node's submatrix, and every prefix sum and score is the float the
  node-by-node sort gave.
- The forest grows all its trees in lockstep. Each step pops one node from
  every tree's own depth-first stack and draws its mtry features from that
  tree's own stream, in the order the tree would draw them grown alone. One
  segmented Gini search then scores every popped node: the (row, feature)
  cells are sorted by (node, feature, dense rank of the value) and each
  (node, feature) group is cut from prefix sums. Gini prefix sums of 0/1
  labels are exact integers and cuts fall only between distinct values, so
  the order of tied values changes no score. The search works through the
  popped nodes in batches of about _SPLIT_CELLS cells, which bounds its
  memory whatever the forest's size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .seeding import stream_rng

_NEWTON_EPS = 1e-9
# (rows x candidate features) cells per batch of the forest's split search;
# a batch's working arrays then stay near 2 MiB
_SPLIT_CELLS = 1 << 14


class _Tree:
    """Flat-array binary tree; leaves carry a scalar prediction."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.value = np.asarray(value, dtype=float)

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


def _threshold(below, above):
    """Midpoint cut between adjacent distinct values, or the lower value when
    the midpoint rounds onto the upper one."""
    thr = 0.5 * (below + above)
    return np.where(thr >= above, below, thr)


def _mse_split(Xt, block, target):
    """Best squared-error cut of one node from its (p, m) column block, as
    (feature, position, threshold), or None when no cut is admissible."""
    p, m = block.shape
    xs = np.take_along_axis(Xt, block, axis=1)
    cs = np.cumsum(target[block], axis=1)
    n_left = np.arange(1, m, dtype=float)
    n_right = m - n_left
    s_left = cs[:, :-1]
    s_right = cs[:, -1:] - s_left
    valid = xs[:, 1:] > xs[:, :-1]  # boosted leaves may hold one row, so every such cut is admissible
    if not valid.any():
        return None
    score = np.where(valid, -(s_left * s_left / n_left + s_right * s_right / n_right), np.inf)
    i, j = divmod(int(np.argmin(score.T)), p)
    return j, i, float(_threshold(xs[j, i], xs[j, i + 1]))


def _new_tree():
    """A growing tree's (feature, threshold, left, right, value) lists, holding one leaf."""
    return [-1], [0.0], [-1], [-1], [0.0]


def _split_node(tree, node, feature, threshold):
    """Turn node into a cut on (feature, threshold) over two new leaves; returns
    the left child's id, the right child's is one more."""
    feat, thr, left, right, _ = tree
    left_id = len(feat)
    feat[node], thr[node], left[node], right[node] = feature, threshold, left_id, left_id + 1
    for lst, fill in zip(tree, (-1, 0.0, -1, -1, 0.0)):
        lst += (fill, fill)
    return left_id


def _grow_boosted(Xt, presort, grad, hess, max_depth):
    """One squared-error tree on grad with Newton leaf values, grown depth
    first from the column blocks of presort; returns it with its prediction
    for every training row."""
    p, n = presort.shape
    depth_cap = math.inf if max_depth is None else max_depth
    tree = _new_tree()
    value = tree[4]
    fitted = np.empty(n)
    goes_left = np.zeros(n, dtype=bool)
    stack = [(0, np.arange(n), presort, 0)]
    while stack:
        node, idx, block, depth = stack.pop()
        gnode = grad[idx]
        found = None
        if depth < depth_cap and len(idx) >= 2 and not np.all(gnode == gnode[0]):
            found = _mse_split(Xt, block, grad)
        if found is None:
            value[node] = float(np.sum(gnode) / (np.sum(hess[idx]) + _NEWTON_EPS))
            fitted[idx] = value[node]
            continue
        j, i, thr = found
        goes_left[block[j, : i + 1]] = True
        in_block = goes_left[block]
        in_idx = goes_left[idx]
        goes_left[block[j, : i + 1]] = False
        left_id = _split_node(tree, node, j, thr)
        # push right first so the left child is grown first
        stack.append((left_id + 1, idx[~in_idx], block[~in_block].reshape(p, -1), depth + 1))
        stack.append((left_id, idx[in_idx], block[in_block].reshape(p, -1), depth + 1))
    return _Tree(*tree), fitted


def _dense_ranks(X):
    """Per column, the 0-based rank of each value among the column's distinct values."""
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = xs[1:] > xs[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return ranks


def _gini_batch(X, ranks, labels, rows, start, size, ones, feats, min_leaf):
    """Best Gini cut of each of a batch of nodes.

    Node s holds rows[start[s] : start[s] + size[s]] (row numbers of X) with
    ones[s] positive labels, and may cut on the features feats[s]. Returns,
    per node, whether a cut was found, its feature, threshold, left size and
    left positive count. Each cut node's rows are reordered in place so that
    its left child's rows come first.
    """
    n_nodes, f = feats.shape
    offset = np.cumsum(size) - size
    node_of_row = np.repeat(np.arange(n_nodes), size)
    pos = np.arange(len(node_of_row)) + np.repeat(start - offset, size)
    r = rows[pos]
    key = ranks[r[:, None], feats[node_of_row]]
    key += (node_of_row[:, None] * f + np.arange(f)) * len(X)
    order = np.argsort(key, axis=None)
    key = key.ravel()[order]
    cell_row = r[order // f]
    csum = np.zeros(len(key) + 1, dtype=np.int64)
    np.cumsum(labels[cell_row], out=csum[1:])

    # group g = (node g // f, feature slot g % f) fills sorted cells [gstart[g], gstart[g] + gsize[g])
    gsize = np.repeat(size, f)
    gstart = np.cumsum(gsize) - gsize
    cut = np.flatnonzero(key[1:] > key[:-1])  # last cell of each run of one value
    g = np.searchsorted(gstart, cut, side="right") - 1
    n_left = cut + 1 - gstart[g]
    lo = max(min_leaf, 1)
    keep = (n_left >= lo) & (gsize[g] - n_left >= lo)
    cut, g, n_left = cut[keep], g[keep], n_left[keep]

    found = np.zeros(n_nodes, dtype=bool)
    feature = np.zeros(n_nodes, dtype=int)
    thr = np.zeros(n_nodes)
    left_size = np.zeros(n_nodes, dtype=int)
    left_ones = np.zeros(n_nodes, dtype=int)
    if not len(cut):
        return found, feature, thr, left_size, left_ones

    node = g // f
    nl = n_left.astype(float)
    sl = (csum[cut + 1] - csum[gstart[g]]).astype(float)
    nr = gsize[g] - nl
    sr = ones[node] - sl
    score = sl * (nl - sl) / nl + sr * (nr - sr) / nr

    # per node: the least score, then the least (position, feature) among its ties
    new = np.r_[True, node[1:] != node[:-1]]
    bounds = np.flatnonzero(new)
    best = np.minimum.reduceat(score, bounds)
    tie = np.where(score == best[np.cumsum(new) - 1], n_left * f + (g - node * f), np.iinfo(np.int64).max)
    tie = np.minimum.reduceat(tie, bounds)
    s = node[bounds]
    nl_best, k_best = np.divmod(tie, f)
    first = gstart[s * f + k_best]
    q = first + nl_best - 1
    found[s] = True
    feature[s] = feats[s, k_best]
    thr[s] = _threshold(X[cell_row[q], feature[s]], X[cell_row[q + 1], feature[s]])
    left_size[s] = nl_best
    left_ones[s] = csum[q + 1] - csum[first]

    # the chosen feature's group lists the node's rows with the left child's first
    moved = np.repeat(np.cumsum(size[s]) - size[s], size[s])
    span = np.arange(len(moved)) - moved
    rows[np.repeat(start[s], size[s]) + span] = cell_row[np.repeat(first, size[s]) + span]
    return found, feature, thr, left_size, left_ones


def _grow_forest(X, y, rngs, *, mtry, min_leaf, max_depth):
    """One Gini tree per stream in rngs, each on a bootstrap sample drawn
    from its stream, all grown in lockstep."""
    n, p = X.shape
    n_trees = len(rngs)
    f = min(mtry, p)
    depth_cap = math.inf if max_depth is None else max_depth
    ranks = _dense_ranks(X)
    labels = y.astype(np.int64)
    rows = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    all_feats = np.arange(p)

    trees = [_new_tree() for _ in range(n_trees)]
    stacks = [[] for _ in range(n_trees)]

    def place(t, node, start, size, ones, depth):
        # a node that is a leaf on sight draws no features, so it is settled
        # here instead of on the stack
        if depth >= depth_cap or ones == 0 or ones == size or size < 2 * min_leaf:
            trees[t][4][node] = ones / size
        else:
            stacks[t].append((node, start, size, ones, depth))

    for t in range(n_trees):
        place(t, 0, t * n, n, int(labels[rows[t * n : (t + 1) * n]].sum()), 0)
    active = [t for t in range(n_trees) if stacks[t]]
    while active:
        popped = [stacks[t].pop() for t in active]
        feats = np.empty((len(active), f), dtype=int)
        for i, t in enumerate(active):
            feats[i] = np.sort(rngs[t].choice(p, size=mtry, replace=False)) if f < p else all_feats
        start, size, ones = (np.array(col) for col in list(zip(*popped))[1:4])
        edges = np.flatnonzero(np.diff((np.cumsum(size * f) - 1) // _SPLIT_CELLS)) + 1
        batches = zip(*(np.split(a, edges) for a in (start, size, ones, feats)))
        results = [_gini_batch(X, ranks, labels, rows, *batch, min_leaf) for batch in batches]
        for t, (node, start, size, ones, depth), found, j, thr, nl, ol in zip(
            active, popped, *(np.concatenate(col).tolist() for col in zip(*results))
        ):
            if not found:
                trees[t][4][node] = ones / size
                continue
            left_id = _split_node(trees[t], node, j, thr)
            # push right first so the left child is grown (and draws features) first
            place(t, left_id + 1, start + nl, size - nl, ones - ol, depth + 1)
            place(t, left_id, start, nl, ol, depth + 1)
        active = [t for t in active if stacks[t]]
    return [_Tree(*tree) for tree in trees]


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
        if not np.isfinite(X).all():
            raise NumericError("random forest features must be finite")
        if not np.all((y == 0) | (y == 1)):
            raise NumericError("random forest labels must be 0 or 1")
        p = X.shape[1]
        mtry = self.mtry if self.mtry is not None else max(1, math.ceil(math.sqrt(p)))
        rngs = [stream_rng(self.seed, t) for t in range(self.n_trees)]
        self.trees_ = _grow_forest(X, y, rngs, mtry=mtry, min_leaf=self.min_leaf, max_depth=self.max_depth)
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
        Xt = np.ascontiguousarray(X.T)
        presort = np.argsort(Xt, axis=1, kind="stable")
        prev = float(np.clip(np.mean(y), 1e-12, 1 - 1e-12))
        self.base_score_ = float(np.log(prev / (1 - prev)))
        score = np.full(len(y), self.base_score_)
        self.trees_ = []
        self.train_losses_ = [self._mean_logloss(y, score)]
        for _ in range(self.n_rounds):
            prob = 1.0 / (1.0 + np.exp(-score))
            grad = y - prob
            hess = prob * (1.0 - prob)
            tree, fitted = _grow_boosted(Xt, presort, grad, hess, self.max_depth)
            score = score + self.learning_rate * fitted
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
