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
  node-by-node sort gave. Every round's root has the same block, so its
  sorted values and admissible cuts are taken once per fit. A child at the
  depth cap is a leaf and gets only its rows, no block.
- The forest grows all its trees in lockstep, and fit_forests grows
  several forests of one design width (the folds of one out-of-fold run)
  in one lockstep. Each step pops one node from every tree's own
  depth-first stack and draws its mtry features from that tree's own
  stream: _FeatureDraws replays numpy's Generator.choice (Floyd's
  algorithm on Lemire's bounded integers) for every tree at once, from each
  stream's uint32 draws read ahead, so each tree gets the features it would
  draw grown alone. One segmented Gini search then scores every popped node.
  Per fit, every cell is coded as 2 * (dense rank of its value in its
  column) + its row's label. The fits' code tables and tables of each
  column's distinct values by rank are stacked, each fit's rows after the
  previous fits', and a tree's bootstrap rows are row numbers of the stack.
  Per batch, each (row, candidate feature) cell's key is that code plus its
  (node, feature) group times 2n, where n is the largest fit's row count,
  and one sort of the keys orders every group by value. The label is then
  the key's low bit, a cut's group is key // 2n and its threshold comes
  from the node's fit's rows of the value table. Gini prefix sums of 0/1
  labels are exact integers and cuts fall only between distinct values, so
  neither the order of tied values nor the order of a node's rows changes
  any score. A cut node's rows are then partitioned on its chosen column
  alone, in place, left child first. The search works through the popped
  nodes in batches of about _SPLIT_CELLS cells, which bounds its memory
  whatever the forest's size. The trees' stacks and nodes are numpy arrays
  over all trees, updated once per step. A lockstep holds at most
  _LOCKSTEP_ROWS bootstrap rows (trees x training rows) over its forests,
  and a larger forest grows alone: at the paper's 300 trees, growing the
  five folds together was no faster and held far more memory. fit_forests
  takes every forest's design at once, as a list made before it is called.

Both ensembles predict in one walk over all their trees (_predict_all), and
add the trees' predictions in tree order, so a probability is the float a
tree-by-tree sum gives.
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
# split nodes' worth of uint32 draws each tree's stream is read ahead by
_DRAW_NODES = 16
# bootstrap rows (trees x training rows) one lockstep of forests holds at
# most; a forest above it grows alone
_LOCKSTEP_ROWS = 1 << 18


class _Tree:
    """Flat-array binary tree; leaves carry a scalar prediction."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=int)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=int)
        self.right = np.asarray(right, dtype=int)
        self.value = np.asarray(value, dtype=float)


def _predict_all(trees, X):
    """Every tree's prediction for every row of X, one row per tree.

    The trees' node arrays are stacked, each tree's child ids offset by its
    first node's, and each level advances every (tree, row) pair that is
    still at a cut. Trees are walked in batches of about _SPLIT_CELLS pairs,
    which bounds the walk's memory whatever the ensemble's size."""
    n, p = X.shape
    cells = np.ascontiguousarray(X).ravel()
    out = np.empty((len(trees), n))
    per_batch = max(1, _SPLIT_CELLS // max(n, 1))
    for first in range(0, len(trees), per_batch):
        batch = trees[first : first + per_batch]
        feature, threshold, left, right, value = (
            np.concatenate([getattr(tree, name) for tree in batch])
            for name in ("feature", "threshold", "left", "right", "value")
        )
        sizes = [len(tree.feature) for tree in batch]
        root = np.cumsum(sizes) - sizes
        left += np.repeat(root, sizes)
        right += np.repeat(root, sizes)
        node = np.repeat(root, n)  # pair k is (tree k // n, row k % n)
        pair = np.flatnonzero(feature[node] >= 0)
        cur = node[pair]
        row_start = pair % n * p
        while len(pair):
            cur = np.where(cells[row_start + feature[cur]] <= threshold[cur], left[cur], right[cur])
            node[pair] = cur
            at_cut = feature[cur] >= 0
            pair, cur, row_start = pair[at_cut], cur[at_cut], row_start[at_cut]
        out[first : first + len(batch)] = value[node].reshape(len(batch), n)
    return out


def _threshold(below, above):
    """Midpoint cut between adjacent distinct values, or the lower value when
    the midpoint rounds onto the upper one."""
    thr = 0.5 * (below + above)
    return np.where(thr >= above, below, thr)


def _block_values(Xt, block):
    """A (p, m) column block's values, and which of its m - 1 cuts fall
    between distinct values: boosted leaves may hold one row, so every such
    cut is admissible."""
    xs = np.take_along_axis(Xt, block, axis=1)
    return xs, xs[:, 1:] > xs[:, :-1]


def _mse_split(block, xs, valid, target):
    """Best squared-error cut of one node from its (p, m) column block and
    _block_values, as (feature, position, threshold), or None when no cut is
    admissible. The best cut has the largest s_l^2 / n_l + s_r^2 / n_r, the
    first in (position, feature) order among ties."""
    if not valid.any():
        return None
    p, m = block.shape
    cs = np.cumsum(target[block], axis=1)
    n_left = np.arange(1, m, dtype=float)
    s_left = cs[:, :-1]
    s_right = cs[:, -1:] - s_left
    gain = s_left * s_left
    gain /= n_left
    s_right *= s_right
    s_right /= m - n_left
    gain += s_right
    gain[~valid] = -np.inf
    i, j = divmod(int(np.argmax(gain.T)), p)
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


def _grow_boosted(Xt, presort, root_values, grad, hess, max_depth):
    """One squared-error tree on grad with Newton leaf values, grown depth
    first from the column blocks of presort, whose _block_values are
    root_values; returns it with its prediction for every training row."""
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
            found = _mse_split(block, *(root_values if node == 0 else _block_values(Xt, block)), grad)
        if found is None:
            value[node] = float(np.sum(gnode) / (np.sum(hess[idx]) + _NEWTON_EPS))
            fitted[idx] = value[node]
            continue
        j, i, thr = found
        goes_left[block[j, : i + 1]] = True
        in_idx = goes_left[idx]
        if depth + 1 < depth_cap:
            in_block = goes_left[block]
            blocks = block[~in_block].reshape(p, -1), block[in_block].reshape(p, -1)
        else:  # both children are leaves, which read only their rows
            blocks = None, None
        goes_left[block[j, : i + 1]] = False
        left_id = _split_node(tree, node, j, thr)
        # push right first so the left child is grown first
        stack.append((left_id + 1, idx[~in_idx], blocks[0], depth + 1))
        stack.append((left_id, idx[in_idx], blocks[1], depth + 1))
    return _Tree(*tree), fitted


def _value_codes(X, y, codes, values):
    """Fill one fit's tables: codes[r, j] = 2 * (dense rank of X[r, j] among
    column j's distinct values) + y[r], and values[k, j], column j's value of
    rank k."""
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    ranks = np.zeros(X.shape, dtype=np.int64)
    ranks[1:] = xs[1:] > xs[:-1]
    np.cumsum(ranks, axis=0, out=ranks)
    values[ranks, np.arange(X.shape[1])] = xs
    ranks *= 2
    np.put_along_axis(codes, order, ranks, axis=0)
    codes += y.astype(codes.dtype)[:, None]


def _gini_batch(codes, values, rows, n, start, size, ones, feats, voff, min_leaf):
    """Best Gini cut of each of a batch of nodes.

    Node s holds rows[start[s] : start[s] + size[s]] (row numbers of codes)
    with ones[s] positive labels, and may cut on the features feats[s]. Its
    fit's ranks run below n and its distinct values are values[voff[s] :].
    Returns, per node, whether a cut was found, its feature, threshold, left
    size and left positive count. Each cut node's rows are reordered in
    place so that its left child's rows come first.
    """
    p = codes.shape[1]
    n_nodes, f = feats.shape
    offset = np.cumsum(size) - size
    node_of_row = np.repeat(np.arange(n_nodes), size)
    r = rows[np.arange(len(node_of_row)) + np.repeat(start - offset, size)]
    # key = group * 2n + 2 * rank + label, group g = node g // f, feature slot g % f
    key = codes.ravel()[r[:, None] * p + feats[node_of_row]] + (
        np.arange(n_nodes * f).reshape(n_nodes, f) * (2 * n))[node_of_row]
    key = key.ravel()
    key.sort()
    csum = np.zeros(len(key) + 1, dtype=np.int64)
    np.cumsum(key & 1, out=csum[1:])

    # group g fills sorted cells [gstart[g], gstart[g] + gsize[g])
    gsize = np.repeat(size, f)
    gstart = np.cumsum(gsize) - gsize
    group_rank = key >> 1
    cut = np.flatnonzero(group_rank[1:] > group_rank[:-1])  # last cell of each run of one value
    g = group_rank[cut] // n
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
    new = np.empty(len(node), dtype=bool)
    new[0] = True
    np.not_equal(node[1:], node[:-1], out=new[1:])
    bounds = np.flatnonzero(new)
    best = np.minimum.reduceat(score, bounds)
    tie = np.where(score == best[np.cumsum(new) - 1], n_left * f + (g - node * f), np.iinfo(np.int64).max)
    tie = np.minimum.reduceat(tie, bounds)
    s = node[bounds]
    nl_best, k_best = np.divmod(tie, f)
    first = gstart[s * f + k_best]
    q = first + nl_best - 1
    j = feats[s, k_best]
    cut_rank = group_rank[q] % n
    found[s] = True
    feature[s] = j
    thr[s] = _threshold(values[voff[s] + cut_rank, j], values[voff[s] + group_rank[q + 1] % n, j])
    left_size[s] = nl_best
    left_ones[s] = csum[q + 1] - csum[first]

    # partition each cut node's rows on its chosen column alone, left child first
    m = size[s]
    first_of = np.repeat(np.cumsum(m) - m, m)
    span = np.arange(len(first_of)) - first_of
    base = np.repeat(start[s], m)
    r = rows[base + span]
    go_left = (codes.ravel()[r * p + np.repeat(j, m)] >> 1) <= np.repeat(cut_rank, m)
    left_rank = np.cumsum(go_left) - go_left
    left_rank -= left_rank[first_of]  # the node's left rows before this one
    rows[base + np.where(go_left, left_rank, np.repeat(nl_best, m) + span - left_rank)] = r
    return found, feature, thr, left_size, left_ones


class _FeatureDraws:
    """np.sort(rng.choice(p, f, replace=False)) for many streams at once.

    numpy's choice runs Floyd's algorithm: the pick for j = p - f, ..., p - 1
    is a bounded draw v in [0, j], or j itself when v was picked already.
    It then shuffles the picks, which takes f - 1 more bounded draws in
    [0, i] for i = f - 1, ..., 1. While j + 1 <= 2**32, each bounded draw is
    Lemire's method on the stream's next uint32, which draws again only on
    a rejection. So each stream's uint32s are read ahead into a buffer, and
    the next call of many streams is replayed from their next 2f - 1 draws
    as arrays. A stream whose call hits a rejection (chance below 2f * p /
    2**32 per call) is replayed one draw at a time. Where numpy tail-shuffles
    instead (p > 10000 and f > p // 50) or draws 64-bit values, every call
    is numpy's own.
    """

    def __init__(self, rngs, p, f):
        self.rngs, self.p, self.f = rngs, p, f
        self.by_numpy = p > 2**32 or (p > 10000 and f > p // 50)
        if f < p and not self.by_numpy:
            self.buf = np.stack([self._read(rng, _DRAW_NODES * (2 * f - 1)) for rng in rngs])
            self.pos = np.zeros(len(rngs), dtype=np.int64)
            # the number of values of each bounded draw: j + 1 for Floyd's, then i + 1 for the shuffle's
            self.bounds = np.concatenate((np.arange(p - f + 1, p + 1), np.arange(f, 1, -1))).astype(np.uint64)
            self.reject_below = (1 << 32) % self.bounds

    @staticmethod
    def _read(rng, count):
        return rng.integers(0, 2**32, size=count, dtype=np.uint32)

    def draw(self, streams):
        """The next sorted feature draw of each stream listed, one row per stream."""
        p, f = self.p, self.f
        if f >= p:
            return np.tile(np.arange(p), (len(streams), 1))
        if self.by_numpy:
            return np.array([np.sort(self.rngs[t].choice(p, size=f, replace=False)) for t in streams])
        streams = np.asarray(streams)
        need = 2 * f - 1
        buf, pos = self.buf, self.pos
        for t in streams[pos[streams] + need > buf.shape[1]]:
            buf[t] = np.concatenate((buf[t, pos[t] :], self._read(self.rngs[t], pos[t])))
            pos[t] = 0
        m = buf[streams[:, None], pos[streams, None] + np.arange(need)] * self.bounds
        rejected = ((m & 0xFFFFFFFF) < self.reject_below).any(axis=1)
        v = (m[:, :f] >> 32).astype(np.int64)
        picks = np.empty((len(streams), f), dtype=np.int64)
        for k in range(f):
            picks[:, k] = np.where((picks[:, :k] == v[:, k, None]).any(axis=1), p - f + k, v[:, k])
        pos[streams] += need
        for i in np.flatnonzero(rejected):
            t = streams[i]
            pos[t] -= need
            picks[i] = self._replay(t)
        return np.sort(picks, axis=1)

    def _replay(self, t):
        """Stream t's next call, one bounded draw at a time."""
        def bounded(values):  # Lemire's method with numpy's rejection rule
            while True:
                if self.pos[t] == self.buf.shape[1]:
                    self.buf[t] = self._read(self.rngs[t], self.buf.shape[1])
                    self.pos[t] = 0
                m = int(self.buf[t, self.pos[t]]) * values
                self.pos[t] += 1
                if m & 0xFFFFFFFF >= (1 << 32) % values:
                    return m >> 32

        p, f = self.p, self.f
        picks = set()
        for j in range(p - f, p):
            v = bounded(j + 1)
            picks.add(j if v in picks else v)
        for i in range(f - 1, 0, -1):
            bounded(i + 1)
        return sorted(picks)


def _grow_forest(labels, streams, designs, *, mtry, min_leaf, max_depth):
    """One Gini tree per stream, all grown in one lockstep: fit i's trees
    are one per generator in streams[i], each on a bootstrap sample of that
    fit's rows drawn from its generator, for the 0/1 labels[i] and the
    design designs[i]; the designs share one width.

    The fits' code and value tables are stacked, each fit's rows after the
    previous fits', and every tree's bootstrap rows are row numbers of the
    stack. Returns the trees in fit order, each fit's in stream order."""
    fit_n = np.array([len(y) for y in labels])
    fit_first = np.cumsum(fit_n) - fit_n
    per_fit = np.array([len(rngs) for rngs in streams])
    tree_n, voff = np.repeat(fit_n, per_fit), np.repeat(fit_first, per_fit)
    n_max, n_trees = int(fit_n.max()), len(tree_n)
    root_start = np.cumsum(tree_n) - tree_n
    labels = np.concatenate(labels).astype(np.int64)
    rows = np.empty(int(tree_n.sum()), dtype=np.int64)
    # each tree's positive bootstrap rows, counted as they are drawn: one
    # gather over all trees' rows would hold a second table as large as rows
    root_ones = np.empty(n_trees, dtype=np.int64)
    rngs = [rng for fit_rngs in streams for rng in fit_rngs]
    for t, (rng, n, lo, offset) in enumerate(zip(rngs, tree_n.tolist(), root_start.tolist(), voff.tolist())):
        rows[lo : lo + n] = rng.integers(0, n, size=n) + offset
        root_ones[t] = labels[rows[lo : lo + n]].sum()

    p = designs[0].shape[1]
    # a code is below 2 * n_max, so 32 bits hold it for fits of under 2**31 rows
    codes = np.zeros((len(labels), p), dtype=np.uint32)
    values = np.zeros((len(labels), p))
    for X, lo, hi in zip(designs, fit_first.tolist(), (fit_first + fit_n).tolist()):
        _value_codes(X, labels[lo:hi], codes[lo:hi], values[lo:hi])
    f = min(mtry if mtry is not None else max(1, math.ceil(math.sqrt(p))), p)
    depth_cap = math.inf if max_depth is None else max_depth
    draws = _FeatureDraws(rngs, p, f)

    # each tree's depth-first stack of (node, start, size, ones, depth) rows;
    # a node is numbered within its tree, in the order the tree made it
    stack = np.zeros((n_trees, 8, 5), dtype=np.int64)
    height = np.zeros(n_trees, dtype=np.int64)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    leaves, cuts = [], []  # (tree, node, value) and (tree, node, feature, threshold, left child)

    def place(t, node, start, size, ones, depth):
        # a node that is a leaf on sight draws no features, so it is settled
        # here instead of on the stack; t holds each tree at most once
        nonlocal stack
        leaf = (depth >= depth_cap) | (ones == 0) | (ones == size) | (size < 2 * min_leaf)
        leaves.append((t[leaf], node[leaf], ones[leaf] / size[leaf]))
        push = ~leaf
        t = t[push]
        if len(t) and height[t].max() == stack.shape[1]:
            stack = np.concatenate((stack, np.zeros_like(stack)), axis=1)
        stack[t, height[t]] = np.stack((node, start, size, ones, depth), axis=1)[push]
        height[t] += 1

    zeros = np.zeros(n_trees, dtype=np.int64)
    place(np.arange(n_trees), zeros, root_start, tree_n, root_ones, zeros)
    active = np.flatnonzero(height)
    while len(active):
        height[active] -= 1
        node, start, size, ones, depth = stack[active, height[active]].T
        feats = draws.draw(active)
        edges = np.flatnonzero(np.diff((np.cumsum(size * f) - 1) // _SPLIT_CELLS)) + 1
        batches = zip(*(np.split(a, edges) for a in (start, size, ones, feats, voff[active])))
        results = [_gini_batch(codes, values, rows, n_max, *batch, min_leaf) for batch in batches]
        found, j, thr, nl, ol = (np.concatenate(col) for col in zip(*results))
        settled = ~found
        leaves.append((active[settled], node[settled], ones[settled] / size[settled]))
        t = active[found]
        left = n_nodes[t]
        n_nodes[t] += 2
        cuts.append((t, node[found], j[found], thr[found], left))
        start, size, ones, depth, nl, ol = start[found], size[found], ones[found], depth[found] + 1, nl[found], ol[found]
        # push right first so the left child is grown (and draws features) first
        place(t, left + 1, start + nl, size - nl, ones - ol, depth)
        place(t, left, start, nl, ol, depth)
        active = np.flatnonzero(height)

    del codes, values, rows
    first = np.cumsum(n_nodes) - n_nodes
    feature, left, right = (np.full(int(n_nodes.sum()), -1) for _ in range(3))
    threshold, value = np.zeros(len(feature)), np.zeros(len(feature))
    for t, node, leaf_value in leaves:
        value[first[t] + node] = leaf_value
    for t, node, j, thr, left_id in cuts:
        at = first[t] + node
        feature[at], threshold[at], left[at], right[at] = j, thr, left_id, left_id + 1
    return [
        _Tree(*(a[lo:hi] for a in (feature, threshold, left, right, value)))
        for lo, hi in zip(first.tolist(), (first + n_nodes).tolist())
    ]


def lockstep_groups(shapes):
    """Lists of fit indices, one per lockstep, from each fit's (width,
    trees x training rows).

    A lockstep takes fits of one width, in order, while their bootstrap rows
    total at most _LOCKSTEP_ROWS; a fit above that grows alone. Locksteps
    come in the order of their first fit."""
    groups, open_by_width = [], {}
    for i, (width, boot_rows) in enumerate(shapes):
        group = open_by_width.get(width)
        if group is not None and group[1] + boot_rows <= _LOCKSTEP_ROWS:
            group[0].append(i)
            group[1] += boot_rows
        else:
            open_by_width[width] = [[i], boot_rows]
            groups.append(open_by_width[width][0])
    return groups


def fit_forests(forests, labels, designs):
    """Fit the i-th forest on labels[i] and designs[i], every forest's trees
    in one lockstep.

    The forests must share mtry, min_leaf and max_depth, and their designs
    one width."""
    labels = [np.asarray(y, dtype=float) for y in labels]
    designs = [np.asarray(X, dtype=float) for X in designs]
    if not all(np.all((y == 0) | (y == 1)) for y in labels):
        raise NumericError("random forest labels must be 0 or 1")
    for X, y in zip(designs, labels):
        if len(X) != len(y):
            raise NumericError(f"random forest design has {len(X)} rows for {len(y)} labels")
        if not np.isfinite(X).all():
            raise NumericError("random forest features must be finite")
    if len({X.shape[1] for X in designs}) > 1:
        raise NumericError("the forests of one lockstep must share their width")
    for name in ("mtry", "min_leaf", "max_depth"):
        values = [getattr(forest, name) for forest in forests]
        if any(value != values[0] for value in values):
            raise NumericError(f"forests fitted together must share {name}, got {values}")
    head = forests[0]
    streams = [[stream_rng(forest.seed, t) for t in range(forest.n_trees)] for forest in forests]
    trees = _grow_forest(labels, streams, designs, mtry=head.mtry, min_leaf=head.min_leaf, max_depth=head.max_depth)
    for forest in forests:
        forest.trees_, trees = trees[: forest.n_trees], trees[forest.n_trees :]


class RandomForest:
    """Bagged Gini trees; class probability = mean of leaf class fractions."""

    def __init__(self, *, n_trees, max_depth, mtry, min_leaf, seed):
        if n_trees < 1:
            raise NumericError(f"n_trees must be at least 1, got {n_trees}")
        if mtry is not None and mtry < 1:
            raise NumericError(f"mtry must be at least 1, got {mtry}")
        self.n_trees = int(n_trees)
        self.max_depth = max_depth
        self.mtry = mtry
        self.min_leaf = int(min_leaf)
        self.seed = seed
        self.trees_ = None

    def fit(self, X, y):
        fit_forests([self], [y], [X])
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        acc = np.zeros(len(X))
        for value in _predict_all(self.trees_, X):
            acc += value
        return acc / len(self.trees_)


def _logistic(score):
    """1 / (1 + exp(-score)); below a score of about -709 exp overflows to inf,
    which gives the limit 0 and is not an error."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-score))


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
        root_values = _block_values(Xt, presort)
        prev = float(np.clip(np.mean(y), 1e-12, 1 - 1e-12))
        self.base_score_ = float(np.log(prev / (1 - prev)))
        score = np.full(len(y), self.base_score_)
        self.trees_ = []
        self.train_losses_ = [self._mean_logloss(y, score)]
        for _ in range(self.n_rounds):
            prob = _logistic(score)
            grad = y - prob
            hess = prob * (1.0 - prob)
            tree, fitted = _grow_boosted(Xt, presort, root_values, grad, hess, self.max_depth)
            score = score + self.learning_rate * fitted
            self.trees_.append(tree)
            self.train_losses_.append(self._mean_logloss(y, score))
        return self

    def decision_function(self, X):
        X = np.asarray(X, dtype=float)
        score = np.full(len(X), self.base_score_)
        for value in _predict_all(self.trees_, X):
            score += self.learning_rate * value
        return score

    def predict_proba(self, X):
        return _logistic(self.decision_function(X))
