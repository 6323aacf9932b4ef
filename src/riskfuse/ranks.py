"""Rank kernels shared by the copula fit, its goodness-of-fit test and ROC-AUC.

``rank_pass`` orders a bivariate sample once, lexicographically by (u, v),
and reads off everything the copula layer needs from that order:

* the dominance count #{j : u_j <= u_i, v_j <= v_i} of every sample point,
  which is n times the empirical copula C_n(u_i, v_i);
* the discordant pairs behind Kendall's tau (Knight 1966);
* the pairs tied in u, in v and in both, from run lengths of sorted arrays.

The dominance counts come from a blocked merge count, O(n log n): along the
(u, v) order, count for each point the earlier points whose v is not larger,
then add the identical pairs that sort after it.

Every kernel works along the last axis, so a (rows, n) block of bootstrap
replicates is ranked in one call; a 1-D sample is the one-row case.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DataError

_MERGE_BLOCK = 32  # widest base block compared pairwise in one vectorized step


def _run_starts(s: np.ndarray) -> np.ndarray:
    """True where s, sorted along its last axis, starts a run of equal values."""
    start = np.ones(s.shape, dtype=bool)
    start[..., 1:] = s[..., 1:] != s[..., :-1]
    return start


def _run_first(start: np.ndarray) -> np.ndarray:
    """Position of the first element of each element's run, given where runs start."""
    pos = np.arange(start.shape[-1])
    return np.maximum.accumulate(np.where(start, pos, 0), axis=-1)


def _run_last(start: np.ndarray) -> np.ndarray:
    """Position of the last element of each element's run, given where runs start."""
    ends = np.ones_like(start)
    ends[..., :-1] = start[..., 1:]
    return start.shape[-1] - 1 - _run_first(ends[..., ::-1])[..., ::-1]


def average_ranks(x) -> np.ndarray:
    """1-based ranks along the last axis, ties replaced by the mean rank of the tied block."""
    x = np.asarray(x, dtype=float)
    # the mean rank of a tied block does not depend on the order inside it
    order = np.argsort(x, axis=-1)
    run_start = _run_starts(np.take_along_axis(x, order, axis=-1))
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, 0.5 * (_run_first(run_start) + _run_last(run_start)) + 1.0, axis=-1)
    return ranks


def _require_finite(x: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise DataError(f"{what} must be finite; entry {int(bad[0])} is {x.flat[bad[0]]}")


def pseudo_observations(x) -> np.ndarray:
    """Map scores to (0,1) via rank / (n + 1) along the last axis, average ranks on ties."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise DataError("pseudo-observations need at least two values")
    _require_finite(x, "scores")
    return average_ranks(x) / (x.shape[-1] + 1.0)


def _earlier_smaller(q: np.ndarray) -> np.ndarray:
    """c[r, i] = #{j < i : q[r, j] < q[r, i]} for rows q[r] that permute range(n).

    Blocks of at most _MERGE_BLOCK positions are counted pairwise. Sibling
    blocks are then merged level by level; at each level every element of a
    right-hand block counts the smaller values of its left sibling, with one
    searchsorted over all sibling pairs of the level in every row.
    """
    rows, n = q.shape
    levels = max(0, int(np.ceil(np.log2(n / _MERGE_BLOCK))))
    width = -(-n // (1 << levels))
    size = width << levels
    # padding sorts after every real element in both position and value, and
    # each row is offset by a multiple of size so that values name elements
    q = np.concatenate([q, np.broadcast_to(np.arange(n, size), (rows, size - n))], axis=1)
    q += np.arange(rows)[:, None] * size
    total = rows * size

    runs = q.reshape(-1, width)
    earlier = np.tri(width, k=-1, dtype=bool)
    by_value = np.empty(total, dtype=np.intp)  # counts indexed by the value q[r, i]
    by_value[runs] = ((runs[:, None, :] < runs[:, :, None]) & earlier).sum(axis=2)
    runs = np.sort(runs, axis=1)
    while len(runs) > rows:
        pairs, w = len(runs) // 2, runs.shape[1]
        # offset every sibling pair by a multiple of total so one searchsorted serves them all
        pair = np.arange(pairs)[:, None]
        right = runs[1::2]
        below = np.searchsorted((runs[0::2] + pair * total).ravel(), right + pair * total) - pair * w
        by_value[right] += below
        runs = np.sort(runs.reshape(pairs, 2 * w), axis=1)
    return by_value[q[:, :n]]


def _tied_pairs(run_start: np.ndarray):
    """Pairs inside the runs along the last axis: each element pairs with the earlier ones of its run."""
    return (np.arange(run_start.shape[-1]) - _run_first(run_start)).sum(axis=-1)


class RankPass(NamedTuple):
    """What one lexicographic ordering of a bivariate sample yields.

    For a (rows, n) block every field has one entry per row.
    """

    dominance: np.ndarray  # n * C_n(u_i, v_i), in sample order
    discordant: int | np.ndarray  # pairs ordered one way by u and strictly the other by v
    ties_u: int | np.ndarray
    ties_v: int | np.ndarray
    ties_uv: int | np.ndarray
    ranks_u: np.ndarray  # average_ranks of u, in sample order
    ranks_v: np.ndarray

    def tau(self):
        """Kendall's tau-a: tied pairs count zero against all pairs."""
        n = self.dominance.shape[-1]
        if n < 2:
            raise DataError("Kendall's tau needs at least two pairs")
        n0 = n * (n - 1) // 2
        return (n0 - self.ties_u - self.ties_v + self.ties_uv - 2 * self.discordant) / n0

    def pseudo_observations(self) -> tuple[np.ndarray, np.ndarray]:
        """Both margins as ``pseudo_observations`` maps them, from the ranks already taken."""
        n = self.dominance.shape[-1]
        return self.ranks_u / (n + 1.0), self.ranks_v / (n + 1.0)


def rank_pass(u, v) -> RankPass:
    """Dominance counts, discordant pairs and tie counts of a bivariate sample.

    ``u`` and ``v`` are 1-D samples, or (rows, n) blocks ranked row by row.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim not in (1, 2) or u.shape != v.shape:
        raise DataError("vectors must be one-dimensional (or rows of a block) and of equal length")
    n = u.shape[-1]
    if n == 0:
        raise DataError("rank statistics need at least one pair")
    _require_finite(u, "u")
    _require_finite(v, "v")

    ranks_u = average_ranks(np.atleast_2d(u))
    ranks_v = average_ranks(np.atleast_2d(v))
    # twice the average ranks: integers that order and tie exactly as the values do
    ru = (2.0 * ranks_u).astype(np.intp)
    rv = (2.0 * ranks_v).astype(np.intp)
    pos = np.arange(n)
    order = np.argsort(ru * (2 * n + 1) + rv, axis=-1)  # lexicographic by (u, v)
    us = np.take_along_axis(ru, order, axis=-1)
    vs = np.take_along_axis(rv, order, axis=-1)
    by_v = np.argsort(vs * n + pos, axis=-1)
    # rank of each point in v, ties broken by (u, v) order: for j before i,
    # v_j <= v_i exactly when rank_j < rank_i
    rank_v = np.empty_like(by_v)
    np.put_along_axis(rank_v, by_v, np.broadcast_to(pos, by_v.shape), axis=-1)
    earlier = _earlier_smaller(rank_v)

    new_u = _run_starts(us)
    new_v = _run_starts(np.take_along_axis(vs, by_v, axis=-1))
    new_uv = new_u | _run_starts(vs)

    # identical pairs that sort after a point are dominated by it as well
    dominance = np.empty_like(earlier)
    np.put_along_axis(dominance, order, earlier + _run_last(new_uv) + 1 - pos, axis=-1)

    counts = (n * (n - 1) // 2 - earlier.sum(axis=-1), _tied_pairs(new_u), _tied_pairs(new_v), _tied_pairs(new_uv))
    if u.ndim == 1:
        return RankPass(dominance[0], *(int(c[0]) for c in counts), ranks_u[0], ranks_v[0])
    return RankPass(dominance, *counts, ranks_u, ranks_v)


def kendall_tau(u, v) -> float:
    """Kendall's tau-a from one ``rank_pass``."""
    return rank_pass(u, v).tau()
