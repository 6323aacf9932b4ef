"""Rank kernels shared by the copula fit, its goodness-of-fit test and ROC-AUC.

``rank_pass`` sorts a bivariate sample once, lexicographically by (u, v),
and reads off everything the copula layer needs from that order:

* the dominance count #{j : u_j <= u_i, v_j <= v_i} of every sample point,
  which is n times the empirical copula C_n(u_i, v_i);
* the discordant pairs behind Kendall's tau (Knight 1966);
* the pairs tied in u, in v and in both, from run lengths of sorted arrays.

The dominance counts come from a blocked merge count, O(n log n): along the
(u, v) order, count for each point the earlier points whose v is not larger,
then add the identical pairs that sort after it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DataError

_MERGE_BLOCK = 32  # widest base block compared pairwise in one vectorized step


def _run_starts(s: np.ndarray) -> np.ndarray:
    """True where a sorted sequence starts a run of equal values."""
    start = np.empty(len(s), dtype=bool)
    start[:1] = True
    start[1:] = s[1:] != s[:-1]
    return start


def average_ranks(x) -> np.ndarray:
    """1-based ranks, ties replaced by the mean rank of the tied block."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    order = np.argsort(x, kind="stable")
    run_start = _run_starts(x[order])
    run_id = np.cumsum(run_start) - 1
    starts = np.flatnonzero(run_start)
    ends = np.append(starts[1:], n)
    mean_rank = 0.5 * (starts + ends - 1) + 1.0
    ranks = np.empty(n)
    ranks[order] = mean_rank[run_id]
    return ranks


def _require_finite(x: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(x))
    if len(bad):
        raise DataError(f"{what} must be finite; entry {int(bad[0])} is {x[bad[0]]}")


def pseudo_observations(x) -> np.ndarray:
    """Map scores to (0,1) via rank / (n + 1), average ranks on ties."""
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise DataError("pseudo-observations need at least two values")
    _require_finite(x, "scores")
    return average_ranks(x) / (len(x) + 1.0)


def _earlier_smaller(q: np.ndarray) -> np.ndarray:
    """c[i] = #{j < i : q[j] < q[i]} for a permutation q of range(n).

    Blocks of at most _MERGE_BLOCK positions are counted pairwise. Sibling
    blocks are then merged level by level; at each level every element of a
    right-hand block counts the smaller values of its left sibling, with one
    searchsorted over all sibling pairs of the level.
    """
    n = len(q)
    levels = max(0, int(np.ceil(np.log2(n / _MERGE_BLOCK))))
    width = -(-n // (1 << levels))
    size = width << levels
    # padding sorts after every real element in both position and value
    q = np.concatenate([q, np.arange(n, size)])

    runs = q.reshape(-1, width)
    earlier = np.tri(width, k=-1, dtype=bool)
    by_value = np.empty(size, dtype=np.intp)  # counts indexed by the value q[i]
    by_value[q] = ((runs[:, None, :] < runs[:, :, None]) & earlier).sum(axis=2).ravel()
    runs = np.sort(runs, axis=1)
    while len(runs) > 1:
        pairs, w = len(runs) // 2, runs.shape[1]
        # offset every sibling pair by a multiple of size so one searchsorted serves them all
        pair = np.arange(pairs)[:, None]
        right = runs[1::2]
        below = np.searchsorted((runs[0::2] + pair * size).ravel(), right + pair * size) - pair * w
        by_value[right] += below
        runs = np.sort(runs.reshape(pairs, 2 * w), axis=1)
    return by_value[q[:n]]


def _tied_pairs(run_start: np.ndarray) -> int:
    """Pairs inside the runs of a sorted sequence, given where each run starts."""
    lengths = np.diff(np.append(np.flatnonzero(run_start), len(run_start)))
    return int(np.sum(lengths * (lengths - 1) // 2))


class RankPass(NamedTuple):
    """What one lexicographic sort of a bivariate sample yields."""

    dominance: np.ndarray  # n * C_n(u_i, v_i), in sample order
    discordant: int  # pairs ordered one way by u and strictly the other by v
    ties_u: int
    ties_v: int
    ties_uv: int

    def tau(self) -> float:
        """Kendall's tau-a: tied pairs count zero against all pairs."""
        n = len(self.dominance)
        if n < 2:
            raise DataError("Kendall's tau needs at least two pairs")
        n0 = n * (n - 1) // 2
        return (n0 - self.ties_u - self.ties_v + self.ties_uv - 2 * self.discordant) / n0


def rank_pass(u, v) -> RankPass:
    """Dominance counts, discordant pairs and tie counts of a bivariate sample."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 1 or u.shape != v.shape:
        raise DataError("vectors must be one-dimensional and of equal length")
    n = len(u)
    if n == 0:
        raise DataError("rank statistics need at least one pair")
    _require_finite(u, "u")
    _require_finite(v, "v")

    order = np.lexsort((v, u))
    us, vs = u[order], v[order]
    by_v = np.argsort(vs, kind="stable")
    # rank of each point in v, ties broken by (u, v) order: for j before i,
    # v_j <= v_i exactly when rank_j < rank_i
    rank_v = np.empty(n, dtype=np.intp)
    rank_v[by_v] = np.arange(n)
    earlier = _earlier_smaller(rank_v)

    new_u = _run_starts(us)
    new_v = _run_starts(vs[by_v])
    new_uv = new_u | _run_starts(vs)

    # identical pairs that sort after a point are dominated by it as well
    starts = np.flatnonzero(new_uv)
    run_end = np.append(starts[1:], n)[np.cumsum(new_uv) - 1]
    dominance = np.empty(n, dtype=np.intp)
    dominance[order] = earlier + run_end - np.arange(n)

    return RankPass(
        dominance=dominance,
        discordant=n * (n - 1) // 2 - int(earlier.sum()),
        ties_u=_tied_pairs(new_u),
        ties_v=_tied_pairs(new_v),
        ties_uv=_tied_pairs(new_uv),
    )


def kendall_tau(u, v) -> float:
    """Kendall's tau-a from one ``rank_pass``."""
    return rank_pass(u, v).tau()
