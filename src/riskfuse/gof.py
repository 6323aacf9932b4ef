"""Copula goodness-of-fit: empirical-copula CvM distance, bootstrap calibration.

The observed statistic compares the empirical copula with the fitted family
at the sample points. Its null distribution is simulated by drawing replicate
samples from the fitted copula, re-ranking them, refitting the parameter by
tau-inversion, and recomputing the statistic; the p-value is the smoothed
exceedance fraction (1 + #{S_b >= S}) / (B + 1).

C_n at the sample points and Kendall's tau share one O(n log n) ordering of
the sample (``ranks.rank_pass``). Any other query points, such as a plotting
grid, are counted by the same rank pass over the sample and the queries
together.

The bootstrap works on blocks of replicates. Each replicate still draws from
its own RNG stream, and the draws of consecutive replicates are stacked into
a (rows, m) block. The rank pass (whose margin ranks are also the
pseudo-observations), the refit (one parameter per row), the fitted copula
and the per-row mean of the sorted squared gaps then run once per block, so
numpy's fixed cost per call is paid once for many replicates instead of once
per replicate. Every step works row by row, so each statistic has the bits a
replicate scored on its own would get. A block holds at most _BLOCK_POINTS
points, or one replicate if m is larger: every step keeps (rows, m)
temporaries, and larger blocks cost more memory than they save time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .copulas import CopulaModel, FAMILIES, copula_cdf, fit_clamps, fit_family, sample
from .copulas import kendall_tau, pseudo_observations  # noqa: F401  perfbench/tracer.py wraps these names here
from .errors import DataError, NumericError
from .ranks import RankPass, rank_pass
from .seeding import stream_rng

# points per bootstrap block. Peak memory grows with the block: on Gaussian
# `fuse gof --B 1000` at n = 1783 it was 1% above one replicate at a time at
# 8,192 points, 4% at 16,384 and 11% at 32,768, while the run took 17% less
# time than one replicate at a time at 8,192 points and only 3% and 5% less
# again at the larger blocks
_BLOCK_POINTS = 8192


@dataclass(frozen=True)
class GofResult:
    family: str
    statistic: float
    n_boot: int
    replicate_size: int
    p_value: float
    model: CopulaModel
    degenerate_fit: bool = False  # the fit clamped its parameter (see copulas.fit_clamps)
    replicates: np.ndarray | None = None  # the B null statistics

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "statistic": self.statistic,
            "B": self.n_boot,
            "m": self.replicate_size,
            "p_value": self.p_value,
            "degenerate_fit": self.degenerate_fit,
        }


def empirical_copula(u_sample, v_sample, u, v):
    """C_n(u, v) = fraction of sample pairs dominated by (u, v) componentwise.

    A query's count is its rank-pass dominance among the sample and the
    queries together, less its dominance among the queries alone. Both count
    ``<=`` exactly, identical pairs included, so the difference is the exact
    number of sample pairs dominated by the query.
    """
    u_sample = np.asarray(u_sample, dtype=float)
    v_sample = np.asarray(v_sample, dtype=float)
    if len(u_sample) != len(v_sample) or len(u_sample) == 0:
        raise DataError("sample arrays must be non-empty and equally long")
    if not (np.isfinite(u_sample).all() and np.isfinite(v_sample).all()):
        raise DataError("sample arrays must be finite")
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    uq, vq = u.ravel(), v.ravel()
    if not (np.isfinite(uq).all() and np.isfinite(vq).all()):
        raise DataError("query points must be finite")
    if uq.size == 0:
        return np.zeros(u.shape)  # rank_pass needs at least one point
    n = len(u_sample)
    together = rank_pass(np.concatenate([u_sample, uq]), np.concatenate([v_sample, vq]))
    counts = together.dominance[n:] - rank_pass(uq, vq).dominance
    out = (counts / n).reshape(u.shape)
    return float(out) if out.ndim == 0 else out


def cvm_statistic(u, v, model: CopulaModel, ranks: RankPass | None = None):
    """Mean squared gap between empirical and fitted copula at the sample points.

    The gaps are summed in increasing order, so permuting the pairs leaves
    every bit of the statistic. ``ranks`` is the sample's ``rank_pass`` when
    the caller already has it. A (rows, n) block gives one statistic per row,
    with ``model.param`` a float or a column of one parameter per row.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim not in (1, 2) or u.shape[-1] < 2:
        raise DataError("statistic needs at least two aligned pairs")
    if ranks is None:
        ranks = rank_pass(u, v)
    emp = ranks.dominance / u.shape[-1]
    fit = copula_cdf(model, u, v)
    stat = np.mean(np.sort((emp - fit) ** 2, axis=-1), axis=-1)
    return float(stat) if stat.ndim == 0 else stat


def parametric_bootstrap(
    u,
    v,
    family: str,
    n_boot: int,
    replicate_size: int | None,
    seed: int,
    refit: bool,
) -> GofResult:
    """Bootstrap-calibrated CvM test of one copula family against the sample.

    Replicates are ``replicate_size`` pairs, or the sample size when that is
    None; each uses its own RNG stream keyed by (seed, family, replicate).
    A tau at which the family's fit clamps its parameter (``fit_clamps``)
    still runs and is flagged degenerate. A refitted replicate with tau +-1, likely
    at a small ``replicate_size``, raises a ``NumericError`` naming it.
    """
    if n_boot < 1:
        raise NumericError("bootstrap requires at least one replicate")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = len(u)
    if n != len(v) or n < 2:
        raise DataError("bootstrap needs at least two aligned pairs")
    m = n if replicate_size is None else int(replicate_size)
    if m < 2:
        raise NumericError("replicate size must be at least 2")

    observed = rank_pass(u, v)  # one ranking for tau and the statistic
    tau_hat = observed.tau()
    model_hat = fit_family(family, tau_hat)
    degenerate = fit_clamps(family, tau_hat)
    stat = cvm_statistic(u, v, model_hat, observed)

    stream = FAMILIES.index(family)
    rows = max(1, _BLOCK_POINTS // m)
    reps = np.empty(n_boot)
    for first in range(0, n_boot, rows):
        draws = [sample(model_hat, m, stream_rng(seed, stream, b)) for b in range(first, min(first + rows, n_boot))]
        # ranking the draws gives the counts of their pseudo-observations too
        ranks = rank_pass(np.array([u_b for u_b, _ in draws]), np.array([v_b for _, v_b in draws]))
        u_rep, v_rep = ranks.pseudo_observations()
        model = model_hat
        if refit:
            params = []
            for b, tau in enumerate(ranks.tau().tolist(), start=first):
                try:
                    params.append(fit_family(family, tau).param)
                except NumericError as exc:  # a small replicate can be perfectly ordered
                    raise NumericError(f"{family} bootstrap replicate {b + 1} of {n_boot} (m = {m} pairs) has "
                                       f"Kendall tau {tau!r}: {exc}; a larger m avoids it") from exc
            model = replace(model_hat, param=np.array(params)[:, None])
        reps[first : first + len(draws)] = cvm_statistic(u_rep, v_rep, model, ranks)

    p_value = (1.0 + float(np.sum(reps >= stat))) / (n_boot + 1.0)
    return GofResult(
        family=family,
        statistic=stat,
        n_boot=n_boot,
        replicate_size=m,
        p_value=p_value,
        model=model_hat,
        degenerate_fit=degenerate,
        replicates=reps,
    )


def select_best_copula(results: list[GofResult]) -> GofResult:
    """Largest p-value; ties fall to the smaller statistic, then family order."""
    if not results:
        raise DataError("no goodness-of-fit results to select from")
    order = {fam: i for i, fam in enumerate(FAMILIES)}
    return max(results, key=lambda r: (r.p_value, -r.statistic, -order[r.family]))
