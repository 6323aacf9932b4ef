"""Copula goodness-of-fit: empirical-copula CvM distance, bootstrap calibration.

The observed statistic compares the empirical copula with the fitted family
at the sample points. Its null distribution is simulated by drawing replicate
samples from the fitted copula, re-ranking them, refitting the parameter by
tau-inversion, and recomputing the statistic; the p-value is the smoothed
exceedance fraction (1 + #{S_b >= S}) / (B + 1).

C_n at the sample points and Kendall's tau share one O(n log n) sort of the
sample (``ranks.rank_pass``); each replicate sorts once for both its refit
and its statistic. Any other query points, such as a plotting grid, are
counted by the same rank pass over the sample and the queries together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import CopulaModel, FAMILIES, copula_cdf, fit_family, kendall_tau, pseudo_observations, sample
from .errors import DataError, NumericError
from .ranks import RankPass, rank_pass
from .seeding import stream_rng


@dataclass(frozen=True)
class GofResult:
    family: str
    statistic: float
    n_boot: int
    replicate_size: int
    p_value: float
    model: CopulaModel
    degenerate_fit: bool = False  # parameter pinned at a bound (e.g. Clayton floor)
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


def cvm_statistic(u, v, model: CopulaModel, ranks: RankPass | None = None) -> float:
    """Mean squared gap between empirical and fitted copula at the sample points.

    ``ranks`` is the sample's ``rank_pass`` when the caller already has it.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if len(u) != len(v) or len(u) < 2:
        raise DataError("statistic needs at least two aligned pairs")
    if ranks is None:
        ranks = rank_pass(u, v)
    emp = ranks.dominance / len(u)
    fit = copula_cdf(model, u, v)
    return float(np.mean((emp - fit) ** 2))


def _one_replicate(model_hat, family, m, seed, b, refit):
    rng = stream_rng(seed, FAMILIES.index(family), b)
    u_rep, v_rep = sample(model_hat, m, rng)
    u_rep = pseudo_observations(u_rep)
    v_rep = pseudo_observations(v_rep)
    ranks = rank_pass(u_rep, v_rep)
    model_b = fit_family(family, ranks.tau()) if refit else model_hat
    return cvm_statistic(u_rep, v_rep, model_b, ranks)


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
    A non-positive tau pins Clayton at its parameter floor; the fit still
    runs and is flagged degenerate.
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

    tau_hat = kendall_tau(u, v)
    model_hat = fit_family(family, tau_hat)
    degenerate = family == "clayton" and tau_hat <= 0
    stat = cvm_statistic(u, v, model_hat)

    reps = np.array([_one_replicate(model_hat, family, m, seed, b, refit) for b in range(n_boot)])

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
