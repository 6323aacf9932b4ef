"""Kaplan-Meier estimation and median-split joint risk strata.

At a tied time, deaths precede censorings: a subject censored at t still
counts in the risk set of events at t. Curves step only at event times.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

STRATUM_LABELS = ("low_low", "high_clin_only", "high_gen_only", "high_both")


@dataclass(frozen=True)
class KMCurve:
    times: np.ndarray  # strictly increasing event times
    survival: np.ndarray  # product-limit estimate at each event time
    events: np.ndarray  # deaths at each event time
    at_risk: np.ndarray  # risk-set size just before each event time
    n_start: int

    def survival_at(self, t: float) -> float:
        """Right-continuous step value; 1 before the first event."""
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        return 1.0 if j < 0 else float(self.survival[j])


@dataclass(frozen=True)
class StratumAssignment:
    labels: np.ndarray  # per-patient label from STRATUM_LABELS
    median_clin: float
    median_gen: float


@dataclass(frozen=True)
class StrataKMResult:
    curves: dict
    omitted: dict  # label -> size, for strata below the size threshold
    sizes: dict


def kaplan_meier(times, events) -> KMCurve:
    """Product-limit survival curve for right-censored follow-up."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    if len(times) != len(events):
        raise DataError("times and events must align")
    if len(times) == 0:
        raise DataError("empty survival input")
    if np.any(times < 0) or np.any(np.isnan(times)):
        raise DataError("follow-up times must be nonnegative")
    if not np.all(np.isin(events, (0, 1))):
        raise DataError("event indicators must be 0 or 1")

    event_times, d = np.unique(times[events == 1], return_counts=True)
    sorted_times = np.sort(times)
    n = len(times)
    r = n - np.searchsorted(sorted_times, event_times, side="left").astype(float)
    surv = np.cumprod(1.0 - d / r)
    return KMCurve(times=event_times, survival=surv, events=d, at_risk=r.astype(int), n_start=n)


def joint_strata(p_clin, p_gen) -> StratumAssignment:
    """Four-quadrant labels from the per-score medians, ties on the low side."""
    p_clin = np.asarray(p_clin, dtype=float)
    p_gen = np.asarray(p_gen, dtype=float)
    if len(p_clin) != len(p_gen):
        raise DataError("score vectors must align")
    if len(p_clin) < 4:
        raise DataError("need at least four patients to form quadrants")
    for name, x in (("clinical", p_clin), ("genomic", p_gen)):
        if np.all(x == x[0]):
            warnings.warn(f"{name} scores are constant; every patient falls on the low side")
    m_clin = float(np.median(p_clin))
    m_gen = float(np.median(p_gen))
    high_c = p_clin > m_clin
    high_g = p_gen > m_gen
    labels = np.where(
        high_c & high_g,
        "high_both",
        np.where(high_c, "high_clin_only", np.where(high_g, "high_gen_only", "low_low")),
    )
    return StratumAssignment(labels=labels, median_clin=m_clin, median_gen=m_gen)


def strata_km(assignment: StratumAssignment, times, events, min_size: int) -> StrataKMResult:
    """Kaplan-Meier curve per stratum over full follow-up; small strata are
    left out and reported."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    if len(times) != len(assignment.labels) or len(events) != len(times):
        raise DataError("strata, times and events must align")
    curves = {}
    omitted = {}
    sizes = {}
    for label in STRATUM_LABELS:
        mask = assignment.labels == label
        size = int(mask.sum())
        sizes[label] = size
        if size == 0:
            continue
        if size < min_size:
            omitted[label] = size
            continue
        curves[label] = kaplan_meier(times[mask], events[mask])
    if not curves:
        raise DataError(f"every stratum falls below the size threshold {min_size}")
    return StrataKMResult(curves=curves, omitted=omitted, sizes=sizes)
