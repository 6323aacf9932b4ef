"""Ranking metrics: ROC-AUC in the rank-statistic form, ROC curve points."""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .ranks import average_ranks


def roc_auc(scores, y) -> float:
    """Probability a random event outranks a random non-event, ties counting half."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y)
    n1 = int(np.sum(y == 1))
    n0 = int(np.sum(y == 0))
    if n1 == 0 or n0 == 0:
        raise DataError("ROC-AUC needs both classes present")
    ranks = average_ranks(scores)
    r1 = float(np.sum(ranks[y == 1]))
    return (r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def roc_points(scores, y) -> tuple[np.ndarray, np.ndarray]:
    """ROC polyline vertices (fpr, tpr) from (0,0) to (1,1), thresholds descending."""
    scores = np.asarray(scores, dtype=float)
    y = np.asarray(y)
    n1 = int(np.sum(y == 1))
    n0 = int(np.sum(y == 0))
    if n1 == 0 or n0 == 0:
        raise DataError("ROC curve needs both classes present")
    order = np.argsort(-scores, kind="stable")
    ys = y[order]
    ss = scores[order]
    tps = np.cumsum(ys == 1)
    fps = np.cumsum(ys == 0)
    # keep one vertex per distinct threshold
    last_of_threshold = np.flatnonzero(np.append(ss[1:] != ss[:-1], True))
    tpr = np.concatenate([[0.0], tps[last_of_threshold] / n1])
    fpr = np.concatenate([[0.0], fps[last_of_threshold] / n0])
    return fpr, tpr
