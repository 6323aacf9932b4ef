"""Leakage-free tabular preprocessing fitted on training rows only.

Numeric columns: median imputation then (x - mean) / sd with the sample
standard deviation (n - 1). Categorical columns: mode imputation then full
one-hot encoding over the categories seen in training, first-seen order.
Unseen test categories encode to an all-zero block.

A fitted preprocessor is a tuple with one ``(name, kind, stats)`` entry per
view column, in column order. ``stats`` is ``(median, mean, sd)`` for a
numeric column, where sd 0 flags a constant (or unobserved) column, and
``(mode, categories)`` for a categorical one.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .cohort import CohortTable
from .errors import DataError

MISSING_CATEGORY = "__missing__"


def _numeric_stats(obs):
    """(median, mean, sample sd) of a column's observed values, by the
    operations np.median, np.mean and np.std(ddof=1) perform: one partition
    with np.median's kth list, one sum and one sum of squared deviations.
    Reorders obs in place."""
    n = len(obs)
    mean = obs.sum() / n
    sd = 0.0
    if n >= 2:
        dev = obs - mean
        sd = float(np.sqrt(np.square(dev, out=dev).sum() / (n - 1)))
    half = n // 2
    middle = [half] if n % 2 else [half - 1, half]
    obs.partition(middle + [-1])
    # summed as np.median's mean sums them, onto 0.0, which turns -0.0 into 0.0
    median = obs[middle[0] : half + 1].sum() / len(middle)
    return float(median), float(mean), sd


def fit_preprocessor(view: CohortTable, train_rows: np.ndarray) -> tuple:
    """Fit imputation / scaling / encoding statistics from training rows only."""
    train_rows = np.asarray(train_rows)
    if len(train_rows) == 0:
        raise DataError("cannot fit preprocessor on zero training rows")
    fitted = []
    for col in view.columns:
        vals = col.values[train_rows]
        if col.kind == "numeric":
            obs = vals[~np.isnan(vals)]
            if len(obs) == 0:
                # entirely missing in training: impute to 0 on the standardized scale
                stats = (0.0, 0.0, 0.0)
            else:
                stats = _numeric_stats(obs)
        else:
            seen = Counter(v for v in vals if v is not None)
            if not seen:
                stats = (MISSING_CATEGORY, (MISSING_CATEGORY,))
            else:
                # mode = most frequent, first-seen breaks ties
                stats = (max(seen, key=lambda c: seen[c]), tuple(seen))
        fitted.append((col.name, col.kind, stats))
    return tuple(fitted)


def transform(pre: tuple, view: CohortTable, rows: np.ndarray) -> np.ndarray:
    """Impute, standardize and one-hot encode the given rows into a float matrix."""
    if [(c.name, c.kind) for c in view.columns] != [(name, kind) for name, kind, _ in pre]:
        raise DataError("view schema does not match the fitted preprocessor")
    rows = np.asarray(rows)
    blocks = []
    for col, (name, kind, stats) in zip(view.columns, pre):
        vals = col.values[rows]
        if kind == "numeric":
            median, mean, sd = stats
            x = vals.astype(float)
            x = np.where(np.isnan(x), median, x)
            if sd > 0:
                z = (x - mean) / sd
            else:
                z = np.zeros(len(rows))
            if not np.isfinite(z).all():
                raise DataError(f"feature column {name!r} contains non-finite entries")
            if not np.isfinite(sd):  # an overflowing sd scales every value to zero
                raise DataError(f"feature column {name!r} has a non-finite training sd")
            blocks.append(z[:, None])
        else:
            mode, categories = stats
            index = {cat: i for i, cat in enumerate(categories)}
            # an unseen category's code -1 matches no column: its row is all-zero
            codes = np.fromiter((index.get(mode if v is None else v, -1) for v in vals), np.int64, len(vals))
            blocks.append((codes[:, None] == np.arange(len(categories))).astype(float))
    return np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
