"""Leakage-free tabular preprocessing fitted on training rows only.

Numeric columns: median imputation then (x - mean) / sd with the sample
standard deviation (n - 1). Categorical columns: mode imputation then full
one-hot encoding over the categories seen in training, first-seen order.
Unseen test categories encode to an all-zero block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import CohortTable
from .errors import DataError


@dataclass(frozen=True)
class NumericStats:
    median: float
    mean: float
    sd: float  # 0 flags a constant (or unobserved) column


@dataclass(frozen=True)
class CategoricalStats:
    mode: str
    categories: tuple[str, ...]


@dataclass(frozen=True)
class Preprocessor:
    schema: tuple[tuple[str, str], ...]  # (name, kind) pairs, input order
    numeric: dict
    categorical: dict


MISSING_CATEGORY = "__missing__"


def fit_preprocessor(view: CohortTable, train_rows: np.ndarray) -> Preprocessor:
    """Fit imputation / scaling / encoding statistics from training rows only."""
    train_rows = np.asarray(train_rows)
    if len(train_rows) == 0:
        raise DataError("cannot fit preprocessor on zero training rows")
    numeric = {}
    categorical = {}
    for col in view.columns:
        vals = col.values[train_rows]
        if col.kind == "numeric":
            obs = vals[~np.isnan(vals)]
            if len(obs) == 0:
                # entirely missing in training: impute to 0 on the standardized scale
                numeric[col.name] = NumericStats(median=0.0, mean=0.0, sd=0.0)
            else:
                sd = float(np.std(obs, ddof=1)) if len(obs) >= 2 else 0.0
                numeric[col.name] = NumericStats(
                    median=float(np.median(obs)), mean=float(np.mean(obs)), sd=sd
                )
        else:
            seen: dict[str, int] = {}
            for v in vals:
                if v is not None:
                    seen[v] = seen.get(v, 0) + 1
            if not seen:
                categorical[col.name] = CategoricalStats(MISSING_CATEGORY, (MISSING_CATEGORY,))
            else:
                # mode = most frequent, first-seen breaks ties
                mode = max(seen, key=lambda c: seen[c])
                categorical[col.name] = CategoricalStats(mode, tuple(seen))
    schema = tuple((c.name, c.kind) for c in view.columns)
    return Preprocessor(schema=schema, numeric=numeric, categorical=categorical)


def transform(pre: Preprocessor, view: CohortTable, rows: np.ndarray) -> np.ndarray:
    """Impute, standardize and one-hot encode the given rows into a float matrix."""
    if tuple((c.name, c.kind) for c in view.columns) != pre.schema:
        raise DataError("view schema does not match the fitted preprocessor")
    rows = np.asarray(rows)
    blocks = []
    for col in view.columns:
        vals = col.values[rows]
        if col.kind == "numeric":
            st = pre.numeric[col.name]
            x = np.where(np.isnan(vals.astype(float)), st.median, vals.astype(float))
            if st.sd > 0:
                z = (x - st.mean) / st.sd
            else:
                z = np.zeros(len(rows))
            blocks.append(z[:, None])
        else:
            st = pre.categorical[col.name]
            index = {cat: i for i, cat in enumerate(st.categories)}
            block = np.zeros((len(rows), len(st.categories)))
            for i, v in enumerate(vals):
                label = st.mode if v is None else v
                j = index.get(label)
                if j is not None:
                    block[i, j] = 1.0
                # unseen category: leave the block all-zero
            blocks.append(block)
    values = np.hstack(blocks) if blocks else np.zeros((len(rows), 0))
    if not np.all(np.isfinite(values)):
        raise DataError("feature matrix contains non-finite entries")
    return values
