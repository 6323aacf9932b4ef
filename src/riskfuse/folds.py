"""Deterministic stratified k-fold assignment keyed to stable row identifiers.

Row ids are read as strings (row_id_strings), as the fold hash and
scoring.fold_designs' id order read them, so 1 and "1" are one id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .seeding import hash_seed


@dataclass(frozen=True)
class FoldAssignment:
    fold_of: np.ndarray  # per-row fold index in [0, k)
    k: int

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


def row_id_strings(row_ids, n: int) -> np.ndarray:
    """The row ids as strings, np.arange(n)'s when ``row_ids`` is None; a
    DataError unless there are n of them and no two read alike."""
    if row_ids is None:
        return np.arange(n).astype(str)
    if len(row_ids) != n:
        raise DataError("row_ids length does not match y")
    ids = np.array([str(r) for r in row_ids], dtype=str)
    if len(np.unique(ids)) != n:
        raise DataError("row_ids must be unique")
    return ids


def stratified_kfold(y, k: int, seed: int, row_ids=None) -> FoldAssignment:
    """Assign rows to k folds, balancing each class to within one row per fold.

    When ``row_ids`` are given, a row's fold depends only on the identifiers
    present in its class (not on input order), so permuting rows permutes the
    assignment with them.
    """
    y = np.asarray(y)
    n = len(y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise DataError("stratified folds require both classes present")
    if k < 2:
        raise DataError("k must be at least 2 so every fold has held-out data")
    counts = {c: int(np.sum(y == c)) for c in classes}
    if k > min(counts.values()):
        raise DataError(f"k={k} exceeds the smallest class count {min(counts.values())}")
    row_ids = row_id_strings(row_ids, n)

    fold_of = np.empty(n, dtype=int)
    for c in classes:
        members = np.flatnonzero(y == c)
        keys = [hash_seed(seed, row_ids[i], nbytes=8) for i in members]
        order = sorted(range(len(members)), key=lambda t: keys[t])
        for pos, t in enumerate(order):
            fold_of[members[t]] = pos % k
    return FoldAssignment(fold_of=fold_of, k=k)
