import numpy as np
import pytest

from riskfuse.errors import DataError
from riskfuse.folds import stratified_kfold


def test_five_positives_five_negatives_balance_exactly():
    y = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    folds = stratified_kfold(y, k=5, seed=1)
    for f in range(5):
        test = folds.test_rows(f)
        assert np.sum(y[test] == 1) == 1
        assert np.sum(y[test] == 0) == 1


def test_per_class_counts_differ_by_at_most_one(rng):
    y = (rng.uniform(size=103) < 0.37).astype(int)
    folds = stratified_kfold(y, k=5, seed=9)
    for cls in (0, 1):
        counts = [np.sum(y[folds.test_rows(f)] == cls) for f in range(5)]
        assert max(counts) - min(counts) <= 1


def test_same_seed_identical_assignment():
    y = np.array([0, 1] * 20)
    a = stratified_kfold(y, k=4, seed=7)
    b = stratified_kfold(y, k=4, seed=7)
    assert np.array_equal(a.fold_of, b.fold_of)
    c = stratified_kfold(y, k=4, seed=8)
    assert not np.array_equal(a.fold_of, c.fold_of)


def test_k_of_one_rejected():
    with pytest.raises(DataError, match="at least 2"):
        stratified_kfold(np.array([0, 1, 0, 1]), k=1, seed=0)


def test_single_class_rejected():
    with pytest.raises(DataError, match="both classes"):
        stratified_kfold(np.ones(10, dtype=int), k=2, seed=0)


def test_k_above_min_class_count_rejected():
    y = np.array([1, 1, 0, 0, 0, 0])
    with pytest.raises(DataError, match="smallest class"):
        stratified_kfold(y, k=3, seed=0)


def test_row_id_keyed_assignment_follows_permutation(rng):
    y = (rng.uniform(size=40) < 0.5).astype(int)
    if y.sum() < 5 or (1 - y).sum() < 5:
        y[:5] = 1
        y[5:10] = 0
    ids = np.array([f"id{i}" for i in range(40)])
    base = stratified_kfold(y, k=5, seed=3, row_ids=ids)
    perm = rng.permutation(40)
    moved = stratified_kfold(y[perm], k=5, seed=3, row_ids=ids[perm])
    assert np.array_equal(moved.fold_of, base.fold_of[perm])


def test_duplicate_row_ids_rejected():
    y = np.array([0, 1, 0, 1])
    with pytest.raises(DataError, match="unique"):
        stratified_kfold(y, k=2, seed=0, row_ids=["a", "a", "b", "c"])


def test_row_ids_that_read_alike_are_repeats():
    # rows 0 and 2 share a class and their ids hash alike, so their folds would follow the row order
    y = np.array([0, 1, 0, 1])
    with pytest.raises(DataError, match="row_ids must be unique"):
        stratified_kfold(y, k=2, seed=0, row_ids=[1, 2, "1", 3])


def test_cover_exactly_once():
    y = np.array([0, 1] * 15)
    folds = stratified_kfold(y, k=3, seed=5)
    seen = np.zeros(30, dtype=int)
    for f in range(3):
        seen[folds.test_rows(f)] += 1
        assert len(np.intersect1d(folds.test_rows(f), folds.train_rows(f))) == 0
    assert np.all(seen == 1)
