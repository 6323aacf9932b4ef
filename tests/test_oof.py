import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from riskfuse import trees
from riskfuse.cohort import CohortTable, Column
from riskfuse.errors import DataError
from riskfuse.folds import FoldAssignment, stratified_kfold
from riskfuse.metrics import roc_auc
from riskfuse.scoring import MODEL_FAMILIES, CVRecord, ModelSpec, oof_scores, select_best_model

from oracles import oof_scores_per_fold


def numeric_view(X):
    cols = tuple(Column(f"f{j}", "numeric", X[:, j].copy()) for j in range(X.shape[1]))
    return CohortTable(cols, len(X))


@pytest.fixture
def small_problem(rng):
    X = rng.standard_normal((60, 4))
    beta = np.array([1.5, -1.0, 0.0, 0.5])
    y = (rng.uniform(size=60) < 1.0 / (1.0 + np.exp(-(X @ beta)))).astype(int)
    if y.sum() < 10 or y.sum() > 50:
        y[:10] = 1
        y[10:20] = 0
    return numeric_view(X), y


def test_every_row_scored_exactly_once(small_problem):
    view, y = small_problem
    folds = stratified_kfold(y, k=5, seed=0)
    spec = ModelSpec("elastic_net_lr", {"lam": 0.05}, seed=1)
    scores = oof_scores(view, y, spec, folds)
    assert scores.shape == (60,)
    assert np.all((scores >= 0) & (scores <= 1))


def test_perturbing_own_label_does_not_move_own_score(small_problem):
    view, y = small_problem
    folds = stratified_kfold(y, k=5, seed=0)
    spec = ModelSpec("gradient_boosting", {"n_rounds": 15, "max_depth": 2}, seed=1)
    base = oof_scores(view, y, spec, folds)
    for i in (3, 27, 59):
        y_pert = y.copy()
        y_pert[i] = 1 - y_pert[i]
        assert oof_scores(view, y_pert, spec, folds)[i] == base[i]


def test_permuting_rows_permutes_scores(rng, small_problem):
    view, y = small_problem
    ids = np.array([f"r{i:03d}" for i in range(60)])
    spec = ModelSpec("elastic_net_lr", {"lam": 0.05}, seed=1)
    base = oof_scores(view, y, spec, stratified_kfold(y, 5, 0, row_ids=ids), row_ids=ids)
    perm = rng.permutation(60)
    view_p = CohortTable(tuple(Column(c.name, c.kind, c.values[perm]) for c in view.columns), 60)
    moved = oof_scores(
        view_p, y[perm], spec, stratified_kfold(y[perm], 5, 0, row_ids=ids[perm]), row_ids=ids[perm]
    )
    assert np.array_equal(moved, base[perm])


def test_null_labels_give_chance_level_auc(rng):
    X = rng.standard_normal((200, 6))
    y = (rng.uniform(size=200) < 0.5).astype(int)
    view = numeric_view(X)
    folds = stratified_kfold(y, k=5, seed=2)
    spec = ModelSpec("elastic_net_lr", {"lam": 0.05}, seed=3)
    auc = roc_auc(oof_scores(view, y, spec, folds), y)
    assert 0.35 <= auc <= 0.65


def test_incomplete_folds_rejected(small_problem):
    view, y = small_problem
    folds = stratified_kfold(y, k=5, seed=0)
    orphaned = folds.fold_of.copy()
    orphaned[:3] = 99  # these rows never appear in any test fold
    broken = type(folds)(fold_of=orphaned, k=5)
    with pytest.raises(DataError, match="exactly once"):
        oof_scores(view, y, ModelSpec("elastic_net_lr", {"lam": 0.1}), broken)


def test_select_best_model_prefers_auc_then_family_order():
    specs = {f: ModelSpec(f) for f in ("elastic_net_lr", "random_forest", "gradient_boosting")}
    records = [
        CVRecord("clinical", specs["elastic_net_lr"], 0.762),
        CVRecord("clinical", specs["random_forest"], 0.783),
        CVRecord("clinical", specs["gradient_boosting"], 0.760),
    ]
    assert select_best_model(records).spec.family == "random_forest"
    assert select_best_model(records[:1]).spec.family == "elastic_net_lr"
    tied = [
        CVRecord("v", specs["random_forest"], 0.7),
        CVRecord("v", specs["elastic_net_lr"], 0.7),
    ]
    assert select_best_model(tied).spec.family == "elastic_net_lr"
    with pytest.raises(DataError):
        select_best_model([])


def _mixed_view(seed, n):
    """Two numeric columns with ties and a categorical one whose rare level
    sits in one row, so the fold that tests that row trains on a design one
    column narrower than the other folds."""
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, 4, n) + rng.choice([0.0, 0.5], n)
    x1 = rng.standard_normal(n)
    levels = rng.choice(np.array(["a", "b", None], dtype=object), n)
    levels[rng.integers(n)] = "rare"
    view = CohortTable((Column("x0", "numeric", x0), Column("x1", "numeric", x1),
                        Column("c", "categorical", levels)), n)
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-(x0 - 1.5 + x1)))).astype(float)
    return view, y


def _spied_locksteps(monkeypatch):
    """Each _grow_forest call's fits as (training rows, trees) pairs."""
    calls = []
    grow = trees._grow_forest

    def spy(labels, streams, designs, **kwargs):
        calls.append([(len(y), len(rngs)) for y, rngs in zip(labels, streams)])
        return grow(labels, streams, designs, **kwargs)

    monkeypatch.setattr(trees, "_grow_forest", spy)
    return calls


def _within_cap(calls):
    return all(len(fits) == 1 or sum(n * t for n, t in fits) <= trees._LOCKSTEP_ROWS for fits in calls)


class TestForestLocksteps:
    """The folds' forests grown in locksteps, and every family's out-of-fold
    path, against one fit_model call per fold."""

    @settings(max_examples=240, deadline=None)
    @given(
        st.sampled_from(MODEL_FAMILIES), st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(12, 70),
        st.integers(1, 60), st.sampled_from([None, 1, 99]), st.sampled_from([None, 0, 1, 2, 3]),
        st.integers(1, 5), st.sampled_from([trees._LOCKSTEP_ROWS, 1, 900]), st.sampled_from(["auto", 0.05]),
    )
    def test_oof_scores_match_the_per_fold_loop(self, family, seed, k, n, size, mtry, max_depth, min_leaf, cap, lam):
        # cap 1 puts every fold above the cap, and 900 groups only some
        view, y = _mixed_view(seed, n)
        fold_of = np.random.default_rng(seed + 1).integers(0, k, n)  # folds of differing sizes
        assume(all(np.any(fold_of == f) and len(np.unique(y[fold_of != f])) == 2 for f in range(k)))
        if family == "elastic_net_lr":  # the lambda search's two inner folds need two rows of each class
            assume(all(np.bincount(y[fold_of != f].astype(int)).min() >= 2 for f in range(k)))
        folds = FoldAssignment(fold_of=fold_of, k=k)
        hyperparameters = {
            "elastic_net_lr": {"lam": lam, "grid_points": 3, "inner_folds": 2, "tol": 1e-6},  # quick fits
            "random_forest": {"n_trees": size, "mtry": mtry, "max_depth": max_depth, "min_leaf": min_leaf},
            "gradient_boosting": {"n_rounds": size, "max_depth": max_depth},
        }[family]
        spec = ModelSpec(family, hyperparameters, seed=seed % 1000)
        expected = oof_scores_per_fold(view, y, spec, folds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "_LOCKSTEP_ROWS", cap)
            calls = _spied_locksteps(mp)
            scores = oof_scores(view, y, spec, folds)
            assert _within_cap(calls)
        assert sum(len(fits) for fits in calls) == (k if family == "random_forest" else 0)
        assert np.array_equal(scores, expected)

    def test_a_narrower_fold_grows_in_its_own_lockstep(self, monkeypatch):
        view, y = _mixed_view(5, 60)
        folds = stratified_kfold(y, k=4, seed=2)
        rare = np.flatnonzero(view.columns[2].values == "rare")[0]
        spec = ModelSpec("random_forest", {"n_trees": 7, "min_leaf": 2}, seed=3)
        calls = _spied_locksteps(monkeypatch)
        scores = oof_scores(view, y, spec, folds)
        assert sorted(len(fits) for fits in calls) == [1, 3]
        alone = next(fits for fits in calls if len(fits) == 1)
        assert alone == [(len(folds.train_rows(folds.fold_of[rare])), 7)]
        assert np.array_equal(scores, oof_scores_per_fold(view, y, spec, folds))

    def test_paper_sized_forests_grow_one_at_a_time(self, monkeypatch):
        # 300 trees x 880 training rows is above the cap, so each fold's
        # forest grows alone; 15 trees on the same folds grow in one lockstep
        rng = np.random.default_rng(9)
        X = rng.standard_normal((1100, 2))
        y = (rng.uniform(size=1100) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
        view, folds = numeric_view(X), stratified_kfold(y, k=5, seed=4)
        calls = _spied_locksteps(monkeypatch)
        for n_trees, locksteps in ((300, 5), (15, 1)):
            calls.clear()
            spec = ModelSpec("random_forest", {"n_trees": n_trees, "max_depth": 1}, seed=1)
            scores = oof_scores(view, y, spec, folds)
            assert len(calls) == locksteps and _within_cap(calls)
            assert np.array_equal(scores, oof_scores_per_fold(view, y, spec, folds))

    def test_lockstep_groups_follow_width_and_cap(self):
        cap = trees._LOCKSTEP_ROWS
        paper, bench, synth = (13, 300 * 1426), (50, 15 * 1426), (20, 50 * 612)
        assert trees.lockstep_groups([paper] * 5) == [[0], [1], [2], [3], [4]]
        assert trees.lockstep_groups([bench] * 5) == [[0, 1, 2, 3, 4]]
        assert trees.lockstep_groups([synth] * 5) == [[0, 1, 2, 3, 4]]
        assert trees.lockstep_groups([(3, 1), (2, 1), (3, 1), (2, cap), (3, cap - 2)]) == [[0, 2, 4], [1], [3]]

    def test_forests_of_two_widths_do_not_share_a_lockstep(self, rng):
        forests = [trees.RandomForest(n_trees=2, max_depth=None, mtry=None, min_leaf=1, seed=s) for s in (1, 2)]
        y = np.array([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="width"):
            trees.fit_forests(forests, [y, y], [rng.standard_normal((4, 2)), rng.standard_normal((4, 3))])
