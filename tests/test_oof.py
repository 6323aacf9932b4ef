import numpy as np
import pytest

from riskfuse.cohort import CohortTable, Column
from riskfuse.errors import DataError
from riskfuse.folds import stratified_kfold
from riskfuse.metrics import roc_auc
from riskfuse.scoring import CVRecord, ModelSpec, oof_scores, select_best_model


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
