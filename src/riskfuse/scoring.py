"""Out-of-fold risk scores per predictor view, and model selection by CV AUC.

Every probability comes from a model whose training folds excluded that
patient; preprocessing is refit inside each fold. Fold work is canonicalized
by row identifier so that permuting cohort rows permutes scores with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohort import CohortTable
from .errors import ConfigError, DataError
from .folds import FoldAssignment, stratified_kfold
from .linear import ElasticNetLogistic, lambda_grid
from .metrics import roc_auc
from .preprocess import fit_preprocessor, transform
from .seeding import hash_seed
from .trees import GradientBoosting, RandomForest

MODEL_FAMILIES = ("elastic_net_lr", "random_forest", "gradient_boosting")


@dataclass(frozen=True)
class ModelSpec:
    family: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")


@dataclass(frozen=True)
class CVRecord:
    view: str
    spec: ModelSpec
    auc: float


def _fit_elastic_net(X, y, hp, seed):
    lam = hp.get("lam", "auto")
    alpha = hp.get("alpha", 0.5)
    max_iter = hp.get("max_iter", 10000)
    tol = hp.get("tol", 1e-8)
    if lam == "auto":
        grid = lambda_grid(X, y, alpha, n_points=hp.get("grid_points", 10))
        inner_k = hp.get("inner_folds", 3)
        inner = stratified_kfold(y, k=inner_k, seed=hash_seed(seed, "inner"))
        best_lam, best_auc = None, -np.inf
        for lam_cand in grid:  # grid is descending, so ties keep the larger penalty
            oof = np.empty(len(y))
            for f in range(inner_k):
                tr, te = inner.train_rows(f), inner.test_rows(f)
                model = ElasticNetLogistic(lam=lam_cand, alpha=alpha, max_iter=max_iter, tol=tol).fit(X[tr], y[tr])
                oof[te] = model.predict_proba(X[te])
            auc = roc_auc(oof, y)
            if auc > best_auc:
                best_auc, best_lam = auc, lam_cand
        lam = best_lam
    return ElasticNetLogistic(lam=lam, alpha=alpha, max_iter=max_iter, tol=tol).fit(X, y)


def fit_model(spec: ModelSpec, X, y):
    hp = spec.hyperparameters
    if spec.family == "elastic_net_lr":
        return _fit_elastic_net(X, y, hp, spec.seed)
    if spec.family == "random_forest":
        return RandomForest(
            n_trees=hp.get("n_trees", 300),
            max_depth=hp.get("max_depth"),
            mtry=hp.get("mtry"),
            min_leaf=hp.get("min_leaf", 5),
            seed=spec.seed,
        ).fit(X, y)
    return GradientBoosting(
        n_rounds=hp.get("n_rounds", 200),
        learning_rate=hp.get("learning_rate", 0.1),
        max_depth=hp.get("max_depth", 3),
        min_leaf=hp.get("min_leaf", 1),
    ).fit(X, y)


def oof_scores(view: CohortTable, y, spec: ModelSpec, folds: FoldAssignment, row_ids=None):
    """Out-of-fold predicted probabilities for every row of the view."""
    y = np.asarray(y, dtype=float)
    if view.n_rows != len(y):
        raise DataError("labels do not match the view row count")
    seen = np.zeros(len(y), dtype=int)
    for f in range(folds.k):
        seen[folds.test_rows(f)] += 1
    if not np.all(seen == 1):
        raise DataError("folds must cover every row exactly once")
    if row_ids is None:
        row_ids = np.arange(len(y))
    id_strings = np.array([str(r) for r in row_ids])

    out = np.empty(len(y))
    for f in range(folds.k):
        train = folds.train_rows(f)
        test = folds.test_rows(f)
        train = train[np.argsort(id_strings[train], kind="stable")]
        test = test[np.argsort(id_strings[test], kind="stable")]
        y_train = y[train]
        if len(np.unique(y_train)) < 2:
            raise DataError(f"fold {f}: training complement lacks one of the classes")
        pre = fit_preprocessor(view, train)
        X_train = transform(pre, view, train).values
        X_test = transform(pre, view, test).values
        model = fit_model(
            ModelSpec(spec.family, spec.hyperparameters, hash_seed(spec.seed, "fold", f)),
            X_train,
            y_train,
        )
        out[test] = model.predict_proba(X_test)
    return out


def select_best_model(records: list[CVRecord]) -> CVRecord:
    """Highest CV AUC; exact ties resolve by canonical family order."""
    if not records:
        raise DataError("no CV records to select from")
    order = {fam: i for i, fam in enumerate(MODEL_FAMILIES)}
    return max(records, key=lambda r: (r.auc, -order[r.spec.family]))
