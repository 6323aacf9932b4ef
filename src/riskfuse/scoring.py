"""Out-of-fold risk scores per predictor view, and model selection by CV AUC.

Every probability comes from a model whose training folds excluded that
patient; preprocessing is refit inside each fold. Fold work is canonicalized
by row identifier so that permuting cohort rows permutes scores with them.

fold_designs makes a view's fold designs once: per fold one preprocessor,
fitted on the fold's training rows, and the training and test designs it
makes. oof_scores then fits and predicts one model family from them, so the
three families of a view share every design. The elastic-net and boosting
fit and predict one fold at a time. The random forests of the k folds grow
in shared locksteps (trees.fit_forests): folds whose designs have one width
group together up to the lockstep cap. A lockstep's forests predict their
folds' test rows once it has grown and are dropped before the next lockstep
grows. Every probability is the one a fold-by-fold fit gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import schema
from .cohort import CohortTable
from .errors import ConfigError, DataError
from .folds import FoldAssignment, row_id_strings, stratified_kfold
from .linear import ElasticNetLogistic, lambda_grid
from .metrics import roc_auc
from .preprocess import fit_preprocessor, transform
from .schema import Key
from .seeding import hash_seed
from .trees import GradientBoosting, RandomForest, fit_forests, lockstep_groups

# Each model family's hyperparameters with their JSON type, default and range;
# the config's "models" section is checked against this table.
DEFAULT_MODELS = {
    "elastic_net_lr": {"alpha": Key(float, 0.5, ge=0, le=1), "lam": Key(float, "auto", ge=0, choices=("auto",)),
                       "grid_points": Key(int, 10, ge=1), "inner_folds": Key(int, 3, ge=2),
                       "max_iter": Key(int, 10000, ge=1), "tol": Key(float, 1e-8, ge=0)},
    "random_forest": {"n_trees": Key(int, 300, ge=1), "max_depth": Key(int, None, ge=0, null=True),
                      "mtry": Key(int, None, ge=1, null=True), "min_leaf": Key(int, 5, ge=1)},
    "gradient_boosting": {"n_rounds": Key(int, 200, ge=0), "learning_rate": Key(float, 0.1, gt=0),
                          "max_depth": Key(int, 3, ge=0, null=True)},
}
MODEL_FAMILIES = tuple(DEFAULT_MODELS)


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


def _fit_elastic_net(X, y, seed, *, alpha, lam, grid_points, inner_folds, max_iter, tol):
    if lam == "auto":
        # Each inner fold fits the descending grid as one path, every lam
        # starting from the previous lam's solution (glmnet's warm start).
        grid = lambda_grid(X, y, alpha, n_points=grid_points)
        try:
            inner = stratified_kfold(y, k=inner_folds, seed=hash_seed(seed, "inner"))
        except DataError as exc:
            raise DataError(f"{exc}; models.elastic_net_lr.inner_folds sets k") from exc
        oof = np.empty((len(grid), len(y)))
        for f in range(inner_folds):
            tr, te = inner.train_rows(f), inner.test_rows(f)
            X_tr, y_tr, X_te = X[tr], y[tr], X[te]
            start = None
            for i, lam_cand in enumerate(grid):
                model = ElasticNetLogistic(lam=lam_cand, alpha=alpha, max_iter=max_iter, tol=tol).fit(X_tr, y_tr, start)
                oof[i, te] = model.predict_proba(X_te)
                start = (model.coef_, model.intercept_)
        aucs = [roc_auc(scores, y) for scores in oof]
        lam = grid[int(np.argmax(aucs))]  # the first maximum: ties keep the larger penalty
    # a cold start, so the reported model does not depend on the search path
    return ElasticNetLogistic(lam=lam, alpha=alpha, max_iter=max_iter, tol=tol).fit(X, y)


def _hyperparameters(spec: ModelSpec):
    """spec's hyperparameters read as the config's models.<family> section:
    DEFAULT_MODELS's defaults for the ones it omits, and a ConfigError naming
    the key for an unknown or out-of-range one."""
    return schema.read(DEFAULT_MODELS[spec.family], dict(spec.hyperparameters), f"models.{spec.family}")


def fit_model(spec: ModelSpec, X, y):
    """Fit spec's family with its hyperparameters (see _hyperparameters)."""
    hp = _hyperparameters(spec)
    if spec.family == "elastic_net_lr":
        return _fit_elastic_net(X, y, spec.seed, **hp)
    if spec.family == "random_forest":
        return RandomForest(**hp, seed=spec.seed).fit(X, y)
    return GradientBoosting(**hp).fit(X, y)


def _fold_seed(spec: ModelSpec, f: int) -> int:
    return hash_seed(spec.seed, "fold", f)


class FoldDesign(NamedTuple):
    """One fold of an out-of-fold run: its training and test rows, in row-id
    order, and the designs its preprocessor makes of them."""
    train: np.ndarray
    test: np.ndarray
    X_train: np.ndarray
    X_test: np.ndarray


def fold_designs(view: CohortTable, y, folds: FoldAssignment, row_ids=None) -> list[FoldDesign]:
    """Each fold's rows and designs for out-of-fold scoring of the view: one
    preprocessor per fold, fitted on its training rows, transforms both its
    training and its test rows. Every model family of the view is scored
    from the same designs (oof_scores)."""
    y = np.asarray(y, dtype=float)
    if view.n_rows != len(y):
        raise DataError("labels do not match the view row count")
    seen = np.zeros(len(y), dtype=int)
    for f in range(folds.k):
        seen[folds.test_rows(f)] += 1
    if not np.all(seen == 1):
        raise DataError("folds must cover every row exactly once")
    id_strings = row_id_strings(row_ids, len(y))

    designs = []
    for f in range(folds.k):
        train, test = (rows[np.argsort(id_strings[rows], kind="stable")]
                       for rows in (folds.train_rows(f), folds.test_rows(f)))
        if len(np.unique(y[train])) < 2:
            raise DataError(f"fold {f}: training complement lacks one of the classes")
        pre = fit_preprocessor(view, train)
        designs.append(FoldDesign(train, test, transform(pre, view, train), transform(pre, view, test)))
    return designs


def oof_scores(view: CohortTable, y, spec: ModelSpec, designs: list[FoldDesign]):
    """Out-of-fold predicted probabilities for every row of the view, from
    fold_designs(view, y, ...)."""
    y = np.asarray(y, dtype=float)
    if sum(len(d.test) for d in designs) != view.n_rows:
        raise DataError("fold designs do not cover the view's rows")
    out = np.empty(len(y))
    if spec.family != "random_forest":
        for f, d in enumerate(designs):
            model = fit_model(ModelSpec(spec.family, spec.hyperparameters, _fold_seed(spec, f)), d.X_train, y[d.train])
            out[d.test] = model.predict_proba(d.X_test)
        return out

    # the forests grow in locksteps, each predicted and dropped before the next
    forests = [RandomForest(**_hyperparameters(spec), seed=_fold_seed(spec, f)) for f in range(len(designs))]
    for group in lockstep_groups([(d.X_train.shape[1], forest.n_trees * len(d.train))
                                  for d, forest in zip(designs, forests)]):
        fit_forests([forests[f] for f in group], [y[designs[f].train] for f in group],
                    [designs[f].X_train for f in group])
        for f in group:
            out[designs[f].test] = forests[f].predict_proba(designs[f].X_test)
            forests[f] = None
    return out


def select_best_model(records: list[CVRecord]) -> CVRecord:
    """Highest CV AUC; exact ties resolve by canonical family order."""
    if not records:
        raise DataError("no CV records to select from")
    order = {fam: i for i, fam in enumerate(MODEL_FAMILIES)}
    return max(records, key=lambda r: (r.auc, -order[r.spec.family]))
