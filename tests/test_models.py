import inspect

import numpy as np
import pytest

from riskfuse.errors import NumericError
from riskfuse.linear import ElasticNetLogistic, lambda_grid
from riskfuse.metrics import roc_auc
from riskfuse.scoring import DEFAULT_MODELS
from riskfuse.seeding import stream_rng
from riskfuse.trees import GradientBoosting, RandomForest

_CLASSES = {"elastic_net_lr": ElasticNetLogistic, "random_forest": RandomForest, "gradient_boosting": GradientBoosting}


def build(family, **given):
    """The family's model class with the DEFAULT_MODELS defaults for the parameters not given."""
    cls = _CLASSES[family]
    params = inspect.signature(cls).parameters
    return cls(**{name: key.default for name, key in DEFAULT_MODELS[family].items() if name in params} | given)


@pytest.fixture
def threshold_task(rng):
    x = rng.standard_normal(400)
    y = (x > 0).astype(float)
    return x[:, None], y


class TestElasticNet:
    def test_huge_penalty_collapses_to_prevalence(self, rng):
        X = rng.standard_normal((120, 6))
        y = (rng.uniform(size=120) < 0.3).astype(float)
        model = build("elastic_net_lr", lam=1e6, alpha=0.5).fit(X, y)
        assert np.all(model.coef_ == 0.0)
        assert model.predict_proba(X) == pytest.approx(np.full(120, y.mean()), abs=1e-9)

    def test_unpenalized_separable_two_points(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = build("elastic_net_lr", lam=0.0, max_iter=200).fit(X, y)
        assert roc_auc(model.predict_proba(X), y) == 1.0

    def test_non_convergence_warns_and_keeps_best_iterate(self, rng):
        X = rng.standard_normal((100, 5))
        y = (rng.uniform(size=100) < 0.5).astype(float)
        with pytest.warns(UserWarning, match="did not converge"):
            model = build("elastic_net_lr", lam=0.001, max_iter=2).fit(X, y)
        assert not model.converged_
        assert np.isfinite(model.predict_proba(X)).all()

    def test_threshold_task_heldout_auc(self, threshold_task):
        X, y = threshold_task
        model = build("elastic_net_lr", lam=0.01).fit(X[:200], y[:200])
        assert roc_auc(model.predict_proba(X[200:]), y[200:]) >= 0.95

    def test_deterministic(self, rng):
        X = rng.standard_normal((80, 4))
        y = (rng.uniform(size=80) < 0.5).astype(float)
        a = build("elastic_net_lr", lam=0.05).fit(X, y)
        b = build("elastic_net_lr", lam=0.05).fit(X, y)
        assert np.array_equal(a.coef_, b.coef_) and a.intercept_ == b.intercept_

    def test_invalid_arguments(self):
        with pytest.raises(NumericError):
            build("elastic_net_lr", lam=-1.0)
        with pytest.raises(NumericError):
            build("elastic_net_lr", lam=0.0, alpha=1.5)

    def test_lambda_grid_strictly_decreasing(self, rng):
        X = rng.standard_normal((50, 3))
        y = (rng.uniform(size=50) < 0.5).astype(float)
        grid = lambda_grid(X, y, alpha=0.5, n_points=10)
        assert len(grid) == 10
        assert np.all(np.diff(grid) < 0)


class TestRandomForest:
    def test_stump_predicts_bootstrap_prevalence(self, rng):
        X = rng.standard_normal((50, 2))
        y = (rng.uniform(size=50) < 0.4).astype(float)
        rf = build("random_forest", n_trees=1, max_depth=0, seed=7).fit(X, y)
        boot = stream_rng(7, 0).integers(0, 50, 50)
        assert rf.predict_proba(X) == pytest.approx(np.full(50, y[boot].mean()))

    def test_xor_training_accuracy(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        rf = build("random_forest", n_trees=500, max_depth=None, min_leaf=1, mtry=2, seed=3).fit(X, y)
        assert np.all((rf.predict_proba(X) >= 0.5) == y)

    def test_threshold_task_heldout_auc(self, threshold_task):
        X, y = threshold_task
        rf = build("random_forest", n_trees=100, seed=1).fit(X[:200], y[:200])
        assert roc_auc(rf.predict_proba(X[200:]), y[200:]) >= 0.95

    def test_same_seed_identical_forest(self, rng):
        X = rng.standard_normal((60, 3))
        y = (rng.uniform(size=60) < 0.5).astype(float)
        a = build("random_forest", n_trees=25, seed=11).fit(X, y).predict_proba(X)
        b = build("random_forest", n_trees=25, seed=11).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)

    def test_degenerate_identical_rows(self):
        X = np.ones((20, 3))
        y = np.array([1.0] * 6 + [0.0] * 14)
        rf = build("random_forest", n_trees=10, seed=2).fit(X, y)
        p = rf.predict_proba(X)
        assert np.all(p == p[0])  # single-leaf trees: one shared prevalence
        assert 0.0 < p[0] < 1.0


class TestGradientBoosting:
    def test_zero_rounds_is_prevalence(self, rng):
        X = rng.standard_normal((40, 3))
        y = (rng.uniform(size=40) < 0.35).astype(float)
        gb = build("gradient_boosting", n_rounds=0).fit(X, y)
        assert gb.predict_proba(X) == pytest.approx(np.full(40, y.mean()))

    def test_training_loss_non_increasing(self, rng):
        X = rng.standard_normal((150, 6))
        y = (rng.uniform(size=150) < 0.5).astype(float)
        gb = build("gradient_boosting", n_rounds=50, learning_rate=1.0, max_depth=3).fit(X, y)
        diffs = np.diff(gb.train_losses_)
        assert np.all(diffs <= 1e-9)

    def test_threshold_task_heldout_auc(self, threshold_task):
        X, y = threshold_task
        gb = build("gradient_boosting", n_rounds=100, max_depth=2).fit(X[:200], y[:200])
        assert roc_auc(gb.predict_proba(X[200:]), y[200:]) >= 0.95

    def test_nonpositive_learning_rate_rejected(self):
        with pytest.raises(NumericError):
            build("gradient_boosting", learning_rate=0.0)

    def test_deterministic(self, rng):
        X = rng.standard_normal((60, 3))
        y = (rng.uniform(size=60) < 0.5).astype(float)
        a = build("gradient_boosting", n_rounds=20, max_depth=2).fit(X, y).predict_proba(X)
        b = build("gradient_boosting", n_rounds=20, max_depth=2).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)
