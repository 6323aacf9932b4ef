import hashlib
import inspect
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riskfuse.errors import ConfigError, NumericError
from riskfuse.linear import _KKT_TOL, ElasticNetLogistic, lambda_grid
from riskfuse.metrics import roc_auc
from riskfuse.scoring import DEFAULT_MODELS, ModelSpec, fit_model
from riskfuse.seeding import stream_rng
from riskfuse import trees
from riskfuse.trees import GradientBoosting, RandomForest

from oracles import (ElasticNetLogisticOracle, GradientBoostingOracle, RandomForestOracle, lambda_search_cold,
                     per_tree_proba)

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

    def test_cold_start_argument_matches_default_start(self, rng):
        X = rng.standard_normal((150, 5))
        y = (rng.uniform(size=150) < 0.3).astype(float)
        prevalence = y.mean()
        start = (np.zeros(5), np.log(prevalence / (1 - prevalence)))
        a = build("elastic_net_lr", lam=0.01).fit(X, y)
        b = build("elastic_net_lr", lam=0.01).fit(X, y, start=start)
        assert np.array_equal(a.coef_, b.coef_) and a.intercept_ == b.intercept_
        assert a.n_iter_ == b.n_iter_


def _clinical_design(seed, n=500):
    """Four continuous columns, a one-hot block of four levels and one 0/1 flag."""
    rng = np.random.default_rng(seed)
    cont = rng.standard_normal((n, 4))
    onehot = (rng.integers(0, 4, n)[:, None] == np.arange(4)).astype(float)
    flag = (rng.uniform(size=n) < 0.3).astype(float)
    z = 0.8 * cont[:, 0] - 0.5 * cont[:, 1] + onehot @ np.array([0.0, 0.4, -0.6, 0.9]) - 0.5
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-z))).astype(float)
    return np.column_stack([cont, onehot, flag]), y


def _genomic_design(seed, n=900, p=50):
    """Fifty standard-normal columns, six of them carrying signal."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[:6] = rng.normal(0.0, 0.5, 6)
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(0.8 - X @ beta))).astype(float)
    return X, y


class TestElasticNetPath:
    """The warm-started lam path against the cold search it replaced."""

    @pytest.mark.parametrize("design, data_seed, alpha", [
        (_clinical_design, 1, 0.5),
        (_genomic_design, 2, 0.5),
        (_clinical_design, 3, 0.0),
        (_genomic_design, 4, 1.0),
        (_genomic_design, 5, 0.0),
        (_clinical_design, 6, 1.0),
    ])
    def test_path_selects_the_cold_search_lambda(self, monkeypatch, design, data_seed, alpha):
        X, y = design(data_seed)
        seed = 10 + data_seed
        hp = {name: key.default for name, key in DEFAULT_MODELS["elastic_net_lr"].items() if name != "lam"}
        cold_lam, cold_sweeps = lambda_search_cold(X, y, seed, **dict(hp, alpha=alpha))

        sweeps = []
        fit = ElasticNetLogistic.fit

        def counted(self, *args, **kwargs):
            model = fit(self, *args, **kwargs)
            sweeps.append(model.n_iter_)
            return model

        monkeypatch.setattr(ElasticNetLogistic, "fit", counted)
        model = fit_model(ModelSpec("elastic_net_lr", {"alpha": alpha, "lam": "auto"}, seed), X, y)
        monkeypatch.undo()

        assert model.lam == cold_lam
        reference = build("elastic_net_lr", lam=cold_lam, alpha=alpha).fit(X, y)
        assert np.array_equal(model.coef_, reference.coef_)
        assert model.intercept_ == reference.intercept_
        assert sum(sweeps[:-1]) < cold_sweeps  # the last fit is the final refit on all rows


def _enet_design(seed, n, p):
    """Columns on scales 0.1-3, a 0/1 flag at times, and labels of both classes
    from a sparse logistic model."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 3.0, p)
    if rng.random() < 0.3:
        X[:, 0] = rng.random(n) < 0.2
    beta = rng.normal(0.0, 1.0, p) * (rng.random(p) < 0.3)
    y = (rng.random(n) < 1 / (1 + np.exp(-X @ beta))).astype(float)
    y[:2] = 0.0, 1.0
    return X, y


def _kkt_residual(model, X, y, scale=1.0):
    """Largest violation of the elastic-net optimality conditions: the loss
    gradient within lam*alpha of zero where a coefficient is 0, and the
    stationarity equation where it is not; each divided by its ``scale``."""
    w = model.coef_
    grad = X.T @ (y - model.predict_proba(X)) / len(y)
    l1, l2 = model.lam * model.alpha, model.lam * (1 - model.alpha)
    return float(np.max(np.where(w == 0, np.abs(grad) - l1, np.abs(grad - l2 * w - l1 * np.sign(w))) / scale))


class TestCovarianceUpdates:
    """The covariance-update solver against the residual-update solver it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(20, 300), st.integers(1, 30),
           st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 9))
    def test_matches_the_residual_update_oracle(self, seed, n, p, alpha, grid_index):
        X, y = _enet_design(seed, n, p)
        lam = lambda_grid(X, y, alpha, n_points=10)[grid_index]
        model = build("elastic_net_lr", lam=lam, alpha=alpha).fit(X, y)
        oracle = ElasticNetLogisticOracle(lam=lam, alpha=alpha, max_iter=model.max_iter, tol=model.tol).fit(X, y)
        obj = model._objective(X, y, model.coef_, model.intercept_)
        expected = oracle._objective(X, y, oracle.coef_, oracle.intercept_)
        assert obj == pytest.approx(expected, rel=1e-12, abs=0)
        # Both stop at a KKT residual below _KKT_TOL, which pins the
        # probabilities to about 1e-10: 1.4e-10 was the largest gap seen.
        assert np.max(np.abs(model.predict_proba(X) - oracle.predict_proba(X))) <= 1e-9
        # a relative objective change below tol bounds the gradient at about sqrt(tol)
        for fitted in (model, oracle):
            if fitted.converged_:
                assert _kkt_residual(fitted, X, y) <= np.sqrt(fitted.tol)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(20, 300), st.integers(1, 30), st.sampled_from([0.0, 0.5, 1.0]))
    def test_every_fit_of_a_warm_started_path_meets_the_kkt_bound(self, seed, n, p, alpha):
        X, y = _enet_design(seed, n, p)
        scale = np.maximum(1.0, np.sqrt(np.mean(X * X, axis=0)))  # a column's root mean square, at least 1
        start = None
        for lam in lambda_grid(X, y, alpha, n_points=10):
            model = build("elastic_net_lr", lam=lam, alpha=alpha).fit(X, y, start)
            assert model.converged_
            assert _kkt_residual(model, X, y, scale) < _KKT_TOL
            assert abs(np.mean(y - model.predict_proba(X))) < _KKT_TOL  # the intercept's condition
            start = (model.coef_, model.intercept_)

    @pytest.mark.parametrize("solver", [ElasticNetLogistic, ElasticNetLogisticOracle])
    @pytest.mark.parametrize("start", [None, ([0.1, 0.0, 0.3, -0.2], 0.0)], ids=["cold", "warm"])
    def test_zero_column_lasso_keeps_its_coefficient_at_zero(self, rng, solver, start):
        # alpha = 1 leaves no ridge term, so the all-zero column has denom == 0
        X = rng.standard_normal((150, 4))
        X[:, 2] = 0.0
        y = (rng.uniform(size=150) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
        model = solver(lam=0.01, alpha=1.0, max_iter=10000, tol=1e-8).fit(X, y, start)
        assert model.converged_
        assert model.coef_[2] == 0.0
        assert np.isfinite(model.coef_).all() and model.coef_[0] != 0.0


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

    @pytest.mark.parametrize("n_trees", [0, -2])
    def test_no_trees_rejected(self, n_trees):
        with pytest.raises(NumericError, match="n_trees"):
            build("random_forest", n_trees=n_trees, seed=1)

    @pytest.mark.parametrize("mtry", [0, -1])
    def test_no_features_per_split_rejected(self, mtry):
        with pytest.raises(NumericError, match="mtry must be at least 1"):
            build("random_forest", mtry=mtry, seed=1)

    def test_forests_fitted_together_share_their_settings(self, rng):
        X = rng.standard_normal((30, 3))
        y = (rng.uniform(size=30) < 0.5).astype(float)
        for setting, value in (("mtry", 1), ("min_leaf", 10), ("max_depth", 1)):
            odd = build("random_forest", n_trees=3, seed=2, **{setting: value})
            with pytest.raises(NumericError, match=f"must share {setting},"):
                trees.fit_forests([build("random_forest", n_trees=3, seed=1), odd], [y, y], [X, X])
        # a forest that differs in every setting is refused for the first of them
        odd = build("random_forest", n_trees=3, max_depth=1, mtry=1, min_leaf=10, seed=3)
        with pytest.raises(NumericError, match="must share mtry,"):
            trees.fit_forests([odd, build("random_forest", n_trees=3, seed=4)], [y, y], [X, X])

    def test_degenerate_identical_rows(self):
        X = np.ones((20, 3))
        y = np.array([1.0] * 6 + [0.0] * 14)
        rf = build("random_forest", n_trees=10, seed=2).fit(X, y)
        p = rf.predict_proba(X)
        assert np.all(p == p[0])  # single-leaf trees: one shared prevalence
        assert 0.0 < p[0] < 1.0


@pytest.mark.parametrize("family, hyperparameters, message", [
    ("random_forest", {"n_tree": 5}, "unknown config key 'models.random_forest.n_tree'"),
    ("random_forest", {"mtry": 0}, "models.random_forest.mtry must be >= 1, got 0"),
    ("gradient_boosting", {"n_rounds": 2.5}, "models.gradient_boosting.n_rounds must be an integer, got 2.5"),
])
def test_spec_hyperparameters_are_read_as_config_keys(family, hyperparameters, message):
    X, y = np.eye(4), np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ConfigError, match=re.escape(message)):
        fit_model(ModelSpec(family, hyperparameters), X, y)


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


def _same_trees(model, oracle):
    assert len(model.trees_) == len(oracle.trees_)
    for tree, expected in zip(model.trees_, oracle.trees_):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(tree, name), getattr(expected, name)), name


def _tied_design(seed, n, p):
    """Small-integer columns (heavy ties), a constant column at times, and
    near-duplicate values one part in 1e12 apart."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, rng.integers(1, 7, size=p), size=(n, p)).astype(float)
    X += rng.choice([0.0, 0.0, 1e-12, 0.5], size=(n, p))
    if rng.random() < 0.3:
        X[:, rng.integers(p)] = 2.0
    y = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(float)
    return X, y


def _frozen_design():
    rng = np.random.default_rng(20261018)
    n = 300
    X = np.column_stack([rng.standard_normal((n, 3)), rng.integers(0, 5, (n, 2)).astype(float), np.full(n, 2.0)])
    z = X[:, 0] - 0.7 * X[:, 3] + 0.5 * rng.standard_normal(n)
    return X, (z > 0.3).astype(float)


def _metabric_width_design():
    """84 columns at METABRIC's clinical width: 6 continuous, 6 small-integer
    and 72 one-hot indicators of 16 text columns with 2-8 levels."""
    rng = np.random.default_rng(20261019)
    n = 400
    cont = np.round(rng.standard_normal((n, 6)), 1)  # rounded, so that values tie
    small = rng.integers(0, 6, (n, 6)).astype(float)
    levels = [2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8]
    onehot = [(rng.integers(0, k, n)[:, None] == np.arange(k)).astype(float) for k in levels]
    X = np.column_stack([cont, small, *onehot])
    z = cont[:, 0] - 0.5 * small[:, 1] + X[:, 13] - X[:, 20] + 0.7 * rng.standard_normal(n)
    return X, (z > 0).astype(float)


def _digest(model):
    h = hashlib.sha256()
    for tree in model.trees_:
        for name in ("feature", "left", "right"):
            h.update(getattr(tree, name).astype("<i8").tobytes())
        for name in ("threshold", "value"):
            h.update(getattr(tree, name).astype("<f8").tobytes())
    return h.hexdigest()


class TestTreeGrowth:
    """Column blocks and the lockstep forest against the node-by-node grower."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 150), st.integers(1, 8),
        st.integers(1, 8), st.sampled_from([None, 0, 1, 2, 3, 4, 5]), st.sampled_from(["none", "one", "p", "p+2"]),
        st.integers(1, 12), st.integers(0, 8), st.sampled_from([None, 0, 1, 2, 3, 4, 5]),
    )
    def test_trees_match_the_oracle(self, seed, n, p, min_leaf, max_depth, mtry, n_trees, n_rounds, gb_depth):
        X, y = _tied_design(seed, n, p)
        mtry = {"none": None, "one": 1, "p": p, "p+2": p + 2}[mtry]
        rf = dict(n_trees=n_trees, max_depth=max_depth, mtry=mtry, min_leaf=min_leaf, seed=seed % 1000)
        _same_trees(RandomForest(**rf).fit(X, y), RandomForestOracle(**rf).fit(X, y))
        gb = dict(n_rounds=n_rounds, learning_rate=0.5, max_depth=gb_depth)
        model, oracle = GradientBoosting(**gb).fit(X, y), GradientBoostingOracle(**gb).fit(X, y)
        _same_trees(model, oracle)
        assert model.train_losses_ == oracle.train_losses_

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(20, 150), st.integers(9, 60), st.integers(1, 6),
           st.sampled_from([None, 2, 5]), st.integers(1, 6))
    def test_forests_at_workload_widths_match_the_oracle(self, seed, n, p, min_leaf, max_depth, n_trees):
        # mtry=None draws ceil(sqrt(p)) features at every split: 4-8 of 9-60 columns
        X, y = _tied_design(seed, n, p)
        rf = dict(n_trees=n_trees, max_depth=max_depth, mtry=None, min_leaf=min_leaf, seed=seed % 1000)
        _same_trees(RandomForest(**rf).fit(X, y), RandomForestOracle(**rf).fit(X, y))

    def test_metabric_width_forest_matches_the_oracle(self):
        X, y = _metabric_width_design()
        rf = dict(n_trees=12, max_depth=None, mtry=None, min_leaf=5, seed=21)
        _same_trees(RandomForest(**rf).fit(X, y), RandomForestOracle(**rf).fit(X, y))

    @pytest.mark.parametrize("cells", [1, 40, 700])
    def test_forest_batches_of_any_size_match_the_oracle(self, monkeypatch, cells):
        X, y = _tied_design(3, 120, 5)
        X[:, 0] = np.random.default_rng(4).standard_normal(120)
        rf = dict(n_trees=9, max_depth=None, mtry=2, min_leaf=2, seed=8)
        monkeypatch.setattr(trees, "_SPLIT_CELLS", cells)
        _same_trees(RandomForest(**rf).fit(X, y), RandomForestOracle(**rf).fit(X, y))

    def test_frozen_forest_and_boosting(self):
        # sha256 over every tree's arrays, recorded from the node-by-node grower
        X, y = _frozen_design()
        rf = RandomForest(n_trees=20, max_depth=None, mtry=None, min_leaf=3, seed=5).fit(X, y)
        gb = GradientBoosting(n_rounds=15, learning_rate=0.1, max_depth=3).fit(X, y)
        assert sum(len(tree.feature) for tree in rf.trees_) == 614
        assert _digest(rf) == "f33ecec58bf8c4c5558d01a7ceadfcf5313e5c16fdef61ab13d79deb3cde750b"
        assert sum(len(tree.feature) for tree in gb.trees_) == 219
        assert _digest(gb) == "6b129253679a2b2fa8b85fc9003442f78b1e41be2f2906abc97877a27073760c"

    @pytest.mark.parametrize("bad", ["nan_feature", "label_two", "label_half", "short_labels"])
    def test_forest_rejects_non_finite_features_and_non_binary_labels(self, bad):
        X, y = _frozen_design()
        if bad == "nan_feature":
            X[7, 2] = np.nan
        elif bad == "short_labels":
            y = y[:-1]
        else:
            y[7] = 2.0 if bad == "label_two" else 0.5
        with pytest.raises(NumericError, match="random forest"):
            build("random_forest", n_trees=2, seed=1).fit(X, y)


class TestEnsemblePrediction:
    """One walk over every tree of an ensemble against each tree walked alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 80), st.integers(1, 5), st.integers(1, 12),
        st.sampled_from([None, 0, 1, 3]), st.integers(0, 10), st.sampled_from([None, 0, 1, 2]),
        st.integers(1, 30), st.sampled_from([1, 40, trees._SPLIT_CELLS]),
    )
    def test_predict_proba_matches_the_per_tree_sum(self, seed, n, p, n_trees, rf_depth, n_rounds, gb_depth,
                                                    n_test, cells):
        X, y = _tied_design(seed, n, p)
        rf = RandomForest(n_trees=n_trees, max_depth=rf_depth, mtry=None, min_leaf=1, seed=seed % 1000).fit(X, y)
        gb = GradientBoosting(n_rounds=n_rounds, learning_rate=0.5, max_depth=gb_depth).fit(X, y)
        # test cells equal to a training value or a threshold, or outside the training range
        pool = np.concatenate([X.ravel(), *(tree.threshold for tree in rf.trees_ + gb.trees_),
                               [X.min() - 1.0, X.max() + 1.0]])
        X_test = np.random.default_rng(seed).choice(pool, size=(n_test, p))
        with mock.patch.object(trees, "_SPLIT_CELLS", cells):  # 1 and 40 walk the trees in several batches
            for model in (rf, gb):
                for rows in (X_test, X):
                    assert np.array_equal(model.predict_proba(rows), per_tree_proba(model, rows))

    def test_no_rounds_predict_the_base_score(self):
        X, y = _frozen_design()
        gb = GradientBoosting(n_rounds=0, learning_rate=0.1, max_depth=3).fit(X, y)
        assert gb.trees_ == []
        assert np.array_equal(gb.decision_function(X[:3]), np.full(3, gb.base_score_))
        assert np.array_equal(gb.predict_proba(X[:3]), per_tree_proba(gb, X[:3]))


def _twin_streams(seed, count):
    """Two identical lists of count streams, each past an odd-length bootstrap
    draw, so that their next uint32 is the high half of a 64-bit output."""
    twins = ([], [])
    for t in range(count):
        n = 2 * (seed % 40 + t) + 1
        for streams in twins:
            rng = stream_rng(seed, t)
            rng.integers(0, n, size=n)
            streams.append(rng)
    return twins


def _check_draws(seed, p, f, steps):
    """_FeatureDraws over three streams in lockstep, one sitting out each
    step in turn, against np.sort(Generator.choice) on twin streams."""
    rngs, twins = _twin_streams(seed, 3)
    draws = trees._FeatureDraws(rngs, p, f)
    for step in range(steps):
        streams = [t for t in range(3) if t != step % 3]
        got = draws.draw(streams)
        assert got.shape == (2, f)
        for row, t in zip(got, streams):
            assert np.array_equal(row, np.sort(twins[t].choice(p, size=f, replace=False)))


class TestFeatureDraws:
    """The forest's replay of numpy's feature draws against Generator.choice."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.data())
    def test_replay_matches_generator_choice(self, seed, p, data):
        f = data.draw(st.integers(1, p - 1))
        _check_draws(seed, p, f, steps=75)  # 50 draws per stream, past several buffer refills

    def test_lemire_rejections_are_replayed_one_draw_at_a_time(self, monkeypatch):
        # with 3e9 values a bounded draw rejects its uint32 about 30% of the time
        replayed = []
        replay = trees._FeatureDraws._replay
        monkeypatch.setattr(trees._FeatureDraws, "_replay", lambda self, t: replayed.append(t) or replay(self, t))
        _check_draws(5, 3_000_000_000, 2, steps=75)
        assert len(replayed) > 30

    @pytest.mark.parametrize("p, f", [(20_000, 401), (2**32 + 5, 3), (20_000, 400)],
                             ids=["tail-shuffle", "64-bit-draws", "floyd-at-the-switch"])
    def test_draws_where_numpy_switches_algorithm(self, p, f):
        _check_draws(9, p, f, steps=6)

    def test_all_features_when_mtry_reaches_p(self):
        rngs, _ = _twin_streams(3, 2)
        assert np.array_equal(trees._FeatureDraws(rngs, 5, 5).draw([0, 1]), np.tile(np.arange(5), (2, 1)))
