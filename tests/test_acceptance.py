"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Criterion 8 needs the real cohort CSV (see README) and skips
when it is absent.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from riskfuse.bvn import bivariate_normal_cdf
from riskfuse.cohort import CohortTable, Column
from riskfuse.copulas import (
    CopulaModel,
    copula_cdf,
    fit_clayton,
    fit_gaussian,
    fit_gumbel,
    kendall_tau,
    pseudo_observations,
    sample,
)
from riskfuse.folds import stratified_kfold
from riskfuse.gof import empirical_copula, parametric_bootstrap, select_best_copula
from riskfuse.metrics import roc_auc
from riskfuse.pipeline import PipelineConfig, run_pipeline
from riskfuse.scoring import ModelSpec, fold_designs, oof_scores
from riskfuse.survival import kaplan_meier
from riskfuse.synth import SynthParams, write_synth

from oracles import auc_brute, bvn_quad, empirical_copula_brute, km_brute, tau_brute


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({name}): FAIL  [{time.time() - start:.1f}s]")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS  [{time.time() - start:.1f}s]")


def test_c1_closed_form_reproduction():
    with criterion(1, "closed-form parameter reproduction"):
        tau = 0.432
        gauss = fit_gaussian(tau)
        clay = fit_clayton(tau)
        gum = fit_gumbel(tau)
        assert abs(gauss.param - 0.628) <= 0.01
        assert abs(clay.param - 1.523) <= 0.01
        assert abs(gum.param - 1.761) <= 0.01
        assert abs(clay.lambda_lower - 0.634) <= 0.005
        assert abs(gum.lambda_upper - 0.518) <= 0.005


def test_c2_copula_law_suite():
    with criterion(2, "copula law suite"):
        rng = np.random.default_rng(2)
        models = [fit_gaussian(0.432), fit_clayton(0.432), fit_gumbel(0.432)]
        for model in models:
            u = rng.uniform(0.0, 1.0, 2000)
            assert np.all(np.abs(copula_cdf(model, u, np.ones_like(u)) - u) <= 1e-9)
            assert np.all(np.abs(copula_cdf(model, np.ones_like(u), u) - u) <= 1e-9)
            assert np.all(copula_cdf(model, u, np.zeros_like(u)) == 0.0)
            assert np.all(copula_cdf(model, np.zeros_like(u), u) == 0.0)
            lo = rng.uniform(0.0, 1.0, (10_000, 2))
            hi = lo + rng.uniform(0.0, 1.0, (10_000, 2)) * (1.0 - lo)
            volume = (
                copula_cdf(model, hi[:, 0], hi[:, 1])
                - copula_cdf(model, lo[:, 0], hi[:, 1])
                - copula_cdf(model, hi[:, 0], lo[:, 1])
                + copula_cdf(model, lo[:, 0], lo[:, 1])
            )
            assert np.min(volume) >= -1e-9
            uq = rng.uniform(0, 1, 10_000)
            vq = rng.uniform(0, 1, 10_000)
            c = copula_cdf(model, uq, vq)
            assert np.all(c <= np.minimum(uq, vq))
            assert np.all(c >= np.maximum(uq + vq - 1.0, 0.0))


def test_c3_sampler_consistency():
    with criterion(3, "sampler consistency"):
        grid = [
            CopulaModel("gaussian", -0.5, 2.0 / np.pi * np.arcsin(-0.5), 0.0, 0.0),
            CopulaModel("gaussian", 0.0, 0.0, 0.0, 0.0),
            CopulaModel("gaussian", 0.63, 2.0 / np.pi * np.arcsin(0.63), 0.0, 0.0),
            CopulaModel("clayton", 0.5, 0.5 / 2.5, 2.0 ** (-2.0), 0.0),
            CopulaModel("clayton", 1.523, 1.523 / 3.523, 2.0 ** (-1.0 / 1.523), 0.0),
            CopulaModel("gumbel", 1.3, 1.0 - 1.0 / 1.3, 0.0, 2.0 - 2.0 ** (1.0 / 1.3)),
            CopulaModel("gumbel", 1.761, 1.0 - 1.0 / 1.761, 0.0, 2.0 - 2.0 ** (1.0 / 1.761)),
        ]
        for i, model in enumerate(grid):
            u, v = sample(model, 100_000, seed=(77, i))
            assert abs(kendall_tau(u, v) - model.tau) <= 0.01, model


@pytest.mark.slow
def test_c4_gof_calibration_and_selection():
    with criterion(4, "bootstrap calibration and family selection"):
        true = fit_gaussian(2.0 / np.pi * np.arcsin(0.6))
        pvals = []
        for i in range(200):
            u, v = sample(true, 300, np.random.default_rng((1000, i)))
            u, v = pseudo_observations(u), pseudo_observations(v)
            pvals.append(parametric_bootstrap(u, v, "gaussian", n_boot=200, seed=i).p_value)
        pvals = np.sort(pvals)
        steps = np.arange(201) / 200.0
        ks = max(
            np.max(np.abs(pvals - steps[1:])),
            np.max(np.abs(pvals - steps[:-1])),
        )
        assert ks <= 0.12, f"KS distance {ks:.4f}"

        true = fit_gaussian(2.0 / np.pi * np.arcsin(0.628))
        correct = 0
        for i in range(20):
            u, v = sample(true, 1400, np.random.default_rng((2000, i)))
            u, v = pseudo_observations(u), pseudo_observations(v)
            results = [
                parametric_bootstrap(u, v, fam, n_boot=200, seed=i)
                for fam in ("gaussian", "clayton", "gumbel")
            ]
            correct += select_best_copula(results).family == "gaussian"
        assert correct >= 16, f"selected gaussian only {correct}/20 times"


def test_c5_oracle_equivalences():
    with criterion(5, "oracle equivalences"):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 200))
            u = rng.integers(0, 7, n).astype(float)
            v = rng.integers(0, 7, n).astype(float)
            assert kendall_tau(u, v) == pytest.approx(tau_brute(u, v), abs=1e-12)
        us, vs = rng.uniform(size=500), rng.uniform(size=500)
        for _ in range(30):
            q1, q2 = rng.uniform(size=2)
            assert empirical_copula(us, vs, q1, q2) == pytest.approx(
                empirical_copula_brute(us, vs, q1, q2), abs=1e-12
            )
        for _ in range(10):
            n = int(rng.integers(10, 200))
            scores = rng.choice([0.2, 0.4, 0.6, 0.8], size=n)
            y = (rng.uniform(size=n) < 0.5).astype(int)
            if y.sum() in (0, n):
                y[0], y[1] = 0, 1
            assert roc_auc(scores, y) == pytest.approx(auc_brute(scores, y), abs=1e-12)
        for _ in range(12):
            n = int(rng.integers(1, 100))
            times = rng.integers(0, 30, n).astype(float)
            events = rng.integers(0, 2, n)
            curve = kaplan_meier(times, events)
            t, s, d, r = km_brute(times, events)
            assert np.array_equal(curve.times, t)
            assert curve.survival == pytest.approx(s, abs=1e-12)
        for _ in range(100):
            x, y_ = rng.uniform(-5, 5, 2)
            rho = rng.uniform(-0.99, 0.99)
            assert bivariate_normal_cdf(x, y_, rho) == pytest.approx(
                bvn_quad(x, y_, rho), abs=1e-7
            )


def test_c6_ml_sanity():
    with criterion(6, "ML sanity"):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(400)
        y = (x > 0).astype(int)
        X = x[:, None]
        view = CohortTable((Column("x", "numeric", X[:, 0].copy()),), 400)
        folds = stratified_kfold(y, k=2, seed=1)
        train, test = folds.train_rows(0), folds.test_rows(0)
        specs = [
            ModelSpec("elastic_net_lr", {"lam": 0.01}, 1),
            ModelSpec("random_forest", {"n_trees": 100}, 1),
            ModelSpec("gradient_boosting", {"n_rounds": 100, "max_depth": 2}, 1),
        ]
        from riskfuse.scoring import fit_model

        for spec in specs:
            model = fit_model(spec, X[train], y[train].astype(float))
            assert roc_auc(model.predict_proba(X[test]), y[test]) >= 0.95, spec.family

        n = 500
        Xn = rng.standard_normal((n, 6))
        yn = (rng.uniform(size=n) < 0.5).astype(int)
        view = CohortTable(tuple(Column(f"f{j}", "numeric", Xn[:, j].copy()) for j in range(6)), n)
        folds = stratified_kfold(yn, k=5, seed=2)
        for spec in specs:
            scores = oof_scores(view, yn, spec, fold_designs(view, yn, folds))
            base = scores.copy()
            for i in (0, 250, 499):
                y_pert = yn.copy()
                y_pert[i] = 1 - y_pert[i]
                assert oof_scores(view, y_pert, spec, fold_designs(view, y_pert, folds))[i] == base[i], spec.family
            auc = roc_auc(scores, yn)
            assert 0.40 <= auc <= 0.60, f"{spec.family} null AUC {auc:.3f}"


@pytest.mark.slow
def test_c7_end_to_end_synthetic(tmp_path):
    with criterion(7, "end-to-end synthetic pipeline"):
        selected = 0
        km_ordered = 0
        for seed in range(20):
            cfg = write_synth(tmp_path / str(seed), SynthParams(n=800, copula="gaussian", tau=0.43, seed=seed))
            bundle = run_pipeline(PipelineConfig.from_dict(cfg), emit=False)
            selected += bundle.best_copula.family == "gaussian"
            curves = bundle.strata_result.curves
            assert "high_both" in curves and "low_low" in curves
            hb, ll = curves["high_both"], curves["low_low"]
            shared = np.intersect1d(hb.times, ll.times)
            threshold = np.quantile(np.concatenate([hb.times, ll.times]), 0.10)
            pts = shared[shared >= threshold]
            if len(pts) and all(hb.survival_at(t) < ll.survival_at(t) for t in pts):
                km_ordered += 1
        assert selected >= 18, f"gaussian selected {selected}/20"
        assert km_ordered == 20, f"KM ordering held in {km_ordered}/20"


METABRIC_PATH = os.environ.get("METABRIC_CSV", "METABRIC_RNA_Mutation.csv")


@pytest.mark.skipif(not Path(METABRIC_PATH).exists(), reason="real cohort CSV not available")
def test_c8_conditional_reproduction(tmp_path):
    with criterion(8, "conditional reproduction on the real cohort"):
        config = PipelineConfig.from_dict(
            {
                "input_csv": METABRIC_PATH,
                "output_dir": str(tmp_path / "report"),
                "cv": {"k": 5, "seed": 0},
                "copula": {"B": 1000, "seed": 1},
            }
        )
        bundle = run_pipeline(config)
        assert 1700 <= bundle.n_loaded <= 2100  # cohort of nearly 2000 patients
        auc = {(r.view, r.spec.family): r.auc for r in bundle.cv_records}
        assert 0.75 <= auc[("clinical", "random_forest")] <= 0.81
        assert 0.64 <= auc[("genomic", "random_forest")] <= 0.72
        tau = kendall_tau(bundle.p_clin, bundle.p_gen)
        assert 0.37 <= tau <= 0.49
        best = max(bundle.gof_results, key=lambda r: r.p_value)
        assert best.family == "gaussian"
