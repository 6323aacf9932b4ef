"""End-to-end pipeline: cohort -> risk scores -> copula fit/test -> strata.

A single JSON config drives the run; all randomness flows from the seeds it
contains, so identical configs reproduce identical reports byte for byte.

The run is ``_STAGE_TABLE``, one function per stage in order, each filling
in fields of the ``ReportBundle``. The loop in ``run_pipeline`` is the one
place that runs stages, records ``stages_run``, stops after ``stop_after``
and tags errors: a ``FuseError`` from stage NAME re-raises as the same class
prefixed ``[stage NAME]``, which the CLI maps to an exit code.
"""

from __future__ import annotations

import csv
import json
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cohort import CohortTable, EndpointVector, ViewSpec, build_endpoint, filter_cohort, load_cohort, split_views, variance_filter
from .copulas import FAMILIES, fit_family, kendall_tau, pseudo_observations
from .errors import ConfigError, FuseError
from .folds import stratified_kfold
from .gof import GofResult, parametric_bootstrap, select_best_copula
from .metrics import roc_auc, roc_points
from .scoring import CVRecord, MODEL_FAMILIES, ModelSpec, oof_scores, select_best_model
from .seeding import hash_seed
from .survival import StrataKMResult, StratumAssignment, joint_strata, strata_km
from . import svgplot

DEFAULT_MODELS = {
    "elastic_net_lr": {"alpha": 0.5, "lam": "auto", "grid_points": 10, "inner_folds": 3,
                       "max_iter": 10000, "tol": 1e-8},
    "random_forest": {"n_trees": 300, "max_depth": None, "mtry": None, "min_leaf": 5},
    "gradient_boosting": {"n_rounds": 200, "learning_rate": 0.1, "max_depth": 3},
}

TABLE_FILES = ("scores.csv", "model_auc.csv", "copula_fit.json", "gof.json",
               "strata.csv", "km_curves.csv", "manifest.json")
PLOT_FILES = ("roc.svg", "score_hist.svg", "score_scatter.svg", "copula_heat.svg",
              "copula_contours.svg", "km.svg")


def _typed(cast, section: dict, key: str, default, name: str):
    """section[key], or the default, converted by ``cast``; a failure names the key."""
    raw = section.get(key, default)
    try:
        return cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {'an integer' if cast is int else 'a number'}, got {raw!r}") from exc


def _object(value, name: str) -> dict:
    """A config section, which must be a JSON object; a failure names the section."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return value


@dataclass(frozen=True)
class PipelineConfig:
    input_csv: str
    output_dir: str
    view_spec: ViewSpec = ViewSpec()
    horizon_months: float = 60.0
    genomic_top_k: int = 50
    cv_k: int = 5
    cv_seed: int = 0
    models: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_MODELS)))
    copula_families: tuple = FAMILIES
    copula_b: int = 1000
    copula_m: int | None = None
    copula_seed: int = 1
    copula_refit: bool = True
    strata_min_size: int = 10
    status_column: str | None = None

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        for key in ("input_csv", "output_dir"):
            if key not in d:
                raise ConfigError(f"config is missing required key {key!r}")
        cv = _object(d.get("cv", {}), "cv")
        k = _typed(int, cv, "k", 5, "cv.k")
        if k < 2:
            raise ConfigError("cv.k must be at least 2")
        cop = _object(d.get("copula", {}), "copula")
        b = _typed(int, cop, "B", 1000, "copula.B")
        if b < 1:
            raise ConfigError("copula.B must be at least 1")
        families = tuple(cop.get("families", FAMILIES))
        for fam in families:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown copula family {fam!r}")
        models = json.loads(json.dumps(DEFAULT_MODELS))
        for fam, hp in _object(d.get("models", {}), "models").items():
            if fam not in MODEL_FAMILIES:
                raise ConfigError(f"unknown model family {fam!r}")
            models[fam].update(_object(hp, f"models.{fam}"))
        m = None if cop.get("m") is None else _typed(int, cop, "m", None, "copula.m")
        min_size = _typed(int, _object(d.get("strata", {}), "strata"), "min_size", 10, "strata.min_size")
        if min_size < 1:
            raise ConfigError("strata.min_size must be positive")
        top_k = _typed(int, d, "genomic_top_k", 50, "genomic_top_k")
        if top_k < 1:
            raise ConfigError("genomic_top_k must be positive")
        return PipelineConfig(
            input_csv=str(d["input_csv"]),
            output_dir=str(d["output_dir"]),
            view_spec=ViewSpec.from_dict(_object(d.get("view_spec", {}), "view_spec")),
            horizon_months=_typed(float, d, "horizon_months", 60.0, "horizon_months"),
            genomic_top_k=top_k,
            cv_k=k,
            cv_seed=_typed(int, cv, "seed", 0, "cv.seed"),
            models=models,
            copula_families=families,
            copula_b=b,
            copula_m=m,
            copula_seed=_typed(int, cop, "seed", 1, "copula.seed"),
            copula_refit=bool(cop.get("refit", True)),
            strata_min_size=min_size,
            status_column=_object(d.get("endpoint", {}), "endpoint").get("status_column"),
        )

    def to_dict(self) -> dict:
        return {
            "input_csv": self.input_csv,
            "output_dir": self.output_dir,
            "view_spec": {
                "id_column": self.view_spec.id_column,
                "clinical_columns": list(self.view_spec.clinical_columns),
                "survival_columns": list(self.view_spec.survival_columns),
            },
            "horizon_months": self.horizon_months,
            "genomic_top_k": self.genomic_top_k,
            "cv": {"k": self.cv_k, "seed": self.cv_seed},
            "models": self.models,
            "copula": {
                "families": list(self.copula_families),
                "B": self.copula_b,
                "m": self.copula_m,
                "seed": self.copula_seed,
                "refit": self.copula_refit,
            },
            "strata": {"min_size": self.strata_min_size},
            "endpoint": {"status_column": self.status_column},
        }


@dataclass
class ReportBundle:
    config: PipelineConfig
    n_loaded: int = 0
    n_analytic: int = 0
    patient_ids: list = field(default_factory=list)
    endpoint: EndpointVector | None = None
    cv_records: list = field(default_factory=list)
    oof: dict = field(default_factory=dict)  # (view, family) -> scores
    best: dict = field(default_factory=dict)  # view -> CVRecord
    p_clin: np.ndarray | None = None
    p_gen: np.ndarray | None = None
    pseudo_u: np.ndarray | None = None
    pseudo_v: np.ndarray | None = None
    tau: float | None = None
    copula_fits: list = field(default_factory=list)
    gof_results: list = field(default_factory=list)
    best_copula: GofResult | None = None
    strata: StratumAssignment | None = None
    strata_result: StrataKMResult | None = None
    written_files: list = field(default_factory=list)
    stages_run: list = field(default_factory=list)
    table: CohortTable | None = None  # the cohort as of the last stage that reshaped it
    views: dict = field(default_factory=dict)  # view name -> predictor table


def _load(bundle: ReportBundle):
    bundle.table = load_cohort(bundle.config.input_csv)
    bundle.n_loaded = bundle.table.n_rows


def _endpoint(bundle: ReportBundle):
    config = bundle.config
    endpoint = build_endpoint(bundle.table, horizon=config.horizon_months, status_column=config.status_column)
    bundle.table, bundle.endpoint = filter_cohort(bundle.table, endpoint)
    bundle.n_analytic = bundle.table.n_rows
    bundle.patient_ids = [str(v) for v in bundle.table.column(config.view_spec.id_column).values]


def _views(bundle: ReportBundle):
    clinical, genomic = split_views(bundle.table, bundle.config.view_spec)
    bundle.views = {"clinical": clinical, "genomic": variance_filter(genomic, k=bundle.config.genomic_top_k)}


def _scores(bundle: ReportBundle):
    config = bundle.config
    y = bundle.endpoint.y.astype(int)
    folds = stratified_kfold(y, k=config.cv_k, seed=config.cv_seed, row_ids=bundle.patient_ids)
    for view_name, view in bundle.views.items():
        records = []
        for family in MODEL_FAMILIES:
            spec = ModelSpec(family, config.models[family], hash_seed(config.cv_seed, view_name, family))
            scores = oof_scores(view, y, spec, folds, row_ids=bundle.patient_ids)
            bundle.oof[(view_name, family)] = scores
            records.append(CVRecord(view_name, spec, roc_auc(scores, y)))
        bundle.cv_records.extend(records)
        bundle.best[view_name] = select_best_model(records)
    bundle.p_clin = bundle.oof[("clinical", bundle.best["clinical"].spec.family)]
    bundle.p_gen = bundle.oof[("genomic", bundle.best["genomic"].spec.family)]


def _copula(bundle: ReportBundle):
    bundle.pseudo_u = pseudo_observations(bundle.p_clin)
    bundle.pseudo_v = pseudo_observations(bundle.p_gen)
    bundle.tau = kendall_tau(bundle.pseudo_u, bundle.pseudo_v)
    bundle.copula_fits = [fit_family(f, bundle.tau) for f in bundle.config.copula_families]


def _gof(bundle: ReportBundle):
    config = bundle.config
    bundle.gof_results = [
        parametric_bootstrap(
            bundle.pseudo_u,
            bundle.pseudo_v,
            fam,
            n_boot=config.copula_b,
            replicate_size=config.copula_m,
            seed=config.copula_seed,
            refit=config.copula_refit,
        )
        for fam in config.copula_families
    ]
    bundle.best_copula = select_best_copula(bundle.gof_results)


def _strata(bundle: ReportBundle):
    bundle.strata = joint_strata(bundle.p_clin, bundle.p_gen)
    bundle.strata_result = strata_km(
        bundle.strata,
        bundle.endpoint.t_months,
        bundle.endpoint.delta.astype(int),
        min_size=bundle.config.strata_min_size,
    )


_STAGE_TABLE = (("load", _load), ("endpoint", _endpoint), ("views", _views), ("scores", _scores),
                ("copula", _copula), ("gof", _gof), ("strata", _strata))
STAGES = tuple(name for name, _ in _STAGE_TABLE)


def run_pipeline(config: PipelineConfig, stop_after: str | None = None, emit: bool = True) -> ReportBundle:
    """Execute the pipeline (optionally a prefix) and write the report files."""
    if stop_after is not None and stop_after not in STAGES:
        raise ConfigError(f"unknown stage {stop_after!r}; stages are {', '.join(STAGES)}")
    bundle = ReportBundle(config=config)
    for name, stage in _STAGE_TABLE:
        try:
            stage(bundle)
        except FuseError as exc:
            raise type(exc)(f"[stage {name}] {exc}") from exc
        bundle.stages_run.append(name)
        if name == stop_after:
            break
    if emit:
        emit_tables(bundle, config.output_dir)
        render_plots(bundle, config.output_dir)
    return bundle


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_tables(bundle: ReportBundle, out_dir) -> list:
    """Write the machine-readable report files for everything computed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    if bundle.p_clin is not None:
        ep = bundle.endpoint
        rows = [
            [pid, str(pc), str(pg), int(yy), str(tt), int(dd)]
            for pid, pc, pg, yy, tt, dd in zip(
                bundle.patient_ids, bundle.p_clin, bundle.p_gen, ep.y.astype(int), ep.t_months, ep.delta.astype(int)
            )
        ]
        path = out_dir / "scores.csv"
        _write_csv(path, ["patient_id", "p_clin", "p_gen", "y", "t_months", "event"], rows)
        written.append(path)

        rows = [[r.view, r.spec.family, str(r.auc)] for r in bundle.cv_records]
        path = out_dir / "model_auc.csv"
        _write_csv(path, ["view", "model", "auc"], rows)
        written.append(path)

    if bundle.copula_fits:
        path = out_dir / "copula_fit.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"tau": bundle.tau, "fits": [m.to_dict() for m in bundle.copula_fits]}, fh, indent=2)
        written.append(path)

    if bundle.gof_results:
        path = out_dir / "gof.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "results": [r.to_dict() for r in bundle.gof_results],
                    "selected": bundle.best_copula.family,
                },
                fh,
                indent=2,
            )
        written.append(path)

    if bundle.strata is not None:
        path = out_dir / "strata.csv"
        _write_csv(
            path,
            ["patient_id", "stratum"],
            [[pid, lab] for pid, lab in zip(bundle.patient_ids, bundle.strata.labels)],
        )
        written.append(path)

        rows = []
        for label, curve in bundle.strata_result.curves.items():
            for t, s, d, r in zip(curve.times, curve.survival, curve.events, curve.at_risk):
                rows.append([label, str(float(t)), str(float(s)), int(d), int(r), curve.n_start])
        path = out_dir / "km_curves.csv"
        _write_csv(path, ["stratum", "t", "S_hat", "d", "r", "n_start"], rows)
        written.append(path)

    manifest = {
        "tool": {"name": "riskfuse", "version": __version__},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "config": bundle.config.to_dict(),
        "stages_run": bundle.stages_run,
        "rows_loaded": bundle.n_loaded,
        "rows_analytic": bundle.n_analytic,
    }
    if bundle.best:
        manifest["selected_models"] = {view: rec.spec.family for view, rec in bundle.best.items()}
        manifest["cv_auc"] = {f"{r.view}:{r.spec.family}": r.auc for r in bundle.cv_records}
    if bundle.tau is not None:
        manifest["kendall_tau"] = bundle.tau
    if bundle.best_copula is not None:
        manifest["selected_copula"] = bundle.best_copula.family
        manifest["gof_p_values"] = {r.family: r.p_value for r in bundle.gof_results}
    if bundle.strata is not None:
        manifest["strata"] = {
            "median_clin": bundle.strata.median_clin,
            "median_gen": bundle.strata.median_gen,
            "sizes": bundle.strata_result.sizes,
            "omitted": bundle.strata_result.omitted,
        }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    written.append(path)

    bundle.written_files.extend(str(p) for p in written)
    return written


def render_plots(bundle: ReportBundle, out_dir) -> list:
    """Write the SVG figures for everything computed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if bundle.p_clin is not None:
        y = bundle.endpoint.y.astype(int)
        curves = {}
        for view in ("clinical", "genomic"):
            scores = bundle.p_clin if view == "clinical" else bundle.p_gen
            fpr, tpr = roc_points(scores, y)
            curves[view] = (fpr, tpr, bundle.best[view].auc)
        path = out_dir / "roc.svg"
        svgplot.render_roc(path, curves)
        written.append(path)

        path = out_dir / "score_hist.svg"
        svgplot.render_score_hist(path, bundle.p_clin, bundle.p_gen)
        written.append(path)

        path = out_dir / "score_scatter.svg"
        svgplot.render_scatter(path, bundle.p_clin, bundle.p_gen, y)
        written.append(path)

    if bundle.best_copula is not None:
        model = bundle.best_copula.model
        path = out_dir / "copula_heat.svg"
        svgplot.render_copula_heat(path, bundle.pseudo_u, bundle.pseudo_v, model)
        written.append(path)
        path = out_dir / "copula_contours.svg"
        svgplot.render_copula_contours(path, bundle.pseudo_u, bundle.pseudo_v, model)
        written.append(path)

    if bundle.strata_result is not None:
        path = out_dir / "km.svg"
        svgplot.render_km(path, bundle.strata_result.curves, bundle.strata_result.omitted)
        written.append(path)

    bundle.written_files.extend(str(p) for p in written)
    return written
