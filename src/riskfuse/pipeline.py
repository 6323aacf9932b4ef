"""End-to-end pipeline: cohort -> risk scores -> copula fit/test -> strata.

A single JSON config drives the run; all randomness flows from the seeds it
contains, so identical configs reproduce identical reports byte for byte.

The run is ``_STAGE_TABLE``, one function per stage in order, each filling
in fields of the ``ReportBundle``. The loop in ``run_pipeline`` is the one
place that runs stages, records ``stages_run``, stops after ``stop_after``
and tags errors: a ``FuseError`` from stage NAME re-raises as the same class
prefixed ``[stage NAME]``, which the CLI maps to an exit code.

The config is ``CONFIG_SCHEMA``: four top-level settings (``input_csv``,
``output_dir``, ``horizon_months``, ``genomic_top_k``) and six sections
(``view_spec``, ``cv``, ``models``, ``copula``, ``strata``, ``endpoint``).
``PipelineConfig`` holds it in that shape, one field per top-level key, so a
stage reads a section's keys under their JSON names (``config.copula["B"]``).

Each report is a function from the bundle to its file's text, and
``write_file`` writes every file the package produces.
"""

from __future__ import annotations

import csv
import io
import json
import os
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np
import scipy

from . import __version__, schema
from .cohort import (DEFAULT_CLINICAL_COLUMNS, SURVIVAL_COLUMNS, CohortTable, EndpointVector, build_endpoint,
                     filter_cohort, load_cohort, split_views, variance_filter)
from .copulas import FAMILIES, fit_family, kendall_tau, pseudo_observations
from .errors import ConfigError, DataError, FuseError, NumericError
from .folds import stratified_kfold
from .gof import GofResult, parametric_bootstrap, select_best_copula
from .metrics import roc_auc, roc_points
from .schema import Key
from .scoring import CVRecord, DEFAULT_MODELS, MODEL_FAMILIES, ModelSpec, fold_designs, oof_scores, select_best_model
from .seeding import hash_seed
from .survival import StrataKMResult, StratumAssignment, joint_strata, strata_km
from . import svgplot

# Every config key, in the order the manifest writes them.
CONFIG_SCHEMA = {
    "input_csv": Key(str),
    "output_dir": Key(str),
    "view_spec": {"id_column": Key(str, "patient_id"),
                  "clinical_columns": Key(tuple, DEFAULT_CLINICAL_COLUMNS, min_len=1),
                  "survival_columns": Key(tuple, SURVIVAL_COLUMNS)},
    "horizon_months": Key(float, 60.0, gt=0),
    "genomic_top_k": Key(int, 50, ge=1),
    "cv": {"k": Key(int, 5, ge=2), "seed": Key(int, 0)},
    "models": DEFAULT_MODELS,
    "copula": {"families": Key(tuple, FAMILIES, choices=FAMILIES, min_len=1), "B": Key(int, 1000, ge=1),
               "seed": Key(int, 1)},
    "strata": {"min_size": Key(int, 10, ge=1)},
    "endpoint": {"status_column": Key(str, None, null=True)},
}


@dataclass(frozen=True)
class PipelineConfig:
    """One run's settings, one field per top-level key of ``CONFIG_SCHEMA``,
    each section the read-only mapping that ``schema.read`` returns, under
    its JSON key names."""

    input_csv: str
    output_dir: str
    view_spec: MappingProxyType
    horizon_months: float
    genomic_top_k: int
    cv: MappingProxyType
    models: MappingProxyType
    copula: MappingProxyType
    strata: MappingProxyType
    endpoint: MappingProxyType

    @staticmethod
    def from_dict(d: dict) -> "PipelineConfig":
        """The config in ``d``; an unknown key, a wrong JSON type or an
        out-of-range value raises a ``ConfigError`` naming the key."""
        return PipelineConfig(**schema.read(CONFIG_SCHEMA, d))

    def to_dict(self) -> dict:
        return schema.write(CONFIG_SCHEMA, vars(self))

    def with_seed(self, seed: int) -> "PipelineConfig":
        """This config run at ``seed``: the folds and models draw from ``seed``
        and the copula bootstrap from ``seed + 1``."""
        return replace(self, cv=MappingProxyType(dict(self.cv, seed=seed)),
                       copula=MappingProxyType(dict(self.copula, seed=seed + 1)))


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
    bundle.table = load_cohort(bundle.config.input_csv, text_columns=(bundle.config.view_spec["id_column"],))
    bundle.n_loaded = bundle.table.n_rows


def _endpoint(bundle: ReportBundle):
    config = bundle.config
    endpoint = build_endpoint(bundle.table, horizon=config.horizon_months, status_column=config.endpoint["status_column"])
    id_column = config.view_spec["id_column"]
    if not bundle.table.has_column(id_column):
        raise DataError(f"view column {id_column!r} not present in table; view_spec.id_column names it")
    ids = bundle.table.column(id_column).values  # stripped text, as _load reads it
    bundle.table, bundle.endpoint = filter_cohort(bundle.table, endpoint)
    bundle.n_analytic = bundle.table.n_rows
    csv_row = {}  # patient id -> CSV row number of each analytic row; the header is row 1
    for i in np.flatnonzero(~np.isnan(endpoint.y)):
        pid = ids[i]
        if not pid:
            raise DataError(f"{id_column} is empty in CSV row {i + 2}")
        if pid in csv_row:
            raise DataError(f"{id_column} {pid!r} appears in CSV rows {csv_row[pid]} and {i + 2}")
        csv_row[pid] = i + 2
    bundle.patient_ids = list(csv_row)


def _views(bundle: ReportBundle):
    clinical, genomic = split_views(bundle.table, bundle.config.view_spec, bundle.config.endpoint["status_column"])
    bundle.views = {"clinical": clinical, "genomic": variance_filter(genomic, k=bundle.config.genomic_top_k)}


def _scores(bundle: ReportBundle):
    config = bundle.config
    y = bundle.endpoint.y.astype(int)
    try:
        folds = stratified_kfold(y, k=config.cv["k"], seed=config.cv["seed"], row_ids=bundle.patient_ids)
    except DataError as exc:
        raise DataError(f"{exc}; cv.k sets k") from exc
    for view_name, view in bundle.views.items():
        designs = fold_designs(view, y, folds, bundle.patient_ids)
        records = []
        for family in MODEL_FAMILIES:
            spec = ModelSpec(family, config.models[family], hash_seed(config.cv["seed"], view_name, family))
            scores = oof_scores(view, y, spec, designs)
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
    try:
        bundle.copula_fits = [fit_family(f, bundle.tau) for f in bundle.config.copula["families"]]
    except NumericError as exc:  # the two score columns are perfectly ordered
        raise NumericError(f"p_clin (clinical {bundle.best['clinical'].spec.family}) and p_gen (genomic "
                           f"{bundle.best['genomic'].spec.family}) have Kendall tau {bundle.tau!r} over "
                           f"{len(bundle.p_clin)} rows: {exc}") from exc


def _gof(bundle: ReportBundle):
    config = bundle.config
    bundle.gof_results = [
        parametric_bootstrap(bundle.pseudo_u, bundle.pseudo_v, fam, n_boot=config.copula["B"],
                             seed=config.copula["seed"])
        for fam in config.copula["families"]
    ]
    bundle.best_copula = select_best_copula(bundle.gof_results)


def _strata(bundle: ReportBundle):
    bundle.strata = joint_strata(bundle.p_clin, bundle.p_gen)
    bundle.strata_result = strata_km(
        bundle.strata,
        bundle.endpoint.t_months,
        bundle.endpoint.delta.astype(int),
        min_size=bundle.config.strata["min_size"],
    )


_STAGE_TABLE = (("load", _load), ("endpoint", _endpoint), ("views", _views), ("scores", _scores),
                ("copula", _copula), ("gof", _gof), ("strata", _strata))
STAGES = tuple(name for name, _ in _STAGE_TABLE)


def run_pipeline(config: PipelineConfig, stop_after: str | None = None, emit: bool = True) -> ReportBundle:
    """Execute the pipeline (optionally a prefix) and write the report files."""
    if stop_after is not None and stop_after not in STAGES:
        raise ConfigError(f"unknown stage {stop_after!r}; stages are {', '.join(STAGES)}")
    if emit:
        check_output_dir(config.output_dir, "[stage config] output_dir")
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
        try:
            emit_tables(bundle, config.output_dir)
            render_plots(bundle, config.output_dir)
        except OSError as exc:
            raise DataError(f"cannot write the report to {config.output_dir}: {exc}") from exc
    return bundle


def check_output_dir(out_dir, label):
    """Fail before any work when ``out_dir``, or its nearest existing ancestor,
    is not a directory: a ``ConfigError`` naming the setting as ``label``.
    Nothing is created here, so a run that fails leaves no output directory."""
    for path in (Path(out_dir), *Path(out_dir).parents):
        try:
            exists = path.exists()
        except OSError as exc:  # such as a component longer than the file system allows
            raise ConfigError(f"{label} {str(out_dir)!r}: cannot check {str(path)!r}: {exc.strerror}") from exc
        if exists:
            if not path.is_dir():
                raise ConfigError(f"{label} {str(out_dir)!r}: {str(path)!r} is not a directory")
            return


def write_file(path, text: str):
    """Write ``text`` to ``path`` as UTF-8, newlines untranslated, through a
    temporary file beside it that is then renamed onto ``path``. On any
    exception the partial file is deleted, so the old file stays whole."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    try:
        partial.write_text(text, encoding="utf-8", newline="")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def csv_text(header, rows) -> str:
    """``header`` and ``rows`` as CSV text, each line ended by ``\\r\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _scores_csv(bundle: ReportBundle) -> str:
    ep = bundle.endpoint
    rows = [
        [pid, str(pc), str(pg), int(yy), str(tt), int(dd)]
        for pid, pc, pg, yy, tt, dd in zip(
            bundle.patient_ids, bundle.p_clin, bundle.p_gen, ep.y.astype(int), ep.t_months, ep.delta.astype(int)
        )
    ]
    return csv_text(["patient_id", "p_clin", "p_gen", "y", "t_months", "event"], rows)


def _model_auc_csv(bundle: ReportBundle) -> str:
    return csv_text(["view", "model", "auc"], [[r.view, r.spec.family, str(r.auc)] for r in bundle.cv_records])


def _copula_fit_json(bundle: ReportBundle) -> str:
    return json.dumps({"tau": bundle.tau, "fits": [m.to_dict() for m in bundle.copula_fits]}, indent=2)


def _gof_json(bundle: ReportBundle) -> str:
    return json.dumps({"results": [r.to_dict() for r in bundle.gof_results], "selected": bundle.best_copula.family}, indent=2)


def _strata_csv(bundle: ReportBundle) -> str:
    return csv_text(["patient_id", "stratum"], [list(row) for row in zip(bundle.patient_ids, bundle.strata.labels)])


def _km_curves_csv(bundle: ReportBundle) -> str:
    rows = []
    for label, curve in bundle.strata_result.curves.items():
        for t, s, d, r in zip(curve.times, curve.survival, curve.events, curve.at_risk):
            rows.append([label, str(float(t)), str(float(s)), int(d), int(r), curve.n_start])
    return csv_text(["stratum", "t", "S_hat", "d", "r", "n_start"], rows)


def _manifest_json(bundle: ReportBundle) -> str:
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
    return json.dumps(manifest, indent=2)


def _roc_svg(bundle: ReportBundle) -> str:
    y = bundle.endpoint.y.astype(int)
    curves = {}
    for view in ("clinical", "genomic"):
        scores = bundle.p_clin if view == "clinical" else bundle.p_gen
        fpr, tpr = roc_points(scores, y)
        curves[view] = (fpr, tpr, bundle.best[view].auc)
    return svgplot.render_roc(curves)


# Report files in the order they are written: (name, the stage whose results
# the file shows, or None for a file every run writes, the file's text).
_TABLES = (("scores.csv", "scores", _scores_csv), ("model_auc.csv", "scores", _model_auc_csv),
           ("copula_fit.json", "copula", _copula_fit_json), ("gof.json", "gof", _gof_json),
           ("strata.csv", "strata", _strata_csv), ("km_curves.csv", "strata", _km_curves_csv),
           ("manifest.json", None, _manifest_json))
_PLOTS = (("roc.svg", "scores", _roc_svg),
          ("score_hist.svg", "scores", lambda b: svgplot.render_score_hist(b.p_clin, b.p_gen)),
          ("score_scatter.svg", "scores", lambda b: svgplot.render_scatter(b.p_clin, b.p_gen, b.endpoint.y.astype(int))),
          ("copula_heat.svg", "gof", lambda b: svgplot.render_copula_heat(b.pseudo_u, b.pseudo_v, b.best_copula.model)),
          ("copula_contours.svg", "gof",
           lambda b: svgplot.render_copula_contours(b.pseudo_u, b.pseudo_v, b.best_copula.model)),
          ("km.svg", "strata", lambda b: svgplot.render_km(b.strata_result.curves, b.strata_result.omitted)))
TABLE_FILES = tuple(name for name, _, _ in _TABLES)
PLOT_FILES = tuple(name for name, _, _ in _PLOTS)


def _write_reports(bundle: ReportBundle, out_dir, reports):
    """Write each report whose stage ran, recording it in
    ``bundle.written_files``, and delete the others' files: a file left by an
    earlier run into ``out_dir`` would describe a different run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, stage, report in reports:
        path = out_dir / name
        if stage is None or stage in bundle.stages_run:
            write_file(path, report(bundle))
            bundle.written_files.append(str(path))
        else:
            path.unlink(missing_ok=True)


def emit_tables(bundle: ReportBundle, out_dir):
    """Write the machine-readable report files for everything computed."""
    _write_reports(bundle, out_dir, _TABLES)


def render_plots(bundle: ReportBundle, out_dir):
    """Write the SVG figures for everything computed."""
    _write_reports(bundle, out_dir, _PLOTS)
