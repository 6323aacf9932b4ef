"""Per-layer metrics from the spans written by ``tracer.py``.

A span is ``[name, start, end, parent, attrs]``; ``parent`` indexes the
span list of the same command. Inclusive times are summed per layer; a span's
self time is its duration minus that of its direct children (calls inside one
process are sequential, so children never overlap).
"""

from __future__ import annotations

import math
import statistics

VIEWS = ("clinical", "genomic")
MODELS = ("elastic_net_lr", "random_forest", "gradient_boosting")
COPULAS = ("gaussian", "clayton", "gumbel")
STAGES = ("load", "endpoint", "views", "scores", "copula", "gof", "strata", "emit")
PROBE_SIZES = (800, 1900, 10000)  # kernel probe sample sizes

def _ratio(num, den):
    return num / den if den else 0.0


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def replicate_times(spans) -> list:
    """Seconds per bootstrap replicate: a ``sample`` call to the next ``cvm_statistic`` return."""
    out, started = [], None
    for name, start, end, _parent, _attrs in spans:
        if name == "copulas.sample":
            started = start
        elif name == "gof.cvm_statistic" and started is not None:
            out.append(end - started)
            started = None
    return out


def self_times(commands) -> dict:
    """Total self time per span name over the span lists of all commands, largest first."""
    out = {}
    for spans in commands:
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _attrs in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _parent, _attrs), inner in zip(spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start - inner)
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_metrics(commands, probe: dict, bytes_written: int, overhead: float) -> dict:
    """Every per-layer metric of BENCHMARK.json for one traced run made of one span list per command."""
    spans = [s for cmd in commands for s in cmd]

    def pick(name, **attrs):
        return [s for s in spans if s[0] == name and all(s[4].get(k) == v for k, v in attrs.items())]

    def seconds(name, **attrs):
        return sum(s[2] - s[1] for s in pick(name, **attrs))

    def attr_sum(name, key):
        return sum(s[4][key] for s in pick(name))

    m = {}
    load_s = seconds("cohort.load_cohort")
    m["cohort.load_s"] = load_s
    m["cohort.load_mb_per_s"] = _ratio(attr_sum("cohort.load_cohort", "bytes") / 2**20, load_s)
    m["cohort.cells"] = attr_sum("cohort.load_cohort", "cells")
    m["cohort.endpoint_s"] = seconds("cohort.build_endpoint") + seconds("cohort.filter_cohort")
    m["cohort.views_s"] = seconds("cohort.split_views") + seconds("cohort.variance_filter")
    m["cohort.rows_analytic"] = attr_sum("cohort.filter_cohort", "rows")

    m["preprocess.fit_s"] = seconds("preprocess.fit_preprocessor")
    m["preprocess.transform_s"] = seconds("preprocess.transform")
    m["preprocess.calls"] = len(pick("preprocess.fit_preprocessor")) + len(pick("preprocess.transform"))
    for view in VIEWS:
        for model in MODELS:
            m[f"scoring.oof_s.{view}.{model}"] = seconds("scoring.oof_scores", view=view, family=model)
    m["scoring.fits"] = len(pick("scoring.fit_model"))

    en_fits = pick("linear.fit")
    m["linear.fit_s"] = seconds("linear.fit")
    m["linear.fits"] = len(en_fits)
    m["linear.sweeps"] = sum(s[4]["sweeps"] for s in en_fits)
    m["linear.nonconverged"] = sum(not s[4]["converged"] for s in en_fits)
    # each elastic-net fit_model call ends with exactly one refit on all its rows
    m["linear.final_fit_ratio"] = _ratio(len(pick("scoring.fit_model", family="elastic_net_lr")), len(en_fits))

    m["trees.rf_fit_s"] = seconds("trees.rf_fit")
    m["trees.gb_fit_s"] = seconds("trees.gb_fit")
    m["trees.rf_nodes"] = attr_sum("trees.rf_fit", "nodes")
    m["trees.gb_nodes"] = attr_sum("trees.gb_fit", "nodes")
    m["trees.predict_s"] = seconds("trees.predict_proba")
    m["trees.nodes_per_s"] = _ratio(m["trees.rf_nodes"] + m["trees.gb_nodes"], m["trees.rf_fit_s"] + m["trees.gb_fit_s"])

    m["metrics.roc_auc_s"] = seconds("metrics.roc_auc")
    m["metrics.roc_auc_calls"] = len(pick("metrics.roc_auc"))

    m["copulas.kendall_tau_s"] = seconds("copulas.kendall_tau")
    m["copulas.kendall_tau_calls"] = len(pick("copulas.kendall_tau"))
    m["copulas.pseudo_obs_s"] = seconds("copulas.pseudo_observations")
    for fam in COPULAS:
        m[f"copulas.sample_s.{fam}"] = seconds("copulas.sample", family=fam)
    for fam in COPULAS:
        m[f"copulas.cdf_s.{fam}"] = seconds("copulas.copula_cdf", family=fam)
    for n in PROBE_SIZES:
        m[f"copulas.kendall_tau_ms.n{n}"] = probe["kendall_tau_ms"][str(n)]

    m["bvn.cdf_s"] = seconds("bvn.bivariate_normal_cdf")
    m["bvn.points"] = attr_sum("bvn.bivariate_normal_cdf", "points")

    for fam in COPULAS:
        m[f"gof.bootstrap_s.{fam}"] = seconds("gof.parametric_bootstrap", family=fam)
    m["gof.empirical_copula_s"] = seconds("gof.empirical_copula")
    m["gof.empirical_copula_calls"] = len(pick("gof.empirical_copula"))
    m["gof.empirical_copula_pairs"] = attr_sum("gof.empirical_copula", "pairs")
    reps = [t * 1e3 for cmd in commands for t in replicate_times(cmd)]
    m["gof.replicates"] = len(reps)
    m["gof.replicate_ms_p50"] = statistics.median(reps) if reps else 0.0
    m["gof.replicate_ms_p99"] = _nearest_rank(reps, 0.99)
    m["gof.degenerate_fits"] = len(pick("gof.parametric_bootstrap", degenerate=True))
    for n in PROBE_SIZES:
        m[f"gof.empirical_copula_ms.n{n}"] = probe["empirical_copula_ms"][str(n)]

    m["survival.strata_km_s"] = seconds("survival.strata_km")
    m["survival.strata_omitted"] = attr_sum("survival.strata_km", "omitted")
    m["pipeline.emit_tables_s"] = seconds("pipeline.emit_tables")
    m["pipeline.render_plots_s"] = seconds("pipeline.render_plots")
    m["pipeline.bytes_written"] = bytes_written
    for stage in STAGES:
        m[f"stage.{stage}_s"] = sum(s[2] - s[1] for s in spans if s[4].get("stage") == stage)
    m["trace_overhead_frac"] = overhead
    return m
