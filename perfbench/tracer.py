"""Traced run of one ``fuse`` command, and the rank-kernel scaling probe.

    python3 perfbench/tracer.py --spans OUT.json -- <fuse arguments>
    python3 perfbench/tracer.py --probe OUT.json --seed N

The first form wraps riskfuse's public functions at the names their callers
bind (``gof`` and ``pipeline`` use ``from ... import``, so each importing
module holds its own reference that has to be replaced), runs
``riskfuse.cli.main`` in this process and, once it returns, writes every
span as ``[name, start, end, parent, attrs]`` to OUT.json. ``parent`` is the
index of the enclosing span, -1 at top level. Spans assume one thread, which
holds with FUSE_THREADS=1. Nothing inside the package is modified.

The second form times ``empirical_copula`` and ``kendall_tau`` on seeded
continuous samples at the sizes in PROBE_SIZES.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import sys
import time

import numpy as np

from layers import PROBE_SIZES


class Tracer:
    """Collects spans in memory; wrappers push and pop a parent stack."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.genomic_view = None

    def wrap(self, owner, attr, name, stage=None, describe=None):
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {"stage": stage} if stage else {}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if describe is not None:
                attrs.update(describe(args, result))
            return result

        setattr(owner, attr, traced)


def _nodes(args, model):
    return {"nodes": sum(len(tree.feature) for tree in model.trees_)}


def install(tracer: Tracer):
    """Wrap every traced call site; returns ``riskfuse.cli.main``."""
    from riskfuse import cli, copulas, gof, pipeline, scoring, svgplot
    from riskfuse.linear import ElasticNetLogistic
    from riskfuse.trees import GradientBoosting, RandomForest

    def remember_genomic(args, view):
        tracer.genomic_view = view
        return {}

    def oof_key(args, result):
        view = "genomic" if args[0] is tracer.genomic_view else "clinical"
        return {"view": view, "family": args[2].family}

    def load_size(args, table):
        return {"bytes": os.path.getsize(args[0]), "cells": table.n_rows * len(table.columns)}

    def bootstrap_key(args, result):
        return {"family": result.family, "degenerate": bool(result.degenerate_fit)}

    w = tracer.wrap
    w(pipeline, "load_cohort", "cohort.load_cohort", "load", load_size)
    w(pipeline, "build_endpoint", "cohort.build_endpoint", "endpoint")
    w(pipeline, "filter_cohort", "cohort.filter_cohort", "endpoint", lambda a, r: {"rows": r[0].n_rows})
    w(pipeline, "split_views", "cohort.split_views", "views")
    w(pipeline, "variance_filter", "cohort.variance_filter", "views", remember_genomic)
    w(pipeline, "stratified_kfold", "folds.stratified_kfold", "scores")
    w(pipeline, "oof_scores", "scoring.oof_scores", "scores", oof_key)
    w(pipeline, "roc_auc", "metrics.roc_auc", "scores")
    w(pipeline, "select_best_model", "scoring.select_best_model", "scores")
    w(pipeline, "emit_tables", "pipeline.emit_tables", "emit")
    w(pipeline, "render_plots", "pipeline.render_plots", "emit")
    w(pipeline, "joint_strata", "survival.joint_strata", "strata")
    w(pipeline, "strata_km", "survival.strata_km", "strata", lambda a, r: {"omitted": len(r.omitted)})
    for module in (pipeline, cli):
        w(module, "pseudo_observations", "copulas.pseudo_observations", "copula")
        w(module, "kendall_tau", "copulas.kendall_tau", "copula")
        w(module, "parametric_bootstrap", "gof.parametric_bootstrap", "gof", bootstrap_key)
    w(pipeline, "fit_family", "copulas.fit_family", "copula")
    w(pipeline, "select_best_copula", "gof.select_best_copula", "gof")

    w(scoring, "fit_preprocessor", "preprocess.fit_preprocessor")
    w(scoring, "transform", "preprocess.transform")
    w(scoring, "fit_model", "scoring.fit_model", describe=lambda a, r: {"family": a[0].family})
    w(scoring, "roc_auc", "metrics.roc_auc")
    w(ElasticNetLogistic, "fit", "linear.fit",
      describe=lambda a, m: {"sweeps": int(m.n_iter_), "converged": bool(m.converged_)})
    w(ElasticNetLogistic, "predict_proba", "linear.predict_proba")
    w(RandomForest, "fit", "trees.rf_fit", describe=_nodes)
    w(GradientBoosting, "fit", "trees.gb_fit", describe=_nodes)
    w(RandomForest, "predict_proba", "trees.predict_proba")
    w(GradientBoosting, "predict_proba", "trees.predict_proba")

    w(gof, "sample", "copulas.sample", describe=lambda a, r: {"family": a[0].family})
    w(gof, "pseudo_observations", "copulas.pseudo_observations")
    w(gof, "kendall_tau", "copulas.kendall_tau")
    w(gof, "cvm_statistic", "gof.cvm_statistic")
    for module in (gof, svgplot):
        w(module, "empirical_copula", "gof.empirical_copula",
          describe=lambda a, r: {"pairs": len(a[0]) * np.broadcast(a[2], a[3]).size})
        w(module, "copula_cdf", "copulas.copula_cdf", describe=lambda a, r: {"family": a[0].family})
    w(copulas, "bivariate_normal_cdf", "bvn.bivariate_normal_cdf", describe=lambda a, r: {"points": np.broadcast(*a[:3]).size})
    return cli.main


def probe(seed: int) -> dict:
    """Median milliseconds per call of the two rank kernels at each probe size."""
    from riskfuse.copulas import kendall_tau
    from riskfuse.gof import empirical_copula

    out = {"kendall_tau_ms": {}, "empirical_copula_ms": {}}
    for n in PROBE_SIZES:
        rng = np.random.default_rng([seed, n])
        u = rng.random(n)
        v = 0.6 * u + 0.4 * rng.random(n)
        repeats = 5 if n < 5000 else 2
        for key, call in (("kendall_tau_ms", lambda: kendall_tau(u, v)),
                          ("empirical_copula_ms", lambda: empirical_copula(u, v, u, v))):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                call()
                times.append((time.perf_counter() - t0) * 1e3)
            out[key][str(n)] = statistics.median(times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write the traced command's spans here")
    parser.add_argument("--probe", help="run the kernel scaling probe and write its timings here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("fuse_args", nargs="*")
    args = parser.parse_args(argv)
    if args.probe:
        with open(args.probe, "w", encoding="utf-8") as fh:
            json.dump(probe(args.seed), fh)
        return 0
    tracer = Tracer()
    fuse_main = install(tracer)
    code = fuse_main(args.fuse_args)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
