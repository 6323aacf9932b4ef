"""Seeded inputs for the benchmark workloads.

Each workload's content (cohort or score table) is drawn once from a fixed
base seed with ``riskfuse.synth`` / ``riskfuse.copulas``; the benchmark's
``--seed`` then shuffles the row order. The pipeline canonicalizes fold work
by patient id, so every seed does the same statistical work and must reach
the same semantic results (checked against ``reference.json``), while the
program still reads a different file for every seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from riskfuse.copulas import fit_family, sample
from riskfuse.synth import SynthParams, default_config, generate_cohort

SYNTH_SEED = 7  # the README's demo cohort: 765 analytic rows
METABRIC_SEED = 11  # 1783 analytic rows, the size of the metabric-gof score table

# Paper-default model sizes divided by one common factor so that a
# metabric-scores run fits the benchmark's time budget; n, genomic width,
# top_k, folds and the elastic-net lambda grid stay at the paper defaults.
TREE_SCALE = 20
PAPER_MODELS = {
    "elastic_net_lr": {"alpha": 0.5, "lam": "auto", "grid_points": 10, "inner_folds": 3},
    "random_forest": {"n_trees": 300 // TREE_SCALE, "max_depth": None, "mtry": None, "min_leaf": 5},
    "gradient_boosting": {"n_rounds": 200 // TREE_SCALE, "learning_rate": 0.1, "max_depth": 3},
}

METABRIC_N = 1900
GOF_N = 1783  # analytic rows of the METABRIC-shaped cohort


def _shuffled(rows, seed):
    order = np.random.default_rng(seed).permutation(len(rows))
    return [rows[i] for i in order]


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_config(work: Path, params: SynthParams, **overrides):
    config = default_config("cohort.csv", "report", params)
    config.update(overrides)
    with open(work / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)


def synth_800(work: Path, seed: int):
    """The synth CLI's cohort and default config at n=800, 40 genes."""
    params = SynthParams(n=800, n_genes=40, seed=SYNTH_SEED)
    header, rows = generate_cohort(params)
    _write_csv(work / "cohort.csv", header, _shuffled(rows, seed))
    _write_config(work, params)


def metabric_scores(work: Path, seed: int):
    """A METABRIC-sized cohort (n=1900, 500 genes -> top 50), paper-shaped models."""
    params = SynthParams(n=METABRIC_N, n_genes=500, seed=METABRIC_SEED)
    header, rows = generate_cohort(params)
    _write_csv(work / "cohort.csv", header, _shuffled(rows, seed))
    _write_config(work, params, genomic_top_k=50, models=PAPER_MODELS)


MUTATION_GENES = 173  # mutation columns in the METABRIC export
# protein-change strings of the kind the export's mutation columns hold
MUTATION_CALLS = ("R175H", "H1047R", "E545K", "R273C", "Y220C", "G12D", "splice", "fs*12", "Q546K", "R248Q")


def metabric_ingest(work: Path, seed: int):
    """The metabric-scores cohort widened to the METABRIC export's shape.

    A string mutation column per gene is added after the expression block:
    mostly "0", some protein-change calls, and missing cells written as "NA"
    or left empty, so ``load_cohort`` parses them on its categorical path.
    The pipeline drops categorical columns in the variance filter, so the
    run's results are those of ``metabric_scores`` up to the views stage.
    """
    params = SynthParams(n=METABRIC_N, n_genes=500, seed=METABRIC_SEED)
    header, rows = generate_cohort(params)
    rng = np.random.default_rng(METABRIC_SEED)
    kind = rng.choice(4, size=(len(rows), MUTATION_GENES), p=[0.88, 0.08, 0.02, 0.02])
    call = rng.integers(len(MUTATION_CALLS), size=kind.shape)
    cells = np.where(kind == 0, "0", np.where(kind == 1, np.array(MUTATION_CALLS)[call], np.where(kind == 2, "NA", "")))
    at = header.index("overall_survival_months")
    header = header[:at] + [f"m{j + 1:03d}_mut" for j in range(MUTATION_GENES)] + header[at:]
    rows = [row[:at] + cells[i].tolist() + row[at:] for i, row in enumerate(rows)]
    _write_csv(work / "cohort.csv", header, _shuffled(rows, seed))
    _write_config(work, params, genomic_top_k=50, models=PAPER_MODELS)


def metabric_gof(work: Path, seed: int):
    """A p_clin,p_gen score table at n=1783 with Gaussian dependence (tau 0.43)."""
    rng = np.random.default_rng(METABRIC_SEED)
    u, v = sample(fit_family("gaussian", 0.43), GOF_N, rng)
    # logistic margins in the range of real out-of-fold probabilities
    p_clin = 1.0 / (1.0 + np.exp(-(-1.2 + 1.1 * ndtri(u))))
    p_gen = 1.0 / (1.0 + np.exp(-(-1.2 + 0.9 * ndtri(v))))
    rows = [[f"P{i + 1:05d}", repr(float(a)), repr(float(b))] for i, (a, b) in enumerate(zip(p_clin, p_gen))]
    _write_csv(work / "scores.csv", ["patient_id", "p_clin", "p_gen"], _shuffled(rows, seed))
