"""Synthetic two-view cohort generator for dataset-free end-to-end runs.

Latent clinical and genomic risks are drawn from a chosen copula (normal
margins). Whether a patient ever dies of cancer follows a logistic model on
the latents; the timing of that death is exponential with a hazard multiplier
per latent risk quadrant, so joint-high patients die both more often and
earlier. Observed columns mimic the real export: typed clinical features,
a block of expression-like genes, survival time and status labels.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .cohort import SURVIVAL_COLUMNS
from .copulas import fit_family, sample
from .errors import ConfigError, DataError
from .pipeline import PipelineConfig, check_output_dir, write_csv, write_file, write_json


@dataclass(frozen=True)
class SynthParams:
    n: int = 800
    copula: str = "gaussian"
    tau: float = 0.43
    seed: int = 0
    n_genes: int = 40
    n_informative: int = 16
    hazard_ratio_both: float = 4.0
    hazard_ratio_single: float = 2.0
    base_hazard: float = 1.0 / 150.0  # per month, low-low quadrant
    logit_intercept: float = -0.6
    logit_clin: float = 1.1
    logit_gen: float = 0.9
    other_cause_frac: float = 0.05
    censor_lo: float = 40.0
    censor_hi: float = 300.0
    missing_frac: float = 0.03


def _quadrant_multiplier(z_c, z_g, params: SynthParams):
    high_c = z_c > 0
    high_g = z_g > 0
    mult = np.ones(len(z_c))
    mult[high_c ^ high_g] = params.hazard_ratio_single
    mult[high_c & high_g] = params.hazard_ratio_both
    return mult


def generate_cohort(params: SynthParams):
    """Return (header, rows) for the synthetic cohort CSV."""
    if params.n < 20:
        raise ConfigError("synthetic cohort needs n >= 20")
    if params.n_genes < 1:
        raise ConfigError(f"synthetic cohort needs --genes >= 1, got {params.n_genes}")
    rng = np.random.default_rng(params.seed)

    model = fit_family(params.copula, params.tau)
    u, v = sample(model, params.n, rng)
    z_c = ndtri(u)
    z_g = ndtri(v)

    # who dies of cancer at all: logistic in the latent risks
    logit = params.logit_intercept + params.logit_clin * z_c + params.logit_gen * z_g
    dies = rng.uniform(size=params.n) < 1.0 / (1.0 + np.exp(-logit))

    # timing: exponential with quadrant-dependent hazard
    hazard = params.base_hazard * _quadrant_multiplier(z_c, z_g, params)
    t_death = rng.exponential(1.0 / hazard)
    censor = rng.uniform(params.censor_lo, params.censor_hi, size=params.n)
    other = rng.uniform(size=params.n) < params.other_cause_frac

    # whole-month follow-up so strata share event times on the KM grid
    t_obs = np.ceil(np.where(dies, np.minimum(t_death, censor), censor))
    cancer_death = dies & (t_death <= censor)
    status = np.where(cancer_death, "Died of Disease", "Living")
    # a slice of the non-cancer rows dies of something else at their exit time
    status = np.where(~cancer_death & other, "Died of Other Causes", status)
    overall_death = (status != "Living").astype(int)

    noise = lambda: rng.standard_normal(params.n)
    age = 61.0 + 9.0 * (0.85 * z_c + 0.53 * noise())
    tumor_size = np.maximum(1.0, 22.0 + 8.0 * (0.75 * z_c + 0.66 * noise()))
    node_burden = np.maximum(0.0, 2.2 * z_c + 1.0 * noise())
    prognostic_index = 4.0 + 1.4 * z_c + 0.5 * noise()
    marker_noise = noise()

    grade_score = z_c + 0.8 * noise()
    grade = np.where(grade_score < -0.4, "G1", np.where(grade_score < 0.6, "G2", "G3"))
    receptor = np.where(z_c - 0.5 * noise() > 0.2, "negative", "positive")
    center = rng.choice(["A", "B", "C"], size=params.n)

    gene_cols = []
    for j in range(params.n_genes):
        if j < params.n_informative:
            loading = 0.55 + 0.35 * (j % 5) / 4.0
            scale = 1.3 + 0.7 * ((j * 7) % 5) / 4.0
            g = scale * (loading * z_g + np.sqrt(1.0 - loading**2) * noise())
        else:
            g = (0.4 + 0.6 * ((j * 3) % 5) / 4.0) * noise()
        gene_cols.append(g)

    # knock a few clinical cells out to exercise imputation
    miss_ts = rng.uniform(size=params.n) < params.missing_frac
    miss_grade = rng.uniform(size=params.n) < params.missing_frac

    header = (
        ["patient_id", "age_at_diagnosis", "tumor_size", "node_burden", "prognostic_index",
         "marker_noise", "grade", "receptor_status", "center"]
        + [f"g{j + 1:03d}_exp" for j in range(params.n_genes)]
        + list(SURVIVAL_COLUMNS)
    )
    rows = []
    for i in range(params.n):
        row = [
            f"P{i + 1:05d}",
            f"{age[i]:.3f}",
            "" if miss_ts[i] else f"{tumor_size[i]:.3f}",
            f"{node_burden[i]:.3f}",
            f"{prognostic_index[i]:.3f}",
            f"{marker_noise[i]:.3f}",
            "" if miss_grade[i] else grade[i],
            receptor[i],
            center[i],
        ]
        row += [f"{gene_cols[j][i]:.4f}" for j in range(params.n_genes)]
        row += [f"{t_obs[i]:.0f}", str(overall_death[i]), status[i]]
        rows.append(row)
    return header, rows


CLINICAL_COLUMNS = [
    "age_at_diagnosis", "tumor_size", "node_burden", "prognostic_index",
    "marker_noise", "grade", "receptor_status", "center",
]


def default_config(csv_path: str, out_dir: str, params: SynthParams) -> dict:
    """A complete pipeline config sized for the synthetic cohort: the settings
    below, and the schema defaults for every other key."""
    return PipelineConfig.from_dict({
        "input_csv": csv_path,
        "output_dir": out_dir,
        "view_spec": {"clinical_columns": CLINICAL_COLUMNS},
        "genomic_top_k": 20,
        "cv": {"seed": params.seed},
        "models": {
            "elastic_net_lr": {"grid_points": 5},
            "random_forest": {"n_trees": 50},
            "gradient_boosting": {"n_rounds": 60, "max_depth": 2},
        },
        "copula": {"B": 200, "seed": params.seed + 1},
    }).to_dict()


def write_synth(out_dir, params: SynthParams) -> dict:
    """Write cohort.csv, config.json and params.json under out_dir, each with
    ``write_file``; ``out_dir`` is checked before the cohort is generated."""
    check_output_dir(out_dir, "--out")
    header, rows = generate_cohort(params)
    out = Path(out_dir)
    config = default_config(str(out / "cohort.csv"), str(out / "report"), params)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_file(out / "cohort.csv", lambda path: write_csv(path, header, rows))
        write_file(out / "config.json", lambda path: write_json(path, config))
        write_file(out / "params.json", lambda path: write_json(path, asdict(params)))
    except OSError as exc:
        raise DataError(f"cannot write the synthetic cohort to {out_dir}: {exc}") from exc
    return config
