"""Synthetic two-view cohort generator for dataset-free end-to-end runs.

Latent clinical and genomic risks are drawn from a chosen copula (normal
margins). Whether a patient ever dies of cancer follows a logistic model on
the latents; the timing of that death is exponential with a hazard multiplier
per latent risk quadrant, so joint-high patients die both more often and
earlier. Observed columns mimic the real export: typed clinical features,
a block of expression-like genes, survival time and status labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .cohort import SURVIVAL_COLUMNS
from .copulas import FAMILIES, fit_clamps, fit_family, sample
from .errors import ConfigError, DataError
from .pipeline import PipelineConfig, check_output_dir, csv_text, write_file
from .schema import Key

# each SynthParams field's `fuse synth` flag and the Key it is read through,
# for the CLI and library callers alike
SYNTH_RULES = {
    "n": ("--n", Key(int, ge=20)),
    "copula": ("--copula", Key(str, choices=FAMILIES)),
    "tau": ("--tau", Key(float, gt=-1, lt=1)),
    "seed": ("--seed", Key(int, ge=0)),
    "n_genes": ("--genes", Key(int, ge=1)),
    "hazard_ratio_both": ("--hazard-ratio", Key(float, gt=0)),
    "hazard_ratio_single": ("--single-ratio", Key(float, gt=0)),
}

# the generator's fixed settings, the same for every cohort
N_INFORMATIVE = 16  # genes that load on the genomic latent
BASE_HAZARD = 1.0 / 150.0  # per month, low-low quadrant
LOGIT_INTERCEPT, LOGIT_CLIN, LOGIT_GEN = -0.6, 1.1, 0.9
OTHER_CAUSE_FRAC = 0.05
CENSOR_LO, CENSOR_HI = 40.0, 300.0
MISSING_FRAC = 0.03

CLINICAL_COLUMNS = [
    "age_at_diagnosis", "tumor_size", "node_burden", "prognostic_index",
    "marker_noise", "grade", "receptor_status", "center",
]


@dataclass(frozen=True)
class SynthParams:
    n: int = 800
    copula: str = "gaussian"
    tau: float = 0.43
    seed: int = 0
    n_genes: int = 40
    hazard_ratio_both: float = 4.0
    hazard_ratio_single: float = 2.0

    def __post_init__(self):
        """A ConfigError naming the flag of the first field that breaks its rule."""
        for field, (flag, key) in SYNTH_RULES.items():
            key.read(getattr(self, field), flag)
        check_dependence_sign(self.copula, "--tau", self.tau)


def check_dependence_sign(copula: str, flag: str, value: float):
    """A ConfigError naming ``flag`` when ``value``, a tau or a correlation of
    the same sign, is negative and the fit of ``copula`` clamps there
    (``fit_clamps``): the latents would be drawn independent, or nearly so."""
    if value < 0 and fit_clamps(copula, value):
        raise ConfigError(f"{flag} must be >= 0 for the {copula} copula, got {value!r}")


def _quadrant_multiplier(z_c, z_g, params: SynthParams):
    high_c = z_c > 0
    high_g = z_g > 0
    mult = np.ones(len(z_c))
    mult[high_c ^ high_g] = params.hazard_ratio_single
    mult[high_c & high_g] = params.hazard_ratio_both
    return mult


def generate_cohort(params: SynthParams):
    """Return (header, rows) for the synthetic cohort CSV."""
    rng = np.random.default_rng(params.seed)

    model = fit_family(params.copula, params.tau)
    u, v = sample(model, params.n, rng)
    z_c = ndtri(u)
    z_g = ndtri(v)

    # who dies of cancer at all: logistic in the latent risks
    logit = LOGIT_INTERCEPT + LOGIT_CLIN * z_c + LOGIT_GEN * z_g
    dies = rng.uniform(size=params.n) < 1.0 / (1.0 + np.exp(-logit))

    # timing: exponential with quadrant-dependent hazard
    hazard = BASE_HAZARD * _quadrant_multiplier(z_c, z_g, params)
    t_death = rng.exponential(1.0 / hazard)
    censor = rng.uniform(CENSOR_LO, CENSOR_HI, size=params.n)
    other = rng.uniform(size=params.n) < OTHER_CAUSE_FRAC

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
        if j < N_INFORMATIVE:
            loading = 0.55 + 0.35 * (j % 5) / 4.0
            scale = 1.3 + 0.7 * ((j * 7) % 5) / 4.0
            g = scale * (loading * z_g + np.sqrt(1.0 - loading**2) * noise())
        else:
            g = (0.4 + 0.6 * ((j * 3) % 5) / 4.0) * noise()
        gene_cols.append(g)

    # knock a few clinical cells out to exercise imputation
    miss_ts = rng.uniform(size=params.n) < MISSING_FRAC
    miss_grade = rng.uniform(size=params.n) < MISSING_FRAC

    header = ["patient_id", *CLINICAL_COLUMNS, *(f"g{j + 1:03d}_exp" for j in range(params.n_genes)),
              *SURVIVAL_COLUMNS]
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


def default_config(csv_path: str, out_dir: str, params: SynthParams) -> dict:
    """A complete pipeline config sized for the synthetic cohort: the settings
    below, run at ``params.seed``, and the schema defaults for every other key."""
    return PipelineConfig.from_dict({
        "input_csv": csv_path,
        "output_dir": out_dir,
        "view_spec": {"clinical_columns": CLINICAL_COLUMNS},
        "genomic_top_k": 20,
        "models": {
            "elastic_net_lr": {"grid_points": 5},
            "random_forest": {"n_trees": 50},
            "gradient_boosting": {"n_rounds": 60, "max_depth": 2},
        },
        "copula": {"B": 200},
    }).with_seed(params.seed).to_dict()


def write_synth(out_dir, params: SynthParams) -> dict:
    """Write cohort.csv, config.json and params.json under out_dir, each with
    ``write_file``; ``out_dir`` is checked before the cohort is generated."""
    check_output_dir(out_dir, "--out")
    header, rows = generate_cohort(params)
    out = Path(out_dir)
    config = default_config(str(out / "cohort.csv"), str(out / "report"), params)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_file(out / "cohort.csv", csv_text(header, rows))
        write_file(out / "config.json", json.dumps(config, indent=2))
        write_file(out / "params.json", json.dumps(asdict(params), indent=2))
    except OSError as exc:
        raise DataError(f"cannot write the synthetic cohort to {out_dir}: {exc}") from exc
    return config
