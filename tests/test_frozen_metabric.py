"""A METABRIC-shaped report, frozen by digest.

The cohort has the METABRIC export's layout: numeric patient ids, the 27
``DEFAULT_CLINICAL_COLUMNS`` in the export's kinds (0/1 therapies, text
levels, ``4ER+``-style cluster labels, numeric grades and stages, missing
cells), the survival columns among them, expression columns, string
``_mut`` columns and ``death_from_cancer`` labels. Its signal comes from
``synth.generate_cohort``. One analytic patient alone has the levels
``Breast Sarcoma`` and ``Metaplastic Breast Cancer``, so the fold that tests
that patient trains on a clinical design two columns narrower than the
other folds', and encodes that patient's unseen levels as all-zero blocks.

The run uses the acceptance criterion 8 config keys (default ``view_spec``,
``cv`` k = 5 and seed 0, ``copula`` seed 1) with the model and bootstrap
sizes cut down: at the elastic net's default lambda grid, the run takes
about 10 s, most of it in that search on the one-hot clinical design. Each
of its 13 report files must keep its recorded sha256, ``manifest.json``
with the run's paths masked. A refactor that claims to keep the outputs
passes this test unedited; a change that moves a report byte updates the
digest here and names the file and the reason in CHANGES.md. The digests
were recorded on the build in ``RECORDED_ON``.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from riskfuse.cli import main
from riskfuse.cohort import DEFAULT_CLINICAL_COLUMNS, SURVIVAL_COLUMNS
from riskfuse.synth import SynthParams, generate_cohort

from test_frozen_reports import RECORDED_ON, _build, _masked_manifest

N, N_GENES, SEED = 200, 60, 5
MUTATION_COLUMNS = ("tp53_mut", "pik3ca_mut", "cdh1_mut")
MUTATION_CALLS = ("0", "0", "0", "0", "R175H", "H1047R", "E545K")

# the export's column order: the survival columns sit among the clinical ones
EXPORT_ORDER = (*DEFAULT_CLINICAL_COLUMNS[:22], *SURVIVAL_COLUMNS[:2], *DEFAULT_CLINICAL_COLUMNS[22:],
                SURVIVAL_COLUMNS[2])

# the text and 0/1 columns that carry no synthetic signal, with their levels;
# "" is a missing cell
NOISE_LEVELS = {
    "type_of_breast_surgery": ("MASTECTOMY", "BREAST CONSERVING", "MASTECTOMY", ""),
    "cancer_type_detailed": ("Breast Invasive Ductal Carcinoma", "Breast Mixed Ductal and Lobular Carcinoma",
                             "Breast Invasive Lobular Carcinoma", "Breast Invasive Mixed Mucinous Carcinoma",
                             "Breast Invasive Ductal Carcinoma"),
    "cellularity": ("High", "Moderate", "Low", ""),
    "chemotherapy": ("0", "0", "1"),
    "pam50_+_claudin-low_subtype": ("LumA", "LumB", "Her2", "Basal", "claudin-low", "Normal", "NC"),
    "her2_status_measured_by_snp6": ("NEUTRAL", "NEUTRAL", "GAIN", "LOSS", "UNDEF"),
    "her2_status": ("Negative", "Negative", "Negative", "Positive"),
    "tumor_other_histologic_subtype": ("Ductal/NST", "Ductal/NST", "Mixed", "Lobular", "Medullary", ""),
    "hormone_therapy": ("1", "1", "0"),
    "inferred_menopausal_state": ("Post", "Post", "Pre"),
    "integrative_cluster": ("1", "2", "3", "4ER+", "4ER-", "5", "6", "7", "8", "9", "10"),
    "primary_tumor_laterality": ("Left", "Right", ""),
    "oncotree_code": ("IDC", "IDC", "MDLC", "ILC", "IMMC", "BREAST"),
    "pr_status": ("Positive", "Negative"),
    "radio_therapy": ("1", "0"),
    "3-gene_classifier_subtype": ("ER+/HER2- Low Prolif", "ER+/HER2- High Prolif", "ER-/HER2-", "HER2+", ""),
    "mutation_count": ("1.0", "2.0", "3.0", "5.0", "8.0", ""),
    "tumor_stage": ("0.0", "1.0", "2.0", "2.0", "3.0", "4.0", ""),
}

CONFIG = {
    "cv": {"k": 5, "seed": 0},
    "models": {"elastic_net_lr": {"grid_points": 3, "inner_folds": 2}, "random_forest": {"n_trees": 15},
               "gradient_boosting": {"n_rounds": 10}},
    "copula": {"B": 100, "seed": 1},
}

DIGESTS = {
    "copula_contours.svg": "0d304ba61d0c155ce98c40dcf0ed0d293399d47618f6e194eda4aa8ad7aa349d",
    "copula_fit.json": "9057feb987d2b7e780d1147791582c2379a3295042ecff445b5cb8e8d7dfc6ee",
    "copula_heat.svg": "514d05917598a5bb5654193e7d942fd22c01ba8334fc9134cc448ad3b3a481a8",
    "gof.json": "3280c2cf79b27f0d1271a2ecd069c0b1358e34d95f19a2144eea8950a06036cb",
    "km.svg": "f9a0bef2e40cf838ee43152725a9b35a2ce9215a2d7debb675f5be756d793d0f",
    "km_curves.csv": "9639acd1da05531a5cfc39919f2ef9496353c026697f84c949a8f55039eb196b",
    "manifest.json": "7c8beb947b2560f49f65f4e533688a2a3d5f602d3b029c1328059bf5d3c5c7a3",
    "model_auc.csv": "d73e642623b955a197be4d0c45446b366817b436b88f5daa2477154df45faeaa",
    "roc.svg": "c2aaef60946d9f3e58af6dd7f8b73a673743677a107df1a587309ea79d533467",
    "score_hist.svg": "bc6481dedeaa37fa12969afc81c1ef8af16fcd015d95cbababe13fb2026c01e1",
    "score_scatter.svg": "051be476f93fdb07be81ef3368cdd6ab5ea92d0255bdeb91f79e67c7b311d4a4",
    "scores.csv": "71656bedf99065916f1860bc8dcd61c49e5b256703693074b903b82f893ad0d0",
    "strata.csv": "4afaf39e90d63ec95fb2b60a94483cd23e8f795eb15f7823e06101bfbc717f3f",
}


def metabric_shaped_cohort():
    """The header and rows of the cohort, and the id of the one patient whose
    ``cancer_type`` is ``Breast Sarcoma``."""
    header, rows = generate_cohort(SynthParams(n=N, n_genes=N_GENES, seed=SEED))
    synth = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    rng = np.random.default_rng(SEED)
    receptor = ["Positive" if r == "positive" else "Negative" for r in synth["receptor_status"]]
    cols = {
        "patient_id": [str(3 * i) for i in range(N)],
        "age_at_diagnosis": synth["age_at_diagnosis"],
        "cancer_type": ["Breast Cancer"] * N,
        "cohort": [{"A": "1.0", "B": "2.0", "C": "3.0"}[c] for c in synth["center"]],
        "er_status_measured_by_ihc": ["Positve" if r == "Positive" else r for r in receptor],
        "er_status": receptor,
        "neoplasm_histologic_grade": [g[1:] + ".0" if g else "" for g in synth["grade"]],
        "lymph_nodes_examined_positive": [f"{round(float(v))}.0" for v in synth["node_burden"]],
        "nottingham_prognostic_index": synth["prognostic_index"],
        "tumor_size": synth["tumor_size"],
        **{name: synth[name] for name in SURVIVAL_COLUMNS},
        **{name: [levels[k] for k in rng.integers(len(levels), size=N)] for name, levels in NOISE_LEVELS.items()},
    }
    cols["death_from_cancer"][7] = ""  # an unknown status leaves the analytic set
    analytic = [i for i, (t, s) in enumerate(zip(cols["overall_survival_months"], cols["death_from_cancer"]))
                if s == "Died of Disease" or (s and float(t) >= 60)]
    rare = analytic[len(analytic) // 2]
    cols["cancer_type"][rare] = "Breast Sarcoma"
    cols["cancer_type_detailed"][rare] = "Metaplastic Breast Cancer"
    genes = [name for name in header if name.endswith("_exp")]
    mutations = {name: [MUTATION_CALLS[k] for k in rng.integers(len(MUTATION_CALLS), size=N)]
                 for name in MUTATION_COLUMNS}
    out_header = ["patient_id", *EXPORT_ORDER, *genes, *MUTATION_COLUMNS]
    table = [cols.get(name) or synth.get(name) or mutations[name] for name in out_header]
    return out_header, [list(row) for row in zip(*table)], cols["patient_id"][rare]


@pytest.fixture(scope="module")
def metabric_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("metabric") / "demo"
    root.mkdir()
    header, rows, rare_id = metabric_shaped_cohort()
    with open(root / "cohort.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    config = dict(CONFIG, input_csv=str(root / "cohort.csv"), output_dir=str(root / "report"))
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", str(root / "config.json")]) == 0
    return root, rare_id


def test_the_narrow_fold_patient_is_scored(metabric_report):
    root, rare_id = metabric_report
    with open(root / "report" / "scores.csv", newline="", encoding="utf-8") as fh:
        assert rare_id in {row["patient_id"] for row in csv.DictReader(fh)}


def test_metabric_shaped_run_writes_the_recorded_files(metabric_report):
    root, _ = metabric_report
    assert sorted(p.name for p in (root / "report").iterdir()) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_metabric_shaped_report_is_frozen(metabric_report, name):
    root, _ = metabric_report
    data = _masked_manifest(root) if name == "manifest.json" else (root / "report" / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name], (
        f"{name} changed; digests recorded on {RECORDED_ON}, this build is {_build()}"
    )
