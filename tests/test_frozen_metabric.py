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
``cv`` k = 5 and seed 0, ``copula`` seed 1) and the elastic net's default
lambda search, with the tree and bootstrap sizes cut down; it takes about
1 s. Each of its 13 report files must keep its recorded sha256,
``manifest.json`` with the run's paths masked. A refactor that claims to keep the outputs
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
    "models": {"random_forest": {"n_trees": 15}, "gradient_boosting": {"n_rounds": 10}},
    "copula": {"B": 100, "seed": 1},
}

DIGESTS = {
    "copula_contours.svg": "ac4a4d3e8d4147410b0457e2ef49b7bf56d4756c97108ae11108b2383e65950e",
    "copula_fit.json": "1e774b38bb4c5fed27dc868abb66cd408fb10167a4fab348a88d856ef67bc51b",
    "copula_heat.svg": "a948b65ccf2b0b6351ae0708eb34482d98e6e299875dfe86b5106dd8b1b1888a",
    "gof.json": "cfb689acf2cd6d0fff5d5b549ff217e4a1b8866341acfe043eefd92fcd2eefa5",
    "km.svg": "343e5ba9bc046f4f45b76179ae95257df7843dc3c1acab805f164c7300a5d6a4",
    "km_curves.csv": "537aa74c88310aaab2584b8ebd71f1aa0cfa8d92139d439f726a79368d8bf2b4",
    "manifest.json": "fcb2cbefa21e3478849c7c82027c212c903fee4460dade1317afc13fc7744951",
    "model_auc.csv": "2b27532dea45f6ae3ede9c245f74900194578aa9849ad7bd05e9f0509b6e4b5e",
    "roc.svg": "504e18c16df016ffc7f5763f0459c51972b668566af6730b359c4fce37ed1e55",
    "score_hist.svg": "a1aca473603509f47fdc611c759f225d1f72fd6721721c3139b85360edd5e084",
    "score_scatter.svg": "d713aaf6da7174cc1b40b0d7e18f846c2399c2d3dc8e784fee56081e2a8f1625",
    "scores.csv": "1dba991f15ce40f109b399e12ebee5cdfe1719ce2d82456b7d663841c5f67831",
    "strata.csv": "8da7807ac774eaa54e4e4e398cc972344d78fa126dc6bc5dea29dac7220622fd",
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
