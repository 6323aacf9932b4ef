"""The README demo's report, frozen by digest.

The demo is ``fuse synth --out demo --seed 7 --n 800 --copula gaussian
--tau 0.43`` and then ``fuse run --config demo/config.json``. Each of the 13
report files must keep its recorded sha256; ``manifest.json`` is digested
with the run's input and output paths masked. A refactor that claims to keep
the outputs passes this test unedited. A change that moves a report byte
updates the digest here and names the file and the reason in CHANGES.md.

The digests were recorded on the Python, numpy and scipy versions in
``RECORDED_ON``. A digest that fails on another build is re-recorded and
declared in the same way, not skipped.
"""

import hashlib
import json
import platform

import numpy as np
import pytest
import scipy

from riskfuse.cli import main

RECORDED_ON = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}

DEMO_DIGESTS = {
    "copula_contours.svg": "c1e35526a5c7262629360bfd9d2ca1c4ba36b9ec4e51a587e4e1bb343aa86844",
    "copula_fit.json": "9fb72fc4b9167ba526c10131c618924549ca672756f9a9b010b581ac32a592f1",
    "copula_heat.svg": "6dab83e0e39ebc8d30d9c48066d0945ca02842717743a351dc6df23dbc22ab50",
    "gof.json": "6ee17cc9e036a8b736718aa90ae46f3aafec87b4544bcee711f6dd5c8e2ef13e",
    "km.svg": "de73292a93689858d939c047b60ec24476bb218aecd2f85682ec08859db73b05",
    "km_curves.csv": "7c04041fa6e7b480283affc22d5b05473f149eccb80417a28cb8934a0d3c1a61",
    "manifest.json": "224bdfb55786278d5d5ea67e1c9030aa5eb4ba25064598637dd079f8f95ab5bf",
    "model_auc.csv": "5a5820e88a7fbcbab1d3ec439e863c20658575d2557c17090544f1a63f1a66bc",
    "roc.svg": "7bc65a9598601f72d4268dcb2bc66d72a6d706323f492e1e0b402e8b093dcc15",
    "score_hist.svg": "4984ce7e82f43fd19407eae30976f732df021b0cf873b1fad48a9f5ad6b3dab4",
    "score_scatter.svg": "b7f632f45103b41b52cff078df65e085355a8cf6ca1d315351fd04e0c4a51833",
    "scores.csv": "1db956d806ac9bf561b8aa8cec25e5cc383515b5974723294e5b742f08cdafe6",
    "strata.csv": "81c38a0851a434d07444d9351be4ac67076baf7e8d845033d36f57a2a15f15a4",
}


def _build() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


@pytest.fixture(scope="module")
def demo_report(tmp_path_factory):
    demo = tmp_path_factory.mktemp("readme") / "demo"
    flags = ["--seed", "7", "--n", "800", "--copula", "gaussian", "--tau", "0.43"]
    assert main(["synth", "--out", str(demo), *flags]) == 0
    assert main(["run", "--config", str(demo / "config.json")]) == 0
    return demo


def _masked_manifest(demo) -> bytes:
    text = (demo / "report" / "manifest.json").read_text()
    config = json.loads(text)["config"]
    assert (config["input_csv"], config["output_dir"]) == (str(demo / "cohort.csv"), str(demo / "report"))
    return text.replace(json.dumps(str(demo))[1:-1], "DEMO").encode()


def test_readme_demo_writes_the_recorded_files(demo_report):
    assert sorted(p.name for p in (demo_report / "report").iterdir()) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_readme_demo_report_is_frozen(demo_report, name):
    path = demo_report / "report" / name
    data = _masked_manifest(demo_report) if name == "manifest.json" else path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DEMO_DIGESTS[name], (
        f"{name} changed; digests recorded on {RECORDED_ON}, this build is {_build()}"
    )
