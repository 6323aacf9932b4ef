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
    "copula_contours.svg": "061c1e1e939324016737ebddc9c350e3cc5828dd20457d5b607335b50a0a6407",
    "copula_fit.json": "55902fddeb91ed453b3e5785c8b36bf9072aeb40427e82a0882d257da1d0f143",
    "copula_heat.svg": "6dab83e0e39ebc8d30d9c48066d0945ca02842717743a351dc6df23dbc22ab50",
    "gof.json": "fc9341a33be5fdb14a4a8a3e6e6d00469927dd42333e8ee22103e24b56010568",
    "km.svg": "de73292a93689858d939c047b60ec24476bb218aecd2f85682ec08859db73b05",
    "km_curves.csv": "7c04041fa6e7b480283affc22d5b05473f149eccb80417a28cb8934a0d3c1a61",
    "manifest.json": "445d0436cfb0ccb4ef0d915d7fbcb75dfdabef8ce91ca34f10a0cee54eb7bf00",
    "model_auc.csv": "8bd1c6338caffbbb6b49f8bbc783c1bac1acd19bfecdbc72296f0051e27fe0e4",
    "roc.svg": "4649690aea10fc609374713568e68c15ea608e66eff4c5a1eb0b05a9cf1a2918",
    "score_hist.svg": "4984ce7e82f43fd19407eae30976f732df021b0cf873b1fad48a9f5ad6b3dab4",
    "score_scatter.svg": "37ef43d70cf8f44f253a59e0769324b488858085f11b2b8ef527052a8983b8ee",
    "scores.csv": "6db57f13e16610a56a7756886e63a2a74dba647215c12406dc2420d1a79b2594",
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
