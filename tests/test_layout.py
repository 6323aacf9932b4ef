"""Each file job has one path: ``cohort.read_csv`` reads every CSV and
``pipeline.write_file`` writes every file the package produces, so an
encoding, a line ending or an atomic rename is decided in one place. No module
opens a file for writing, or calls ``write_text`` or ``write_bytes``, outside
the body of ``pipeline.write_file``.

The benchmark's tracer wraps functions at the names their callers bind, so a
renamed import breaks every traced run; one traced ``fuse gof`` checks them,
and one traced ``fuse run --stage scores`` checks the counts read off the
elastic-net models, that both tree families' predictions are timed, and
that boosting's fits are. Out-of-fold forests grow through
``trees.fit_forests``, which the tracer does not wrap, so their fits show
only in ``scoring.oof_scores``.

The runtime is numpy and scipy: every module imports only the standard
library, numpy, scipy or riskfuse itself.

``riskfuse.__all__`` lists exactly the names the package's ``__init__``
imports or assigns, so ``from riskfuse import *`` cannot name a deleted one.
Every other top-level function and class of the package is named somewhere
in it outside its own definition and the imports of it, so no dead one is
left behind."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskfuse
from riskfuse.synth import SynthParams, write_synth

SRC = Path(riskfuse.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WRITE_METHODS = {"write_text", "write_bytes"}


def _dotted(node) -> str:
    return f"{node.value.id}.{node.attr}" if isinstance(node.value, ast.Name) else ""


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
        return True
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def test_one_reader_and_one_writer():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside_write_file = {
            id(node)
            for fn in ast.walk(tree)
            if path.name == "pipeline.py" and isinstance(fn, ast.FunctionDef) and fn.name == "write_file"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and _dotted(node) in ("csv.reader", "csv.DictReader") \
                    and path.name != "cohort.py":
                problems.append(f"{where} reads a CSV outside cohort.read_csv")
            if isinstance(node, ast.Attribute) and _dotted(node) == "os.replace" and path.name != "pipeline.py":
                problems.append(f"{where} renames a file outside pipeline.write_file")
            if isinstance(node, ast.Call) and _opens_for_writing(node) and id(node) not in inside_write_file:
                problems.append(f"{where} writes a file outside pipeline.write_file")
    assert problems == []


def test_runtime_imports_only_numpy_and_scipy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "riskfuse"}
    problems = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["riskfuse" if node.level else node.module]
            else:
                continue
            problems += [f"{path.name}:{node.lineno} imports {name}" for name in names if name.split(".")[0] not in allowed]
    assert problems == []


def _traced_spans(tmp_path, *fuse_args):
    """Run one fuse command under the benchmark's tracer; its spans as
    ``[name, start, end, parent, attrs]``."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--", *fuse_args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text())


def test_traced_gof_records_the_bootstrap_spans(tmp_path):
    rng = np.random.default_rng(4)
    scores = tmp_path / "scores.csv"
    scores.write_text("p_clin,p_gen\n" + "".join(f"{a!r},{b!r}\n" for a, b in rng.random((30, 2)).tolist()))
    spans = _traced_spans(tmp_path, "gof", "--scores", str(scores), "--family", "clayton", "--B", "5")
    names = {span[0] for span in spans}
    assert {"gof.parametric_bootstrap", "copulas.sample"} <= names


@pytest.fixture(scope="module")
def scores_spans(tmp_path_factory):
    """The spans of one traced ``fuse run --stage scores`` on a 120-row synthetic cohort."""
    tmp_path = tmp_path_factory.mktemp("traced_scores")
    write_synth(tmp_path / "cohort", SynthParams(n=120, n_genes=8, seed=3))
    return _traced_spans(tmp_path, "run", "--config", str(tmp_path / "cohort" / "config.json"), "--stage", "scores")


def test_traced_scores_read_sweeps_and_convergence_off_each_fit(scores_spans):
    # the tracer's linear.sweeps and linear.nonconverged come from n_iter_ and converged_
    fits = [attrs for name, _, _, _, attrs in scores_spans if name == "linear.fit"]
    assert fits
    assert all(type(a["sweeps"]) is int and a["sweeps"] >= 1 and type(a["converged"]) is bool for a in fits)


def test_traced_scores_time_both_tree_families(scores_spans):
    # trees.predict_s sums the trees.predict_proba spans, and trees.gb_nodes the gb fits' node counts
    predicted = [scores_spans[parent] for name, _, _, parent, _ in scores_spans if name == "trees.predict_proba"]
    assert {(span[0], span[4]["family"]) for span in predicted} == {
        ("scoring.oof_scores", "random_forest"), ("scoring.oof_scores", "gradient_boosting")}
    fits = [attrs for name, _, _, _, attrs in scores_spans if name == "trees.gb_fit"]
    assert fits and all(type(a["nodes"]) is int and a["nodes"] >= 1 for a in fits)


def test_all_lists_the_names_the_package_binds():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    bound += [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets if t.id != "__all__"]
    assert sorted(riskfuse.__all__) == sorted(bound)
    namespace = {}
    exec("from riskfuse import *", namespace)
    assert set(riskfuse.__all__) <= set(namespace)


def test_every_top_level_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in named and node.name not in riskfuse.__all__]
    assert unused == []
