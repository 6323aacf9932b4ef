import csv
import dataclasses
import hashlib
import inspect
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from riskfuse import cohort, folds, gof, pipeline, scoring, survival, synth
from riskfuse.cli import _build_parser, main
from riskfuse.copulas import pseudo_observations
from riskfuse.errors import ConfigError, NumericError
from riskfuse.schema import Key
from riskfuse.pipeline import CONFIG_SCHEMA, PLOT_FILES, STAGES, TABLE_FILES, PipelineConfig, render_plots, run_pipeline
from riskfuse.synth import SYNTH_RULES, SynthParams, default_config, write_synth

FAST_MODELS = {
    "elastic_net_lr": {"lam": 0.02},
    "random_forest": {"n_trees": 12, "min_leaf": 5},
    "gradient_boosting": {"n_rounds": 12, "max_depth": 2},
}

# a value just outside each SYNTH_RULES bound, as `fuse synth` reads it, and the rule it breaks
SYNTH_OUTSIDE = [
    ("n", "19", "must be >= 20, got 19"),
    ("n", "10", "must be >= 20, got 10"),
    ("tau", "-1.0", "must be > -1, got -1.0"),
    ("tau", "1.0", "must be < 1, got 1.0"),
    ("seed", "-1", "must be >= 0, got -1"),
    ("n_genes", "0", "must be >= 1, got 0"),
    ("hazard_ratio_both", "0.0", "must be > 0, got 0.0"),
    ("hazard_ratio_both", "-1.0", "must be > 0, got -1.0"),
    ("hazard_ratio_single", "0.0", "must be > 0, got 0.0"),
    ("copula", "frank", "must be one of gaussian, clayton, gumbel, got 'frank'"),
]

CLAYTON_FLAGS = ["--copula", "clayton", "--tau", "0.3", "--n", "300", "--genes", "12", "--hazard-ratio", "3",
                 "--single-ratio", "1.5"]
# sha256 of the `fuse synth` cohort.csv and config.json (the out directory written as OUT) per flag set;
# each cohort.csv as written while the generator's fixed settings were still SynthParams fields, each
# config.json as written once copula.m and copula.refit had left the schema
SYNTH_DIGESTS = [
    ([], "57f3e2d8f0eb6fa63a87c2dad98c1d1baf8efe94cd5180bc8808fc317e7fd100",
     "8a8d19e25c5733eac2839b3ca027c137dfcbdd900ea86f84ad8fc342487b49a2"),
    (["--seed", "7"], "2265313311402e1743a61bb960e48e9ae1104f005d328265e2c3c1e07cd01259",
     "5ac054d15a89babd945dcab64f9fc8fb623f9a7e59cd9d0cca82505c51c2641d"),
    (["--rho", "0.5"], "e941f82f33f7ae906b81e692c2060cf9ad6ae4fffcc492a0d3b6b5ada82700e7",
     "8a8d19e25c5733eac2839b3ca027c137dfcbdd900ea86f84ad8fc342487b49a2"),
    (CLAYTON_FLAGS, "b5cc0be44c99227c40f62524e1bc96a24cc4a858e0fb0e76b8e9e49a54688676",
     "8a8d19e25c5733eac2839b3ca027c137dfcbdd900ea86f84ad8fc342487b49a2"),
    (["--copula", "gumbel", "--tau", "0"], "28dab2f996091cad02ea3b44531f4ac0998a4190f3d909a8f0f9185914f5f205",
     "8a8d19e25c5733eac2839b3ca027c137dfcbdd900ea86f84ad8fc342487b49a2"),
]


class Twice:
    """A config value that the file holds twice under its key: ``first``, then ``then``."""

    def __init__(self, first, then):
        self.first, self.then = first, then


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """One small synthetic cohort and a completed pipeline run, shared."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = write_synth(root, SynthParams(n=260, seed=12))
    cfg["models"] = dict(FAST_MODELS)
    cfg["copula"]["B"] = 40
    config = PipelineConfig.from_dict(cfg)
    bundle = run_pipeline(config)
    return cfg, config, bundle


def test_each_view_fits_one_preprocessor_per_fold(tmp_path, monkeypatch):
    # every model family of a view is scored from the same fold designs: per
    # view and fold one preprocessor, one training and one test design
    cfg = write_synth(tmp_path, SynthParams(n=120, n_genes=8, seed=3))
    cfg["models"] = dict(FAST_MODELS)
    cfg["cv"]["k"] = 5
    calls = {"fit_preprocessor": 0, "transform": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(scoring, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(scoring, name, counted)
    bundle = run_pipeline(PipelineConfig.from_dict(cfg), stop_after="scores", emit=False)
    assert len(bundle.views) == 2 and len(bundle.oof) == 6
    assert calls == {"fit_preprocessor": 10, "transform": 20}


def _half_then_fail(only):
    """A ``Path.write_text`` that writes half the text of the file named
    ``only`` (under its temporary name) and then fails as a full disk does."""
    write_text = Path.write_text

    def write(path, text, *args, **kwargs):
        if only not in path.name:
            return write_text(path, text, *args, **kwargs)
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")
    return write


class TestConfigValidation:
    def test_k_below_two_rejected(self, synth_run):
        raw = dict(synth_run[0])
        raw["cv"] = {"k": 1}
        with pytest.raises(ConfigError, match="cv.k"):
            PipelineConfig.from_dict(raw)

    def test_zero_bootstrap_rejected(self, synth_run):
        raw = json.loads(json.dumps(synth_run[0]))
        raw["copula"]["B"] = 0
        with pytest.raises(ConfigError, match="copula.B"):
            PipelineConfig.from_dict(raw)

    def test_unknown_family_rejected(self, synth_run):
        raw = json.loads(json.dumps(synth_run[0]))
        raw["copula"]["families"] = ["frank"]
        with pytest.raises(ConfigError, match="frank"):
            PipelineConfig.from_dict(raw)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="input_csv"):
            PipelineConfig.from_dict({"output_dir": "x"})

    @pytest.mark.parametrize("section, key, value", [
        ("copula", "B", "many"),
        ("copula", "seed", 1.5),
        ("cv", "seed", None),
        (None, "horizon_months", "five years"),
    ])
    def test_type_errors_name_the_key(self, synth_run, section, key, value):
        raw = json.loads(json.dumps(synth_run[0]))
        (raw.setdefault(section, {}) if section else raw)[key] = value
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=name):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize("models", [None, FAST_MODELS])
    def test_to_dict_is_a_fixed_point(self, models):
        raw = default_config("cohort.csv", "report", SynthParams())
        if models is not None:
            raw["models"] = models
        config = PipelineConfig.from_dict(raw)
        assert PipelineConfig.from_dict(config.to_dict()) == config

    def test_fields_are_the_schema_keys(self):
        assert [f.name for f in dataclasses.fields(PipelineConfig)] == list(CONFIG_SCHEMA)

    def test_every_section_is_read_only(self):
        config = PipelineConfig.from_dict(default_config("cohort.csv", "report", SynthParams()))
        before = config.to_dict()

        def walk(section, spec):
            for key, sub in spec.items():
                with pytest.raises(TypeError):
                    section[key] = section[key]
                if isinstance(sub, dict):
                    walk(section[key], sub)

        for each in (config, config.with_seed(7)):
            for name, spec in CONFIG_SCHEMA.items():
                if isinstance(spec, dict):  # view_spec, cv, models (and each family), copula, strata, endpoint
                    walk(getattr(each, name), spec)
        assert config.to_dict() == before

    def test_a_new_section_key_round_trips(self, monkeypatch):
        monkeypatch.setitem(CONFIG_SCHEMA, "strata", dict(CONFIG_SCHEMA["strata"], extra=Key(int, 3)))
        raw = default_config("cohort.csv", "report", SynthParams())
        raw["strata"]["extra"] = 4
        config = PipelineConfig.from_dict(raw)
        assert config.strata == {"min_size": 10, "extra": 4}
        assert config.to_dict() == raw

    def test_readme_config_block_matches_schema(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = json.loads(text.split("```jsonc\n", 1)[1].split("```", 1)[0])
        defaults = PipelineConfig.from_dict({"input_csv": "cohort.csv", "output_dir": "report"}).to_dict()
        # the block elides the clinical columns after the first ones with "..."
        *shown, placeholder = block["view_spec"]["clinical_columns"]
        full = defaults["view_spec"]["clinical_columns"]
        assert placeholder == "..." and full[: len(shown)] == shown
        block["view_spec"]["clinical_columns"] = full
        assert block == defaults

    def test_unknown_stage_rejected(self, synth_run):
        with pytest.raises(ConfigError, match="unknown stage"):
            run_pipeline(synth_run[1], stop_after="nope")


class TestOutputs:
    def test_all_report_files_written(self, synth_run):
        out = Path(synth_run[1].output_dir)
        expected = {
            "scores.csv", "model_auc.csv", "copula_fit.json", "gof.json",
            "strata.csv", "km_curves.csv", "manifest.json",
            "roc.svg", "score_hist.svg", "score_scatter.svg",
            "copula_heat.svg", "copula_contours.svg", "km.svg",
        }
        assert expected <= {p.name for p in out.iterdir()}

    def test_scores_row_count_matches_analytic_cohort(self, synth_run):
        _, config, bundle = synth_run
        rows = list(csv.DictReader(open(Path(config.output_dir) / "scores.csv")))
        assert len(rows) == bundle.n_analytic
        assert set(rows[0]) == {"patient_id", "p_clin", "p_gen", "y", "t_months", "event"}

    def test_model_auc_has_six_rows(self, synth_run):
        _, config, _ = synth_run
        rows = list(csv.DictReader(open(Path(config.output_dir) / "model_auc.csv")))
        assert len(rows) == 6
        assert {(r["view"], r["model"]) for r in rows} == {
            (v, m)
            for v in ("clinical", "genomic")
            for m in ("elastic_net_lr", "random_forest", "gradient_boosting")
        }

    def test_copula_fit_json_schema(self, synth_run):
        _, config, _ = synth_run
        doc = json.load(open(Path(config.output_dir) / "copula_fit.json"))
        assert len(doc["fits"]) == 3
        for fit in doc["fits"]:
            assert {"family", "param", "tau", "lambda_L", "lambda_U"} <= set(fit)
            if fit["family"] == "gaussian":
                assert fit["lambda_L"] == 0.0 and fit["lambda_U"] == 0.0
            if fit["family"] == "clayton":
                assert fit["lambda_U"] == 0.0
            if fit["family"] == "gumbel":
                assert fit["lambda_L"] == 0.0

    def test_gof_json_satisfies_p_value_invariant(self, synth_run):
        _, config, _ = synth_run
        doc = json.load(open(Path(config.output_dir) / "gof.json"))
        for res in doc["results"]:
            b = res["B"]
            assert 1.0 / (b + 1.0) <= res["p_value"] <= 1.0
        assert doc["selected"] in ("gaussian", "clayton", "gumbel")

    def test_km_curves_schema(self, synth_run):
        _, config, _ = synth_run
        rows = list(csv.DictReader(open(Path(config.output_dir) / "km_curves.csv")))
        assert rows and set(rows[0]) == {"stratum", "t", "S_hat", "d", "r", "n_start"}

    def test_strata_assignment_covers_cohort(self, synth_run):
        _, config, bundle = synth_run
        rows = list(csv.DictReader(open(Path(config.output_dir) / "strata.csv")))
        assert len(rows) == bundle.n_analytic
        assert {r["stratum"] for r in rows} <= {"low_low", "high_clin_only", "high_gen_only", "high_both"}

    def test_svgs_are_valid_xml_without_external_refs(self, synth_run):
        _, config, _ = synth_run
        for name in ("roc.svg", "km.svg", "copula_heat.svg", "copula_contours.svg"):
            root = ET.parse(Path(config.output_dir) / name).getroot()
            for el in root.iter():
                assert el.tag.split("}")[-1] not in ("image", "script", "use", "link")
                assert not any("href" in a.lower() for a in el.attrib)

    def test_failed_writer_leaves_the_previous_file(self, synth_run, tmp_path, monkeypatch):
        bundle = dataclasses.replace(synth_run[2], written_files=[])
        render_plots(bundle, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        monkeypatch.setattr(Path, "write_text", _half_then_fail("km.svg"))
        with pytest.raises(OSError, match="No space left on device"):
            render_plots(bundle, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestDeterminism:
    def test_rerun_is_byte_identical(self, synth_run, tmp_path):
        raw, config, _ = synth_run
        def run_and_digest():
            run_pipeline(config)
            return {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(config.output_dir).iterdir())
            }
        first = run_and_digest()
        second = run_and_digest()
        assert first == second


class TestStagePrefix:
    def test_stop_after_copula_skips_gof_and_strata(self, synth_run, tmp_path):
        raw = json.loads(json.dumps(synth_run[0]))
        raw["output_dir"] = str(tmp_path / "prefix")
        bundle = run_pipeline(PipelineConfig.from_dict(raw), stop_after="copula")
        assert bundle.copula_fits and bundle.best_copula is None
        names = {Path(f).name for f in bundle.written_files}
        assert "copula_fit.json" in names and "gof.json" not in names
        assert bundle.stages_run == ["load", "endpoint", "views", "scores", "copula"]

    def test_prefix_run_removes_the_previous_runs_reports(self, synth_run, tmp_path):
        raw = json.loads(json.dumps(synth_run[0]))
        raw["output_dir"] = str(tmp_path / "out")
        config = PipelineConfig.from_dict(raw)
        run_pipeline(config)
        (tmp_path / "out" / "notes.txt").write_text("kept\n")
        bundle = run_pipeline(config, stop_after="copula")
        written = [Path(f).name for f in bundle.written_files]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(written + ["notes.txt"])
        assert set(TABLE_FILES + PLOT_FILES) - set(written) >= {"gof.json", "strata.csv", "km_curves.csv", "km.svg"}
        assert (tmp_path / "out" / "notes.txt").read_text() == "kept\n"

    # the files each --stage prefix writes, in the order it writes them
    PREFIX_FILES = {
        "load": ["manifest.json"],
        "endpoint": ["manifest.json"],
        "views": ["manifest.json"],
        "scores": ["scores.csv", "model_auc.csv", "manifest.json", "roc.svg", "score_hist.svg", "score_scatter.svg"],
        "copula": ["scores.csv", "model_auc.csv", "copula_fit.json", "manifest.json", "roc.svg", "score_hist.svg",
                   "score_scatter.svg"],
        "gof": ["scores.csv", "model_auc.csv", "copula_fit.json", "gof.json", "manifest.json", "roc.svg",
                "score_hist.svg", "score_scatter.svg", "copula_heat.svg", "copula_contours.svg"],
        "strata": [*TABLE_FILES, *PLOT_FILES],
    }

    @pytest.mark.parametrize("stop_after", STAGES)
    def test_each_prefix_writes_exactly_its_files(self, synth_run, tmp_path, stop_after):
        raw = json.loads(json.dumps(synth_run[0]))
        raw["output_dir"] = str(tmp_path / "prefix")
        bundle = run_pipeline(PipelineConfig.from_dict(raw), stop_after=stop_after)
        assert bundle.stages_run == list(STAGES[: STAGES.index(stop_after) + 1])
        assert [Path(f).name for f in bundle.written_files] == self.PREFIX_FILES[stop_after]
        assert sorted(p.name for p in (tmp_path / "prefix").iterdir()) == sorted(self.PREFIX_FILES[stop_after])

    def test_views_stage_tag_appears_once(self, synth_run, tmp_path, capsys):
        raw = json.loads(json.dumps(synth_run[0]))
        raw["output_dir"] = str(tmp_path / "out")
        raw.setdefault("view_spec", {})["clinical_columns"] = ["nope"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "[stage views] view column 'nope' not present in table" in err
        assert err.count("[stage") == 1

    def test_absent_survival_column_names_its_view_spec_key(self, tmp_path, capsys):
        cfg = write_synth(tmp_path, SynthParams(n=150, seed=3))
        path = Path(cfg["input_csv"])
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("overall_survival")
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(row[:drop] + row[drop + 1:] for row in rows)
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
        assert capsys.readouterr().err == ("data error: [stage views] view column 'overall_survival' not present "
                                           "in table; view_spec.survival_columns lists it\n")
        assert not Path(cfg["output_dir"]).exists()

    def test_absent_id_column_names_its_view_spec_key(self, tmp_path, capsys):
        cfg = write_synth(tmp_path, SynthParams(n=150, seed=3))
        cfg["view_spec"]["id_column"] = "pid"
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
        assert capsys.readouterr().err == ("data error: [stage endpoint] view column 'pid' not present in table; "
                                           "view_spec.id_column names it\n")
        assert not Path(cfg["output_dir"]).exists()

    # n = 40 at seed 3: the smallest class has 6 rows, and 4 in the smallest inner training fold
    @pytest.mark.parametrize("key, k, message", [
        ("cv.k", 30, "k=30 exceeds the smallest class count 6; cv.k sets k"),
        ("models.elastic_net_lr.inner_folds", 12,
         "k=12 exceeds the smallest class count 4; models.elastic_net_lr.inner_folds sets k"),
    ], ids=["cv.k", "inner_folds"])
    def test_too_many_folds_names_the_key(self, tmp_path, capsys, key, k, message):
        assert main(["synth", "--out", str(tmp_path / "s"), "--n", "40", "--seed", "3"]) == 0
        cfg = json.loads((tmp_path / "s" / "config.json").read_text())
        *sections, leaf = key.split(".")
        node = cfg
        for section in sections:
            node = node[section]
        node[leaf] = k
        (tmp_path / "s" / "config.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "s" / "config.json"), "--stage", "scores"]) == 3
        assert capsys.readouterr().err == f"data error: [stage scores] {message}\n"

    def test_views_exclude_endpoint_columns_without_survival_columns(self, tmp_path):
        cfg = write_synth(tmp_path, SynthParams(n=150, seed=3))
        cfg["view_spec"]["survival_columns"] = []
        bundle = run_pipeline(PipelineConfig.from_dict(cfg), stop_after="views", emit=False)
        names = {name for view in bundle.views.values() for name in view.column_names}
        assert not names & {"overall_survival_months", "overall_survival", "death_from_cancer"}

    def test_stage_tag_in_errors(self, tmp_path):
        cfg = {
            "input_csv": str(tmp_path / "missing.csv"),
            "output_dir": str(tmp_path / "out"),
        }
        with pytest.raises(Exception, match=r"\[stage load\]"):
            run_pipeline(PipelineConfig.from_dict(cfg), emit=False)


class TestCli:
    def test_synth_then_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--seed", "4", "--n", "120"]) == 0
        cfg = json.load(open(out / "config.json"))
        cfg["models"] = dict(FAST_MODELS)
        cfg["copula"]["B"] = 20
        cfg_path = out / "small.json"
        json.dump(cfg, open(cfg_path, "w"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (out / "report" / "manifest.json").exists()

    def test_synth_defaults_are_the_synth_params(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
        write_synth(tmp_path / "lib", SynthParams())
        for name in ("cohort.csv", "params.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
        raw = json.loads((tmp_path / "cli" / "config.json").read_text())
        assert raw == PipelineConfig.from_dict(raw).to_dict()  # every key spelled out

    @pytest.mark.parametrize("out", ["f", "f/out"])
    def test_synth_out_under_a_file_exits_two_before_generating(self, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "f").write_text("a file\n")
        monkeypatch.setattr(synth, "generate_cohort", lambda params: pytest.fail("cohort generated"))
        assert main(["synth", "--out", str(tmp_path / out), "--n", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {str(tmp_path / out)!r}: ")
        assert f"{str(tmp_path / 'f')!r} is not a directory" in err

    @pytest.mark.parametrize("flag, value, rule", [
        ("--rho", "2", "must be < 1, got 2.0"),
        ("--rho", "-1", "must be > -1, got -1.0"),
        ("--tau", "1.5", "must be < 1, got 1.5"),
        ("--tau", "nan", "must be a number, got nan"),
        ("--seed", "-1", "must be >= 0, got -1"),
        ("--hazard-ratio", "-1", "must be > 0, got -1.0"),
        ("--hazard-ratio", "nan", "must be a number, got nan"),
        ("--hazard-ratio", "inf", "must be a number, got inf"),
        ("--single-ratio", "0", "must be > 0, got 0.0"),
    ], ids=["rho=2", "rho=-1", "tau=1.5", "tau=nan", "seed=-1", "hazard-ratio=-1", "hazard-ratio=nan",
            "hazard-ratio=inf", "single-ratio=0"])
    def test_synth_out_of_range_exits_two_before_generating(self, tmp_path, capsys, monkeypatch, flag, value, rule):
        monkeypatch.setattr(synth, "generate_cohort", lambda params: pytest.fail("cohort generated"))
        assert main(["synth", "--out", str(tmp_path / "s"), flag, value]) == 2
        assert capsys.readouterr().err == f"config error: {flag} {rule}\n"
        assert not (tmp_path / "s").exists()

    def test_synth_without_genes_exits_two(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "s"), "--n", "30", "--genes", "0"]) == 2
        assert capsys.readouterr().err == "config error: --genes must be >= 1, got 0\n"
        assert not (tmp_path / "s" / "cohort.csv").exists()

    @pytest.mark.parametrize("field, value, rule", SYNTH_OUTSIDE, ids=[f"{f}={v}" for f, v, _ in SYNTH_OUTSIDE])
    def test_synth_rule_names_the_flag(self, tmp_path, capsys, field, value, rule):
        flag, key = SYNTH_RULES[field]
        with pytest.raises(ConfigError) as raised:
            SynthParams(**{field: key.kind(value)})
        assert str(raised.value) == f"{flag} {rule}"
        assert main(["synth", "--out", str(tmp_path / "s"), flag, value]) == 2
        assert capsys.readouterr().err == f"config error: {flag} {rule}\n"
        assert not (tmp_path / "s").exists()

    def test_synth_rules_cover_every_flag(self):
        assert {field for field, _, _ in SYNTH_OUTSIDE} == set(SYNTH_RULES)

    def test_synth_rules_cover_every_field(self):
        assert set(SYNTH_RULES) == {f.name for f in dataclasses.fields(SynthParams)}

    @pytest.mark.parametrize("flags, cohort_sha, config_sha", SYNTH_DIGESTS,
                             ids=["defaults", "seed=7", "rho=0.5", "clayton", "gumbel-tau=0"])
    def test_synth_files_are_frozen(self, tmp_path, flags, cohort_sha, config_sha):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), *flags]) == 0
        for name, sha in (("cohort.csv", cohort_sha), ("config.json", config_sha)):
            text = (out / name).read_text().replace(str(out), "OUT")
            assert hashlib.sha256(text.encode()).hexdigest() == sha, name
        params = json.loads((out / "params.json").read_text())
        assert list(params) == [f.name for f in dataclasses.fields(SynthParams)]

    @pytest.mark.parametrize("field, value", [("n", 20), ("seed", 0), ("n_genes", 1)])
    def test_synth_value_on_the_bound_is_accepted(self, field, value):
        header, rows = synth.generate_cohort(SynthParams(**{field: value}))
        assert len(rows) == (20 if field == "n" else SynthParams.n)
        assert len(header) == 12 + (1 if field == "n_genes" else SynthParams.n_genes)

    @pytest.mark.parametrize("family", ["clayton", "gumbel"])
    def test_synth_negative_tau_needs_the_gaussian_copula(self, tmp_path, capsys, family):
        rule = f"--tau must be >= 0 for the {family} copula, got -0.3"
        with pytest.raises(ConfigError, match=re.escape(rule)):
            SynthParams(copula=family, tau=-0.3)
        assert main(["synth", "--out", str(tmp_path / "s"), "--copula", family, "--tau", "-0.3"]) == 2
        assert capsys.readouterr().err == f"config error: {rule}\n"
        assert not (tmp_path / "s").exists()
        assert SynthParams(copula=family, tau=0.0).tau == 0.0
        assert SynthParams(copula="gaussian", tau=-0.3).tau == -0.3

    @pytest.mark.parametrize("family", ["clayton", "gumbel"])
    def test_synth_negative_rho_is_named(self, tmp_path, capsys, family):
        assert main(["synth", "--out", str(tmp_path / "s"), "--copula", family, "--rho", "-0.5"]) == 2
        assert capsys.readouterr().err == f"config error: --rho must be >= 0 for the {family} copula, got -0.5\n"
        assert not (tmp_path / "s").exists()

    def test_synth_tau_and_rho_exclude_each_other(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["synth", "--out", str(tmp_path / "s"), "--tau", "0.3", "--rho", "0.9"])
        assert exited.value.code == 2
        assert "argument --rho: not allowed with argument --tau" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_synth_rho_sets_the_gaussian_tau(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--n", "20", "--rho", "0.5"]) == 0
        assert json.loads((tmp_path / "s" / "params.json").read_text())["tau"] == pytest.approx(1.0 / 3.0)

    def test_synth_write_failure_exits_three(self, tmp_path, capsys):
        (tmp_path / "s" / "cohort.csv").mkdir(parents=True)  # a directory where cohort.csv goes
        assert main(["synth", "--out", str(tmp_path / "s"), "--n", "50"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write the synthetic cohort to {tmp_path / 's'}: ")
        assert "cohort.csv" in err

    def test_synth_failed_write_leaves_the_earlier_cohort(self, tmp_path, capsys, monkeypatch):
        assert main(["synth", "--out", str(tmp_path), "--n", "50"]) == 0
        before = (tmp_path / "cohort.csv").read_bytes()

        monkeypatch.setattr(Path, "write_text", _half_then_fail("cohort.csv"))
        assert main(["synth", "--out", str(tmp_path), "--n", "60"]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert (tmp_path / "cohort.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "config.json", "params.json"]

    def test_gof_replicates_default_to_copula_b(self):
        args = _build_parser().parse_args(["gof", "--scores", "s.csv", "--family", "gaussian"])
        assert args.B == CONFIG_SCHEMA["copula"]["B"].default

    def test_gof_reproduces_the_runs_gof_json(self, tmp_path):
        cfg = write_synth(tmp_path, SynthParams(n=200))
        assert cfg["copula"]["seed"] == CONFIG_SCHEMA["copula"]["seed"].default
        cfg["models"] = dict(FAST_MODELS)
        cfg["copula"]["B"] = 40
        run_pipeline(PipelineConfig.from_dict(cfg))
        report = Path(cfg["output_dir"])
        for entry in json.loads((report / "gof.json").read_text())["results"]:
            out = tmp_path / f"{entry['family']}.json"
            assert main(["gof", "--scores", str(report / "scores.csv"), "--family", entry["family"],
                         "--B", "40", "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            assert (doc["statistic"], doc["p_value"]) == (entry["statistic"], entry["p_value"])

    @staticmethod
    def copy_first_id(cfg, analytic: bool):
        """Give the first patient's id to the second analytic row, or to the
        first row without a 5-year outcome; return the id and both CSV rows."""
        table = cohort.load_cohort(cfg["input_csv"])
        y = cohort.build_endpoint(table, horizon=cfg["horizon_months"], status_column=None).y
        kept = np.flatnonzero(~np.isnan(y))
        first, target = kept[0], kept[1] if analytic else np.flatnonzero(np.isnan(y))[0]
        path = Path(cfg["input_csv"])
        lines = path.read_text().splitlines()
        pid = lines[first + 1].split(",")[0]
        lines[target + 1] = pid + lines[target + 1][lines[target + 1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        return pid, first + 2, target + 2

    def test_duplicate_patient_id_exits_three_at_endpoint(self, tmp_path, capsys):
        cfg = write_synth(tmp_path, SynthParams(n=150, seed=3))
        pid, row_a, row_b = self.copy_first_id(cfg, analytic=True)
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
        err = capsys.readouterr().err
        assert f"data error: [stage endpoint] patient_id {pid!r} appears in CSV rows {row_a} and {row_b}" in err
        assert not Path(cfg["output_dir"]).exists()

    @staticmethod
    def rewrite_ids(cfg, new_id):
        """Replace each row's id with ``new_id(i, old)`` for its 0-based row i."""
        path = Path(cfg["input_csv"])
        header, *lines = path.read_text().splitlines()
        lines = [new_id(i, line.split(",", 1)[0]) + line[line.index(","):] for i, line in enumerate(lines)]
        path.write_text("\n".join([header, *lines]) + "\n")

    def test_numeric_ids_are_reported_as_written(self, tmp_path):
        cfg = write_synth(tmp_path, SynthParams(n=150, seed=3))
        self.rewrite_ids(cfg, lambda i, old: str(1001 + i))
        cfg["models"] = dict(FAST_MODELS)
        cfg["copula"]["B"] = 20
        bundle = run_pipeline(PipelineConfig.from_dict(cfg))
        report = Path(cfg["output_dir"])
        for name in ("scores.csv", "strata.csv"):
            with open(report / name, newline="") as fh:
                ids = [row["patient_id"] for row in csv.DictReader(fh)]
            assert ids == bundle.patient_ids and all(pid.isdigit() for pid in ids), name

    def test_empty_id_on_an_analytic_row_exits_three(self, tmp_path, capsys):
        cfg = write_synth(tmp_path, SynthParams(n=150, seed=3))
        table = cohort.load_cohort(cfg["input_csv"])
        y = cohort.build_endpoint(table, horizon=cfg["horizon_months"], status_column=None).y
        blank = np.flatnonzero(~np.isnan(y))[1]
        self.rewrite_ids(cfg, lambda i, old: " " if i == blank else old)
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: [stage endpoint] patient_id is empty in CSV row {blank + 2}\n"
        assert not Path(cfg["output_dir"]).exists()

    def test_duplicate_id_on_a_dropped_row_still_runs(self, tmp_path):
        cfg = write_synth(tmp_path, SynthParams(n=150, seed=3))
        self.copy_first_id(cfg, analytic=False)
        cfg["models"] = dict(FAST_MODELS)
        bundle = run_pipeline(PipelineConfig.from_dict(cfg), stop_after="scores", emit=False)
        assert len(set(bundle.patient_ids)) == bundle.n_analytic < bundle.n_loaded

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"input_csv": "x.csv", "output_dir": "o", "cv": {"k": 1}}')
        assert main(["run", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[stage config]" in err

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"input_csv": "x.csv", "output_dir": "\xff"}')
        assert main(["run", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: [stage config] config {bad} is not UTF-8 text: ")

    def test_config_type_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"input_csv": "x.csv", "output_dir": "o", "copula": {"B": "many"}}')
        assert main(["run", "--config", str(bad)]) == 2
        assert "copula.B must be an integer, got 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [
        ("cv", 5),
        ("copula", []),
        ("strata", 3),
        ("endpoint", "x"),
        ("view_spec", 1),
        ("models", []),
        ("models", {"random_forest": 5}),
    ])
    def test_config_section_not_an_object_exits_two(self, tmp_path, capsys, section, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"input_csv": "x.csv", "output_dir": "o", section: value}))
        assert main(["run", "--config", str(bad)]) == 2
        name = "models.random_forest" if isinstance(value, dict) else section
        assert f"{name} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, argv", [
        ("copla", {}, []),
        ("cv.kk", 5, []),
        ("models.random_forest.n_tree", 10, []),
        ("view_spec.clinical_cols", ["age"], []),
        ("cv.k", 2.7, []),
        ("copula.families", 5, []),
        ("models.random_forest.n_trees", "many", []),
        ("models.elastic_net_lr.lam", "autoo", []),
        ("models.elastic_net_lr.grid_points", 0, []),
        ("cv", 5, ["--seed", "3"]),
        ("horizon_months", -5, []),
        ("models.elastic_net_lr.alpha", 2, []),
        ("view_spec.clinical_columns", "age", []),
        ("view_spec.clinical_columns", [], []),
        ("copula.families", [], []),
        ("copula.families", ["gaussian", "gaussian"], []),
        ("view_spec.clinical_columns", ["age_at_diagnosis", "grade", "age_at_diagnosis"], []),
        ("copula", Twice({"seed": 5}, {"B": 7}), []),
        ("copula.B", Twice(5, 7), []),
    ])
    def test_bad_config_exits_two_before_load(self, tmp_path, capsys, key, value, argv):
        raw = {"input_csv": str(tmp_path / "absent.csv"), "output_dir": str(tmp_path / "out")}
        *sections, leaf = key.split(".")
        node = raw
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
        text = json.dumps(raw, default=lambda twice: "TWICE")
        if isinstance(value, Twice):
            text = text.replace('"TWICE"', f"{json.dumps(value.first)}, {json.dumps(leaf)}: {json.dumps(value.then)}")
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [stage config] ")
        assert f"{key} must" in err or f"{key!r}" in err
        assert not (tmp_path / "out").exists()

    # no setting sizes or skips the bootstrap's refit: every replicate has the sample's pairs and is refitted
    @pytest.mark.parametrize("key, value", [("m", None), ("m", 20), ("refit", True), ("refit", False)])
    def test_removed_bootstrap_keys_are_unknown(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_csv": "x.csv", "output_dir": str(tmp_path / "o"), "copula": {key: value}}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"config error: [stage config] unknown config key 'copula.{key}'; "
                                           "expected one of families, B, seed\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value, item", [
        ("copula", "families", ["clayton", "gaussian", "clayton"], "clayton"),
        ("view_spec", "clinical_columns", ["age_at_diagnosis", "grade", "grade"], "grade"),
    ])
    def test_repeated_list_item_is_named(self, tmp_path, capsys, section, key, value, item):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_csv": "x.csv", "output_dir": "o", section: {key: value}}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: [stage config] {section}.{key} must not repeat {item!r}\n"

    def test_unreadable_cohort_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_csv": str(tmp_path / "none.csv"), "output_dir": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 3
        assert "[stage load]" in capsys.readouterr().err

    # bytes that are not UTF-8, and a field over the csv module's field-size limit
    UNREADABLE_CSV = [b"a,b\n1,\xff\n", b"a,b\n1," + b"9" * (csv.field_size_limit() + 1) + b"\n"]

    @pytest.mark.parametrize("body", UNREADABLE_CSV, ids=["not-utf8", "field-too-large"])
    def test_unparseable_cohort_exits_three(self, tmp_path, capsys, body):
        (tmp_path / "cohort.csv").write_bytes(body)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_csv": str(tmp_path / "cohort.csv"), "output_dir": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: [stage load] ") and "cohort.csv" in err

    @pytest.mark.parametrize("body", UNREADABLE_CSV, ids=["not-utf8", "field-too-large"])
    def test_gof_unparseable_scores_exits_three(self, tmp_path, capsys, body):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(body.replace(b"a,b", b"p_clin,p_gen"))
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10"]) == 3
        assert "scores.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["cohort.csv", "cohort.csv/report", "cohort.csv/a/b"])
    def test_output_dir_under_a_file_exits_two_before_load(self, tmp_path, capsys, out):
        (tmp_path / "cohort.csv").write_text("a\n1\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_csv": str(tmp_path / "absent.csv"), "output_dir": str(tmp_path / out)}))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [stage config] output_dir ")
        assert f"{str(tmp_path / 'cohort.csv')!r} is not a directory" in err

    def test_report_write_failure_exits_three(self, tmp_path, capsys):
        (tmp_path / "cohort.csv").write_text("a\n1\n")
        (tmp_path / "o" / "manifest.json").mkdir(parents=True)  # a directory where a report file goes
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_csv": str(tmp_path / "cohort.csv"), "output_dir": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg), "--stage", "load"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write the report to ") and "manifest.json" in err

    @pytest.mark.parametrize("out", ["nodir/g.json", "scores.csv/g.json"])
    def test_gof_bad_out_parent_exits_two(self, tmp_path, capsys, out):
        scores = tmp_path / "scores.csv"
        scores.write_text("p_clin,p_gen\n0.1,0.2\n0.3,0.4\n0.5,0.1\n")
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10",
                     "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: --out {tmp_path / out}: ")

    @pytest.mark.parametrize("argv, setting", [
        (["synth", "--out", "{out}", "--n", "50"], "--out '{out}'"),
        (["run", "--config", "{cfg}", "--out", "{out}/r"], "--out '{out}/r'"),
        (["gof", "--scores", "{absent}", "--family", "gaussian", "--out", "{out}/g.json"], "--out {out}/g.json"),
    ], ids=["synth", "run", "gof"])
    def test_out_with_a_name_too_long_exits_two(self, tmp_path, capsys, argv, setting):
        # a path component longer than the file system allows
        names = {"out": str(tmp_path / ("x" * 300)), "cfg": str(tmp_path / "c.json"), "absent": str(tmp_path / "absent.csv")}
        Path(names["cfg"]).write_text(json.dumps({"input_csv": names["absent"], "output_dir": str(tmp_path / "o")}))
        assert main([arg.format(**names) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {setting.format(**names)}: cannot check ")
        assert err.endswith(": File name too long\n")
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("out", ["x" * 300 + "/r", "cohort.csv/r"], ids=["long-name", "under-a-file"])
    def test_run_out_is_checked_under_its_own_name(self, tmp_path, capsys, out):
        (tmp_path / "cohort.csv").write_text("a\n1\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_csv": str(tmp_path / "cohort.csv"), "output_dir": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: --out {str(tmp_path / out)!r}: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "cohort.csv"]

    def test_gof_out_naming_a_directory_exits_two_before_reading(self, tmp_path, capsys):
        (tmp_path / "g.json").mkdir()
        assert main(["gof", "--scores", str(tmp_path / "absent.csv"), "--family", "gaussian", "--B", "10",
                     "--out", str(tmp_path / "g.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --out {tmp_path / 'g.json'}: names a directory, not a file\n"

    def test_gof_unwritable_out_exits_three(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("p_clin,p_gen\n" + "".join(f"{i / 31},{(7 * i) % 31 / 31}\n" for i in range(1, 31)))
        out = tmp_path / ("g" * 300)  # a file name longer than the file system allows
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10", "--out", str(out)]) == 3
        assert f"data error: cannot write --out {out}: " in capsys.readouterr().err

    def test_gof_subcommand(self, tmp_path, capsys, rng):
        rows = ["p_clin,p_gen"]
        z = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], size=150)
        for a, b in z:
            rows.append(f"{1/(1+np.exp(-a)):.6f},{1/(1+np.exp(-b)):.6f}")
        scores = tmp_path / "scores.csv"
        scores.write_text("\n".join(rows) + "\n")
        out = tmp_path / "gof.json"
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "50", "--out", str(out)]) == 0
        doc = json.load(open(out))
        assert doc["family"] == "gaussian" and doc["B"] == 50
        assert 1.0 / 51.0 <= doc["p_value"] <= 1.0

    def test_duplicate_header_exits_three_naming_it(self, tmp_path, capsys):
        (tmp_path / "cohort.csv").write_text("patient_id,age,overall_survival_months,age\nP1,50,70,51\n")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"input_csv": str(tmp_path / "cohort.csv"), "output_dir": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.endswith("cohort.csv: duplicate header name 'age' at columns 2, 4\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("p_clin,p_gen,p_clin\n0.1,0.2,0.3\n")
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10"]) == 3
        assert capsys.readouterr().err.endswith("scores.csv: duplicate header name 'p_clin' at columns 1, 3\n")

    def test_gof_missing_columns_exits_three(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("a,b\n1,2\n")
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10"]) == 3

    @pytest.mark.parametrize("cell", ["high", "nan", "inf", ""])
    def test_gof_bad_score_cell_exits_three(self, tmp_path, capsys, cell):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"p_clin,p_gen\n0.1,0.2\n0.3,0.4\n{cell},0.1\n0.7,0.9\n")
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10"]) == 3
        assert f"row 4, column p_clin: {cell!r} is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.3", "0.3,0.4,0.5"], ids=["short", "long"])
    def test_gof_ragged_scores_exits_three(self, tmp_path, capsys, row):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"p_clin,p_gen\n0.1,0.2\n{row}\n0.5,0.1\n")
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10"]) == 3
        assert f"row 3 has {row.count(',') + 1} fields, header has 2" in capsys.readouterr().err

    def test_gof_reads_a_byte_order_mark(self, tmp_path, capsys):
        body = "p_clin,p_gen\n" + "".join(f"{i / 31},{(7 * i) % 31 / 31}\n" for i in range(1, 31))
        outputs = []
        for name, data in (("plain.csv", body.encode()), ("bom.csv", b"\xef\xbb\xbf" + body.encode())):
            (tmp_path / name).write_bytes(data)
            assert main(["gof", "--scores", str(tmp_path / name), "--family", "clayton", "--B", "10"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_gof_perfectly_ordered_replicate_exits_four(self, tmp_path, capsys):
        # two swapped neighbours are 1 discordant pair of 190, a fitted tau of 0.9895, so the 20 pairs of
        # replicate 4 come out in order: tau 1, which the gaussian fit cannot invert
        p_gen = [2, 1, *range(3, 21)]
        rows = "".join(f"{i / 21},{p_gen[i - 1] / 21}\n" for i in range(1, 21))
        (tmp_path / "s.csv").write_text("p_clin,p_gen\n" + rows)
        argv = ["gof", "--scores", str(tmp_path / "s.csv"), "--family", "gaussian", "--B", "10",
                "--out", str(tmp_path / "g.json")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(re.escape(f"numeric error: {tmp_path / 's.csv'}: ") +
                            r"gaussian bootstrap replicate 4 of 10 \(20 pairs\) has Kendall tau "
                            r"-?1\.0: gaussian fit requires \|tau\| < 1\n", err), err
        assert not (tmp_path / "g.json").exists()

    def test_gof_replicate_failure_is_the_bootstraps_error_after_the_file_name(self, tmp_path, capsys):
        # the 20 pairs of the test above, whose replicate 4 is perfectly ordered
        p_clin, p_gen = np.arange(1, 21) / 21, np.array([2, 1, *range(3, 21)]) / 21
        scores = tmp_path / "s.csv"
        scores.write_text("p_clin,p_gen\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(p_clin.tolist(), p_gen.tolist())))
        u, v = pseudo_observations(p_clin), pseudo_observations(p_gen)
        with pytest.raises(NumericError, match="replicate 4 of 10") as raised:
            gof.parametric_bootstrap(u, v, "gaussian", n_boot=10, seed=CONFIG_SCHEMA["copula"]["seed"].default)
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10"]) == 4
        assert capsys.readouterr().err == f"numeric error: {scores}: {raised.value}\n"

    @pytest.mark.parametrize("family, step, rule", [("gaussian", 1, "|tau| < 1"), ("gaussian", -1, "|tau| < 1"),
                                                    ("clayton", 1, "tau < 1"), ("gumbel", 1, "tau < 1")])
    @pytest.mark.parametrize("rows", [2, 3])
    def test_gof_perfectly_ordered_sample_exits_four_naming_the_table(self, tmp_path, capsys, family, step, rule,
                                                                       rows):
        scores = tmp_path / "scores.csv"
        scores.write_text("p_clin,p_gen\n" + "".join(f"{i / 10},{0.5 + step * i / 10}\n" for i in range(1, rows + 1)))
        argv = ["gof", "--scores", str(scores), "--family", family, "--B", "10", "--out", str(tmp_path / "g.json")]
        assert main(argv) == 4
        assert capsys.readouterr().err == (f"numeric error: {scores}: the observed sample of {rows} pairs, not a "
                                           f"bootstrap replicate, has Kendall tau {float(step)}: {family} fit "
                                           f"requires {rule}\n")
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("family, rule", [("gaussian", "|tau| < 1"), ("clayton", "tau < 1"), ("gumbel", "tau < 1")])
    def test_run_with_perfectly_ordered_scores_names_the_score_columns(self, tmp_path, capsys, monkeypatch, family,
                                                                        rule):
        # every model of both views scores the rows alike, so p_clin and p_gen have tau 1; on the tied
        # AUCs each view selects the first family
        monkeypatch.setattr(pipeline, "oof_scores", lambda view, y, *args, **kwargs: np.linspace(0.1, 0.9, len(y)))
        cfg = write_synth(tmp_path, SynthParams(n=60, seed=3))
        cfg["copula"]["families"] = [family]
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "c.json")]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"numeric error: \[stage copula\] p_clin \(clinical elastic_net_lr\) and p_gen \(genomic "
                            rf"elastic_net_lr\) have Kendall tau 1\.0 over \d+ rows: {family} fit requires "
                            rf"{re.escape(rule)}\n", err), err

    @pytest.mark.parametrize("rows", [[], ["0.3,0.4"]], ids=["header-only", "one-row"])
    def test_gof_too_few_score_rows_exits_three(self, tmp_path, capsys, rows):
        scores = tmp_path / "scores.csv"
        scores.write_text("".join(f"{line}\n" for line in ["p_clin,p_gen", *rows]))
        assert main(["gof", "--scores", str(scores), "--family", "gaussian", "--B", "10"]) == 3
        assert capsys.readouterr().err == (f"data error: {scores}: {len(rows)} score row(s); "
                                           "the bootstrap needs at least two\n")

    def test_gof_replicate_size_flag_is_gone(self, tmp_path, capsys):
        # every replicate has the sample's pairs, so there is no --m to set
        with pytest.raises(SystemExit) as exited:
            main(["gof", "--scores", str(tmp_path / "absent.csv"), "--family", "gaussian", "--m", "20"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --m 20" in capsys.readouterr().err

    @pytest.mark.parametrize("bom_on", ["cohort.csv", "c.json"])
    def test_run_reads_a_byte_order_mark(self, tmp_path, bom_on):
        # --stage endpoint: the first header, patient_id, is looked up there
        (tmp_path / "cohort.csv").write_text("patient_id,overall_survival_months,death_from_cancer\n"
                                             "P1,70,Living\nP2,12,Died of Disease\nP3,30,Living\n")
        (tmp_path / "c.json").write_text(json.dumps({"input_csv": str(tmp_path / "cohort.csv"),
                                                     "output_dir": str(tmp_path / "o")}))
        (tmp_path / bom_on).write_bytes(b"\xef\xbb\xbf" + (tmp_path / bom_on).read_bytes())
        assert main(["run", "--config", str(tmp_path / "c.json"), "--stage", "endpoint"]) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert (manifest["rows_loaded"], manifest["rows_analytic"]) == (3, 2)

    @pytest.mark.parametrize("flag, value, bound", [("--B", "0", 1), ("--B", "-1", 1)], ids=["B=0", "B=-1"])
    def test_gof_invalid_replicates_exits_two(self, tmp_path, capsys, flag, value, bound):
        # the copula.B rule of a run config, checked before the scores file is opened
        argv = ["gof", "--scores", str(tmp_path / "absent.csv"), "--family", "gaussian", flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {flag} must be >= {bound}, got {value}\n"

    def test_seed_override_changes_outputs(self, tmp_path):
        out = tmp_path / "s"
        main(["synth", "--out", str(out), "--seed", "4", "--n", "120"])
        cfg = json.load(open(out / "config.json"))
        cfg["models"] = dict(FAST_MODELS)
        cfg["copula"]["B"] = 20
        cfg_path = out / "small.json"
        json.dump(cfg, open(cfg_path, "w"))
        main(["run", "--config", str(cfg_path), "--out", str(out / "r1")])
        main(["run", "--config", str(cfg_path), "--out", str(out / "r2"), "--seed", "99"])
        m1 = json.load(open(out / "r1" / "manifest.json"))
        m2 = json.load(open(out / "r2" / "manifest.json"))
        assert m1["config"]["cv"]["seed"] != m2["config"]["cv"]["seed"]
        assert (m2["config"]["cv"]["seed"], m2["config"]["copula"]["seed"]) == (99, 100)
        assert m1["kendall_tau"] != m2["kendall_tau"]


def test_run_settings_have_no_library_defaults():
    required = {
        gof.parametric_bootstrap: ("n_boot", "seed"),
        cohort.variance_filter: ("k",),
        cohort.build_endpoint: ("horizon", "status_column"),
        folds.stratified_kfold: ("k", "seed"),
        survival.strata_km: ("min_size",),
    }
    for fn, names in required.items():
        params = inspect.signature(fn).parameters
        assert [n for n in names if params[n].default is not inspect.Parameter.empty] == [], fn.__name__
    assert "horizon" not in {f.name for f in dataclasses.fields(cohort.EndpointVector)}
