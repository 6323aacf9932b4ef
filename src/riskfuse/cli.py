"""Command-line interface.

    fuse run   --config c.json [--stage NAME] [--seed N] [--out DIR]
    fuse synth --out DIR [--seed N] [--n N] [--copula FAMILY] [--tau T | --rho R] ...
    fuse gof   --scores scores.csv --family FAMILY [--B B] [--seed N]

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .cohort import read_csv
from .copulas import FAMILIES, kendall_tau, pseudo_observations
from .errors import ConfigError, DataError, FuseError, NumericError
from .gof import parametric_bootstrap
from .pipeline import CONFIG_SCHEMA, PipelineConfig, STAGES, check_output_dir, run_pipeline, write_file
from .synth import SYNTH_RULES, SynthParams, check_dependence_sign, write_synth


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuse", description="copula-based fusion of two ML risk scores")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the pipeline from a JSON config")
    run.add_argument("--config", required=True, help="path to the pipeline config JSON")
    run.add_argument("--stage", default=None, choices=STAGES, help="stop after this stage")
    run.add_argument("--seed", type=int, default=None, help="override cv and copula seeds")
    run.add_argument("--out", default=None, help="override the output directory")

    synth = sub.add_parser("synth", help="generate a synthetic cohort plus a matching config")
    synth.add_argument("--out", required=True, help="output directory")
    # each flag sets, and takes its default from, the SynthParams field named by its dest
    synth.add_argument("--seed", type=int, default=SynthParams.seed)
    synth.add_argument("--n", type=int, default=SynthParams.n)
    synth.add_argument("--copula", default=SynthParams.copula, help=f"one of {', '.join(FAMILIES)}")
    dependence = synth.add_mutually_exclusive_group()
    dependence.add_argument("--tau", type=float, default=SynthParams.tau, help="dependence strength as Kendall tau")
    dependence.add_argument("--rho", type=float, default=None, help="gaussian correlation (instead of --tau)")
    synth.add_argument("--genes", dest="n_genes", type=int, default=SynthParams.n_genes)
    synth.add_argument("--hazard-ratio", dest="hazard_ratio_both", type=float,
                       default=SynthParams.hazard_ratio_both, help="joint-high vs joint-low hazard ratio")
    synth.add_argument("--single-ratio", dest="hazard_ratio_single", type=float,
                       default=SynthParams.hazard_ratio_single, help="single-high vs joint-low hazard ratio")

    gof = sub.add_parser("gof", help="bootstrap goodness-of-fit for a score table")
    gof.add_argument("--scores", required=True, help="CSV with p_clin and p_gen columns")
    gof.add_argument("--family", required=True, choices=FAMILIES)
    # the defaults of a run's copula section, so a run's scores.csv reproduces its gof.json
    copula = CONFIG_SCHEMA["copula"]
    gof.add_argument("--B", type=int, default=copula["B"].default)
    gof.add_argument("--seed", type=int, default=copula["seed"].default)
    gof.add_argument("--out", default=None, help="optional path for the JSON result")
    return parser


def _unique_keys(value, path: str = ""):
    """A config parsed with ``object_pairs_hook=tuple``, with its objects as dicts;
    a key that one object holds twice is a ConfigError naming its dotted path."""
    if isinstance(value, list):
        return [_unique_keys(item, path) for item in value]
    if not isinstance(value, tuple):
        return value
    obj = {}
    for key, item in value:
        if key in obj:
            raise ConfigError(f"key {path + key!r} appears twice in one JSON object")
        obj[key] = _unique_keys(item, f"{path}{key}.")
    return obj


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            config = PipelineConfig.from_dict(_unique_keys(json.load(fh, object_pairs_hook=tuple)))
    except OSError as exc:
        raise ConfigError(f"[stage config] cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"[stage config] config {args.config} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"[stage config] config is not valid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"[stage config] {exc}") from exc
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if args.out is not None:
        check_output_dir(args.out, "--out")  # under the flag's name, before the config's check of output_dir
        config = dataclasses.replace(config, output_dir=args.out)
    bundle = run_pipeline(config, stop_after=args.stage)
    print(f"wrote {len(bundle.written_files)} files to {config.output_dir}")
    if bundle.best_copula is not None:
        print(f"selected copula: {bundle.best_copula.family} (p={bundle.best_copula.p_value:.4f})")
    return 0


def _cmd_synth(args) -> int:
    # SynthParams checks every field, naming its flag
    chosen = {field: getattr(args, field) for field in SYNTH_RULES}
    if args.rho is not None:  # the gaussian correlation of the same tau, so it has tau's range and sign
        rho = SYNTH_RULES["tau"][1].read(args.rho, "--rho")
        check_dependence_sign(args.copula, "--rho", rho)
        chosen["tau"] = float(2.0 / np.pi * np.arcsin(rho))
    write_synth(args.out, SynthParams(**chosen))
    print(f"wrote cohort.csv, config.json, params.json to {args.out}")
    return 0


def _score_cell(path, row_no, cell, column) -> float:
    """One score cell as a finite float; any other cell is a data error naming its row and column."""
    try:
        x = float(cell)
        if math.isfinite(x):
            return x
    except ValueError:
        pass
    raise DataError(f"{path}: row {row_no}, column {column}: {cell!r} is not a finite number")


def _cmd_gof(args) -> int:
    n_boot = CONFIG_SCHEMA["copula"]["B"].read(args.B, "--B")
    if args.out and os.path.isdir(args.out):  # False, not an OSError, for a name too long to stat
        raise ConfigError(f"--out {args.out}: names a directory, not a file")
    if args.out:
        parent = Path(args.out).parent
        try:
            parent_is_dir = parent.is_dir()
        except OSError as exc:  # such as a component longer than the file system allows
            raise ConfigError(f"--out {args.out}: cannot check {str(parent)!r}: {exc.strerror}") from exc
        if not parent_is_dir:
            raise ConfigError(f"--out {args.out}: {str(parent)!r} is not a directory")
    header, rows = read_csv(args.scores)
    if not {"p_clin", "p_gen"} <= set(header):
        raise DataError(f"{args.scores}: needs columns p_clin and p_gen")
    if len(rows) < 2:
        raise DataError(f"{args.scores}: {len(rows)} score row(s); the bootstrap needs at least two")
    i, j = header.index("p_clin"), header.index("p_gen")
    p_clin, p_gen = [], []
    for row_no, row in enumerate(rows, start=2):  # the header is row 1
        p_clin.append(_score_cell(args.scores, row_no, row[i], "p_clin"))
        p_gen.append(_score_cell(args.scores, row_no, row[j], "p_gen"))
    u = pseudo_observations(np.asarray(p_clin))
    v = pseudo_observations(np.asarray(p_gen))
    tau = kendall_tau(u, v)
    try:
        result = parametric_bootstrap(u, v, args.family, n_boot=n_boot, seed=args.seed)
    except NumericError as exc:  # a perfectly ordered table or replicate, which the message names
        raise NumericError(f"{args.scores}: {exc}") from exc
    payload = dict(result.to_dict(), tau=tau)
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        try:
            write_file(args.out, text + "\n")
        except OSError as exc:
            raise DataError(f"cannot write --out {args.out}: {exc}") from exc
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_gof(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except FuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
