"""Benchmark of the riskfuse ``fuse`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; riskfuse is imported from ``src/``. The seed
builds the workload's input files under ``.perfbench_work/<workload>/``
before anything is timed. Each ``fuse`` command then runs in a fresh
subprocess, one at a time (closed loop, one client), with FUSE_THREADS and
the BLAS thread pools pinned to 1, writing its report to the same relative
path ``report/`` on every run. The benchmark and every process it starts
are pinned to one CPU, which a speed probe (``speed.py``) samples while
the commands run; times are reported at its reference speed.

``--trace 0`` repeats the workload for about S seconds and reports the
end-to-end metrics: medians of wall time, user+sys CPU and peak RSS per run
(read with ``os.wait4``), the median start-up time of ``fuse --help`` over
several samples around every run, and the share of runs that passed their
checks. A run fails if a command exits non-zero, if its report files differ
from ``reference.json`` or from the first run of this invocation (sha256
over every report file), or if its reported AUCs disagree with a
brute-force recount.

``--trace 1`` alternates untraced and traced runs (see ``tracer.py``), then
runs the rank-kernel scaling probe, and reports the per-layer metrics of
``layers.py`` from the first traced run. Traced and untraced reports pass
the same digest check.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Details of every run go to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PINNED_THREADS = {"FUSE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# what the `fuse` console script runs
FUSE = (sys.executable, "-c", "import sys; from riskfuse.cli import main; sys.exit(main())")
MIN_RUNS = 2
SETUP_SAMPLES = 4  # fuse --help samples at least before the first run and after the last
SETUP_SHARE = 0.1  # and before every run, until they have taken this share of the pass
DEADLINE_S = 170.0  # every command is killed after this much time since start
FAMILIES = ("gaussian", "clayton", "gumbel")
GOF_B = 200

WORKLOADS = {
    "synth-800": ("synth_800", [["run", "--config", "config.json"]]),
    "metabric-scores": ("metabric_scores", [["run", "--config", "config.json", "--stage", "scores"]]),
    "metabric-ingest": ("metabric_ingest", [["run", "--config", "config.json", "--stage", "views"]]),
    "metabric-gof": ("metabric_gof", [["gof", "--scores", "scores.csv", "--family", fam, "--B", str(GOF_B),
                                       "--seed", "1", "--out", f"report/gof_{fam}.json"] for fam in FAMILIES]),
}

STARTED = time.monotonic()


def child_env() -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **PINNED_THREADS)


def spawn(argv, cwd, log, probe) -> dict:
    """Run one command to completion; wall time from spawn to exit, rusage of the child.

    ``wall_s`` and ``cpu_s`` are as measured; ``speed`` is the speed probe's
    reading over the same interval (see speed.py).
    """
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, DEADLINE_S - (time.monotonic() - STARTED)), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "speed": probe.speed(t0, t1),
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def report_digest(report: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in report.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(report)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def brute_force_auc(scores, y) -> float:
    import numpy as np

    pos, neg = scores[y == 1], scores[y == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))


def check_report(report: Path, ref: dict, tol: dict) -> list:
    """Problems found in one run's report, compared with the workload's reference."""
    import numpy as np

    files = sorted(p.name for p in report.iterdir()) if report.is_dir() else []
    if files != sorted(ref["files"]):
        return [f"report files {files} != {sorted(ref['files'])}"]
    problems = []

    def near(what, got, want, limit):
        if abs(got - want) > limit:
            problems.append(f"{what}: {got} vs expected {want}, tolerance {limit}")

    if "manifest.json" in files:
        manifest = json.loads((report / "manifest.json").read_text())
        for key in ("rows_loaded", "rows_analytic", "stages_run", "selected_models", "selected_copula"):
            if key in ref and manifest.get(key) != ref[key]:
                problems.append(f"{key}: {manifest.get(key)} != reference {ref[key]}")
        for key, want in ref.get("cv_auc", {}).items():
            near(f"cv_auc {key}", manifest["cv_auc"][key], want, tol["auc"])
        for fam, want in ref.get("gof_p_values", {}).items():
            near(f"p_value {fam}", manifest["gof_p_values"][fam], want, tol["p_value"])
        if "scores.csv" in files:
            table = np.genfromtxt(report / "scores.csv", delimiter=",", names=True, dtype=None, encoding="utf-8")
            for view, column in (("clinical", "p_clin"), ("genomic", "p_gen")):
                key = f"{view}:{manifest['selected_models'][view]}"
                near(f"recounted AUC {key}", brute_force_auc(table[column], table["y"]), manifest["cv_auc"][key], 1e-12)
    else:  # fuse gof results, one file per family
        results = [json.loads((report / f"gof_{fam}.json").read_text()) for fam in FAMILIES]
        for res in results:
            near(f"p_value {res['family']}", res["p_value"], ref["gof_p_values"][res["family"]], tol["p_value"])
            if (res["B"], res["m"]) != (GOF_B, ref["m"]):
                problems.append(f"{res['family']}: B={res['B']} m={res['m']}")
        best = max(results, key=lambda r: (r["p_value"], -r["statistic"], -FAMILIES.index(r["family"])))
        if best["family"] != ref["selected_copula"]:
            problems.append(f"selected copula {best['family']} != reference {ref['selected_copula']}")
    return problems


class Runner:
    """Runs one workload's commands and checks every run's report."""

    def __init__(self, name: str, work: Path, probe):
        self.commands = WORKLOADS[name][1]
        self.probe = probe
        self.work = work
        self.report = work / "report"
        reference = json.loads((BENCH / "reference.json").read_text())
        self.ref, self.tol = reference["workloads"][name], reference["tolerance"]
        self.first_digest = None
        self.runs = []

    def run(self, traced_spans: Path | None = None) -> dict:
        if self.report.exists():
            shutil.rmtree(self.report)
        self.report.mkdir()
        results = []
        for i, cmd in enumerate(self.commands):
            if traced_spans is None:
                argv = [*FUSE, *cmd]
            else:
                spans = traced_spans.with_suffix(f".{i}.json")
                argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), "--", *cmd]
            results.append(spawn(argv, self.work, self.work / f"cmd{i}.log", self.probe))
        run = {
            "traced": traced_spans is not None,
            "run_s": sum(r["wall_s"] * r["speed"] for r in results),
            "cpu_s": sum(r["cpu_s"] * r["speed"] for r in results),
            "wall_s_measured": sum(r["wall_s"] for r in results),
            "speed": [r["speed"] for r in results],
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "problems": [f"command {i} exited with {r['code']}" for i, r in enumerate(results) if r["code"] != 0],
        }
        if not run["problems"]:
            run["digest"] = report_digest(self.report)
            try:
                run["problems"] = check_report(self.report, self.ref, self.tol)
            except (KeyError, ValueError, OSError) as exc:
                run["problems"] = [f"report unreadable: {exc!r}"]
            run["problems"] += self._check_digest(run["digest"])
        for problem in run["problems"]:
            print(f"run {len(self.runs)} failed: {problem}", file=sys.stderr)
        self.runs.append(run)
        return run

    def _check_digest(self, digest: str) -> list:
        """The report must be byte-identical to the first run of this invocation."""
        if self.first_digest is None:
            self.first_digest = digest
        if digest == self.first_digest:
            return []
        return [f"report digest {digest[:12]} != first run {self.first_digest[:12]}"]


def setup_time(probe) -> float:
    """Wall seconds of one ``fuse --help`` at the reference speed: interpreter start,
    import and argument parsing."""
    log = WORK / "setup.log"
    run = spawn([*FUSE, "--help"], ROOT, log, probe)
    if run["code"] != 0:
        raise SystemExit(f"fuse --help exited with {run['code']}; see {log}")
    return run["wall_s"] * run["speed"]


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": PINNED_THREADS,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def timed_pass(runner: Runner, seconds: float):
    """Repeat the workload for about ``seconds``; end-to-end metrics as medians over the runs.

    ``fuse --help`` samples are taken between the runs, so that setup_s spans
    the same stretch of time as the runs: SETUP_SAMPLES before the first run
    and after the last, and before every run as many as keep them at
    SETUP_SHARE of the time so far.
    """
    start, setup, spent = time.perf_counter(), [], 0.0

    def sample_setup(minimum: int):
        nonlocal spent
        while minimum > 0 or spent < SETUP_SHARE * (time.perf_counter() - start):
            t0 = time.perf_counter()
            setup.append(setup_time(runner.probe))
            spent += time.perf_counter() - t0
            minimum -= 1

    sample_setup(SETUP_SAMPLES)
    while True:
        runner.run()
        elapsed = time.perf_counter() - start
        n = len(runner.runs)
        # at least MIN_RUNS: a median of two runs spans more of the host's drift,
        # and the digest check then compares runs within every invocation
        if n >= MIN_RUNS and elapsed * (n + 1) / n > seconds:
            break
        sample_setup(0)
    sample_setup(SETUP_SAMPLES)
    passed = [r for r in runner.runs if not r["problems"]]
    timed = passed or runner.runs
    values = {
        "run_s": statistics.median(r["run_s"] for r in timed),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "success_frac": len(passed) / len(runner.runs),
    }
    notes = {name: f"median of {len(timed)} runs" for name in ("run_s", "cpu_s", "peak_rss_mb")}
    notes["setup_s"] = f"median of {len(setup)} runs of fuse --help"
    for name in ("run_s", "cpu_s", "setup_s"):
        notes[name] += ", at the speed probe's reference speed"
    notes["run_s"] += "; measured: " + ", ".join(
        f"{r['wall_s_measured']:.3f} s at speed {r['run_s'] / r['wall_s_measured']:.3f}" for r in timed)
    return values, notes, {"setup_s": setup}


def traced_pass(runner: Runner, seed: int, seconds: float):
    """Untraced and traced runs in pairs, then the kernel probe; per-layer metrics."""
    import layers

    work = runner.work
    start, pairs = time.perf_counter(), []
    while True:
        plain = runner.run()
        traced = runner.run(traced_spans=work / f"spans{len(pairs)}")
        pairs.append((plain["run_s"], traced["run_s"]))
        elapsed = time.perf_counter() - start
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break
    commands = [json.loads(p.read_text()) for p in sorted(work.glob("spans0.*.json"))]
    probe_path = work / "probe.json"
    scaling = spawn([sys.executable, str(BENCH / "tracer.py"), "--probe", str(probe_path), "--seed", str(seed)],
                    work, work / "probe.log", runner.probe)
    if scaling["code"] != 0:
        raise SystemExit(f"kernel probe exited with {scaling['code']}; see {work / 'probe.log'}")
    written = sum(p.stat().st_size for p in runner.report.rglob("*") if p.is_file())
    overhead = statistics.median(t for _, t in pairs) / statistics.median(p for p, _ in pairs) - 1.0
    values = layers.layer_metrics(commands, json.loads(probe_path.read_text()), written, overhead)
    notes = {"gof.empirical_copula_pairs": "computed from call sizes, not measured",
             "trace_overhead_frac": f"medians of {len(pairs)} traced and {len(pairs)} untraced runs"}
    return values, notes, {"self_s": layers.self_times(commands)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="riskfuse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds through spawn(), which then kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "riskfuse" / "cli.py").is_file():
        print(f"no riskfuse sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    os.environ.update(PINNED_THREADS)  # before numpy loads in this process
    # one CPU for this process, its probe thread and every command: children
    # and threads inherit the affinity, so all of them run at the speed the probe sees
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import inputs
    from speed import SpeedProbe

    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    getattr(inputs, WORKLOADS[args.workload][0])(work, args.seed)
    env = dict(environment(), nproc=nproc)
    with SpeedProbe() as probe:
        setup_time(probe)  # warm-up: fills __pycache__ and the page cache
        runner = Runner(args.workload, work, probe)
        if args.trace:
            values, notes, extra = traced_pass(runner, args.seed, args.seconds)
        else:
            values, notes, extra = timed_pass(runner, args.seconds)
    # BENCHMARK.json names the metrics of each pass and their units
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = [(m["name"], m["unit"]) for m in declared]

    failed = sum(1 for r in runner.runs if r["problems"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    result = {"correct": failed == 0, "attempted": len(runner.runs), "failed": failed, "metrics": metrics}
    (WORK / "results").mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, environment=env, runs=runner.runs, **extra)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print("environment: " + json.dumps(env))
    for name, unit in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {values[name]:>14.6g} {unit}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
