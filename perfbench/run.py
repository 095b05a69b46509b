"""Benchmark of the rcds CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The inputs are made from ``--seed``
before any timing: the cohort CSV by ``rcds simulate``, and the oracle
reference once per checkout (cached under ``perfbench/.cache``). A run then
starts whole CLI runs, each in a fresh interpreter with one BLAS thread,
until ``--seconds`` have passed, and lets the last one finish. Every CLI
run's artifacts must pass the checks in ``checks.py``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced CLI runs (see README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import checks
import tracing
from workloads import KAPPA, X_VALUE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
RUN_LIMIT_S = 170.0  # a run, set-up included, ends well within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("estimate_s", "s"),
              ("peak_rss_mb", "MB"))


def _unit(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


PER_LAYER = tuple((n, _unit(n)) for n in (
    "io.ingest_s", "io.ingest_rows", "io.write_s",
    "cohort.validate_s",
    "strategies.horizon_matrix_s",
    "expansion.expand_s", "expansion.expanded_rows", "expansion.expanded_mb",
    "expansion.horizon_table_s", "expansion.horizon_table_calls",
    "weights.fit_monitor_model_s", "weights.fit_monitor_model_calls",
    "weights.attach_weights_s",
    "weights.clone_horizon_weights_s", "weights.clone_horizon_weights_calls",
    "weights.censoring_plan_s", "weights.censoring_plan_calls",
    "glm.fit_glm_s", "glm.fit_glm_calls", "glm.irls_iterations",
    "glm.row_iterations",
    "msm.analyze_cohort_s", "msm.bootstrap_s", "msm.replicates_per_s",
    "msm.standardize_s", "msm.replicates_failed", "msm.replicates_pinned",
    "simulate.oracle_truth_s", "simulate.simulate_cohort_s",
    "study.cohort_s",
    "optimize.select_s",
    "chart.render_chart_s",
    "trace.overhead_s", "trace.spans",
))


# spans whose self time is a metric, and those whose call count is one
SELF_TIMED = (
    "io.ingest", "io.write", "cohort.validate", "strategies.horizon_matrix",
    "expansion.expand", "expansion.horizon_table",
    "weights.fit_monitor_model", "weights.attach_weights",
    "weights.clone_horizon_weights", "weights.censoring_plan", "glm.fit_glm",
    "msm.analyze_cohort", "msm.bootstrap", "msm.standardize",
    "simulate.oracle_truth", "simulate.simulate_cohort", "optimize.select",
    "chart.render_chart",
)
COUNTED_CALLS = (
    "expansion.horizon_table", "weights.fit_monitor_model",
    "weights.clone_horizon_weights", "weights.censoring_plan", "glm.fit_glm",
)


class Run:
    """One benchmark run: its scratch directory, deadline and CLI runs."""

    def __init__(self, workload, seed, seconds, trace):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.work = CACHE / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.log = self.work / "child.log"
        self.input_digest = {}
        self.rounds = []
        self.errors = []
        self.digests = None
        self.versions = {}

    def child(self, args, record, spans=None):
        """Run child.py to completion; returns (start time, exit code)."""
        cmd = [sys.executable, str(HERE / "child.py"), str(record),
               str(spans) if spans else "-", *args]
        with open(self.log, "a") as log:
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=self.budget())
        return t0, proc.returncode

    def budget(self):
        return max(RUN_LIMIT_S - (time.monotonic() - self.started), 1.0)

    def prepare(self):
        """Cohort CSV and oracle reference, made before any timing."""
        self.work.mkdir(parents=True)
        self.src_digest = _tree_digest(ROOT / "src" / "rcds")
        self.oracle = checks.read_oracle(self.oracle_reference())
        cohort = None
        if self.wl.command == "analyze":
            cfg = self.work / "simulate.yaml"
            _dump(cfg, {"mode": "simulate", "seed": self.seed,
                        "n": self.wl.subjects})
            _, rc = self.child(["simulate", "--config", str(cfg), "--out",
                                str(self.work / "cohort")],
                               self.work / "simulate.json")
            if rc != 0:
                raise RuntimeError(f"rcds simulate exited {rc}: {self._tail()}")
            self.input_digest = checks.digest(self.work / "cohort")
            cohort = str((self.work / "cohort" / "cohort.csv").relative_to(ROOT))
        self.config = self.wl.config(self.seed, self.seconds, cohort)
        self.config_path = self.work / "config.yaml"
        _dump(self.config_path, self.config)

    def oracle_reference(self):
        ref = CACHE / (f"oracle-{checks.REFERENCE_SEED}-"
                       f"{checks.REFERENCE_N_MC}-{self.src_digest[:16]}.csv")
        if not ref.exists():
            tmp = self.work / "oracle.csv"
            subprocess.run([sys.executable, str(HERE / "oracle_ref.py"),
                            str(tmp)], cwd=ROOT, env=_child_env(), check=True,
                           timeout=self.budget())
            os.replace(tmp, ref)
        return ref

    def one_round(self, traced):
        k = len(self.rounds)
        out = self.work / f"out{k}"
        record = self.work / f"round{k}.json"
        spans = self.work / f"round{k}.spans.json" if traced else None
        t0, rc = self.child([self.wl.command, "--config",
                             str(self.config_path), "--out", str(out)],
                            record, spans)
        ops = self.wl.operations(self.config)
        r = {"round": k, "traced": traced, "attempted": ops}
        if rc != 0:
            r["failed"] = ops
            print(f"CLI run {k} exited {rc}: {self._tail()}", file=sys.stderr)
            self.rounds.append(r)
            return
        rec = json.loads(record.read_text())
        r.update(wall_s=rec["end"] - t0, setup_s=rec["entry_start"] - t0,
                 estimate_s=rec["entry_end"] - rec["entry_start"],
                 peak_rss_mb=rec["maxrss_kb"] / 1024.0)
        self.versions = {key: rec[key] for key in ("python", "numpy", "scipy",
                                                   "blas_threads")}
        errs, r["failed"], r["oracle"] = self.verify(out)
        self.check_digest(out, errs)
        self.errors += [f"CLI run {k}: {e}" for e in errs]
        if traced:
            r["layers"] = self.layers(json.loads(spans.read_text()))
        self.rounds.append(r)
        shutil.rmtree(out)

    def verify(self, out):
        """Checks (a)-(d); returns (messages, failed operations, oracle gaps)."""
        if self.wl.command == "coverage":
            rows = checks.read_table(out / "coverage.csv")
            summary = checks.read_yaml(out / "coverage.yaml")
            errs = checks.check_coverage(
                rows, summary, self.oracle, X_VALUE, self.wl.cohorts,
                self.wl.oracle_n_mc)
            gap = {"oracle_risk": summary.get("oracle_risk"),
                   "reference_risk": self.oracle[X_VALUE][0]}
            return errs, 0, gap
        rows = checks.read_report(out / "report.csv")
        boot = checks.read_yaml(out / "weights.yaml")["bootstrap"]
        B = self.config["bootstrap"]
        errs = checks.check_ranges(rows, intervals=B > 0)
        if boot["B"] != B:
            errs.append(f"weights.yaml reports B={boot['B']}, configured {B}")
        if errs:  # the other checks need every cell of the report
            return errs, int(boot["failed"]), {}
        errs = checks.check_selection(
            rows, checks.read_yaml(out / "selection.yaml"), KAPPA)
        errs += checks.check_oracle(rows, self.oracle, self.wl.subjects)
        gap = {"max_abs": checks.oracle_gaps(rows, self.oracle)}
        if B > 0:
            gap["max_z"] = checks.oracle_z(rows, self.oracle)
        return errs, int(boot["failed"]), gap

    def check_digest(self, out, errs):
        """(e) artifacts equal across this run's CLI runs and earlier runs
        of the same workload, config (seed and B), source tree and benchmark
        code; the simulated cohort counts as an artifact of ``rcds simulate``."""
        got = checks.digest(out)
        got.update({f"simulate/{k}": v for k, v in self.input_digest.items()})
        if self.digests is None:
            config = {k: v for k, v in self.config.items() if k != "input"}
            bench = hashlib.sha256(b"".join(
                p.read_bytes() for p in sorted(HERE.glob("*.py")))).hexdigest()
            key = hashlib.sha256(json.dumps(
                [self.wl.name, config, self.src_digest, bench],
                sort_keys=True).encode()).hexdigest()
            path = CACHE / "digests" / f"{key}.json"
            if path.exists():
                self.digests = json.loads(path.read_text())
            else:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(got, sort_keys=True))
                os.replace(tmp, path)
                self.digests = got
        errs += checks.check_digests(got, self.digests)

    def layers(self, spans):
        """Per-layer metrics of one traced CLI run."""
        s = tracing.summarize(spans)

        def get(name, key="self_s"):
            return s.get(name, {}).get(key, 0)

        def count(name, key):
            return s.get(name, {}).get("counts", {}).get(key, 0)

        m = {f"{n}_s": get(n) for n in SELF_TIMED}
        m.update({f"{n}_calls": get(n, "calls") for n in COUNTED_CALLS})
        m["io.ingest_rows"] = count("io.ingest", "rows")
        m["expansion.expanded_rows"] = count("expansion.expand", "rows")
        m["expansion.expanded_mb"] = count("expansion.expand", "bytes") / 2 ** 20
        m["glm.irls_iterations"] = count("glm.fit_glm", "iterations")
        m["glm.row_iterations"] = count("glm.fit_glm", "row_iterations")
        reps = count("msm.bootstrap", "replicates")
        boot_s = get("msm.bootstrap", "incl_s") - tracing.nested_incl(
            spans, "msm.bootstrap", "msm.analyze_cohort")
        m["msm.replicates_per_s"] = reps / boot_s if reps else 0.0
        m["msm.replicates_failed"] = count("msm.bootstrap", "failed")
        m["msm.replicates_pinned"] = count("msm.bootstrap", "pinned")
        cohorts = count("study.run_coverage", "cohorts")
        m["study.cohort_s"] = (get("study.run_coverage", "incl_s") - get(
            "simulate.oracle_truth", "incl_s")) / cohorts if cohorts else 0.0
        m["trace.spans"] = len(spans)
        return m

    def measure(self):
        """Whole CLI runs, started until ``seconds`` have passed; a traced
        run alternates untraced and traced CLI runs, at least one of each."""
        deadline = time.monotonic() + self.seconds
        while time.monotonic() < deadline or len(self.rounds) < 1 + self.trace:
            self.one_round(traced=self.trace and len(self.rounds) % 2 == 1)

    def result(self):
        ok = [r for r in self.rounds if "wall_s" in r]
        attempted = sum(r["attempted"] for r in self.rounds)
        failed = sum(r["failed"] for r in self.rounds)
        metrics = {}
        if self.trace:
            traced = [r for r in ok if r["traced"]]
            plain = [r for r in ok if not r["traced"]]
            for name, unit in PER_LAYER:
                if name == "trace.overhead_s":
                    v = (_median(traced, "wall_s") - _median(plain, "wall_s")
                         if traced and plain else 0.0)
                elif not traced:
                    v = 0.0
                elif unit == "count":  # exact, the same in every CLI run
                    v = traced[0]["layers"][name]
                else:
                    v = statistics.median(r["layers"][name] for r in traced)
                metrics[name] = {"value": v, "unit": unit}
        else:
            for name, unit in END_TO_END:
                # a peak is the largest over the CLI runs; at 4k subjects
                # they differ by whether one 12-14 MB allocation stays resident
                v = (max((r[name] for r in ok), default=0.0)
                     if name == "peak_rss_mb" else _median(ok, name))
                metrics[name] = {"value": v, "unit": unit}
        correct = bool(ok) and not self.errors
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    def _tail(self):
        lines = self.log.read_text().splitlines() if self.log.exists() else []
        return " | ".join(lines[-5:])


def _child_env():
    """One BLAS/OpenMP thread, and RCDS_THREADS unset: one replicate worker."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("RCDS_THREADS", None)
    return env


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds) if rounds else 0.0


def _dump(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)


def _tree_digest(path):
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(path)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _environment():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": model}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rcds" / "cli.py").is_file():
        print(f"perfbench: no rcds source tree at {ROOT / 'src' / 'rcds'}",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.prepare()
        run.measure()
        for r in run.rounds:
            print(json.dumps(r, sort_keys=True))
        for e in run.errors:
            print(f"check failed: {e}", file=sys.stderr)
        env = _environment()
        env.update(run.versions)
        print(json.dumps({"environment": env, "workload": args.workload,
                          "seed": args.seed, "config": run.config},
                         sort_keys=True))
        print(json.dumps(run.result()))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
