"""Record the benchmark of one source tree in a BENCH file.

    python3 tools/bench.py --label NAME [--root CHECKOUT] [--out DIR]

For each workload of the checkout's ``BENCHMARK.json``, this runs
``perfbench/run.py`` of the checkout at ``--root`` unchanged, at seed
``SEED`` and for the benchmark's ``run_seconds``, once with ``--trace 0``
(the end-to-end metrics) and once with ``--trace 1`` (the per-layer
metrics), one after the other. It writes ``BENCH_<label>.json``
into ``--out`` (default ``bench/`` beside this script). For each run the file
holds the final JSON object and the environment line that ``run.py``
prints, and ``ok``: ``correct`` and no failed operation, because ``run.py``
can report ``correct: true`` when CLI runs failed. The file also records the
checkout's ``git rev-parse HEAD``, whether its source or benchmark differs
from that commit, and the digest of ``src/rcds`` that ``run.py`` keys its
caches by.

Under ``north_star`` it records the runs the project's North star names:
the seed-``SEED`` cohorts of ``NORTH_STAR`` subjects, made by ``rcds
simulate`` and analyzed with ``bootstrap: NORTH_STAR_B`` under the
workloads' baseline schema and cap, each through the checkout's unchanged
``perfbench/child.py``: once for the end-to-end timings and peak RSS, then
traced for the per-layer spans. A run is ``ok`` only if both exit 0 and
write byte-identical artifacts. ``child.py`` imports scipy, so this script
needs the package's test extra.

To compare a change with its parent, record the parent from a clone of it:

    git clone . ../parent && git -C ../parent checkout PARENT
    python3 tools/bench.py --root ../parent --label PARENT
    python3 tools/bench.py --label CHANGE
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
SEED = 7
NORTH_STAR = (4000, 20000)  # subjects
NORTH_STAR_B = 200
ARTIFACTS = ("report.csv", "selection.yaml", "weights.yaml", "chart.svg")


def _git(root, *args):
    done = subprocess.run(["git", "-C", str(root), *args],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest(root):
    """The digest of ``src/rcds`` as ``perfbench/run.py`` computes it."""
    h = hashlib.sha256()
    src = root / "src" / "rcds"
    for p in sorted(src.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(src)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_once(root, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` run: its parsed output and ``ok``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [json.loads(ln) for ln in done.stdout.splitlines()
             if ln.startswith("{")]
    record = {"command": cmd[1:], "exit_status": done.returncode,
              "environment": next((ln for ln in lines if "environment" in ln),
                                  None),
              "result": lines[-1] if lines and "metrics" in lines[-1]
              else None}
    result = record["result"] or {}
    record["ok"] = bool(result.get("correct")) and result.get("failed") == 0
    if done.returncode != 0 or not record["ok"]:
        record["stderr_tail"] = done.stderr.splitlines()[-10:]
    return record


def _child(root, work, name, args, summarize=None):
    """One ``rcds`` run of ``args`` through the checkout's ``child.py``, with
    one BLAS thread: its exit status and, on exit 0, its timings, peak RSS
    and, traced when ``summarize`` (``tracing.summarize``) is given, the
    summary of its spans."""
    record, spans = work / f"{name}.json", work / f"{name}.spans.json"
    cmd = [sys.executable, str(root / "perfbench" / "child.py"), str(record),
           str(spans) if summarize else "-", *map(str, args)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    run = {"exit_status": done.returncode}
    if done.returncode != 0:
        run["stderr_tail"] = done.stderr.splitlines()[-10:]
        return run
    rec = json.loads(record.read_text())
    if "entry_start" in rec:
        run.update(setup_s=rec["entry_start"] - t0,
                   estimate_s=rec["entry_end"] - rec["entry_start"])
    run.update(wall_s=rec["end"] - t0, peak_rss_mb=rec["maxrss_kb"] / 1024.0)
    if summarize:
        run["layers"] = summarize(json.loads(spans.read_text()))
    return run


def north_star(root, n):
    """The seed-``SEED`` cohort of ``n`` subjects analyzed with
    ``NORTH_STAR_B`` replicates, untraced and then traced. The checkout's
    ``perfbench`` must be on ``sys.path``."""
    from tracing import summarize
    from workloads import BASELINE_SCHEMA, KAPPA

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "simulate.yaml").write_text(yaml.safe_dump(
            {"mode": "simulate", "seed": SEED, "n": n}))
        made = _child(root, work, "simulate", [
            "simulate", "--config", work / "simulate.yaml", "--out",
            work / "cohort"])
        entry = {"subjects": n, "bootstrap": NORTH_STAR_B, "ok": False}
        if made["exit_status"] != 0:
            entry["simulate"] = made
            return entry
        (work / "analyze.yaml").write_text(yaml.safe_dump({
            "mode": "analyze", "seed": SEED,
            "input": str(work / "cohort" / "cohort.csv"), "kappa": KAPPA,
            "bootstrap": NORTH_STAR_B, "baseline_schema": BASELINE_SCHEMA}))
        for trace in (0, 1):
            entry[f"trace{trace}"] = _child(
                root, work, f"analyze{trace}", [
                    "analyze", "--config", work / "analyze.yaml", "--out",
                    work / f"out{trace}"], summarize if trace else None)
        entry["ok"] = all(entry[f"trace{t}"]["exit_status"] == 0
                          for t in (0, 1)) and all(
            (work / "out0" / f).read_bytes() == (work / "out1" / f).read_bytes()
            for f in ARTIFACTS)
    return entry


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--root", type=Path, default=HERE.parent)
    p.add_argument("--out", type=Path, default=HERE.parent / "bench")
    args = p.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    status = _git(root, "status", "--porcelain", "--", "src", "perfbench")
    bench = {
        "label": args.label,
        "git": {"head": _git(root, "rev-parse", "HEAD"),
                "dirty": status != ""},  # None: not a git checkout
        "src_digest": _src_digest(root),
        "seed": SEED, "seconds": seconds, "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        bench["workloads"][name] = {
            f"trace{trace}": run_once(root, name, SEED, seconds, trace)
            for trace in (0, 1)}
        oks = [r["ok"] for r in bench["workloads"][name].values()]
        print(f"{name}: ok={oks}", file=sys.stderr)
    bench["north_star"] = {}
    sys.path.insert(0, str(root / "perfbench"))
    for n in NORTH_STAR:
        bench["north_star"][f"analyze-{n // 1000}k-b{NORTH_STAR_B}"] = run = \
            north_star(root, n)
        print(f"north star {n}: ok={run['ok']}", file=sys.stderr)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0 if all(r["ok"] for w in bench["workloads"].values()
                    for r in w.values()) and all(
        r["ok"] for r in bench["north_star"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
