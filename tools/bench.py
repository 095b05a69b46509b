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

To compare a change with its parent, record the parent from a clone of it:

    git clone . ../parent && git -C ../parent checkout PARENT
    python3 tools/bench.py --root ../parent --label PARENT
    python3 tools/bench.py --label CHANGE
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7


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
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0 if all(r["ok"] for w in bench["workloads"].values()
                    for r in w.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
