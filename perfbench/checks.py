"""Output checks, made apart from the estimator.

Each check takes parsed artifacts and returns a list of messages, empty when
the artifacts pass. The checks read only what the CLI wrote and the oracle
reference, which comes from the simulator's forced-strategy Monte Carlo; none
of them calls the estimator. The tolerances are fixed here and in README.md.
"""

import csv
import hashlib
import math
from pathlib import Path

import yaml

GRID = [200.0 + 10.0 * k for k in range(31)]
USAGE_RANGE = (2.0, 13.0)  # visits the (2, 7)/(8, 13) windows allow in months 0-24

# (c) largest |estimate - oracle| allowed, by cohort size, at the supported
# thresholds (x >= SUPPORTED_X) and anywhere on the grid. Below x = 350 few
# clones stay uncensored (at 20k: 378 at x = 200, 1677 at x = 350), so the
# estimates there swing widely between seeds; see README.md.
SUPPORTED_X = 350.0
ORACLE_TOLERANCE = {
    20000: {"supported": {"risk": 0.12, "usage": 0.3},
            "grid": {"risk": 0.3, "usage": 1.2}},
    4000: {"supported": {"risk": 0.17, "usage": 0.6},
           "grid": {"risk": 0.6, "usage": 1.8}},
}
MC_Z = 5.0  # two oracle runs differ by at most this many Monte Carlo SEs
REFERENCE_N_MC = 100_000  # draws of the oracle reference (oracle_ref.py)
REFERENCE_SEED = 20251018


def read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(v):
    return None if v == "" else float(v)


def read_report(path):
    """report.csv rows with numbers parsed; an empty cell reads as None."""
    rows = []
    for r in read_table(path):
        rows.append({k: (_num(v) if k != "feasible" else v)
                     for k, v in r.items()})
    return rows


def read_oracle(path):
    """Oracle reference keyed by threshold: (risk, risk_mcse, usage, usage_mcse)."""
    return {float(r["x"]): (float(r["risk_true"]), float(r["risk_mcse"]),
                            float(r["usage_true"]), float(r["usage_mcse"]))
            for r in read_table(path)}


def read_yaml(path):
    with open(path) as fh:
        return yaml.safe_load(fh)


def check_selection(rows, selection, kappa):
    """(a) Recompute the κ-constrained choice from the report."""
    errs = []
    feasible = [r for r in rows if r["usage"] <= kappa]
    if selection.get("kappa") != kappa:
        errs.append(f"selection kappa {selection.get('kappa')} != {kappa}")
    want_fx = sorted(r["x"] for r in feasible)
    if sorted(selection.get("feasible_x") or []) != want_fx:
        errs.append(f"feasible_x {selection.get('feasible_x')} != {want_fx}")
    for r in rows:
        flag = "1" if r["usage"] <= kappa else "0"
        if r["feasible"] != flag:
            errs.append(f"report feasible={r['feasible']!r} at x={r['x']}")
    if not feasible:
        want = {"status": "infeasible", "chosen_x": None, "chosen_risk": None,
                "chosen_usage": None}
    else:
        best = min(feasible, key=lambda r: (r["risk"], r["usage"], r["x"]))
        want = {"status": "ok", "chosen_x": best["x"],
                "chosen_risk": best["risk"], "chosen_usage": best["usage"]}
    for k, v in want.items():
        if selection.get(k) != v:
            errs.append(f"selection {k} = {selection.get(k)!r}, recomputed {v!r}")
    return errs


def check_ranges(rows, intervals):
    """(b) The grid, value ranges, and lo <= hi; ``intervals`` says whether
    the run had a bootstrap (without one, the interval cells are empty)."""
    errs = []
    xs = sorted(r["x"] for r in rows)
    if xs != GRID:
        errs.append(f"report thresholds {xs} are not the default grid")
    for r in rows:
        for name, (lo, hi) in (("risk", (0.0, 1.0)), ("usage", USAGE_RANGE)):
            cells = [r[name], r[name + "_lo"], r[name + "_hi"]]
            if not intervals:
                if cells[1] is not None or cells[2] is not None:
                    errs.append(f"{name} interval at x={r['x']} without a bootstrap")
                cells = cells[:1]
            elif None in cells:
                errs.append(f"{name} interval missing at x={r['x']}")
                continue
            for v in cells:
                if v is None or not (lo <= v <= hi):
                    errs.append(f"{name} value {v} at x={r['x']} outside [{lo}, {hi}]")
            if intervals and cells[1] > cells[2]:
                errs.append(f"{name} lo {cells[1]} > hi {cells[2]} at x={r['x']}")
    return errs


def oracle_gaps(rows, oracle):
    """Largest |estimate - oracle| for risk and usage, at the supported
    thresholds and over the whole grid."""
    gaps = {"supported": {"risk": 0.0, "usage": 0.0},
            "grid": {"risk": 0.0, "usage": 0.0}}
    for r in rows:
        risk, _, usage, _ = oracle[r["x"]]
        for name, truth in (("risk", risk), ("usage", usage)):
            d = abs(r[name] - truth)
            gaps["grid"][name] = max(gaps["grid"][name], d)
            if r["x"] >= SUPPORTED_X:
                gaps["supported"][name] = max(gaps["supported"][name], d)
    return gaps


def oracle_z(rows, oracle):
    """Largest |estimate - oracle| / sqrt(se^2 + mcse^2), with the bootstrap
    se read off the 95% percentile interval as (hi - lo) / 3.92. Reported,
    not gated: see README.md."""
    z = {"risk": 0.0, "usage": 0.0}
    for r in rows:
        risk, risk_mcse, usage, usage_mcse = oracle[r["x"]]
        for name, truth, mcse in (("risk", risk, risk_mcse),
                                  ("usage", usage, usage_mcse)):
            se = (r[name + "_hi"] - r[name + "_lo"]) / 3.92
            z[name] = max(z[name], abs(r[name] - truth) / math.hypot(se, mcse))
    return z


def check_oracle(rows, oracle, subjects):
    """(c) The estimates lie within the tolerance of the oracle."""
    errs = []
    for part, gaps in oracle_gaps(rows, oracle).items():
        for name, gap in gaps.items():
            tol = ORACLE_TOLERANCE[subjects][part][name]
            if gap > tol:
                errs.append(f"{name} is {gap} from the oracle at a threshold "
                            f"({part}; tolerance {tol})")
    return errs


def check_coverage(rows, summary, oracle, x_value, n_cohorts, oracle_n_mc):
    """(c) and (d) for a coverage study: its oracle against the reference,
    and ``covered``/``coverage`` recounted from the rows.

    A 2k cohort's own estimate is not held to the oracle: at x = 350 it can
    rest on about 170 uncensored clones with a Kish effective size near 26,
    so it lies 0.15 from the oracle now and then (README.md)."""
    errs = []
    risk, risk_mcse, usage, usage_mcse = oracle[x_value]
    if summary.get("x_value") != x_value:
        errs.append(f"coverage x_value {summary.get('x_value')} != {x_value}")
    if summary.get("n_cohorts") != n_cohorts or len(rows) != n_cohorts:
        errs.append(f"{len(rows)} rows, n_cohorts {summary.get('n_cohorts')}, "
                    f"configured {n_cohorts}")
    o_risk, o_usage = summary.get("oracle_risk"), summary.get("oracle_usage")
    # the study's oracle has oracle_n_mc draws, so its mcse is the
    # reference's scaled by sqrt(REFERENCE_N_MC / oracle_n_mc)
    scale = math.sqrt(1.0 + REFERENCE_N_MC / oracle_n_mc)
    if abs(o_risk - risk) > MC_Z * risk_mcse * scale:
        errs.append(f"study oracle risk {o_risk} vs reference {risk}")
    if abs(o_usage - usage) > MC_Z * usage_mcse * scale:
        errs.append(f"study oracle usage {o_usage} vs reference {usage}")
    covered = 0
    for i, r in enumerate(rows):
        lo, hi, est = float(r["risk_lo"]), float(r["risk_hi"]), float(r["risk"])
        if int(r["cohort"]) != i:
            errs.append(f"cohort column {r['cohort']} at row {i}")
        hit = int(lo <= o_risk <= hi)
        covered += hit
        if int(r["covered"]) != hit:
            errs.append(f"cohort {i}: covered={r['covered']}, recounted {hit}")
        if not (0.0 <= lo <= hi <= 1.0 and 0.0 <= est <= 1.0):
            errs.append(f"cohort {i}: risk {est}, interval [{lo}, {hi}]")
    if rows and summary.get("coverage") != covered / len(rows):
        errs.append(f"coverage {summary.get('coverage')} != "
                    f"{covered}/{len(rows)}")
    return errs


def digest(out_dir):
    """sha256 of every artifact, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def check_digests(got, want):
    """(e) The same artifacts, byte for byte, as an earlier CLI run."""
    diff = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
    return [f"artifacts differ from an earlier CLI run: {diff}"] if diff else []
