"""Each output check passes on sound artifacts and fails on a corrupted one.

    python3 -m pytest perfbench/tests -q
"""

import csv
import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import KAPPA, X_VALUE  # noqa: E402

XS = checks.GRID


def _oracle():
    # shaped like the default DGP's truth: risk falls and usage rises with x
    return {x: (0.117 - 0.00009 * (x - 200), 0.001,
                3.70 + 0.0055 * (x - 200), 0.004) for x in XS}


def _write_analyze(tmp_path, oracle, boot=True):
    """A consistent report.csv and selection.yaml; returns their paths."""
    rows = []
    for x in sorted(XS, reverse=True):
        risk, _, usage, _ = oracle[x]
        risk, usage = risk + 0.01, usage - 0.05
        lo = (lambda v, d: repr(v - d)) if boot else (lambda v, d: "")
        hi = (lambda v, d: repr(v + d)) if boot else (lambda v, d: "")
        rows.append([repr(x), repr(risk), lo(risk, 0.03), hi(risk, 0.03),
                     repr(usage), lo(usage, 0.2), hi(usage, 0.2),
                     1 if usage <= KAPPA else 0])
    report = tmp_path / "report.csv"
    with open(report, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "risk", "risk_lo", "risk_hi", "usage", "usage_lo",
                    "usage_hi", "feasible"])
        w.writerows(rows)
    feasible = [r for r in rows if r[7] == 1]
    best = feasible[0]  # risk falls with x, so the largest feasible x wins
    selection = tmp_path / "selection.yaml"
    with open(selection, "w") as fh:
        yaml.safe_dump({
            "kappa": KAPPA, "objective": "minimize_risk", "status": "ok",
            "feasible_x": sorted(float(r[0]) for r in feasible),
            "chosen_x": float(best[0]), "chosen_risk": float(best[1]),
            "chosen_usage": float(best[4]),
        }, fh)
    return report, selection


def _rewrite(path, edit):
    rows = checks.read_table(path)
    edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def _analyze_errors(report, selection, oracle, subjects=20000, boot=True):
    rows = checks.read_report(report)
    return (checks.check_selection(rows, checks.read_yaml(selection), KAPPA),
            checks.check_ranges(rows, intervals=boot),
            checks.check_oracle(rows, oracle, subjects))


@pytest.mark.parametrize("boot", [True, False])
def test_sound_artifacts_pass(tmp_path, boot):
    oracle = _oracle()
    report, selection = _write_analyze(tmp_path, oracle, boot)
    for subjects in (20000, 4000):
        assert _analyze_errors(report, selection, oracle, subjects,
                               boot) == ([], [], [])


def test_swapped_chosen_x_fails_selection(tmp_path):
    report, selection = _write_analyze(tmp_path, _oracle())
    sel = checks.read_yaml(selection)
    sel["chosen_x"] = sel["feasible_x"][0]
    selection.write_text(yaml.safe_dump(sel))
    assert checks.check_selection(checks.read_report(report),
                                  checks.read_yaml(selection), KAPPA)


def test_tie_goes_to_smaller_usage_then_smaller_x():
    rows = [{"x": x, "risk": 0.1, "usage": u, "feasible": "1"}
            for x, u in ((300.0, 4.0), (250.0, 3.9), (200.0, 3.9))]
    good = {"kappa": KAPPA, "status": "ok", "feasible_x": [200.0, 250.0, 300.0],
            "chosen_x": 200.0, "chosen_risk": 0.1, "chosen_usage": 3.9}
    assert checks.check_selection(rows, good, KAPPA) == []
    assert checks.check_selection(rows, dict(good, chosen_x=250.0), KAPPA)


def test_usage_shift_fails_selection_and_oracle(tmp_path):
    oracle = _oracle()
    report, selection = _write_analyze(tmp_path, oracle)

    def shift(rows):
        for r in rows:
            for k in ("usage", "usage_lo", "usage_hi"):
                r[k] = repr(float(r[k]) + 0.7)

    _rewrite(report, shift)
    for subjects in (20000, 4000):
        sel_errs, range_errs, oracle_errs = _analyze_errors(
            report, selection, oracle, subjects)
        assert sel_errs and oracle_errs and not range_errs


@pytest.mark.parametrize("column, value", [
    ("risk", "1.2"), ("risk_lo", "-0.01"), ("usage", "1.5"),
    ("usage_hi", "13.5"), ("risk_lo", "0.9"),  # lo above hi
])
def test_out_of_range_fails_ranges(tmp_path, column, value):
    report, _ = _write_analyze(tmp_path, _oracle())

    def corrupt(rows):
        rows[5][column] = value

    _rewrite(report, corrupt)
    assert checks.check_ranges(checks.read_report(report), intervals=True)


def test_point_only_report_has_no_intervals(tmp_path):
    report, _ = _write_analyze(tmp_path, _oracle(), boot=True)
    assert checks.check_ranges(checks.read_report(report), intervals=False)


def test_risk_far_from_oracle_fails_oracle(tmp_path):
    oracle = _oracle()
    report, _ = _write_analyze(tmp_path, oracle)

    def corrupt(rows):
        rows[0]["risk"] = repr(float(rows[0]["risk"]) + 0.5)

    _rewrite(report, corrupt)
    for subjects in (20000, 4000):
        assert checks.check_oracle(checks.read_report(report), oracle,
                                   subjects)


@pytest.mark.parametrize("xs, shift, subjects, fails", [
    ([200.0], 0.9, 20000, False),   # a swing where few clones stay uncensored
    ([200.0], 1.3, 20000, True),
    ([200.0], 1.3, 4000, False),
    ([350.0], 0.45, 20000, True),   # about an unweighted analysis's gap
    ([350.0], 0.45, 4000, False),
    ([500.0], 0.7, 4000, True),
])
def test_usage_gap_by_support(tmp_path, xs, shift, subjects, fails):
    oracle = _oracle()
    report, _ = _write_analyze(tmp_path, oracle)

    def corrupt(rows):
        for r in rows:
            if float(r["x"]) in xs:
                r["usage"] = repr(float(r["usage"]) + shift)

    _rewrite(report, corrupt)
    errs = checks.check_oracle(checks.read_report(report), oracle, subjects)
    assert bool(errs) == fails


def _coverage(oracle_risk, oracle_usage):
    rows = [{"cohort": str(i), "risk": repr(r), "risk_lo": repr(lo),
             "risk_hi": repr(hi), "covered": str(int(lo <= oracle_risk <= hi))}
            for i, (r, lo, hi) in enumerate(((0.10, 0.07, 0.13),
                                             (0.08, 0.05, 0.095),
                                             (0.12, 0.09, 0.16)))]
    covered = sum(int(r["covered"]) for r in rows)
    summary = {"x_value": X_VALUE, "oracle_risk": oracle_risk,
               "oracle_usage": oracle_usage, "coverage": covered / len(rows),
               "n_cohorts": len(rows)}
    return rows, summary


def test_coverage_checks():
    oracle = _oracle()
    risk, _, usage, _ = oracle[X_VALUE]
    rows, summary = _coverage(risk + 0.002, usage - 0.01)
    assert checks.check_coverage(rows, summary, oracle, X_VALUE, 3, 20000) == []

    bad = [dict(r) for r in rows]
    bad[1]["covered"] = "1"  # cohort 1's interval misses the oracle
    assert checks.check_coverage(bad, summary, oracle, X_VALUE, 3, 20000)
    assert checks.check_coverage(rows, dict(summary, coverage=1.0), oracle,
                                 X_VALUE, 3, 20000)
    assert checks.check_coverage(rows, dict(summary, oracle_usage=usage + 0.5),
                                 oracle, X_VALUE, 3, 20000)
    assert checks.check_coverage(rows[:2], summary, oracle, X_VALUE, 3, 20000)
    bad = [dict(r) for r in rows]
    bad[0]["risk"] = "1.2"
    assert checks.check_coverage(bad, summary, oracle, X_VALUE, 3, 20000)


def test_changed_byte_fails_digest(tmp_path):
    (tmp_path / "report.csv").write_text("x,risk\n200.0,0.1\n")
    want = checks.digest(tmp_path)
    assert checks.check_digests(checks.digest(tmp_path), want) == []
    (tmp_path / "report.csv").write_text("x,risk\n200.0,0.2\n")
    assert checks.check_digests(checks.digest(tmp_path), want)
    (tmp_path / "extra.yaml").write_text("{}\n")
    assert checks.check_digests(checks.digest(tmp_path), want)


def test_self_time_excludes_direct_children():
    spans = [
        ["msm.bootstrap", 0.0, 10.0, -1, {"replicates": 4}],
        ["msm.analyze_cohort", 1.0, 3.0, 0, None],
        ["glm.fit_glm", 1.5, 2.0, 1, {"iterations": 5}],
        ["glm.fit_glm", 4.0, 8.0, 0, {"iterations": 7}],
    ]
    s = tracing.summarize(spans)
    assert s["msm.bootstrap"]["self_s"] == pytest.approx(4.0)
    assert s["msm.analyze_cohort"]["self_s"] == pytest.approx(1.5)
    assert s["glm.fit_glm"]["calls"] == 2
    assert s["glm.fit_glm"]["counts"]["iterations"] == 12
    assert tracing.nested_incl(spans, "msm.bootstrap",
                               "msm.analyze_cohort") == pytest.approx(2.0)
