"""End-to-end runs of every CLI mode on tiny configs: exit status, byte-identical
reruns, unknown keys and bad values refused by name, and error codes on bad
input."""

import csv
import filecmp
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import rcds.cli
import rcds.io
import rcds.msm
import rcds.study
from rcds import Plan, StrategyGrid
from rcds.cli import main
from rcds.errors import BootstrapUnstable
from rcds.io import ingest_cohort
from rcds.msm import CERT_TOL

# the shared small cohort; at n = 1000 a replicate pins the continuous `sex`
# (see test_event_free_continuous_value_is_pinned)
SMALL = {"n": 1500, "seed": 5}


def write_config(path, config):
    path.write_text(yaml.safe_dump(config))
    return str(path)


def run(tmp_path, name, config, capsys):
    """Run the config's mode into ``tmp_path/name``; returns (status, stderr)."""
    cfg = write_config(tmp_path / f"{name}.yaml", config)
    status = main([config["mode"], "--config", cfg,
                   "--out", str(tmp_path / name)])
    return status, capsys.readouterr().err


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cohort")
    cfg = write_config(tmp / "sim.yaml", {"mode": "simulate", **SMALL})
    assert main(["simulate", "--config", cfg, "--out", str(tmp / "out")]) == 0
    return str(tmp / "out" / "cohort.csv")


def mode_config(mode, cohort_csv):
    if mode == "simulate":
        return {"mode": "simulate", **SMALL}
    if mode == "oracle":
        return {"mode": "oracle", "seed": 5, "n_mc": 2000}
    if mode == "analyze":
        return {"mode": "analyze", "seed": 5, "input": cohort_csv,
                "kappa": 4.5, "bootstrap": 2}
    if mode == "frontier":
        return {"mode": "frontier", "seed": 5, "input": cohort_csv,
                "kappa_grid": [4.0, 4.5, 5.0]}
    return {"mode": "coverage", "seed": 5, "n": 1500, "n_cohorts": 1,
            "bootstrap": 2, "oracle_n_mc": 2000,
            "msm": {"baseline_terms": ["sex", "age"]}}


@pytest.mark.parametrize("mode", ["simulate", "oracle", "analyze", "frontier",
                                  "coverage"])
def test_mode_reruns_byte_identical(tmp_path, cohort_csv, capsys, mode):
    config = mode_config(mode, cohort_csv)
    assert run(tmp_path, "a", config, capsys)[0] == 0
    assert run(tmp_path, "b", config, capsys)[0] == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               files, shallow=False)
    assert match == files and not mismatch and not errors


@pytest.mark.parametrize("key,value", [("scheme", "censoring"),
                                       ("numerator", "one"),
                                       ("trunction", 99)])
def test_unknown_weights_key_is_named(tmp_path, cohort_csv, capsys, key,
                                      value):
    # removed options are refused whatever their value, as are typos
    config = {"mode": "analyze", "seed": 5, "input": cohort_csv,
              "kappa": 4.5, "weights": {"truncation": 99, key: value}}
    status, err = run(tmp_path, key, config, capsys)
    assert status != 0
    assert f"unknown weights key {key!r}" in err
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"
    assert not (tmp_path / key / "report.csv").exists()


def test_frontier_leaves_infeasible_caps_blank(tmp_path, cohort_csv, capsys):
    config = {"mode": "frontier", "seed": 5, "input": cohort_csv,
              "kappa_grid": [0.5, 4.5]}
    assert run(tmp_path, "fr", config, capsys)[0] == 0
    lines = (tmp_path / "fr" / "frontier.csv").read_text().splitlines()
    assert lines[:2] == ["kappa,status,chosen_x,chosen_risk,chosen_usage",
                         "0.5,infeasible,,,"]
    assert lines[2].startswith("4.5,ok,")


def test_coverage_without_msm_uses_run_coverage_default(tmp_path, capsys):
    # coverage adjusts for sex and age unless the msm block names its terms
    base = {"mode": "coverage", "seed": 5, "n": 800, "n_cohorts": 2,
            "bootstrap": 2, "oracle_n_mc": 2000}
    assert run(tmp_path, "default", base, capsys)[0] == 0
    for out, block in (("sex_age", {"baseline_terms": ["sex", "age"]}),
                       ("empty", {})):
        assert run(tmp_path, out, {**base, "msm": block}, capsys)[0] == 0
        for name in ("coverage.csv", "coverage.yaml"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / out / name).read_bytes())


def test_coverage_reports_each_cohort_on_stderr(tmp_path, capsys,
                                               monkeypatch):
    config = {"mode": "coverage", "seed": 5, "n": 800, "n_cohorts": 2,
              "bootstrap": 2, "oracle_n_mc": 2000}
    status, err = run(tmp_path, "ok", config, capsys)
    assert status == 0
    rows = (tmp_path / "ok" / "coverage.csv").read_text().splitlines()[1:]
    hits = [int(row.split(",")[-1]) for row in rows]
    lines = [f"cohort {i}/2: {sum(hits[:i])} of {i} intervals cover the "
             "oracle" for i in (1, 2)]
    assert err.splitlines() == lines
    # a failing cohort still ends stderr with the error code
    pipeline, calls = rcds.study.bootstrap_pipeline, []

    def second_cohort_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise BootstrapUnstable("2 of 2 bootstrap replicates failed to "
                                    "fit")
        return pipeline(*args, **kwargs)

    monkeypatch.setattr(rcds.study, "bootstrap_pipeline", second_cohort_fails)
    status, err = run(tmp_path, "failed", config, capsys)
    assert status != 0
    assert err.splitlines() == [
        lines[0], "error: 2 of 2 bootstrap replicates failed to fit",
        "error_code=BOOTSTRAP_UNSTABLE"]


def test_oracle_defaults_to_natural_rule(tmp_path, capsys):
    # the rule the censoring weights target, and the only one the oracle has
    base = {"mode": "oracle", "seed": 5, "n_mc": 2000,
            "grid": {"x_step": 100}}
    truths = {}
    for rule in (None, "natural"):
        config = dict(base) if rule is None else {**base, "rule": rule}
        assert run(tmp_path, str(rule), config, capsys)[0] == 0
        truths[rule] = (tmp_path / str(rule) / "truth.csv").read_bytes()
    assert truths[None] == truths["natural"]
    status, err = run(tmp_path, "earliest", {**base, "rule": "earliest"},
                      capsys)
    assert status == 2
    assert "only the natural rule" in err
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"


def test_failed_replicates_are_counted_by_code(tmp_path, cohort_csv, capsys,
                                              monkeypatch):
    # a categorical gap level pooled from five decision months, four of them
    # visits: a resample without the fifth separates the monitoring decision,
    # and the error says so
    config = {"mode": "analyze", "seed": 5, "input": cohort_csv,
              "kappa": 4.5, "bootstrap": 3, "grid": {"x_step": 50},
              "weights": {"features": {"gap": "categorical"}}}
    status, err = run(tmp_path, "unstable", config, capsys)
    assert status != 0
    assert err.splitlines()[-2] == (
        "error: 2 of 3 bootstrap replicates failed to fit (SEPARATION: 2); "
        "the first SEPARATION: feature 'gap=13' appears to separate the "
        "monitoring decision perfectly")
    assert err.splitlines()[-1] == "error_code=BOOTSTRAP_UNSTABLE"
    # with every failure tolerated, the report keeps the same counts
    monkeypatch.setattr(rcds.msm, "MAX_FAILED_FRACTION", 1.0)
    assert run(tmp_path, "tolerated", config, capsys)[0] == 0
    report = yaml.safe_load((tmp_path / "tolerated" / "weights.yaml")
                            .read_text())
    assert report["bootstrap"] == {"B": 3, "failed": 2, "pinned": 0,
                                   "failed_by_code": {"SEPARATION": 2}}


def test_cli_import_loads_no_scipy_solvers():
    # every CLI run pays its imports before any work
    src = Path(rcds.cli.__file__).parents[1]
    code = ("import sys, rcds.cli; print(' '.join(m for m in "
            "('scipy.linalg', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == []


REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"import of {name} refused")

sys.meta_path.insert(0, RefuseScipy())
from rcds.cli import main

for mode, config, out in zip(*[iter(sys.argv[1:])] * 3):
    if main([mode, "--config", config, "--out", out]) != 0:
        sys.exit(f"rcds {mode} failed")
"""


def test_cli_runs_with_scipy_refused(tmp_path):
    # the program needs numpy and PyYAML only; scipy is a test dependency
    configs = {
        "simulate": mode_config("simulate", None),
        "analyze": mode_config("analyze",
                               str(tmp_path / "simulate" / "cohort.csv")),
        "coverage": {**mode_config("coverage", None), "bootstrap": 1,
                     "oracle_n_mc": 1000},
    }
    args = []
    for mode, config in configs.items():
        args += [mode, write_config(tmp_path / f"{mode}.yaml", config),
                 str(tmp_path / mode)]
    src = Path(rcds.cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", REFUSE_SCIPY, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "analyze" / "report.csv").exists()
    assert (tmp_path / "coverage" / "coverage.csv").exists()


BAD_INPUTS = {
    "missing_kappa": {"mode": "analyze", "seed": 5},
    "bootstrap_not_a_number": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                               "bootstrap": "many"},
    "kappa_not_a_number": {"mode": "analyze", "seed": 5, "kappa": "high"},
    "truncation_not_a_number": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                                "weights": {"truncation": "top"}},
    "unknown_scheme": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                       "weights": {"scheme": "both"}},
    "scheme_decision": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                        "weights": {"scheme": "decision"}},
    "numerator_marginal": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                           "weights": {"numerator": "marginal"}},
    "misspelled_weights_key": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                               "weights": {"trunction": 99}},
    "horizon_not_a_number": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                             "horizon": "abc"},
    "window_not_a_number": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                            "grid": {"window_below": ["two", 7]}},
    "dgp_value_not_a_number": {"mode": "simulate", "seed": 5,
                               "dgp": {"mon_gap": "steep"}},
    # the config seed is the run's only seed
    "dgp_seed": {"mode": "simulate", "seed": 1, "dgp": {"seed": 99}},
    "oracle_rule_unknown": {"mode": "oracle", "seed": 5, "n_mc": 2000,
                            "rule": "conditional"},
    "coverage_oracle_rule_latest": {"mode": "coverage", "seed": 5, "n": 1000,
                                    "oracle_n_mc": 1000,
                                    "oracle_rule": "latest"},
    # a frontier config keeps its own input here
    "input_not_a_path": {"mode": "frontier", "seed": 5, "input": 5,
                         "kappa_grid": [4.5]},
    "misspelled_top_level_key": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                                 "bootsrap": 20},
    "weights_null": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                     "weights": None},
    "weights_list": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                     "weights": ["truncation"]},
    "features_not_a_mapping": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                               "weights": {"features": 3}},
    "misspelled_features_key": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                                "weights": {"features": {"markr": "linear"}}},
    "schema_entry_not_a_mapping": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                                   "baseline_schema": ["sex"]},
    "schema_entry_without_name": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                                  "baseline_schema": [{"kind": "continuous"}]},
    "misspelled_grid_key": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                            "grid": {"x_setp": 100}},
    "misspelled_msm_key": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                           "msm": {"baseline_term": ["sex"]}},
    "window_not_a_pair": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                          "grid": {"window_below": 3}},
    "baseline_terms_not_a_list": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                                  "msm": {"baseline_terms": 3}},
    "strategy_knots_not_a_list": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                                  "msm": {"strategy_knots": 3}},
    "features_baseline_not_a_list": {
        "mode": "analyze", "seed": 5, "kappa": 4.5,
        "weights": {"features": {"baseline": 3}}},
    "features_override_not_a_boolean": {
        "mode": "analyze", "seed": 5, "kappa": 4.5,
        "weights": {"features": {"override": "no"}}},
    # a categorical gap capped below 2 would have no gap column at all
    **{f"gap_cap_{cap}": {
        "mode": "analyze", "seed": 5, "kappa": 4.5,
        "weights": {"features": {"gap": "categorical", "gap_cap": cap}}}
       for cap in (1, 0, -3)},
    "x_step_zero": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                    "grid": {"x_step": 0}},
    "x_step_negative": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                        "grid": {"x_step": -10}},
    "grid_range_empty": {"mode": "oracle", "seed": 5, "n_mc": 2000,
                         "grid": {"x_start": 500, "x_stop": 200}},
    # a bound that is not finite would ask numpy for an endless grid
    "grid_x_stop_inf": {"mode": "oracle", "seed": 5, "n_mc": 2000,
                        "grid": {"x_stop": float("inf")}},
    "grid_x_start_nan": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                         "grid": {"x_start": float("nan")}},
    "grid_x_step_inf": {"mode": "coverage", "seed": 5, "n": 1000,
                        "oracle_n_mc": 1000,
                        "grid": {"x_step": float("inf")}},
    "window_a_string": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                        "grid": {"window_below": "27"}},
    "window_fraction": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                        "grid": {"window_below": [2.5, 7]}},
    "window_boolean": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                       "grid": {"window_below": [True, 7]}},
    "levels_not_a_list": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                          "baseline_schema": [{"name": "sex",
                                               "kind": "categorical",
                                               "levels": 3}]},
    "levels_a_string": {"mode": "analyze", "seed": 5, "kappa": 4.5,
                        "baseline_schema": [{"name": "sex",
                                             "kind": "categorical",
                                             "levels": "ab"}]},
    "coverage_no_cohorts": {"mode": "coverage", "seed": 5, "n": 1000,
                            "oracle_n_mc": 1000, "n_cohorts": 0},
    "coverage_negative_cohorts": {"mode": "coverage", "seed": 5, "n": 1000,
                                  "oracle_n_mc": 1000, "n_cohorts": -1},
    "coverage_no_bootstrap": {"mode": "coverage", "seed": 5, "n": 1000,
                              "oracle_n_mc": 1000, "bootstrap": 0},
    "coverage_no_subjects": {"mode": "coverage", "seed": 5, "n": 0,
                             "oracle_n_mc": 1000},
}
# a key another mode reads is refused, as a misspelled one is
OTHER_MODE_KEYS = {
    ("simulate", "horizon"): {"mode": "simulate", "seed": 5, "n": 300,
                              "horizon": 12},
    ("simulate", "kappa"): {"mode": "simulate", "seed": 5, "n": 300,
                            "kappa": 4.5},
    ("analyze", "n"): {"mode": "analyze", "seed": 5, "kappa": 4.5, "n": 5000},
    ("analyze", "dgp"): {"mode": "analyze", "seed": 5, "kappa": 4.5,
                         "dgp": {"horizon": 3}},
    ("oracle", "bootstrap"): {"mode": "oracle", "seed": 5, "n_mc": 2000,
                              "bootstrap": 2},
    ("coverage", "input"): {"mode": "coverage", "seed": 5, "n": 300,
                            "n_cohorts": 1, "bootstrap": 2,
                            "oracle_n_mc": 1000, "input": "cohort.csv"},
}
BAD_INPUTS.update({f"{mode}_takes_no_{key}": config
                   for (mode, key), config in OTHER_MODE_KEYS.items()})
DGP_MODES = {"simulate": {"n": 300}, "oracle": {"n_mc": 2000},
             "coverage": {"n": 1000, "oracle_n_mc": 1000}}
# a DGP that breaks positivity, and one that cannot be simulated, in every
# mode that reads one
BAD_INPUTS.update({
    f"dgp_{name}_{mode}": {"mode": mode, "seed": 5, **extra, "dgp": dgp}
    for mode, extra in DGP_MODES.items()
    for name, dgp in (("positivity", {"mon_gap": 5.0}),
                      ("drift_slope", {"drift_slope": 1.5}))})


@pytest.mark.parametrize("name,named", [
    ("weights_null", "config section 'weights' must be a mapping"),
    ("weights_list", "config section 'weights' must be a mapping"),
    ("features_not_a_mapping", "weights.features must be a mapping"),
    ("misspelled_features_key", "unknown weights.features key 'markr'"),
])
def test_bad_weights_block_is_named(tmp_path, cohort_csv, capsys, name,
                                    named):
    config = {**BAD_INPUTS[name], "input": cohort_csv}
    status, err = run(tmp_path, name, config, capsys)
    assert status != 0
    assert named in err


@pytest.mark.parametrize("name,named", [
    ("schema_entry_not_a_mapping",
     "baseline_schema entry 1 must be a mapping with a 'name', got 'sex'"),
    ("schema_entry_without_name", "baseline_schema entry 1 must be a mapping"),
    ("misspelled_top_level_key", "unknown analyze config key 'bootsrap'"),
    ("input_not_a_path", "frontier mode needs an input cohort path"),
    ("misspelled_grid_key", "unknown grid key 'x_setp'"),
    ("misspelled_msm_key", "unknown msm key 'baseline_term'"),
    ("window_not_a_pair", "window_below must be two whole months, got 3"),
    ("baseline_terms_not_a_list",
     "'baseline_terms' must be a list of names, got 3"),
    ("strategy_knots_not_a_list",
     "'strategy_knots' must be a list of numbers, got 3"),
    ("features_baseline_not_a_list",
     "'baseline' must be a list of names, got 3"),
    ("features_override_not_a_boolean",
     "override feature must be true or false, got 'no'"),
    *((f"gap_cap_{cap}",
       f"gap_cap must be >= 2 for categorical gaps, got {cap}")
      for cap in (1, 0, -3)),
    ("x_step_zero", "x_step must be positive, got 0.0"),
    ("x_step_negative", "x_step must be positive, got -10.0"),
    ("grid_range_empty", "no threshold from x_start 500.0 to x_stop 200.0"),
    ("grid_x_stop_inf", "x_stop must be finite, got inf"),
    ("grid_x_start_nan", "x_start must be finite, got nan"),
    ("grid_x_step_inf", "x_step must be finite, got inf"),
    ("window_a_string", "window_below must be two whole months, got '27'"),
    ("window_fraction", "window_below must be two whole months, got [2.5, 7]"),
    ("window_boolean",
     "window_below must be two whole months, got [True, 7]"),
    ("levels_not_a_list",
     "baseline_schema entry 1 'levels' must be a list of strings, got 3"),
    ("levels_a_string",
     "baseline_schema entry 1 'levels' must be a list of strings, got 'ab'"),
    ("coverage_no_cohorts", "coverage needs n_cohorts >= 1, got 0"),
    ("coverage_negative_cohorts", "coverage needs n_cohorts >= 1, got -1"),
    ("coverage_no_bootstrap", "coverage needs bootstrap B >= 1, got 0"),
    ("coverage_no_subjects", "coverage needs n >= 1, got 0"),
    *((f"{mode}_takes_no_{key}", f"unknown {mode} config key {key!r}")
      for mode, key in OTHER_MODE_KEYS),
    ("dgp_seed", "unknown dgp key 'seed'"),
    *((f"dgp_positivity_{mode}", "positivity fails")
      for mode in DGP_MODES),
    *((f"dgp_drift_slope_{mode}", "drift_slope must lie in (-1, 1)")
      for mode in DGP_MODES),
    ("coverage_oracle_rule_latest",
     "unknown oracle rule 'latest': the oracle simulates only the natural "
     "rule"),
])
def test_bad_config_value_is_named(tmp_path, cohort_csv, capsys, name, named):
    config = dict(BAD_INPUTS[name])
    if config["mode"] == "analyze":
        config["input"] = cohort_csv
    status, err = run(tmp_path, name, config, capsys)
    assert status != 0
    assert named in err


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_config_ends_with_error_code(tmp_path, cohort_csv, capsys, name):
    config = dict(BAD_INPUTS[name])
    if config["mode"] == "analyze":
        config["input"] = cohort_csv
    status, err = run(tmp_path, name, config, capsys)
    assert status != 0
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"


ANALYZE = {"mode": "analyze", "seed": 5, "kappa": 4.5}
COVERAGE = {"mode": "coverage", "seed": 5, "n": 1000, "oracle_n_mc": 1000}
NOT_A_NUMBER = {  # name: (config, what the error names)
    "bootstrap_fraction": ({**ANALYZE, "bootstrap": 2.5},
                           "'bootstrap' must be a whole number, got 2.5"),
    "bootstrap_boolean": ({**ANALYZE, "bootstrap": True},
                          "'bootstrap' must be a number, got True"),
    # ingest takes the horizon from the data
    "horizon_fraction": ({**ANALYZE, "horizon": 24.5},
                         "unknown analyze config key 'horizon'"),
    "kappa_boolean": ({**ANALYZE, "kappa": True},
                      "'kappa' must be a number, got True"),
    "x_step_boolean": ({**ANALYZE, "grid": {"x_step": False}},
                       "'x_step' must be a number, got False"),
    "truncation_boolean": ({**ANALYZE, "weights": {"truncation": True}},
                           "'truncation' must be a number, got True"),
    "marker_knots_fraction": (
        {**ANALYZE, "weights": {"features": {"marker_knots": 3.5}}},
        "'marker_knots' must be a whole number, got 3.5"),
    "gap_cap_boolean": (
        {**ANALYZE, "weights": {"features": {"gap": "categorical",
                                             "gap_cap": True}}},
        "'gap_cap' must be a number, got True"),
    "strategy_knots_boolean": (
        {**ANALYZE, "msm": {"strategy_knots": [250, True, 450]}},
        "'strategy_knots' must be a list of numbers, got [250, True, 450]"),
    "seed_fraction": ({**ANALYZE, "seed": 5.5},
                      "'seed' must be a whole number, got 5.5"),
    "seed_boolean": ({**ANALYZE, "seed": True},
                     "'seed' must be a number, got True"),
    # numpy refuses a negative seed, and a run without a bootstrap uses none
    "seed_negative": ({**ANALYZE, "seed": -1},
                      "'seed' must be non-negative, got -1"),
    # a negative bootstrap is not "no bootstrap"
    "bootstrap_negative": ({**ANALYZE, "bootstrap": -1},
                           "'bootstrap' must be non-negative, got -1"),
    "frontier_bootstrap_negative": (
        {"mode": "frontier", "seed": 5, "kappa_grid": [4.5],
         "bootstrap": -1}, "'bootstrap' must be non-negative, got -1"),
    "kappa_grid_string": ({"mode": "frontier", "seed": 5, "kappa_grid": "45"},
                          "'kappa_grid' must be a list of numbers, got '45'"),
    "kappa_grid_boolean": (
        {"mode": "frontier", "seed": 5, "kappa_grid": [4.5, True]},
        "'kappa_grid' must be a list of numbers, got [4.5, True]"),
    "n_fraction": ({"mode": "simulate", "seed": 5, "n": 300.5},
                   "'n' must be a whole number, got 300.5"),
    "dgp_horizon_fraction": (
        {"mode": "simulate", "seed": 5, "n": 300, "dgp": {"horizon": 24.5}},
        "'horizon' must be a whole number, got 24.5"),
    "dgp_float_boolean": (
        {"mode": "simulate", "seed": 5, "n": 300, "dgp": {"drift_sd": True}},
        "'drift_sd' must be a number, got True"),
    "n_mc_fraction": ({"mode": "oracle", "seed": 5, "n_mc": 1000.5},
                      "'n_mc' must be a whole number, got 1000.5"),
    "n_cohorts_fraction": ({**COVERAGE, "n_cohorts": 1.5},
                           "'n_cohorts' must be a whole number, got 1.5"),
    "oracle_n_mc_boolean": ({**COVERAGE, "oracle_n_mc": True},
                            "'oracle_n_mc' must be a number, got True"),
    "x_value_boolean": ({**COVERAGE, "x_value": True},
                        "'x_value' must be a number, got True"),
}


@pytest.mark.parametrize("name", sorted(NOT_A_NUMBER))
def test_fraction_or_boolean_is_refused_by_key(tmp_path, cohort_csv, capsys,
                                               name):
    config, named = NOT_A_NUMBER[name]
    if config["mode"] in ("analyze", "frontier"):
        config = {**config, "input": cohort_csv}
    status, err = run(tmp_path, name, config, capsys)
    assert status != 0
    assert named in err
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"
    assert not any((tmp_path / name).glob("*"))


def refuse_work(*args, **kwargs):
    pytest.fail("work started before every config value was checked")


BEFORE_INGEST = {  # name: (config, what the error names)
    "kappa_negative": ({**ANALYZE, "kappa": -1},
                       "kappa must be a positive number, got -1.0"),
    "kappa_zero": ({**ANALYZE, "kappa": 0},
                   "kappa must be a positive number, got 0.0"),
    "kappa_infinite": ({**ANALYZE, "kappa": float("inf")},
                       "kappa must be a positive number, got inf"),
    "kappa_grid_negative": (
        {"mode": "frontier", "seed": 5, "kappa_grid": [4.5, -1]},
        "kappa must be a positive number, got -1.0"),
    "grid_x_step_zero": ({**ANALYZE, "grid": {"x_step": 0}},
                         "x_step must be positive, got 0.0"),
    "msm_knots_not_a_list": (
        {**ANALYZE, "msm": {"strategy_knots": 3}},
        "'strategy_knots' must be a list of numbers, got 3"),
    "weights_truncation_not_a_number": (
        {**ANALYZE, "weights": {"truncation": "top"}},
        "'truncation' must be a number, got 'top'"),
    "msm_knots_too_few": (
        {**ANALYZE, "msm": {"strategy_knots": [1]}},
        "'strategy_knots' must be at least 3 finite, strictly increasing "
        "numbers, got [1.0]"),
    "msm_knots_not_finite": (
        {**ANALYZE, "msm": {"strategy_knots": [250, float("nan"), 450]}},
        "strictly increasing numbers, got [250.0, nan, 450.0]"),
    "grid_one_threshold": (
        {**ANALYZE, "grid": {"x_step": 1e20}},
        "the estimator needs a grid of at least 2 thresholds, got 1"),
}


@pytest.mark.parametrize("name", sorted(BEFORE_INGEST))
def test_bad_value_is_refused_before_ingest(tmp_path, cohort_csv, capsys,
                                            monkeypatch, name):
    monkeypatch.setattr(rcds.io, "ingest_cohort", refuse_work)
    config, named = BEFORE_INGEST[name]
    status, err = run(tmp_path, name, {**config, "input": cohort_csv},
                      capsys)
    assert status == 2
    assert named in err
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name", ["coverage_no_cohorts",
                                  "coverage_negative_cohorts",
                                  "coverage_no_bootstrap",
                                  "coverage_no_subjects"])
def test_coverage_counts_are_checked_before_the_oracle(tmp_path, capsys,
                                                       monkeypatch, name):
    monkeypatch.setattr(rcds.study, "oracle_truth", refuse_work)
    status, err = run(tmp_path, name, BAD_INPUTS[name], capsys)
    assert status == 2
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"


@pytest.mark.parametrize("name, config, named", [
    ("simulate_no_subjects", {"mode": "simulate", "seed": 5, "n": 0},
     "n must be at least 1"),
    ("oracle_few_draws", {"mode": "oracle", "seed": 5, "n_mc": 999},
     "oracle needs n_mc >= 1000"),
    ("coverage_no_subjects", BAD_INPUTS["coverage_no_subjects"],
     "coverage needs n >= 1, got 0"),
    ("oracle_rule_unknown", BAD_INPUTS["oracle_rule_unknown"],
     "unknown oracle rule 'conditional'"),
    ("coverage_oracle_rule_latest", BAD_INPUTS["coverage_oracle_rule_latest"],
     "unknown oracle rule 'latest'"),
    ("coverage_x_value_off_grid", {"mode": "coverage", "seed": 5,
                                   "x_value": 355},
     "x_value 355.0 is not a grid threshold"),
    ("oracle_grid_past_its_stop", {"mode": "oracle", "seed": 5,
                                   "grid": {"x_start": 1e308}},
     "no threshold from x_start 1e+308 to x_stop 500.0"),
    ("coverage_one_threshold", {"mode": "coverage", "seed": 5,
                                "grid": {"x_step": 1e20}},
     "the estimator needs a grid of at least 2 thresholds, got 1"),
    ("coverage_unknown_baseline_term", {"mode": "coverage", "seed": 5,
                                        "msm": {"baseline_terms": [1]}},
     "msm.baseline_terms: unknown baseline terms: ['1']"),
    ("analyze_unknown_baseline_term", {**ANALYZE,
                                       "msm": {"baseline_terms": ["bmi"]}},
     "msm.baseline_terms: unknown baseline terms: ['bmi']"),
    ("frontier_unknown_feature_term", {
        "mode": "frontier", "seed": 5, "kappa_grid": [4.5],
        "weights": {"features": {"baseline": ["bmi"]}}},
     "weights.features.baseline: unknown baseline terms: ['bmi']"),
    ("simulate_marker_sd_nan", {"mode": "simulate", "seed": 5, "n": 300,
                                "dgp": {"marker_init_sd": float("nan")}},
     "marker_init_sd must be finite, got nan"),
    ("oracle_drift_sd_nan", {"mode": "oracle", "seed": 5,
                             "dgp": {"drift_sd": float("nan")}},
     "drift_sd must be finite, got nan"),
    ("coverage_marker_overflows", {"mode": "coverage", "seed": 5,
                                   "dgp": {"drift_intercept": 1e308}},
     "is not finite; the simulated marker would overflow"),
])
def test_refused_value_leaves_no_out_directory(tmp_path, cohort_csv, capsys,
                                               monkeypatch, name, config,
                                               named):
    # each is refused before out is made, and so before any simulation or
    # estimation; the input cohort of analyze and frontier is read first
    for module in (rcds.cli, rcds.study):
        monkeypatch.setattr(module, "oracle_truth", refuse_work)
    monkeypatch.setattr(rcds.cli, "simulate_cohort", refuse_work)
    monkeypatch.setattr(rcds.cli, "bootstrap_pipeline", refuse_work)
    if config["mode"] in ("analyze", "frontier"):
        config = {**config, "input": cohort_csv}
    status, err = run(tmp_path, name, config, capsys)
    assert status == 2
    assert named in err
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"
    assert not (tmp_path / name).exists()


ORACLE = {"mode": "oracle", "seed": 5, "n_mc": 2000}
HUGE = 1e20  # refused by the ceiling before numpy is asked for it
OVER_CEILING = {  # name: (config, what the error names)
    "grid_x_stop_huge": ({**ORACLE, "grid": {"x_stop": HUGE}},
                         "x_stop 1e+20 in steps of x_step 10.0 has over "
                         "10000 thresholds"),
    "grid_one_over": ({**ANALYZE, "grid": {"x_start": 0, "x_stop": 10000,
                                           "x_step": 1}},
                      "has over 10000 thresholds"),
    "simulate_n_huge": ({"mode": "simulate", "seed": 5, "n": HUGE},
                        "n must be at most 1000000, got "
                        "100000000000000000000"),
    "simulate_n_one_over": ({"mode": "simulate", "seed": 5, "n": 1_000_001},
                            "n must be at most 1000000, got 1000001"),
    "oracle_n_mc_huge": ({**ORACLE, "n_mc": HUGE}, "oracle needs n_mc <= "
                         "1000000, got 100000000000000000000"),
    "oracle_n_mc_one_over": ({**ORACLE, "n_mc": 1_000_001},
                             "oracle needs n_mc <= 1000000, got 1000001"),
    "simulate_horizon_huge": ({"mode": "simulate", "seed": 5, "n": 300,
                               "dgp": {"horizon": HUGE}},
                              "horizon must be from 1 to 600 months"),
    "oracle_horizon_one_over": ({**ORACLE, "dgp": {"horizon": 601}},
                                "horizon must be from 1 to 600 months, "
                                "got 601"),
    "coverage_horizon_huge": ({**COVERAGE, "dgp": {"horizon": HUGE}},
                              "horizon must be from 1 to 600 months"),
    "coverage_n_huge": ({**COVERAGE, "n": HUGE},
                        "n must be at most 1000000"),
    "coverage_oracle_n_mc_huge": ({**COVERAGE, "oracle_n_mc": HUGE},
                                  "oracle needs n_mc <= 1000000"),
    "coverage_bootstrap_huge": ({**COVERAGE, "bootstrap": HUGE},
                                "bootstrap B must be from 0 to 100000"),
    "coverage_n_cohorts_huge": ({**COVERAGE, "n_cohorts": HUGE},
                                "coverage needs n_cohorts <= 100000, got "
                                "100000000000000000000"),
    "coverage_n_cohorts_one_over": ({**COVERAGE, "n_cohorts": 100_001},
                                    "coverage needs n_cohorts <= 100000, "
                                    "got 100001"),
    "analyze_bootstrap_huge": ({**ANALYZE, "bootstrap": HUGE},
                               "bootstrap B must be from 0 to 100000"),
    "frontier_bootstrap_one_over": ({"mode": "frontier", "seed": 5,
                                     "kappa_grid": [4.5],
                                     "bootstrap": 100_001},
                                    "bootstrap B must be from 0 to 100000, "
                                    "got 100001"),
    "analyze_marker_knots_huge": (
        {**ANALYZE, "weights": {"features": {"marker_knots": HUGE}}},
        "marker_knots must be at most 10, got 100000000000000000000"),
    "coverage_marker_knots_one_over": (
        {**COVERAGE, "weights": {"features": {"marker_knots": 11}}},
        "marker_knots must be at most 10, got 11"),
    "analyze_gap_cap_huge": (
        {**ANALYZE, "weights": {"features": {"gap": "categorical",
                                             "gap_cap": HUGE}}},
        "gap_cap must be at most 60, got 100000000000000000000"),
    "frontier_gap_cap_one_over": (
        {"mode": "frontier", "seed": 5, "kappa_grid": [4.5],
         "weights": {"features": {"gap": "categorical", "gap_cap": 61}}},
        "gap_cap must be at most 60, got 61"),
}


@pytest.mark.parametrize("name", sorted(OVER_CEILING))
def test_size_over_its_ceiling_is_refused_before_any_work(
        tmp_path, cohort_csv, capsys, monkeypatch, name):
    for module in (rcds.cli, rcds.study):
        monkeypatch.setattr(module, "oracle_truth", refuse_work)
        monkeypatch.setattr(module, "simulate_cohort", refuse_work)
    monkeypatch.setattr(rcds.io, "ingest_cohort", refuse_work)
    config, named = OVER_CEILING[name]
    if config["mode"] in ("analyze", "frontier"):
        config = {**config, "input": cohort_csv}
    status, err = run(tmp_path, name, config, capsys)
    assert status == 2
    assert named in err
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"
    assert not (tmp_path / name).exists()


def test_each_ceiling_admits_itself():
    from rcds.msm import MAX_REPLICATES, check_replicates
    from rcds.simulate import (MAX_HORIZON, MAX_SUBJECTS, DgpParams,
                               check_oracle, check_subjects)
    from rcds.strategies import MAX_THRESHOLDS
    from rcds.study import MAX_COHORTS, check_study
    from rcds.weights import MAX_GAP_CAP, MAX_MARKER_KNOTS, MonitorFeatureSpec

    assert len(StrategyGrid.default(1.0, MAX_THRESHOLDS, 1.0)) == \
        MAX_THRESHOLDS
    assert check_subjects(MAX_SUBJECTS) == MAX_SUBJECTS
    check_oracle(MAX_SUBJECTS)
    assert check_replicates(MAX_REPLICATES) == MAX_REPLICATES
    DgpParams(horizon=MAX_HORIZON).check_structure()
    assert check_study(StrategyGrid.default(), 350.0, MAX_COHORTS, 1, 1,
                       oracle_n_mc=1000) == 15
    MonitorFeatureSpec(marker_knots=MAX_MARKER_KNOTS, gap="categorical",
                       gap_cap=MAX_GAP_CAP)


OUT_MODES = {
    "simulate": {"mode": "simulate", "seed": 5, "n": 300},
    "oracle": {"mode": "oracle", "seed": 5, "n_mc": 1000},
    "analyze": ANALYZE,
    "frontier": {"mode": "frontier", "seed": 5, "kappa_grid": [4.5]},
    "coverage": {"mode": "coverage", "seed": 5, "n": 300, "n_cohorts": 1,
                 "bootstrap": 2, "oracle_n_mc": 1000},
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("mode", sorted(OUT_MODES))
def test_out_that_is_a_file_is_refused_before_any_work(
        tmp_path, cohort_csv, capsys, monkeypatch, mode, under):
    for module in (rcds.cli, rcds.study):
        monkeypatch.setattr(module, "oracle_truth", refuse_work)
    monkeypatch.setattr(rcds.cli, "simulate_cohort", refuse_work)
    monkeypatch.setattr(rcds.io, "ingest_cohort", refuse_work)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if under else taken
    cfg = write_config(tmp_path / f"{mode}.yaml",
                       {**OUT_MODES[mode], "input": cohort_csv}
                       if mode in ("analyze", "frontier") else OUT_MODES[mode])
    status = main([mode, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert status == 2
    assert f"{str(taken)!r} exists and is not one" in err
    assert err.splitlines()[-1] == "error_code=CONFIG_ERROR"
    assert taken.read_text() == "not a directory\n"


def test_one_month_horizon_simulates(tmp_path, capsys):
    # no month lies between entry and the horizon, so no subject is lost
    config = {"mode": "simulate", "seed": 5, "n": 300, "dgp": {"horizon": 1}}
    assert run(tmp_path, "simulate", config, capsys)[0] == 0
    cohort = ingest_cohort(tmp_path / "simulate" / "cohort.csv")
    assert cohort.horizon == 1 and cohort.n_rows == 600
    assert np.all(cohort.followup_end == 1)


def test_config_that_is_not_text_ends_with_error_code(tmp_path, capsys):
    cfg = tmp_path / "binary.yaml"
    cfg.write_bytes(b"mode: simulate\nseed: 1\nn: \xff\n")
    status = main(["simulate", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error: {cfg}: cannot read config: ")
    assert err[-1] == "error_code=CONFIG_ERROR"


def test_missing_config_file_ends_with_error_code(tmp_path, capsys):
    status = main(["analyze", "--config", str(tmp_path / "absent.yaml")])
    assert status != 0
    assert capsys.readouterr().err.splitlines()[-1] == "error_code=CONFIG_ERROR"


def test_unexpected_fault_ends_with_base_error_code(tmp_path, capsys,
                                                    monkeypatch):
    def broken(*args):
        raise RuntimeError("fault")

    monkeypatch.setattr(rcds.cli, "run", broken)
    status, err = run(tmp_path, "fault", {"mode": "simulate", **SMALL}, capsys)
    assert status != 0
    assert err.splitlines()[-1] == "error_code=ERROR"


# fits whose MLE lies on the boundary: each run pins the cells without
# events, and only those, and a genuine collinearity still fails

SIM_SCHEMA_CONFIG = [
    {"name": "sex", "kind": "categorical", "levels": ["female", "male"]},
    {"name": "base_marker_band", "kind": "categorical",
     "levels": ["lt250", "250to399", "ge400"]},
    {"name": "age", "kind": "continuous"},
    {"name": "calendar", "kind": "categorical",
     "levels": ["era0", "era1", "era2", "era3"]},
]


def simulated_csv(tmp_path, n, seed):
    out = tmp_path / f"sim_{n}_{seed}"
    cfg = write_config(tmp_path / f"sim_{n}_{seed}.yaml",
                       {"mode": "simulate", "n": n, "seed": seed})
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return str(out / "cohort.csv")


def pinned_rows(plan, fit, weights):
    """The kept horizon rows of ``plan`` that a direction of ``fit`` takes
    below zero."""
    X = plan.msm_design.X
    rows = np.zeros(X.shape[0], dtype=bool)
    for d in fit.directions:
        rows |= X @ d < -CERT_TOL
    return rows & ~np.isnan(plan.ht.y) & (weights > 0)


def test_event_free_threshold_is_pinned(tmp_path, capsys):
    # four thresholds saturate the strategy spline, and none of the 23
    # uncensored clones at x = 200 fails
    path = simulated_csv(tmp_path, 1500, 3)
    config = {"mode": "analyze", "seed": 1, "input": path, "kappa": 4.5,
              "grid": {"x_step": 100}}
    assert run(tmp_path, "analyze", config, capsys)[0] == 0
    report = yaml.safe_load((tmp_path / "analyze" / "weights.yaml")
                            .read_text())
    assert report["msm"] == {"outcome_pinned": ["x_rcs2"],
                             "resource_pinned": []}
    plan = Plan(ingest_cohort(path), StrategyGrid.default(x_step=100))
    _, fit_y, fit_d = plan.fit()
    assert fit_y.pinned == ("x_rcs2",)
    assert "x_rcs2" not in fit_y.columns
    assert fit_d.pinned == () and fit_d.directions == ()
    rows = pinned_rows(plan, fit_y, plan._horizon_weights(None)[0])
    assert rows.sum() == 23
    assert np.all(plan.grid.xs[plan.ht.x_idx[rows]] == 200.0)
    assert np.all(plan.ht.y[rows] == 0)
    risk, _, pinned = plan.run(None)
    assert pinned
    assert risk[0] == pytest.approx(np.exp(rcds.msm.DEGENERATE_ETA))


def test_event_free_continuous_value_is_pinned(tmp_path, capsys):
    # without a declared schema `sex` is a continuous 0/1 field; one
    # resample keeps no event among the men
    path = simulated_csv(tmp_path, 1000, 5)
    config = {"mode": "analyze", "seed": 5, "input": path, "kappa": 4.5,
              "bootstrap": 2}
    assert run(tmp_path, "analyze", config, capsys)[0] == 0
    report = yaml.safe_load((tmp_path / "analyze" / "weights.yaml")
                            .read_text())
    assert report["bootstrap"] == {"B": 2, "failed": 0, "pinned": 1,
                                   "failed_by_code": {}}


def test_small_cohort_pins_every_event_free_level(tmp_path, capsys):
    # 300 subjects: the point fit's 28 events fall in two of the twelve
    # (base_marker_band, calendar) cells, so four levels are pinned and
    # the remaining rows leave more columns aliased than the one dropped.
    # Replicate 0 of seed 1 keeps 12 event rows, and every other row can go
    # to a zero mean: the face pins them all, and the replicate fits
    path = simulated_csv(tmp_path, 300, 4)
    config = {"mode": "analyze", "seed": 1, "input": path, "kappa": 4.5,
              "bootstrap": 2, "baseline_schema": SIM_SCHEMA_CONFIG}
    assert run(tmp_path, "analyze", config, capsys)[0] == 0
    report = yaml.safe_load((tmp_path / "analyze" / "weights.yaml")
                            .read_text())
    assert report["bootstrap"]["failed"] == 0
    cohort = rcds.cli._load_cohort(rcds.io.load_config(
        str(tmp_path / "analyze.yaml")))
    plan = Plan(cohort, StrategyGrid.default())
    _, fit_y, _ = plan.fit()
    assert fit_y.pinned == ("base_marker_band=lt250", "base_marker_band=ge400",
                            "calendar=era0", "calendar=era3")
    n = cohort.n_subjects
    ss = np.random.SeedSequence(1).spawn(2)[0]
    mult = np.bincount(np.random.default_rng(ss).integers(0, n, n),
                       minlength=n).astype(np.float64)
    _, fit_y, _ = plan.fit(mult)
    kept = mult[plan.ht.subject_idx] > 0
    for d in fit_y.directions:
        kept &= plan.msm_design.X @ d >= -CERT_TOL
    assert kept.sum() == 12 and np.all(plan.ht.y[kept] > 0)


def test_small_cohort_replicates_pin_and_keep_event_free_rows(tmp_path,
                                                              capsys):
    # the cohort above at seed 6: both replicates pin levels, and their
    # faces keep event-free rows
    path = simulated_csv(tmp_path, 300, 4)
    config = {"mode": "analyze", "seed": 6, "input": path, "kappa": 4.5,
              "bootstrap": 2, "baseline_schema": SIM_SCHEMA_CONFIG}
    assert run(tmp_path, "analyze", config, capsys)[0] == 0
    report = yaml.safe_load((tmp_path / "analyze" / "weights.yaml")
                            .read_text())
    assert report["bootstrap"] == {"B": 2, "failed": 0, "pinned": 2,
                                   "failed_by_code": {}}


def test_genuine_collinearity_is_not_pinned(tmp_path, capsys, monkeypatch):
    # a copy of `age` is collinear with it on every row: no face, and the
    # error names the copy
    src = simulated_csv(tmp_path, 800, 5)
    with open(src, newline="") as f:
        rows = list(csv.DictReader(f))
    dup = tmp_path / "dup.csv"
    with open(dup, "w", newline="") as f:
        out = csv.DictWriter(f, [*rows[0], "baseline_age2"])
        out.writeheader()
        out.writerows({**r, "baseline_age2": r["baseline_age"]} for r in rows)
    certificates, certificate = [], rcds.msm._face

    def recorded(*args):
        certificates.append(certificate(*args))
        return certificates[-1]

    monkeypatch.setattr(rcds.msm, "_face", recorded)
    config = {"mode": "analyze", "seed": 5, "input": str(dup), "kappa": 4.5}
    status, err = run(tmp_path, "analyze", config, capsys)
    assert status == 2
    assert "column 'age2' is linearly dependent" in err
    assert err.splitlines()[-1] == "error_code=RANK_DEFICIENT"
    assert certificates == [None]
