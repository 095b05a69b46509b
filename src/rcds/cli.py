"""Command-line operator surface: simulate | oracle | analyze | frontier | coverage.

Every run is driven by one structured config file; the seed is mandatory and
reruns with identical config and seed produce byte-identical artifacts.
This module reads every config value by one set of rules. A mode takes only
its own keys (``MODE_KEYS``) and checks them before any work; an unknown key
or a bad value is a :class:`ConfigError` that names the key.
Sizes have ceilings, each checked before anything of that size is made:
``n`` and ``n_mc`` (and ``oracle_n_mc``) at most 1,000,000
(``simulate.MAX_SUBJECTS``), ``dgp.horizon`` at most 600 months
(``simulate.MAX_HORIZON``), a grid of at most 10,000 thresholds
(``strategies.MAX_THRESHOLDS``), ``bootstrap`` at most 100,000
(``msm.MAX_REPLICATES``), ``n_cohorts`` at most 100,000
(``study.MAX_COHORTS``), ``weights.features.marker_knots`` at most 10
(``weights.MAX_MARKER_KNOTS``) and ``weights.features.gap_cap`` at most
60 (``weights.MAX_GAP_CAP``). They bound what one value can ask for, not
what a run's memory holds.
Config values are refused before ``out`` is made; among these refusals are
a grid with no threshold, an estimator grid (analyze, frontier, coverage)
with fewer than 2 thresholds, ``msm.strategy_knots`` that are not at least 3
finite, strictly increasing numbers, a DGP with a non-finite value or a marker
range that overflows, and a name in ``msm.baseline_terms`` or
``weights.features.baseline`` that the baseline schema lacks (the input
cohort's, read first; the simulator's for coverage).
Errors exit nonzero with a machine-parsable ``error_code=...`` final line;
an infeasible selection is a reported status, not an error.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import io as rio
from .chart import render_chart
from .cohort import CONTINUOUS, BaselineField, BaselineSchema, baseline_fields
from .errors import ConfigError, RcdsError, is_number, is_whole
# perfbench/child.py times analyze_cohort by its name here, though unused
from .msm import (MsmSpec, WeightOptions, analyze_cohort, bootstrap_pipeline,
                  check_grid, check_replicates)
from .optimize import check_cap, frontier, select
from .simulate import (
    SIM_SCHEMA,
    DgpParams,
    check_oracle,
    check_subjects,
    oracle_truth,
    simulate_cohort,
)
from .strategies import StrategyGrid
from .study import COVERAGE_SPEC, check_study, run_coverage
from .weights import MonitorFeatureSpec


def _number(block, key, default=None, kind=float):
    """``block[key]`` (or ``default``) as ``kind``, float or int; a missing
    required value, a boolean or other non-number, or a fraction for int is
    a :class:`ConfigError` naming the key."""
    value = block.get(key, default)
    if value is None:
        raise ConfigError(f"config needs a value for {key!r}")
    if not is_number(value):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    if kind is int and not is_whole(value):
        raise ConfigError(f"{key!r} must be a whole number, got {value!r}")
    return kind(value)


def _listed(block, key, what, kind, valid=lambda v: True):
    """``block[key]`` as a tuple of ``kind``, empty when absent or null; any
    other value that is not a list of ``valid`` items is a
    :class:`ConfigError`."""
    value = [] if block.get(key) is None else block[key]
    if isinstance(value, list) and all(valid(v) for v in value):
        return tuple(kind(v) for v in value)
    raise ConfigError(f"{key!r} must be a list of {what}, got {value!r}")


def _integer(block, key):
    return _number(block, key, kind=int)


def _count(block, key, default=None):
    """``block[key]`` (or ``default``) as a non-negative int."""
    value = _number(block, key, default, int)
    if value < 0:
        raise ConfigError(f"{key!r} must be non-negative, got {value}")
    return value


def _names(block, key):
    return _listed(block, key, "names", str)


def _numbers(block, key):
    return _listed(block, key, "numbers", float, is_number)


def _present(block, keys, readers):
    """The entries of ``block`` among ``keys``, each read by its reader in
    ``readers`` or taken as written. An absent key is left out, so the
    callee's own default applies."""
    return {key: readers[key](block, key) if key in readers else block[key]
            for key in keys if key in block}


MODE_KEYS = {  # mode: the config keys it reads besides mode, seed and out
    "simulate": ("dgp", "n"),
    "oracle": ("dgp", "grid", "n_mc", "rule"),
    "analyze": ("input", "baseline_schema", "grid", "msm", "weights",
                "kappa", "bootstrap"),
    "frontier": ("input", "baseline_schema", "grid", "msm", "weights",
                 "kappa_grid", "bootstrap"),
    "coverage": ("dgp", "grid", "msm", "weights", "x_value", "n_cohorts",
                 "n", "bootstrap", "oracle_n_mc", "oracle_rule"),
}
MODES = tuple(MODE_KEYS)
WEIGHT_KEYS = ("truncation", "weighting", "features")
FEATURE_KEYS = tuple(f.name for f in dataclasses.fields(MonitorFeatureSpec))
GRID_KEYS = ("x_start", "x_stop", "x_step", "window_below", "window_above",
             "override_window")
MSM_KEYS = ("strategy_knots", "baseline_terms")


def _known_keys(block, keys, what):
    """``block``, once every key of it is one of ``keys``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{what} must be a mapping, got {block!r}")
    for key in block:
        if key not in keys:
            raise ConfigError(f"unknown {what} key {key!r}; the {what} "
                              f"block takes {', '.join(keys)}")
    return block


def _grid_from(block):
    _known_keys(block, GRID_KEYS, "grid")
    return StrategyGrid.default(**_present(block, GRID_KEYS, {
        "x_start": _number, "x_stop": _number, "x_step": _number}))


def _msm_from(block, spec=MsmSpec()):
    _known_keys(block, MSM_KEYS, "msm")
    return dataclasses.replace(spec, **_present(block, MSM_KEYS, {
        "strategy_knots": lambda b, k: _numbers(b, k) or None,
        "baseline_terms": lambda b, k: "all" if b[k] == "all"
        else _names(b, k)}))


def _wopts_from(block):
    _known_keys(block, WEIGHT_KEYS, "weights")
    feat = _known_keys(block.get("features", {}), FEATURE_KEYS,
                       "weights.features")
    spec = MonitorFeatureSpec(**_present(feat, FEATURE_KEYS, {
        "marker_knots": _integer, "gap_cap": _integer, "baseline": _names}))
    return WeightOptions(monitor_spec=spec, **_present(
        block, ("truncation", "weighting"),
        {"truncation": lambda b, k: None if b[k] is None else _number(b, k)}))


def _check_terms(schema, spec, wopts):
    """Refuse, naming its key, a baseline term that ``schema`` lacks."""
    for key, terms in (("msm.baseline_terms", spec.baseline_terms),
                       ("weights.features.baseline",
                        wopts.monitor_spec.baseline)):
        try:
            baseline_fields(schema, terms)
        except ConfigError as err:
            raise ConfigError(f"{key}: {err}; the schema has "
                              f"{list(schema.names)}") from None


def _section(raw, name, default=None):
    """The config's ``name`` block, ``default`` (an empty mapping for None)
    when absent; a block of another type is a :class:`ConfigError`."""
    default = {} if default is None else default
    block = raw.get(name, default)
    if not isinstance(block, type(default)):
        kind = "a mapping" if isinstance(default, dict) else "a list"
        raise ConfigError(f"config section {name!r} must be {kind}, "
                          f"got {block!r}")
    return block


DGP_KEYS = {f.name: _integer if f.type is int else _number  # key: reader
            for f in dataclasses.fields(DgpParams)}


def _dgp_from(block):
    _known_keys(block, DGP_KEYS, "dgp")
    params = DgpParams(**_present(block, DGP_KEYS, DGP_KEYS))
    params.validate()  # a DGP that breaks positivity is refused here
    return params


def _schema_from(raw):
    """The declared baseline schema, or None when the config declares none."""
    fields = []
    for i, item in enumerate(_section(raw, "baseline_schema", []), 1):
        if not (isinstance(item, dict) and "name" in item):
            raise ConfigError(f"baseline_schema entry {i} must be a mapping "
                              f"with a 'name', got {item!r}")
        levels = item.get("levels", [])
        if not (isinstance(levels, (list, tuple))
                and all(isinstance(v, str) for v in levels)):
            raise ConfigError(f"baseline_schema entry {i} 'levels' must be "
                              f"a list of strings, got {levels!r}")
        fields.append(BaselineField(item["name"], item.get("kind", CONTINUOUS),
                                    tuple(levels)))
    return BaselineSchema(fields=tuple(fields)) if fields else None


def _load_cohort(raw):
    inp = raw.get("input")
    if not (isinstance(inp, str) and inp):
        raise ConfigError(f"{raw['mode']} mode needs an input cohort path")
    if not Path(inp).exists():
        raise ConfigError(f"input path {inp!r} does not exist")
    return rio.ingest_cohort(inp, schema=_schema_from(raw))


def _monitor_info(plan):
    """The point monitoring fit of ``plan``, as reported in weights.yaml."""
    fit = plan.monitor_model
    if fit is None:
        return {"weighting": "none"}
    return {
        "log_likelihood": plan.monitor.log_likelihood(fit),
        "iterations": fit.iterations,
        "n_decision_months": int(plan.monitor.monitored.size),
        "columns": list(fit.columns),
        "dropped_features": list(plan.monitor.dropped(fit)),
    }


def _out_dir(out):
    """``out`` as a path, refused as a :class:`ConfigError` when it names
    or lies under something that exists and is not a directory."""
    out = Path(out)
    there = next((p for p in (out, *out.parents) if p.exists()), None)
    if there is not None and not there.is_dir():
        raise ConfigError(f"out {str(out)!r} cannot be a directory: "
                          f"{str(there)!r} exists and is not one")
    return out


def run(raw, out):
    """Execute the run a config mapping describes and write its artifacts
    into ``out``, made once every config value is checked (and any input
    cohort ingested) and before any other work. Returns exit status."""
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    _known_keys(raw, ("mode", "seed", "out", *MODE_KEYS[mode]),
                f"{mode} config")
    seed = _count(raw, "seed")
    out = _out_dir(out)

    if mode == "simulate":
        params = _dgp_from(_section(raw, "dgp"))
        n = check_subjects(_number(raw, "n", 1000, int))
        out.mkdir(parents=True, exist_ok=True)
        cohort = simulate_cohort(params, n, seed=seed)
        rio.cohort_to_csv(cohort, out / "cohort.csv")
        rio.dump_yaml(params.to_dict(), out / "dgp.yaml")
        print(f"wrote {out / 'cohort.csv'} ({cohort.n_subjects} subjects)")
        return 0

    if mode == "oracle":
        params = _dgp_from(_section(raw, "dgp"))
        grid = _grid_from(_section(raw, "grid"))
        n_mc = _number(raw, "n_mc", 100_000, int)
        rule = _present(raw, ("rule",), {})
        check_oracle(n_mc, **rule)
        out.mkdir(parents=True, exist_ok=True)
        truth = oracle_truth(params, grid, n_mc, seed=seed, **rule)
        rio.truth_to_csv(truth, out / "truth.csv")
        print(f"wrote {out / 'truth.csv'} (n_mc={n_mc})")
        return 0

    if mode in ("analyze", "frontier"):
        if mode == "analyze":
            kappa = check_cap(_number(raw, "kappa"))
        else:
            kappas = [check_cap(k) for k in _numbers(raw, "kappa_grid")]
            if not kappas:
                raise ConfigError("frontier mode needs a kappa_grid")
        B = check_replicates(_count(raw, "bootstrap", 0))
        grid = check_grid(_grid_from(_section(raw, "grid")))
        spec = _msm_from(_section(raw, "msm"))
        wopts = _wopts_from(_section(raw, "weights"))
        cohort = _load_cohort(raw)
        _check_terms(cohort.schema, spec, wopts)
        out.mkdir(parents=True, exist_ok=True)
        plan = bootstrap_pipeline(cohort, grid, spec, wopts, B=B, seed=seed)
        table = plan.table

        if mode == "analyze":
            sel = select(table, kappa)
            rio.report_to_csv(table, out / "report.csv", selection=sel)
            rio.dump_yaml(sel.to_dict(), out / "selection.yaml")
            rio.dump_yaml(
                {"weights": plan.weights,
                 "monitor_model": _monitor_info(plan),
                 "msm": {"outcome_pinned": list(plan.pinned[0]),
                         "resource_pinned": list(plan.pinned[1])},
                 "bootstrap": {"B": int(table.n_boot),
                               "failed": int(table.n_failed),
                               "pinned": int(table.n_pinned),
                               "failed_by_code": table.failed_by_code}},
                out / "weights.yaml",
            )
            (out / "chart.svg").write_text(render_chart(table, kappa, sel))
            print(f"selection status: {sel.status}; chosen_x="
                  f"{sel.chosen_x if sel.chosen_x is not None else 'none'}")
            return 0

        selections, steps = frontier(table, kappas)
        rio.report_to_csv(table, out / "report.csv", selection=selections[-1])
        rio.write_csv(out / "frontier.csv", ["kappa", "status", "chosen_x",
                                             "chosen_risk", "chosen_usage"],
                      ([s.kappa, s.status, s.chosen_x, s.chosen_risk,
                        s.chosen_usage] for s in selections))
        rio.dump_yaml({"steps": [dataclasses.asdict(st) for st in steps]},
                      out / "frontier.yaml")
        print(f"wrote {out / 'frontier.csv'} ({len(kappas)} caps)")
        return 0

    # coverage, the one mode left
    params = _dgp_from(_section(raw, "dgp"))
    grid = _grid_from(_section(raw, "grid"))
    spec = _msm_from(_section(raw, "msm"), COVERAGE_SPEC)
    wopts = _wopts_from(_section(raw, "weights"))
    study = {"x_value": _number(raw, "x_value", 350),
             "n_cohorts": _number(raw, "n_cohorts", 200, int),
             "n": _number(raw, "n", 2000, int),
             "B": _number(raw, "bootstrap", 200, int),
             **_present(raw, ("oracle_n_mc", "oracle_rule"),
                        {"oracle_n_mc": _integer})}
    check_study(grid, **study)
    _check_terms(SIM_SCHEMA, spec, wopts)
    out.mkdir(parents=True, exist_ok=True)
    res = run_coverage(params, grid, seed=seed, spec=spec, wopts=wopts,
                       progress=_report_cohort, **study)
    header = ["cohort", "risk", "risk_lo", "risk_hi", "covered"]
    rio.write_csv(out / "coverage.csv", header,
                  ([r[key] for key in header] for r in res.rows))
    rio.dump_yaml(res.to_dict(), out / "coverage.yaml")
    print(f"coverage: {res.coverage:.3f}")
    return 0


def _report_cohort(done, total, covered):
    """One stderr line per finished coverage cohort."""
    print(f"cohort {done}/{total}: {covered} of {done} intervals cover the "
          "oracle", file=sys.stderr)


def build_parser():
    p = argparse.ArgumentParser(
        prog="rcds",
        description="Resource-constrained dynamic monitoring strategies",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in MODES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        raw = rio.load_config(args.config)
        if raw.get("mode") != args.command:
            raise ConfigError(
                f"config mode {raw.get('mode')!r} does not match subcommand "
                f"{args.command!r}"
            )
        return run(raw, args.out if args.out is not None
                   else str(raw.get("out", "out")))
    except RcdsError as err:
        print(f"error: {err}", file=sys.stderr)
        print(f"error_code={err.code}", file=sys.stderr)
        return err.exit_code
    except Exception as err:  # a fault of the program: still a final code
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        print(f"error_code={RcdsError.code}", file=sys.stderr)
        return RcdsError.exit_code


if __name__ == "__main__":
    sys.exit(main())
