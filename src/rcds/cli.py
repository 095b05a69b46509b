"""Command-line operator surface: simulate | oracle | analyze | frontier | coverage.

Every run is driven by one structured config file; the seed is mandatory and
reruns with identical config and seed produce byte-identical artifacts.
Errors exit nonzero with a machine-parsable ``error_code=...`` final line;
an infeasible selection is a reported status, not an error.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import io as rio
from .chart import render_chart
from .errors import ConfigError, RcdsError, is_number, is_whole
from .msm import MsmSpec, WeightOptions, analyze_cohort, bootstrap_pipeline
from .optimize import frontier, select
from .simulate import DgpParams, oracle_truth, simulate_cohort
from .strategies import StrategyGrid
from .study import run_coverage
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


CONFIG_KEYS = ("mode", "seed", "out", "input", "horizon", "baseline_schema",
               "dgp", "grid", "msm", "weights", "n", "n_mc", "rule", "kappa",
               "kappa_grid", "bootstrap", "x_value", "n_cohorts",
               "oracle_n_mc", "oracle_rule")
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


def _msm_from(block):
    _known_keys(block, MSM_KEYS, "msm")
    return MsmSpec(**_present(block, MSM_KEYS, {
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


def _schema_from(cfg):
    block = cfg.section("baseline_schema", [])
    return rio.schema_from_config(block) if block else None


def _load_cohort(cfg):
    horizon = cfg.raw.get("horizon")
    return rio.ingest_cohort(
        cfg.raw["input"], schema=_schema_from(cfg),
        horizon=None if horizon is None else _integer(cfg.raw, "horizon"))


def _monitor_info(plan):
    """The point monitoring model of ``plan``, as reported in weights.yaml."""
    model = plan.monitor_model
    if model is None:
        return {"weighting": "none"}
    return {
        "log_likelihood": plan.monitor.log_likelihood(model),
        "iterations": model.fit.iterations,
        "n_decision_months": int(plan.monitor.monitored.size),
        "columns": list(model.fit.columns),
        "dropped_features": list(model.dropped),
    }


def run(config):
    """Execute one configured run and write its artifacts. Returns exit status."""
    _known_keys(config.raw, CONFIG_KEYS, "config")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = config.seed

    if config.mode == "simulate":
        params = DgpParams.from_dict(config.section("dgp"))
        n = _number(config.raw, "n", 1000, int)
        cohort = simulate_cohort(params, n, seed=seed)
        rio.cohort_to_csv(cohort, out / "cohort.csv")
        rio.dump_yaml(params.to_dict(), out / "dgp.yaml")
        print(f"wrote {out / 'cohort.csv'} ({cohort.n_subjects} subjects)")
        return 0

    if config.mode == "oracle":
        params = DgpParams.from_dict(config.section("dgp"))
        grid = _grid_from(config.section("grid"))
        n_mc = _number(config.raw, "n_mc", 100_000, int)
        truth = oracle_truth(params, grid, n_mc, seed=seed,
                             **_present(config.raw, ("rule",), {}))
        rio.truth_to_csv(truth, out / "truth.csv")
        print(f"wrote {out / 'truth.csv'} (n_mc={n_mc})")
        return 0

    if config.mode in ("analyze", "frontier"):
        if config.mode == "analyze":
            kappa = _number(config.raw, "kappa")
        else:
            kappas = _numbers(config.raw, "kappa_grid")
            if not kappas:
                raise ConfigError("frontier mode needs a kappa_grid")
        cohort = _load_cohort(config)
        grid = _grid_from(config.section("grid"))
        spec = _msm_from(config.section("msm"))
        wopts = _wopts_from(config.section("weights"))
        B = _number(config.raw, "bootstrap", 0, int)
        point = bootstrap_pipeline(cohort, grid, spec, wopts, B=B, seed=seed) \
            if B > 0 else analyze_cohort(cohort, grid, spec, wopts)
        table = point.table

        if config.mode == "analyze":
            sel = select(table, kappa)
            rio.report_to_csv(table, out / "report.csv", selection=sel)
            rio.dump_yaml(sel.to_dict(), out / "selection.yaml")
            rio.dump_yaml(
                {"weights": point.plan.weights.to_dict(),
                 "monitor_model": _monitor_info(point.plan),
                 "msm": {"outcome_pinned": list(point.plan.pinned[0]),
                         "resource_pinned": list(point.plan.pinned[1])},
                 "bootstrap": {"B": int(table.n_boot),
                               "failed": int(table.n_failed),
                               "pinned": int(table.n_pinned),
                               "failed_by_code": table.failed_by_code}},
                out / "weights.yaml",
            )
            svg = render_chart(table, kappa, sel)
            (out / "chart.svg").write_text(svg)
            status = sel.status
            print(f"selection status: {status}; chosen_x="
                  f"{sel.chosen_x if sel.chosen_x is not None else 'none'}")
            return 0

        fr = frontier(table, kappas)
        rio.report_to_csv(table, out / "report.csv",
                          selection=fr.selections[-1])
        rio.write_csv(out / "frontier.csv", ["kappa", "status", "chosen_x",
                                             "chosen_risk", "chosen_usage"],
                      ([s.kappa, s.status, s.chosen_x, s.chosen_risk,
                        s.chosen_usage] for s in fr.selections))
        rio.dump_yaml({"steps": [dataclasses.asdict(st) for st in fr.steps]},
                      out / "frontier.yaml")
        print(f"wrote {out / 'frontier.csv'} ({len(kappas)} caps)")
        return 0

    if config.mode == "coverage":
        params = DgpParams.from_dict(config.section("dgp"))
        grid = _grid_from(config.section("grid"))
        spec = _msm_from(config.section("msm")) if "msm" in config.raw \
            else None
        wopts = _wopts_from(config.section("weights"))
        res = run_coverage(
            params, grid,
            x_value=_number(config.raw, "x_value", 350),
            n_cohorts=_number(config.raw, "n_cohorts", 200, int),
            n=_number(config.raw, "n", 2000, int),
            B=_number(config.raw, "bootstrap", 200, int),
            seed=seed, spec=spec, wopts=wopts,
            **_present(config.raw, ("oracle_n_mc", "oracle_rule"),
                       {"oracle_n_mc": _integer}),
            progress=_report_cohort,
        )
        header = ["cohort", "risk", "risk_lo", "risk_hi", "covered"]
        rio.write_csv(out / "coverage.csv", header,
                      ([r[key] for key in header] for r in res.rows))
        rio.dump_yaml(res.to_dict(), out / "coverage.yaml")
        print(f"coverage: {res.coverage:.3f}")
        return 0

    raise ConfigError(f"unhandled mode {config.mode!r}")


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
    for name in rio.MODES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = rio.load_config(args.config)
        if config.mode != args.command:
            raise ConfigError(
                f"config mode {config.mode!r} does not match subcommand "
                f"{args.command!r}"
            )
        if args.out is not None:
            config.out = args.out
        return run(config)
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
