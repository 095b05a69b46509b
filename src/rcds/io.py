"""Cohort CSV ingestion and emission, report/truth serialization, config files.

All writers format floats with shortest-roundtrip ``repr`` and never embed
timestamps, so identical inputs produce byte-identical artifacts.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .cohort import (
    CATEGORICAL,
    CONTINUOUS,
    END_REASONS,
    BaselineField,
    BaselineSchema,
    Cohort,
    _REASON_CODE,
)
from .errors import ConfigError, IngestError

MAX_VIOLATIONS = 20

COHORT_FIXED_COLUMNS = [
    "subject_id", "t", "monitor", "observed_marker", "override_flag",
    "followup_end", "end_reason", "outcome_y",
]


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float) and np.isnan(v):
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cohort_to_csv(cohort, path):
    """Write one row per subject-month in the flat cohort schema."""
    base_cols = [f"baseline_{n}" for n in cohort.schema.names]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COHORT_FIXED_COLUMNS + base_cols)
        for i in range(cohort.n_subjects):
            lo, hi = cohort.offsets[i], cohort.offsets[i + 1]
            fue = int(cohort.followup_end[i])
            base = [repr(float(v)) for v in cohort.baseline[i]]
            y = cohort.outcome_y[i]
            for k in range(lo, hi):
                t = int(cohort.t[k])
                obs = float(cohort.observed_marker[k])
                row = [
                    cohort.subject_ids[i],
                    t,
                    int(cohort.monitor[k]),
                    "" if np.isnan(obs) else repr(obs),
                    int(cohort.override_flag[k]),
                    fue,
                    cohort.end_reason_name(i),
                    ("" if (t != fue or np.isnan(y)) else str(int(y))),
                ]
                w.writerow(row + base)


class _Violations:
    def __init__(self):
        self.items = []

    def add(self, line_no, message):
        if len(self.items) < MAX_VIOLATIONS:
            self.items.append((line_no, message))

    def raise_if_any(self, path):
        if self.items:
            listing = "; ".join(f"line {ln}: {msg}" for ln, msg in self.items)
            raise IngestError(
                f"{path}: {len(self.items)} violation(s) (first "
                f"{MAX_VIOLATIONS} listed): {listing}",
                violations=self.items,
            )


def ingest_cohort(path, schema=None, horizon=None):
    """Parse and validate a cohort CSV.

    Derived fields (carried-forward marker, months since last visit) are
    reconstructed from the measurements. Baseline columns follow the declared
    ``schema``; without one, every ``baseline_*`` column is treated as
    continuous. ``horizon`` defaults to the largest followup_end present.
    Structural violations raise :class:`IngestError` with line numbers,
    fail-fast after the first 20.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        rows = list(reader)

    fixed = COHORT_FIXED_COLUMNS
    if header[: len(fixed)] != fixed:
        raise IngestError(
            f"{path}: header must start with {fixed}, got {header[:len(fixed)]}"
        )
    base_cols = header[len(fixed):]
    if any(not c.startswith("baseline_") for c in base_cols):
        raise IngestError(f"{path}: trailing columns must be baseline_*")
    base_names = [c[len("baseline_"):] for c in base_cols]
    if schema is None:
        schema = BaselineSchema(fields=tuple(
            BaselineField(n, CONTINUOUS) for n in base_names
        ))
    if schema.names != base_names:
        raise IngestError(
            f"{path}: baseline columns {base_names} do not match the declared "
            f"schema {schema.names}"
        )

    viol = _Violations()
    subjects = {}
    order = []
    for idx, row in enumerate(rows):
        line = idx + 2
        if len(row) != len(header):
            viol.add(line, f"expected {len(header)} fields, got {len(row)}")
            continue
        sid = row[0]
        try:
            t = int(row[1])
            monitor = int(row[2])
            obs = float(row[3]) if row[3] != "" else np.nan
            override = int(row[4])
            fue = int(row[5])
        except ValueError as err:
            viol.add(line, f"malformed numeric field: {err}")
            continue
        reason = row[6]
        y_raw = row[7]
        if sid not in subjects:
            subjects[sid] = {
                "rows": {}, "fue": fue, "reason": reason, "y": None,
                "base": row[8:], "first_line": line,
            }
            order.append(sid)
        rec = subjects[sid]
        if t in rec["rows"]:
            viol.add(line, f"duplicated (subject, t) = ({sid}, {t})")
            continue
        if fue != rec["fue"]:
            viol.add(line, f"followup_end changes within subject {sid}")
        if reason != rec["reason"]:
            viol.add(line, f"end_reason changes within subject {sid}")
        if row[8:] != rec["base"]:
            viol.add(line, f"baseline values change within subject {sid}")
        if monitor not in (0, 1):
            viol.add(line, "monitor must be 0 or 1")
            continue
        if override not in (0, 1):
            viol.add(line, "override_flag must be 0 or 1")
            continue
        if monitor == 1 and np.isnan(obs):
            viol.add(line, "monitored month lacks an observed_marker")
        if monitor == 0 and not np.isnan(obs):
            viol.add(line, "observed_marker present on an unmonitored month")
        if reason not in END_REASONS:
            viol.add(line, f"unknown end_reason {reason!r}")
            continue
        if y_raw != "":
            if t != fue:
                viol.add(line, "outcome_y populated before the last row")
            if y_raw not in ("0", "1"):
                viol.add(line, f"outcome_y must be 0 or 1, got {y_raw!r}")
            else:
                rec["y"] = float(y_raw)
        rec["rows"][t] = (monitor, obs, override)
        if len(viol.items) >= MAX_VIOLATIONS:
            break
    viol.raise_if_any(path)

    if not order:
        raise IngestError(f"{path}: no data rows")
    fues = [subjects[s]["fue"] for s in order]
    K = int(max(fues)) if horizon is None else int(horizon)

    ids, base, fue_arr, reason_arr, y_arr, d_arr = [], [], [], [], [], []
    t_flat, mon_flat, obs_flat, last_flat, m_flat, ovr_flat = [], [], [], [], [], []
    for sid in order:
        rec = subjects[sid]
        fue = rec["fue"]
        line = rec["first_line"]
        if fue < 0 or fue > K:
            viol.add(line, f"followup_end {fue} outside [0, {K}]")
            continue
        expected = set(range(fue + 1))
        got = set(rec["rows"])
        if got != expected:
            missing = sorted(expected - got)[:3]
            extra = sorted(got - expected)[:3]
            viol.add(line, f"subject {sid}: month gap/extras "
                           f"(missing {missing}, extra {extra})")
            continue
        if rec["rows"][0][0] != 1:
            viol.add(line, f"subject {sid}: baseline month must be monitored")
            continue
        if rec["y"] is not None and fue != K:
            viol.add(line, f"subject {sid}: outcome recorded but follow-up "
                           f"ended at {fue} < horizon {K}")
            continue
        try:
            bvals = [float(v) for v in rec["base"]]
        except ValueError:
            viol.add(line, f"subject {sid}: malformed baseline value")
            continue
        ids.append(sid)
        base.append(bvals)
        fue_arr.append(fue)
        reason_arr.append(_REASON_CODE[rec["reason"]])
        y_arr.append(np.nan if rec["y"] is None else rec["y"])
        last, msince, d = np.nan, 0, 0
        for t in range(fue + 1):
            monitor, obs, override = rec["rows"][t]
            if monitor == 1:
                last, msince, d = obs, 0, d + 1
            elif t > 0:
                msince += 1
            t_flat.append(t)
            mon_flat.append(monitor)
            obs_flat.append(obs)
            last_flat.append(last)
            m_flat.append(msince)
            ovr_flat.append(override)
        d_arr.append(d)
    viol.raise_if_any(path)

    try:
        return Cohort(
            subject_ids=ids, baseline=np.array(base, dtype=np.float64),
            schema=schema, horizon=K, followup_end=fue_arr,
            end_reason=reason_arr, outcome_y=y_arr, d_total=d_arr, t=t_flat,
            monitor=mon_flat, observed_marker=obs_flat,
            last_observed_marker=last_flat, months_since=m_flat,
            override_flag=ovr_flat,
        )
    except ConfigError as err:
        raise IngestError(f"{path}: {err}") from err


def report_to_csv(table, path, selection=None):
    """Table-style report, rows ordered by descending threshold."""
    feasible = None
    if selection is not None:
        fset = set(float(v) for v in selection.feasible_x)
        feasible = [1 if float(x) in fset else 0 for x in table.xs]
    order = np.argsort(-table.xs)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "risk", "risk_lo", "risk_hi", "usage", "usage_lo",
                    "usage_hi", "feasible"])
        for i in order:
            w.writerow([
                _fmt(float(table.xs[i])),
                _fmt(float(table.risk[i])),
                _fmt(float(table.risk_lo[i])),
                _fmt(float(table.risk_hi[i])),
                _fmt(float(table.usage[i])),
                _fmt(float(table.usage_lo[i])),
                _fmt(float(table.usage_hi[i])),
                "" if feasible is None else feasible[i],
            ])


def truth_to_csv(truth, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "risk_true", "risk_mcse", "usage_true", "usage_mcse"])
        for i in range(truth.xs.size):
            w.writerow([
                _fmt(float(truth.xs[i])),
                _fmt(float(truth.risk[i])),
                _fmt(float(truth.risk_mcse[i])),
                _fmt(float(truth.usage[i])),
                _fmt(float(truth.usage_mcse[i])),
            ])


def expanded_to_csv(ds, path, weights=None):
    """Audit dump of the person-strategy-month table."""
    xs = ds.grid.xs
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["subject_id", "x", "t", "at_risk", "censored_this_month",
                  "response_d", "response_y"]
        if weights is not None:
            header.append("weight")
        w.writerow(header)
        for k in range(ds.n_rows):
            row = [
                ds.cohort.subject_ids[ds.subject_idx[k]],
                _fmt(float(xs[ds.x_idx[k]])),
                int(ds.t[k]),
                int(ds.at_risk[k]),
                int(ds.censored_this_month[k]),
                int(ds.response_d[k]),
                _fmt(float(ds.response_y[k])),
            ]
            if weights is not None:
                row.append(_fmt(float(weights[k])))
            w.writerow(row)


def schema_from_config(block):
    fields = []
    for item in block:
        kind = item.get("kind", CONTINUOUS)
        levels = tuple(item.get("levels", ()))
        fields.append(BaselineField(item["name"], kind, levels))
    return BaselineSchema(fields=tuple(fields))


MODES = ("simulate", "oracle", "analyze", "frontier", "coverage")


@dataclass
class RunConfig:
    """Validated run configuration; one structured file drives a whole run."""

    mode: str
    seed: int
    out: str
    raw: dict

    def section(self, name, default=None):
        return self.raw.get(name, {} if default is None else default)


def load_config(path):
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config: {err.strerror}") \
            from None
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: config is not valid YAML: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"{path}: mode must be one of {MODES}, got {mode!r}")
    if "seed" not in raw:
        raise ConfigError(f"{path}: seed is mandatory (no wall-clock default)")
    try:
        seed = int(raw["seed"])
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: seed must be an integer") from None
    out = raw.get("out", "out")
    if mode in ("analyze", "frontier"):
        inp = raw.get("input")
        if not inp:
            raise ConfigError(f"{path}: {mode} mode needs an input cohort path")
        if not Path(inp).exists():
            raise ConfigError(f"{path}: input path {inp!r} does not exist")
    return RunConfig(mode=mode, seed=seed, out=str(out), raw=raw)


def dump_yaml(data, path):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=True, default_flow_style=False)
