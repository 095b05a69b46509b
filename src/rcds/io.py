"""Cohort CSV ingestion and emission, report/truth serialization, config files.

All writers format floats with shortest-roundtrip ``repr`` and never embed
timestamps, so identical inputs produce byte-identical artifacts.
"""

import csv
from itertools import chain, count, repeat
from math import isnan
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from .cohort import (
    CONTINUOUS,
    BaselineField,
    BaselineSchema,
    Cohort,
    _REASON_CODE,
    subject_violations,
)
from .errors import ConfigError, IngestError

MAX_VIOLATIONS = 20

COHORT_FIXED_COLUMNS = [
    "subject_id", "t", "monitor", "observed_marker", "override_flag",
    "followup_end", "end_reason", "outcome_y",
]


def _fmt(v):
    return "" if isnan(v) else repr(v)


def _csv_field(text):
    """``text`` as a field of a ``csv.writer`` row (minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def cohort_to_csv(cohort, path):
    """Write one row per subject-month in the flat cohort schema, as
    ``csv.writer`` would, building the text a column at a time."""
    sub = np.repeat(np.arange(cohort.n_subjects), np.diff(cohort.offsets))
    fue, y = cohort.followup_end, cohort.outcome_y

    def per_subject(texts):
        return np.array(texts, dtype=object)[sub]

    def integers(values):
        distinct, at = np.unique(values, return_inverse=True)
        return np.array(list(map(str, distinct.tolist())), dtype=object)[at]

    outcome = np.where(cohort.t == fue[sub], per_subject(
        ["" if isnan(v) else str(int(v)) for v in y.tolist()]), "")
    columns = [
        per_subject([_csv_field(str(s)) for s in cohort.subject_ids]),
        integers(cohort.t), integers(cohort.monitor),
        list(map(_fmt, cohort.observed_marker.tolist())),
        integers(cohort.override_flag),
        per_subject([f"{int(f)},{cohort.end_reason_name(i)}"
                     for i, f in enumerate(fue.tolist())]),
        outcome,
    ]
    if cohort.schema.names:
        columns.append(per_subject(
            [",".join(map(repr, row)) for row in cohort.baseline.tolist()]))
    header = COHORT_FIXED_COLUMNS + [f"baseline_{n}" for n in cohort.schema.names]
    lines = chain([",".join(map(_csv_field, header))],
                  map(",".join, zip(*columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _parse(cells, convert, dtype):
    """``convert`` over a list of cells: the values (0 where a cell fails)
    and ``{index: message}`` of the failing cells, including integers beyond
    64 bits."""
    try:
        return np.fromiter(map(convert, cells), dtype, len(cells)), {}
    except (ValueError, OverflowError):
        pass
    values, errors = np.zeros(len(cells), dtype), {}
    for i, cell in enumerate(cells):
        try:
            values[i] = convert(cell)
        except ValueError as err:
            errors[i] = str(err)
        except OverflowError:
            errors[i] = f"integer out of range: {cell!r}"
    return values, errors


def _raise_violations(path, found):
    """Raise the first ``MAX_VIOLATIONS`` of ``(line, check, message)``
    triples, ordered by line and then check, if there are any."""
    items = [(line, msg) for line, _, msg in sorted(found)[:MAX_VIOLATIONS]]
    if items:
        listing = "; ".join(f"line {ln}: {msg}" for ln, msg in items)
        raise IngestError(
            f"{path}: {len(items)} violation(s) (first {MAX_VIOLATIONS} "
            f"listed): {listing}",
            violations=items,
        )


def ingest_cohort(path, schema=None, horizon=None):
    """Parse and validate a cohort CSV.

    Rows may come in any order. Subjects are numbered by their first row in
    the file (a row with the wrong field count or a malformed numeric field
    does not count), and each subject's rows are sorted by month. Only the
    measurements are read: :class:`Cohort` derives the carried-forward
    marker, months since the last visit and visit count. Baseline columns
    follow the declared ``schema``; without one, every ``baseline_*``
    column is treated as continuous. ``horizon`` defaults to the largest
    followup_end present.

    A file that cannot be read (a directory, or bytes that are not text in
    the locale's encoding) raises :class:`IngestError`, "cannot read cohort
    file". Violations raise :class:`IngestError` with line numbers, which
    count CSV rows from the header as line 1. Row checks run first: if any
    row fails, the error lists the first 20 violations by line and, within a
    line, in the order of the checks. Only then run the subject checks, the
    validity rules of :func:`rcds.cohort.subject_violations` (baseline values
    included), and they run once: the :class:`Cohort` runs them as it is
    built, and only a refused cohort has them run again on the row blocks as
    read, to list one violation per subject at its first line, for the first
    20 failing subjects.
    """
    path = Path(path)
    widths = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IngestError(f"{path}: empty file") from None
            # one flat list of fields: each row list dies at once, so the
            # cyclic GC never walks hundreds of thousands of live rows
            fields = list(chain.from_iterable(
                widths.append(len(row)) or row for row in reader))
    except (OSError, UnicodeDecodeError) as err:
        raise IngestError(f"{path}: cannot read cohort file: "
                          f"{getattr(err, 'strerror', None) or err}") from None

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

    # row checks, in the order a row meets them; a row failing a check
    # marked "skip" meets no later check and is not stored
    found, position = [], count()

    def add(mask, template, *args):
        k = next(position)
        found.extend((line, k, template.format(*xs)) for line, *xs in zip(
            lines[mask].tolist(), *(a[mask].tolist() for a in args)))

    ncol = len(header)
    widths = np.array(widths, dtype=np.int64)
    lines = np.arange(widths.size) + 2
    fit = widths == ncol
    add(~fit, f"expected {ncol} fields, got {{}}", widths)  # skip
    cells = np.array(fields, dtype=object)[
        (np.cumsum(widths) - widths)[fit, None] + np.arange(ncol)]
    del fields
    lines = lines[fit]

    parsed = [_parse(cells[:, j].tolist(), convert, dtype) for j, convert, dtype
              in ((1, int, np.int64), (2, int, np.int64),
                  (3, lambda c: float(c) if c != "" else np.nan, np.float64),
                  (4, int, np.int64), (5, int, np.int64))]
    t, monitor, obs, override, fue = (values for values, _ in parsed)
    message = np.full(lines.size, None, dtype=object)
    for _, errors in reversed(parsed):  # the first failing field's message
        message[list(errors)] = list(errors.values())
    malformed = np.not_equal(message, None)
    add(malformed, "malformed numeric field: {}", message)  # skip
    if malformed.any():
        cells, lines, t, monitor, obs, override, fue = (
            a[~malformed] for a in (cells, lines, t, monitor, obs, override,
                                    fue))

    sids = cells[:, 0].tolist()
    ids = list(dict.fromkeys(sids))
    code = np.fromiter(map(dict(zip(ids, range(len(ids)))).__getitem__, sids),
                       np.int64, len(sids))
    first = np.unique(code, return_index=True)[1]  # each subject's first row
    reason = cells[:, 6]
    reason_code = np.fromiter(
        map(_REASON_CODE.get, reason, repeat(-1)), np.int64, len(reason))
    binary_monitor = (monitor == 0) | (monitor == 1)
    binary_override = (override == 0) | (override == 1)
    known_reason = reason_code >= 0

    # a repeated (subject, t) is a duplicate once an earlier row of it got
    # past the monitor, override and end_reason checks and was stored
    order = np.lexsort((t, code))  # stable: file order within a month
    stored = (binary_monitor & binary_override & known_reason)[order]
    before = np.cumsum(stored) - stored
    sorted_code, sorted_t = code[order], t[order]
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = ((sorted_code[1:] != sorted_code[:-1])
                  | (sorted_t[1:] != sorted_t[:-1]))
    dup = np.empty(order.size, dtype=bool)
    dup[order] = before > before[starts][np.cumsum(starts) - 1]

    sid = cells[:, 0]
    add(dup, "duplicated (subject, t) = ({}, {})", sid, t)  # skip
    live = ~dup
    add(live & (fue != fue[first][code]),
        "followup_end changes within subject {}", sid)
    add(live & (reason != reason[first][code]),
        "end_reason changes within subject {}", sid)
    add(live & (cells[:, 8:] != cells[first[code], 8:]).any(axis=1),
        "baseline values change within subject {}", sid)
    add(live & ~binary_monitor, "monitor must be 0 or 1")  # skip
    live &= binary_monitor
    add(live & ~binary_override, "override_flag must be 0 or 1")  # skip
    live &= binary_override
    measured = ~np.isnan(obs)
    add(live & (monitor == 1) & ~measured,
        "monitored month lacks an observed_marker")
    add(live & (monitor == 0) & measured,
        "observed_marker present on an unmonitored month")
    add(live & np.isinf(obs), "observed_marker must be finite, got {!r}", obs)
    add(live & ~known_reason, "unknown end_reason {!r}", reason)  # skip
    live &= known_reason
    y_raw = cells[:, 7]
    has_y = live & (y_raw != "")
    add(has_y & (t != fue), "outcome_y populated before the last row")
    add(has_y & (y_raw != "0") & (y_raw != "1"),
        "outcome_y must be 0 or 1, got {!r}", y_raw)
    _raise_violations(path, found)

    # subject checks, once every row passed the row checks and was stored: a
    # subject is reported at its first line with its first failing rule
    if not ids:
        raise IngestError(f"{path}: no data rows")
    n = len(ids)
    base = np.empty((n, len(base_cols)))
    for j in range(len(base_cols)):
        base[:, j], errors = _parse(cells[first, 8 + j].tolist(), float,
                                    np.float64)
        base[list(errors), j] = np.nan  # a value that did not parse is invalid
    outcome_y = np.full(n, np.nan)
    outcome_y[code[has_y]] = (y_raw[has_y] == "1").astype(np.float64)
    fue = fue[first]
    t, monitor, obs, override = (a[order] for a in (t, monitor, obs, override))
    measurements = dict(
        subject_ids=ids, baseline=base, schema=schema,
        horizon=int(fue.max()) if horizon is None else int(horizon),
        followup_end=fue, end_reason=reason_code[first], outcome_y=outcome_y,
        t=t, monitor=monitor, observed_marker=obs, override_flag=override)
    # row blocks as read that differ from the Cohort's followup_end blocks
    # always fail it, by the row total or by a month out of order
    try:
        return Cohort(**measurements)
    except ConfigError as err:
        offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(code, minlength=n))])
        found = subject_violations(SimpleNamespace(**measurements), offsets,
                                   MAX_VIOLATIONS)
        _raise_violations(path, [(int(lines[first[i]]), 0, message)
                                 for i, message in found])
        raise IngestError(f"{path}: {err}") from None


def write_csv(path, header, rows):
    """Write ``header`` and then each of ``rows`` with one ``csv.writer``,
    which writes None as an empty field and a float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def report_to_csv(table, path, selection=None):
    """Table-style report, rows ordered by descending threshold."""
    feasible = [""] * table.xs.size
    if selection is not None:
        fset = set(float(v) for v in selection.feasible_x)
        feasible = [1 if float(x) in fset else 0 for x in table.xs]
    columns = (table.xs, table.risk, table.risk_lo, table.risk_hi,
               table.usage, table.usage_lo, table.usage_hi)
    write_csv(path, ["x", "risk", "risk_lo", "risk_hi", "usage", "usage_lo",
                     "usage_hi", "feasible"],
              ([_fmt(float(c[i])) for c in columns] + [feasible[i]]
               for i in np.argsort(-table.xs)))


def truth_to_csv(truth, path):
    columns = (truth.xs, truth.risk, truth.risk_mcse, truth.usage,
               truth.usage_mcse)
    write_csv(path, ["x", "risk_true", "risk_mcse", "usage_true",
                     "usage_mcse"],
              ([_fmt(float(c[i])) for c in columns]
               for i in range(truth.xs.size)))


def load_config(path):
    """The mapping in a YAML config file, whose values :mod:`rcds.cli` reads."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config: "
                          f"{getattr(err, 'strerror', None) or err}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: config is not valid YAML: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return raw


def dump_yaml(data, path):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=True, default_flow_style=False)
