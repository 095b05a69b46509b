"""Cohort CSV ingest: the error contract on malformed files, a row-loop
reference on random corruptions, and the CSV round trip; and the exact text
of the report and truth CSVs.

The golden table below was captured from the row-by-row ingest that the
columnar one replaced; ``reference_ingest`` is that loop, kept as the
reference the property tests compare against. ``reference_cohort_to_csv`` is
likewise the row-by-row writer that the column-wise one replaced.
"""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcds.cohort
import rcds.io
from rcds import (
    Cohort,
    DgpParams,
    DoseResponseTable,
    IngestError,
    TruthTable,
    select,
    simulate_cohort,
)
from rcds.cohort import (
    CONTINUOUS,
    END_REASONS,
    BaselineField,
    BaselineSchema,
    _REASON_CODE,
)
from rcds.errors import ConfigError
from rcds.io import (
    COHORT_FIXED_COLUMNS,
    cohort_to_csv,
    ingest_cohort,
    report_to_csv,
    truth_to_csv,
    write_csv,
)

from conftest import FIXTURE_K, FIXTURE_SCHEMA, _rows, make_fixture_records
from reference import SubjectRecord, from_records

MAX_VIOLATIONS = 20


# ----------------------------------------------------------------------
# the row-loop reference
# ----------------------------------------------------------------------
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


def reference_ingest(path, schema=None, horizon=None):
    """The row-by-row ingest, plus the finite-marker and baseline-value
    rules (marked below)."""
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
        # the finite-marker rule, added after the loop was replaced
        if np.isinf(obs):
            viol.add(line, f"observed_marker must be finite, got {obs!r}")
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

    ids, base, fue_arr, reason_arr, y_arr = [], [], [], [], []
    t_flat, mon_flat, obs_flat, ovr_flat = [], [], [], []
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
            bvals = [np.nan] * len(rec["base"])
        # the baseline-value rule, added after the loop was replaced
        if not all(np.isfinite(v) and (f.kind == CONTINUOUS or (
                v == round(v) and 0 <= v < len(f.levels)))
                for f, v in zip(schema.fields, bvals)):
            viol.add(line, f"subject {sid}: malformed baseline value")
            continue
        ids.append(sid)
        base.append(bvals)
        fue_arr.append(fue)
        reason_arr.append(_REASON_CODE[rec["reason"]])
        y_arr.append(np.nan if rec["y"] is None else rec["y"])
        for t in range(fue + 1):
            monitor, obs, override = rec["rows"][t]
            t_flat.append(t)
            mon_flat.append(monitor)
            obs_flat.append(obs)
            ovr_flat.append(override)
    viol.raise_if_any(path)

    try:
        return Cohort(
            subject_ids=ids, baseline=np.array(base, dtype=np.float64),
            schema=schema, horizon=K, followup_end=fue_arr,
            end_reason=reason_arr, outcome_y=y_arr, t=t_flat,
            monitor=mon_flat, observed_marker=obs_flat,
            override_flag=ovr_flat,
        )
    except ConfigError as err:
        raise IngestError(f"{path}: {err}") from err


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
COHORT_ARRAYS = ("baseline", "followup_end", "end_reason", "outcome_y",
                 "d_total", "t", "monitor", "observed_marker",
                 "last_observed_marker", "months_since", "override_flag",
                 "offsets")


def assert_same_cohort(a, b):
    """Bit-identical: values, dtypes and shapes of every array, ids, schema
    and horizon."""
    assert a.subject_ids == b.subject_ids
    assert a.schema == b.schema
    assert a.horizon == b.horizon
    for name in COHORT_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    return table[0], table[1:]


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    """The fixture cohort's CSV: s1 on lines 2-14 (t = 0..12), s2 on lines
    15-27 and s3 (followup_end 11) on lines 28-39."""
    cohort = from_records(make_fixture_records(), FIXTURE_SCHEMA, FIXTURE_K)
    path = tmp_path_factory.mktemp("fixture") / "fixture.csv"
    cohort_to_csv(cohort, path)
    return read_rows(path)


# ----------------------------------------------------------------------
# the golden table
# ----------------------------------------------------------------------
COLUMNS = COHORT_FIXED_COLUMNS + ["baseline_sex", "baseline_age"]


def setting(*cells):
    """Edit: set each ``(line, column, value)`` cell."""
    def edit(rows):
        for line, col, value in cells:
            rows[line - 2][COLUMNS.index(col)] = value
        return rows
    return edit


def dropping(*lines):
    return lambda rows: [r for i, r in enumerate(rows) if i + 2 not in lines]


def then(*edits):
    def edit(rows):
        for e in edits:
            rows = e(rows)
        return rows
    return edit


def s3_row(t, **cells):
    row = ["s3", str(t), "0", "", "1", "11", "lost", "", "0.0", "52.0"]
    for col, value in cells.items():
        row[COLUMNS.index(col)] = value
    return row


# name: (edit of the data rows, ingest keywords)
CASES = {
    "wrong_field_count": (
        lambda rows: rows[:3] + [rows[3][:-1]] + rows[4:7] + [rows[7] + ["x"]]
        + rows[8:], {}),
    "malformed_numeric_field": (
        setting((4, "t", "x"), (8, "monitor", "1.0"),
                (11, "observed_marker", "9 5"), (12, "override_flag", ""),
                (13, "followup_end", "12.0")), {}),
    "duplicated_subject_month": (
        lambda rows: rows[:15] + [list(rows[14])] + rows[15:] + [list(rows[0])],
        {}),
    "duplicate_of_a_rejected_row": (
        lambda rows: ([rows[0], rows[1][:2] + ["2"] + rows[1][3:]] + rows[2:]
                      + [list(rows[1]), list(rows[1])]), {}),
    "followup_end_changes": (setting((20, "followup_end", "13")), {}),
    "end_reason_changes": (setting((30, "end_reason", "death")), {}),
    "baseline_changes_as_text": (
        setting((10, "baseline_age", "41"), (22, "baseline_sex", "1")), {}),
    "monitor_not_binary": (
        setting((3, "monitor", "2"), (4, "monitor", "-1")), {}),
    "override_not_binary": (setting((5, "override_flag", "2")), {}),
    "monitored_month_lacks_marker": (
        setting((5, "observed_marker", ""), (8, "observed_marker", "nan")), {}),
    "marker_on_unmonitored_month": (
        setting((3, "observed_marker", "120.0")), {}),
    "unknown_end_reason": (
        setting(*[(line, "end_reason", "moved") for line in range(28, 40)],
                (16, "end_reason", "moved")), {}),
    "outcome_before_last_row": (setting((2, "outcome_y", "1")), {}),
    "bad_outcome_value": (
        setting((14, "outcome_y", "2"), (27, "outcome_y", "1.0")), {}),
    "violation_cap": (
        setting(*[(line, "monitor", "7") for line in range(2, 31)]), {}),
    "several_checks_on_one_line": (
        setting((20, "followup_end", "13"), (20, "end_reason", "lost"),
                (20, "baseline_age", "30.0"), (20, "monitor", "3")), {}),
    "month_gap": (dropping(20), {}),
    "month_gaps_and_extras": (
        then(dropping(4, 5, 6, 7),
             lambda rows: rows + [s3_row(13), s3_row(12)]), {}),
    "unmonitored_baseline_month": (
        setting((28, "monitor", "0"), (28, "observed_marker", "")), {}),
    "outcome_with_early_followup_end": (setting((39, "outcome_y", "0")), {}),
    "malformed_baseline_value": (
        setting(*[(line, "baseline_age", "old") for line in range(15, 28)]),
        {"schema": FIXTURE_SCHEMA}),
    "horizon_below_followup_end": (lambda rows: rows, {"horizon": 11}),
    "categorical_code_outside_levels": (
        setting(*[(line, "baseline_sex", "2.0") for line in range(15, 28)]),
        {"schema": FIXTURE_SCHEMA}),
    "nan_baseline_value": (
        setting(*[(line, "baseline_age", "nan") for line in range(15, 28)]),
        {}),
    "inf_baseline_value": (
        setting(*[(line, "baseline_age", "inf") for line in range(15, 28)]),
        {}),
}

# captured from the row-loop ingest: (message after "<path>: ", .violations)
GOLDEN = {
    'wrong_field_count': (
        ('2 violation(s) (first 20 listed): line 5: expected 10 fields, got 9; '
         'line 9: expected 10 fields, got 11'),
        [(5, 'expected 10 fields, got 9'), (9, 'expected 10 fields, got 11')]),
    'malformed_numeric_field': (
        ('5 violation(s) (first 20 listed): line 4: malformed numeric field: '
         "invalid literal for int() with base 10: 'x'; line 8: malformed "
         "numeric field: invalid literal for int() with base 10: '1.0'; line "
         "11: malformed numeric field: could not convert string to float: '9 "
         "5'; line 12: malformed numeric field: invalid literal for int() with "
         "base 10: ''; line 13: malformed numeric field: invalid literal for "
         "int() with base 10: '12.0'"),
        [(4,
          'malformed numeric field: invalid literal for int() with base 10: '
          "'x'"),
         (8,
          'malformed numeric field: invalid literal for int() with base 10: '
          "'1.0'"),
         (11,
          "malformed numeric field: could not convert string to float: '9 5'"),
         (12,
          'malformed numeric field: invalid literal for int() with base 10: '
          "''"),
         (13,
          'malformed numeric field: invalid literal for int() with base 10: '
          "'12.0'")]),
    'duplicated_subject_month': (
        ('2 violation(s) (first 20 listed): line 17: duplicated (subject, t) = '
         '(s2, 1); line 41: duplicated (subject, t) = (s1, 0)'),
        [(17, 'duplicated (subject, t) = (s2, 1)'),
         (41, 'duplicated (subject, t) = (s1, 0)')]),
    'duplicate_of_a_rejected_row': (
        ('2 violation(s) (first 20 listed): line 3: monitor must be 0 or 1; '
         'line 41: duplicated (subject, t) = (s1, 1)'),
        [(3, 'monitor must be 0 or 1'),
         (41, 'duplicated (subject, t) = (s1, 1)')]),
    'followup_end_changes': (
        ('1 violation(s) (first 20 listed): line 20: followup_end changes '
         'within subject s2'),
        [(20, 'followup_end changes within subject s2')]),
    'end_reason_changes': (
        ('1 violation(s) (first 20 listed): line 30: end_reason changes within '
         'subject s3'),
        [(30, 'end_reason changes within subject s3')]),
    'baseline_changes_as_text': (
        ('2 violation(s) (first 20 listed): line 10: baseline values change '
         'within subject s1; line 22: baseline values change within subject s2'),
        [(10, 'baseline values change within subject s1'),
         (22, 'baseline values change within subject s2')]),
    'monitor_not_binary': (
        ('2 violation(s) (first 20 listed): line 3: monitor must be 0 or 1; '
         'line 4: monitor must be 0 or 1'),
        [(3, 'monitor must be 0 or 1'), (4, 'monitor must be 0 or 1')]),
    'override_not_binary': (
        '1 violation(s) (first 20 listed): line 5: override_flag must be 0 or 1',
        [(5, 'override_flag must be 0 or 1')]),
    'monitored_month_lacks_marker': (
        ('2 violation(s) (first 20 listed): line 5: monitored month lacks an '
         'observed_marker; line 8: monitored month lacks an observed_marker'),
        [(5, 'monitored month lacks an observed_marker'),
         (8, 'monitored month lacks an observed_marker')]),
    'marker_on_unmonitored_month': (
        ('1 violation(s) (first 20 listed): line 3: observed_marker present on '
         'an unmonitored month'),
        [(3, 'observed_marker present on an unmonitored month')]),
    'unknown_end_reason': (
        ('14 violation(s) (first 20 listed): line 16: end_reason changes '
         "within subject s2; line 16: unknown end_reason 'moved'; line 28: "
         "unknown end_reason 'moved'; line 29: unknown end_reason 'moved'; "
         "line 30: unknown end_reason 'moved'; line 31: unknown end_reason "
         "'moved'; line 32: unknown end_reason 'moved'; line 33: unknown "
         "end_reason 'moved'; line 34: unknown end_reason 'moved'; line 35: "
         "unknown end_reason 'moved'; line 36: unknown end_reason 'moved'; "
         "line 37: unknown end_reason 'moved'; line 38: unknown end_reason "
         "'moved'; line 39: unknown end_reason 'moved'"),
        [(16, 'end_reason changes within subject s2'),
         (16, "unknown end_reason 'moved'"),
         (28, "unknown end_reason 'moved'"),
         (29, "unknown end_reason 'moved'"),
         (30, "unknown end_reason 'moved'"),
         (31, "unknown end_reason 'moved'"),
         (32, "unknown end_reason 'moved'"),
         (33, "unknown end_reason 'moved'"),
         (34, "unknown end_reason 'moved'"),
         (35, "unknown end_reason 'moved'"),
         (36, "unknown end_reason 'moved'"),
         (37, "unknown end_reason 'moved'"),
         (38, "unknown end_reason 'moved'"),
         (39, "unknown end_reason 'moved'")]),
    'outcome_before_last_row': (
        ('1 violation(s) (first 20 listed): line 2: outcome_y populated before '
         'the last row'),
        [(2, 'outcome_y populated before the last row')]),
    'bad_outcome_value': (
        ('2 violation(s) (first 20 listed): line 14: outcome_y must be 0 or 1, '
         "got '2'; line 27: outcome_y must be 0 or 1, got '1.0'"),
        [(14, "outcome_y must be 0 or 1, got '2'"),
         (27, "outcome_y must be 0 or 1, got '1.0'")]),
    'violation_cap': (
        ('20 violation(s) (first 20 listed): line 2: monitor must be 0 or 1; '
         'line 3: monitor must be 0 or 1; line 4: monitor must be 0 or 1; line '
         '5: monitor must be 0 or 1; line 6: monitor must be 0 or 1; line 7: '
         'monitor must be 0 or 1; line 8: monitor must be 0 or 1; line 9: '
         'monitor must be 0 or 1; line 10: monitor must be 0 or 1; line 11: '
         'monitor must be 0 or 1; line 12: monitor must be 0 or 1; line 13: '
         'monitor must be 0 or 1; line 14: monitor must be 0 or 1; line 15: '
         'monitor must be 0 or 1; line 16: monitor must be 0 or 1; line 17: '
         'monitor must be 0 or 1; line 18: monitor must be 0 or 1; line 19: '
         'monitor must be 0 or 1; line 20: monitor must be 0 or 1; line 21: '
         'monitor must be 0 or 1'),
        [(2, 'monitor must be 0 or 1'),
         (3, 'monitor must be 0 or 1'),
         (4, 'monitor must be 0 or 1'),
         (5, 'monitor must be 0 or 1'),
         (6, 'monitor must be 0 or 1'),
         (7, 'monitor must be 0 or 1'),
         (8, 'monitor must be 0 or 1'),
         (9, 'monitor must be 0 or 1'),
         (10, 'monitor must be 0 or 1'),
         (11, 'monitor must be 0 or 1'),
         (12, 'monitor must be 0 or 1'),
         (13, 'monitor must be 0 or 1'),
         (14, 'monitor must be 0 or 1'),
         (15, 'monitor must be 0 or 1'),
         (16, 'monitor must be 0 or 1'),
         (17, 'monitor must be 0 or 1'),
         (18, 'monitor must be 0 or 1'),
         (19, 'monitor must be 0 or 1'),
         (20, 'monitor must be 0 or 1'),
         (21, 'monitor must be 0 or 1')]),
    'several_checks_on_one_line': (
        ('4 violation(s) (first 20 listed): line 20: followup_end changes '
         'within subject s2; line 20: end_reason changes within subject s2; '
         'line 20: baseline values change within subject s2; line 20: monitor '
         'must be 0 or 1'),
        [(20, 'followup_end changes within subject s2'),
         (20, 'end_reason changes within subject s2'),
         (20, 'baseline values change within subject s2'),
         (20, 'monitor must be 0 or 1')]),
    'month_gap': (
        ('1 violation(s) (first 20 listed): line 15: subject s2: month '
         'gap/extras (missing [5], extra [])'),
        [(15, 'subject s2: month gap/extras (missing [5], extra [])')]),
    'month_gaps_and_extras': (
        ('2 violation(s) (first 20 listed): line 2: subject s1: month '
         'gap/extras (missing [2, 3, 4], extra []); line 24: subject s3: month '
         'gap/extras (missing [], extra [12, 13])'),
        [(2, 'subject s1: month gap/extras (missing [2, 3, 4], extra [])'),
         (24, 'subject s3: month gap/extras (missing [], extra [12, 13])')]),
    'unmonitored_baseline_month': (
        ('1 violation(s) (first 20 listed): line 28: subject s3: baseline '
         'month must be monitored'),
        [(28, 'subject s3: baseline month must be monitored')]),
    'outcome_with_early_followup_end': (
        ('1 violation(s) (first 20 listed): line 28: subject s3: outcome '
         'recorded but follow-up ended at 11 < horizon 12'),
        [(28,
          'subject s3: outcome recorded but follow-up ended at 11 < horizon '
          '12')]),
    'malformed_baseline_value': (
        ('1 violation(s) (first 20 listed): line 15: subject s2: malformed '
         'baseline value'),
        [(15, 'subject s2: malformed baseline value')]),
    'horizon_below_followup_end': (
        ('2 violation(s) (first 20 listed): line 2: followup_end 12 outside '
         '[0, 11]; line 15: followup_end 12 outside [0, 11]'),
        [(2, 'followup_end 12 outside [0, 11]'),
         (15, 'followup_end 12 outside [0, 11]')]),
    'categorical_code_outside_levels': (
        ('1 violation(s) (first 20 listed): line 15: subject s2: malformed '
         'baseline value'),
        [(15, 'subject s2: malformed baseline value')]),
    'nan_baseline_value': (
        ('1 violation(s) (first 20 listed): line 15: subject s2: malformed '
         'baseline value'),
        [(15, 'subject s2: malformed baseline value')]),
    'inf_baseline_value': (
        ('1 violation(s) (first 20 listed): line 15: subject s2: malformed '
         'baseline value'),
        [(15, 'subject s2: malformed baseline value')]),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


def ingest_outcome(ingest, path, **kwargs):
    """The cohort ``ingest`` returns, or the IngestError it raises."""
    try:
        return ingest(path, **kwargs)
    except IngestError as err:
        return err


def assert_same_outcome(got, want):
    if isinstance(want, IngestError):
        assert isinstance(got, IngestError), "accepted a file the loop rejects"
        assert str(got) == str(want)
        assert got.violations == want.violations
    else:
        assert not isinstance(got, IngestError), str(got)
        assert_same_cohort(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_violations(workdir, fixture_csv, name):
    header, rows = fixture_csv
    edit, kwargs = CASES[name]
    path = write_rows(workdir / f"{name}.csv", header,
                      edit([list(r) for r in rows]))
    message, violations = GOLDEN[name]
    with pytest.raises(IngestError) as info:
        ingest_cohort(path, **kwargs)
    assert str(info.value) == f"{path}: {message}"
    assert info.value.violations == violations


SMALL_CHUNK = 37  # bytes: block edges fall mid-row and mid-subject


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_violations_in_small_chunks(workdir, fixture_csv, monkeypatch,
                                           name):
    monkeypatch.setattr(rcds.io, "CHUNK_BYTES", SMALL_CHUNK)
    test_golden_violations(workdir, fixture_csv, name)


def test_file_level_errors(workdir, fixture_csv):
    header, rows = fixture_csv
    empty = workdir / "empty.csv"
    empty.write_text("")
    with pytest.raises(IngestError, match="empty file$"):
        ingest_cohort(empty)
    swapped = write_rows(workdir / "swapped.csv",
                         [header[1], header[0]] + header[2:], rows)
    with pytest.raises(IngestError) as info:
        ingest_cohort(swapped)
    assert str(info.value) == (
        f"{swapped}: header must start with {COHORT_FIXED_COLUMNS}, got "
        f"{[header[1], header[0]] + header[2:8]}")
    trailing = write_rows(workdir / "trailing.csv", header + ["note"],
                          [r + [""] for r in rows])
    with pytest.raises(IngestError) as info:
        ingest_cohort(trailing)
    assert str(info.value) == f"{trailing}: trailing columns must be baseline_*"
    schema = BaselineSchema(fields=(BaselineField("age", CONTINUOUS),))
    full = write_rows(workdir / "full.csv", header, rows)
    with pytest.raises(IngestError) as info:
        ingest_cohort(full, schema=schema)
    assert str(info.value) == (
        f"{full}: baseline columns ['sex', 'age'] do not match the declared "
        "schema ['age']")
    header_only = write_rows(workdir / "header_only.csv", header, [])
    with pytest.raises(IngestError) as info:
        ingest_cohort(header_only)
    assert str(info.value) == f"{header_only}: no data rows"
    assert info.value.violations == []
    # a file the program cannot read is an ingest error, not a fault
    with pytest.raises(IngestError) as info:
        ingest_cohort(workdir)
    assert str(info.value) == f"{workdir}: cannot read cohort file: " \
        "Is a directory"
    binary = workdir / "binary.csv"
    binary.write_bytes(full.read_bytes().replace(b"s1", b"s\xff"))
    with pytest.raises(IngestError) as info:
        ingest_cohort(binary)
    assert str(info.value).startswith(
        f"{binary}: cannot read cohort file: 'utf-8' codec can't decode")


def test_long_field_goes_to_the_line_numbered_reader(workdir, fixture_csv,
                                                     monkeypatch):
    # a field past FIELD_BYTES leaves the block read, whose byte gathers are
    # as wide as the longest field, so its memory stays linear
    header, rows = fixture_csv
    long_id = "s" * (rcds.io.FIELD_BYTES + 1)
    rows = [[long_id if c == "s3" else c for c in r] for r in rows]
    path = write_rows(workdir / "id_over_the_bound.csv", header, rows)
    assert rcds.io._ingest_plain(path, None, None) is None
    assert ingest_cohort(path).subject_ids == ["s1", "s2", long_id]
    rows = [[c.replace(long_id, long_id[1:]) for c in r] for r in rows]
    path = write_rows(workdir / "id_at_the_bound.csv", header, rows)
    monkeypatch.setattr(csv, "reader", None)  # the block read takes it
    assert ingest_cohort(path).subject_ids == ["s1", "s2", long_id[1:]]


def test_field_over_the_csv_limit(workdir, fixture_csv):
    # plain or quoted, the file goes to csv.reader, which refuses the field
    header, rows = fixture_csv
    long_id = "s" * (csv.field_size_limit() + 1)
    rows = [[long_id if c == "s3" else c for c in r] for r in rows]
    plain = write_rows(workdir / "long_id.csv", header, rows)
    quoted = workdir / "long_id_quoted.csv"
    with open(quoted, "w", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([header, *rows])
    for path in (plain, quoted):
        with pytest.raises(IngestError) as info:
            ingest_cohort(path)
        assert str(info.value) == (
            f"{path}: cannot read cohort file: field larger than field "
            f"limit ({csv.field_size_limit()})")


def test_valid_file_runs_the_subject_rules_once(workdir, fixture_csv,
                                                monkeypatch):
    header, rows = fixture_csv
    calls, rules = [], rcds.cohort.subject_violations

    def counted(*args, **kwargs):
        calls.append(None)
        return rules(*args, **kwargs)

    for module in (rcds.cohort, rcds.io):
        monkeypatch.setattr(module, "subject_violations", counted)
    ingest_cohort(write_rows(workdir / "valid.csv", header, rows))
    assert len(calls) == 1


def test_non_finite_marker_names_its_line(workdir, fixture_csv):
    header, rows = fixture_csv
    edit = setting((5, "observed_marker", "inf"), (3, "observed_marker", "-inf"))
    path = write_rows(workdir / "inf.csv", header, edit([list(r) for r in rows]))
    with pytest.raises(IngestError) as info:
        ingest_cohort(path)
    assert info.value.violations == [
        (3, "observed_marker present on an unmonitored month"),
        (3, "observed_marker must be finite, got -inf"),
        (5, "observed_marker must be finite, got inf"),
    ]


def test_integer_beyond_64_bits_is_malformed(workdir, fixture_csv):
    header, rows = fixture_csv
    huge = "9" * 20
    edit = setting((4, "t", huge), (6, "followup_end", "-" + huge))
    path = write_rows(workdir / "huge.csv", header,
                      edit([list(r) for r in rows]))
    with pytest.raises(IngestError) as info:
        ingest_cohort(path)
    assert info.value.violations == [
        (4, f"malformed numeric field: integer out of range: '{huge}'"),
        (6, f"malformed numeric field: integer out of range: '-{huge}'"),
    ]


def test_accepted_spellings(workdir, fixture_csv):
    header, rows = fixture_csv
    edit = setting((5, "t", "+3"), (2, "monitor", " 1"), (12, "t", "1_0"),
                   (15, "observed_marker", "250"))
    path = write_rows(workdir / "spellings.csv", header,
                      edit([list(r) for r in rows]))
    fixture = from_records(make_fixture_records(), FIXTURE_SCHEMA, FIXTURE_K)
    assert_same_cohort(ingest_cohort(path, schema=FIXTURE_SCHEMA), fixture)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
VALUES = {  # per column: valid spellings, near misses and garbage
    "subject_id": ("s1", "s2", "s3", "s4", ""),
    "t": ("0", "1", "11", "12", "13", "-1", "+3", "1_0", " 1", "1.5", "x"),
    "monitor": ("0", "1", "2", "-1", " 1", "1.0", ""),
    "observed_marker": ("", "nan", "inf", "-inf", "1e400", "100.0", "250", "x"),
    "override_flag": ("0", "1", "2", ""),
    "followup_end": ("0", "11", "12", "13", "-1", "x"),
    "end_reason": END_REASONS + ("moved", ""),
    "outcome_y": ("", "0", "1", "2", "1.0"),
    "baseline_sex": ("0.0", "1.0", "1", "2.0", "x"),
    "baseline_age": ("41", "41.0", "36.5", "nan", "inf", "x"),
}


@st.composite
def corruptions(draw):
    """One to three edits of the fixture rows: a cell set to one of its
    column's ``VALUES``, or a row dropped, copied, moved to the end, cut
    short or given an extra field."""
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("set", "set", "set", "drop", "copy",
                                     "move", "cut", "extend")))
        col = draw(st.integers(0, len(COLUMNS) - 1))
        ops.append((kind, draw(st.integers(0, 40)), col,
                    draw(st.sampled_from(VALUES[COLUMNS[col]]))))
    return ops


def corrupt(rows, ops):
    for kind, i, col, value in ops:
        i %= len(rows)
        row = list(rows[i])
        if kind == "set":
            rows[i] = row[:col] + [value] + row[col + 1:]
        elif kind == "drop":
            del rows[i]
        elif kind == "copy":
            rows.insert(i, row)
        elif kind == "move":
            rows.append(rows.pop(i))
        elif kind == "cut":
            rows[i] = row[:col]
        else:
            rows[i] = row + [value]
        if not rows:
            break
    return rows


def check_against_reference(workdir, fixture_csv, ops, schema, horizon):
    header, rows = fixture_csv
    path = write_rows(workdir / "corrupted.csv", header,
                      corrupt([list(r) for r in rows], ops))
    kwargs = {"schema": schema, "horizon": horizon}
    assert_same_outcome(ingest_outcome(ingest_cohort, path, **kwargs),
                        ingest_outcome(reference_ingest, path, **kwargs))


@settings(max_examples=500)
@given(corruptions(), st.sampled_from((None, FIXTURE_SCHEMA)),
       st.sampled_from((None, 11, 12, 13)))
def test_matches_row_loop_reference(workdir, fixture_csv, ops, schema,
                                    horizon):
    check_against_reference(workdir, fixture_csv, ops, schema, horizon)


@settings(max_examples=200)
@given(corruptions(), st.sampled_from((None, FIXTURE_SCHEMA)),
       st.sampled_from((None, 11, 12, 13)))
def test_matches_row_loop_reference_in_small_chunks(workdir, fixture_csv, ops,
                                                    schema, horizon):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rcds.io, "CHUNK_BYTES", SMALL_CHUNK)
        check_against_reference(workdir, fixture_csv, ops, schema, horizon)


@st.composite
def random_cohorts(draw):
    """Small cohorts with arbitrary finite markers and ages, ids that may
    need CSV quoting, every end reason, and outcomes that may be missing."""
    K = draw(st.integers(0, 6))
    # ids that need no quoting leave the file plain
    alphabet = draw(st.sampled_from(('ab1, "-', "ab1-")))
    ids = draw(st.lists(st.text(alphabet=alphabet, max_size=4), min_size=1,
                        max_size=5, unique=True))
    markers = st.floats(allow_nan=False, allow_infinity=False)
    records = []
    for sid in ids:
        end = draw(st.integers(0, K))
        spec = []
        for t in range(end + 1):
            visit = t == 0 or draw(st.booleans())
            spec.append((t, int(visit), draw(markers) if visit else np.nan,
                         draw(st.sampled_from((0, 1)))))
        records.append(SubjectRecord(
            subject_id=sid,
            baseline={"sex": draw(st.sampled_from((0.0, 1.0))),
                      "age": draw(st.floats(-1e3, 1e3))},
            rows=_rows(spec),
            outcome_y=(draw(st.sampled_from((0.0, 1.0, np.nan)))
                       if end == K else np.nan),
            followup_end=end,
            end_reason=draw(st.sampled_from(END_REASONS)), horizon=K))
    return records, K


@given(random_cohorts(), st.randoms(use_true_random=False))
def test_csv_round_trip(workdir, drawn, rnd):
    records, K = drawn
    cohort = from_records(records, FIXTURE_SCHEMA, K)
    path = workdir / "round_trip.csv"
    cohort_to_csv(cohort, path)
    assert_same_cohort(ingest_cohort(path, schema=FIXTURE_SCHEMA, horizon=K),
                       cohort)

    # any row order: subjects are numbered by first appearance
    header, rows = read_rows(path)
    rnd.shuffle(rows)
    write_rows(path, header, rows)
    by_id = {r.subject_id: r for r in records}
    first_seen = [by_id[sid] for sid in dict.fromkeys(r[0] for r in rows)]
    assert_same_cohort(ingest_cohort(path, schema=FIXTURE_SCHEMA, horizon=K),
                       from_records(first_seen, FIXTURE_SCHEMA, K))


# ----------------------------------------------------------------------
# the plain-file path
# ----------------------------------------------------------------------
def test_simulated_csv_takes_the_plain_path(tmp_path, monkeypatch):
    def no_reader(*args, **kwargs):
        pytest.fail("a plain file went to the line-numbered reader")

    cohort = simulate_cohort(DgpParams(), 40, seed=3)
    path = tmp_path / "cohort.csv"
    cohort_to_csv(cohort, path)
    monkeypatch.setattr(csv, "reader", no_reader)
    assert_same_cohort(ingest_cohort(path, schema=cohort.schema), cohort)
    monkeypatch.setattr(rcds.io, "CHUNK_BYTES", SMALL_CHUNK)
    assert_same_cohort(ingest_cohort(path, schema=cohort.schema), cohort)


def test_row_order_gives_the_same_cohort(tmp_path, monkeypatch):
    """Rows may come in any order. A file in (subject, month) order is taken
    as it is, with no sort; with each subject's months reversed it gives the
    bit-identical cohort through the sort. Whole files reversed number the
    subjects from the end, the same with months reversed or in order."""
    cohort = simulate_cohort(DgpParams(), 40, seed=3)
    path = tmp_path / "cohort.csv"
    cohort_to_csv(cohort, path)
    header, rows = read_rows(path)
    by_subject = [list(g) for _, g in itertools.groupby(rows, key=lambda r: r[0])]
    layouts = {
        "months_reversed": [r for g in by_subject for r in g[::-1]],
        "all_reversed": rows[::-1],
        "subjects_reversed": [r for g in by_subject[::-1] for r in g],
    }
    paths = {name: write_rows(tmp_path / f"{name}.csv", header, layout)
             for name, layout in layouts.items()}

    def no_reader(*args, **kwargs):
        pytest.fail("a plain file went to the line-numbered reader")

    def no_sort(*args, **kwargs):
        pytest.fail("rows in (subject, month) order were sorted")

    monkeypatch.setattr(csv, "reader", no_reader)
    for chunk in (rcds.io.CHUNK_BYTES, SMALL_CHUNK):
        monkeypatch.setattr(rcds.io, "CHUNK_BYTES", chunk)
        with monkeypatch.context() as m:
            m.setattr(np, "lexsort", no_sort)
            assert_same_cohort(ingest_cohort(path, schema=cohort.schema),
                               cohort)
            backwards = ingest_cohort(paths["subjects_reversed"],
                                      schema=cohort.schema)
        assert_same_cohort(ingest_cohort(paths["months_reversed"],
                                         schema=cohort.schema), cohort)
        assert_same_cohort(ingest_cohort(paths["all_reversed"],
                                         schema=cohort.schema), backwards)
    assert backwards.subject_ids == cohort.subject_ids[::-1]


def quote_every_field(text):
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL).writerows(
        csv.reader(text.splitlines()))
    return out.getvalue()


LAYOUTS = {  # name: (edit of the file's text, whether the file is plain)
    "crlf": (lambda text: text, True),
    "lf": (lambda text: text.replace("\r\n", "\n"), True),
    "no_final_newline": (lambda text: text.rstrip("\r\n"), True),
    "every_field_quoted": (quote_every_field, False),
    "non_ascii_id": (lambda text: text.replace("s2,", "s\u00b2,"), False),
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_layouts_give_the_same_cohort(workdir, name):
    records = make_fixture_records()
    edit, plain = LAYOUTS[name]
    if name == "non_ascii_id":
        records[1].subject_id = "s\u00b2"
    want = from_records(records, FIXTURE_SCHEMA, FIXTURE_K)
    path = workdir / f"{name}.csv"
    cohort_to_csv(from_records(make_fixture_records(), FIXTURE_SCHEMA,
                               FIXTURE_K), path)
    path.write_bytes(edit(path.read_bytes().decode()).encode())
    assert_same_cohort(ingest_cohort(path, schema=FIXTURE_SCHEMA), want)
    taken = rcds.io._ingest_plain(path, FIXTURE_SCHEMA, None)
    assert (taken is not None) == plain


# plain files whose rows the Cohort alone would take: the blocks must send
# each to the line-numbered reader, which refuses or accepts it by the text
PLAIN_EDITS = {
    "outcome_spelled_1.0": setting((14, "outcome_y", "1.0")),
    "outcome_spelled_01": setting((27, "outcome_y", "01")),
    "followup_end_spelled_012": setting((20, "followup_end", "012")),
    "baseline_spelled_41": setting((10, "baseline_age", "41")),
}


@pytest.mark.parametrize("name", sorted(PLAIN_EDITS))
def test_plain_edits_match_row_loop_reference(workdir, fixture_csv,
                                              monkeypatch, name):
    header, rows = fixture_csv
    path = write_rows(workdir / f"{name}.csv", header,
                      PLAIN_EDITS[name]([list(r) for r in rows]))
    for chunk in (rcds.io.CHUNK_BYTES, SMALL_CHUNK):
        monkeypatch.setattr(rcds.io, "CHUNK_BYTES", chunk)
        assert_same_outcome(ingest_outcome(ingest_cohort, path),
                            ingest_outcome(reference_ingest, path))


FLOAT_ALPHABET = "0123456789.e+-"


def plain_floats(texts):
    """``rcds.io._floats`` over one field per text."""
    data = "".join(texts).encode()
    length = np.array([len(t) for t in texts])
    b = np.frombuffer(data + bytes(int(length.max(initial=0))), np.uint8)
    return rcds.io._floats(b, np.cumsum(length) - length, length)


def python_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def test_float_parse_matches_python_on_short_texts():
    # every text of up to three bytes over the repr alphabet, one at a time:
    # the parse takes a text only if float does, and gives float's bits
    for size in range(1, 4):
        for chars in itertools.product(FLOAT_ALPHABET, repeat=size):
            text = "".join(chars)
            got, want = plain_floats([text]), python_float(text)
            if want is None:
                assert got is None, text
            elif got is not None:
                assert got.tobytes() == np.float64(want).tobytes(), text


@given(st.lists(st.text(alphabet=FLOAT_ALPHABET, min_size=1, max_size=24),
                min_size=1, max_size=4))
def test_float_parse_matches_python(texts):
    got, want = plain_floats(texts), [python_float(t) for t in texts]
    if None in want:
        assert got is None
    elif got is not None:
        assert got.tobytes() == np.array(want, np.float64).tobytes()


def reference_cohort_to_csv(cohort, path):
    """The row-by-row writer: a ``csv.writer`` row per subject-month."""
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


@given(random_cohorts())
def test_writer_matches_row_writer(workdir, drawn):
    records, K = drawn
    cohort = from_records(records, FIXTURE_SCHEMA, K)
    got, want = workdir / "columns.csv", workdir / "rows.csv"
    cohort_to_csv(cohort, got)
    reference_cohort_to_csv(cohort, want)
    assert got.read_bytes() == want.read_bytes()


def test_writer_matches_row_writer_without_baseline(workdir):
    records = make_fixture_records()
    for r in records:
        r.baseline.clear()
    cohort = from_records(records, BaselineSchema(fields=()), FIXTURE_K)
    got, want = workdir / "columns.csv", workdir / "rows.csv"
    cohort_to_csv(cohort, got)
    reference_cohort_to_csv(cohort, want)
    assert got.read_bytes() == want.read_bytes()


# ----------------------------------------------------------------------
# report and truth writers
# ----------------------------------------------------------------------
def test_write_csv_cells(tmp_path):
    # frontier.csv and coverage.csv rely on these conversions
    write_csv(tmp_path / "t.csv", ["a", "b", "c"],
              [[0.1, None, float("nan")], [1, "x,y", 2.5]])
    assert (tmp_path / "t.csv").read_bytes().decode() == (
        "a,b,c\r\n0.1,,nan\r\n1,\"x,y\",2.5\r\n")


def point_table():
    xs = np.array([200.0, 300.0])
    return DoseResponseTable.point_only(xs, np.array([0.05, 0.1]),
                                        np.array([5.5, 3.25]),
                                        np.array([10, 10]))


def test_report_without_selection_leaves_feasible_and_intervals_blank(
        tmp_path):
    report_to_csv(point_table(), tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes().decode() == (
        "x,risk,risk_lo,risk_hi,usage,usage_lo,usage_hi,feasible,risk_se,"
        "usage_se,n_atrisk\r\n"
        "300.0,0.1,,,3.25,,,,,,10\r\n"
        "200.0,0.05,,,5.5,,,,,,10\r\n")


def test_report_marks_feasible_thresholds(tmp_path):
    t = point_table()
    t.risk_lo = np.array([0.04, np.nan])
    report_to_csv(t, tmp_path / "report.csv", selection=select(t, 4.0))
    assert (tmp_path / "report.csv").read_bytes().decode() == (
        "x,risk,risk_lo,risk_hi,usage,usage_lo,usage_hi,feasible,risk_se,"
        "usage_se,n_atrisk\r\n"
        "300.0,0.1,,,3.25,,,1,,,10\r\n"
        "200.0,0.05,0.04,,5.5,,,0,,,10\r\n")


def test_report_writes_bootstrap_standard_errors(tmp_path):
    t = point_table()
    t.risk_se, t.usage_se = np.array([0.01, 0.02]), np.array([0.25, 0.0])
    t.n_atrisk = np.array([7, 12])
    report_to_csv(t, tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes().decode().splitlines()[1:] \
        == ["300.0,0.1,,,3.25,,,,0.02,0.0,12", "200.0,0.05,,,5.5,,,,0.01,0.25,7"]


def test_truth_keeps_header_and_formatting(tmp_path):
    truth = TruthTable(xs=np.array([200.0, 250.0]),
                       risk=np.array([0.1, 1 / 3]),
                       risk_mcse=np.array([0.001, np.nan]),
                       usage=np.array([4.0, 3.5]),
                       usage_mcse=np.array([0.01, 0.02]),
                       n_mc=100)
    truth_to_csv(truth, tmp_path / "truth.csv")
    assert (tmp_path / "truth.csv").read_bytes().decode() == (
        "x,risk_true,risk_mcse,usage_true,usage_mcse\r\n"
        "200.0,0.1,0.001,4.0,0.01\r\n"
        "250.0,0.3333333333333333,,3.5,0.02\r\n")
