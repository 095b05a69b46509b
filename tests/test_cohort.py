"""Cohort container invariants, record round-trips and the carry-forward
rule.

``reference_validate`` is the per-subject loop the columnar
:meth:`Cohort.validate` replaced, kept as the reference it must match; the
carried-forward columns a cohort derives are checked against the
month-by-month walk of ``reference.carried_columns``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rcds import (
    Cohort,
    ConfigError,
    DgpParams,
    ThresholdStrategy,
    simulate_cohort,
)
from rcds.cohort import CATEGORICAL, END_REASONS, baseline_design
from rcds.io import cohort_to_csv, ingest_cohort

from conftest import FIXTURE_K, FIXTURE_SCHEMA, make_fixture_records
from reference import SubjectRecord, TimeRow, from_records, records


def test_from_records_roundtrip(fixture_cohort, fixture_records):
    got = records(fixture_cohort)
    for a, b in zip(got, fixture_records):
        assert a.subject_id == b.subject_id
        assert a.followup_end == b.followup_end
        assert a.end_reason == b.end_reason
        assert (np.isnan(a.outcome_y) and np.isnan(b.outcome_y)) or \
            a.outcome_y == b.outcome_y
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.t == rb.t and ra.monitor == rb.monitor
            assert np.array_equal(ra.observed_marker, rb.observed_marker,
                                  equal_nan=True)
            assert ra.override_flag == rb.override_flag


def test_outcome_requires_full_followup(fixture_records):
    bad = make_fixture_records()
    bad[2].outcome_y = 1.0  # s3 left at month 11
    with pytest.raises(ConfigError, match="^subject s3: outcome recorded but "
                                          "follow-up ended at 11 < horizon 12$"):
        from_records(bad, FIXTURE_SCHEMA, FIXTURE_K)


def test_baseline_month_must_be_monitored():
    rows = [TimeRow(0, 0, float("nan"), 0)]
    rec = SubjectRecord("bad", {"sex": 0.0, "age": 30.0}, rows, float("nan"),
                        0, "lost", FIXTURE_K)
    with pytest.raises(ConfigError, match="baseline month"):
        from_records([rec], FIXTURE_SCHEMA, FIXTURE_K)


def test_prev_state_alignment(fixture_cohort):
    prev_last, prev_ovr, gap = fixture_cohort.prev_state()
    # s3: decision at month 8 is governed by month 7's state: marker 400,
    # no override, gap 8
    i3 = fixture_cohort.offsets[2]
    assert prev_last[i3 + 8] == 400.0
    assert prev_ovr[i3 + 8] == 0
    assert gap[i3 + 8] == 8
    # and month 9's decision sees the override raised at month 8
    assert prev_ovr[i3 + 9] == 1
    assert prev_last[i3 + 9] == 180.0


def test_baseline_design_layout(fixture_cohort):
    X, names = baseline_design(fixture_cohort, "all")
    assert names == ["sex=male", "age"]
    assert np.array_equal(X[:, 0], [0.0, 1.0, 0.0])
    assert np.array_equal(X[:, 1], [41.0, 36.5, 52.0])
    X2, names2 = baseline_design(fixture_cohort, ["age"])
    assert names2 == ["age"]
    with pytest.raises(ConfigError):
        baseline_design(fixture_cohort, ["nope"])


# ----------------------------------------------------------------------
# the carry-forward rule
# ----------------------------------------------------------------------
def assert_carried_forward(cohort):
    """The derived columns equal the month-by-month walk, bit for bit."""
    want = reference.carried_columns(cohort)
    got = (cohort.last_observed_marker, cohort.months_since, cohort.d_total)
    for name, g, w in zip(("last_observed_marker", "months_since", "d_total"),
                          got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), name


def test_fixture_history_is_carried_forward(fixture_cohort):
    assert_carried_forward(fixture_cohort)
    c = fixture_cohort
    assert c.d_total.tolist() == [5, 3, 3]
    # s2: visits at 0, 9 and 11
    s2 = slice(c.offsets[1], c.offsets[2])
    assert c.months_since[s2].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1,
                                           0, 1]
    assert c.last_observed_marker[s2].tolist() == [250.0] * 9 + [240.0] * 2 \
        + [238.0] * 2


def test_ingest_round_trip_is_carried_forward(fixture_cohort, tmp_path):
    path = tmp_path / "cohort.csv"
    cohort_to_csv(fixture_cohort, path)
    back = ingest_cohort(path, schema=FIXTURE_SCHEMA, horizon=FIXTURE_K)
    assert_carried_forward(back)
    for name in ("last_observed_marker", "months_since", "d_total"):
        assert np.array_equal(getattr(back, name),
                              getattr(fixture_cohort, name)), name


@pytest.mark.parametrize("seed", [1, 2])
def test_simulated_history_is_carried_forward(seed):
    assert_carried_forward(simulate_cohort(DgpParams(), 400, seed=seed))


@pytest.mark.parametrize("rule", reference.FORCED_RULES)
def test_forced_history_is_carried_forward(rule):
    for x in (200.0, 350.0, 500.0):
        assert_carried_forward(reference.simulate_forced(
            DgpParams(), ThresholdStrategy(x), 200, rule=rule, seed=3))


MARKERS = (95.0, 180.0, 240.0, 250.0, 400.0)
AFTER_ENTRY = [k for k in range(38) if k not in (0, 13, 26)]  # fixture rows


@st.composite
def measurement_edits(draw):
    """Edits that keep the fixture's measurements valid: a month after entry
    gains or loses a visit (a visit with a marker value), a visit's marker
    changes, or an override flag flips."""
    edits = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.sampled_from(AFTER_ENTRY))
        visit = draw(st.booleans())
        edits.append((row, visit, draw(st.sampled_from(MARKERS)),
                      draw(st.sampled_from((0, 1)))))
    return edits


@given(measurement_edits())
def test_edited_history_is_carried_forward(fixture_cohort, edits):
    args = edited(fixture_cohort)
    for row, visit, marker, override in edits:
        args.monitor[row] = visit
        args.observed_marker[row] = marker if visit else np.nan
        args.override_flag[row] = override
    assert_carried_forward(Cohort(**vars(args)))


# ----------------------------------------------------------------------
# the per-subject reference and the validate branches
# ----------------------------------------------------------------------
def reference_validate(c):
    """The loop version of ``Cohort.validate``, plus the finite-marker and
    baseline-value rules (marked below), over a cohort's constructor
    arguments."""
    n = len(c.subject_ids)
    offsets = np.r_[0, np.cumsum(c.followup_end + 1)]
    if c.baseline.shape[0] != n:
        raise ConfigError("baseline rows do not match subject count")
    if c.baseline.shape[1:] != (len(c.schema.fields),):
        raise ConfigError("baseline width does not match schema")
    if len(set(c.subject_ids)) != n:
        raise ConfigError("duplicate subject ids")
    if np.any(c.followup_end < 0) or offsets[-1] != c.t.size:
        raise ConfigError("row blocks do not match followup_end")
    ok_y = np.isnan(c.outcome_y) | (c.outcome_y == 0) | (c.outcome_y == 1)
    if not np.all(ok_y):
        raise ConfigError("outcome_y must be 0, 1, or missing")
    if np.any((c.monitor != 0) & (c.monitor != 1)):
        raise ConfigError("monitor must be binary")
    if np.any((c.override_flag != 0) & (c.override_flag != 1)):
        raise ConfigError("override_flag must be binary")
    if any(code not in range(len(END_REASONS)) for code in c.end_reason):
        raise ConfigError("end_reason must be a code of END_REASONS")

    for i in range(n):
        lo, hi = offsets[i], offsets[i + 1]
        sid = c.subject_ids[i]
        fue = c.followup_end[i]
        if fue > c.horizon:
            raise ConfigError(f"followup_end {fue} outside [0, {c.horizon}]")
        ts = c.t[lo:hi]
        if not np.array_equal(ts, np.arange(fue + 1)):
            months = set(ts.tolist())
            missing = [k for k in range(fue + 1) if k not in months][:3]
            extra = sorted(k for k in months if k < 0 or k > fue)[:3]
            if not (missing or extra):
                raise ConfigError(f"subject {sid}: months out of order")
            raise ConfigError(f"subject {sid}: month gap/extras "
                              f"(missing {missing}, extra {extra})")
        mon = c.monitor[lo:hi]
        obs = c.observed_marker[lo:hi]
        if np.any(np.isnan(obs[mon == 1])):
            raise ConfigError(f"subject {sid}: monitored months must record "
                              "a marker value")
        if np.any(~np.isnan(obs[mon == 0])):
            raise ConfigError(f"subject {sid}: marker recorded on an "
                              "unmonitored month")
        # the finite-marker rule, added after the loop was replaced
        if np.any(np.isinf(obs)):
            raise ConfigError(f"subject {sid}: marker values must be finite")
        if mon[0] != 1:
            raise ConfigError(f"subject {sid}: baseline month must be "
                              "monitored")
        if not np.isnan(c.outcome_y[i]) and fue != c.horizon:
            raise ConfigError(f"subject {sid}: outcome recorded but follow-up "
                              f"ended at {fue} < horizon {c.horizon}")
        # the baseline-value rule, added after the loop was replaced
        for f, v in zip(c.schema.fields, c.baseline[i]):
            if not np.isfinite(v) or f.kind == CATEGORICAL and not (
                    v == round(v) and 0 <= v < len(f.levels)):
                raise ConfigError(f"subject {sid}: malformed baseline value")


ROW_ARRAYS = ("t", "monitor", "observed_marker", "override_flag")
SUBJECT_ARRAYS = ("followup_end", "outcome_y")


def edited(cohort, *edits):
    """The constructor arguments of ``cohort``, with each ``(array, index,
    value)`` edit applied to a copy of its measurements."""
    args = SimpleNamespace(
        subject_ids=cohort.subject_ids, baseline=cohort.baseline,
        schema=cohort.schema, horizon=cohort.horizon,
        end_reason=cohort.end_reason,
        **{name: getattr(cohort, name).copy()
           for name in ROW_ARRAYS + SUBJECT_ARRAYS})
    for name, index, value in edits:
        getattr(args, name)[index] = value
    return args


def validate_error(args):
    with pytest.raises(ConfigError) as info:
        Cohort(**vars(args))
    return str(info.value)


# rows of the fixture cohort: s1 at 0-12, s2 at 13-25, s3 (followup_end 11)
# at 26-37
@pytest.mark.parametrize("edits, message", [
    ((("t", 18, 6),),
     "subject s2: month gap/extras (missing [5], extra [])"),
    ((("observed_marker", 3, np.nan),),
     "subject s1: monitored months must record a marker value"),
    ((("observed_marker", 27, 400.0),),
     "subject s3: marker recorded on an unmonitored month"),
    ((("observed_marker", 3, np.inf),),
     "subject s1: marker values must be finite"),
    ((("t", 1, 2), ("t", 2, 1)), "subject s1: months out of order"),
])
def test_validate_branches(fixture_cohort, edits, message):
    bad = edited(fixture_cohort, *edits)
    assert validate_error(bad) == message
    with pytest.raises(ConfigError) as info:
        reference_validate(bad)
    assert str(info.value) == message


def test_first_bad_subject_is_reported(fixture_cohort):
    # s3 fails an earlier check than s2; the earlier subject is reported
    bad = edited(fixture_cohort, ("observed_marker", 14, 400.0), ("t", 30, 3))
    assert validate_error(bad) == (
        "subject s2: marker recorded on an unmonitored month")


@pytest.mark.parametrize("value", [[7, 0, 0], [-1, 0, 0], [1.5, 0, 0]])
def test_end_reason_must_name_a_reason(fixture_cohort, value):
    # an int8 code outside END_REASONS could not be written out by name
    bad = edited(fixture_cohort)
    bad.end_reason = np.array(value)
    assert validate_error(bad) == "end_reason must be a code of END_REASONS"


@pytest.mark.parametrize("name", ["followup_end", "end_reason", "outcome_y"])
def test_subject_arrays_have_one_entry_per_subject(fixture_cohort, name):
    # a short end_reason used to be accepted, and a short outcome_y to fail
    # numpy's broadcast
    bad = edited(fixture_cohort)
    setattr(bad, name, getattr(bad, name)[:2])
    assert validate_error(bad) == (
        f"{name} needs one entry per subject (3), got shape (2,)")


@pytest.mark.parametrize("name, index", [("monitor", 0),
                                         ("override_flag", 3)])
def test_binary_columns_are_checked_as_given(fixture_cohort, name, index):
    # 257 is 1 once narrowed to int8
    bad = edited(fixture_cohort)
    setattr(bad, name, getattr(bad, name).astype(np.int64))
    getattr(bad, name)[index] = 257
    assert validate_error(bad) == f"{name} must be binary"


@pytest.mark.parametrize("column, value", [
    (0, 2.0), (0, 0.5), (0, -1.0), (0, np.nan), (1, np.inf), (1, np.nan)])
def test_invalid_baseline_value_names_its_subject(fixture_cohort, column,
                                                  value):
    # sex codes 0 (female) and 1 (male); age is continuous
    bad = edited(fixture_cohort)
    bad.baseline = fixture_cohort.baseline.copy()
    bad.baseline[1, column] = value
    message = "subject s2: malformed baseline value"
    assert validate_error(bad) == message
    with pytest.raises(ConfigError, match=f"^{message}$"):
        reference_validate(bad)


EDIT_VALUES = {
    "t": (-1, 0, 1, 5, 12, 13),
    "monitor": (0, 1, 2),
    "observed_marker": (np.nan, np.inf, -np.inf, 100.0, 250.0),
    "override_flag": (0, 1, 2),
    "followup_end": (-1, 11, 12, 13),
    "outcome_y": (np.nan, 0.0, 1.0, 0.5),
}


@st.composite
def array_edits(draw):
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(EDIT_VALUES)))
        size = 3 if name in SUBJECT_ARRAYS else 38
        edits.append((name, draw(st.integers(0, size - 1)),
                      draw(st.sampled_from(EDIT_VALUES[name]))))
    return edits


@settings(max_examples=500)
@given(array_edits())
def test_validate_matches_per_subject_reference(fixture_cohort, edits):
    bad = edited(fixture_cohort, *edits)
    try:
        reference_validate(bad)
    except ConfigError as err:
        assert validate_error(bad) == str(err)
    else:
        assert_carried_forward(Cohort(**vars(bad)))
