"""Cohort container invariants and record round-trips.

``reference_validate`` is the per-subject loop the columnar
:meth:`Cohort.validate` replaced, kept as the reference it must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcds import Cohort, ConfigError
from rcds.cohort import SubjectRecord, TimeRow, baseline_design

from conftest import FIXTURE_K, FIXTURE_SCHEMA, make_fixture_records


def test_from_records_roundtrip(fixture_cohort, fixture_records):
    got = fixture_cohort.records()
    for a, b in zip(got, fixture_records):
        assert a.subject_id == b.subject_id
        assert a.followup_end == b.followup_end
        assert a.end_reason == b.end_reason
        assert a.d_total == b.d_total
        assert (np.isnan(a.outcome_y) and np.isnan(b.outcome_y)) or \
            a.outcome_y == b.outcome_y
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.t == rb.t and ra.monitor == rb.monitor
            assert ra.months_since_last_monitor == rb.months_since_last_monitor
            assert ra.override_flag == rb.override_flag


def test_d_total_recount_enforced(fixture_records):
    bad = make_fixture_records()
    bad[0].d_total = 4
    with pytest.raises(ConfigError, match="d_total"):
        Cohort.from_records(bad, FIXTURE_SCHEMA, FIXTURE_K)


def test_outcome_requires_full_followup(fixture_records):
    bad = make_fixture_records()
    bad[2].outcome_y = 1.0  # s3 left at month 11
    with pytest.raises(ConfigError, match="left early"):
        Cohort.from_records(bad, FIXTURE_SCHEMA, FIXTURE_K)


def test_months_since_recurrence_enforced():
    rows = [
        TimeRow(0, 1, 300.0, 300.0, 0, 0),
        TimeRow(1, 0, float("nan"), 300.0, 2, 0),  # should be 1
    ]
    rec = SubjectRecord("bad", {"sex": 0.0, "age": 30.0}, rows, float("nan"),
                        1, 1, "lost", FIXTURE_K)
    with pytest.raises(ConfigError, match="reset/increment"):
        Cohort.from_records([rec], FIXTURE_SCHEMA, FIXTURE_K)


def test_carried_marker_enforced():
    rows = [
        TimeRow(0, 1, 300.0, 300.0, 0, 0),
        TimeRow(1, 0, float("nan"), 290.0, 1, 0),  # carry must stay 300
    ]
    rec = SubjectRecord("bad", {"sex": 0.0, "age": 30.0}, rows, float("nan"),
                        1, 1, "lost", FIXTURE_K)
    with pytest.raises(ConfigError, match="carry"):
        Cohort.from_records([rec], FIXTURE_SCHEMA, FIXTURE_K)


def test_baseline_month_must_be_monitored():
    rows = [TimeRow(0, 0, float("nan"), float("nan"), 0, 0)]
    rec = SubjectRecord("bad", {"sex": 0.0, "age": 30.0}, rows, float("nan"),
                        0, 0, "lost", FIXTURE_K)
    with pytest.raises(ConfigError, match="baseline month"):
        Cohort.from_records([rec], FIXTURE_SCHEMA, FIXTURE_K)


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
# the per-subject reference and the validate branches
# ----------------------------------------------------------------------
def reference_validate(c):
    """The loop version of ``Cohort.validate``, plus the finite-marker rule
    (marked below)."""
    n = c.n_subjects
    if c.baseline.shape[0] != n:
        raise ConfigError("baseline rows do not match subject count")
    c.schema.validate_values(c.baseline)
    if len(set(c.subject_ids)) != n:
        raise ConfigError("duplicate subject ids")
    if np.any(c.followup_end < 0) or np.any(c.followup_end > c.horizon):
        raise ConfigError("followup_end must lie in [0, horizon]")
    if c.offsets[-1] != c.n_rows:
        raise ConfigError("row blocks do not match followup_end")
    present = ~np.isnan(c.outcome_y)
    if np.any(present & (c.followup_end != c.horizon)):
        raise ConfigError("outcome recorded for a subject that left early")
    ok_y = np.isnan(c.outcome_y) | (c.outcome_y == 0) | (c.outcome_y == 1)
    if not np.all(ok_y):
        raise ConfigError("outcome_y must be 0, 1, or missing")
    if np.any((c.monitor != 0) & (c.monitor != 1)):
        raise ConfigError("monitor must be binary")
    if np.any((c.override_flag != 0) & (c.override_flag != 1)):
        raise ConfigError("override_flag must be binary")

    for i in range(n):
        lo, hi = c.offsets[i], c.offsets[i + 1]
        sid = c.subject_ids[i]
        ts = c.t[lo:hi]
        if not np.array_equal(ts, np.arange(c.followup_end[i] + 1)):
            raise ConfigError(f"subject {sid}: months must be 0..followup_end "
                              "with no gaps")
        mon = c.monitor[lo:hi]
        if c.d_total[i] != int(mon.sum()):
            raise ConfigError(f"subject {sid}: d_total does not equal the "
                              "monitored-row count")
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
                              "monitored (entry requires a measured marker)")
        carry = np.where(mon == 1, obs, np.nan)
        expected_last = np.empty(hi - lo)
        cur = np.nan
        for k in range(hi - lo):
            if not np.isnan(carry[k]):
                cur = carry[k]
            expected_last[k] = cur
        got = c.last_observed_marker[lo:hi]
        if not np.array_equal(np.isnan(expected_last), np.isnan(got)) or \
                not np.allclose(np.nan_to_num(expected_last),
                                np.nan_to_num(got)):
            raise ConfigError(f"subject {sid}: last_observed_marker must carry "
                              "the most recent measurement forward")
        m = c.months_since[lo:hi]
        if mon[0] == 1 and m[0] != 0:
            raise ConfigError(f"subject {sid}: months_since_last_monitor must "
                              "be 0 on a monitored month")
        for k in range(1, hi - lo):
            want = 0 if mon[k] == 1 else m[k - 1] + 1
            if m[k] != want:
                raise ConfigError(
                    f"subject {sid}: months_since_last_monitor breaks the "
                    f"reset/increment rule at t={k}")


ROW_ARRAYS = ("t", "monitor", "observed_marker", "last_observed_marker",
              "months_since", "override_flag")
SUBJECT_ARRAYS = ("followup_end", "outcome_y", "d_total")


def edited(cohort, *edits):
    """An unvalidated copy of ``cohort`` with each ``(array, index, value)``
    edit applied."""
    arrays = {name: getattr(cohort, name).copy()
              for name in ROW_ARRAYS + SUBJECT_ARRAYS}
    for name, index, value in edits:
        arrays[name][index] = value
    return Cohort(subject_ids=cohort.subject_ids, baseline=cohort.baseline,
                  schema=cohort.schema, horizon=cohort.horizon,
                  end_reason=cohort.end_reason, validate=False, **arrays)


def validate_error(cohort):
    with pytest.raises(ConfigError) as info:
        cohort.validate()
    return str(info.value)


# rows of the fixture cohort: s1 at 0-12, s2 at 13-25, s3 (followup_end 11)
# at 26-37
@pytest.mark.parametrize("edits, message", [
    ((("t", 18, 6),), "subject s2: months must be 0..followup_end with no gaps"),
    ((("observed_marker", 3, np.nan),),
     "subject s1: monitored months must record a marker value"),
    ((("observed_marker", 27, 400.0),),
     "subject s3: marker recorded on an unmonitored month"),
    ((("observed_marker", 3, np.inf), ("last_observed_marker", 3, np.inf)),
     "subject s1: marker values must be finite"),
    ((("months_since", 13, 1),),
     "subject s2: months_since_last_monitor must be 0 on a monitored month"),
    ((("months_since", 33, 8), ("months_since", 20, 9)),
     "subject s2: months_since_last_monitor breaks the reset/increment rule "
     "at t=7"),
    ((("months_since", 30, 5),),
     "subject s3: months_since_last_monitor breaks the reset/increment rule "
     "at t=4"),
])
def test_validate_branches(fixture_cohort, edits, message):
    bad = edited(fixture_cohort, *edits)
    assert validate_error(bad) == message
    with pytest.raises(ConfigError) as info:
        reference_validate(bad)
    assert str(info.value) == message


def test_first_bad_subject_is_reported(fixture_cohort):
    # s3 fails an earlier check than s2; the earlier subject is reported
    bad = edited(fixture_cohort, ("months_since", 20, 9), ("t", 30, 3))
    assert validate_error(bad) == (
        "subject s2: months_since_last_monitor breaks the reset/increment rule "
        "at t=7")


EDIT_VALUES = {
    "t": (-1, 0, 1, 5, 12, 13),
    "monitor": (0, 1, 2),
    "observed_marker": (np.nan, np.inf, -np.inf, 100.0, 250.0),
    "last_observed_marker": (np.nan, np.inf, 100.0, 100.0005, 101.0, 400.0),
    "months_since": (-1, 0, 1, 2, 3, 9),
    "override_flag": (0, 1, 2),
    "followup_end": (-1, 11, 12, 13),
    "outcome_y": (np.nan, 0.0, 1.0, 0.5),
    "d_total": (0, 3, 5),
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
        bad.validate()
