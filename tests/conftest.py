"""Shared fixtures, including the 3-subject hand-traced cohort.

The fixture cohort uses horizon K = 12 and windows (2, 7) below / (8, 13)
above / (2, 7) override. Consistency horizons per subject were traced by
hand month-by-month and are frozen in FIXTURE_HORIZONS.
"""

import numpy as np
import pytest
from hypothesis import settings

from rcds import BaselineField, BaselineSchema
from reference import SubjectRecord, TimeRow, from_records

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          print_blob=True)
settings.load_profile("deterministic")

FIXTURE_K = 12

FIXTURE_SCHEMA = BaselineSchema(fields=(
    BaselineField("sex", "categorical", ("female", "male")),
    BaselineField("age", "continuous"),
))


def _rows(spec):
    """Build TimeRows from (t, monitor, observed, override) tuples; the
    observed marker of an unmonitored month is dropped."""
    return [TimeRow(t=t, monitor=monitor,
                    observed_marker=observed if monitor else float("nan"),
                    override_flag=override)
            for t, monitor, observed, override in spec]


def make_fixture_records():
    # S1: monitored every 3 months, marker always 100 (below every grid x).
    # Gaps of 3 sit inside (2, 7): consistent with the whole default grid.
    s1_spec = []
    markers = {0: 100.0, 3: 110.0, 6: 105.0, 9: 95.0, 12: 100.0}
    for t in range(13):
        s1_spec.append((t, 1 if t in markers else 0, markers.get(t, np.nan), 0))
    s1 = SubjectRecord(
        subject_id="s1", baseline={"sex": 0.0, "age": 41.0},
        rows=_rows(s1_spec), outcome_y=0.0, followup_end=12,
        end_reason="administrative_end", horizon=FIXTURE_K,
    )

    # S2: visits at 0 (250), 9 (240), 11 (238).
    #  x >= 260: below from the start, no visit as the gap reaches 7 at
    #            month 7 -> 7.
    #  x == 250: above at first (250 >= 250), gap 9 in (8, 13); then 240 < 250
    #            puts it below, visit at gap 2 is legal -> consistent (13).
    #  x <= 240: above throughout (markers >= 238 >= x), visit at month 11
    #            comes at gap 2 < 8 -> premature at 11.
    s2_spec = []
    markers = {0: 250.0, 9: 240.0, 11: 238.0}
    for t in range(13):
        s2_spec.append((t, 1 if t in markers else 0, markers.get(t, np.nan), 0))
    s2 = SubjectRecord(
        subject_id="s2", baseline={"sex": 1.0, "age": 36.5},
        rows=_rows(s2_spec), outcome_y=1.0, followup_end=12,
        end_reason="administrative_end", horizon=FIXTURE_K,
    )

    # S3: visits at 0 (400), 8 (180, override turns on), 10 (210, override
    # stays); lost to follow-up after month 11.
    #  x <= 400: above at first (400 >= x), gap 8 legal; override window from
    #            month 9 on, visit at gap 2 legal -> consistent through
    #            followup_end -> 13.
    #  x >= 410: below from the start (400 < x), no visit as the gap
    #            reaches 7 -> 7.
    s3_spec = [
        (0, 1, 400.0, 0), (1, 0, np.nan, 0), (2, 0, np.nan, 0),
        (3, 0, np.nan, 0), (4, 0, np.nan, 0), (5, 0, np.nan, 0),
        (6, 0, np.nan, 0), (7, 0, np.nan, 0), (8, 1, 180.0, 1),
        (9, 0, np.nan, 1), (10, 1, 210.0, 1), (11, 0, np.nan, 1),
    ]
    s3 = SubjectRecord(
        subject_id="s3", baseline={"sex": 0.0, "age": 52.0},
        rows=_rows(s3_spec), outcome_y=float("nan"), followup_end=11,
        end_reason="lost", horizon=FIXTURE_K,
    )
    return [s1, s2, s3]


def fixture_horizons(x):
    """Hand-traced first deviation months for the fixture subjects."""
    s1 = FIXTURE_K + 1
    if x >= 260:
        s2 = 7
    elif x == 250:
        s2 = FIXTURE_K + 1
    else:
        s2 = 11
    s3 = FIXTURE_K + 1 if x <= 400 else 7
    return {"s1": s1, "s2": s2, "s3": s3}


@pytest.fixture(scope="session")
def fixture_records():
    return make_fixture_records()


@pytest.fixture(scope="session")
def fixture_cohort(fixture_records):
    return from_records(fixture_records, FIXTURE_SCHEMA, FIXTURE_K)
