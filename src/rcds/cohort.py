"""Baseline schemas and the columnar cohort container.

A cohort is a set of subjects observed on a monthly grid t = 0..K. Row t = 0
is the baseline visit: every subject enters with a measured marker value
(mirroring eligibility screening), so ``last_observed_marker`` is always
defined from the start. ``months_since`` is 0 at baseline and follows the
reset/increment recurrence afterwards.

A cohort is built from measurements only. Both derived columns, and
``d_total``, follow one carry-forward rule, :func:`carry_forward`, which
:class:`Cohort` applies once :meth:`Cohort.validate` has passed the
measurements.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

END_REASONS = ("administrative_end", "lost", "death", "other_censoring")
_REASON_CODE = {name: i for i, name in enumerate(END_REASONS)}

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"


@dataclass(frozen=True)
class BaselineField:
    name: str
    kind: str
    levels: tuple = ()

    def __post_init__(self):
        if self.kind not in (CATEGORICAL, CONTINUOUS):
            raise ConfigError(f"unknown baseline field kind {self.kind!r}")
        if self.kind == CATEGORICAL and len(self.levels) < 2:
            raise ConfigError(
                f"categorical field {self.name!r} needs at least two levels"
            )


@dataclass(frozen=True)
class BaselineSchema:
    """Baseline covariate layout, declared once per cohort."""

    fields: tuple

    @property
    def names(self):
        return [f.name for f in self.fields]

    def validate_values(self, values):
        if values.shape[1] != len(self.fields):
            raise ConfigError("baseline width does not match schema")
        for j, f in enumerate(self.fields):
            col = values[:, j]
            if not np.all(np.isfinite(col)):
                raise ConfigError(f"baseline field {f.name!r} has non-finite values")
            if f.kind == CATEGORICAL:
                codes = np.unique(col)
                if np.any(codes != np.round(codes)) or codes.min() < 0 or \
                        codes.max() >= len(f.levels):
                    raise ConfigError(
                        f"baseline field {f.name!r} has codes outside its levels"
                    )


def carry_forward(monitor, observed_marker, offsets):
    """The derived columns of the carry-forward rule, from the measurements.

    Returns ``(last_observed_marker, months_since, d_total)``: each row's
    marker from its subject's latest monitored row so far, the months since
    that row, and each subject's count of monitored rows. Every subject's
    first row must be monitored, as :meth:`Cohort.validate` ensures; the
    rows of one whose first row is not get values from an earlier subject.
    """
    idx = np.arange(monitor.size)
    last_idx = np.maximum.accumulate(np.where(monitor == 1, idx, 0))
    d_total = np.add.reduceat(monitor, offsets[:-1], dtype=np.int64)
    return observed_marker[last_idx], idx - last_idx, d_total


class Cohort:
    """Columnar store of subjects sharing one baseline schema.

    Built from the measurements, which must pass :meth:`validate`; the
    carried-forward marker, months since the last visit and visit count
    then follow from them by :func:`carry_forward`.
    """

    def __init__(self, subject_ids, baseline, schema, horizon, followup_end,
                 end_reason, outcome_y, t, monitor, observed_marker,
                 override_flag):
        self.subject_ids = list(subject_ids)
        self.baseline = np.asarray(baseline, dtype=np.float64)
        self.schema = schema
        self.horizon = int(horizon)
        self.followup_end = np.asarray(followup_end, dtype=np.int64)
        self.end_reason = np.asarray(end_reason, dtype=np.int8)
        self.outcome_y = np.asarray(outcome_y, dtype=np.float64)
        self.t = np.asarray(t, dtype=np.int64)
        self.monitor = np.asarray(monitor, dtype=np.int8)
        self.observed_marker = np.asarray(observed_marker, dtype=np.float64)
        self.override_flag = np.asarray(override_flag, dtype=np.int8)
        self.offsets = np.concatenate(
            [[0], np.cumsum(self.followup_end + 1)]
        ).astype(np.int64)
        self.validate()
        self.last_observed_marker, self.months_since, self.d_total = \
            carry_forward(self.monitor, self.observed_marker, self.offsets)

    @property
    def n_subjects(self):
        return len(self.subject_ids)

    @property
    def n_rows(self):
        return self.t.size

    def end_reason_name(self, i):
        return END_REASONS[self.end_reason[i]]

    def validate(self):
        n = self.n_subjects
        if self.baseline.shape[0] != n:
            raise ConfigError("baseline rows do not match subject count")
        self.schema.validate_values(self.baseline)
        if len(set(self.subject_ids)) != n:
            raise ConfigError("duplicate subject ids")
        if np.any(self.followup_end < 0) or np.any(self.followup_end > self.horizon):
            raise ConfigError("followup_end must lie in [0, horizon]")
        if self.offsets[-1] != self.n_rows:
            raise ConfigError("row blocks do not match followup_end")
        present = ~np.isnan(self.outcome_y)
        if np.any(present & (self.followup_end != self.horizon)):
            raise ConfigError("outcome recorded for a subject that left early")
        ok_y = np.isnan(self.outcome_y) | (self.outcome_y == 0) | (self.outcome_y == 1)
        if not np.all(ok_y):
            raise ConfigError("outcome_y must be 0, 1, or missing")
        if np.any((self.monitor != 0) & (self.monitor != 1)):
            raise ConfigError("monitor must be binary")
        if np.any((self.override_flag != 0) & (self.override_flag != 1)):
            raise ConfigError("override_flag must be binary")

        # per-subject checks, in order: the first failing subject is
        # reported with its first failing check
        starts = self.offsets[:-1]

        def per_subject(row_mask):
            return np.logical_or.reduceat(row_mask, starts)

        pos = np.arange(self.n_rows) - self.offsets[self.subject_index_per_row()]
        mon, obs = self.monitor, self.observed_marker
        measured = ~np.isnan(obs)
        checks = (
            (per_subject(self.t != pos),
             "months must be 0..followup_end with no gaps"),
            (per_subject((mon == 1) & ~measured),
             "monitored months must record a marker value"),
            (per_subject((mon == 0) & measured),
             "marker recorded on an unmonitored month"),
            (per_subject(np.isinf(obs)), "marker values must be finite"),
            (mon[starts] != 1, "baseline month must be monitored (entry "
                               "requires a measured marker)"),
        )
        failed = np.array([mask for mask, _ in checks])
        bad = failed.any(axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            message = checks[int(np.argmax(failed[:, i]))][1]
            raise ConfigError(f"subject {self.subject_ids[i]}: {message}")

    # ------------------------------------------------------------------
    # derived array views used by the estimation pipeline
    # ------------------------------------------------------------------
    def prev_state(self):
        """Pre-decision state for every row: the previous row's observed state.

        Row t's monitoring decision is governed by the state recorded at
        t - 1. For t = 0 the row's own (baseline) state is returned, so the
        arrays are aligned with the flat row layout.
        """
        last = self.last_observed_marker
        ovr = self.override_flag
        m = self.months_since
        prev_last = np.empty_like(last)
        prev_ovr = np.empty_like(ovr)
        gap = np.empty_like(m)
        prev_last[1:] = last[:-1]
        prev_ovr[1:] = ovr[:-1]
        gap[1:] = m[:-1] + 1
        starts = self.offsets[:-1]
        prev_last[starts] = last[starts]
        prev_ovr[starts] = ovr[starts]
        gap[starts] = m[starts]
        return prev_last, prev_ovr, gap

    def subject_index_per_row(self):
        idx = np.zeros(self.n_rows, dtype=np.int64)
        idx[self.offsets[1:-1]] = 1
        return np.cumsum(idx)

    def decision_rows(self):
        """Mask of rows where an observational monitoring decision was made.

        The baseline month is a protocol visit (always monitored), so
        decisions start at t = 1.
        """
        return self.t >= 1


def baseline_fields(schema, terms="all"):
    """``(column index, field)`` pairs of the schema fields named by ``terms``
    ("all", None for none, or a list of names)."""
    if terms == "all":
        wanted = schema.names
    elif terms is None:
        wanted = []
    else:
        wanted = list(terms)
        unknown = set(wanted) - set(schema.names)
        if unknown:
            raise ConfigError(f"unknown baseline terms: {sorted(unknown)}")
    return [(j, f) for j, f in enumerate(schema.fields) if f.name in wanted]


def baseline_design(cohort, terms="all"):
    """One-hot / identity design from baseline covariates.

    Categorical fields expand to indicator columns for every level beyond
    the first; continuous fields enter linearly. Returns ``(X, names)``.
    """
    cols, names = [], []
    for j, f in baseline_fields(cohort.schema, terms):
        col = cohort.baseline[:, j]
        if f.kind == CONTINUOUS:
            cols.append(col)
            names.append(f.name)
            continue
        for code, level in enumerate(f.levels[1:], start=1):
            cols.append((col == code).astype(np.float64))
            names.append(f"{f.name}={level}")
    if not cols:
        return np.empty((cohort.n_subjects, 0)), []
    return np.column_stack(cols), names
