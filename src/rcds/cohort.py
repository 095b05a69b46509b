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

This module owns the validity rules a subject must meet:
:func:`subject_violations` states them once, and both :class:`Cohort` and
:func:`rcds.io.ingest_cohort` report their failures from it.
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


def subject_violations(c, offsets, limit):
    """``(subject index, message)`` for the first ``limit`` subjects of ``c``
    that break a validity rule, each with its first failing rule.

    ``c`` has the measurements a :class:`Cohort` is built from as attributes
    of the same names, and ``offsets`` bound each subject's non-empty block
    of rows. The rules, in order: followup_end lies in [0, horizon]; the
    block holds months 0..followup_end in order (a block with every month
    but out of order is reported as such); monitored months record a
    marker, unmonitored ones none, and markers are finite; the baseline
    month is monitored; an outcome is recorded only at full follow-up; and
    baseline values are finite, each categorical code a whole number that
    names a level.
    """
    starts, size = offsets[:-1], np.diff(offsets)
    fue, K = c.followup_end, c.horizon

    def per_subject(row_mask):
        return np.logical_or.reduceat(row_mask, starts)

    pos = np.arange(c.t.size) - np.repeat(starts, size)
    mon, obs = c.monitor, c.observed_marker
    measured = ~np.isnan(obs)
    base_ok = np.isfinite(c.baseline).all(axis=1)
    for j, f in enumerate(c.schema.fields):
        if f.kind == CATEGORICAL:
            code = c.baseline[:, j]
            base_ok &= (code == np.round(code)) & (code >= 0) & \
                (code < len(f.levels))
    rules = (
        ((fue < 0) | (fue > K), "followup_end {fue} outside [0, {K}]"),
        ((size != fue + 1) | per_subject(c.t != pos),
         "subject {sid}: {months}"),
        (per_subject((mon == 1) & ~measured),
         "subject {sid}: monitored months must record a marker value"),
        (per_subject((mon == 0) & measured),
         "subject {sid}: marker recorded on an unmonitored month"),
        (per_subject(np.isinf(obs)),
         "subject {sid}: marker values must be finite"),
        (mon[starts] != 1, "subject {sid}: baseline month must be monitored"),
        (~np.isnan(c.outcome_y) & (fue != K), "subject {sid}: outcome "
         "recorded but follow-up ended at {fue} < horizon {K}"),
        (~base_ok, "subject {sid}: malformed baseline value"),
    )
    failed = np.array([mask for mask, _ in rules])
    found = []
    for i in np.flatnonzero(failed.any(axis=0))[:limit].tolist():
        months = set(c.t[offsets[i]:offsets[i + 1]].tolist())
        f = int(fue[i])
        # at most len(months) of 0..f are present: the first three missing
        # ones lie below len(months) + 3
        missing = [k for k in range(min(f + 1, len(months) + 3))
                   if k not in months][:3]
        extra = sorted(k for k in months if k < 0 or k > f)[:3]
        detail = (f"month gap/extras (missing {missing}, extra {extra})"
                  if missing or extra else "months out of order")
        found.append((i, rules[int(np.argmax(failed[:, i]))][1].format(
            sid=c.subject_ids[i], fue=f, K=K, months=detail)))
    return found


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
        self.end_reason = np.asarray(end_reason)
        self.outcome_y = np.asarray(outcome_y, dtype=np.float64)
        self.t = np.asarray(t, dtype=np.int64)
        self.monitor = np.asarray(monitor)
        self.observed_marker = np.asarray(observed_marker, dtype=np.float64)
        self.override_flag = np.asarray(override_flag)
        self.offsets = np.concatenate(
            [[0], np.cumsum(self.followup_end + 1)]
        ).astype(np.int64)
        self.validate()  # the codes as given, before they are narrowed
        self.end_reason, self.monitor, self.override_flag = (
            a.astype(np.int8, copy=False)
            for a in (self.end_reason, self.monitor, self.override_flag))
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
        """The array checks, then the first failing subject's first broken
        rule of :func:`subject_violations`."""
        n = self.n_subjects
        if self.baseline.shape[0] != n:
            raise ConfigError("baseline rows do not match subject count")
        if self.baseline.shape[1:] != (len(self.schema.fields),):
            raise ConfigError("baseline width does not match schema")
        for name in ("followup_end", "end_reason", "outcome_y"):
            shape = getattr(self, name).shape
            if shape != (n,):
                raise ConfigError(f"{name} needs one entry per subject "
                                  f"({n}), got shape {shape}")
        if len(set(self.subject_ids)) != n:
            raise ConfigError("duplicate subject ids")
        if np.any(self.followup_end < 0) or self.offsets[-1] != self.n_rows:
            raise ConfigError("row blocks do not match followup_end")
        ok_y = np.isnan(self.outcome_y) | (self.outcome_y == 0) | (self.outcome_y == 1)
        if not np.all(ok_y):
            raise ConfigError("outcome_y must be 0, 1, or missing")
        if np.any((self.monitor != 0) & (self.monitor != 1)):
            raise ConfigError("monitor must be binary")
        if np.any((self.override_flag != 0) & (self.override_flag != 1)):
            raise ConfigError("override_flag must be binary")
        if not np.isin(self.end_reason, range(len(END_REASONS))).all():
            raise ConfigError("end_reason must be a code of END_REASONS")
        for _, message in subject_violations(self, self.offsets, limit=1):
            raise ConfigError(message)

    # ------------------------------------------------------------------
    # derived array views used by the estimation pipeline
    # ------------------------------------------------------------------
    def prev_state(self):
        """Pre-decision state for every row: the previous row's observed state.

        Row t's monitoring decision is governed by the state recorded at
        t - 1. For t = 0 the row's own (baseline) state is returned, so the
        arrays are aligned with the flat row layout.
        """
        later = self.t >= 1
        prev = np.arange(self.n_rows) - later
        return (self.last_observed_marker[prev], self.override_flag[prev],
                self.months_since[prev] + later)

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
