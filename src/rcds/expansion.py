"""Replication and censoring: one clone per subject per strategy.

Each clone carries its subject's rows until the first month the data deviate
from the clone's strategy; that month gets ``censored_this_month = 1`` and is
excluded from at-risk person-time. Clones that never deviate run to the end
of the subject's follow-up.
"""

from dataclasses import dataclass

import numpy as np

from .strategies import horizon_matrix


@dataclass
class ExpandedDataset:
    """Columnar person-strategy-month dataset."""

    cohort: object
    grid: object
    subject_idx: np.ndarray
    x_idx: np.ndarray
    t: np.ndarray
    at_risk: np.ndarray
    censored_this_month: np.ndarray
    response_d: np.ndarray
    response_y: np.ndarray
    horizons: np.ndarray  # (n_subjects, n_strategies) consistency horizons

    @property
    def n_rows(self):
        return self.t.size

    @property
    def n_subjects(self):
        return self.cohort.n_subjects

    @property
    def horizon(self):
        return self.cohort.horizon


def _cumulative_measurements(cohort):
    flat = np.cumsum(cohort.monitor.astype(np.int64))
    starts = cohort.offsets[:-1]
    base = np.zeros_like(flat)
    base[1:] = flat[:-1]
    return flat - np.repeat(base[starts], np.diff(cohort.offsets))


def expand(cohort, grid):
    """Build the replicated-and-censored dataset for every strategy in the grid.

    A pure function of its inputs: rows are emitted in (subject, x, t) order
    regardless of how the computation is scheduled.
    """
    n, k = cohort.n_subjects, len(grid)
    if k == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return ExpandedDataset(
            cohort=cohort, grid=grid, subject_idx=empty_i, x_idx=empty_i,
            t=empty_i, at_risk=np.empty(0, dtype=np.int8),
            censored_this_month=np.empty(0, dtype=np.int8),
            response_d=empty_i, response_y=np.empty(0),
            horizons=np.empty((n, 0), dtype=np.int64),
        )
    horizons = horizon_matrix(cohort, grid)
    fue = cohort.followup_end
    last_t = np.minimum(horizons, fue[:, None])  # (n, k) last emitted month
    lengths = (last_t + 1).ravel()
    total = int(lengths.sum())

    pair_sub = np.repeat(np.arange(n, dtype=np.int64), k)
    pair_x = np.tile(np.arange(k, dtype=np.int64), n)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    subject_idx = np.repeat(pair_sub, lengths)
    x_idx = np.repeat(pair_x, lengths)
    t = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)

    h_row = horizons[subject_idx, x_idx]
    censored = (t == h_row).astype(np.int8)
    at_risk = (t < h_row).astype(np.int8)

    cum_d = _cumulative_measurements(cohort)
    crow = cohort.offsets[subject_idx] + t
    response_d = cum_d[crow]

    response_y = np.full(total, np.nan)
    at_horizon = (t == cohort.horizon) & (at_risk == 1)
    response_y[at_horizon] = cohort.outcome_y[subject_idx[at_horizon]]

    return ExpandedDataset(
        cohort=cohort, grid=grid, subject_idx=subject_idx, x_idx=x_idx, t=t,
        at_risk=at_risk, censored_this_month=censored,
        response_d=response_d, response_y=response_y, horizons=horizons,
    )


@dataclass
class HorizonTable:
    """Per-clone horizon responses for clones uncensored at the horizon."""

    subject_idx: np.ndarray
    x_idx: np.ndarray
    y: np.ndarray
    d: np.ndarray
    uncensored: np.ndarray  # (n_subjects, n_strategies) bool


def horizon_table(cohort, grid, cells=None):
    """The horizon rows of :func:`expand`, one per clone still at risk at the
    horizon month, computed without materializing person-strategy-month
    rows; the estimator plan's horizon rows. ``cells`` is the cohort's
    :class:`rcds.strategies.WindowCells` under ``grid``, when built."""
    K = cohort.horizon
    uncensored = ((horizon_matrix(cohort, grid, cells) > K)
                  & (cohort.followup_end[:, None] == K))
    sub, xi = np.nonzero(uncensored)
    return HorizonTable(
        subject_idx=sub,
        x_idx=xi,
        y=cohort.outcome_y[sub],
        d=cohort.d_total[sub].astype(np.float64),
        uncensored=uncensored,
    )
