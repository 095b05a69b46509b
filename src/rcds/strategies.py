"""Threshold-indexed dynamic monitoring strategies and consistency checks.

A strategy prescribes, at every month, an interval (lo, hi) of permitted
gaps since the last monitoring visit: ``window_below`` applies while the
last observed marker sits below the threshold ``x``, ``window_above`` at or
above it, and ``override_window`` whenever the override flag is raised.
Subject data deviate from a strategy the first month the running gap
exceeds the applicable ``hi``, or a visit happens before the gap reaches
``lo``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UndefinedHistory

DEFAULT_WINDOW_BELOW = (2, 7)
DEFAULT_WINDOW_ABOVE = (8, 13)
DEFAULT_WINDOW_OVERRIDE = (2, 7)


def _check_window(name, win):
    try:
        lo, hi = (int(v) for v in win)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be two whole months, got {win!r}") \
            from None
    if not (1 <= lo <= hi):
        raise ConfigError(f"{name} must satisfy 1 <= lo <= hi, got {win}")
    return lo, hi


@dataclass(frozen=True)
class ThresholdStrategy:
    """Monitor within ``window_below`` under the threshold, ``window_above`` over it."""

    x: float
    window_below: tuple = DEFAULT_WINDOW_BELOW
    window_above: tuple = DEFAULT_WINDOW_ABOVE
    override_window: tuple = DEFAULT_WINDOW_OVERRIDE

    def __post_init__(self):
        object.__setattr__(self, "window_below",
                           _check_window("window_below", self.window_below))
        object.__setattr__(self, "window_above",
                           _check_window("window_above", self.window_above))
        object.__setattr__(self, "override_window",
                           _check_window("override_window", self.override_window))
        if self.window_below[1] > self.window_above[1]:
            raise ConfigError("window_below.hi must not exceed window_above.hi")


@dataclass(frozen=True)
class StrategyGrid:
    """Strictly increasing thresholds sharing one window configuration."""

    strategies: tuple

    def __post_init__(self):
        xs = [s.x for s in self.strategies]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigError("grid thresholds must be strictly increasing")
        wins = {
            (s.window_below, s.window_above, s.override_window)
            for s in self.strategies
        }
        if len(wins) > 1:
            raise ConfigError("grid strategies must share their windows")

    @classmethod
    def default(cls, x_start=200.0, x_stop=500.0, x_step=10.0,
                window_below=DEFAULT_WINDOW_BELOW,
                window_above=DEFAULT_WINDOW_ABOVE,
                override_window=DEFAULT_WINDOW_OVERRIDE):
        if not x_step > 0:
            raise ConfigError(f"x_step must be positive, got {x_step!r}")
        xs = np.arange(x_start, x_stop + 0.5 * x_step, x_step)
        if xs.size == 0:
            raise ConfigError(f"no threshold from x_start {x_start!r} to "
                              f"x_stop {x_stop!r} in steps of x_step "
                              f"{x_step!r}")
        return cls(tuple(
            ThresholdStrategy(float(x), window_below, window_above,
                              override_window)
            for x in xs
        ))

    @property
    def xs(self):
        return np.array([s.x for s in self.strategies])

    def __len__(self):
        return len(self.strategies)

    def __iter__(self):
        return iter(self.strategies)

    def __getitem__(self, i):
        return self.strategies[i]


def window_bounds(strategy, last_marker, override):
    """Permitted-gap window ``(lo, hi)`` in force, elementwise over states.

    The override flag takes precedence; otherwise the carried-forward marker
    decides, and values at or above the threshold use the "above" window.
    ``strategy`` may also be a nonempty :class:`StrategyGrid`: its thresholds
    then form a column, and the states broadcast against it to one row per
    strategy.
    """
    if isinstance(strategy, StrategyGrid):
        x, strategy = strategy.xs[:, None], strategy[0]
    else:
        x = strategy.x
    (lo_o, hi_o), (lo_b, hi_b), (lo_a, hi_a) = (
        strategy.override_window, strategy.window_below, strategy.window_above)
    ovr = np.asarray(override) == 1
    below = np.asarray(last_marker) < x
    lo = np.where(ovr, lo_o, np.where(below, lo_b, lo_a))
    hi = np.where(ovr, hi_o, np.where(below, hi_b, hi_a))
    return lo, hi


def applicable_window(strategy, row):
    """Window in force given a row's observed state (see :func:`window_bounds`).

    Raises :class:`UndefinedHistory` when no marker has ever been observed
    and no override is active.
    """
    if row.override_flag != 1 and np.isnan(row.last_observed_marker):
        raise UndefinedHistory(
            f"no observed marker at or before t={row.t} and no override; "
            "the strategy window is undefined"
        )
    lo, hi = window_bounds(strategy, row.last_observed_marker, row.override_flag)
    return int(lo), int(hi)


def consistency_horizon(strategy, record):
    """First month the record deviates from the strategy, or horizon + 1.

    The decision at month t is governed by the state observed at t - 1:
    deviation happens when the pre-decision gap exceeds the applicable
    window's ``hi`` (monitoring overdue, whether or not a visit happens that
    month) or when a visit occurs with the gap still below ``lo``. Month 0
    can only deviate if the record enters with ``months_since_last_monitor``
    already past the window.
    """
    rows = record.rows
    first = rows[0]
    lo, hi = applicable_window(strategy, first)
    if first.months_since_last_monitor > hi:
        return 0
    for prev, row in zip(rows, rows[1:]):
        lo, hi = applicable_window(strategy, prev)
        gap = prev.months_since_last_monitor + 1
        if gap > hi:
            return row.t
        if row.monitor == 1 and gap < lo:
            return row.t
    return record.horizon + 1


def horizon_matrix(cohort, grid):
    """Vectorized consistency horizons, one row per subject, one column per x.

    Equals ``consistency_horizon`` applied to every (subject, strategy) pair;
    months with no deviation through follow-up yield ``horizon + 1``.
    """
    prev_last, prev_ovr, gap = cohort.prev_state()
    if np.any(np.isnan(prev_last)):
        raise UndefinedHistory("cohort has rows with no marker history")
    t = cohort.t
    monitored = cohort.monitor == 1
    starts = cohort.offsets[:-1]
    big = cohort.horizon + 1
    n, k = cohort.n_subjects, len(grid)
    out = np.empty((n, k), dtype=np.int64)
    for j, strat in enumerate(grid):
        lo, hi = window_bounds(strat, prev_last, prev_ovr)
        dev = (gap > hi) | (monitored & (gap < lo))
        # month 0 only deviates if the entry gap already exceeds hi
        dev[starts] = gap[starts] > hi[starts]
        month = np.where(dev, t, big)
        out[:, j] = np.minimum.reduceat(month, starts)
    return out
