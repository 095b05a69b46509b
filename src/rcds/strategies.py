"""Threshold-indexed dynamic monitoring strategies and consistency checks.

A strategy prescribes, at every month, an interval (lo, hi) of permitted
gaps since the last monitoring visit: ``window_below`` applies while the
last observed marker sits below the threshold ``x``, ``window_above`` at or
above it, and ``override_window`` whenever the override flag is raised.
Subject data deviate from a strategy the first month a visit falls outside
the applicable window ``[lo, hi]``, or none happens with the gap at ``hi`` or
past it; the window of month t is the one in force at t - 1. Month 0, the
entry visit, makes no decision and never deviates.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, is_whole

DEFAULT_WINDOW_BELOW = (2, 7)
DEFAULT_WINDOW_ABOVE = (8, 13)
DEFAULT_WINDOW_OVERRIDE = (2, 7)
MAX_THRESHOLDS = 10_000  # per grid; the default grid has 31


def _check_window(name, win):
    if not (isinstance(win, (list, tuple)) and len(win) == 2
            and all(is_whole(v) for v in win)):
        raise ConfigError(f"{name} must be two whole months, got {win!r}")
    lo, hi = (int(v) for v in win)
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
        for name, value in (("x_start", x_start), ("x_stop", x_stop),
                            ("x_step", x_step)):
            if not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if (x_stop + 0.5 * x_step - x_start) / x_step > MAX_THRESHOLDS:
            raise ConfigError(f"the grid from x_start {x_start!r} to x_stop "
                              f"{x_stop!r} in steps of x_step {x_step!r} "
                              f"has over {MAX_THRESHOLDS} thresholds")
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


def window_bounds(strategy, last_marker, override, x=None):
    """Permitted-gap window ``(lo, hi)`` in force, elementwise over states.

    The override flag takes precedence; otherwise the carried-forward marker
    decides, and values at or above the threshold use the "above" window.
    ``x`` is the threshold, one for every state or one per state, of
    strategies that share the windows of ``strategy``; it defaults to the
    strategy's own.
    """
    (lo_o, hi_o), (lo_b, hi_b), (lo_a, hi_a) = (
        strategy.override_window, strategy.window_below, strategy.window_above)
    ovr = np.asarray(override) == 1
    below = np.asarray(last_marker) < (strategy.x if x is None else x)
    lo = np.where(ovr, lo_o, np.where(below, lo_b, lo_a))
    hi = np.where(ovr, hi_o, np.where(below, hi_b, hi_a))
    return lo, hi


class WindowCells:
    """A cohort's decision months (t >= 1) in row order: the state seen the
    month before (``marker``, ``override``, ``gap``; see
    :meth:`rcds.cohort.Cohort.prev_state`), ``subject``, ``t`` and ``visit``,
    each month keyed by its (``jstar``, subject) cell under a grid.

    A grid's strategies share their windows, so with ``jstar`` the number of
    thresholds at or below a month's carried-forward marker, strategies
    ``j < jstar`` apply the above window, ``j >= jstar`` the below one, and
    an override month the override window for every j. One table serves the
    horizon matrix, the monitoring design and the censoring-weight plan.
    """

    def __init__(self, cohort, grid=StrategyGrid(())):
        self.cohort, self.grid = cohort, grid
        dec = cohort.decision_rows()
        self.marker, self.override, self.gap, self.subject, self.t = (
            a[dec] for a in (*cohort.prev_state(),
                             cohort.subject_index_per_row(), cohort.t))
        self.visit = cohort.monitor[dec] == 1
        self.jstar = np.searchsorted(grid.xs, self.marker, "right")

    @cached_property
    def decision_sides(self):
        """``(mask, lo, hi, cell)`` of the decision months on the above, then
        the below side. An above cell reaches the strategies up to its
        column, a below cell (column 0 for override months) those from it
        on. A cell is keyed ``column * n_subjects + subject``, strategy
        major, so per-cell totals reshape to a C-order (k, n) array whose
        strategy rows :func:`sweep` reduces as contiguous vectors."""
        k, n, s, jstar = (len(self.grid), self.cohort.n_subjects,
                          self.grid[0], self.jstar)
        ovr, sub = self.override == 1, self.subject
        cell = jstar * n + sub
        (lo_a, hi_a), (lo_b, hi_b), (lo_o, hi_o) = (
            s.window_above, s.window_below, s.override_window)
        return ((~ovr & (jstar > 0), lo_a, hi_a, cell - n),
                (ovr | (jstar < k), np.where(ovr, lo_o, lo_b),
                 np.where(ovr, hi_o, hi_b), np.where(ovr, sub, cell)))


def sweep(above, below, op=np.add):
    """Per-(strategy j, subject) reduction by ``op`` of (column, subject)
    cells, two (k, n) arrays: a cell of ``above`` reaches every j up to its
    column, one of ``below`` j from it. Works in place: ``above`` and
    ``below`` end as their reverse and forward cumulative reductions along
    j, and the result overwrites ``below``. Each is k - 1 vector ops over
    contiguous strategy rows, with the operands of ``op.accumulate`` in its
    order, so the bits are those of
    ``op(op.accumulate(above[::-1])[::-1], op.accumulate(below))``."""
    for j in range(above.shape[0] - 2, -1, -1):
        op(above[j + 1], above[j], out=above[j])
    for j in range(1, below.shape[0]):
        op(below[j - 1], below[j], out=below[j])
    return op(above, below, out=below)


def horizon_matrix(cohort, grid, cells=None):
    """Consistency horizons, one row per subject, one column per x: the first
    month the subject's data deviate from the strategy, or ``horizon + 1``.

    The earliest deviating month of each (``jstar``, subject) cell reaches
    the strategies of its side by a cumulative minimum (:func:`sweep`) over
    (k, n) arrays; the result is their (n, k) transpose.
    ``cells`` is the cohort's :class:`WindowCells` under ``grid``, if built.
    """
    if cells is None:
        cells = WindowCells(cohort, grid)
    n, k = cohort.n_subjects, len(grid)
    if k == 0:
        return np.empty((n, 0), dtype=np.int64)
    first = np.full((2, k * n), cohort.horizon + 1, dtype=np.int64)
    gap, t, visit = cells.gap, cells.t, cells.visit
    for month, (on_side, lo, hi, at) in zip(first, cells.decision_sides):
        dev = on_side & np.where(visit, (gap < lo) | (gap > hi), gap >= hi)
        np.minimum.at(month, at[dev], t[dev])
    return sweep(*first.reshape(2, k, n), op=np.minimum).T
