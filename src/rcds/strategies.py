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
        # np.arange makes ceil(count) thresholds, none when count <= 0
        count = (x_stop + 0.5 * x_step - x_start) / x_step
        if count <= 0:
            raise ConfigError(f"no threshold from x_start {x_start!r} to "
                              f"x_stop {x_stop!r} in steps of x_step "
                              f"{x_step!r}")
        if count > MAX_THRESHOLDS:
            raise ConfigError(f"the grid from x_start {x_start!r} to x_stop "
                              f"{x_stop!r} in steps of x_step {x_step!r} "
                              f"has over {MAX_THRESHOLDS} thresholds")
        xs = np.arange(x_start, x_stop + 0.5 * x_step, x_step)
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


def signed_type(bound):
    """The narrowest signed integer type that holds every value from 0 to
    ``bound``: a difference or a -1 stays in range. A product that can pass
    ``bound`` must be taken in int64 first: under numpy 2 a narrow array
    times a Python int stays narrow and wraps without warning."""
    return np.min_scalar_type(-int(bound) - 1)


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

    Each decision month is held once per array, in the narrowest type its
    bounds allow: ``marker`` float64, ``override`` int8, ``visit`` bool,
    ``subject`` intp (replicates index with it), and ``gap`` and ``t`` in
    :func:`signed_type` of the horizon + 1 and ``jstar`` of the grid size.
    """

    def __init__(self, cohort, grid=StrategyGrid(())):
        self.cohort, self.grid = cohort, grid
        month = signed_type(cohort.horizon + 1)
        rows = np.flatnonzero(cohort.t >= 1)
        self.t = cohort.t.take(rows).astype(month)
        self.visit = cohort.monitor.take(rows) == 1
        rows -= 1  # the month before each decision
        self.marker = cohort.last_observed_marker.take(rows)
        self.override = cohort.override_flag.take(rows)
        self.gap = cohort.months_since.take(rows).astype(month)
        self.gap += 1
        # a subject's decision months are its months 1..followup_end
        self.subject = np.repeat(np.arange(cohort.n_subjects),
                                 cohort.followup_end)
        self.jstar = np.searchsorted(grid.xs, self.marker, "right").astype(
            signed_type(len(grid)))

    def decision_sides(self):
        """``(mask, lo, hi, column)`` of the decision months on the above,
        then the below side, made one side at a time, so that a reader holds
        them only while it reads them. An above cell reaches the strategies
        up to its column, a below cell (column 0 for override months) those
        from it on. ``column`` has the type of ``jstar`` and ``lo`` and
        ``hi`` that of the largest window bound; :meth:`keys` gives the
        cells."""
        k, s, jstar = len(self.grid), self.grid[0], self.jstar
        (lo_a, hi_a), (lo_b, hi_b), (lo_o, hi_o) = (
            s.window_above, s.window_below, s.override_window)
        bound = signed_type(max(hi_a, hi_b, hi_o)).type
        ovr = self.override == 1
        yield ~ovr & (jstar > 0), bound(lo_a), bound(hi_a), jstar - 1
        yield (ovr | (jstar < k), np.where(ovr, bound(lo_o), bound(lo_b)),
               np.where(ovr, bound(hi_o), bound(hi_b)),
               np.where(ovr, jstar.dtype.type(0), jstar))

    def keys(self, column, rows):
        """The cells ``column * n_subjects + subject`` of the decision months
        ``rows`` (a mask or indices), as intp: strategy major, so per-cell
        totals reshape to a C-order (k, n) array whose strategy rows
        :func:`accumulate` reduces as contiguous vectors."""
        return (column[rows].astype(np.intp) * self.cohort.n_subjects
                + self.subject[rows])


def accumulate(cells, op=np.add, reverse=False):
    """The cumulative reduction by ``op`` of a (k, n) array of (column,
    subject) cells along j, in place: an above cell reaches every j up to
    its column (``reverse``), a below one j from it. It takes k - 1 vector
    ops over contiguous strategy rows, with the operands of
    ``op.accumulate`` in its order, so the bits are those of
    ``op.accumulate(cells)``, or of ``op.accumulate(cells[::-1])[::-1]``."""
    if reverse:
        for j in range(cells.shape[0] - 2, -1, -1):
            op(cells[j + 1], cells[j], out=cells[j])
    else:
        for j in range(1, cells.shape[0]):
            op(cells[j - 1], cells[j], out=cells[j])
    return cells


def sweep(above, below, op=np.add):
    """Per-(strategy j, subject) reduction by ``op`` of the (column,
    subject) cells of two (k, n) arrays, ``above`` and ``below``: their
    :func:`accumulate` reductions, combined by ``op`` into ``below``."""
    return op(accumulate(above, op, reverse=True), accumulate(below, op),
              out=below)


def horizon_matrix(cohort, grid, cells=None):
    """Consistency horizons, one row per subject, one column per x: the first
    month the subject's data deviate from the strategy, or ``horizon + 1``.

    The earliest deviating month of each (``jstar``, subject) cell reaches
    the strategies of its side by a cumulative minimum (:func:`sweep`) over
    (k, n) arrays of the type of ``t`` in :class:`WindowCells`; the result
    is their (n, k) transpose. ``cells`` is the cohort's
    :class:`WindowCells` under ``grid``, if built.
    """
    if cells is None:
        cells = WindowCells(cohort, grid)
    n, k = cohort.n_subjects, len(grid)
    if k == 0:
        return np.empty((n, 0), dtype=cells.t.dtype)
    first = np.full((2, k * n), cohort.horizon + 1, dtype=cells.t.dtype)
    gap, t, visit = cells.gap, cells.t, cells.visit
    for month, (on_side, lo, hi, column) in zip(first, cells.decision_sides()):
        dev = on_side & np.where(visit, (gap < lo) | (gap > hi), gap >= hi)
        np.minimum.at(month, cells.keys(column, dev), t[dev])
    return sweep(*first.reshape(2, k, n), op=np.minimum).T
