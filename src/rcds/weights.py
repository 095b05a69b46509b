"""Monitoring-probability model and cumulative inverse-probability weights.

The monitoring model is a pooled logistic regression over decision months
(t >= 1) of the original, unexpanded person-time. Each decision is explained
by the state observed the month before: carried-forward marker, months since
the last visit, override flag, and optionally calendar month and baseline
covariates.

Every weight is a function of one vector ``p``: the fitted probability of a
visit at each decision month, in the order of
:meth:`MonitorDesign.probabilities` (that of
:class:`rcds.strategies.WindowCells`). The weights invert the probability
of *remaining consistent* with a clone's strategy (artificial censoring, as
in Cain et al. 2010): a month with the gap below the window's lo contributes
1/(1 - p), one with the gap at hi 1/p, any other factor one. A visit in the
former or none in the latter censors the clone that month
(:func:`rcds.strategies.horizon_matrix`), so only the clones that stay are
weighed. Each factor has conditional mean one given the past, so the
weighted clone population reproduces the observational process conditioned
month-by-month to the strategy's windows: the natural rule, the one regime
the oracle simulates (:func:`rcds.oracle_truth`), and so the estimand the
oracle checks.

One positivity floor holds for every weight: a decision month early (gap
below lo) or due (gap at hi) under some strategy of the grid needs 1 - p,
or p, of at least ``PROB_FLOOR``, the early months checked first.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .cohort import baseline_design
from .errors import ConfigError, PositivityViolation, SeparationError
from .glm import (BINOMIAL_LOGIT, DesignMatrix, _on_support, constant_columns,
                  fit_glm, logistic, rcs_basis)
from .strategies import WindowCells, accumulate, window_bounds

PROB_FLOOR = 1e-6
FLOOR_CHECKS = ("withholding a premature visit", "the required visit")
MAX_MARKER_KNOTS = 10
MAX_GAP_CAP = 60


@dataclass(frozen=True)
class MonitorFeatureSpec:
    """Declared history feature map for the monitoring model.

    Each feature size has a ceiling, checked whatever the feature's kind,
    since each unit is one float64 column over every decision month.
    ``marker_knots`` is at most ``MAX_MARKER_KNOTS`` = 10: the knots sit at
    evenly spaced quantiles from 10% to 90%, so 10 are already under 9
    percentage points apart, and Harrell (*Regression Modeling Strategies*,
    2nd ed., sec. 2.4.6) places 3 to 7. ``gap_cap`` is at most
    ``MAX_GAP_CAP`` = 60: a level per month for five years of gaps, over
    four times the default of 13, where the default windows end.
    """

    marker: str = "rcs"          # "rcs" | "linear" | "none"
    marker_knots: int = 3
    gap: str = "linear"          # "linear" | "categorical"
    gap_cap: int = 13            # categorical gaps pooled at this value and above
    override: bool = True
    month: str = "none"          # "none" | "linear"
    baseline: tuple = ()

    def __post_init__(self):
        if self.marker not in ("rcs", "linear", "none"):
            raise ConfigError(f"unknown marker feature {self.marker!r}")
        if self.gap not in ("linear", "categorical"):
            raise ConfigError(f"unknown gap feature {self.gap!r}")
        if self.month not in ("none", "linear"):
            raise ConfigError(f"unknown month feature {self.month!r}")
        if not isinstance(self.override, bool):
            raise ConfigError(
                f"override feature must be true or false, got {self.override!r}")
        if self.marker == "rcs" and self.marker_knots < 3:
            raise ConfigError("marker_knots must be >= 3 for a spline")
        if self.marker_knots > MAX_MARKER_KNOTS:
            raise ConfigError(f"marker_knots must be at most "
                              f"{MAX_MARKER_KNOTS}, got {self.marker_knots}")
        if self.gap == "categorical" and self.gap_cap < 2:
            raise ConfigError("gap_cap must be >= 2 for categorical gaps, "
                              f"got {self.gap_cap}")
        if self.gap_cap > MAX_GAP_CAP:
            raise ConfigError(f"gap_cap must be at most {MAX_GAP_CAP}, got "
                              f"{self.gap_cap}")


def _marker_knots(spec, marker):
    """Effective feature spec and marker spline knots for the monitoring model.

    Knots sit at evenly spaced quantiles (10% to 90%) of the decision-month
    markers; when they tie the marker is too concentrated for a spline and the
    spec falls back to a linear marker term.
    """
    if spec.marker != "rcs":
        return spec, None
    knots = np.quantile(marker, np.linspace(0.1, 0.9, spec.marker_knots))
    if np.any(np.diff(knots) <= 0):
        return dataclasses.replace(spec, marker="linear"), None
    return spec, knots


def _without(design, names):
    """The design less the named columns, with the same rows and weights."""
    if not names:
        return design
    kept = [c not in names for c in design.columns]
    return DesignMatrix(design.X[:, kept],
                        [c for c in design.columns if c not in names],
                        weights=design.weights)


def _monitor_design(cells, spec, marker_knots):
    """The monitoring model's columns over the decision months of ``cells``
    (a :class:`WindowCells`), with their names. Each column is written once
    into the float64 design, from the narrow arrays of ``cells`` (a gap
    level from a bool mask), so no float64 copy of a column is kept."""
    cols = [1.0]
    names = ["intercept"]
    if spec.marker == "linear":
        cols.append(cells.marker)
        names.append("marker")
    elif spec.marker == "rcs":
        basis = rcs_basis(cells.marker, marker_knots)
        cols.extend(basis.T)
        names.append("marker")
        names.extend(f"marker_rcs{i}" for i in range(1, basis.shape[1]))
    if spec.gap == "linear":
        cols.append(cells.gap)
        names.append("gap")
    else:  # gaps pooled at gap_cap and above
        for g in range(2, spec.gap_cap + 1):
            cols.append(cells.gap == g if g < spec.gap_cap else cells.gap >= g)
            names.append(f"gap={g}")
    if spec.override:
        cols.append(cells.override)
        names.append("override")
    if spec.month == "linear":
        cols.append(cells.t)
        names.append("month")
    per_month = len(cols)  # the baseline columns after these are per subject
    if spec.baseline:
        bx, bnames = baseline_design(cells.cohort, list(spec.baseline))
        cols.extend(bx.T)
        names.extend(bnames)
    X = np.empty((cells.gap.size, len(cols)), order="F")  # column by column
    for j, col in enumerate(cols):
        X[:, j] = col if j < per_month else col.take(cells.subject)
    return DesignMatrix(X, names)


def _separation_stop(matrix, monitored):
    """The IRLS stop rule of a monitoring fit of ``monitored`` on ``matrix``:
    the :class:`SeparationError` of an exact certificate that the MLE does
    not exist (Albert & Anderson 1984), or None. It acts only after a step at
    least half as large as the one before, as a separated fit's steps are:
    a converging fit's shrink fast. The rows the step moves, on the rows of
    X signed by the response (+ for a visit) at unit length, are tried as a
    support (:func:`rcds.glm._on_support`). The error names the feature,
    not the intercept, with the largest |c_j| max|X_j|."""
    def stop(history):
        steps = np.abs(np.diff(history[-3:], axis=0)).max(axis=1)
        if steps.size < 2 or steps[1] < 0.5 * steps[0]:
            return None
        A = matrix.X * np.where(monitored, 1.0, -1.0)[:, None]
        A /= np.linalg.norm(A, axis=1)[:, None]
        if (c := _on_support(A, A @ (history[-1] - history[-2]))) is None:
            return None
        size = np.abs(c[1:]) * np.abs(matrix.X[:, 1:]).max(axis=0)
        feature = matrix.columns[1 + int(np.argmax(size))]
        return SeparationError(
            f"feature {feature!r} appears to separate the monitoring decision "
            "perfectly", feature=feature)
    return stop


@dataclass
class MonitorDesign:
    """The monitoring model's design over a cohort's decision months: the
    effective feature spec, its marker knots, the feature columns, the
    response and each row's subject. It does not depend on case weights, so
    one design serves the point fit and every bootstrap replicate.
    """

    spec: MonitorFeatureSpec
    knots: np.ndarray | None
    matrix: DesignMatrix
    monitored: np.ndarray
    subject: np.ndarray

    def dropped(self, fit):
        """The declared columns that ``fit``, a :func:`fit_monitor_model`,
        dropped as constant over its rows."""
        return tuple(c for c in self.matrix.columns if c not in fit.columns)

    def probabilities(self, fit):
        """Fitted P(monitor = 1) of ``fit`` at every decision month."""
        return logistic(_without(self.matrix, self.dropped(fit)).X @ fit.coef)

    def log_likelihood(self, fit):
        """Log-likelihood of the decisions, unweighted, under ``fit``."""
        p = self.probabilities(fit)
        return float(np.sum(np.log(np.where(self.monitored, p, 1.0 - p))))


def monitor_design(cohort, spec=MonitorFeatureSpec(), cells=None):
    """The :class:`MonitorDesign` of a cohort under a declared feature spec,
    one row per decision month of its :class:`WindowCells`; ``cells`` is
    that table when the caller has built it already."""
    if cells is None:
        cells = WindowCells(cohort)
    if cells.gap.size == 0:
        raise SeparationError("cohort has no decision person-months")
    spec, knots = _marker_knots(spec, cells.marker)
    return MonitorDesign(spec=spec, knots=knots,
                         matrix=_monitor_design(cells, spec, knots),
                         monitored=cells.visit, subject=cells.subject)


def fit_monitor_model(design, multiplicity=None, start=None):
    """Pooled logistic regression of the monitoring decision on observed
    history, over the decision months of a cohort's :func:`monitor_design`.

    ``multiplicity`` carries per-subject bootstrap counts as case weights;
    the fit runs on the decision months of subjects with a positive count.
    ``start`` warm-starts IRLS from coefficients of the design's columns.
    Returns the :class:`rcds.glm.GlmFit`, whose probabilities at every
    decision month are :meth:`MonitorDesign.probabilities`. The declared
    features constant over the fitted months leave before the first step
    (:meth:`MonitorDesign.dropped`), and the fit then starts cold; a
    :class:`RankError` is then genuine collinearity. Raises
    :class:`SeparationError` when the decision is degenerate or, by an
    exact certificate (:func:`_separation_stop`), separated; a fit that
    converges is never refused.
    """
    matrix, mon = design.matrix, design.monitored
    if multiplicity is not None:
        multiplicity = np.asarray(multiplicity, dtype=np.float64)
        case = multiplicity[design.subject]
        matrix, mon = matrix.weighted_rows(case), mon.compress(case > 0)
    if not (np.any(mon) and np.any(~mon)):
        raise SeparationError(
            "monitoring response is degenerate: need at least one monitored "
            "and one unmonitored person-month"
        )
    dropped = constant_columns(matrix)
    if dropped:
        matrix, start = _without(matrix, dropped), None
    return fit_glm(matrix, mon.astype(np.float64), BINOMIAL_LOGIT,
                   start=start, stop=_separation_stop(matrix, mon))


def _check_floor(cohort, p, early, due, subject, t):
    """Raise :class:`PositivityViolation` unless 1 - p in the ``early``
    months, checked first, and p in the ``due`` ones are at the floor or
    above, naming the count of months below it and the first 20 in row order
    by their ``subject`` indices and times ``t``."""
    for bad, what in zip(((1.0 - p < PROB_FLOOR) & early,
                          (p < PROB_FLOOR) & due), FLOOR_CHECKS):
        if np.any(bad):
            rows = [(cohort.subject_ids[s], int(u))
                    for s, u in zip(subject[bad][:20], t[bad][:20])]
            raise PositivityViolation(
                f"{int(bad.sum())} person-months held to the floor under some "
                f"strategy have fitted probability of {what} below "
                f"{PROB_FLOOR:g}; first offenders: {rows}",
                rows=rows,
            )


class _WeightContext:
    """Shared per-row quantities for weight-factor construction, from the
    probabilities ``p`` of the decision months; built once the floor rule
    holds over the months early or due under some strategy of ``grid``."""

    def __init__(self, cohort, p, grid):
        self.cohort = cohort
        self.prev_last, self.prev_ovr, self.gap = cohort.prev_state()
        self.decision = cohort.decision_rows()
        self.monitored = cohort.monitor == 1
        self.subject = cohort.subject_index_per_row()
        self.p1 = np.full(cohort.n_rows, np.nan)
        self.p1[self.decision] = p
        early = due = False
        for s in grid:
            e, d = self.held(s)
            early, due = early | e, due | d
        _check_floor(cohort, self.p1, early, due, self.subject, cohort.t)

    def held(self, strategy):
        """The early (gap below lo) and due (gap at hi) decision months of
        one strategy."""
        lo, hi = window_bounds(strategy, self.prev_last, self.prev_ovr)
        return self.decision & (self.gap < lo), self.decision & (self.gap == hi)

    def scatter(self, flat, fill):
        """Spread a flat per-row array into a dense (n_subjects, K+1) matrix."""
        out = np.full((self.cohort.n_subjects, self.cohort.horizon + 1), fill)
        out[self.subject, self.cohort.t] = flat
        return out


def _censoring_factor_paths(ctx, strategy):
    """Cumulative inverse-probability-of-remaining-consistent weights for one
    strategy's clones, per subject-month.

    Months with the gap inside [lo, hi) contribute factor one; gap < lo
    contributes 1/(1 - p) when unmonitored (a visit would censor the clone);
    gap = hi contributes 1/p when monitored (a missed visit dooms it).
    Trajectories impossible under the within-window regime get weight zero
    from the offending month on.
    """
    early, due = ctx.held(strategy)
    factor = np.ones(ctx.cohort.n_rows)
    m = early & ~ctx.monitored
    factor[m] = 1.0 / (1.0 - ctx.p1[m])
    factor[early & ctx.monitored] = 0.0  # premature visit: censored anyway
    m = due & ctx.monitored
    factor[m] = 1.0 / ctx.p1[m]
    factor[due & ~ctx.monitored] = 0.0   # doomed to over-wait next month
    return np.multiply.accumulate(ctx.scatter(factor, 1.0), axis=1)


def clone_horizon_weights(cohort, p, grid):
    """(n_subjects, n_strategies) weights at the horizon month, given the
    visit probability ``p`` of every decision month."""
    ctx = _WeightContext(cohort, p, grid)
    out = np.empty((cohort.n_subjects, len(grid)))
    for j, s in enumerate(grid):
        out[:, j] = _censoring_factor_paths(ctx, s)[:, -1]
    return out


class CensoringWeightPlan:
    """Replicate-invariant layout of the censoring-weight factors, for the
    horizon cells ``(subject, x_idx)``: the clones whose weights are wanted.

    Factor rows are the decision months whose factor is not one: the early
    months (gap below the window's lo) give 1/(1 - p) without a visit and
    the due months (gap at hi) 1/p with the required visit; a visit in an
    early month or none in a due one censors the clone, and no factor is 0.

    On the cohort's :class:`rcds.strategies.WindowCells`, the horizon
    log-weight under j sums each subject's above-window factors with
    ``jstar > j`` and below-window ones with ``jstar <= j``: exactly a
    reverse cumulative sum and a cumulative sum along j of per-(jstar,
    subject) totals (:func:`rcds.strategies.accumulate`), with the additions
    in another order than a sum per strategy. A replicate changes only the
    probabilities: one log per factor row of each side, its bincount and
    cumulative sum, and one exponential per horizon cell, taken from the
    (k, n) sums by flat indices built here.

    Per decision month the plan keeps whether it is early and whether it is
    due under some strategy (bool), the months the floor rule holds, with
    its subject (intp) and ``t`` (the type of the horizon) for the rule's
    message; per factor row of a side, its decision-month index and cell
    (intp), which the replicates gather with, and whether it went without a
    visit (bool).
    """

    def __init__(self, cells, subject, x_idx):
        self.cohort, self.grid = cells.cohort, cells.grid
        mon, g = cells.visit, cells.gap
        self.subject, self.t = cells.subject, cells.t
        # per side, above then below: the factor rows, their cells and which
        # went without a visit; over both, the early and due months
        self.cells, self.early, self.due = [], False, False
        for on, lo, hi, column in cells.decision_sides():
            early, due = on & (g < lo), on & (g == hi)
            pos = np.flatnonzero((early & ~mon) | (due & mon))
            self.cells.append((pos, cells.keys(column, pos), ~mon[pos]))
            self.early, self.due = self.early | early, self.due | due
        self.flat = x_idx * self.cohort.n_subjects + subject

    def horizon_weights(self, p):
        """The weights of the plan's horizon cells, in their order, given
        the fitted monitoring probability of every decision month, in the
        order of :meth:`MonitorDesign.probabilities`.

        The positivity floor is the rule of :func:`attach_weights`: its test
        compares every month and masks the held ones, which is faster than
        gathering them. Once it passes, no factor is below the floor, and
        each side's factor log-sums (:meth:`_cumulative_logs`) are made in
        turn.
        """
        _check_floor(self.cohort, p, self.early, self.due, self.subject,
                     self.t)
        above, below = (self._cumulative_logs(p, side, reverse) for side,
                        reverse in zip(self.cells, (True, False)))
        return np.exp(-(above + below))

    def _cumulative_logs(self, p, side, reverse):
        """One side's factor log-sums at the plan's horizon cells: the logs
        of its factor rows, their per-cell (k, n) totals and the cumulative
        sum of those along j (reversed for the above side), made in turn and
        dropped on return."""
        pos, at, missed = side
        log_f = p.take(pos)
        np.subtract(1.0, log_f, out=log_f, where=missed)  # 1 - p, no visit
        np.log(log_f, out=log_f)
        n, k = self.cohort.n_subjects, len(self.grid)
        # an empty bincount is int64: the sums are floats, in place
        totals = np.bincount(at, weights=log_f, minlength=n * k).astype(
            np.float64, copy=False).reshape(k, n)
        return accumulate(totals, reverse=reverse).reshape(-1).take(self.flat)


def attach_weights(ds, p, truncation=None):
    """Cumulative IP weights of every expanded row, given the visit
    probability ``p`` of every decision month, and the share of them the
    truncation cap lowered: ``(w, truncated_fraction)``.

    ``truncation`` caps weights at the given percentile of the at-risk
    horizon-row weight distribution, and percentile 100 leaves the weights
    untouched exactly: earlier-month rows of censored clones may exceed the
    horizon-row maximum, so no cap is applied there at all. Raises
    :class:`PositivityViolation` when a fitted probability at a
    weight-relevant month falls below the floor.
    """
    ctx = _WeightContext(ds.cohort, p, ds.grid)
    w = np.empty(ds.n_rows)
    for j, s in enumerate(ds.grid):
        paths = _censoring_factor_paths(ctx, s)
        rows = ds.x_idx == j
        w[rows] = paths[ds.subject_idx[rows], ds.t[rows]]
    truncated_fraction = 0.0
    if truncation is not None:
        if not (0 < truncation <= 100):
            raise ConfigError("truncation percentile must be in (0, 100]")
        at_horizon = (ds.t == ds.horizon) & (ds.at_risk == 1)
        if truncation < 100 and np.any(at_horizon):
            cap = np.percentile(w[at_horizon], truncation)
            truncated_fraction = float(np.mean(w > cap))
            w = np.minimum(w, cap)
    return w, truncated_fraction


def _summary(w, truncated_fraction):
    """The weights.yaml summary of the weights ``w``."""
    if w.size == 0:
        w = np.array([np.nan])
    p25, median, p75, p99 = np.percentile(w, [25, 50, 75, 99])
    return {"n": int(w.size), "min": float(np.min(w)), "p25": float(p25),
            "median": float(median), "mean": float(np.mean(w)),
            "p75": float(p75), "p99": float(p99), "max": float(np.max(w)),
            "truncated_fraction": truncated_fraction}
