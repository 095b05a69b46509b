"""Earlier, simpler forms of program pieces, kept as test oracles.

The row-level estimator pieces that no CLI path runs read the MSM responses
and weights off the expanded person-strategy-month dataset of
:func:`rcds.expand` and :func:`rcds.weights.attach_weights`; the estimator
plan (:class:`rcds.Plan`) is tested against them. The per-threshold loop over
every subject's full design row, with the cells a fit pinned read from its
boundary directions, is the reference for the one product of
:func:`rcds.standardize`.

The month-by-month walk of one subject's visits is the reference for the
carried-forward columns that :class:`rcds.Cohort` derives with
:func:`rcds.cohort.carry_forward`. The record-level consistency horizon and
the per-strategy pass over every cohort row are the references for the cell
sweeps of :func:`rcds.strategies.horizon_matrix`.

The simulator's one-strategy-at-a-time transition kernel, its cohort packer
and its per-threshold oracle loop are the reference for the segment kernel
of :mod:`rcds.simulate`, and the row scan for constant columns is the
reference for the columns :func:`rcds.weights.fit_monitor_model` drops. The
cohort forced onto one strategy (:func:`simulate_forced`), with its three
within-window visit rules, lives only here: it is the test data for
consistency by construction.

The log-likelihood in scipy's zero-safe ``xlogy`` and ``gammaln`` is the
reference for :meth:`rcds.weights.MonitorDesign.log_likelihood`.

The record-level view of a cohort, one :class:`SubjectRecord` of
:class:`TimeRow` months per subject, builds the hand-traced fixtures and
feeds the record-level consistency horizon; :func:`from_records` packs
records into a :class:`rcds.Cohort`, and :func:`record` reads one back.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, gammaln, xlogy

from rcds.cohort import _REASON_CODE, Cohort, baseline_design
from rcds.errors import ConfigError
from rcds.expansion import HorizonTable
from rcds.glm import BINOMIAL_LOGIT
from rcds.msm import (
    CERT_TOL,
    DEGENERATE_ETA,
    MsmSpec,
    _fit_horizon_msm,
    _kept,
    _msm_design,
    _strategy_basis,
    _terms,
)
from rcds.simulate import (
    SIM_SCHEMA,
    TruthTable,
    _baseline_values,
    _draws,
    monitor_probability,
)
from rcds.weights import _summary

FORCED_RULES = ("earliest", "latest", "natural")


@dataclass(frozen=True)
class TimeRow:
    """One subject-month of observed data."""

    t: int
    monitor: int
    observed_marker: float  # nan when not measured this month
    override_flag: int


@dataclass
class SubjectRecord:
    """Row-wise view of one subject, convenient for fixtures and tracing."""

    subject_id: str
    baseline: dict
    rows: list
    outcome_y: float  # nan when missing
    followup_end: int
    end_reason: str
    horizon: int


def record(cohort, i):
    """Subject ``i`` of ``cohort`` as a :class:`SubjectRecord`."""
    lo, hi = cohort.offsets[i], cohort.offsets[i + 1]
    rows = [
        TimeRow(
            t=int(cohort.t[k]),
            monitor=int(cohort.monitor[k]),
            observed_marker=float(cohort.observed_marker[k]),
            override_flag=int(cohort.override_flag[k]),
        )
        for k in range(lo, hi)
    ]
    baseline = {
        f.name: float(cohort.baseline[i, j])
        for j, f in enumerate(cohort.schema.fields)
    }
    return SubjectRecord(
        subject_id=cohort.subject_ids[i],
        baseline=baseline,
        rows=rows,
        outcome_y=float(cohort.outcome_y[i]),
        followup_end=int(cohort.followup_end[i]),
        end_reason=cohort.end_reason_name(i),
        horizon=cohort.horizon,
    )


def records(cohort):
    """Every subject of ``cohort`` as a :class:`SubjectRecord`."""
    return [record(cohort, i) for i in range(cohort.n_subjects)]


def from_records(recs, schema, horizon):
    """A cohort from records (:class:`SubjectRecord`), which carry
    measurements only; the cohort derives the rest."""
    if not recs:
        raise ConfigError("cannot build a cohort from zero records")
    ids, base, fue, reason, y = [], [], [], [], []
    t, mon, obs, ovr = [], [], [], []
    for r in recs:
        ids.append(r.subject_id)
        base.append([r.baseline[f.name] for f in schema.fields])
        fue.append(r.followup_end)
        reason.append(_REASON_CODE[r.end_reason])
        y.append(np.nan if r.outcome_y is None else r.outcome_y)
        for row in r.rows:
            t.append(row.t)
            mon.append(row.monitor)
            obs.append(row.observed_marker)
            ovr.append(row.override_flag)
    return Cohort(
        subject_ids=ids, baseline=np.array(base, dtype=np.float64),
        schema=schema, horizon=horizon, followup_end=fue,
        end_reason=reason, outcome_y=y, t=t, monitor=mon,
        observed_marker=obs, override_flag=ovr,
    )


def scipy_log_likelihood(y, mu, w, family):
    """Weighted log-likelihood through ``xlogy`` and ``gammaln``."""
    if family == BINOMIAL_LOGIT:
        return float(np.sum(w * (xlogy(y, mu) + xlogy(1 - y, 1 - mu))))
    return float(np.sum(w * (xlogy(y, mu) - mu - gammaln(y + 1.0))))


def horizon_responses(ds):
    """Horizon responses read off an expanded dataset, one row per clone
    still at risk at the horizon month."""
    K = ds.horizon
    mask = (ds.t == K) & (ds.at_risk == 1)
    return HorizonTable(
        subject_idx=ds.subject_idx[mask],
        x_idx=ds.x_idx[mask],
        y=ds.response_y[mask],
        d=ds.response_d[mask].astype(np.float64),
        uncensored=(ds.horizons > K) & (ds.cohort.followup_end[:, None] == K),
    )


def weight_summary(ds, w, truncated_fraction):
    """Distribution of the weights ``w`` of the expanded dataset ``ds`` over
    its at-risk rows, for the run report."""
    return _summary(w[ds.at_risk == 1], truncated_fraction)


def fit_horizon_rows(cohort, grid, spec, subject_idx, x_idx, response,
                     weights):
    """The MSM fit of the given horizon rows, on those with a response and a
    positive weight, from a design built for them alone."""
    design, rows = _kept(_msm_design(_terms(cohort, grid, spec), subject_idx,
                                     x_idx), x_idx, response, weights)
    return _fit_horizon_msm(cohort, spec, design, response[rows],
                            subject_idx[rows])


def _fit_at_horizon(ds, w, spec, response):
    mask = (ds.t == ds.horizon) & (ds.at_risk == 1)
    return fit_horizon_rows(ds.cohort, ds.grid, spec, ds.subject_idx[mask],
                            ds.x_idx[mask], response[mask], w[mask])


def fit_outcome_msm(ds, w, spec=MsmSpec()):
    """Outcome MSM: weighted Poisson regression of failure at the horizon,
    on the expanded dataset ``ds`` with row weights ``w``."""
    return _fit_at_horizon(ds, w, spec, ds.response_y)


def fit_resource_msm(ds, w, spec=MsmSpec()):
    """Resource MSM: weighted log-linear regression of the measurement count,
    on the expanded dataset ``ds`` with row weights ``w``."""
    return _fit_at_horizon(ds, w, spec, ds.response_d.astype(np.float64))


def standardize_per_threshold(fit, cohort, grid, spec=MsmSpec(),
                              multiplicity=None):
    """:func:`rcds.standardize` one threshold at a time over every subject:
    the multiplicity-weighted mean of the subjects' predictions at each x,
    each from the subject's full design row x at that x, with the fit's
    coefficients on its columns and ``exp(DEGENERATE_ETA)`` wherever x·d
    is below ``-CERT_TOL`` for one of the fit's boundary directions d."""
    base_X, base_names = baseline_design(cohort, spec.baseline_terms)
    sb, snames = _strategy_basis(grid.xs, spec.knots_for(grid))
    names = ["intercept", *snames, *base_names]
    coef = np.zeros(len(names))
    coef[[names.index(c) for c in fit.columns]] = fit.coef
    n = cohort.n_subjects
    m = np.ones(n) if multiplicity is None else multiplicity
    out = np.empty(len(grid))
    for j in range(len(grid)):
        X = np.column_stack([np.ones(n), np.tile(sb[j], (n, 1)), base_X])
        lp = X @ coef
        for d in fit.directions:
            lp[X @ d < -CERT_TOL] = DEGENERATE_ETA
        out[j] = np.sum(m * np.exp(np.clip(lp, -300, 300))) / m.sum()
    return out


def constant_columns(design):
    """Names of the non-intercept columns that are constant over the rows
    with positive case weight; such a column is collinear with the intercept."""
    X = design.X
    pos = design.weights > 0
    if not pos.all():
        X = X[pos]
    const = np.all(X == X[:1], axis=0)
    return tuple(nm for nm, c in zip(design.columns[1:], const[1:]) if c)


def window_bounds(strategy, last_marker, override):
    """Permitted-gap window ``(lo, hi)`` in force, elementwise over states.

    The override flag takes precedence; otherwise the carried-forward marker
    decides, and values at or above the threshold use the "above" window.
    """
    (lo_o, hi_o), (lo_b, hi_b), (lo_a, hi_a) = (
        strategy.override_window, strategy.window_below, strategy.window_above)
    ovr = np.asarray(override) == 1
    below = np.asarray(last_marker) < strategy.x
    lo = np.where(ovr, lo_o, np.where(below, lo_b, lo_a))
    hi = np.where(ovr, hi_o, np.where(below, hi_b, hi_a))
    return lo, hi


def carried_history(monitor, observed_marker):
    """One subject's carried-forward marker and months since the last visit
    per month, and its visit count, walked month by month from the
    monitored entry month."""
    last, since = [], []
    for visit, marker in zip(monitor, observed_marker):
        if visit == 1:
            current, gap = marker, 0
        else:
            gap += 1
        last.append(current)
        since.append(gap)
    return last, since, sum(int(v) for v in monitor)


def carried_columns(cohort):
    """``(last_observed_marker, months_since, d_total)`` of ``cohort``, one
    subject at a time by :func:`carried_history`."""
    last, since, d_total = [], [], []
    for lo, hi in zip(cohort.offsets[:-1], cohort.offsets[1:]):
        a, b, d = carried_history(cohort.monitor[lo:hi],
                                  cohort.observed_marker[lo:hi])
        last += a
        since += b
        d_total.append(d)
    return (np.array(last, dtype=np.float64), np.array(since, dtype=np.int64),
            np.array(d_total, dtype=np.int64))


def applicable_window(strategy, last_marker, override_flag):
    """Window in force given an observed state (see :func:`window_bounds`)."""
    lo, hi = window_bounds(strategy, last_marker, override_flag)
    return int(lo), int(hi)


def consistency_horizon(strategy, record):
    """First month the record deviates from the strategy, or horizon + 1.

    The decision at month t is governed by the state observed at t - 1:
    deviation happens when a visit occurs with the pre-decision gap outside
    the applicable window ``[lo, hi]``, or when no visit occurs with the gap
    at or past ``hi`` (the required visit is missed in the month it is due).
    Month 0 never deviates: a record enters at a visit.
    """
    rows = record.rows
    last, since, _ = carried_history([r.monitor for r in rows],
                                     [r.observed_marker for r in rows])
    for k in range(1, len(rows)):
        lo, hi = applicable_window(strategy, last[k - 1],
                                   rows[k - 1].override_flag)
        gap = since[k - 1] + 1
        visit = rows[k].monitor == 1
        if (gap < lo or gap > hi) if visit else gap >= hi:
            return rows[k].t
    return record.horizon + 1


def per_strategy_horizon_matrix(cohort, grid):
    """Vectorized consistency horizons, one row per subject, one column per x.

    Equals ``consistency_horizon`` applied to every (subject, strategy) pair;
    months with no deviation through follow-up yield ``horizon + 1``.
    """
    prev_last, prev_ovr, gap = cohort.prev_state()
    t = cohort.t
    monitored = cohort.monitor == 1
    decision = cohort.decision_rows()  # month 0, the entry visit, is not one
    starts = cohort.offsets[:-1]
    big = cohort.horizon + 1
    n, k = cohort.n_subjects, len(grid)
    out = np.empty((n, k), dtype=np.int64)
    for j, strat in enumerate(grid):
        lo, hi = window_bounds(strat, prev_last, prev_ovr)
        dev = decision & np.where(monitored, (gap < lo) | (gap > hi),
                                  gap >= hi)
        month = np.where(dev, t, big)
        out[:, j] = np.minimum.reduceat(month, starts)
    return out


def _observational_decision(params):
    def decide(t, last_marker, override, gap, u):
        p = monitor_probability(params, last_marker, gap, override)
        return u < p, p
    return decide


def _forced_decision(params, strategy, rule):
    def decide(t, last_marker, override, gap, u):
        lo, hi = window_bounds(strategy, last_marker, override)
        if rule == "earliest":
            return gap >= lo, None
        if rule == "latest":
            return gap >= hi, None
        # natural: observational timing conditioned to the permitted window
        p = monitor_probability(params, last_marker, gap, override)
        p = np.where(gap < lo, 0.0, np.where(gap >= hi, 1.0, p))
        return u < p, None
    return decide


def _run_kernel(params, n, draws, decide, keep_probs=False):
    """Shared transition kernel; observational and forced modes differ only
    in the monitoring decision rule passed in."""
    K = params.horizon
    U = params.marker_init_mean + params.marker_init_sd * draws["normal"][:, 0]
    last = U.copy()
    m = np.zeros(n, dtype=np.int64)
    clock = np.zeros(n, dtype=np.int64)
    flare = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)
    override = np.zeros(n, dtype=np.int8)
    fue = np.full(n, K, dtype=np.int64)

    mon = np.zeros((n, K + 1), dtype=np.int8)
    obs = np.full((n, K + 1), np.nan)
    ovr = np.zeros((n, K + 1), dtype=np.int8)
    probs = np.full((n, K + 1), np.nan) if keep_probs else None

    mon[:, 0] = 1
    obs[:, 0] = U
    base_marker = U.copy()

    for t in range(1, K + 1):
        U = (params.drift_intercept + params.drift_slope * U
             + params.drift_sd * draws["normal"][:, t])
        flare |= (~flare) & (draws["flare"][:, t] < params.override_hazard)
        gap = m + 1
        visit, p = decide(t, last, override, gap, draws["monitor"][:, t])
        if keep_probs:
            probs[:, t] = p
        reset = visit & (draws["rescue"][:, t] < params.resuppress_prob)
        detected = visit & (failed | flare)
        clock = np.where(reset, 0, clock + 1)
        p_fail = expit(params.fail_intercept + params.fail_clock * clock
                       + params.fail_marker * U)
        failed |= (~failed) & (draws["fail"][:, t] < p_fail)
        last = np.where(visit, U, last)
        override = np.where(visit, detected.astype(np.int8), override)
        flare = np.where(visit, False, flare)
        m = np.where(visit, 0, gap)
        mon[:, t] = visit
        obs[:, t] = np.where(visit, U, np.nan)
        ovr[:, t] = override
        if t < K:
            drop = (draws["dropout"][:, t] < params.dropout_hazard) & (fue == K)
            fue = np.where(drop, t, fue)

    return {
        "mon": mon, "obs": obs, "ovr": ovr,
        "fue": fue, "failed": failed, "base_marker": base_marker,
        "probs": probs,
    }


def _pack_cohort(params, raw, draws):
    K = params.horizon
    n = raw["fue"].size
    fue = raw["fue"]
    tgrid = np.arange(K + 1)
    keep = tgrid[None, :] <= fue[:, None]
    y = np.where(fue == K, raw["failed"].astype(np.float64), np.nan)
    reason = np.where(
        fue == K, _REASON_CODE["administrative_end"], _REASON_CODE["lost"]
    )
    t_flat = np.broadcast_to(tgrid, (n, K + 1))[keep]
    return Cohort(
        subject_ids=[f"s{i:07d}" for i in range(n)],
        baseline=_baseline_values(draws, raw["base_marker"]),
        schema=SIM_SCHEMA,
        horizon=K,
        followup_end=fue,
        end_reason=reason,
        outcome_y=y,
        t=t_flat,
        monitor=raw["mon"][keep],
        observed_marker=raw["obs"][keep],
        override_flag=raw["ovr"][keep],
    )


def simulate_cohort(params, n, seed):
    """The observational cohort, one subject vector at a time."""
    draws = _draws((seed, 0), n, params.horizon)
    raw = _run_kernel(params, n, draws, _observational_decision(params))
    return _pack_cohort(params, raw, draws)


def simulate_forced(params, strategy, n, rule="earliest", *, seed):
    """``n`` subjects forced to follow one strategy, one subject vector at a
    time.

    ``rule`` picks the within-window visit time: ``earliest`` monitors the
    first permitted month (gap = lo), ``latest`` the last (gap = hi), and
    ``natural`` draws the visit from the observational law conditioned to
    the permitted window (never before lo, surely at hi).
    """
    if rule not in FORCED_RULES:
        raise ConfigError(f"unknown forced rule {rule!r}")
    draws = _draws((seed, 1), n, params.horizon)
    raw = _run_kernel(params, n, draws, _forced_decision(params, strategy, rule))
    return _pack_cohort(params, raw, draws)


def oracle_truth(params, grid, n_mc, *, seed):
    """Ground-truth counterfactual (risk, usage) per strategy by forced Monte
    Carlo.

    Every subject is forced onto each strategy in turn by the natural
    within-window visit rule, reusing one set of random draws across
    thresholds (common random numbers). The MC standard error is the
    per-subject sample sd divided by sqrt(n_mc). Loss to follow-up is
    independent of everything in this process, so forced runs disable it
    rather than discard truncated subjects; the counterfactual means are
    unchanged.
    """
    params.validate()
    if n_mc < 1000:
        raise ConfigError("oracle needs n_mc >= 1000")
    xs = grid.xs

    noloss = replace(params, dropout_hazard=0.0)
    draws = _draws((seed, 2), n_mc, params.horizon)
    risk = np.empty(len(grid))
    usage = np.empty(len(grid))
    risk_se = np.empty(len(grid))
    usage_se = np.empty(len(grid))
    for j, strat in enumerate(grid):
        raw = _run_kernel(noloss, n_mc, draws,
                          _forced_decision(noloss, strat, "natural"))
        y = raw["failed"].astype(np.float64)
        d = raw["mon"].sum(axis=1).astype(np.float64)
        risk[j] = y.mean()
        usage[j] = d.mean()
        risk_se[j] = y.std(ddof=1) / np.sqrt(n_mc)
        usage_se[j] = d.std(ddof=1) / np.sqrt(n_mc)
    return TruthTable(xs, risk, risk_se, usage, usage_se, n_mc)
