"""Synthetic longitudinal cohorts with a counterfactual oracle.

The data-generating process tracks, per subject and month, a latent marker
(AR(1)), a latent transient "flare" alarm, an absorbing failure state, and a
latent risk clock that monitoring visits can reset. Monitoring decisions read
*only* observed history (carried-forward marker, gap since the last visit,
override flag), which makes sequential exchangeability hold by construction.
The observed override flag updates only at visits, mirroring lab-detected
alarms; windows therefore never switch mid-gap and forced simulation stays
consistent with its strategy.

Within a month the order of events is: latent marker step, flare onset,
monitoring decision, visit effects (measurement, detection, risk-clock reset),
failure onset, dropout.

One transition kernel (:func:`_kernel`) runs the observational cohort and
the oracle's whole grid over segments: a subject with the run of strategies
that have made the same decisions for it so far, and so share its state. On
the default 31-threshold grid a subject ends the horizon with 3.6 segments
on average.
"""

import dataclasses
from dataclasses import dataclass
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from .cohort import (
    CATEGORICAL,
    CONTINUOUS,
    BaselineField,
    BaselineSchema,
    Cohort,
    _REASON_CODE,
)
from .errors import ConfigError
from .glm import logistic
from .strategies import window_bounds

BAND_EDGES = (250.0, 400.0)
BAND_LEVELS = ("lt250", "250to399", "ge400")
# size ceilings: subjects of a cohort or oracle draws, and months of follow-up
MAX_SUBJECTS = 1_000_000
MAX_HORIZON = 600

SIM_SCHEMA = BaselineSchema(fields=(
    BaselineField("sex", CATEGORICAL, ("female", "male")),
    BaselineField("base_marker_band", CATEGORICAL, BAND_LEVELS),
    BaselineField("age", CONTINUOUS),
    BaselineField("calendar", CATEGORICAL, ("era0", "era1", "era2", "era3")),
))


@dataclass(frozen=True)
class DgpParams:
    """Coefficients and hazards of the simulated data-generating process.

    The shipped defaults are calibration knobs, not substantive claims.
    """

    horizon: int = 24
    marker_init_mean: float = 360.0
    marker_init_sd: float = 110.0
    drift_intercept: float = 18.0
    drift_slope: float = 0.96
    drift_sd: float = 28.0
    fail_intercept: float = -2.9
    fail_clock: float = 0.14
    fail_marker: float = -0.009
    resuppress_prob: float = 0.8
    mon_intercept: float = -1.4
    mon_marker: float = -0.005
    mon_gap: float = 0.45
    mon_override: float = 2.2
    override_hazard: float = 0.012
    dropout_hazard: float = 0.004

    def validate(self):
        """Structural checks plus the positivity of the monitoring model.

        Positivity is an assumption of the estimator, so the oracle and
        everything built on it require it; simulation itself does not (see
        :meth:`check_structure`).
        """
        self.check_structure()
        self._check_positivity()

    def check_structure(self):
        """Checks without which the process cannot be simulated at all."""
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must be from 1 to {MAX_HORIZON} "
                              f"months, got {self.horizon}")
        if self.marker_init_sd < 0 or self.drift_sd < 0:
            raise ConfigError("standard deviations must be >= 0")
        if not abs(self.drift_slope) < 1.0:
            raise ConfigError("drift_slope must lie in (-1, 1)")
        for name in ("resuppress_prob", "override_hazard", "dropout_hazard"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0) and not (name == "resuppress_prob" and v == 1.0):
                raise ConfigError(f"{name} must be a probability, got {v}")
        for name in ("marker_init_mean", "drift_intercept", "fail_intercept",
                     "fail_clock", "fail_marker", "mon_intercept", "mon_marker",
                     "mon_gap", "mon_override"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")

    def _check_positivity(self):
        """Monitoring probabilities must stay interior over a plausible state box."""
        sd_stat = self.drift_sd / max(np.sqrt(1 - self.drift_slope ** 2), 1e-9)
        spread = 4.0 * max(self.marker_init_sd, sd_stat)
        mean_stat = self.drift_intercept / max(1 - self.drift_slope, 1e-9)
        lo_m = min(self.marker_init_mean, mean_stat) - spread
        hi_m = max(self.marker_init_mean, mean_stat) + spread
        markers = np.linspace(max(lo_m, 0.0), hi_m, 25)
        gaps = np.arange(1, self.horizon + 2)
        probs = monitor_probability(
            self,
            markers[:, None, None],
            gaps[None, :, None],
            np.array([0, 1])[None, None, :],
        )
        if probs.min() <= 1e-8 or probs.max() >= 1 - 1e-8:
            raise ConfigError(
                "obs_monitor model reaches probabilities of 0/1 on the "
                "plausible state space; positivity fails"
            )

    def to_dict(self):
        return dataclasses.asdict(self)


def monitor_probability(params, last_marker, gap, override):
    """Observational monitoring probability from observed history alone.

    This function is the code boundary that enforces sequential
    exchangeability: it accepts only the carried-forward marker, the months
    elapsed since the last visit, and the override flag.
    """
    logit = (
        params.mon_intercept
        + params.mon_marker * np.asarray(last_marker, dtype=np.float64)
        + params.mon_gap * np.asarray(gap, dtype=np.float64)
        + params.mon_override * np.asarray(override, dtype=np.float64)
    )
    return logistic(logit)


def _observational_decision(params):
    def decide(last_marker, override, gap, u, x):
        return u < monitor_probability(params, last_marker, gap, override)
    return decide


def _forced_decision(params, strategy):
    """Visits forced into the windows of ``strategy``, at the threshold ``x``
    of each state (see :func:`window_bounds`), by the natural rule: the
    observational timing conditioned to the permitted window."""
    def decide(last_marker, override, gap, u, x):
        lo, hi = window_bounds(strategy, last_marker, override, x)
        p = monitor_probability(params, last_marker, gap, override)
        p = np.where(gap < lo, 0.0, np.where(gap >= hi, 1.0, p))
        return u < p
    return decide


def _draws(seed_key, n, horizon, cohort=True):
    """The random streams of ``n`` subjects, in the generator's order: the
    five the transition kernel reads, then, for a cohort, the ``dropout``
    and ``baseline`` draws, which the oracle does not read and so skips."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    draws = {"normal": rng.standard_normal((n, horizon + 1))}
    for key in ("flare", "monitor", "rescue", "fail"):
        draws[key] = rng.random((n, horizon + 1))
    if cohort:
        draws["dropout"] = rng.random((n, horizon + 1))
        draws["baseline"] = rng.random((n, 3))
    return draws


def _kernel(params, draws, decide, xs, rows=slice(None), record=None):
    """The transition kernel over segments of a stack of strategies that
    share their windows, with increasing thresholds ``xs``; returns the
    segments after the last month.

    A segment is one of the b subjects that ``rows`` selects together with
    a run ``[lo, hi)`` of consecutive strategies that share its history so
    far. It carries one copy of that history's state, about 40 bytes:
    carried marker, months since the last visit, risk clock, flare,
    failure, override flag, visit count and this month's visit. Every
    segment reads its subject's draws, so only ``decide`` tells strategies
    apart, and the latent marker, which no decision moves, is one (b,)
    array. Strategies with ``x`` at or below the carried marker use the
    above window and the rest the below one, so within a run the decision
    can change only at ``searchsorted(xs, last, "right")``. Each month a
    segment splits there if the decisions at its first and its last
    strategy differ, and an appended copy of its state takes the upper
    part of the run. So the segments of a subject tile the stack and never
    outnumber it, and a stack of one never splits: its segments stay the
    subjects, in order.

    ``record(t, U, segments)``, if given, sees months t = 0..K after their
    visit effects; month 0 is the baseline visit. Loss to follow-up depends
    on its draws alone and is left to the caller.
    """
    normal, flare_u, monitor_u, rescue_u, fail_u = (
        draws[key][rows] for key in ("normal", "flare", "monitor", "rescue",
                                     "fail"))
    U = params.marker_init_mean + params.marker_init_sd * normal[:, 0]
    b = U.size
    count = np.min_scalar_type(params.horizon + 1)
    s = SimpleNamespace(
        sub=np.arange(b), lo=np.zeros(b, dtype=np.intp),
        hi=np.full(b, len(xs), dtype=np.intp), last=U,
        since=np.zeros(b, dtype=count), clock=np.zeros(b, dtype=count),
        flare=np.zeros(b, dtype=bool), failed=np.zeros(b, dtype=bool),
        override=np.zeros(b, dtype=np.int8), visits=np.ones(b, dtype=count),
        visit=np.ones(b, dtype=bool))
    if record is not None:
        record(0, U, s)
    for t in range(1, params.horizon + 1):
        U = (params.drift_intercept + params.drift_slope * U
             + params.drift_sd * normal[:, t])
        gap, u, x = s.since + 1, monitor_u[s.sub, t], xs[s.lo]
        s.visit = decide(s.last, s.override, gap, u, x)
        at = np.flatnonzero((x <= s.last) & (s.last < xs[s.hi - 1]))
        if at.size:
            later = decide(s.last[at], s.override[at], gap[at], u[at],
                           xs[s.hi[at] - 1])
            at, n = at[later != s.visit[at]], s.sub.size
            for name, v in list(vars(s).items()):  # copies take the upper run
                setattr(s, name, np.concatenate([v, v[at]]))
            s.lo[n:] = s.hi[at] = np.searchsorted(xs, s.last[at], "right")
            s.visit[n:] = ~s.visit[n:]
        sub, visit = s.sub, s.visit
        s.flare |= flare_u[sub, t] < params.override_hazard
        reset = visit & (rescue_u[sub, t] < params.resuppress_prob)
        detected = visit & (s.failed | s.flare)
        s.clock = np.where(reset, 0, s.clock + 1)
        Us = U[sub]
        s.failed |= fail_u[sub, t] < logistic(params.fail_intercept
                                              + params.fail_clock * s.clock
                                              + params.fail_marker * Us)
        s.last = np.where(visit, Us, s.last)
        s.override = np.where(visit, detected.astype(np.int8), s.override)
        s.flare &= ~visit
        s.since = np.where(visit, 0, s.since + 1)
        s.visits += visit
        if record is not None:
            record(t, U, s)
    return s


def _baseline_values(draws, base_marker):
    sex = (draws["baseline"][:, 0] < 0.35).astype(np.float64)
    band = np.digitize(base_marker, BAND_EDGES).astype(np.float64)
    age = np.clip(40.0 + 9.0 * _norm_ppf(draws["baseline"][:, 1]), 18.0, 75.0)
    calendar = np.floor(draws["baseline"][:, 2] * 4).clip(0, 3)
    return np.column_stack([sex, band, age, calendar])


def _norm_ppf(u):
    """Standard normal quantiles of the probabilities ``u`` (1-d)."""
    u = np.clip(u, 1e-12, 1 - 1e-12)
    return np.fromiter(map(NormalDist().inv_cdf, u.tolist()), np.float64,
                       u.size)


def _cohort(params, draws):
    """Run the kernel with the observational decision, record the monthly
    measurements and pack them into a :class:`Cohort`, cut at each
    subject's loss to follow-up: the first month t < K whose dropout draw
    falls below the hazard."""
    K = params.horizon
    n = draws["normal"].shape[0]
    mon = np.empty((n, K + 1), dtype=np.int8)
    obs = np.empty((n, K + 1))
    ovr = np.empty((n, K + 1), dtype=np.int8)

    def record(t, U, s):
        mon[:, t] = s.visit
        obs[:, t] = np.where(s.visit, U, np.nan)
        ovr[:, t] = s.override

    failed = _kernel(params, draws, _observational_decision(params),
                     np.full(1, np.nan), record=record).failed
    drop = draws["dropout"][:, 1:] < params.dropout_hazard
    drop[:, -1] = True  # follow-up ends at K at the latest
    fue = drop.argmax(axis=1) + 1
    tgrid = np.arange(K + 1)
    keep = tgrid[None, :] <= fue[:, None]
    y = np.where(fue == K, failed.astype(np.float64), np.nan)
    reason = np.where(
        fue == K, _REASON_CODE["administrative_end"], _REASON_CODE["lost"]
    )
    t_flat = np.broadcast_to(tgrid, (n, K + 1))[keep]
    return Cohort(
        subject_ids=[f"s{i:07d}" for i in range(n)],
        baseline=_baseline_values(draws, obs[:, 0]),
        schema=SIM_SCHEMA,
        horizon=K,
        followup_end=fue,
        end_reason=reason,
        outcome_y=y,
        t=t_flat,
        monitor=mon[keep],
        observed_marker=obs[keep],
        override_flag=ovr[keep],
    )


def check_subjects(n):
    """``n``, once it is a subject count :func:`simulate_cohort` takes."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    if n > MAX_SUBJECTS:
        raise ConfigError(f"n must be at most {MAX_SUBJECTS}, got {n}")
    return n


def simulate_cohort(params, n, seed):
    """Simulate an observational cohort of ``n`` subjects.

    Identical ``(params, n, seed)`` give a bit-identical cohort. Only the
    structural checks run: a DGP whose monitoring is (near) deterministic
    can be simulated, and the estimator's own positivity guards decide
    whether it can be analyzed.
    """
    params.check_structure()
    draws = _draws((seed, 0), check_subjects(n), params.horizon)
    return _cohort(params, draws)


@dataclass
class TruthTable:
    """Oracle counterfactual means per threshold, with Monte Carlo SEs."""

    xs: np.ndarray
    risk: np.ndarray
    risk_mcse: np.ndarray
    usage: np.ndarray
    usage_mcse: np.ndarray
    n_mc: int


ORACLE_BLOCK = 2048  # subjects the oracle steps at once


def check_oracle(n_mc, rule="natural"):
    """Refuse a draw count or rule that :func:`oracle_truth` does not take."""
    if n_mc < 1000:
        raise ConfigError("oracle needs n_mc >= 1000")
    if n_mc > MAX_SUBJECTS:
        raise ConfigError(f"oracle needs n_mc <= {MAX_SUBJECTS}, got {n_mc}")
    if rule != "natural":
        raise ConfigError(
            f"unknown oracle rule {rule!r}: the oracle simulates only the "
            "natural rule, the regime the censoring weights target")


def oracle_truth(params, grid, n_mc, rule="natural", *, seed):
    """Ground-truth counterfactual (risk, usage) per strategy by forced Monte
    Carlo.

    Every subject is forced onto each strategy by the natural rule: inside
    the permitted window the visit follows the observational law, never
    before its lo and surely at its hi. That is the regime the censoring
    weights target (see :mod:`rcds.weights`), so ``rule`` takes only
    ``"natural"``. One set of random draws serves every threshold (common
    random numbers). The MC standard error is the per-subject sample sd
    divided by sqrt(n_mc). Loss to follow-up is independent of everything
    in this process, so the oracle ignores it rather than discard truncated
    subjects; the counterfactual means are unchanged.

    The whole grid runs through the one transition kernel (see
    :func:`_kernel`), in blocks of ``ORACLE_BLOCK`` subjects. A block holds
    at most k segments per subject, so its state stays below k times
    ``ORACLE_BLOCK`` segments of about 40 bytes whatever n_mc; on the
    default grid it ends with 3.6 per subject on average. Beyond that and the
    draws, the five (n_mc, K + 1) float streams the kernel reads, which no
    step copies, the oracle keeps one failure flag and one visit count per
    strategy and subject, filled from each block's segments. Each strategy's means and SEs reduce
    its own contiguous row of n_mc values, so neither blocks nor segments
    change them.
    """
    params.validate()
    check_oracle(n_mc, rule)
    draws = _draws((seed, 2), n_mc, params.horizon, cohort=False)
    k = len(grid)
    failed = np.empty((k, n_mc), dtype=bool)
    visits = np.empty((k, n_mc), dtype=np.min_scalar_type(params.horizon + 1))
    for start in range(0, n_mc if k else 0, ORACLE_BLOCK):  # empty grid: none
        rows = slice(start, start + ORACLE_BLOCK)
        s = _kernel(params, draws, _forced_decision(params, grid[0]),
                    grid.xs, rows)
        f, v = failed[:, rows], visits[:, rows]
        first = np.zeros(f.shape, dtype=bool)
        first[s.lo, s.sub] = True
        f[s.lo, s.sub], v[s.lo, s.sub] = s.failed, s.visits
        for j in range(1, k):  # a segment's later strategies copy its first
            np.copyto(f[j], f[j - 1], where=~first[j])
            np.copyto(v[j], v[j - 1], where=~first[j])
    risk, risk_se, usage, usage_se = (np.empty(k) for _ in range(4))
    for j in range(k):
        y = failed[j].astype(np.float64)
        d = visits[j].astype(np.float64)
        risk[j] = y.mean()
        usage[j] = d.mean()
        risk_se[j] = y.std(ddof=1) / np.sqrt(n_mc)
        usage_se[j] = d.std(ddof=1) / np.sqrt(n_mc)
    return TruthTable(grid.xs, risk, risk_se, usage, usage_se, n_mc)
