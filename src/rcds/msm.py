"""Dynamic marginal structural models over the strategy grid.

Two weighted Poisson-log models are fit on horizon responses of the
replicated-and-censored dataset: one for the binary failure outcome (a
log-binomial surrogate whose variance misspecification is harmless because
intervals come from the bootstrap) and one for the measurement count. The
strategy enters through a restricted cubic spline; baseline covariates are
adjusted for and then standardized out against the cohort's empirical
baseline distribution.

The estimator runs through one :class:`Plan` per cohort. The plan builds
once what does not depend on the case weights: the horizon table, the
monitoring design and its marker knots, the censoring-weight factor layout
for the horizon cells, and the MSM terms (strategy knots and basis, baseline
design) that the MSM design and standardization share. Standardization is
factorized: k + n exponentials per curve, not k·n. ``Plan.run(None)`` is
the point estimate; the subject-level bootstrap calls
``Plan.run(multiplicity)`` per replicate, which refits the monitoring model,
rebuilds the weights, refits both MSMs and standardizes them.
Every fit runs on its rows of positive case weight only, so a replicate's
fits and its standardization skip the subjects its resample left out.
Weighted or not, truncated or not, every run takes this path. A fit drops
the columns constant over its rows first; a cell with no events, whose
fitted mean has its MLE at zero, is pinned there by one rule that runs only
after a fit fails and reads only the design and its event rows
(:func:`_face`), whatever rows the face keeps; its support test is
:func:`rcds.glm._on_support`, which the monitoring fit shares.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # loaded now, not lazily at the bootstrap's first seed

from .cohort import CATEGORICAL, baseline_design, baseline_fields
from .errors import (
    BootstrapUnstable,
    ConfigError,
    DegenerateResponse,
    NonConvergence,
    PositivityViolation,
    RankError,
    SeparationError,
)
from .expansion import horizon_table
from .glm import (CERT_TOL, FACE_TOL, POISSON_LOG, DesignMatrix, GlmFit,
                  _null, _on_support, constant_columns, fit_glm, rcs_basis)
from .strategies import WindowCells
from .weights import (
    CensoringWeightPlan,
    MonitorFeatureSpec,
    _summary,
    _without,
    fit_monitor_model,
    monitor_design,
)

DEGENERATE_ETA = -30.0
MAX_FAILED_FRACTION = 0.05  # of bootstrap replicates that may fail to fit
MAX_REPLICATES = 100_000


@dataclass(frozen=True)
class MsmSpec:
    """Model layout shared by the outcome and resource MSMs."""

    strategy_knots: tuple | None = None  # None: percentiles 5/35/65/95 of the grid
    baseline_terms: object = "all"

    def knots_for(self, grid):
        if self.strategy_knots is not None:
            k = np.asarray(self.strategy_knots, dtype=np.float64)
            if k.size < 3:
                raise ConfigError("strategy spline needs at least 3 knots")
            return k
        xs = grid.xs
        if xs.size >= 4:
            return np.percentile(xs, [5, 35, 65, 95])
        if xs.size == 3:
            return xs.astype(np.float64)
        return None  # tiny grid: linear in x


@dataclass
class WeightOptions:
    """How inverse-probability weights are built for the MSM stage: the
    censoring weights of :mod:`rcds.weights`, or none at all."""

    truncation: float | None = None
    weighting: str = "ip"         # "ip" | "none" (diagnostic, unweighted)
    monitor_spec: MonitorFeatureSpec = MonitorFeatureSpec()

    def __post_init__(self):
        if self.weighting not in ("ip", "none"):
            raise ConfigError("weighting must be one of ('ip', 'none')")
        if self.truncation is not None and not 0 < self.truncation <= 100:
            raise ConfigError("truncation percentile must be in (0, 100]")


@dataclass
class DoseResponseTable:
    """Standardized (risk, usage) per threshold with bootstrap intervals."""

    xs: np.ndarray
    risk: np.ndarray
    usage: np.ndarray
    risk_lo: np.ndarray
    risk_hi: np.ndarray
    usage_lo: np.ndarray
    usage_hi: np.ndarray
    n_atrisk: np.ndarray
    risk_se: np.ndarray | None = None
    usage_se: np.ndarray | None = None
    n_boot: int = 0
    n_failed: int = 0
    n_pinned: int = 0  # successful replicates in which an MSM pinned cells
    failed_by_code: dict = field(default_factory=dict)  # error code: count

    def __len__(self):
        return self.xs.size

    @classmethod
    def point_only(cls, xs, risk, usage, n_atrisk):
        nan = np.full(xs.size, np.nan)
        return cls(xs=xs, risk=risk, usage=usage, risk_lo=nan.copy(),
                   risk_hi=nan.copy(), usage_lo=nan.copy(),
                   usage_hi=nan.copy(), n_atrisk=n_atrisk)


def _strategy_basis(xvals, knots):
    if knots is None:
        return xvals[:, None], ["x"]
    basis = rcs_basis(xvals, knots)
    names = ["x"] + [f"x_rcs{i}" for i in range(1, basis.shape[1])]
    return basis, names


def _terms(cohort, grid, spec):
    """The MSM's column names, its strategy basis at every threshold and
    every subject's baseline design: what the MSM design and
    :func:`standardize` share, built once per plan."""
    base_X, base_names = baseline_design(cohort, spec.baseline_terms)
    sb, snames = _strategy_basis(grid.xs, spec.knots_for(grid))
    return ["intercept", *snames, *base_names], sb, base_X


def _msm_design(terms, subject_idx, x_idx):
    """The MSM design of the clones ``(subject_idx, x_idx)`` from
    :func:`_terms`, gathered column by column into the column-ordered
    design, so no row-ordered copy is made."""
    names, sb, base_X = terms
    X = np.empty((x_idx.size, len(names)), order="F")
    X[:, 0] = 1.0
    for j, (col, at) in enumerate([*((c, x_idx) for c in sb.T),
                                   *((c, subject_idx) for c in base_X.T)], 1):
        X[:, j] = col.take(at)
    return DesignMatrix(X, names)


def _degenerate_fit(columns):
    coef = np.zeros(len(columns))
    coef[0] = DEGENERATE_ETA
    return GlmFit(coef=coef, columns=list(columns), family=POISSON_LOG,
                  iterations=0, cond=1.0, degenerate=True)


# Rectifier steps, and every how many steps a support is tried: no face of 16
# small cohorts' bootstraps took over 4025 (65 ms); 10000 take 15 s at 20k.
FACE_STEPS = 10000
FACE_TRY = 25


def _face(X, response):
    """A direction d in which the Poisson-log MLE of ``response`` on ``X``
    does not exist, the rows it keeps and the columns that stay on them, or
    None (Haberman 1974): X d = 0 on the rows with events, X d ≤ 0 on all
    and X d < 0 on the rows whose fitted mean goes to zero, which leave.
    The rule reads only the design and which rows have events.

    d is found by the iterative rectifier of Correia, Guimarães & Zylkin
    (2019), run in the null space N of the event rows, so that X d = 0 holds
    on them by construction. The event-free rows of X N, each scaled to
    unit length, are the rows of A. From u = 1, the rectifier projects u
    onto the columns of A and clips the projection û at zero. Against any
    certificate v ≥ 0 in the columns of A, ⟨u, v⟩ never falls, so û keeps
    an entry of at least 1 while one exists. The iterates converge to
    û ≥ 0, but can do so slowly, so every FACE_TRY steps the rows where û is
    positive are tried as the support of an exact certificate
    (:func:`rcds.glm._on_support`). d = -N·c is scaled so that it moves no
    linear predictor by more than 1. In order of |d_j|, smallest first (within
    1e-6, latest first), the rank rule of :func:`rcds.glm.fit_glm` over the
    kept rows drops each column dependent on those before it.
    """
    events = response > 0
    N = _null(X[events], np.linalg.norm(X, axis=0).max())
    X0 = X[~events]
    A = X0 @ N
    norms = np.linalg.norm(A, axis=1)
    # a row in the span of the event rows is 0 up to rounding: it stays 0
    live = norms > FACE_TOL * np.linalg.norm(X0, axis=1)
    A[live] /= norms[live, None]
    A[~live] = 0.0
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    Q = U[:, :int(np.sum(s > FACE_TOL * s.max(initial=0.0)))]
    if not Q.size:
        return None
    u = np.ones(A.shape[0])
    for step in range(1, FACE_STEPS + 1):
        uhat = Q @ (Q.T @ u)
        if not uhat.max() >= 1 - 1e-9:  # no certificate
            return None
        settled = uhat.min() >= -FACE_TOL * uhat.max()
        if settled or step % FACE_TRY == 0:
            c = _on_support(A, uhat)
            if c is not None:
                break
            if settled:
                return None
        u = np.maximum(uhat, 0.0)
    else:
        return None
    d = -N @ c
    xd = X @ d
    d, xd = d / -xd.min(), xd / -xd.min()
    rows = xd >= -CERT_TOL
    if not rows[events].all() or np.any(xd > CERT_TOL):
        return None
    size = np.round(np.abs(d[1:]) / np.abs(d).max(), 6)
    order = np.r_[0, 1 + np.lexsort((-np.arange(size.size), size))]
    diag = np.abs(np.diag(np.linalg.qr(X[rows][:, order], mode="r")))
    cols = np.zeros(d.size, dtype=bool)
    cols[order[:diag.size]] = diag >= 1e-10 * diag.max()
    return d, rows, cols


def _labels(cohort, terms, subjects, neg, dropped):
    """What a certificate pinned: the categorical baseline levels, as
    ``"field=level"``, whose rows ``neg`` holds all of, else the columns it
    dropped."""
    levels = [(f"{f.name}={lv}", cohort.baseline[subjects, j] == c)
              for j, f in baseline_fields(cohort.schema, terms)
              if f.kind == CATEGORICAL for c, lv in enumerate(f.levels)]
    return [nm for nm, rows in levels if rows.any() and neg[rows].all()] \
        or dropped


def _kept(design, x_idx, response, weights):
    """The rows of the MSM ``design`` with a ``response`` and a positive case
    weight, weighted by ``weights``, and their indices. Refuses rows that
    cover fewer than 2 thresholds, since the strategy curve is then not
    identifiable."""
    weights = np.where(np.isnan(response), 0.0, weights)
    rows = np.flatnonzero(weights > 0)
    if not rows.size:
        raise ConfigError("no usable horizon responses")
    if np.count_nonzero(np.bincount(x_idx.take(rows))) < 2:
        raise ConfigError(
            "horizon responses cover fewer than 2 distinct thresholds; the "
            "strategy curve is not identifiable"
        )
    return design.weighted_rows(weights), rows


def _fit_horizon_msm(cohort, spec, design, response, subjects, start=None):
    """Weighted Poisson fit of horizon responses on spline(x) + baseline terms.

    The fit runs on the kept rows of the MSM design (:func:`_kept`), their
    responses and subjects, from ``start``. It carries no standard errors:
    the intervals come from the bootstrap. The columns constant over the
    rows, which carry nothing, leave first, and the fit then starts cold.

    A cell with no events, as an event-free baseline level or threshold,
    can have its MLE at a fitted mean of zero; IRLS then diverges. When a
    fit fails, a :func:`_face`, found from the design and its event rows
    alone, pins the rows it moves to a zero mean, even if only the event
    rows stay (the extended MLE), and the fit runs again, cold and with
    ``qr`` set (:func:`rcds.glm.fit_glm`), on the rows and columns it keeps;
    without a face the failure is raised. ``fit.pinned`` names what each
    round pinned (:func:`_labels`), ``fit.directions`` its direction over
    the full columns.
    """
    if not np.any(response > 0):
        warnings.warn("all horizon responses are zero; returning a curve "
                      "pinned at zero", DegenerateResponse)
        return _degenerate_fit(design.columns)
    columns, pinned, directions, qr = design.columns, [], [], False
    if constant := constant_columns(design):
        design, start = _without(design, constant), None
    while True:
        try:
            fit = fit_glm(design, response, POISSON_LOG, start=start, qr=qr)
            break
        except (RankError, NonConvergence):
            if (face := _face(design.X, response)) is None:
                raise
            d, rows, cols = face
            dropped = np.compress(~cols, design.columns).tolist()
            pinned += _labels(cohort, spec.baseline_terms, subjects, ~rows,
                              dropped)
            directions.append(np.zeros(len(columns)))
            directions[-1][[columns.index(c) for c in design.columns]] = d
            design = _without(design.weighted_rows(design.weights * rows),
                              dropped)
            response, subjects = response.compress(rows), subjects.compress(rows)
            start, qr = None, True
    fit.pinned, fit.directions = tuple(pinned), tuple(directions)
    return fit


def standardize(fit, cohort, grid, spec=MsmSpec(), multiplicity=None,
                terms=None):
    """Standardized mean per threshold over the empirical baseline distribution.

    For each x the strategy basis is pinned at x, predictions are taken for
    every subject's baseline covariates, and their (multiplicity-weighted)
    mean is returned; equal, up to rounding, to averaging
    :func:`rcds.glm.predict` over an assembled per-x design. The linear
    predictor of threshold j and subject i is a_j + b_i, so the mean is
    exp(a_j) times one multiplicity-weighted sum of exp(b_i) over the
    subjects with positive multiplicity: k + n exponentials, shifted by the
    largest b_i so that none overflows. A column the fit dropped (see
    :func:`_fit_horizon_msm`) has coefficient 0. A (threshold, subject)
    cell whose design row x has x·d < -CERT_TOL for a direction d of the
    fit is cut: it is predicted ``exp(DEGENERATE_ETA)``, and the kept and
    the cut mass come from two products with the (thresholds, subjects)
    cut mask; a fit without directions cuts nothing and makes no such
    array. ``terms`` are the plan's :func:`_terms`, built here if not given.
    """
    names, sb, base_X = _terms(cohort, grid, spec) if terms is None else terms
    m = np.ones(cohort.n_subjects) if multiplicity is None else \
        np.asarray(multiplicity, dtype=np.float64)
    pos = m > 0
    m_pos = m[pos]
    p = 1 + sb.shape[1]  # intercept and strategy basis, then baseline terms
    coef = np.zeros(len(names))  # 0 for a column the fit dropped
    coef[[names.index(c) for c in fit.columns]] = fit.coef
    b = (base_X @ coef[p:])[pos]
    shift = b.max(initial=-np.inf)
    mass = m_pos * np.exp(b - shift)
    kept, cut = mass.sum(), 0.0
    if fit.directions:
        out = np.zeros((sb.shape[0], m_pos.size), dtype=bool)
        for d in fit.directions:
            out |= ((d[0] + sb @ d[1:p])[:, None]
                    + (base_X @ d[p:])[pos]) < -CERT_TOL
        kept, cut = ~out @ mass, out @ m_pos
    a = coef[0] + sb @ coef[1:p]
    return (np.exp(a + shift) * kept + np.exp(DEGENERATE_ETA) * cut) / m.sum()


_REPLICATE_ERRORS = (SeparationError, NonConvergence, RankError,
                     PositivityViolation, ConfigError)


def _warm_start(fit, columns):
    """A fit's coefficients as IRLS starting values for later fits with the
    plan's columns; None for a degenerate fit or one with fewer columns."""
    if fit.degenerate or fit.columns != columns:
        return None
    return fit.coef


class Plan:
    """One cohort's estimator, with everything its runs share built once.

    The plan holds the horizon table, the monitoring design with its marker
    knots, the censoring-weight factor layout of the horizon cells, the MSM
    terms (:func:`_terms`) and the MSM design. Per decision month it keeps
    the monitoring design's float64 row, its response (bool) and subject
    (intp); and the early and due masks (bool), each window side's column
    (the narrow type of ``jstar``) and the month (that of the horizon) of
    :class:`rcds.weights.CensoringWeightPlan`, which also keeps each factor
    row's decision-month index and cell (intp). The build's own table,
    :class:`rcds.strategies.WindowCells`, is dropped once both are built.
    :meth:`run` fits the monitoring model with the run's case weights,
    builds the horizon weights from the fixed factor rows (and truncates
    them), fits both MSMs on the rows of the fixed design that the run's
    weights keep and standardizes them: the point estimate and every
    bootstrap replicate take this one path, whatever the weight options.
    """

    def __init__(self, cohort, grid, spec=MsmSpec(), wopts=WeightOptions()):
        self.cohort, self.grid, self.spec, self.wopts = cohort, grid, spec, wopts
        cells = WindowCells(cohort, grid)
        self.ht = ht = horizon_table(cohort, grid, cells)
        self.terms = _terms(cohort, grid, spec)
        self.msm_design = _msm_design(self.terms, ht.subject_idx, ht.x_idx)
        self.monitor = self.factors = None
        if wopts.weighting == "ip":
            self.monitor = monitor_design(cohort, wopts.monitor_spec, cells)
            self.factors = CensoringWeightPlan(cells, ht.subject_idx,
                                               ht.x_idx)
        # the point run's monitoring model, WeightSummary and the names each
        # MSM pinned (outcome, resource), once run
        self.monitor_model = self.weights = self.pinned = None
        self.starts = (None, None, None)  # monitor, outcome, resource

    def _horizon_weights(self, multiplicity):
        """Case weights of the horizon rows, the monitoring model, and the
        share of the rows whose weight the truncation cap lowered."""
        ht, wopts = self.ht, self.wopts
        model, lowered = None, 0.0
        if self.monitor is None:
            w = np.ones(ht.subject_idx.size)
        else:
            model = fit_monitor_model(self.monitor, multiplicity,
                                      self.starts[0])
            w = self.factors.horizon_weights(self.monitor.probabilities(model))
        if wopts.truncation is not None and w.size:
            cap = np.percentile(
                np.repeat(w, multiplicity[ht.subject_idx].astype(np.int64))
                if multiplicity is not None else w,
                wopts.truncation,
            )
            lowered = float(np.mean(w > cap))
            w = np.minimum(w, cap)
        if multiplicity is not None:
            w = w * multiplicity[ht.subject_idx]
        return w, model, lowered

    def fit(self, multiplicity=None):
        """The monitoring model (None when unweighted) and the outcome and
        resource MSM fits for one set of subject multiplicities. No fit
        carries standard errors, a deviance or a log-likelihood; the
        reported log-likelihood of the point monitoring model is
        :meth:`rcds.weights.MonitorDesign.log_likelihood` of :attr:`monitor`.

        ``None`` gives the point fits; they are kept as :attr:`monitor_model`
        and as warm starts for the replicates that follow, the summary of
        the horizon weights they fit as :attr:`weights`, and the ``pinned``
        names of the outcome and the resource fit as :attr:`pinned`.
        """
        w, model, lowered = self._horizon_weights(multiplicity)
        ht = self.ht
        fits = []
        for response, start in ((ht.y, self.starts[1]), (ht.d, self.starts[2])):
            design, rows = _kept(self.msm_design, ht.x_idx, response, w)
            fits.append(_fit_horizon_msm(
                self.cohort, self.spec, design, response.take(rows),
                ht.subject_idx.take(rows), start))
        fit_y, fit_d = fits
        if multiplicity is None:
            self.monitor_model, self.weights = model, _summary(w, lowered)
            self.pinned = (fit_y.pinned, fit_d.pinned)
            columns = self.msm_design.columns
            self.starts = (
                None if model is None else
                _warm_start(model.fit, self.monitor.matrix.columns),
                _warm_start(fit_y, columns), _warm_start(fit_d, columns))
        return model, fit_y, fit_d

    def run(self, multiplicity=None):
        """Standardized ``(risk, usage)`` curves, and whether either MSM
        pinned cells, for one set of subject multiplicities;
        ``None`` gives the point estimate (see :meth:`fit`)."""
        _, fit_y, fit_d = self.fit(multiplicity)
        risk, usage = (standardize(f, self.cohort, self.grid, self.spec,
                                   multiplicity, self.terms)
                       for f in (fit_y, fit_d))
        return risk, usage, bool(fit_y.pinned or fit_d.pinned)


@dataclass
class PointAnalysis:
    """Point-estimate pipeline output; the point monitoring model and the
    weight summary are :attr:`Plan.monitor_model` and :attr:`Plan.weights`
    of its plan."""

    table: DoseResponseTable
    plan: Plan


def analyze_cohort(cohort, grid, spec=MsmSpec(), wopts=WeightOptions()):
    """Point estimates: :meth:`Plan.run` without multiplicities; no bootstrap.

    The weight diagnostics describe the weights both MSMs fit: one per clone
    still uncensored at the horizon, truncated as configured (unit weights
    when unweighted).
    """
    plan = Plan(cohort, grid, spec, wopts)
    risk, usage, _ = plan.run(None)
    n_atrisk = plan.ht.uncensored.sum(axis=0)
    table = DoseResponseTable.point_only(grid.xs, risk, usage, n_atrisk)
    return PointAnalysis(table=table, plan=plan)


def check_replicates(B):
    """``B``, once it is a replicate count :func:`bootstrap_pipeline` takes."""
    if not 0 <= B <= MAX_REPLICATES:
        raise ConfigError(f"bootstrap B must be from 0 to {MAX_REPLICATES}, "
                          f"got {B}")
    return B


def bootstrap_pipeline(cohort, grid, spec=MsmSpec(), wopts=WeightOptions(),
                       B=200, seed=0):
    """Point estimates plus percentile bootstrap intervals.

    Subjects are resampled with replacement (clones move with their
    subject) and every replicate is one :meth:`Plan.run` of the point
    estimate's plan with the resample's multiplicities: it refits the
    monitoring model, recomputes the weights, refits both MSMs (warm-started
    from the point fits) and restandardizes. Replicates that fail to fit
    are skipped and counted by error code in ``table.failed_by_code``; more
    than ``MAX_FAILED_FRACTION`` of failures raises
    :class:`BootstrapUnstable`, whose message names the codes and the
    message of the first failure of each. Replicates
    in which an MSM pinned cells without events (see
    :func:`_fit_horizon_msm`) count as successes and are reported in
    ``table.n_pinned``. Replicates run one after another and are
    deterministic given the master seed.
    """
    check_replicates(B)
    point = analyze_cohort(cohort, grid, spec, wopts)
    table = point.table
    if B == 0:
        return point
    n = cohort.n_subjects
    ok, failed = [], {}  # error code: [count, the first message]
    for ss in np.random.SeedSequence(seed).spawn(B):
        idx = np.random.default_rng(ss).integers(0, n, n)
        mult = np.bincount(idx, minlength=n).astype(np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateResponse)
            try:
                ok.append(point.plan.run(mult))
            except _REPLICATE_ERRORS as err:
                failed.setdefault(err.code, [0, str(err)])[0] += 1

    table.n_boot, table.n_failed = B, B - len(ok)
    table.failed_by_code = {c: failed[c][0] for c in sorted(failed)}
    if table.n_failed > MAX_FAILED_FRACTION * B:
        causes = ", ".join(f"{c}: {k}" for c, k in table.failed_by_code.items())
        why = "".join(f"; the first {c}: {failed[c][1]}"
                      for c in table.failed_by_code)
        raise BootstrapUnstable(f"{table.n_failed} of {B} bootstrap replicates "
                                f"failed to fit ({causes}){why}")
    risks, usages = (np.array([r[i] for r in ok]) for i in (0, 1))
    table.risk_lo, table.risk_hi = np.percentile(risks, [2.5, 97.5], axis=0)
    table.usage_lo, table.usage_hi = np.percentile(usages, [2.5, 97.5], axis=0)
    table.risk_se, table.usage_se = (
        np.std(a, axis=0, ddof=1) if len(ok) > 1 else np.zeros(len(grid))
        for a in (risks, usages))
    table.n_pinned = sum(r[2] for r in ok)
    return point
