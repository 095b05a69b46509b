"""Monitoring-model fitting and IP-weight algebra."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logit
from scipy.stats import chi2

import rcds.weights
from rcds import (
    DgpParams,
    GlmFit,
    MonitorFeatureSpec,
    PositivityViolation,
    SeparationError,
    StrategyGrid,
    ThresholdStrategy,
    WeightOptions,
    analyze_cohort,
    attach_weights,
    bootstrap_pipeline,
    expand,
    fit_monitor_model,
    horizon_matrix,
    simulate_cohort,
)
from rcds.glm import (BINOMIAL_LOGIT, DEFAULT_MAX_ITER, DesignMatrix, fit_glm,
                      logistic)
from rcds.strategies import WindowCells
from rcds.weights import (
    CensoringWeightPlan,
    _separation_stop,
    _summary,
    _without,
    clone_horizon_weights,
    monitor_design,
)

from conftest import FIXTURE_SCHEMA, _rows
from reference import (
    SubjectRecord,
    consistency_horizon,
    from_records,
    record,
    scipy_log_likelihood,
    weight_summary,
)


@pytest.fixture(scope="module")
def sim_cohort():
    return simulate_cohort(DgpParams(), 4000, seed=51)


LINEAR_SPEC = MonitorFeatureSpec(marker="linear", gap="linear", override=True)


def dgp_monitor_model(p, spec):
    """The DGP's own monitoring law as a monitoring fit on a linear-gap
    spec."""
    coef = {"intercept": p.mon_intercept, "marker": p.mon_marker,
            "gap": p.mon_gap, "override": p.mon_override}
    columns = ["intercept"]
    if spec.marker == "linear":
        columns.append("marker")
    columns.append("gap")
    if spec.override:
        columns.append("override")
    return GlmFit(coef=np.array([coef[c] for c in columns]), columns=columns,
                  family="binomial_logit", iterations=0, cond=1.0)


def probabilities(fit, cohort, spec=LINEAR_SPEC):
    """The visit probability of ``fit`` at every decision month of a
    cohort, under the monitoring design of ``spec``."""
    return monitor_design(cohort, spec).probabilities(fit)


def fit_on(cohort, spec=MonitorFeatureSpec()):
    """The monitoring design of a cohort under ``spec`` and its point fit."""
    design = monitor_design(cohort, spec)
    return design, fit_monitor_model(design)


def fisher_information(design, fit):
    """X'diag(p(1 - p))X of the monitoring design at the fitted p."""
    X = _without(design.matrix, design.dropped(fit)).X
    p = design.probabilities(fit)
    return (X * (p * (1 - p))[:, None]).T @ X


class TestFitMonitorModel:
    def test_coin_flip_monitoring_recovers_null(self):
        p = DgpParams(mon_intercept=0.0, mon_marker=0.0, mon_gap=0.0,
                      mon_override=0.0)
        cohort = simulate_cohort(p, 3000, seed=31)
        design, fit = fit_on(cohort, LINEAR_SPEC)
        coef = fit.coef
        se = np.sqrt(np.diag(np.linalg.inv(fisher_information(design,
                                                              fit))))
        assert abs(coef[0]) < 3 * se[0]
        for k in range(1, coef.size):
            assert abs(coef[k]) < 3.5 * se[k]

    def test_recovers_dgp_coefficients(self):
        # one joint Wald test of all four coefficients at level 0.01, with
        # the Fisher information at the fit
        p = DgpParams()
        cohort = simulate_cohort(p, 20_000, seed=32)
        design, fit = fit_on(cohort, LINEAR_SPEC)
        assert fit.columns == ["intercept", "marker", "gap", "override"]
        truth = np.array([p.mon_intercept, p.mon_marker, p.mon_gap,
                          p.mon_override])
        info = fisher_information(design, fit)
        err = fit.coef - truth
        stat = err @ info @ err
        assert stat < chi2.ppf(0.99, df=4), (
            f"Wald statistic {stat:.2f}: fitted {fit.coef} vs {truth}"
        )

    def test_log_likelihood_matches_scipy(self, sim_cohort):
        # the value weights.yaml reports, against scipy's zero-safe xlogy
        design, fit = fit_on(sim_cohort)
        y = design.monitored.astype(float)
        want = scipy_log_likelihood(y, design.probabilities(fit),
                                    np.ones(y.size), BINOMIAL_LOGIT)
        assert design.log_likelihood(fit) == pytest.approx(want, rel=1e-12,
                                                           abs=0)

    def test_all_monitored_cohort_raises_separation(self):
        p = DgpParams(mon_intercept=10.0, mon_marker=0.0, mon_gap=0.0,
                      mon_override=0.0, dropout_hazard=0.0)
        cohort = simulate_cohort(p, 30, seed=33)
        with pytest.raises(SeparationError):
            fit_on(cohort, LINEAR_SPEC)

    def test_separating_feature_is_named(self):
        # deterministic monitoring at every even gap separates on gap
        from conftest import FIXTURE_K, FIXTURE_SCHEMA
        from reference import TimeRow

        recs = []
        for i in range(40):
            rows = [TimeRow(t=t, monitor=1 - t % 2,
                            observed_marker=300.0 + i + t if t % 2 == 0
                            else float("nan"), override_flag=0)
                    for t in range(13)]
            recs.append(SubjectRecord(
                subject_id=f"p{i}", baseline={"sex": 0.0, "age": 40.0},
                rows=rows, outcome_y=0.0, followup_end=12,
                end_reason="administrative_end", horizon=FIXTURE_K))
        cohort = from_records(recs, FIXTURE_SCHEMA, FIXTURE_K)
        with pytest.raises(SeparationError) as err:
            fit_on(cohort, LINEAR_SPEC)
        assert err.value.feature == "gap"

    @pytest.mark.parametrize("case", ["complete", "quasi"])
    def test_separated_fit_is_certified_soon(self, case):
        # complete: y = z on [1, z]. quasi: q is nonzero on 3 rows, all of
        # them visits, and w does not separate the rest. Either fit ends as
        # a SeparationError naming the separating column, well before
        # glm.DEFAULT_MAX_ITER steps
        if case == "complete":
            y = np.r_[np.zeros(10), np.ones(10)]
            X, columns = np.column_stack([np.ones(20), y]), ["intercept", "z"]
        else:
            rng = np.random.default_rng(0)
            w, q = rng.normal(size=200), np.r_[1.0, 2.0, 0.5, np.zeros(197)]
            y = (rng.random(200) < logistic(w)).astype(float)
            y[:3] = 1.0
            X = np.column_stack([np.ones(200), w, q])
            columns = ["intercept", "w", "q"]
        design, steps = DesignMatrix(X, columns), []
        stop = _separation_stop(design, y > 0)

        def watch(history):
            steps.append(len(history))
            return stop(history)

        with pytest.raises(SeparationError) as err:
            fit_glm(design, y, BINOMIAL_LOGIT, stop=watch)
        assert err.value.feature == columns[-1]
        assert steps[-1] < DEFAULT_MAX_ITER

    def test_valid_dgp_with_a_large_intercept_is_not_refused(self):
        # a valid DGP whose monitoring intercept is -15.5: the MLE exists,
        # with an intercept of about -15.4, and IRLS converges to it
        cohort = simulate_cohort(
            DgpParams(mon_intercept=-15.5, mon_marker=0.02), 1000, seed=1)
        plan = analyze_cohort(cohort, StrategyGrid.default())
        fit = plan.monitor_model
        assert fit.iterations < DEFAULT_MAX_ITER and fit.coef[0] < -15


class TestWeightAlgebra:
    def test_telescoping_row_exact(self, fixture_cohort):
        grid = StrategyGrid.default(x_step=60)
        design, fit = fit_on(fixture_cohort, LINEAR_SPEC)
        ds = expand(fixture_cohort, grid)
        p = design.probabilities(fit)
        weights, _ = attach_weights(ds, p)
        probs = np.full(fixture_cohort.n_rows, np.nan)
        probs[fixture_cohort.decision_rows()] = p
        for i in range(fixture_cohort.n_subjects):
            for j in range(len(grid)):
                rows = np.flatnonzero((ds.subject_idx == i) & (ds.x_idx == j))
                w = weights[rows]
                f = self._factors(fixture_cohort, grid[j], probs, i,
                                  ds.t[rows])
                for k in range(1, w.size):
                    assert w[k] == w[k - 1] * f[k]

    @staticmethod
    def _factors(cohort, strat, probs, i, ts):
        lo_off = cohort.offsets[i]
        prev_last, prev_ovr, gap = cohort.prev_state()
        out = np.ones(ts.size)
        for k, t in enumerate(ts):
            if t == 0:
                continue
            r = lo_off + t
            p = probs[r]
            mon = cohort.monitor[r] == 1
            if prev_ovr[r] == 1:
                lo, hi = strat.override_window
            elif prev_last[r] < strat.x:
                lo, hi = strat.window_below
            else:
                lo, hi = strat.window_above
            g = gap[r]
            if g < lo:
                out[k] = 0.0 if mon else 1 / (1 - p)
            elif g == hi:
                out[k] = 1 / p if mon else 0.0
            else:
                out[k] = 1.0
        return out

    def test_schemes_coincide_for_point_windows(self):
        # with lo == hi every month is a risk month and the censoring factors
        # reduce to inverse decision probabilities on consistent clones: the
        # product over every decision month of 1/p after a visit and
        # 1/(1 - p) after none
        p = DgpParams()
        cohort = simulate_cohort(p, 800, seed=77)
        grid = StrategyGrid.default(x_step=100, window_below=(3, 3),
                                    window_above=(9, 9), override_window=(3, 3))
        design, fit = fit_on(cohort, LINEAR_SPEC)
        p1 = design.probabilities(fit)
        cen = clone_horizon_weights(cohort, p1, grid)
        dec = cohort.decision_rows()
        factor = np.ones(cohort.n_rows)
        factor[dec] = 1.0 / np.where(cohort.monitor[dec] == 1, p1, 1.0 - p1)
        inverse = np.multiply.reduceat(factor, cohort.offsets[:-1])
        from rcds import horizon_table
        ht = horizon_table(cohort, grid)
        assert ht.subject_idx.size > 0
        np.testing.assert_allclose(cen[ht.subject_idx, ht.x_idx],
                                   inverse[ht.subject_idx], rtol=1e-12, atol=0)

    def test_truncation_at_100_is_identity(self, sim_cohort):
        grid = StrategyGrid.default(x_step=60)
        design, fit = fit_on(sim_cohort, LINEAR_SPEC)
        ds = expand(sim_cohort, grid)
        plain, _ = attach_weights(ds, design.probabilities(fit))
        capped, lowered = attach_weights(ds, design.probabilities(fit),
                                         truncation=100.0)
        assert np.array_equal(plain, capped)
        assert lowered == 0.0

    def test_truncation_caps_and_reports(self, sim_cohort):
        grid = StrategyGrid.default(x_step=60)
        design, fit = fit_on(sim_cohort, LINEAR_SPEC)
        ds = expand(sim_cohort, grid)
        plain, _ = attach_weights(ds, design.probabilities(fit))
        capped, lowered = attach_weights(ds, design.probabilities(fit),
                                         truncation=95.0)
        assert capped.max() < plain.max()
        assert lowered > 0.0
        assert np.all(capped <= plain)

    def test_stabilized_decision_mean_near_one(self):
        # E[W] = 1 for the censoring weights of every strategy; with a unit
        # numerator it holds exactly, without stabilization. Checked
        # exactly: one subject per decision path of a short horizon with a
        # fixed latent marker path, each carrying its probability under the
        # model, so sum(P * W) is the expectation. It holds by the tower
        # property: each early or due factor has conditional mean one given
        # the past. The thresholds cut through the marker path, so clones
        # switch between the below and above windows
        from conftest import FIXTURE_SCHEMA
        from reference import TimeRow

        K = 8
        latent = 300.0 + 60.0 * np.sin(np.arange(K + 1))
        recs = []
        for i, path in enumerate(product((0, 1), repeat=K)):
            mon = (1, *path)
            rows = [TimeRow(t=t, monitor=mon[t],
                            observed_marker=latent[t] if mon[t]
                            else float("nan"), override_flag=0)
                    for t in range(K + 1)]
            recs.append(SubjectRecord(
                subject_id=f"p{i}", baseline={"sex": 0.0, "age": 40.0},
                rows=rows, outcome_y=0.0, followup_end=K,
                end_reason="administrative_end", horizon=K))
        cohort = from_records(recs, FIXTURE_SCHEMA, K)
        p1 = probabilities(dgp_monitor_model(DgpParams(), LINEAR_SPEC),
                           cohort)
        visited = cohort.monitor[cohort.decision_rows()] == 1
        prob = np.where(visited, p1, 1.0 - p1).reshape(-1, K).prod(axis=1)
        grid = StrategyGrid.default(x_step=50, window_below=(1, 2),
                                    window_above=(2, 4))
        w = clone_horizon_weights(cohort, p1, grid)
        assert w.max() > 100  # heavy-tailed, as in a long cohort
        for j in range(len(grid)):
            assert abs(np.sum(prob * w[:, j]) - 1.0) < 1e-12, grid.xs[j]

    def test_self_consistent_deterministic_model_gives_unit_weights(self):
        # monitoring near-deterministic given gap: a visit is due at gap 4
        # (probability expit(10 * 4 - 35)); with the DGP's own model as the
        # monitoring model and windows that contain every visit gap, every
        # censoring factor is ~1
        p = DgpParams(mon_intercept=-35.0, mon_marker=0.0, mon_gap=10.0,
                      mon_override=0.0, override_hazard=0.0,
                      dropout_hazard=0.0)
        cohort = simulate_cohort(p, 300, seed=66)
        spec = MonitorFeatureSpec(marker="none", gap="linear", override=False)
        p1 = probabilities(dgp_monitor_model(p, spec), cohort, spec)
        window = (2, 7)
        _, _, gap = cohort.prev_state()
        visits = cohort.decision_rows() & (cohort.monitor == 1)
        assert np.all((gap[visits] >= window[0]) & (gap[visits] <= window[1]))
        grid = StrategyGrid(strategies=(
            ThresholdStrategy(300.0, window, window, window),))
        w = clone_horizon_weights(cohort, p1, grid)
        full = cohort.followup_end == cohort.horizon
        assert np.allclose(w[full, 0], 1.0, atol=1e-3)

    def test_positivity_floor_raises(self, fixture_cohort):
        grid = StrategyGrid.default(x_step=100)
        design, fit = fit_on(fixture_cohort, LINEAR_SPEC)
        fit.coef = fit.coef.copy()
        k = fit.columns.index("gap")
        fit.coef[k] = 30.0  # drives required-visit probabilities to ~1
        ds = expand(fixture_cohort, grid)
        with pytest.raises(PositivityViolation) as err:
            attach_weights(ds, design.probabilities(fit))
        assert err.value.rows


class TestSummaries:
    @pytest.mark.parametrize("truncation", [None, 99.0, 100.0],
                             ids=lambda t: f"censoring-one-{t}")
    def test_report_summary_is_of_fitted_horizon_weights(self, sim_cohort,
                                                         truncation):
        # the report describes the weights both MSMs fit: the row-level
        # horizon weights of the clones uncensored at the horizon, capped at
        # the percentile of those same rows
        grid = StrategyGrid.default(x_step=50)
        plan = analyze_cohort(sim_cohort, grid,
                              wopts=WeightOptions(truncation=truncation))
        ht = plan.ht
        w = clone_horizon_weights(
            sim_cohort, plan.monitor.probabilities(plan.monitor_model),
            grid)[ht.subject_idx, ht.x_idx]
        lowered = 0.0
        if truncation is not None:
            cap = np.percentile(w, truncation)
            lowered = float(np.mean(w > cap))
            w = np.minimum(w, cap)
        assert (lowered > 0) == (truncation == 99.0)
        want, got = _summary(w, lowered), plan.weights
        exact = ("n", "truncated_fraction")
        assert [got[f] for f in exact] == [want[f] for f in exact]
        assert got["n"] == ht.subject_idx.size
        np.testing.assert_allclose(
            [got[f] for f in got if f not in exact],
            [want[f] for f in want if f not in exact], rtol=1e-12, atol=0)

    def test_unweighted_summary_is_unit_weights_at_horizon(self, sim_cohort):
        grid = StrategyGrid.default(x_step=50)
        plan = analyze_cohort(sim_cohort, grid,
                              wopts=WeightOptions(weighting="none"))
        assert plan.weights == _summary(np.ones(plan.ht.x_idx.size), 0.0)

    def test_every_horizon_clone_has_positive_weight(self):
        # a missed required visit censors its clone in the month it is due,
        # so a clone whose factors reach zero never reaches the horizon, and
        # the report counts only clones the fits use
        cohort = simulate_cohort(DgpParams(), 4000, seed=7)
        grid = StrategyGrid.default()
        plan = analyze_cohort(cohort, grid)
        w = clone_horizon_weights(
            cohort, plan.monitor.probabilities(plan.monitor_model), grid)
        months = horizon_matrix(cohort, grid)
        full = (cohort.followup_end == cohort.horizon)[:, None]
        positive = int(np.sum((w > 0) & (months > cohort.horizon) & full))
        assert plan.weights["min"] > 0
        assert plan.weights["n"] == plan.table.n_atrisk.sum() == positive
        assert np.all(months[w == 0] <= cohort.horizon)

    def test_no_run_builds_row_level_weights(self, sim_cohort, monkeypatch):
        # the plan's horizon weights are the only ones a run computes; the
        # row-level paths serve the tests
        def row_level(ctx, strategy):
            raise AssertionError("row-level factor paths built")

        monkeypatch.setattr(rcds.weights, "_censoring_factor_paths",
                            row_level)
        grid = StrategyGrid.default(x_step=50)
        for wopts in (WeightOptions(), WeightOptions(truncation=99.0)):
            analyze_cohort(sim_cohort, grid, wopts=wopts)
            point = bootstrap_pipeline(sim_cohort, grid, wopts=wopts, B=2,
                                       seed=3)
            assert point.table.n_boot == 2 and point.table.n_failed == 0

    def test_one_percentile_pass_equals_separate_calls(self, sim_cohort):
        grid = StrategyGrid.default(x_step=50)
        design, fit = fit_on(sim_cohort)
        ds = expand(sim_cohort, grid)
        w, _ = attach_weights(ds, design.probabilities(fit))
        w = w[ds.at_risk == 1]
        s = _summary(w, 0.0)
        assert (s["p25"], s["median"], s["p75"], s["p99"]) == tuple(
            float(np.percentile(w, q)) for q in (25, 50, 75, 99))

    def test_weight_summary_fields(self, sim_cohort):
        grid = StrategyGrid.default(x_step=100)
        design, fit = fit_on(sim_cohort, LINEAR_SPEC)
        ds = expand(sim_cohort, grid)
        s = weight_summary(ds, *attach_weights(ds, design.probabilities(fit)))
        assert s["n"] > 0
        assert s["min"] <= s["median"] <= s["max"]
        assert set(s) == {"n", "min", "p25", "median", "mean", "p75", "p99",
                          "max", "truncated_fraction"}


THRESHOLDS = (200.0, 250.0, 300.0)


@st.composite
def crossing_cases(draw):
    """A small cohort with decision months whose markers often equal a
    threshold, with override months; a grid of one to three of those
    thresholds under windows drawn small enough that below and above often
    share a bound; and a monitoring model with probabilities well inside the
    floor."""
    K = draw(st.integers(1, 8))
    markers = st.sampled_from((190.0, 200.0, 225.0, 250.0, 300.0, 320.0))
    records = []
    for i in range(draw(st.integers(1, 6))):
        end = draw(st.integers(1 if i == 0 else 0, K))  # a decision month
        spec = [(t, int(t == 0 or draw(st.booleans())), draw(markers),
                 draw(st.sampled_from((0, 0, 1)))) for t in range(end + 1)]
        records.append(SubjectRecord(
            subject_id=f"p{i}", baseline={"sex": 0.0, "age": 40.0},
            rows=_rows(spec), outcome_y=0.0 if end == K else np.nan,
            followup_end=end,
            end_reason="administrative_end" if end == K else "lost",
            horizon=K))
    cohort = from_records(records, FIXTURE_SCHEMA, K)
    lo_b, lo_a, lo_o = (draw(st.integers(1, 4)) for _ in range(3))
    hi_b = draw(st.integers(lo_b, 5))
    hi_a = draw(st.integers(max(lo_a, hi_b), 6))
    hi_o = draw(st.integers(lo_o, 5))
    xs = sorted(draw(st.sets(st.sampled_from(THRESHOLDS), min_size=1)))
    grid = StrategyGrid(tuple(
        ThresholdStrategy(x, (lo_b, hi_b), (lo_a, hi_a), (lo_o, hi_o))
        for x in xs))
    coef = [draw(st.floats(-1.0, 1.0)), draw(st.floats(-0.004, 0.004)),
            draw(st.floats(-0.5, 0.5)), draw(st.floats(-1.0, 1.0))]
    columns = ["intercept", "marker", "gap", "override"]
    fit = GlmFit(coef=np.array(coef), columns=columns,
                 family="binomial_logit", iterations=0, cond=1.0)
    return cohort, grid, fit


# the id names the one weight construction: unit numerator, censoring scheme
@pytest.mark.parametrize("construction", ["one-censoring"])
@given(case=crossing_cases())
def test_crossing_index_matches_row_level(construction, case):
    cohort, grid, fit = case
    p = probabilities(fit, cohort)
    want = clone_horizon_weights(cohort, p, grid)
    # the plan weighs the clones uncensored at the horizon; every clone the
    # row-level paths zero is censored by then
    kept = horizon_matrix(cohort, grid) > cohort.horizon
    got = CensoringWeightPlan(WindowCells(cohort, grid),
                              *np.nonzero(kept)).horizon_weights(p)
    assert got.shape == want[kept].shape
    assert not np.any(kept & (want == 0))
    assert np.array_equal(got == 0, want[kept] == 0)
    np.testing.assert_allclose(got, want[kept], rtol=1e-12, atol=0)


LONG_K = 260  # months past the int8 range of a narrowed month or gap


def long_horizon_cohort():
    """A cohort with horizon ``LONG_K``, which ``rcds simulate`` refuses on
    positivity: visits every 6 months (consistent under every window of the
    test), a 141-month gap, visits every 4 months that turn premature when
    the marker rises at month 152, random visits with a 3-month override
    spell, and a subject lost at 220 who never returns after month 0, so
    misses its due visit at 150 or 200."""
    rng = np.random.default_rng(5)
    markers = (190.0, 200.0, 225.0, 250.0, 300.0, 320.0)
    visits = {  # subject: visit months, marker at month t, followup_end
        "every6": (set(range(0, LONG_K + 1, 6)), None, LONG_K),
        "gap141": ({0, 141, *range(147, LONG_K + 1, 6)}, None, LONG_K),
        "every4": (set(range(0, LONG_K + 1, 4)),
                   lambda t: 190.0 if t < 152 else 320.0, LONG_K),
        "random": ({0, *np.flatnonzero(rng.random(LONG_K + 1) < 0.15)}, None,
                   LONG_K),
        "lost": ({0}, lambda t: 225.0, 220),
    }
    records = []
    for i, (sid, (seen, marker, end)) in enumerate(visits.items()):
        spec = [(t, int(t in seen),
                 float(rng.choice(markers)) if marker is None else marker(t),
                 int(sid == "random" and 100 <= t < 103))
                for t in range(end + 1)]
        records.append(SubjectRecord(
            subject_id=sid, baseline={"sex": float(i % 2), "age": 40.0 + i},
            rows=_rows(spec), outcome_y=0.0 if end == LONG_K else np.nan,
            followup_end=end,
            end_reason="administrative_end" if end == LONG_K else "lost",
            horizon=LONG_K))
    return from_records(records, FIXTURE_SCHEMA, LONG_K)


def test_months_past_the_int8_range_match_the_row_level_reference():
    cohort = long_horizon_cohort()
    grid = StrategyGrid(tuple(ThresholdStrategy(x, (3, 150), (5, 200),
                                                (2, 150)) for x in THRESHOLDS))
    cells = WindowCells(cohort, grid)
    assert cells.gap.dtype == cells.t.dtype == np.int16
    assert cells.gap.max() == 220 and cells.t.max() == LONG_K
    horizons = horizon_matrix(cohort, grid)
    want = np.array([[consistency_horizon(s, record(cohort, i)) for s in grid]
                     for i in range(cohort.n_subjects)])
    assert np.array_equal(horizons, want)
    assert 127 < want[want <= LONG_K].max()  # a deviation past int8
    kept = horizons > LONG_K
    assert kept.sum() > 1
    p = probabilities(GlmFit(coef=np.array([-1.5, -0.002, 0.004, 0.8]),
                             columns=["intercept", "marker", "gap", "override"],
                             family="binomial_logit", iterations=0, cond=1.0),
                      cohort)
    got = CensoringWeightPlan(cells, *np.nonzero(kept)).horizon_weights(p)
    np.testing.assert_allclose(
        got, clone_horizon_weights(cohort, p, grid)[kept], rtol=1e-12,
        atol=0)
