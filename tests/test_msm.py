"""MSM fitting, standardization, and bootstrap behavior."""

import copy
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from rcds import (
    ConfigError,
    DegenerateResponse,
    DgpParams,
    MsmSpec,
    NonConvergence,
    Plan,
    PositivityViolation,
    RcdsError,
    StrategyGrid,
    WeightOptions,
    analyze_cohort,
    bootstrap_pipeline,
    expand,
    simulate_cohort,
    standardize,
)
from rcds.cohort import baseline_design
from rcds.expansion import horizon_table
from rcds.glm import BINOMIAL_LOGIT, POISSON_LOG, DesignMatrix, fit_glm, predict
from rcds.msm import CERT_TOL, _fit_horizon_msm, _kept
from rcds.weights import (
    MonitorFeatureSpec,
    WeightedExpandedDataset,
    _without,
    attach_weights,
    clone_horizon_weights,
    fit_monitor_model,
    monitor_design,
)

import rcds.glm
import rcds.weights
import reference
from reference import fit_outcome_msm, fit_resource_msm


@pytest.fixture(scope="module")
def small_grid():
    return StrategyGrid.default(x_step=50)


@pytest.fixture(scope="module")
def sim_cohort():
    return simulate_cohort(DgpParams(), 3000, seed=71)


def monitor_model_of(cohort, spec=MonitorFeatureSpec(), multiplicity=None):
    """The monitoring model of a cohort under ``spec``, fit with the
    subject ``multiplicity`` (all ones for None)."""
    return fit_monitor_model(monitor_design(cohort, spec), multiplicity)


@pytest.fixture(scope="module")
def weighted(sim_cohort, small_grid):
    model = monitor_model_of(sim_cohort)
    return attach_weights(expand(sim_cohort, small_grid), model)


def resample(cohort, seed):
    n = cohort.n_subjects
    rng = np.random.default_rng(seed)
    return np.bincount(rng.integers(0, n, n), minlength=n).astype(float)


def reference_point(cohort, grid, spec, wopts):
    """Row-level point estimate: expand, weight every clone-month, fit the
    MSMs on the horizon rows and standardize."""
    ds = expand(cohort, grid)
    if wopts.weighting == "none":
        wds = WeightedExpandedDataset(
            ds=ds, w=np.ones(ds.n_rows), truncation=None,
            truncated_fraction=0.0)
    else:
        model = monitor_model_of(cohort, wopts.monitor_spec)
        wds = attach_weights(ds, model, wopts.truncation)
    return tuple(standardize(f(wds, spec), cohort, grid, spec)
                 for f in (fit_outcome_msm, fit_resource_msm))


def reference_replicate(cohort, grid, spec, wopts, mult):
    """One replicate from the reference pieces: monitoring refit and clone
    weights under the multiplicities, truncation over the resampled horizon
    weights, and the row-level MSM fit."""
    ht = horizon_table(cohort, grid)
    if wopts.weighting == "none":
        w = np.ones(ht.subject_idx.size)
    else:
        model = monitor_model_of(cohort, wopts.monitor_spec, mult)
        w = clone_horizon_weights(cohort, model, grid)[ht.subject_idx,
                                                       ht.x_idx]
    if wopts.truncation is not None:
        w = np.minimum(w, np.percentile(
            np.repeat(w, mult[ht.subject_idx].astype(int)), wopts.truncation))
    w = w * mult[ht.subject_idx]
    return tuple(
        standardize(reference.fit_horizon_rows(cohort, grid, spec,
                                               ht.subject_idx, ht.x_idx, r, w),
                    cohort, grid, spec, mult)
        for r in (ht.y, ht.d))


def assert_close(got, want, rtol=1e-10):
    for g, r in zip(got, want):
        np.testing.assert_allclose(g, r, rtol=rtol, atol=0)


WEIGHT_OPTIONS = [WeightOptions(truncation=trunc) for trunc in (None, 99.0)] \
    + [WeightOptions(weighting="none")]


def _wopts_id(w):
    # censoring weights with a unit numerator, the one IP weighting
    if w.weighting == "none":
        return "unweighted"
    return f"censoring-one-{w.truncation}"


class TestPlanEquivalence:
    @pytest.mark.parametrize("wopts", WEIGHT_OPTIONS, ids=_wopts_id)
    def test_point_matches_row_level(self, sim_cohort, small_grid, wopts):
        plan = Plan(sim_cohort, small_grid, MsmSpec(), wopts)
        risk, usage, pinned = plan.run(None)
        assert not pinned
        assert_close((risk, usage),
                     reference_point(sim_cohort, small_grid, MsmSpec(), wopts))

    @pytest.mark.parametrize("wopts", WEIGHT_OPTIONS, ids=_wopts_id)
    def test_replicate_matches_reference(self, sim_cohort, small_grid, wopts):
        mult = resample(sim_cohort, 21)
        plan = Plan(sim_cohort, small_grid, MsmSpec(), wopts)
        plan.run(None)  # warm starts, as in the bootstrap
        risk, usage, _ = plan.run(mult)
        assert_close((risk, usage), reference_replicate(
            sim_cohort, small_grid, MsmSpec(), wopts, mult))

    def test_missing_outcome_leaves_the_outcome_fit_only(self, sim_cohort,
                                                        small_grid):
        # a clone whose outcome is missing at the horizon still counts in
        # the resource MSM
        cohort = copy.copy(sim_cohort)
        y = cohort.outcome_y.copy()
        y[np.flatnonzero(~np.isnan(y))[::20]] = np.nan
        cohort.outcome_y = y
        mult = resample(cohort, 23)
        plan = Plan(cohort, small_grid)
        assert np.isnan(plan.ht.y).any()
        plan.run(None)
        risk, usage, _ = plan.run(mult)
        assert_close((risk, usage), reference_replicate(
            cohort, small_grid, MsmSpec(), WeightOptions(), mult))

    def test_warm_starts_are_deterministic(self, sim_cohort, small_grid):
        wopts = WeightOptions(truncation=99.0)
        mult = resample(sim_cohort, 22)
        warm = Plan(sim_cohort, small_grid, MsmSpec(), wopts)
        warm.run(None)
        assert all(s is not None for s in warm.starts)
        first, again = warm.run(mult), warm.run(mult)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        cold = Plan(sim_cohort, small_grid, MsmSpec(), wopts).run(mult)
        assert_close(first[:2], cold[:2])

    # a gap coefficient of 30 makes early visits certain, one of -3 makes
    # due visits impossible
    @pytest.mark.parametrize("gap_coef", [30.0, -3.0],
                             ids=lambda c: f"{c}-censoring")
    def test_positivity_floor_names_offenders(self, sim_cohort, small_grid,
                                              gap_coef):
        # one floor rule in the plan and in the row-level weights
        plan = Plan(sim_cohort, small_grid, MsmSpec(), WeightOptions())
        model = fit_monitor_model(plan.monitor)
        model.fit.coef = model.fit.coef.copy()
        model.fit.coef[model.fit.columns.index("gap")] = gap_coef
        with pytest.raises(PositivityViolation) as err:
            plan.factors.horizon_weights(plan.monitor.probabilities(model))
        ds = expand(sim_cohort, small_grid)
        with pytest.raises(PositivityViolation) as ref:
            attach_weights(ds, model)
        assert str(err.value) == str(ref.value)
        assert err.value.rows == ref.value.rows


class TestMsmFits:
    def test_outcome_and_resource_fit(self, weighted, small_grid, sim_cohort):
        spec = MsmSpec()
        fy = fit_outcome_msm(weighted, spec)
        fd = fit_resource_msm(weighted, spec)
        risk = standardize(fy, sim_cohort, small_grid, spec)
        usage = standardize(fd, sim_cohort, small_grid, spec)
        assert np.all((risk > 0) & (risk < 1))
        assert np.all(usage > 1.0)

    def test_single_threshold_grid_rejected(self, sim_cohort):
        grid = StrategyGrid(strategies=(StrategyGrid.default()[15],))
        model = monitor_model_of(sim_cohort)
        wds = attach_weights(expand(sim_cohort, grid), model)
        with pytest.raises(ConfigError):
            fit_outcome_msm(wds, MsmSpec())

    def test_all_zero_outcomes_warn_and_pin_curve(self, sim_cohort, small_grid):
        model = monitor_model_of(sim_cohort)
        wds = attach_weights(expand(sim_cohort, small_grid), model)
        wds.ds.response_y[:] = np.where(
            np.isnan(wds.ds.response_y), np.nan, 0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_outcome_msm(wds, MsmSpec())
        assert any(issubclass(w.category, DegenerateResponse) for w in caught)
        risk = standardize(fit, sim_cohort, small_grid, MsmSpec())
        assert np.all(risk < 1e-8)

    def test_flat_curve_when_clock_inert(self):
        # no mechanism for monitoring to move the outcome: fitted curve flat
        # within twice its bootstrap SE
        p = DgpParams(fail_clock=0.0)
        cohort = simulate_cohort(p, 4000, seed=72)
        grid = StrategyGrid.default(x_step=100)
        point = bootstrap_pipeline(cohort, grid,
                                   MsmSpec(baseline_terms=["sex", "age"]),
                                   WeightOptions(),
                                   B=60, seed=3)
        t = point.table
        spread = t.risk.max() - t.risk.min()
        assert spread <= 2 * (t.risk_se.max() + t.risk_se.min())

    def test_flat_usage_when_windows_coincide(self):
        p = DgpParams()
        cohort = simulate_cohort(p, 4000, seed=73)
        grid = StrategyGrid.default(x_step=100, window_below=(3, 8),
                                    window_above=(3, 8), override_window=(3, 8))
        point = bootstrap_pipeline(cohort, grid, MsmSpec(),
                                   WeightOptions(),
                                   B=60, seed=4)
        t = point.table
        spread = t.usage.max() - t.usage.min()
        assert spread <= 2 * (t.usage_se.max() + t.usage_se.min())


class TestStandardize:
    def test_no_baseline_terms_equals_direct_prediction(self, weighted,
                                                        sim_cohort, small_grid):
        spec = MsmSpec(baseline_terms=None)
        fit = fit_outcome_msm(weighted, spec)
        out = standardize(fit, sim_cohort, small_grid, spec)
        knots = spec.knots_for(small_grid)
        from rcds.msm import _strategy_basis
        sb, snames = _strategy_basis(small_grid.xs, knots)
        design = DesignMatrix(
            np.column_stack([np.ones(len(small_grid)), sb]),
            ["intercept", *snames])
        direct = predict(fit, design)
        assert np.allclose(out, direct, rtol=1e-12)

    def test_standardize_matches_explicit_predict_average(self, weighted,
                                                          sim_cohort,
                                                          small_grid):
        spec = MsmSpec()
        fit = fit_outcome_msm(weighted, spec)
        out = standardize(fit, sim_cohort, small_grid, spec)
        from rcds.cohort import baseline_design
        from rcds.msm import _strategy_basis
        knots = spec.knots_for(small_grid)
        base_X, base_names = baseline_design(sim_cohort, "all")
        sb, snames = _strategy_basis(small_grid.xs, knots)
        n = sim_cohort.n_subjects
        for j in (0, len(small_grid) - 1):
            X = np.column_stack([
                np.ones(n), np.tile(sb[j], (n, 1)), base_X])
            design = DesignMatrix(X, ["intercept", *snames, *base_names])
            want = predict(fit, design).mean()
            assert out[j] == pytest.approx(want, rel=1e-10)

    def test_one_subject_cohort(self, small_grid):
        cohort = simulate_cohort(DgpParams(dropout_hazard=0.0), 1, seed=2)
        # standardizing over one subject equals that subject's prediction
        big = simulate_cohort(DgpParams(), 2000, seed=74)
        model = monitor_model_of(big)
        wds = attach_weights(expand(big, small_grid), model)
        spec = MsmSpec(baseline_terms=None)
        fit = fit_outcome_msm(wds, spec)
        one = standardize(fit, cohort, small_grid, spec)
        full = standardize(fit, big, small_grid, spec)
        assert np.allclose(one, full, rtol=1e-12)  # no baseline terms

    def test_curve_continuity_in_x(self, weighted, sim_cohort):
        # evaluate the fitted spline on a dense grid: adjacent values close
        spec = MsmSpec()
        fit = fit_outcome_msm(weighted, spec)
        dense = StrategyGrid.default(x_step=1.0)
        vals = standardize(fit, sim_cohort, dense, spec)
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.01


@pytest.fixture(scope="module")
def coinciding():
    cohort = simulate_cohort(DgpParams(), 4000, seed=73)
    grid = StrategyGrid.default(x_step=100, window_below=(3, 8),
                                window_above=(3, 8), override_window=(3, 8))
    return cohort, grid


class TestPinnedLevels:
    # resamples that drop every failure of one baseline level: the reference
    # level of base_marker_band, or a non-reference level of calendar
    @pytest.mark.parametrize("field,code", [("base_marker_band", 0),
                                            ("calendar", 1)])
    def test_event_free_level_is_pinned(self, coinciding, field, code):
        cohort, grid = coinciding
        j = cohort.schema.names.index(field)
        f = cohort.schema.fields[j]
        level = f"{field}={f.levels[code]}"
        in_level = cohort.baseline[:, j] == code
        mult = np.where(in_level & (cohort.outcome_y == 1), 0.0, 1.0)
        wopts = WeightOptions()
        spec = MsmSpec()
        plan = Plan(cohort, grid, spec, wopts)
        _, fit_y, fit_d = plan.fit(mult)
        assert fit_y.pinned == (level,)
        assert fit_d.pinned == ()
        kept = [f"{field}={lv}" for lv in f.levels if f"{field}={lv}" != level]
        assert kept[0] not in fit_y.columns  # the new reference level
        assert all(c in fit_y.columns for c in kept[1:])

        r1, u1, pinned = plan.run(mult)
        assert pinned
        assert_close((r1, u1),
                     reference_replicate(cohort, grid, spec, wopts, mult))

        # pinned subjects predict exp(DEGENERATE_ETA), the rest the fit
        from rcds.msm import DEGENERATE_ETA, _strategy_basis
        base_X, base_names = baseline_design(cohort)
        sb, snames = _strategy_basis(grid.xs, spec.knots_for(grid))
        names = ["intercept", *snames, *base_names]
        fitted = [names.index(c) for c in fit_y.columns]
        n = cohort.n_subjects
        for k in (0, len(grid) - 1):
            X = np.column_stack([np.ones(n), np.tile(sb[k], (n, 1)), base_X])
            mu = predict(fit_y, DesignMatrix(X[:, fitted], fit_y.columns))
            mu[in_level] = np.exp(DEGENERATE_ETA)
            assert r1[k] == pytest.approx(np.sum(mult * mu) / mult.sum(),
                                          rel=1e-10)

    def test_bootstrap_reports_pinned_replicates(self, coinciding):
        cohort, grid = coinciding
        t = bootstrap_pipeline(cohort, grid, MsmSpec(),
                               WeightOptions(), B=60,
                               seed=4).table
        assert t.n_failed == 0
        assert t.n_pinned == 8


def captured(n, seed, k, B=10):
    """``simulate_cohort(DgpParams(), n, seed)`` and the multiplicities of
    replicate ``k`` of ``bootstrap_pipeline(B=B, seed=seed)`` on it."""
    cohort = simulate_cohort(DgpParams(), n, seed=seed)
    ss = np.random.SeedSequence(seed).spawn(B)[k]
    idx = np.random.default_rng(ss).integers(0, n, n)
    return cohort, np.bincount(idx, minlength=n).astype(np.float64)


class TestBoundaryFaces:
    """The face rule reads the design and its event rows, not the IRLS
    path, so rounding in the weights cannot move what a fit pins."""

    def test_pinned_threshold_survives_weight_rounding(self):
        # four thresholds saturate the strategy spline, and no clone at
        # x = 200 fails; IRLS diverges along the spline's last column
        cohort = simulate_cohort(DgpParams(), 1500, seed=3)
        plan = Plan(cohort, StrategyGrid.default(x_step=100))
        ht = plan.ht
        w, _, _ = plan._horizon_weights(None)
        rng = np.random.default_rng(8)
        for _ in range(20):
            design, rows = _kept(plan.msm_design, ht.x_idx, ht.y,
                                 w * (1 + 1e-12 * rng.normal(size=w.size)))
            fit = _fit_horizon_msm(cohort, plan.spec, design, ht.y[rows],
                                   ht.subject_idx[rows])
            assert fit.pinned == ("x_rcs2",)

    # replicates that failed while the rule read the last IRLS step: a
    # RANK_DEFICIENT one at 300 subjects and a NON_CONVERGENCE one at 600
    @pytest.mark.parametrize("n,seed,k", [(300, 6, 7), (600, 5, 6)])
    def test_captured_replicate_runs(self, n, seed, k):
        cohort, mult = captured(n, seed, k)
        plan = Plan(cohort, StrategyGrid.default())
        plan.run(None)
        risk, usage, pinned = plan.run(mult)
        assert pinned
        assert np.all((risk > 0) & (risk < 1))
        assert np.all((usage > 0) & np.isfinite(usage))

    def test_face_of_event_rows_only_pins_the_replicate(self):
        # the resample keeps 7 event rows, and every other row can go to a
        # zero mean: the face pins every event-free row, the extended MLE
        cohort, mult = captured(300, 0, 4)
        plan = Plan(cohort, StrategyGrid.default())
        plan.run(None)
        _, fit_y, _ = plan.fit(mult)
        kept = mult[plan.ht.subject_idx] > 0
        for d in fit_y.directions:
            kept &= plan.msm_design.X @ d >= -CERT_TOL
        assert kept.sum() == 7 and np.all(plan.ht.y[kept] > 0)
        risk, usage, pinned = plan.run(mult)
        assert pinned
        assert np.all((risk >= 0) & (risk <= 1))
        t = bootstrap_pipeline(cohort, StrategyGrid.default(), B=10,
                               seed=0).table
        assert t.n_failed == 0

    def test_overshooting_refit_halves_its_steps(self, monkeypatch):
        # replicate 5 at 300 subjects, seed 2: the refit on the 99 rows its
        # face keeps overshoots from the intercept start, puts a linear
        # predictor past the clip at 300 and never comes back unless the
        # steps that raise the deviance are halved
        cohort, mult = captured(300, 2, 5)
        plan = Plan(cohort, StrategyGrid.default())
        plan.run(None)
        risk, usage, pinned = plan.run(mult)
        assert pinned
        assert np.all((risk > 0) & (risk < 1))
        assert np.all((usage > 0) & np.isfinite(usage))
        monkeypatch.setattr(rcds.glm, "_halved", lambda X, y, w, beta, last,
                            last_dev, family: (beta, last_dev))
        with pytest.raises(NonConvergence, match="in 50 iterations"):
            plan.run(mult)

    def test_small_cohort_bootstraps_fit_every_replicate(self):
        """The bootstraps of ``simulate_cohort(DgpParams(), n, seed)``, n in
        {300, 600}, seeds 0-7, default grid, B = 10 at the cohort's seed:
        all 160 replicates fit. While a face that kept only event rows
        failed its replicate, and before the face refit halved its steps,
        12 failed, as (n, seed, replicate, code):
        (300, 0, 4, RANK_DEFICIENT), (300, 0, 7, RANK_DEFICIENT),
        (300, 2, 5, NON_CONVERGENCE), (300, 4, 0, RANK_DEFICIENT),
        (300, 5, 6, RANK_DEFICIENT), (300, 6, 0, RANK_DEFICIENT),
        (300, 6, 5, RANK_DEFICIENT), (300, 6, 8, RANK_DEFICIENT),
        (300, 6, 9, RANK_DEFICIENT), (300, 7, 6, RANK_DEFICIENT),
        (600, 1, 4, RANK_DEFICIENT), (600, 6, 8, RANK_DEFICIENT)."""
        for n in (300, 600):
            for seed in range(8):
                plan = Plan(simulate_cohort(DgpParams(), n, seed=seed),
                            StrategyGrid.default())
                plan.run(None)
                for ss in np.random.SeedSequence(seed).spawn(10):
                    idx = np.random.default_rng(ss).integers(0, n, n)
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", DegenerateResponse)
                        risk, usage, _ = plan.run(
                            np.bincount(idx, minlength=n).astype(np.float64))
                    assert np.all(np.isfinite(risk) & np.isfinite(usage))


class TestReplicateEngine:
    """The plan's horizon weights and its factorized standardization
    against the row-level weights and the per-threshold standardizer."""

    def test_plan_and_point_run_keep_their_traced_peak(self):
        # 12.3 MB traced, with 10% headroom; 18.0 MB while the build kept
        # int64 months, gaps and columns and a row-ordered copy of each
        # design. tracemalloc counts numpy's buffers, so unlike RSS the peak
        # is the same on every run
        cohort = simulate_cohort(DgpParams(), 4000, seed=73)
        tracemalloc.start()
        try:
            Plan(cohort, StrategyGrid.default()).run(None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13.5e6

    @pytest.mark.parametrize("replicate", [False, True],
                             ids=["point", "replicate"])
    def test_horizon_weights_match_clone_weights(self, sim_cohort, small_grid,
                                                 replicate):
        mult = resample(sim_cohort, 41) if replicate else None
        plan = Plan(sim_cohort, small_grid)
        w, model, _ = plan._horizon_weights(mult)
        ht = plan.ht
        want = clone_horizon_weights(sim_cohort, model, small_grid)[
            ht.subject_idx, ht.x_idx]
        if replicate:
            want = want * mult[ht.subject_idx]
        assert np.array_equal(w == 0, want == 0)
        np.testing.assert_allclose(w, want, rtol=1e-12, atol=0)

    # captured replicates whose outcome fit has boundary directions: a face
    # of the event rows only, a RANK_DEFICIENT one and a NON_CONVERGENCE one
    # while the face rule read the IRLS path
    @pytest.mark.parametrize("n,seed,k", [(300, 0, 4), (300, 6, 7),
                                          (600, 5, 6)])
    def test_factorized_standardize_with_directions(self, n, seed, k):
        cohort, mult = captured(n, seed, k)
        plan = Plan(cohort, StrategyGrid.default())
        plan.run(None)
        _, fit_y, fit_d = plan.fit(mult)
        assert fit_y.directions
        for fit in (fit_y, fit_d):
            want = reference.standardize_per_threshold(
                fit, cohort, plan.grid, plan.spec, mult)
            for terms in (None, plan.terms):
                np.testing.assert_allclose(
                    standardize(fit, cohort, plan.grid, plan.spec, mult,
                                terms), want, rtol=1e-10, atol=0)

    def test_truncation_at_100_changes_nothing(self, sim_cohort, small_grid):
        plain = Plan(sim_cohort, small_grid)
        capped = Plan(sim_cohort, small_grid, MsmSpec(),
                      WeightOptions(truncation=100))
        for mult in (None, resample(sim_cohort, 42), resample(sim_cohort, 43)):
            for a, b in zip(plain.run(mult), capped.run(mult)):
                assert np.array_equal(a, b)
        assert capped.weights.truncated_fraction == 0
        assert capped.weights == plain.weights


def zero_weight_msm_fit(plan, response, w, fit, start):
    """An MSM fit of ``plan`` on the columns of ``fit``, with the rows the
    fit leaves out, those it pinned included, kept in at weight zero."""
    X, names = plan.msm_design.X, plan.msm_design.columns
    keep = ~np.isnan(response) & (w > 0)
    for d in fit.directions:
        keep &= X @ d >= -CERT_TOL
    design = DesignMatrix(np.compress(np.isin(names, fit.columns), X, axis=1),
                          fit.columns, np.where(keep, w, 0.0))
    return fit_glm(design, np.where(keep, response, 0.0), POISSON_LOG,
                   start=None if fit.pinned else start,
                   qr=bool(fit.directions))


def zero_weight_monitor_fit(design, mult, dropped, **kwargs):
    """The monitoring fit on every decision month of ``design``, weighted by
    the multiplicity of its subject, zero or not."""
    full = _without(DesignMatrix(design.matrix.X, design.matrix.columns,
                                 mult[design.subject]), dropped)
    return fit_glm(full, design.monitored.astype(float), BINOMIAL_LOGIT,
                   **kwargs)


def assert_same_fit(got, want):
    assert got.columns == want.columns
    np.testing.assert_allclose(got.coef, want.coef, rtol=1e-10, atol=0)


class TestZeroWeightRowsLeaveFits:
    """A fit on the rows of positive case weight against the same fit with
    the zero-weight rows left in: only the order of the sums differs."""

    @pytest.fixture(scope="class", params=["resample", "no-override",
                                           "pinned-level"])
    def case(self, request, sim_cohort, small_grid, coinciding):
        if request.param == "pinned-level":
            # every failure in the reference base_marker_band level left out
            cohort, grid = coinciding
            in_level = cohort.baseline[:, cohort.schema.names.index(
                "base_marker_band")] == 0
            return request.param, cohort, grid, np.where(
                in_level & (cohort.outcome_y == 1), 0.0, 1.0)
        mult = resample(sim_cohort, 31)
        if request.param == "no-override":
            # the override column is constant over the kept months
            sub = sim_cohort.subject_index_per_row()
            ever = np.bincount(sub, weights=sim_cohort.override_flag,
                               minlength=sim_cohort.n_subjects) > 0
            mult[ever] = 0.0
        return request.param, sim_cohort, small_grid, mult

    def test_monitor_fit(self, case):
        name, cohort, _, mult = case
        design = monitor_design(cohort)
        model = fit_monitor_model(design, mult)
        want = zero_weight_monitor_fit(design, mult, model.dropped)
        assert_same_fit(model.fit, want)
        assert model.dropped == (("override",) if name == "no-override"
                                 else ())

    def test_replicate_fits_and_curves(self, case):
        name, cohort, grid, mult = case
        plan = Plan(cohort, grid)
        plan.run(None)  # warm starts, as in the bootstrap
        model, fit_y, fit_d = plan.fit(mult)
        assert_same_fit(model.fit, zero_weight_monitor_fit(
            plan.monitor, mult, model.dropped,
            start=None if model.dropped else plan.starts[0]))
        w, _, _ = plan._horizon_weights(mult)
        for fit, response, start in ((fit_y, plan.ht.y, plan.starts[1]),
                                     (fit_d, plan.ht.d, plan.starts[2])):
            assert_same_fit(fit, zero_weight_msm_fit(plan, response, w, fit,
                                                     start))
        assert bool(fit_y.pinned) == (name == "pinned-level")
        risk, usage, _ = plan.run(mult)
        assert_close((risk, usage), tuple(
            reference.standardize_per_threshold(f, cohort, grid, plan.spec,
                                                mult)
            for f in (fit_y, fit_d)))
        again = plan.run(mult)
        assert np.array_equal(risk, again[0])
        assert np.array_equal(usage, again[1])


class TestMonitorDesign:
    def test_constant_feature_dropped_in_both_paths(self, sim_cohort,
                                                    small_grid):
        # a resample without any override month: the override column is
        # constant over the rows that carry weight
        sub = sim_cohort.subject_index_per_row()
        ever = np.bincount(sub, weights=sim_cohort.override_flag,
                           minlength=sim_cohort.n_subjects) > 0
        mult = np.where(ever, 0.0, 1.0)
        model = monitor_model_of(sim_cohort, multiplicity=mult)
        assert model.dropped == ("override",)
        assert "override" not in model.fit.columns
        plan = Plan(sim_cohort, small_grid)
        plan.run(None)  # a warm start for the full design, not for this one
        fit = plan.fit(mult)[0].fit
        assert fit.columns == model.fit.columns
        assert np.array_equal(fit.coef, model.fit.coef)

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_columns_match_row_scan(self, sim_cohort, seed):
        # random multiplicities, some of which zero out a whole level: a
        # calendar era, men, the override flag, or all but a few subjects;
        # wherever the fit runs, it drops the columns constant over its rows
        spec = MonitorFeatureSpec(gap="categorical", gap_cap=6,
                                  month="linear", baseline=("sex", "calendar"))
        design = monitor_design(sim_cohort, spec)
        sub = sim_cohort.subject_index_per_row()
        ever_override = np.bincount(sub, weights=sim_cohort.override_flag,
                                    minlength=sim_cohort.n_subjects) > 0
        sex, calendar = sim_cohort.baseline[:, 0], sim_cohort.baseline[:, 3]
        rng = np.random.default_rng(seed)
        few = np.zeros(sim_cohort.n_subjects, dtype=bool)
        few[rng.choice(sim_cohort.n_subjects, 3, replace=False)] = True
        dropped = set()
        era = 1 + seed % 3  # a level other than the reference era0
        for keep in (None, calendar != era, sex != 1, ~ever_override, few):
            mult = rng.integers(0, 4, sim_cohort.n_subjects).astype(float)
            if keep is not None:
                mult[~keep] = 0.0
                mult[keep & (mult == 0)] = 1.0
            try:
                got = fit_monitor_model(design, mult).dropped
            except RcdsError:
                continue
            rows = dataclasses.replace(design.matrix,
                                       weights=mult[design.subject])
            assert got == reference.constant_columns(rows)
            dropped.update(got)
        assert fit_monitor_model(design).dropped == \
            reference.constant_columns(design.matrix)
        assert {f"calendar=era{era}", "sex=male", "override"} <= dropped

    def test_marker_knot_fallback_in_bootstrap(self):
        # a constant marker: the spline knots tie, the marker falls back to
        # a linear term, which is constant and dropped, in both paths; the
        # thresholds all sit above the marker so every strategy is followed
        p = DgpParams(marker_init_sd=0.0, drift_sd=0.0, drift_slope=0.0,
                      drift_intercept=360.0)
        cohort = simulate_cohort(p, 1500, seed=76)
        grid = StrategyGrid.default(x_start=380, x_stop=500, x_step=40)
        point = bootstrap_pipeline(cohort, grid, MsmSpec(),
                                   WeightOptions(), B=3,
                                   seed=7)
        assert point.plan.monitor_model.dropped == ("marker",)
        assert point.table.n_failed == 0


class TestBootstrap:
    def test_b1_degenerate_interval(self, sim_cohort, small_grid):
        point = bootstrap_pipeline(sim_cohort, small_grid, MsmSpec(),
                                   WeightOptions(),
                                   B=1, seed=11)
        t = point.table
        assert np.allclose(t.risk_lo, t.risk_hi)

    def test_duplication_leaves_point_estimates_unchanged(self, sim_cohort,
                                                          small_grid):
        doubled_records = reference.records(sim_cohort) + [
            r for r in reference.records(sim_cohort)]
        for i, r in enumerate(doubled_records):
            r.subject_id = f"d{i}"
        from rcds.simulate import SIM_SCHEMA
        doubled = reference.from_records(doubled_records, SIM_SCHEMA,
                                         sim_cohort.horizon)
        wopts = WeightOptions()
        a = analyze_cohort(sim_cohort, small_grid, MsmSpec(), wopts).table
        b = analyze_cohort(doubled, small_grid, MsmSpec(), wopts).table
        assert np.allclose(a.risk, b.risk, atol=1e-9)
        assert np.allclose(a.usage, b.usage, atol=1e-9)

    def test_monitor_model_varies_across_replicates(self, sim_cohort,
                                                    small_grid):
        plan = Plan(sim_cohort, small_grid)
        coefs = [plan.fit(resample(sim_cohort, seed))[0].fit.coef
                 for seed in range(3)]
        assert not np.allclose(coefs[0], coefs[1])
        assert not np.allclose(coefs[1], coefs[2])

    def test_engine_matches_reference_replicate(self, sim_cohort, small_grid):
        # the bootstrap's replicate under the default options
        wopts = WeightOptions()
        mult = resample(sim_cohort, 21)
        plan = Plan(sim_cohort, small_grid, MsmSpec(), wopts)
        r, u, _ = plan.run(mult)
        assert_close((r, u), reference_replicate(sim_cohort, small_grid,
                                                 MsmSpec(), wopts, mult))

    def test_engine_point_matches_row_level_analysis(self, sim_cohort,
                                                     small_grid):
        wopts = WeightOptions()
        pt = analyze_cohort(sim_cohort, small_grid, MsmSpec(), wopts).table
        assert_close((pt.risk, pt.usage),
                     reference_point(sim_cohort, small_grid, MsmSpec(), wopts))

    def test_deterministic_given_seed(self, sim_cohort, small_grid):
        wopts = WeightOptions()
        a = bootstrap_pipeline(sim_cohort, small_grid, MsmSpec(), wopts,
                               B=20, seed=5).table
        b = bootstrap_pipeline(sim_cohort, small_grid, MsmSpec(), wopts,
                               B=20, seed=5).table
        assert np.array_equal(a.risk_lo, b.risk_lo)
        assert np.array_equal(a.usage_hi, b.usage_hi)

    def test_bootstrap_matches_scipy_link_functions(self, monkeypatch):
        # the numpy link functions move results by rounding only
        cohort = simulate_cohort(DgpParams(), 1000, seed=71)
        grid = StrategyGrid.default()

        def table():
            return bootstrap_pipeline(cohort, grid, MsmSpec(),
                                      WeightOptions(), B=4, seed=5).table

        ours = table()
        for module in (rcds.glm, rcds.weights):
            monkeypatch.setattr(module, "logistic", expit)
        scipy_backed = table()
        for f in dataclasses.fields(ours):
            a, b = getattr(ours, f.name), getattr(scipy_backed, f.name)
            if isinstance(a, np.ndarray):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=0,
                                           err_msg=f.name)
            else:
                assert a == b, f.name
