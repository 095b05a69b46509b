"""Simulator determinism, exchangeability boundary, and oracle checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from rcds import (
    ConfigError,
    DgpParams,
    StrategyGrid,
    ThresholdStrategy,
    monitor_probability,
    oracle_truth,
    simulate_cohort,
)
from rcds.simulate import ORACLE_BLOCK, _norm_ppf

import reference


def cohorts_equal(a, b):
    if a.subject_ids != b.subject_ids:
        return False
    pairs = [
        (a.baseline, b.baseline), (a.followup_end, b.followup_end),
        (a.outcome_y, b.outcome_y), (a.d_total, b.d_total), (a.t, b.t),
        (a.monitor, b.monitor), (a.observed_marker, b.observed_marker),
        (a.last_observed_marker, b.last_observed_marker),
        (a.months_since, b.months_since), (a.override_flag, b.override_flag),
    ]
    return all(np.array_equal(x, y, equal_nan=True) for x, y in pairs)


class TestValidation:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigError):
            DgpParams(dropout_hazard=1.5).validate()
        with pytest.raises(ConfigError):
            DgpParams(override_hazard=-0.1).validate()

    def test_rejects_zero_one_monitoring(self):
        # a huge gap coefficient drives probabilities to 1 on the state box
        with pytest.raises(ConfigError):
            DgpParams(mon_gap=5.0).validate()

    def test_n_validation(self):
        with pytest.raises(ConfigError):
            simulate_cohort(DgpParams(), 0, seed=1)
        with pytest.raises(ConfigError):
            oracle_truth(DgpParams(), StrategyGrid.default(), 999, seed=1)


class TestSimulateCohort:
    def test_bit_identical_under_same_seed(self):
        p = DgpParams()
        a = simulate_cohort(p, 200, seed=5)
        b = simulate_cohort(p, 200, seed=5)
        assert cohorts_equal(a, b)
        c = simulate_cohort(p, 200, seed=6)
        assert not cohorts_equal(a, c)

    def test_rows_satisfy_cohort_invariants(self):
        cohort = simulate_cohort(DgpParams(), 300, seed=7)
        cohort.validate()

    def test_no_dropout_means_full_followup(self):
        p = DgpParams(dropout_hazard=0.0)
        cohort = simulate_cohort(p, 1, seed=1)
        assert cohort.followup_end[0] == p.horizon
        assert not np.isnan(cohort.outcome_y[0])

    def test_saturated_monitoring(self):
        p = DgpParams(mon_intercept=10.0, mon_marker=0.0, mon_gap=0.0,
                      mon_override=0.0, dropout_hazard=0.0)
        cohort = simulate_cohort(p, 3, seed=11)
        assert np.all(cohort.d_total == p.horizon + 1)

    def test_monthly_frequency_matches_exact_chain(self):
        # Degenerate sub-process: constant marker, no overrides, no failures,
        # no dropout. The gap process is then an exact finite Markov chain
        # whose monthly marginal monitoring frequency we compute by forward
        # probabilities.
        p = DgpParams(marker_init_mean=350.0, marker_init_sd=0.0,
                      drift_intercept=0.0, drift_slope=0.999999, drift_sd=0.0,
                      fail_intercept=-30.0, override_hazard=0.0,
                      dropout_hazard=0.0)
        K = p.horizon
        probs = np.array([
            float(monitor_probability(p, 350.0, g, 0)) for g in range(K + 2)
        ])
        dist = np.zeros(K + 2)
        dist[0] = 1.0  # gap state after the baseline visit
        expect_freq = []
        for _ in range(K):
            visit = 0.0
            new = np.zeros_like(dist)
            for m, mass in enumerate(dist):
                if mass == 0:
                    continue
                g = m + 1
                visit += mass * probs[g]
                new[0] += mass * probs[g]
                new[g] += mass * (1 - probs[g])
            expect_freq.append(visit)
            dist = new
        expected = float(np.mean(expect_freq))
        cohort = simulate_cohort(p, 10_000, seed=3)
        observed = cohort.monitor[cohort.t >= 1].mean()
        assert abs(observed - expected) < 0.02

    def test_norm_ppf_matches_ndtri(self):
        # the age draw's quantiles, from the standard library, over the
        # clipped probability range
        tail = np.geomspace(1e-12, 0.5, 100_000)
        u = np.concatenate([tail, 1.0 - tail,
                            np.random.default_rng(3).random(200_000)])
        ours, ref = _norm_ppf(u), ndtri(u)
        assert np.all(np.abs(ours - ref) <= 2e-15 * np.abs(ref))

    def test_default_params_monthly_frequency_sane(self):
        cohort = simulate_cohort(DgpParams(), 10_000, seed=3)
        freq = cohort.monitor[cohort.t >= 1].mean()
        assert 0.05 < freq < 0.6


class TestExchangeabilityBoundary:
    def test_monitoring_reads_only_observed_state(self):
        # the decision function has no latent arguments; identical observed
        # states yield identical probabilities whatever the latent params
        p1 = DgpParams()
        p2 = dataclasses.replace(p1, fail_intercept=-0.5, fail_marker=0.0,
                                 drift_sd=80.0)
        st = (310.0, 4, 1)
        assert monitor_probability(p1, *st) == monitor_probability(p2, *st)

    def test_latent_perturbation_leaves_monitoring_draws_unchanged(self):
        # with marker and override effects silenced, the decision sequence
        # depends only on the gap process; perturbing latent dynamics must
        # leave every monitoring draw untouched under a fixed seed
        base = dict(mon_marker=0.0, mon_override=0.0, mon_intercept=-0.8,
                    mon_gap=0.25, dropout_hazard=0.0)
        a = simulate_cohort(DgpParams(**base), 400, seed=13)
        b = simulate_cohort(
            DgpParams(fail_intercept=-0.8, fail_marker=0.003,
                      drift_sd=60.0, resuppress_prob=0.1, **base),
            400, seed=13)
        assert np.array_equal(a.monitor, b.monitor)
        assert not np.array_equal(a.outcome_y, b.outcome_y, equal_nan=True)


class TestSimulateForced:
    """The forced cohort of tests/reference.py, the test data for
    consistency by construction."""

    def test_earliest_rule_gap_structure(self):
        p = DgpParams(override_hazard=0.0, dropout_hazard=0.0,
                      fail_intercept=-30.0)
        strat = ThresholdStrategy(10_000.0, (2, 7), (8, 13), (2, 7))
        cohort = reference.simulate_forced(p, strat, 50, seed=2)
        # marker always below x: every inter-visit gap equals 2
        gaps = cohort.months_since[cohort.monitor == 0]
        assert gaps.max() == 1
        assert np.all(cohort.d_total == 1 + p.horizon // 2)

    def test_forced_cohort_consistent_by_construction(self):
        p = DgpParams()
        for rule in reference.FORCED_RULES:
            strat = ThresholdStrategy(350.0, (2, 7), (8, 13), (2, 7))
            cohort = reference.simulate_forced(p, strat, 200, rule=rule,
                                               seed=8)
            for rec in reference.records(cohort):
                assert reference.consistency_horizon(strat, rec) \
                    == p.horizon + 1, rule

    def test_higher_threshold_needs_more_measurements(self):
        p = DgpParams()
        grid = StrategyGrid.default()
        lo = reference.simulate_forced(p, grid[0], 10_000, seed=14)
        hi = reference.simulate_forced(p, grid[30], 10_000, seed=14)
        assert hi.d_total.mean() > lo.d_total.mean()


class TestOracle:
    def test_flat_risk_when_clock_is_inert(self):
        # monitoring affects failure only through the risk clock; silencing
        # its coefficient makes every strategy equivalent for the outcome
        p = DgpParams(fail_clock=0.0)
        grid = StrategyGrid.default(x_step=100)
        truth = oracle_truth(p, grid, 20_000, seed=5)
        spread = truth.risk.max() - truth.risk.min()
        assert spread <= 2 * truth.risk_mcse.max()

    def test_flat_usage_when_windows_coincide(self):
        p = DgpParams()
        grid = StrategyGrid.default(x_step=100, window_below=(3, 8),
                                    window_above=(3, 8), override_window=(3, 8))
        truth = oracle_truth(p, grid, 20_000, seed=5)
        spread = truth.usage.max() - truth.usage.min()
        assert spread <= 2 * truth.usage_mcse.max()

    def test_truth_table_regenerates_exactly(self):
        p = DgpParams()
        grid = StrategyGrid.default(x_step=50)
        a = oracle_truth(p, grid, 20_000, rule="natural", seed=17)
        b = oracle_truth(p, grid, 20_000, rule="natural", seed=17)
        assert np.array_equal(a.risk, b.risk)
        assert np.array_equal(a.usage, b.usage)
        assert np.array_equal(a.risk_mcse, b.risk_mcse)

    def test_defaults_to_natural_rule(self):
        # the regime the censoring weights target, and the only one
        grid = StrategyGrid.default(x_step=150)
        default = oracle_truth(DgpParams(), grid, 2000, seed=9)
        natural = oracle_truth(DgpParams(), grid, 2000, rule="natural", seed=9)
        assert np.array_equal(default.risk, natural.risk)
        assert np.array_equal(default.usage, natural.usage)
        with pytest.raises(ConfigError, match="only the natural rule") as err:
            oracle_truth(DgpParams(), grid, 2000, rule="earliest", seed=9)
        assert err.value.code == "CONFIG_ERROR"


# a marker that sits on the threshold 350 every month: ``<`` and ``<=`` in the
# window lookup disagree on every decision
ON_THRESHOLD = DgpParams(marker_init_mean=350.0, marker_init_sd=0.0,
                         drift_intercept=350.0, drift_slope=0.0, drift_sd=0.0)


def truths_equal(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in (
        "xs", "risk", "risk_mcse", "usage", "usage_mcse"))


def block_sizes():
    """Draw counts below one oracle block of subjects, equal to one, and
    not a multiple of one."""
    assert ORACLE_BLOCK > 1000, "the cases need blocks of over 1000 subjects"
    return 1000, ORACLE_BLOCK, ORACLE_BLOCK + 1000


class TestStackedKernel:
    """The segment kernel against the one-strategy-at-a-time kernel and
    per-threshold oracle loop it replaced (tests/reference.py), bit for
    bit."""

    GRIDS = {"default": StrategyGrid.default(),
             "one-threshold": StrategyGrid.default(x_start=350, x_stop=350)}

    # the oracle's one rule, passed by keyword as the CLI passes it
    @pytest.mark.parametrize("rule", ["natural"])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_oracle_equals_per_threshold_loop(self, grid, rule):
        grid = self.GRIDS[grid]
        for n_mc in block_sizes():
            got = oracle_truth(DgpParams(), grid, n_mc, rule=rule, seed=9)
            want = reference.oracle_truth(DgpParams(), grid, n_mc, seed=9)
            assert truths_equal(got, want), n_mc

    @pytest.mark.parametrize("rule", ["natural"])
    def test_oracle_equals_loop_with_marker_on_threshold(self, rule):
        # from x_start 350 the marker sits on the first strategy of the
        # grid's one segment: it keeps the above window, the rest split off
        for x_start in (200, 350):
            grid = StrategyGrid.default(x_start=x_start, x_step=50)
            got = oracle_truth(ON_THRESHOLD, grid, 2000, rule=rule, seed=9)
            want = reference.oracle_truth(ON_THRESHOLD, grid, 2000, seed=9)
            assert truths_equal(got, want), x_start

    @pytest.mark.parametrize("params", [DgpParams(), ON_THRESHOLD],
                             ids=["default", "on-threshold"])
    def test_cohort_equals_reference_kernel(self, params):
        got = simulate_cohort(params, 3000, seed=4)
        want = reference.simulate_cohort(params, 3000, seed=4)
        assert cohorts_equal(got, want)
        assert np.array_equal(got.end_reason, want.end_reason)


@st.composite
def window_grids(draw):
    """1 to 31 unevenly spaced thresholds, some on the ON_THRESHOLD marker,
    with drawn windows; equal below and above windows never split."""
    k = draw(st.integers(1, 31))
    xs = 150.0 + np.cumsum(draw(st.lists(st.integers(1, 40), min_size=k,
                                         max_size=k)))
    if draw(st.booleans()):  # the grid shifts a drawn threshold onto 350
        xs += 350.0 - xs[draw(st.integers(0, k - 1))]
    windows = []
    for _ in range(3):
        lo = draw(st.integers(1, 6))
        windows.append((lo, lo + draw(st.integers(0, 6))))
    below, above, override = windows
    if draw(st.booleans()):
        above = below
    elif below[1] > above[1]:
        below, above = above, below
    return StrategyGrid(tuple(ThresholdStrategy(float(x), below, above,
                                                override)
                              for x in xs))


@settings(max_examples=30)
@given(grid=window_grids(),
       params=st.sampled_from([DgpParams(), ON_THRESHOLD]),
       n_mc=st.sampled_from([1000, ORACLE_BLOCK + 1]))
def test_oracle_equals_per_threshold_loop_on_drawn_grids(grid, params, n_mc):
    got = oracle_truth(params, grid, n_mc, seed=9)
    want = reference.oracle_truth(params, grid, n_mc, seed=9)
    assert truths_equal(got, want)


def test_empty_grid_oracle_is_empty():
    truth = oracle_truth(DgpParams(), StrategyGrid(()), 1000, seed=9)
    for field in ("xs", "risk", "risk_mcse", "usage", "usage_mcse"):
        assert getattr(truth, field).shape == (0,), field
