"""Replication-and-censoring construction tests."""

import numpy as np
import pytest

from rcds import (
    DgpParams,
    StrategyGrid,
    ThresholdStrategy,
    expand,
    horizon_table,
    simulate_cohort,
)

from conftest import FIXTURE_K, fixture_horizons
from reference import horizon_responses, simulate_forced


@pytest.fixture(scope="module")
def grid():
    return StrategyGrid.default()


class TestExpand:
    def test_always_below_subject_keeps_all_clones(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        ht = horizon_responses(ds)
        # s1 (index 0): marker always < 200, uncensored under all 31
        assert ht.uncensored[0].sum() == 31

    def test_censor_months_match_hand_trace(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        for j, strat in enumerate(grid):
            want = fixture_horizons(strat.x)
            for i, sid in enumerate(fixture_cohort.subject_ids):
                h = want[sid]
                rows = (ds.subject_idx == i) & (ds.x_idx == j)
                censored = ds.censored_this_month[rows]
                ts = ds.t[rows]
                fue = fixture_cohort.followup_end[i]
                if h <= fue:
                    assert ts.max() == h
                    assert censored[-1] == 1 and censored[:-1].sum() == 0
                    assert ds.at_risk[rows][-1] == 0
                else:
                    assert ts.max() == fue
                    assert censored.sum() == 0
                    assert ds.at_risk[rows].all()

    def test_at_risk_nonincreasing_and_prefix_months(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        for i in range(fixture_cohort.n_subjects):
            for j in range(len(grid)):
                rows = (ds.subject_idx == i) & (ds.x_idx == j)
                ar = ds.at_risk[rows]
                assert np.all(np.diff(ar.astype(int)) <= 0)
                assert np.array_equal(ds.t[rows], np.arange(rows.sum()))

    def test_empty_grid(self, fixture_cohort):
        ds = expand(fixture_cohort, StrategyGrid(strategies=()))
        assert ds.n_rows == 0

    def test_row_count_bound(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        assert ds.n_rows <= fixture_cohort.n_subjects * len(grid) * (FIXTURE_K + 1)

    def test_single_strategy_equals_filtered_grid(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        j = 12
        one = StrategyGrid(strategies=(grid[j],))
        ds1 = expand(fixture_cohort, one)
        rows = ds.x_idx == j
        assert np.array_equal(ds.subject_idx[rows], ds1.subject_idx)
        assert np.array_equal(ds.t[rows], ds1.t)
        assert np.array_equal(ds.at_risk[rows], ds1.at_risk)
        assert np.array_equal(ds.censored_this_month[rows],
                              ds1.censored_this_month)

    def test_deterministic(self, fixture_cohort, grid):
        a = expand(fixture_cohort, grid)
        b = expand(fixture_cohort, grid)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.at_risk, b.at_risk)
        assert np.array_equal(a.response_d, b.response_d)


class TestHorizonResponses:
    def test_censored_clone_absent(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        ht = horizon_responses(ds)
        # s2 at x=320 censored at month 7: no horizon row
        j = int(np.flatnonzero(grid.xs == 320.0)[0])
        assert not np.any((ht.subject_idx == 1) & (ht.x_idx == j))
        # s2 at x=250 reaches the horizon
        j250 = int(np.flatnonzero(grid.xs == 250.0)[0])
        assert np.any((ht.subject_idx == 1) & (ht.x_idx == j250))

    def test_lost_subject_never_reaches_horizon(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        ht = horizon_responses(ds)
        assert not np.any(ht.subject_idx == 2)  # s3 left at month 11

    def test_measurement_count_recount(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        ht = horizon_responses(ds)
        mask = ht.subject_idx == 0
        assert np.all(ht.d[mask] == 5.0)  # s1 has 5 visits through K

    def test_fast_path_agrees_with_row_level(self, fixture_cohort, grid):
        ds = expand(fixture_cohort, grid)
        a = horizon_responses(ds)
        b = horizon_table(fixture_cohort, grid)
        assert np.array_equal(a.subject_idx, b.subject_idx)
        assert np.array_equal(a.x_idx, b.x_idx)
        assert np.array_equal(a.d, b.d)
        ya = np.nan_to_num(a.y, nan=-1.0)
        yb = np.nan_to_num(b.y, nan=-1.0)
        assert np.array_equal(ya, yb)
        assert np.array_equal(a.uncensored, b.uncensored)

    def test_fast_path_agrees_on_simulation(self, grid):
        cohort = simulate_cohort(DgpParams(), 300, seed=21)
        ds = expand(cohort, grid)
        a = horizon_responses(ds)
        b = horizon_table(cohort, grid)
        assert np.array_equal(a.subject_idx, b.subject_idx)
        assert np.array_equal(a.x_idx, b.x_idx)
        assert np.array_equal(a.d, b.d)

    def test_forced_cohort_fully_present_for_its_strategy(self, grid):
        params = DgpParams(dropout_hazard=0.0)
        j = 15
        cohort = simulate_forced(params, grid[j], 300, seed=4)
        ht = horizon_table(cohort, grid)
        assert ht.uncensored[:, j].all()


class TestNesting:
    def test_uncensored_transfers_when_marker_path_avoids_band(self, grid):
        cohort = simulate_cohort(DgpParams(), 400, seed=31)
        ht = horizon_table(cohort, grid)
        xs = grid.xs
        lasts = cohort.last_observed_marker
        for i in range(cohort.n_subjects):
            lo, hi = cohort.offsets[i], cohort.offsets[i + 1]
            markers = lasts[lo:hi]
            for ja, jb in ((3, 9), (10, 22)):
                a, b = xs[ja], xs[jb]
                crosses = np.any((markers >= min(a, b)) & (markers < max(a, b)))
                if not crosses and ht.uncensored[i, ja]:
                    assert ht.uncensored[i, jb]
