"""Strategy windows and consistency-horizon semantics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rcds import (
    ConfigError,
    StrategyGrid,
    ThresholdStrategy,
    horizon_matrix,
)
from rcds.strategies import sweep
from conftest import (
    FIXTURE_K,
    FIXTURE_SCHEMA,
    _rows,
    fixture_horizons,
    make_fixture_records,
)
from reference import (
    SubjectRecord,
    applicable_window,
    consistency_horizon,
    from_records,
    per_strategy_horizon_matrix,
    record,
)


class TestApplicableWindow:
    def test_below_threshold(self):
        s = ThresholdStrategy(320.0, (2, 7), (8, 13), (2, 7))
        assert applicable_window(s, 250.0, 0) == (2, 7)

    def test_boundary_is_above(self):
        s = ThresholdStrategy(320.0, (2, 7), (8, 13), (2, 7))
        assert applicable_window(s, 320.0, 0) == (8, 13)

    def test_override_takes_precedence(self):
        s = ThresholdStrategy(320.0, (2, 7), (8, 13), (2, 7))
        assert applicable_window(s, 600.0, 1) == (2, 7)

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            ThresholdStrategy(320.0, window_below=(0, 7))
        with pytest.raises(ConfigError):
            ThresholdStrategy(320.0, window_below=(5, 3))
        with pytest.raises(ConfigError):
            ThresholdStrategy(320.0, window_below=(2, 14), window_above=(8, 13))


class TestConsistencyHorizon:
    def test_regular_three_month_schedule_is_consistent(self, fixture_records):
        s1 = fixture_records[0]
        for x in (200.0, 320.0, 500.0):
            strat = ThresholdStrategy(x, (2, 7), (8, 13), (2, 7))
            assert consistency_horizon(strat, s1) == FIXTURE_K + 1

    def test_missed_visit_deviates_in_the_month_it_is_due(self, fixture_records):
        s2 = fixture_records[1]
        strat = ThresholdStrategy(320.0, (2, 7), (8, 13), (2, 7))
        assert consistency_horizon(strat, s2) == 7

    def test_premature_visit_deviates_at_second_visit(self, fixture_records):
        s2 = fixture_records[1]
        # for x <= 240 the subject sits above threshold; the month-11 visit
        # comes at gap 2 < 8
        strat = ThresholdStrategy(240.0, (2, 7), (8, 13), (2, 7))
        assert consistency_horizon(strat, s2) == 11

    def test_hand_traced_fixture_all_strategies(self, fixture_records):
        for x in np.arange(200.0, 501.0, 10.0):
            strat = ThresholdStrategy(x, (2, 7), (8, 13), (2, 7))
            want = fixture_horizons(x)
            for rec in fixture_records:
                assert consistency_horizon(strat, rec) == want[rec.subject_id], \
                    f"x={x}, subject={rec.subject_id}"

    def test_prefix_property(self, fixture_records):
        # appending rows after the deviation month never changes the horizon
        s2 = fixture_records[1]
        strat = ThresholdStrategy(320.0, (2, 7), (8, 13), (2, 7))
        full = consistency_horizon(strat, s2)
        for cut in range(full + 1, len(s2.rows) + 1):
            trimmed = SubjectRecord(
                subject_id="s2", baseline=s2.baseline, rows=s2.rows[:cut],
                outcome_y=float("nan"), followup_end=cut - 1,
                end_reason="lost", horizon=s2.horizon)
            assert consistency_horizon(strat, trimmed) == full

    def test_monotone_window_property(self, fixture_records):
        # strategies differing only in x agree whenever the marker path never
        # lands between the thresholds
        s1 = fixture_records[0]  # markers in [95, 110]
        a = ThresholdStrategy(330.0, (2, 7), (8, 13), (2, 7))
        b = ThresholdStrategy(470.0, (2, 7), (8, 13), (2, 7))
        assert consistency_horizon(a, s1) == consistency_horizon(b, s1)


class TestHorizonMatrix:
    def test_matches_record_level_on_fixture(self, fixture_cohort, fixture_records):
        grid = StrategyGrid.default()
        mat = horizon_matrix(fixture_cohort, grid)
        for i, rec in enumerate(fixture_records):
            for j, strat in enumerate(grid):
                assert mat[i, j] == consistency_horizon(strat, rec)

    def test_matches_record_level_on_simulated(self):
        from rcds import DgpParams, simulate_cohort

        cohort = simulate_cohort(DgpParams(), 150, seed=9)
        grid = StrategyGrid.default(x_step=50)
        mat = horizon_matrix(cohort, grid)
        for i in range(cohort.n_subjects):
            rec = record(cohort, i)
            for j, strat in enumerate(grid):
                assert mat[i, j] == consistency_horizon(strat, rec)


class TestWindowCells:
    def test_holds_each_decision_month_once(self):
        from rcds import DgpParams, simulate_cohort
        from rcds.strategies import WindowCells

        cohort = simulate_cohort(DgpParams(), 1000, seed=1)
        grid = StrategyGrid.default()
        cells = WindowCells(cohort, grid)
        marker, override, gap = cohort.prev_state()
        rows = {"marker": marker, "override": override, "gap": gap,
                "subject": cohort.subject_index_per_row(), "t": cohort.t,
                "visit": cohort.monitor == 1,
                "jstar": np.searchsorted(grid.xs, marker, "right")}
        dec = cohort.t >= 1
        for name, full in rows.items():
            assert np.array_equal(getattr(cells, name), full[dec]), name
        # no full-row array rides along
        assert {name for name, value in vars(cells).items()
                if isinstance(value, np.ndarray)} == set(rows)

    def test_types_follow_the_horizon_and_the_grid(self):
        from rcds import DgpParams, simulate_cohort
        from rcds.strategies import WindowCells, signed_type

        assert [signed_type(b) for b in (1, 127, 128, 32767, 32768)] == [
            np.int8, np.int8, np.int16, np.int16, np.int32]
        cohort = simulate_cohort(DgpParams(), 50, seed=1)
        cells = WindowCells(cohort, StrategyGrid.default())
        assert (cells.gap.dtype, cells.t.dtype, cells.jstar.dtype) == (
            np.int8, np.int8, np.int8)
        assert (cells.subject.dtype, cells.marker.dtype) == (np.intp,
                                                             np.float64)
        assert horizon_matrix(cohort, StrategyGrid.default()).dtype == np.int8

    def test_cell_keys_are_taken_in_intp(self):
        from rcds import DgpParams, simulate_cohort
        from rcds.strategies import WindowCells

        cohort = simulate_cohort(DgpParams(), 2000, seed=1)
        grid = StrategyGrid.default()
        cells = WindowCells(cohort, grid)
        n = cohort.n_subjects
        # a key in the type of jstar would wrap
        assert cells.jstar.dtype == np.int8
        assert len(grid) * n > np.iinfo(np.int16).max
        jstar = cells.jstar.astype(np.int64)
        ovr = cells.override == 1
        want = ((jstar - 1) * n + cells.subject,
                np.where(ovr, 0, jstar) * n + cells.subject)
        for (mask, _, _, column), key in zip(cells.decision_sides(), want):
            got = cells.keys(column, mask)
            assert got.dtype == np.intp
            assert np.array_equal(got, key[mask])
            assert got.max() >= (len(grid) - 1) * n


class TestSweep:
    """The in-place sweep against the ``accumulate`` formula it replaced."""

    @pytest.mark.parametrize("op", [np.add, np.minimum],
                             ids=["add", "minimum"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 31])
    def test_matches_accumulate_bit_for_bit(self, op, dtype, k):
        rng = np.random.default_rng(k)
        above, below = (rng.normal(scale=1e3, size=(k, 257)).astype(dtype)
                        for _ in range(2))
        rev = op.accumulate(above[::-1], axis=0)[::-1]
        fwd = op.accumulate(below, axis=0)
        got = sweep(above, below, op)
        assert got.dtype == dtype
        assert np.array_equal(got, op(rev, fwd))
        # each side ends as its own reduction: the above one reversed
        assert np.array_equal(above, rev)
        assert got is below


class TestHorizonMatrixGate:
    """The cell sweeps against the per-strategy pass over every row."""

    @pytest.fixture(scope="class")
    def cohorts(self):
        from rcds import DgpParams, simulate_cohort

        return {seed: simulate_cohort(DgpParams(), 4000, seed=seed)
                for seed in (1, 2)}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_grid_at_cohort_scale(self, cohorts, seed):
        grid = StrategyGrid.default()
        got = horizon_matrix(cohorts[seed], grid)
        assert np.array_equal(got, per_strategy_horizon_matrix(cohorts[seed],
                                                               grid))

    def test_one_threshold(self, cohorts):
        grid = StrategyGrid((ThresholdStrategy(350.0),))
        assert np.array_equal(horizon_matrix(cohorts[1], grid),
                              per_strategy_horizon_matrix(cohorts[1], grid))

    def test_thresholds_on_observed_markers(self, cohorts):
        cohort = cohorts[2]
        markers = np.unique(cohort.observed_marker[cohort.monitor == 1])
        xs = markers[np.linspace(0, markers.size - 1, 12).astype(int)]
        grid = StrategyGrid(tuple(ThresholdStrategy(float(x)) for x in xs))
        assert np.isin(grid.xs, cohort.last_observed_marker).all()
        assert np.array_equal(horizon_matrix(cohort, grid),
                              per_strategy_horizon_matrix(cohort, grid))

    def test_empty_grid(self, cohorts):
        got = horizon_matrix(cohorts[1], StrategyGrid(()))
        assert got.shape == (4000, 0)
        assert np.array_equal(got, per_strategy_horizon_matrix(
            cohorts[1], StrategyGrid(())))

    def test_no_pass_per_strategy(self, monkeypatch):
        import rcds.strategies
        from rcds import DgpParams, Plan, horizon_table, simulate_cohort

        def one_strategy_pass(*args):
            raise AssertionError("the estimator loops over strategies")

        cohort = simulate_cohort(DgpParams(), 1000, seed=1)
        grid = StrategyGrid.default()
        monkeypatch.setattr(rcds.strategies, "window_bounds", one_strategy_pass)
        assert horizon_matrix(cohort, grid).shape == (1000, len(grid))
        assert horizon_table(cohort, grid).uncensored.shape == (1000, len(grid))
        risk, usage, _ = Plan(cohort, grid).run(None)
        assert np.all(np.isfinite(risk)) and np.all(np.isfinite(usage))


# markers on the thresholds' own 50-unit lattice, so ties with x occur
MARKERS = tuple(float(m) for m in range(150, 551, 50))


@st.composite
def small_records(draw):
    records = []
    for i in range(draw(st.integers(1, 6))):
        end = draw(st.integers(0, FIXTURE_K))
        spec = []
        for t in range(end + 1):
            visit = t == 0 or draw(st.booleans())
            spec.append((t, int(visit),
                         draw(st.sampled_from(MARKERS)) if visit else np.nan,
                         draw(st.sampled_from((0, 1)))))
        records.append(SubjectRecord(
            subject_id=f"s{i}", baseline={"sex": 0.0, "age": 40.0},
            rows=_rows(spec),
            outcome_y=0.0 if end == FIXTURE_K else float("nan"),
            followup_end=end,
            end_reason="administrative_end" if end == FIXTURE_K else "lost",
            horizon=FIXTURE_K))
    return records


@st.composite
def window_triples(draw):
    def window():
        lo = draw(st.integers(1, 8))
        return lo, draw(st.integers(lo, 14))

    below, above, override = window(), window(), window()
    if below[1] > above[1]:
        below, above = above, below
    return below, above, override


class TestHorizonMatrixProperty:
    @given(small_records(), window_triples(),
           st.sets(st.sampled_from(MARKERS), min_size=1, max_size=4))
    def test_equals_consistency_horizon(self, records, windows, xs):
        cohort = from_records(records, FIXTURE_SCHEMA, FIXTURE_K)
        grid = StrategyGrid(tuple(ThresholdStrategy(x, *windows)
                                  for x in sorted(xs)))
        want = [[consistency_horizon(s, r) for s in grid] for r in records]
        assert horizon_matrix(cohort, grid).tolist() == want


class TestStrategyGrid:
    def test_default_grid_is_31_strategies(self):
        grid = StrategyGrid.default()
        assert len(grid) == 31
        assert grid.xs[0] == 200.0 and grid.xs[-1] == 500.0
        assert np.all(np.diff(grid.xs) == 10.0)

    def test_nonincreasing_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            StrategyGrid(strategies=(ThresholdStrategy(300.0),
                                     ThresholdStrategy(300.0)))

    @pytest.mark.parametrize("window", ["27", (2.5, 7), (True, 7), (2, 7, 9),
                                        [2], 3, None])
    def test_window_must_be_two_whole_months(self, window):
        with pytest.raises(ConfigError, match="window_below must be two whole"):
            StrategyGrid.default(window_below=window)

    def test_whole_floats_are_whole_months(self):
        grid = StrategyGrid.default(window_below=[2.0, 7.0])
        assert grid[0].window_below == (2, 7)

    def test_mixed_windows_rejected(self):
        with pytest.raises(ConfigError):
            StrategyGrid(strategies=(
                ThresholdStrategy(300.0, (2, 7), (8, 13), (2, 7)),
                ThresholdStrategy(310.0, (3, 6), (8, 13), (2, 7)),
            ))
