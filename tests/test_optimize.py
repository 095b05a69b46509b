"""Constrained selection on the published 31-threshold reference table."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rcds import ConfigError, frontier, select
from rcds.msm import DoseResponseTable
from rcds.optimize import STATUS_INFEASIBLE, STATUS_OK

# Reference dose-response values: threshold, failure risk (%), expected
# cumulative measurements over 24 months.
REFERENCE_ROWS = [
    (500, 6.91, 4.94), (490, 6.85, 4.89), (480, 6.80, 4.84),
    (470, 6.74, 4.78), (460, 6.69, 4.73), (450, 6.64, 4.68),
    (440, 6.59, 4.63), (430, 6.54, 4.58), (420, 6.52, 4.53),
    (410, 6.51, 4.48), (400, 6.54, 4.43), (390, 6.60, 4.37),
    (380, 6.71, 4.31), (370, 6.87, 4.25), (360, 7.08, 4.19),
    (350, 7.33, 4.13), (340, 7.62, 4.07), (330, 7.93, 4.01),
    (320, 8.27, 3.96), (310, 8.61, 3.92), (300, 8.97, 3.88),
    (290, 9.33, 3.84), (280, 9.70, 3.81), (270, 10.08, 3.78),
    (260, 10.48, 3.75), (250, 10.88, 3.73), (240, 11.31, 3.70),
    (230, 11.75, 3.67), (220, 12.21, 3.65), (210, 12.68, 3.62),
    (200, 13.18, 3.60),
]


def reference_table():
    xs = np.array([r[0] for r in REFERENCE_ROWS], dtype=float)
    risk = np.array([r[1] for r in REFERENCE_ROWS]) / 100.0
    usage = np.array([r[2] for r in REFERENCE_ROWS])
    return DoseResponseTable.point_only(xs, risk, usage,
                                        np.zeros(xs.size, dtype=int))


@pytest.fixture(scope="module")
def table():
    return reference_table()


class TestSelect:
    def test_cap_four_selects_320(self, table):
        sel = select(table, 4.0)
        assert sel.status == STATUS_OK
        assert sel.chosen_x == 320.0
        assert sel.chosen_risk == pytest.approx(0.0827)
        assert sel.chosen_usage == pytest.approx(3.96)

    def test_cap_three_is_infeasible(self, table):
        sel = select(table, 3.0)
        assert sel.status == STATUS_INFEASIBLE
        assert sel.chosen_x is None
        assert sel.feasible_x.size == 0

    def test_cap_four_point_seven_selects_410(self, table):
        sel = select(table, 4.7)
        assert sel.chosen_x == 410.0
        assert sel.chosen_risk == pytest.approx(0.0651)
        assert sel.chosen_usage == pytest.approx(4.48)
        # every threshold from 200 through 450 satisfies this cap
        assert set(sel.feasible_x) == set(np.arange(200.0, 451.0, 10.0))

    def test_unconstrained_cap_selects_global_minimizer(self, table):
        sel = select(table, 99.0)
        assert sel.chosen_x == 410.0
        assert sel.chosen_risk == pytest.approx(0.0651)

    def test_single_row_table(self, table):
        one = DoseResponseTable.point_only(
            np.array([320.0]), np.array([0.0827]), np.array([3.96]),
            np.array([5]))
        assert select(one, 4.0).chosen_x == 320.0
        assert select(one, 3.0).status == STATUS_INFEASIBLE

    def test_order_independence(self, table):
        rng = np.random.default_rng(2)
        perm = rng.permutation(len(table))
        shuffled = DoseResponseTable.point_only(
            table.xs[perm], table.risk[perm], table.usage[perm],
            table.n_atrisk[perm])
        for kappa in (3.0, 4.0, 4.7, 6.0):
            a = select(table, kappa)
            b = select(shuffled, kappa)
            assert a.status == b.status and a.chosen_x == b.chosen_x

    def test_monotone_transform_invariance(self, table):
        warped = DoseResponseTable.point_only(
            table.xs, np.exp(3.0 * table.risk) + 1.0, table.usage,
            table.n_atrisk)
        for kappa in (4.0, 4.7, 6.0):
            assert select(table, kappa).chosen_x == \
                select(warped, kappa).chosen_x

    def test_monotone_feasibility_and_risk(self, table):
        prev_set = 0
        prev_risk = None
        for kappa in np.linspace(3.5, 5.2, 25):
            sel = select(table, kappa)
            assert sel.feasible_x.size >= prev_set
            prev_set = sel.feasible_x.size
            if sel.status == STATUS_OK:
                if prev_risk is not None:
                    assert sel.chosen_risk <= prev_risk + 1e-12
                prev_risk = sel.chosen_risk

    def test_tie_break_prefers_smaller_usage_then_smaller_x(self):
        t = DoseResponseTable.point_only(
            np.array([300.0, 310.0, 320.0]),
            np.array([0.08, 0.08, 0.08]),
            np.array([4.0, 3.5, 3.5]),
            np.zeros(3, dtype=int))
        sel = select(t, 5.0)
        assert sel.chosen_x == 310.0  # lowest usage, then lowest threshold

    @given(st.data())
    def test_select_is_the_least_feasible_row(self, data):
        # the first feasible threshold in the order (risk, usage, x) is the
        # brute-force minimum of those triples; few distinct values draw
        # ties, a list drawn unique comes in any order, and a cap under
        # every usage leaves no feasible row
        xs = data.draw(st.lists(st.sampled_from(range(200, 510, 10)),
                                min_size=1, max_size=8, unique=True))
        k = len(xs)
        risk = data.draw(st.lists(st.sampled_from([0.05, 0.08, 0.1]),
                                  min_size=k, max_size=k))
        usage = data.draw(st.lists(st.sampled_from([3.5, 4.0, 4.5]),
                                   min_size=k, max_size=k))
        kappa = data.draw(st.sampled_from([3.0, 3.5, 4.0, 4.5]))
        t = DoseResponseTable.point_only(
            np.array(xs, dtype=float), np.array(risk), np.array(usage),
            np.zeros(k, dtype=int))
        sel = select(t, kappa)
        feasible = [(r, u, float(x)) for x, r, u in zip(xs, risk, usage)
                    if u <= kappa]
        assert sel.feasible_x.tolist() == sorted(x for _, _, x in feasible)
        if not feasible:
            assert sel.status == STATUS_INFEASIBLE
            assert (sel.chosen_x, sel.chosen_risk, sel.chosen_usage) == \
                (None, None, None)
            return
        assert sel.status == STATUS_OK
        assert (sel.chosen_risk, sel.chosen_usage, sel.chosen_x) == \
            min(feasible)

    def test_validation(self, table):
        with pytest.raises(ConfigError):
            select(table, -1.0)
        empty = DoseResponseTable.point_only(
            np.array([]), np.array([]), np.array([]), np.array([], dtype=int))
        with pytest.raises(ConfigError):
            select(empty, 4.0)


class TestFrontier:
    def test_published_caps(self, table):
        selections, _ = frontier(table, [3.0, 4.0, 4.7])
        assert selections[0].status == STATUS_INFEASIBLE
        assert selections[1].chosen_x == 320.0
        assert selections[2].chosen_x == 410.0

    def test_incremental_ratios(self, table):
        _, steps = frontier(table, [4.0, 4.7])
        assert len(steps) == 1
        st = steps[0]
        assert st.x_from == 320.0 and st.x_to == 410.0
        assert st.risk_change == pytest.approx(0.0651 - 0.0827)
        assert st.usage_change == pytest.approx(4.48 - 3.96)
        assert st.risk_per_usage == pytest.approx(
            (0.0651 - 0.0827) / (4.48 - 3.96))

    def test_infeasible_step_has_no_ratio(self, table):
        _, steps = frontier(table, [3.0, 4.0])
        assert len(steps) == 1
        assert steps[0].risk_per_usage is None

    def test_empty_grid_rejected(self, table):
        with pytest.raises(ConfigError):
            frontier(table, [])

    def test_runtime_under_one_second(self, table):
        import time

        t0 = time.time()
        for kappa in (4.0, 3.0, 4.7):
            select(table, kappa)
        assert time.time() - t0 < 1.0
