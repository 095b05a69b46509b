"""The SVG chart: one full rendering pinned byte for byte, and the elements
that appear or not with the table's shape, its bands and the selection."""

import re
import warnings
from pathlib import Path

import numpy as np

from rcds import DoseResponseTable, select
from rcds.chart import MT, render_chart
from rcds.optimize import STATUS_INFEASIBLE

GOLDEN = Path(__file__).parent / "golden" / "chart.svg"


def table(xs, risk, usage, risk_band=None, usage_band=None):
    xs = np.asarray(xs, dtype=float)
    nan = np.full(xs.size, np.nan)
    rl, rh = (nan, nan) if risk_band is None else risk_band
    ul, uh = (nan, nan) if usage_band is None else usage_band
    return DoseResponseTable(
        xs=xs, risk=np.asarray(risk, dtype=float),
        usage=np.asarray(usage, dtype=float),
        risk_lo=np.asarray(rl, dtype=float), risk_hi=np.asarray(rh, dtype=float),
        usage_lo=np.asarray(ul, dtype=float),
        usage_hi=np.asarray(uh, dtype=float),
        n_atrisk=np.full(xs.size, 10))


def fixed_table():
    # unsorted thresholds, bands on risk only, two feasible caps at kappa 4
    return table([300, 200, 250, 350], [0.08, 0.05, 0.06, 0.1],
                 [3.5, 5.5, 4.5, 3.0],
                 risk_band=([0.06, 0.03, 0.045, 0.07],
                            [0.1, 0.07, 0.08, 0.13]))


def test_fixed_table_renders_pinned_svg():
    t = fixed_table()
    sel = select(t, 4.0)
    assert sel.chosen_x == 300.0
    assert render_chart(t, 4.0, sel) + "\n" == GOLDEN.read_text()


def test_bands_stay_inside_the_plot_box():
    # the risk band's top (0.13) lies above 1.2 x the largest risk (0.1)
    t = fixed_table()
    svg = render_chart(t, 4.0, select(t, 4.0))
    ys = [float(pt.split(",")[1])
          for poly in re.findall(r'<polygon points="([^"]*)"', svg)
          for pt in poly.split()]
    assert ys and min(ys) >= MT


def test_all_nan_band_warns_nothing():
    t = table([200, 250, 300], [0.05, 0.06, 0.08], [5.5, 4.5, 3.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        render_chart(t, 4.0)


def test_single_row_draws_points_without_curves():
    t = table([300], [0.08], [3.5])
    svg = render_chart(t, 4.0, select(t, 4.0))
    assert "<polyline" not in svg
    assert svg.count('r="2.5"') == 2


def test_nan_intervals_draw_no_band():
    t = table([200, 250, 300], [0.05, 0.06, 0.08], [5.5, 4.5, 3.5])
    svg = render_chart(t, 4.0)
    assert "<polygon" not in svg
    assert svg.count("<polyline") == 2


def test_infeasible_selection_draws_no_chosen_marker():
    t = table([200, 250, 300], [0.05, 0.06, 0.08], [5.5, 4.5, 3.5])
    sel = select(t, 1.0)
    assert sel.status == STATUS_INFEASIBLE
    svg = render_chart(t, 1.0, sel)
    assert "chosen x" not in svg
    assert 'r="5"' not in svg
    assert 'opacity="0.35"' not in svg  # no feasible region either


def test_split_feasible_runs_draw_one_rect_each():
    t = table([200, 250, 300, 350, 400, 450],
              [0.05, 0.06, 0.07, 0.08, 0.09, 0.1],
              [3.0, 3.5, 5.0, 5.5, 3.2, 3.1])
    svg = render_chart(t, 4.0, select(t, 4.0))
    assert svg.count('opacity="0.35"') == 2
