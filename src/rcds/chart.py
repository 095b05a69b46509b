"""Standalone SVG chart: risk and usage curves against the threshold grid.

Dual-axis line chart with the resource cap drawn on the usage axis, the
feasible region shaded, and the chosen threshold marked. Each vertical axis
reaches above its curve and the finite upper bounds of its bootstrap band.
Pure string assembly with fixed-precision numbers, so output is byte-stable.
"""

import numpy as np

WIDTH, HEIGHT = 860, 520
ML, MR, MT, MB = 70, 70, 48, 56

RISK_COLOR = "#b2182b"
USAGE_COLOR = "#2166ac"
KAPPA_COLOR = "#636363"
FEASIBLE_COLOR = "#a6dba0"
CHOSEN_COLOR = "#1a1a1a"


def _f(v):
    return f"{v:.2f}"


def _ticks(lo, hi, n=6):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def _text(x, y, body, size, anchor=None, fill=None):
    anchor = "" if anchor is None else f' text-anchor="{anchor}"'
    fill = "" if fill is None else f' fill="{fill}"'
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{fill}>{body}</text>')


def _line(x1, y1, x2, y2, stroke, width, dash=None):
    dash = "" if dash is None else f' stroke-dasharray="{dash}"'
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash}/>')


def _top(values, band_hi):
    """The largest of ``values`` and the finite upper band bounds."""
    band_hi = np.asarray(band_hi, dtype=float)
    return float(np.nanmax(np.r_[values, band_hi[np.isfinite(band_hi)]]))


def render_chart(table, kappa, selection=None, title="Risk and usage by threshold"):
    """Render the dose-response table and cap into a standalone SVG string."""
    order = np.argsort(np.asarray(table.xs, dtype=float))

    def ascending(values):
        return np.asarray(values, dtype=float)[order]

    xs, risk, usage = map(ascending, (table.xs, table.risk, table.usage))

    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    r_hi = max(_top(risk, table.risk_hi) * 1.2, 1e-6)
    u_hi = max(_top(usage, table.usage_hi), float(kappa)) * 1.15

    pw = WIDTH - ML - MR
    ph = HEIGHT - MT - MB
    right, bottom = ML + pw, MT + ph

    def sx(v):
        return ML + (v - x_lo) / (x_hi - x_lo) * pw

    def sr(v):
        return MT + ph - v / r_hi * ph

    def su(v):
        return MT + ph - v / u_hi * ph

    def points(at, values, scale):
        return [f"{_f(sx(x))},{_f(scale(v))}" for x, v in zip(at, values)]

    # (curve, band low, band high, vertical scale, colour): risk, then usage
    curves = ((risk, table.risk_lo, table.risk_hi, sr, RISK_COLOR),
              (usage, table.usage_lo, table.usage_hi, su, USAGE_COLOR))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(f"{WIDTH / 2:.1f}", 24, title, 16, "middle"),
    ]

    # feasible region: contiguous x-ranges with usage <= kappa
    edges = np.flatnonzero(np.diff(np.r_[0, usage <= kappa, 0]))
    for a, b in zip(edges[::2], edges[1::2] - 1):
        x0, x1 = sx(xs[a]), sx(xs[b])
        if x1 > x0:
            parts.append(
                f'<rect x="{_f(x0)}" y="{MT}" width="{_f(x1 - x0)}" '
                f'height="{ph}" fill="{FEASIBLE_COLOR}" opacity="0.35"/>'
            )

    # axes
    for x1, y1, x2, y2 in ((ML, bottom, right, bottom), (ML, MT, ML, bottom),
                           (right, MT, right, bottom)):
        parts.append(_line(x1, y1, x2, y2, "black", 1))
    for lo, hi, at, fmt, anchor, fill in (
            (x_lo, x_hi, lambda v: (_f(sx(v)), bottom + 18), ".0f", "middle",
             None),
            (0, r_hi, lambda v: (ML - 8, _f(sr(v) + 4)), ".3f", "end",
             RISK_COLOR),
            (0, u_hi, lambda v: (right + 8, _f(su(v) + 4)), ".2f", "start",
             USAGE_COLOR)):
        for v in _ticks(lo, hi):
            parts.append(_text(*at(v), format(v, fmt), 11, anchor, fill))
    parts.append(_text(f"{ML + pw / 2:.1f}", HEIGHT - 14, "threshold", 12,
                       "middle"))

    # confidence bands when present
    for _, lo, hi, scale, color in curves:
        if not np.all(np.isnan(np.asarray(lo, dtype=float))):
            pts = points(xs, ascending(hi), scale) \
                + points(xs[::-1], ascending(lo)[::-1], scale)
            parts.append(f'<polygon points="{" ".join(pts)}" fill="{color}" '
                         'opacity="0.12"/>')

    # curves (points when the table has a single row)
    if len(xs) > 1:
        for values, _, _, scale, color in curves:
            parts.append(
                f'<polyline points="{" ".join(points(xs, values, scale))}" '
                f'fill="none" stroke="{color}" stroke-width="2"/>'
            )
    for values, _, _, scale, color in curves:
        for x, v in zip(xs, values):
            parts.append(f'<circle cx="{_f(sx(x))}" cy="{_f(scale(v))}" '
                         f'r="2.5" fill="{color}"/>')

    # resource cap on the usage axis
    cap = su(kappa)
    parts.append(_line(ML, _f(cap), right, _f(cap), KAPPA_COLOR, 1.5, "6,4"))
    parts.append(_text(right - 4, _f(cap - 6), f"cap = {kappa:g}", 11, "end",
                       KAPPA_COLOR))

    # chosen threshold
    if selection is not None and selection.chosen_x is not None:
        cx = _f(sx(selection.chosen_x))
        parts.append(_line(cx, MT, cx, bottom, CHOSEN_COLOR, 1, "3,3"))
        parts.append(
            f'<circle cx="{cx}" cy="{_f(sr(selection.chosen_risk))}" '
            f'r="5" fill="none" stroke="{CHOSEN_COLOR}" stroke-width="2"/>'
        )
        parts.append(_text(cx, MT - 6, f"chosen x = {selection.chosen_x:g}",
                           12, "middle", CHOSEN_COLOR))

    # legend
    for dy, color, label in ((8, RISK_COLOR, "risk at horizon (left)"),
                             (24, USAGE_COLOR,
                              "expected measurements (right)")):
        parts.append(f'<rect x="{ML + 10}" y="{MT + dy}" width="12" '
                     f'height="3" fill="{color}"/>')
        parts.append(_text(ML + 28, MT + dy + 5, label, 11))

    parts.append("</svg>")
    return "\n".join(parts)
