"""Hand-rolled SVG scatter + frontier staircase plots.

No plotting dependency: the output must be byte-identical across reruns, so
every coordinate is formatted with a fixed precision and methods are drawn in
sorted order.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import ConfigError
from .frontier import PROJECTIONS, FrontierPoint, pareto_front

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 640
_HEIGHT = 480
_MARGIN_L = 70
_MARGIN_R = 150
_MARGIN_T = 40
_MARGIN_B = 55


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_frontier_svg(
    points_by_method: Mapping[str, Sequence[FrontierPoint]],
    projection: str = "ret_ft",
) -> str:
    """Scatter every run and overlay each method's Pareto staircase."""
    if projection not in PROJECTIONS:
        raise ConfigError(f"unknown projection {projection!r}, expected one of {sorted(PROJECTIONS)}")
    methods = sorted(points_by_method)
    if not methods or all(len(points_by_method[m]) == 0 for m in methods):
        raise ConfigError("nothing to plot: no points in any method")
    xlabel, ylabel = PROJECTIONS[projection]

    all_pts = [p for m in methods for p in points_by_method[m]]
    xmin = min(p.x for p in all_pts)
    xmax = max(p.x for p in all_pts)
    ymin = min(p.y for p in all_pts)
    ymax = max(p.y for p in all_pts)
    # a zero span is widened relative to the values, so rounding cannot
    # swallow the margins at any magnitude
    xspan = max(xmax - xmin, 1e-9 * max(1.0, abs(xmin), abs(xmax)))
    yspan = max(ymax - ymin, 1e-9 * max(1.0, abs(ymin), abs(ymax)))
    xmin -= 0.05 * xspan
    xmax += 0.05 * xspan
    ymin -= 0.05 * yspan
    ymax += 0.05 * yspan

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - xmin) / (xmax - xmin) * plot_w

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN_B - (y - ymin) / (ymax - ymin) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    # axes
    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    x1, y1 = _WIDTH - _MARGIN_R, _MARGIN_T
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>')
    # ticks
    for i in range(5):
        tx = xmin + (xmax - xmin) * i / 4
        px = sx(tx)
        out.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>')
        out.append(
            f'<text x="{_fmt(px)}" y="{y0 + 20}" font-size="11" text-anchor="middle" '
            f'font-family="monospace">{tx:.4g}</text>'
        )
        ty = ymin + (ymax - ymin) * i / 4
        py = sy(ty)
        out.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end" '
            f'font-family="monospace">{ty:.4g}</text>'
        )
    out.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 15}" font-size="13" text-anchor="middle" '
        f'font-family="monospace">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-size="13" text-anchor="middle" '
        f'font-family="monospace" transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{ylabel}</text>'
    )

    for idx, method in enumerate(methods):
        pts = points_by_method[method]
        if len(pts) == 0:
            continue
        color = _PALETTE[idx % len(_PALETTE)]
        for p in pts:
            out.append(
                f'<circle cx="{_fmt(sx(p.x))}" cy="{_fmt(sy(p.y))}" r="3" fill="{color}" '
                f'fill-opacity="0.5"/>'
            )
        front = pareto_front(list(pts))
        path = [f"M {_fmt(sx(front.points[0].x))} {_fmt(sy(front.points[0].y))}"]
        for prev, nxt in zip(front.points, front.points[1:]):
            path.append(f"H {_fmt(sx(nxt.x))}")
            path.append(f"V {_fmt(sy(nxt.y))}")
        out.append(
            f'<path d="{" ".join(path)}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        # legend entry
        ly = _MARGIN_T + 10 + 22 * idx
        lx = _WIDTH - _MARGIN_R + 12
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{ly + 4}" font-size="12" font-family="monospace">{method}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
