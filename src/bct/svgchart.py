"""Deterministic SVG line charts, no plotting dependency.

Output is a plain string built with fixed float formatting, so the same
series render to the same bytes on every run and platform. Non-finite
points (a NaN validation column, say) are dropped per series rather than
breaking the chart.
"""

import math

# line colors cycle through this palette in series order
PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#bf3989")

_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 40
_MARGIN_B = 44


def _f(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


def _finite_points(xs, ys):
    if len(xs) != len(ys):
        raise ValueError(f"series length mismatch: {len(xs)} xs vs {len(ys)} ys")
    return [(float(x), float(y)) for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)]


def _ticks(lo: float, hi: float, n: int = 5):
    if lo == hi:  # degenerate span: center a unit range on the value
        lo, hi = lo - 0.5, hi + 0.5
    if not math.isfinite(hi - lo):
        raise ValueError(f"cannot scale {lo:g} to {hi:g}: the span overflows a float")
    return lo, hi, [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def line_chart(series, title: str = "", x_label: str = "", y_label: str = "",
               width: int = 720, height: int = 440) -> str:
    """Render [(name, xs, ys), ...] to a self-contained SVG string."""
    cleaned = [(name, _finite_points(xs, ys)) for name, xs, ys in series]
    cleaned = [(name, pts) for name, pts in cleaned if pts]
    if not cleaned:
        raise ValueError("nothing to plot: no series with finite points")

    all_x = [p[0] for _, pts in cleaned for p in pts]
    all_y = [p[1] for _, pts in cleaned for p in pts]
    x_lo, x_hi, x_ticks = _ticks(min(all_x), max(all_x))
    y_lo, y_hi, y_ticks = _ticks(min(all_y), max(all_y))

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        out.append(
            f'<text x="{_f(width / 2)}" y="22" text-anchor="middle" '
            f'font-size="15" fill="#24292f">{_escape(title)}</text>'
        )

    for t in x_ticks:
        x = _f(px(t))
        out.append(f'<line x1="{x}" y1="{_MARGIN_T}" x2="{x}" '
                   f'y2="{_MARGIN_T + plot_h}" stroke="#d0d7de" stroke-width="1"/>')
        out.append(f'<text x="{x}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
                   f'fill="#57606a">{_tick_label(t)}</text>')
    for t in y_ticks:
        y = _f(py(t))
        out.append(f'<line x1="{_MARGIN_L}" y1="{y}" x2="{_MARGIN_L + plot_w}" '
                   f'y2="{y}" stroke="#d0d7de" stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y}" text-anchor="end" '
                   f'dominant-baseline="middle" fill="#57606a">{_tick_label(t)}</text>')

    # axes over the gridlines
    out.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
               f'y2="{_MARGIN_T + plot_h}" stroke="#24292f" stroke-width="1.5"/>')
    out.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
               f'x2="{_MARGIN_L + plot_w}" y2="{_MARGIN_T + plot_h}" '
               f'stroke="#24292f" stroke-width="1.5"/>')
    if x_label:
        out.append(f'<text x="{_f(_MARGIN_L + plot_w / 2)}" y="{height - 10}" '
                   f'text-anchor="middle" fill="#24292f">{_escape(x_label)}</text>')
    if y_label:
        cx, cy = 16, _MARGIN_T + plot_h / 2
        out.append(f'<text x="{cx}" y="{_f(cy)}" text-anchor="middle" '
                   f'transform="rotate(-90 {cx} {_f(cy)})" fill="#24292f">{_escape(y_label)}</text>')

    for i, (name, pts) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_f(px(x))},{_f(py(y))}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="2"/>')
        if len(pts) == 1:  # a single point would render as nothing
            x, y = pts[0]
            out.append(f'<circle cx="{_f(px(x))}" cy="{_f(py(y))}" r="3" fill="{color}"/>')

    # legend, top-right inside the plot area
    for i, (name, _) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        ly = _MARGIN_T + 14 + 18 * i
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}" fill="#24292f">{_escape(name)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
