"""Hand-emitted SVG and CSV output for the lens-in-strip picture.

The figure composes, in a fixed 1000x1000 viewbox: the two hyperbola arcs
bounding the eps-midpoint lens, the two horizontal strip lines with their
convex-combination labels, the labelled endpoints p and q, the midpoint m,
and a dashed vertical time axis.  World coordinates (t, x) map affinely to
the viewbox with x rightward and t upward; all emitted coordinates are
formatted to six decimals so golden comparisons at 1e-6 are meaningful.
"""

from __future__ import annotations

from .midpoints import LensStrip, affine_midpoint


def _fmt(v):
    return f"{v:.6f}"


def lens_geometry(lens: LensStrip, samples: int = 200):
    """World-coordinate polylines for the figure: arcs, strip lines, axis."""
    p, q = lens.p, lens.q
    arcs = lens.boundary_polylines(samples)
    pts = [y for _, poly in arcs for y in poly] + [p, q]
    ts = [y[0] for y in pts]
    xs = [y[1] for y in pts]
    t_span = max(ts) - min(ts) or 1.0
    x_span = max(xs) - min(xs) or 1.0
    span = max(t_span, x_span)
    t_lo, t_hi = min(ts) - 0.18 * span, max(ts) + 0.18 * span
    mid_x = (max(xs) + min(xs)) / 2.0
    x_lo, x_hi = mid_x - 0.5 * span - 0.18 * span, mid_x + 0.5 * span + 0.18 * span

    strip_lo_t, strip_hi_t = lens.strip_times()
    axis_x = x_lo + 0.06 * (x_hi - x_lo)

    polylines = list(arcs)
    polylines.append(("strip_lower", [(strip_lo_t, x_lo), (strip_lo_t, x_hi)]))
    polylines.append(("strip_upper", [(strip_hi_t, x_lo), (strip_hi_t, x_hi)]))
    polylines.append(("time_axis", [(t_lo, axis_x), (t_hi, axis_x)]))
    box = (t_lo, t_hi, x_lo, x_hi)
    midpoint = affine_midpoint(p, q)
    return polylines, box, midpoint


def lens_boundary_rows(lens: LensStrip, samples: int = 200):
    """CSV rows (curve_id, t, x) for every emitted polyline."""
    polylines, _, _ = lens_geometry(lens, samples)
    rows = []
    for curve_id, poly in polylines:
        for t, x in poly:
            rows.append((curve_id, t, x))
    return rows


def lens_figure_svg(lens: LensStrip, samples: int = 200) -> str:
    polylines, box, midpoint = lens_geometry(lens, samples)
    t_lo, t_hi, x_lo, x_hi = box

    def sx(x):
        return 1000.0 * (x - x_lo) / (x_hi - x_lo)

    def sy(t):
        return 1000.0 - 1000.0 * (t - t_lo) / (t_hi - t_lo)

    def path(poly):
        steps = [f"{'M' if i == 0 else 'L'} {_fmt(sx(x))} {_fmt(sy(t))}"
                 for i, (t, x) in enumerate(poly)]
        return " ".join(steps)

    named = dict(polylines)
    p, q = lens.p, lens.q
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
        '<g fill="none" stroke="black" stroke-width="1.5">',
    ]
    for curve_id in ("lens_p", "lens_q"):
        poly = named[curve_id]
        if len(poly) > 1:
            parts.append(f'<path id="{curve_id}" d="{path(poly)}"/>')
    for curve_id in ("strip_lower", "strip_upper"):
        (t, xa), (_, xb) = named[curve_id]
        parts.append(
            f'<line id="{curve_id}" x1="{_fmt(sx(xa))}" y1="{_fmt(sy(t))}" '
            f'x2="{_fmt(sx(xb))}" y2="{_fmt(sy(t))}"/>')
    (ta, xa), (tb, _) = named["time_axis"]
    parts.append(
        f'<line id="time_axis" stroke-dasharray="8 6" x1="{_fmt(sx(xa))}" '
        f'y1="{_fmt(sy(ta))}" x2="{_fmt(sx(xa))}" y2="{_fmt(sy(tb))}"/>')
    parts.append('</g>')

    for name, (t, x) in (("p", p), ("q", q), ("m", midpoint)):
        parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(t))}" r="4" fill="black"/>')
        parts.append(
            f'<text x="{_fmt(sx(x) - 22.0)}" y="{_fmt(sy(t) + 5.0)}" '
            f'font-size="26">{name}</text>')
    lens_label_x = sx(midpoint[1]) + 60.0
    parts.append(
        f'<text x="{_fmt(lens_label_x)}" y="{_fmt(sy(midpoint[0]) + 5.0)}" '
        'font-size="26">L</text>')
    parts.append(
        f'<text x="{_fmt(sx(xa) - 10.0)}" y="{_fmt(sy(tb) - 10.0)}" font-size="26">T</text>')
    lo_y, hi_y = sy(named["strip_lower"][0][0]), sy(named["strip_upper"][0][0])
    parts.append(
        f'<text x="720.000000" y="{_fmt(lo_y - 8.0)}" font-size="20">'
        '(1-c)T(p)+cT(q)</text>')
    parts.append(
        f'<text x="720.000000" y="{_fmt(hi_y - 8.0)}" font-size="20">'
        'cT(p)+(1-c)T(q)</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
