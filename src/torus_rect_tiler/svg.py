"""Deterministic SVG pictures of tilings: rectangle outlines in the plane,
the basis parallelogram for context, nearby lattice points, and the basis
vectors drawn as arrows from the origin.

The picture is computed on one cleared integer frame, with no Fraction per
point: each pixel coordinate is rounded half away from zero at three decimals
from its integer numerator and denominator, so identical inputs give
identical bytes.
"""

from __future__ import annotations

from .exact_math import clear_denominators
from .lattice import axis_forms, box_points
from .tiling import Tiling


def _round3(n, d=1) -> str:
    # n/d (d > 0) rounded half away from zero at three decimals: floor(|n/d| *
    # 1000 + 1/2) is (2000|n| + d) // 2d, an int also for a Fraction n and d = 1.
    m = (2000 * abs(n) + d) // (2 * d)
    whole, frac = divmod(m, 1000)
    text = f"{whole}.{frac:03d}".rstrip("0").rstrip(".")
    return ("-" + text) if n < 0 and m else text


def _frame(tiling: Tiling) -> tuple[int, tuple[int, ...], tuple[int, int, int, int]]:
    """(den, ints, box): basis entries, rectangle coordinates and the padded
    box (x_lo, x_hi, y_lo, y_hi) in units of 1/den, with den ten times the LCD."""
    u, v = tiling.basis.u, tiling.basis.v
    den, ints = clear_denominators(
        u.x, u.y, v.x, v.y, *(c for r in tiling.rects for c in (r.x0, r.x1, r.y0, r.y1))
    )
    ints = tuple(10 * c for c in ints)
    ux, uy, vx, vy = ints[:4]
    xs = (0, ux, vx, ux + vx, *ints[4::4], *ints[5::4])
    ys = (0, uy, vy, uy + vy, *ints[6::4], *ints[7::4])
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    pad = max(x_hi - x_lo, y_hi - y_lo) // 10
    return 10 * den, ints, (x_lo - pad, x_hi + pad, y_lo - pad, y_hi + pad)


def point_bound(tiling: Tiling) -> int:
    """Certified bound on the lattice points ``render_tiling_svg`` draws:
    lattice x-coordinates are the multiples of g_x, the spacing of the
    vertical lattice lines, and the points on one are d_y apart, so the
    picture's W x H box holds at most (W // g_x + 1) * (H // d_y + 1)."""
    _, ints, (x_lo, x_hi, y_lo, y_hi) = _frame(tiling)
    g_x, d_y, _ = axis_forms(*ints[:4])[1]
    return ((x_hi - x_lo) // g_x + 1) * ((y_hi - y_lo) // d_y + 1)


def render_tiling_svg(tiling: Tiling, width: int = 640) -> str:
    """Render the tiling to standalone SVG text, ``width`` pixels wide.

    The picture shows the padded box of ``_frame`` and draws a circle at every
    lattice point in it.  All of it is computed on one cleared integer frame:
    a point (a, b) there is the pixel ((a - x_lo) * width / W, (y_hi - b) *
    width / W), W = x_hi - x_lo, at two integer roundings and no ``Fraction``.
    The point count grows with the box's area over the covolume, and nothing
    here bounds it; the CLI refuses pictures whose ``point_bound`` is large.
    """
    if width <= 0:
        raise ValueError("width must be a positive pixel count")
    _, ints, (x_lo, x_hi, y_lo, y_hi) = _frame(tiling)
    ux, uy, vx, vy = ints[:4]
    w = x_hi - x_lo

    def point(a: int, b: int) -> tuple[str, str]:
        return _round3((a - x_lo) * width, w), _round3((y_hi - b) * width, w)

    par = ((0, 0), (ux, uy), (ux + vx, uy + vy), (vx, vy))
    points_attr = " ".join(",".join(point(a, b)) for a, b in par)
    elements = [
        f'<polygon class="cell" points="{points_attr}" fill="none" '
        'stroke="#999999" stroke-dasharray="6,4" stroke-width="1"/>'
    ]

    for a, b in sorted(box_points((ux, uy, vx, vy), x_lo, x_hi, y_lo, y_hi)):
        cx, cy = point(a, b)
        elements.append(
            f'<circle class="lattice-point" cx="{cx}" cy="{cy}" r="3" fill="#444444"/>'
        )

    for rx0, rx1, ry0, ry1 in zip(ints[4::4], ints[5::4], ints[6::4], ints[7::4]):
        x, y = point(rx0, ry1)
        rw, rh = _round3((rx1 - rx0) * width, w), _round3((ry1 - ry0) * width, w)
        elements.append(
            f'<rect class="tile" x="{x}" y="{y}" width="{rw}" height="{rh}" '
            'fill="#76b5e4" fill-opacity="0.35" stroke="#1f5e91" stroke-width="2"/>'
        )

    x0, y0 = point(0, 0)
    for a, b in ((ux, uy), (vx, vy)):
        x1, y1 = point(a, b)
        elements.append(
            f'<path class="arrow" d="M {x0} {y0} L {x1} {y1}" fill="none" '
            'stroke="#c03020" stroke-width="2.5" marker-end="url(#arrowhead)"/>'
        )

    w_attr = _round3(width)
    h_attr = _round3((y_hi - y_lo) * width, w)
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_attr}" '
        f'height="{h_attr}" viewBox="0 0 {w_attr} {h_attr}">',
        "<defs>",
        '<marker id="arrowhead" markerWidth="8" markerHeight="8" refX="7" '
        'refY="4" orient="auto"><polygon points="0,0 8,4 0,8" fill="#c03020"/>'
        "</marker>",
        "</defs>",
    ]
    return "\n".join(head + elements + ["</svg>"]) + "\n"
