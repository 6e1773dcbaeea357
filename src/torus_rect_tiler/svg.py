"""Deterministic SVG pictures of tilings: rectangle outlines in the plane,
the basis parallelogram for context, nearby lattice points, and the basis
vectors drawn as arrows from the origin.

Geometry stays exact; rationals are rounded half away from zero at three
decimals only when attribute text is emitted, so identical inputs give
identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_math import Vec2, clear_denominators
from .lattice import lattice_points_in_box
from .tiling import Tiling


def _round3(x: Fraction) -> str:
    # floor(|x| * 1000 + 1/2) is (2000|n| + d) // 2d for x = n/d with d > 0:
    # half away from zero, in one integer division.
    n, d = x.numerator, x.denominator
    m = (2000 * abs(n) + d) // (2 * d)
    whole, frac = divmod(m, 1000)
    text = f"{whole}.{frac:03d}".rstrip("0").rstrip(".")
    return ("-" + text) if n < 0 and m else text


def view_box(tiling: Tiling) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The plane box (x_lo, x_hi, y_lo, y_hi) a picture of the tiling shows:
    the basis parallelogram and every rectangle, padded on each side by a
    tenth of the larger extent.  The picture draws every lattice point in it.
    """
    u, v = tiling.basis.u, tiling.basis.v
    den, ints = clear_denominators(
        u.x, u.y, v.x, v.y, *(c for r in tiling.rects for c in (r.x0, r.x1, r.y0, r.y1))
    )
    ux, uy, vx, vy = ints[:4]
    xs = (0, ux, vx, ux + vx, *ints[4::4], *ints[5::4])
    ys = (0, uy, vy, uy + vy, *ints[6::4], *ints[7::4])
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    pad = max(x_hi - x_lo, y_hi - y_lo)  # ten times the pad, over den
    return (
        Fraction(10 * x_lo - pad, 10 * den),
        Fraction(10 * x_hi + pad, 10 * den),
        Fraction(10 * y_lo - pad, 10 * den),
        Fraction(10 * y_hi + pad, 10 * den),
    )


def render_tiling_svg(tiling: Tiling, width: int = 640) -> str:
    """Render the tiling to standalone SVG text, ``width`` pixels wide.

    The picture shows the box ``view_box(tiling)`` and draws a circle at every
    lattice point in it, so its cost is one ``_round3`` pair per such point,
    and their number grows with the box's area over the covolume.  Nothing
    here bounds that number: a nearly singular basis can ask for millions of
    points.  The CLI's ``RENDER_MAX_POINTS`` is the only bound; it refuses
    such a picture before rendering.
    """
    if width <= 0:
        raise ValueError("width must be a positive pixel count")
    basis = tiling.basis
    origin = Vec2(0, 0)
    x_lo, x_hi, y_lo, y_hi = view_box(tiling)
    scale = Fraction(width) / (x_hi - x_lo)

    def point(p: Vec2) -> tuple[str, str]:
        return _round3((p.x - x_lo) * scale), _round3((y_hi - p.y) * scale)

    elements = []

    par = (origin, basis.u, basis.u + basis.v, basis.v)
    points_attr = " ".join(",".join(point(p)) for p in par)
    elements.append(
        f'<polygon class="cell" points="{points_attr}" fill="none" '
        'stroke="#999999" stroke-dasharray="6,4" stroke-width="1"/>'
    )

    for lam in lattice_points_in_box(basis, x_lo, x_hi, y_lo, y_hi):
        cx, cy = point(lam)
        elements.append(
            f'<circle class="lattice-point" cx="{cx}" cy="{cy}" r="3" fill="#444444"/>'
        )

    for rect in tiling.rects:
        x, y = point(Vec2(rect.x0, rect.y1))
        w = _round3(rect.width * scale)
        h = _round3(rect.height * scale)
        elements.append(
            f'<rect class="tile" x="{x}" y="{y}" width="{w}" height="{h}" '
            'fill="#76b5e4" fill-opacity="0.35" stroke="#1f5e91" stroke-width="2"/>'
        )

    for vector in (basis.u, basis.v):
        x0, y0 = point(origin)
        x1, y1 = point(vector)
        elements.append(
            f'<path class="arrow" d="M {x0} {y0} L {x1} {y1}" fill="none" '
            'stroke="#c03020" stroke-width="2.5" marker-end="url(#arrowhead)"/>'
        )

    w_attr = _round3(Fraction(width))
    h_attr = _round3((y_hi - y_lo) * scale)
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
