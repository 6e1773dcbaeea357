"""Shared helpers: random inputs and independent brute-force oracles."""

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from torus_rect_tiler import (
    LatticeBasis,
    Orientation,
    QuadrantBasis,
    Rect,
    Tiling,
    TorusPoint,
    Vec2,
    axis_periods,
    decompose_axis_paths,
    enumerate_lattice_points,
    l1_norm,
    lattice_point,
    lattice_points_in_box,
    tiling_length,
    verify_tiling,
)
from torus_rect_tiler.exact_math import clear_denominators
from torus_rect_tiler.lattice import _inverse_l1_norm
from torus_rect_tiler.skeleton import (
    AxisPathDecomposition,
    Skeleton,
    SkeletonEdge,
    _canonical,
    _clear_valid,
)


def random_int_basis(rng: random.Random, bound: int = 20) -> LatticeBasis:
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c:
            return LatticeBasis(Vec2(a, b), Vec2(c, d))


def random_rational_basis(rng: random.Random, bound: int = 12, max_den: int = 4) -> LatticeBasis:
    while True:
        vals = [Fraction(rng.randint(-bound, bound), rng.randint(1, max_den)) for _ in range(4)]
        u, v = Vec2(vals[0], vals[1]), Vec2(vals[2], vals[3])
        if u.x * v.y - u.y * v.x:
            return LatticeBasis(u, v)


def random_rational(rng: random.Random, bound: int = 9, max_den: int = 9) -> Fraction:
    n = rng.randint(-bound, bound)
    return Fraction(n, rng.randint(1, max_den))


def random_positive_rational(rng: random.Random, bound: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, max_den))


def random_unimodular(rng: random.Random, steps: int = 5) -> tuple[int, int, int, int]:
    """Random integer matrix with determinant +-1, built from elementary operations."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(steps):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
        if rng.random() < 0.25:
            a, b, c, d = c, d, a, b
        if rng.random() < 0.25:
            a, b = -a, -b
    return a, b, c, d


def transformed_basis(basis: LatticeBasis, coeffs) -> LatticeBasis:
    a, b, c, d = coeffs
    return LatticeBasis(
        basis.u.scaled(a) + basis.v.scaled(b),
        basis.u.scaled(c) + basis.v.scaled(d),
    )


def random_split_tiling(rng: random.Random, tiling: Tiling, max_splits: int = 6) -> Tiling:
    """Cut rectangles at interior fifths; stays a valid tiling, length grows."""
    rects = list(tiling.rects)
    for _ in range(rng.randint(1, max_splits)):
        i = rng.randrange(len(rects))
        r = rects[i]
        t = Fraction(rng.randint(1, 4), 5)
        if rng.random() < 0.5:
            cut = r.x0 + r.width * t
            pieces = [Rect(r.x0, cut, r.y0, r.y1), Rect(cut, r.x1, r.y0, r.y1)]
        else:
            cut = r.y0 + r.height * t
            pieces = [Rect(r.x0, r.x1, r.y0, cut), Rect(r.x0, r.x1, cut, r.y1)]
        rects[i : i + 1] = pieces
    return Tiling(tiling.basis, tuple(rects))


def _brute_sign_classes(basis: LatticeBasis) -> tuple[list[Vec2], list[Vec2]]:
    """The nonzero points of an l1 ball that holds points of both sign
    classes, split by p.x * p.y >= 0 and < 0: the ball grows by doubling, and
    every point as short as each class's shortest one lies in it."""
    radius = min(l1_norm(basis.u), l1_norm(basis.v))
    while True:
        points = enumerate_lattice_points(basis, radius)
        same = [p for p in points if p != Vec2(0, 0) and p.x * p.y >= 0]
        opposite = [p for p in points if p.x * p.y < 0]
        if same and opposite:
            return same, opposite
        radius *= 2


def brute_quadrant_minima(basis: LatticeBasis) -> tuple[Fraction, Fraction]:
    """Smallest l1 norms in each sign class, by scanning growing l1 balls.

    Independent of the shell search inside quadrant_basis: this only filters
    the output of enumerate_lattice_points.
    """
    same, opposite = _brute_sign_classes(basis)
    return min(map(l1_norm, same)), min(map(l1_norm, opposite))


def brute_quadrant_basis(basis: LatticeBasis) -> QuadrantBasis:
    """The QuadrantBasis the documented tie rule picks: in each sign class the
    least norm, then the least |y|, then the canonical one of the pair +-p
    (x > 0, or x = 0 with y > 0, in the same-sign class; x < 0 < y in the
    opposite-sign class).

    Independent of quadrant_basis and of its sign-class key: this only
    filters the output of enumerate_lattice_points.
    """
    same, opposite = _brute_sign_classes(basis)
    p1 = min(same, key=lambda p: (l1_norm(p), abs(p.y)))
    p2 = min(opposite, key=lambda p: (l1_norm(p), abs(p.y)))
    if p1.x < 0 or (p1.x == 0 and p1.y < 0):
        p1 = p1.scaled(-1)
    if p2.x > 0:
        p2 = p2.scaled(-1)
    return QuadrantBasis(p1, p2)


def brute_ball_points(basis: LatticeBasis, radius) -> list[Vec2]:
    """Every lattice point with l1 norm <= radius, sorted by (norm, x, y): scan
    the coefficient diamond and filter.

    Independent of lattice.box_points: any such point is z1*u + z2*v with
    |z1| + |z2| <= N(B^-1) * radius, and all integer pairs in that diamond
    are scanned.
    """
    radius = Fraction(radius)
    den, (ux, uy, vx, vy) = clear_denominators(*basis.entries)
    zmax = math.floor(_inverse_l1_norm(basis) * radius)
    rn, rd = radius.numerator, radius.denominator
    hits = []
    for z1 in range(-zmax, zmax + 1):
        span = zmax - abs(z1)
        for z2 in range(-span, span + 1):
            a = z1 * ux + z2 * vx
            b = z1 * uy + z2 * vy
            norm = abs(a) + abs(b)
            if norm * rd <= rn * den:
                hits.append((norm, a, b))
    hits.sort()
    return [Vec2(Fraction(a, den), Fraction(b, den)) for _, a, b in hits]


def brute_box_points(cleared, x_lo, x_hi, y_lo, y_hi) -> list[tuple[int, int]]:
    """Points of the integer lattice spanned by cleared = (ux, uy, vx, vy) in
    the closed box, sorted: scan the square |z1|, |z2| <= k and filter.

    Independent of lattice.box_points: every (x, y) in the box has
    |z1| = |x*vy - y*vx| / |det| <= reach * (|vx| + |vy|) / |det|, with reach
    the largest |coordinate| of the box, and likewise |z2|.
    """
    ux, uy, vx, vy = cleared
    reach = max(abs(x_lo), abs(x_hi), abs(y_lo), abs(y_hi))
    k = reach * max(abs(vx) + abs(vy), abs(ux) + abs(uy)) // abs(ux * vy - uy * vx)
    points = []
    for z1 in range(-k, k + 1):
        for z2 in range(-k, k + 1):
            x, y = z1 * ux + z2 * vx, z1 * uy + z2 * vy
            if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
                points.append((x, y))
    return sorted(points)


def brute_axis_period(basis: LatticeBasis, axis: str) -> Fraction:
    """Least positive a with (a, 0) (axis="x") or (0, a) (axis="y") on the
    lattice, for integer bases: scan multiples of the coordinate gcd and test
    membership with modular arithmetic."""
    det = abs(int(basis.det))
    if axis == "x":
        step = math.gcd(int(basis.u.x), int(basis.v.x))
        cu, cv = int(basis.u.y), int(basis.v.y)
    else:
        step = math.gcd(int(basis.u.y), int(basis.v.y))
        cu, cv = int(basis.u.x), int(basis.v.x)
    k = 1
    while True:
        a = k * step
        if (a * cu) % det == 0 and (a * cv) % det == 0:
            return Fraction(a)
        k += 1
        assert k <= det + 1, "axis period scan ran away"


def basis_coordinates(basis: LatticeBasis, point: Vec2) -> tuple[Fraction, Fraction]:
    """Unique rational (z1, z2) with point = z1*u + z2*v."""
    det = basis.det
    z1 = (point.x * basis.v.y - point.y * basis.v.x) / det
    z2 = (basis.u.x * point.y - basis.u.y * point.x) / det
    return z1, z2


def contains(basis: LatticeBasis, point: Vec2) -> bool:
    """True iff point is an integer combination of the basis vectors."""
    z1, z2 = basis_coordinates(basis, point)
    return z1.denominator == 1 and z2.denominator == 1


def brute_canonicalize(basis: LatticeBasis, point: Vec2) -> TorusPoint:
    """The quotient map on fractions: the lattice point whose basis
    coordinates are the fractional parts of the point's."""
    z1, z2 = basis_coordinates(basis, point)
    return TorusPoint(lattice_point(basis, z1 - math.floor(z1), z2 - math.floor(z2)))


def brute_axis_decomposition(skeleton) -> dict:
    """Per orientation, (cycles as edge frozensets, paths as ordered edge tuples).

    Independent of the torus-line model in skeleton.py: edges are chained by
    their canonical endpoints brute_canonicalize(origin + length * axis) alone.
    """
    result = {}
    for orientation in Orientation:
        axis = Vec2(1, 0) if orientation is Orientation.H else Vec2(0, 1)
        edges = [e for e in skeleton.edges if e.orientation is orientation]
        leaving = {e.origin: e for e in edges}
        end = {
            e: brute_canonicalize(skeleton.basis, e.origin.rep + axis.scaled(e.length))
            for e in edges
        }
        entered = set(end.values())
        paths = set()
        for e in edges:
            if e.origin in entered:
                continue
            path = [e]
            while end[path[-1]] in leaving:
                path.append(leaving[end[path[-1]]])
            paths.add(tuple(path))
        unchained = set(edges) - {e for path in paths for e in path}
        cycles = set()
        while unchained:
            cycle = [unchained.pop()]
            while leaving[end[cycle[-1]]] is not cycle[0]:
                cycle.append(leaving[end[cycle[-1]]])
            unchained -= set(cycle)
            cycles.add(frozenset(cycle))
        result[orientation] = (cycles, paths)
    return result


@dataclass
class RecutLine:
    """One torus line cut at its segments' endpoints: sorted cuts, and which
    arcs between them are covered.  Arc i runs from cuts[i] to the next cut
    around the circle."""

    circumference: int
    cuts: list[int]
    covered: list[bool] = field(init=False)

    def __post_init__(self):
        self.covered = [False] * len(self.cuts)

    def arc_length(self, i: int) -> int:
        j = (i + 1) % len(self.cuts)
        if j:
            return self.cuts[j] - self.cuts[i]
        return self.circumference - self.cuts[-1] + self.cuts[0]

    def runs(self) -> list[list[int]]:
        """Maximal runs of consecutive covered arcs: one run (a cycle) from
        cut 0 when every arc is covered, else the runs (paths) ordered by
        their first cut."""
        m = len(self.covered)
        if all(self.covered):
            return [list(range(m))]
        runs = []
        for i in range(m):
            if self.covered[i] and not self.covered[i - 1]:
                run = [i]
                j = (i + 1) % m
                while self.covered[j]:
                    run.append(j)
                    j = (j + 1) % m
                runs.append(run)
        return runs


def recut_lines(on_line: dict, periods: dict) -> tuple[dict, dict]:
    """Cut every line at its segments' endpoints, arc by arc.

    ``on_line`` maps each line id (orientation, key) to its segments {key:
    (start, length)}, and ``periods`` each orientation to its lines' period.
    Returns the ``RecutLine`` of each line id and, per segment key, the
    indices of the arcs its segment covers.  Walks each segment over the arcs
    one by one, so it is independent of the endpoint chains the skeleton
    reads.
    """
    lines, arcs = {}, {}
    for line_id, segments in on_line.items():
        period = periods[line_id[0]]
        ends = {(start + n) % period for start, n in segments.values()}
        cuts = sorted(ends.union(start for start, _ in segments.values()))
        line = lines[line_id] = RecutLine(period, cuts)
        index = {c: i for i, c in enumerate(line.cuts)}
        for key, (start, remaining) in segments.items():
            i = index[start]
            covered = []
            while remaining > 0:
                covered.append(i)
                line.covered[i] = True
                remaining -= line.arc_length(i)
                i = (i + 1) % len(line.cuts)
            arcs[key] = tuple(covered)
    return lines, arcs


def recut_skeleton(tiling: Tiling) -> Skeleton:
    """``build_skeleton`` read off ``recut_lines``: an edge per covered arc."""
    den, placement, _ = _clear_valid(tiling)
    lines, _ = recut_lines(placement.on_line, placement_periods(placement))
    corners, edges = set(), []
    for (orientation, key), line in lines.items():
        for i, cut in enumerate(line.cuts):
            x, y = (cut, key) if orientation == "h" else (key, cut)
            w = _canonical(placement.cleared, x, y)
            if orientation == "h":
                corners.add(w)
            if line.covered[i]:
                edges.append((orientation, w, line.arc_length(i)))
    edges.sort()
    vertices = {
        w: TorusPoint(Vec2(Fraction(w[0], den), Fraction(w[1], den)))
        for w in sorted(corners)
    }
    return Skeleton(
        tiling.basis,
        tuple(vertices.values()),
        tuple(
            SkeletonEdge(vertices[w], Orientation(axis), Fraction(n, den))
            for axis, w, n in edges
        ),
    )


def placement_periods(placement) -> dict:
    """The period of a placement's lines, by orientation."""
    return {o: placement.forms[o][1] for o in "hv"}


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0: extended Euclid."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def oracle_line(cleared, orientation: str, x: int, y: int):
    """The torus line through the integer point (x, y) of the cleared lattice
    in +x ("h") or +y ("v"), as ((orientation, key), start, period).

    The lines of a family lie g apart across, g the gcd of the basis
    vectors' across coordinates, so the key is the point's offset across
    modulo g.  The lattice vector s*u + t*v, (s, t) Bezout coefficients of
    those coordinates, steps g across and ``shear`` along; moving the point
    that many steps onto the line of its key gives its start modulo the
    period |det| / g, the length of the shortest lattice vector along the
    line.  Another choice of (s, t) changes the shear by a multiple of the
    period.
    """
    ux, uy, vx, vy = cleared
    if orientation == "h":
        (ua, uc), (va, vc), along, across = (ux, uy), (vx, vy), x, y
    else:
        (ua, uc), (va, vc), along, across = (uy, ux), (vy, vx), y, x
    g, s, t = bezout(uc, vc)
    shear, period = s * ua + t * va, abs(ux * vy - uy * vx) // g
    key = across % g
    start = (along - (across - key) // g * shear) % period
    return (orientation, key), start, period


def recut_decomposition(skeleton: Skeleton) -> AxisPathDecomposition:
    """``decompose_axis_paths`` read off ``recut_lines``: an edge must cover
    exactly one arc, and no arc twice; a line whose arcs are all covered is a
    cycle, and every other line gives its runs as paths.  Each edge is put
    on its line by ``oracle_line``, not by the certificate's line model."""
    edges = skeleton.edges
    _, ints = clear_denominators(
        *skeleton.basis.entries,
        *(c for e in edges for c in (e.origin.rep.x, e.origin.rep.y, e.length)),
    )
    on_line, line_of, periods = {}, {}, {}
    for k, edge in enumerate(edges):
        orientation = edge.orientation.value
        x, y, length = ints[4 + 3 * k : 7 + 3 * k]
        line_id, start, periods[orientation] = oracle_line(ints[:4], orientation, x, y)
        if length > periods[orientation]:
            raise ValueError(f"skeleton edge {edge} is not one arc of its line")
        on_line.setdefault(line_id, {})[k] = (start, length)
        line_of[k] = line_id
    lines, arcs = recut_lines(on_line, periods)
    edge_at = {}
    for k, edge in enumerate(edges):
        line_id, covered = line_of[k], arcs[k]
        if len(covered) != 1 or (line_id, covered[0]) in edge_at:
            raise ValueError(f"skeleton edge {edge} is not one arc of its line")
        edge_at[line_id, covered[0]] = edge
    found = {True: {"h": [], "v": []}, False: {"h": [], "v": []}}
    for line_id in sorted(lines):
        line = lines[line_id]
        for run in line.runs():
            found[all(line.covered)][line_id[0]].append(
                tuple(edge_at[line_id, i] for i in run)
            )
    cycles, paths = found[True], found[False]
    return AxisPathDecomposition(
        cycles_h=tuple(cycles["h"]),
        paths_h=tuple(paths["h"]),
        cycles_v=tuple(cycles["v"]),
        paths_v=tuple(paths["v"]),
    )


def assert_matches_brute_decomposition(skeleton) -> None:
    """``decompose_axis_paths`` groups the edges as ``brute_axis_decomposition``
    does: the same cycles, as edge sets, and the same paths, in edge order."""
    dec = decompose_axis_paths(skeleton)
    oracle = brute_axis_decomposition(skeleton)
    for orientation, cycles, paths in (
        (Orientation.H, dec.cycles_h, dec.paths_h),
        (Orientation.V, dec.cycles_v, dec.paths_v),
    ):
        want_cycles, want_paths = oracle[orientation]
        assert len(cycles) == len(want_cycles) and len(paths) == len(want_paths)
        assert {frozenset(c) for c in cycles} == want_cycles
        assert set(paths) == want_paths


def replay_reduction(tiling: Tiling, steps) -> Tiling:
    """Apply each ReductionStep to the rectangles on fractions; return the result.

    Per step, the side of each rectangle in s1 and s3 (low) and in s1 and s2
    (high) that faces the path moves by the shrink, toward increasing
    coordinates when mirrored.  Checks the recorded shrink (least extent of
    the shrinking class), the eliminated rectangles and both lengths, and that
    every intermediate tiling verifies.
    """
    current = tiling
    for step in steps:
        horizontal = step.axis is Orientation.H
        assert step.length_before == tiling_length(current)
        shrinking = step.s3 if step.mirrored else step.s2
        extents = [r.height if horizontal else r.width for r in current.rects]
        assert step.shrink == min(extents[i] for i in shrinking)
        shift = step.shrink if step.mirrored else -step.shrink
        rects, eliminated = [], []
        for i, r in enumerate(current.rects):
            lo, hi = (r.y0, r.y1) if horizontal else (r.x0, r.x1)
            if i in step.s1 or i in step.s3:
                lo += shift
            if i in step.s1 or i in step.s2:
                hi += shift
            if lo == hi:
                eliminated.append(i)
            elif horizontal:
                rects.append(Rect(r.x0, r.x1, lo, hi))
            else:
                rects.append(Rect(lo, hi, r.y0, r.y1))
        assert tuple(eliminated) == step.eliminated
        current = Tiling(current.basis, tuple(rects))
        assert step.length_after == tiling_length(current)
        assert verify_tiling(current).valid
    return current


def round3_oracle(x: Fraction) -> str:
    """x rounded half away from zero at three decimals, as SVG attribute text,
    on Fractions: floor(|x| * 1000 + 1/2), with the sign put back."""
    n = x * 1000
    sign = -1 if n < 0 else 1
    m = sign * math.floor(abs(n) + Fraction(1, 2))
    whole, frac = divmod(abs(m), 1000)
    text = f"{whole}.{frac:03d}".rstrip("0").rstrip(".")
    return ("-" + text) if m < 0 else text


def view_box_oracle(tiling: Tiling) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(x_lo, x_hi, y_lo, y_hi) of the basis parallelogram's corners and every
    rectangle's corners as Vec2s, padded by a tenth of the larger extent."""
    basis = tiling.basis
    anchors = [Vec2(0, 0), basis.u, basis.v, basis.u + basis.v]
    for r in tiling.rects:
        anchors += [Vec2(r.x0, r.y0), Vec2(r.x1, r.y0), Vec2(r.x0, r.y1), Vec2(r.x1, r.y1)]
    xs = [p.x for p in anchors]
    ys = [p.y for p in anchors]
    pad = max(max(xs) - min(xs), max(ys) - min(ys)) / 10
    return min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad


def point_bound_oracle(tiling: Tiling) -> int:
    """The render bound on Fractions: lattice x-coordinates are the multiples
    of g_x = m_y - d_y and the points over one x step by d_y, so
    view_box_oracle's box holds at most this many."""
    x_lo, x_hi, y_lo, y_hi = view_box_oracle(tiling)
    periods = axis_periods(tiling.basis)
    columns = math.floor((x_hi - x_lo) / (periods.m_y - periods.d_y)) + 1
    return columns * (math.floor((y_hi - y_lo) / periods.d_y) + 1)


def render_svg_oracle(tiling: Tiling, width: int) -> str:
    """render_tiling_svg on Fractions: every anchor and lattice point is a
    Vec2 mapped by (p.x - x_lo) * scale and (y_hi - p.y) * scale, the box is
    view_box_oracle's, the circles are lattice_points_in_box's and every
    number is round3_oracle's."""
    basis = tiling.basis
    origin = Vec2(0, 0)
    x_lo, x_hi, y_lo, y_hi = view_box_oracle(tiling)
    scale = Fraction(width) / (x_hi - x_lo)

    def point(p: Vec2) -> tuple[str, str]:
        return round3_oracle((p.x - x_lo) * scale), round3_oracle((y_hi - p.y) * scale)

    par = (origin, basis.u, basis.u + basis.v, basis.v)
    points_attr = " ".join(",".join(point(p)) for p in par)
    elements = [
        f'<polygon class="cell" points="{points_attr}" fill="none" '
        'stroke="#999999" stroke-dasharray="6,4" stroke-width="1"/>'
    ]
    for lam in lattice_points_in_box(basis, x_lo, x_hi, y_lo, y_hi):
        cx, cy = point(lam)
        elements.append(
            f'<circle class="lattice-point" cx="{cx}" cy="{cy}" r="3" fill="#444444"/>'
        )
    for r in tiling.rects:
        x, y = point(Vec2(r.x0, r.y1))
        w, h = round3_oracle(r.width * scale), round3_oracle(r.height * scale)
        elements.append(
            f'<rect class="tile" x="{x}" y="{y}" width="{w}" height="{h}" '
            'fill="#76b5e4" fill-opacity="0.35" stroke="#1f5e91" stroke-width="2"/>'
        )
    for vector in (basis.u, basis.v):
        (x0, y0), (x1, y1) = point(origin), point(vector)
        elements.append(
            f'<path class="arrow" d="M {x0} {y0} L {x1} {y1}" fill="none" '
            'stroke="#c03020" stroke-width="2.5" marker-end="url(#arrowhead)"/>'
        )
    w_attr = round3_oracle(Fraction(width))
    h_attr = round3_oracle((y_hi - y_lo) * scale)
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
