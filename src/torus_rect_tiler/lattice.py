"""Planar lattice algebra: covolume, bounded point enumeration, shortest
sign-class vectors, axis periods, and the minimum tiling length.

A lattice is given by an ordered basis pair {u, v} with nonzero determinant.
Searches and box queries run on integers: the basis (and any bounds) are
cleared once by ``clear_denominators``, and only results are converted back
to fractions.  Shortest sign-class vectors are ranked by
``exact_math.sign_key``, the package's one sign-class rule, and their search
is certified by the l1 operator norm of the inverse basis matrix.
``box_points`` is the one listing of lattice points: a box of a cleared
lattice, in O(1) for its coefficient hull plus O(z1 span) plus O(points)
time.  ``axis_forms`` is the one builder of integer Hermite forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional

from .exact_math import Vec2, clear_denominators, l1_norm, sign_key


class SingularBasisError(ValueError):
    """Basis vectors are linearly dependent."""


@dataclass(frozen=True)
class LatticeBasis:
    """Ordered basis {u, v} of a rank-2 lattice in the plane."""

    u: Vec2
    v: Vec2

    def __post_init__(self):
        if self.det == 0:
            raise SingularBasisError(f"singular basis: u={self.u}, v={self.v}")

    @property
    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """(u.x, u.y, v.x, v.y), the order ``clear_denominators`` takes them in."""
        return self.u.x, self.u.y, self.v.x, self.v.y

    @property
    def det(self) -> Fraction:
        return self.u.x * self.v.y - self.u.y * self.v.x

    @property
    def covolume(self) -> Fraction:
        """Area of the fundamental parallelogram (always positive)."""
        return abs(self.det)


def lattice_point(basis: LatticeBasis, z1, z2) -> Vec2:
    """The lattice point z1*u + z2*v."""
    z1, z2 = Fraction(z1), Fraction(z2)
    return Vec2(
        z1 * basis.u.x + z2 * basis.v.x,
        z1 * basis.u.y + z2 * basis.v.y,
    )


def _inverse_l1_norm(basis: LatticeBasis) -> Fraction:
    # l1 operator norm of the inverse basis matrix: max column sum of
    # [[vy, -vx], [-uy, ux]] / det.
    return (
        max(
            abs(basis.v.y) + abs(basis.u.y),
            abs(basis.v.x) + abs(basis.u.x),
        )
        / basis.covolume
    )


def enumerate_lattice_points(basis: LatticeBasis, radius) -> list[Vec2]:
    """Every lattice point with l1 norm <= radius, sorted by (norm, x, y).

    Complete: a point of l1 norm <= radius lies in the square
    [-radius, radius]^2, and ``box_points`` lists every lattice point there.
    """
    radius = Fraction(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    den, (*cleared, r) = clear_denominators(*basis.entries, radius)
    hits = sorted(
        (norm, a, b)
        for a, b in box_points(cleared, -r, r, -r, r)
        if (norm := abs(a) + abs(b)) <= r
    )
    return [Vec2(Fraction(a, den), Fraction(b, den)) for _, a, b in hits]


def box_points(
    cleared: tuple[int, int, int, int], x_lo: int, x_hi: int, y_lo: int, y_hi: int
) -> Iterator[tuple[int, int]]:
    """Points of the integer lattice spanned by cleared = (ux, uy, vx, vy)
    inside the closed box, generated as unsorted (x, y) pairs.

    Takes O(1) for the coefficient hull, O(1) per z1 in it and O(1) per point:
    with det > 0 each hull bound is a linear form at one box corner, and per z1
    each coordinate constraint with a nonzero v-coefficient narrows z2.
    """
    if x_hi < x_lo or y_hi < y_lo:
        return
    ux, uy, vx, vy = cleared
    d = ux * vy - uy * vx
    if d < 0:  # -v spans the same lattice, with z2 negated
        vx, vy, d = -vx, -vy, -d
    # d*z1 = x*vy - y*vx and d*z2 = ux*y - uy*x; entry signs pick each bound's corner.
    z1_min = -(((y_hi if vx > 0 else y_lo) * vx - (x_lo if vy > 0 else x_hi) * vy) // d)
    z1_max = ((x_hi if vy > 0 else x_lo) * vy - (y_lo if vx > 0 else y_hi) * vx) // d
    z2_min = -(((x_hi if uy > 0 else x_lo) * uy - (y_lo if ux > 0 else y_hi) * ux) // d)
    z2_max = ((y_hi if ux > 0 else y_lo) * ux - (x_lo if uy > 0 else x_hi) * uy) // d
    # lo <= z1*u + z2*v <= hi per axis, negated where needed so that v > 0.
    # With v = 0 the constraint reads z1 = coordinate/u exactly, which the z1
    # range already enforces, so it is left out.
    rows = [
        (u, v, lo, hi) if v > 0 else (-u, -v, -hi, -lo)
        for u, v, lo, hi in ((ux, vx, x_lo, x_hi), (uy, vy, y_lo, y_hi))
        if v
    ]
    for z1 in range(z1_min, z1_max + 1):
        lo, hi = z2_min, z2_max
        for u, v, c_lo, c_hi in rows:
            base = z1 * u
            lo = t if (t := -((base - c_lo) // v)) > lo else lo
            hi = t if (t := (c_hi - base) // v) < hi else hi
        for z2 in range(lo, hi + 1):
            yield z1 * ux + z2 * vx, z1 * uy + z2 * vy


def lattice_points_in_box(basis: LatticeBasis, x_lo, x_hi, y_lo, y_hi) -> list[Vec2]:
    """Lattice points inside the closed axis-aligned box, sorted by (x, y).

    The basis and the bounds are cleared to integers over one denominator, and
    ``box_points`` scans the cleared lattice.
    """
    den, (ux, uy, vx, vy, x_lo, x_hi, y_lo, y_hi) = clear_denominators(
        *basis.entries, x_lo, x_hi, y_lo, y_hi
    )
    return [
        Vec2(Fraction(a, den), Fraction(b, den))
        for a, b in sorted(box_points((ux, uy, vx, vy), x_lo, x_hi, y_lo, y_hi))
    ]


@dataclass(frozen=True)
class QuadrantBasis:
    """Shortest lattice vector in each sign class, in canonical orientation.

    u1 minimizes the l1 norm over nonzero points with x*y >= 0 and carries
    x > 0, or x = 0 with y > 0.  u2 minimizes over points with x*y < 0 and
    carries x < 0 < y.  The pair always generates the full lattice.  Lying
    in different sign classes, u1 and u2 are never collinear.
    """

    u1: Vec2
    u2: Vec2

    def __post_init__(self):
        norm, y1, x1 = sign_key(self.u1.x, self.u1.y)
        if norm == 0 or x1 < 0:
            raise ValueError(f"u1 must be a nonzero same-sign vector, got {self.u1}")
        if (x1, y1) != (self.u1.x, self.u1.y):
            raise ValueError(f"u1 not in canonical orientation: {self.u1}")
        _, y2, x2 = sign_key(self.u2.x, self.u2.y)
        if x2 >= 0 or (x2, y2) != (self.u2.x, self.u2.y):
            raise ValueError(f"u2 must satisfy x < 0 < y, got {self.u2}")

    @property
    def length_sum(self) -> Fraction:
        return l1_norm(self.u1) + l1_norm(self.u2)


def quadrant_basis(basis: LatticeBasis) -> QuadrantBasis:
    """Find the shortest same-sign and opposite-sign lattice vectors.

    Scans integer coefficient pairs shell by shell in increasing |z1| + |z2|,
    from shell 1; the basis is independent, so no pair there gives the zero
    vector.  Shell n is closed under negation and both members of a pair
    +-(z1, z2) give the same ``sign_key``, so it is enough to visit one of
    each: z1 >= 0, and z2 > 0 when z1 = 0, which is 2n pairs on shell n.
    Once both candidates exist, the search is complete as soon as the
    finished shells exhaust every preimage of the current best norms, which
    the inverse-norm bound guarantees.  Each class keeps its least key, so
    ties at equal norm go to the vector with the smaller |y| (the flattest
    one).
    """
    den, (ux, uy, vx, vy) = clear_denominators(*basis.entries)
    # On the cleared basis the inverse-norm bound of ``_inverse_l1_norm`` times
    # a norm W is m*W/det, so shell n lies past it exactly when n*det > m*W.
    m = max(abs(vy) + abs(uy), abs(vx) + abs(ux))
    det = abs(ux * vy - uy * vx)
    best1: Optional[tuple[int, int, int]] = None  # least key with x' >= 0
    best2: Optional[tuple[int, int, int]] = None  # least key with x' < 0
    for n in itertools.count(1):
        if best1 is not None and best2 is not None:
            if n * det > m * max(best1[0], best2[0]):
                break
        for z1 in range(n + 1):
            rest = n - z1
            for z2 in (rest, -rest) if rest and z1 else (rest,):
                key = sign_key(z1 * ux + z2 * vx, z1 * uy + z2 * vy)
                if key[2] < 0:
                    if best2 is None or key < best2:
                        best2 = key
                elif best1 is None or key < best1:
                    best1 = key
    (_, y1, x1), (_, y2, x2) = best1, best2
    if abs(x1 * y2 - y1 * x2) != det:
        raise RuntimeError(f"quadrant pair is not a lattice basis for {basis}")
    return QuadrantBasis(
        Vec2(Fraction(x1, den), Fraction(y1, den)),
        Vec2(Fraction(x2, den), Fraction(y2, den)),
    )


def axis_forms(
    ux: int, uy: int, vx: int, vy: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Hermite forms (h, v), each (spacing, period, shear), of the integer
    lattice spanned by (ux, uy) and (vx, vy) along the x axis and the y axis.

    In (along, across) coordinates the lattice is
    {a*(period, 0) + b*(shear, spacing)}: spacing is the least positive across
    coordinate of a lattice point, period = |det|/spacing, 0 <= shear < period.
    Euclid's algorithm on the across coordinates, applied to whole basis
    vectors, keeps a basis and ends with one vector on the axis.
    """
    forms = []
    for (a1, c1), (a2, c2) in (((ux, uy), (vx, vy)), ((uy, ux), (vy, vx))):
        while c2:
            q = c1 // c2
            (a1, c1), (a2, c2) = (a2, c2), (a1 - q * a2, c1 - q * c2)
        if c1 < 0:
            a1, c1 = -a1, -c1
        forms.append((c1, abs(a2), a1 % abs(a2)))
    return tuple(forms)


@dataclass(frozen=True)
class AxisPeriods:
    """Least positive axis-aligned lattice steps and one-rectangle lengths.

    d_x is the least a > 0 with (a, 0) in the lattice, m_x = d_x + cov/d_x the
    length of the width-d_x one-rectangle tiling; d_y/m_y likewise.
    """

    d_x: Fraction
    d_y: Fraction
    m_x: Fraction
    m_y: Fraction


def axis_periods(basis: LatticeBasis) -> AxisPeriods:
    """Compute d_x, d_y, m_x, m_y from the Hermite form of each axis.

    The y-coordinates of lattice points form g_y*Z, and the kernel of that
    projection is d_x*Z x {0}, so d_x = cov/g_y; the x-axis case is symmetric.
    """
    den, cleared = clear_denominators(*basis.entries)
    (g_y, d_x, _), (g_x, d_y, _) = axis_forms(*cleared)
    d_x, d_y, m_x, m_y = (Fraction(n, den) for n in (d_x, d_y, d_x + g_y, d_y + g_x))
    return AxisPeriods(d_x=d_x, d_y=d_y, m_x=m_x, m_y=m_y)


class Winner(Enum):
    """Which construction attains the minimum tiling length."""

    ONE_RECT_X = "one_rect_x"
    ONE_RECT_Y = "one_rect_y"
    TWO_RECT = "two_rect"


@dataclass(frozen=True)
class MinLengthReport:
    covolume: Fraction
    quadrant_sum: Fraction
    m_x: Fraction
    m_y: Fraction
    min_length: Fraction
    winner: Winner
    witness: QuadrantBasis

    def to_json_dict(self) -> dict:
        return {
            "covolume": str(self.covolume),
            "quadrant_sum": str(self.quadrant_sum),
            "m_x": str(self.m_x),
            "m_y": str(self.m_y),
            "min_length": str(self.min_length),
            "winner": self.winner.value,
            "witness": {
                "u1": [str(self.witness.u1.x), str(self.witness.u1.y)],
                "u2": [str(self.witness.u2.x), str(self.witness.u2.y)],
            },
        }


def min_length(basis: LatticeBasis) -> MinLengthReport:
    """Exact minimum total edge length over all axis-aligned rectangular
    tilings of the torus R^2 / lattice.

    The minimum is the smallest of three candidates: the quadrant-basis norm
    sum and the two one-rectangle lengths m_x, m_y.  Ties prefer one-rectangle
    constructions, x before y.
    """
    qb = quadrant_basis(basis)
    periods = axis_periods(basis)
    qsum = qb.length_sum
    best = min(qsum, periods.m_x, periods.m_y)
    if periods.m_x == best:
        winner = Winner.ONE_RECT_X
    elif periods.m_y == best:
        winner = Winner.ONE_RECT_Y
    else:
        winner = Winner.TWO_RECT
    return MinLengthReport(
        covolume=basis.covolume,
        quadrant_sum=qsum,
        m_x=periods.m_x,
        m_y=periods.m_y,
        min_length=best,
        winner=winner,
        witness=qb,
    )
