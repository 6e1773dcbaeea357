"""Axis-aligned rectangle tilings of a flat torus and the two optimal
constructions: one rectangle per axis period, or two rectangles from a
quadrant basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact_math import Vec2, parse_rational
from .lattice import (
    LatticeBasis,
    MinLengthReport,
    QuadrantBasis,
    Winner,
    axis_periods,
    min_length,
)


class AxisAlignedGeneratorError(ValueError):
    """Two-rectangle construction needs a strictly off-axis same-sign vector."""


class Axis(Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x0, x1] x [y0, y1], nondegenerate."""

    x0: Fraction
    x1: Fraction
    y0: Fraction
    y1: Fraction

    def __post_init__(self):
        for name in ("x0", "x1", "y0", "y1"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, Fraction(value))
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(
                f"degenerate rectangle [{self.x0}, {self.x1}] x [{self.y0}, {self.y1}]"
            )

    @property
    def width(self) -> Fraction:
        return self.x1 - self.x0

    @property
    def height(self) -> Fraction:
        return self.y1 - self.y0

    @property
    def half_perimeter(self) -> Fraction:
        return self.width + self.height

    @property
    def area(self) -> Fraction:
        return self.width * self.height


@dataclass(frozen=True)
class Tiling:
    """A lattice basis plus an ordered list of planar rectangles.

    Rectangles live in the plane; the quotient map onto the torus is implicit.
    Whether they actually tile is checked by the verifier, not enforced here.
    """

    basis: LatticeBasis
    rects: tuple[Rect, ...]

    def __post_init__(self):
        object.__setattr__(self, "rects", tuple(self.rects))
        if not self.rects:
            raise ValueError("tiling needs at least one rectangle")


def tiling_length(tiling: Tiling) -> Fraction:
    """Sum of width + height over all rectangles (half the perimeter sum)."""
    return sum((r.half_perimeter for r in tiling.rects), Fraction(0))


def build_one_rect(basis: LatticeBasis, axis: Axis) -> Tiling:
    """Single-rectangle tiling along the given axis.

    For X the rectangle is [0, d_x] x [0, cov/d_x] with length m_x; the Y
    variant is transposed.
    """
    periods = axis_periods(basis)
    cov = basis.covolume
    if axis is Axis.X:
        rect = Rect(0, periods.d_x, 0, cov / periods.d_x)
    else:
        rect = Rect(0, cov / periods.d_y, 0, periods.d_y)
    return Tiling(basis, (rect,))


def build_two_rect(basis: LatticeBasis, pair: QuadrantBasis) -> Tiling:
    """Two-rectangle tiling from a same-sign / opposite-sign generator pair.

    Writing u1 = (ax, ay) and u2 = (bx, by) in canonical orientation
    (ax, ay > 0 and bx < 0 < by), the rectangles are
    [bx, ax+bx] x [0, by] and [ax+bx, ax] x [0, ay]; the total length is
    the norm sum |u1| + |u2|.
    """
    ax, ay = pair.u1.x, pair.u1.y
    bx, by = pair.u2.x, pair.u2.y
    if ax * ay == 0:
        raise AxisAlignedGeneratorError(
            f"u1 = {pair.u1} lies on an axis; the two-rectangle construction "
            "does not apply (a one-rectangle tiling is shorter)"
        )
    return Tiling(basis, (Rect(bx, ax + bx, 0, by), Rect(ax + bx, ax, 0, ay)))


def build_optimal(basis: LatticeBasis, report: MinLengthReport | None = None) -> Tiling:
    """Construct a tiling attaining the minimum length.

    Dispatches on the winner recorded by min_length so construction and
    report can never disagree.
    """
    if report is None:
        report = min_length(basis)
    if report.winner is Winner.ONE_RECT_X:
        return build_one_rect(basis, Axis.X)
    if report.winner is Winner.ONE_RECT_Y:
        return build_one_rect(basis, Axis.Y)
    # Two rectangles win only strictly, which forces u1 off both axes.
    return build_two_rect(basis, report.witness)


def tiling_to_json_dict(tiling: Tiling) -> dict:
    """Interchange form: all scalars as exact rational strings."""
    return {
        "basis": [
            [str(tiling.basis.u.x), str(tiling.basis.u.y)],
            [str(tiling.basis.v.x), str(tiling.basis.v.y)],
        ],
        "rects": [[str(r.x0), str(r.x1), str(r.y0), str(r.y1)] for r in tiling.rects],
    }


def tiling_from_json_dict(doc) -> Tiling:
    """Parse the interchange form; raises ValueError on any malformation."""
    if not isinstance(doc, dict):
        raise ValueError("tiling document must be a JSON object")
    try:
        basis_rows = doc["basis"]
        rect_rows = doc["rects"]
    except (KeyError, TypeError):
        raise ValueError("tiling document needs 'basis' and 'rects' fields") from None
    if (
        not isinstance(basis_rows, list)
        or len(basis_rows) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in basis_rows)
    ):
        raise ValueError("'basis' must be two pairs of rational strings")
    if not isinstance(rect_rows, list) or not rect_rows:
        raise ValueError("'rects' must be a nonempty list")
    u = Vec2(parse_rational(basis_rows[0][0]), parse_rational(basis_rows[0][1]))
    v = Vec2(parse_rational(basis_rows[1][0]), parse_rational(basis_rows[1][1]))
    rects = []
    for row in rect_rows:
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError(f"rectangle row must have four entries: {row!r}")
        rects.append(Rect(*(parse_rational(s) for s in row)))
    return Tiling(LatticeBasis(u, v), tuple(rects))
