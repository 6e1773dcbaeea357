"""Exact rational scalars and planar vectors under the l1 norm.

Every quantity in this package (coordinates, lengths, areas) is a
``fractions.Fraction``, so all comparisons and equalities are decided exactly;
its ``str``, "n" or "n/d" with d > 0, is the text form ``parse_rational`` reads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse "n" or "n/d" with an optional sign.

    Rejects anything outside that grammar (floats, exponents, empty or zero
    denominators) and any argument that is not a ``str`` with ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


@dataclass(frozen=True)
class Vec2:
    """Planar vector with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if type(self.x) is not Fraction:
            object.__setattr__(self, "x", Fraction(self.x))
        if type(self.y) is not Fraction:
            object.__setattr__(self, "y", Fraction(self.y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scaled(self, t) -> "Vec2":
        t = Fraction(t)
        return Vec2(self.x * t, self.y * t)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


class Quadrant(Enum):
    """Sign classes for the coordinate product: Q1 is closed, Q2 strictly open."""

    Q1 = "q1"  # x*y >= 0, axes included
    Q2 = "q2"  # x*y < 0


def l1_norm(v: Vec2) -> Fraction:
    return abs(v.x) + abs(v.y)


def quadrant_of(v: Vec2) -> Quadrant:
    return Quadrant.Q1 if v.x * v.y >= 0 else Quadrant.Q2


def quadrant_representative(v: Vec2) -> Vec2:
    """The canonical one of v and -v for its quadrant.

    Q1 vectors get x > 0, or x = 0 with y > 0; Q2 vectors get x < 0 < y.
    """
    if quadrant_of(v) is Quadrant.Q1:
        flip = v.x < 0 or (v.x == 0 and v.y < 0)
    else:
        flip = v.x > 0
    return -v if flip else v


def clear_denominators(*values) -> tuple[int, tuple[int, ...]]:
    """Least common denominator of rationals, and each one times it.

    Returns (den, ints) with den > 0 the least integer such that every
    values[i] * den is an integer, and ints[i] = values[i] * den.
    """
    den = math.lcm(*(x.denominator for x in values))
    return den, tuple(x.numerator * (den // x.denominator) for x in values)
