"""Exact rational scalars and planar vectors under the l1 norm.

Every quantity in this package (coordinates, lengths, areas) is a
``fractions.Fraction``, so all comparisons and equalities are decided exactly;
its ``str``, "n" or "n/d" with d > 0, is the text form ``parse_rational`` reads.
The sign-class rule (the class of a vector, the canonical one of +-v and the
tie order among shortest vectors) lives in ``sign_key`` alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

# ASCII digits, and only the six ASCII whitespace characters around them.
_RATIONAL_RE = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*", re.ASCII)


def parse_rational(text: str) -> Fraction:
    """Parse "n" or "n/d" with an optional sign, between ASCII whitespace.

    Rejects anything outside that grammar (floats, exponents, empty or zero
    denominators, non-ASCII digits or spaces) and any argument that is not a
    ``str`` with ValueError.
    """
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
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


def l1_norm(v: Vec2) -> Fraction:
    return abs(v.x) + abs(v.y)


def sign_key(x, y):
    """(|x| + |y|, |y|, x') for the pair +-(x, y), on ints or Fractions.

    x' = |x| in the same-sign class x*y >= 0 (axes included) and -|x| in the
    opposite-sign class x*y < 0, so x' < 0 exactly in the opposite-sign class
    and (x', |y|) is the canonical one of +-(x, y): x > 0, or x = 0 with y > 0,
    in the same-sign class, and x < 0 < y in the other.  Keys compare by the
    tie rule among shortest vectors: least l1 norm, then least |y|.
    """
    ax, ay = abs(x), abs(y)
    return ax + ay, ay, -ax if x * y < 0 else ax


def clear_denominators(*values) -> tuple[int, tuple[int, ...]]:
    """Least common denominator of rationals, and each one times it.

    Returns (den, ints) with den > 0 the least integer such that every
    values[i] * den is an integer, and ints[i] = values[i] * den.
    """
    ratios = [x.as_integer_ratio() for x in values]
    den = math.lcm(*(d for _, d in ratios))
    return den, tuple(n * (den // d) for n, d in ratios)
