import hashlib
import random
from fractions import Fraction

import pytest

from torus_rect_tiler import LatticeBasis, Rect, Tiling, Vec2, build_optimal, render_tiling_svg
from torus_rect_tiler.svg import _frame, _round3, point_bound
from torus_rect_tiler.lattice import lattice_points_in_box
from conftest import (
    point_bound_oracle,
    random_rational,
    random_rational_basis,
    random_split_tiling,
    render_svg_oracle,
    round3_oracle,
    view_box_oracle,
)

INT_TWO_RECT = build_optimal(LatticeBasis(Vec2(3, 5), Vec2(-4, 1)))
RATIONAL_TWO_RECT = build_optimal(
    LatticeBasis(Vec2(Fraction(7, 3), Fraction(1, 2)), Vec2(Fraction(-5, 4), Fraction(9, 5)))
)
# The unit square over Z^2 cut at x = 1/16 and y = 1/3.  Its view box is
# [-1/10, 11/10]^2, so at width 6 the scale is 5 and the 1/16-wide strip is
# exactly 0.3125 pixels wide: a tie at the fourth decimal.
UNIT_SPLIT = Tiling(
    LatticeBasis(Vec2(1, 0), Vec2(0, 1)),
    (
        Rect(0, Fraction(1, 16), 0, 1),
        Rect(Fraction(1, 16), 1, 0, Fraction(1, 3)),
        Rect(Fraction(1, 16), 1, Fraction(1, 3), 1),
    ),
)

# sha256 of render_tiling_svg(tiling, width), pinned so that a change to the
# rounding, the view box or the element order shows as a changed byte.
GOLDEN_SVG_SHA256 = {
    ("int", 1):
        "6f8e4ed876664ee23bd4dfd40cd7caf2231f9b471bdf7c59ee9efae8bf7ef9ab",
    ("int", 7):
        "85fa0b59e180984e19e9125b69612f228713c40b12540811148bea66c3556bfe",
    ("int", 640):
        "44e75d17cd6879cb33acfe2868258116a1b6386f5ea5f3f8b8b5cede2ba2e3f4",
    ("rational", 1):
        "cb95cd9b1aa19dd6c565834dc0b39c647b86a9ae1af89715732b0b6159359cea",
    ("rational", 7):
        "19de69558a7fc2e222f52e5360c7c33db192f8cb5c0a82c9d7eb06168a273932",
    ("rational", 640):
        "885d845e8ee07d2cec35c177cf9fbf7582b5364a0b776695750100bfa3d7434f",
    ("split", 1):
        "45a5e8e242b96981d85fa7edf88d1bdd935ac2b0d2185efe61342010f4c2dc0d",
    ("split", 6):
        "72e28f52a3b1b2e56a87ce0d6a7a97b4ce3ff80a26c67bdbddb136547c4e705e",
    ("split", 7):
        "3ce47dd85bd9f2d6650e852697e99899b01de67b6f158822d9e96d22cacca121",
    ("split", 640):
        "829927e4942793a08864320acd065dee395522c8797ec5a642756c0453d1d884",
}
TILINGS = {"int": INT_TWO_RECT, "rational": RATIONAL_TWO_RECT, "split": UNIT_SPLIT}

# (tiling, circle count, sha256 at width 640) of pictures holding thousands of
# lattice points: a nearly singular integer basis and a nearly singular
# rational one, of covolume 1/12.
LARGE_PICTURES = {
    "int-40-41": (
        build_optimal(LatticeBasis(Vec2(1, 1), Vec2(40, 41))),
        2550,
        "840bf6997b3e42004d145e26a84f859c316f261b72583598c92c817a7e3fdd31",
    ),
    "rational-1/12": (
        build_optimal(
            LatticeBasis(
                Vec2(Fraction(2, 3), Fraction(3, 4)), Vec2(Fraction(25, 3), Fraction(19, 2))
            )
        ),
        1700,
        "7089ede4262782bbbd4ff59b70f4dd573aefd7311f0087a64e3708def8a19a90",
    ),
}


@pytest.mark.parametrize("name, width", sorted(GOLDEN_SVG_SHA256))
def test_render_bytes_are_pinned(name, width):
    svg = render_tiling_svg(TILINGS[name], width).encode("utf-8")
    assert hashlib.sha256(svg).hexdigest() == GOLDEN_SVG_SHA256[name, width]


@pytest.mark.parametrize("name", sorted(LARGE_PICTURES))
def test_large_picture_bytes_are_pinned(name):
    tiling, circles, digest = LARGE_PICTURES[name]
    svg = render_tiling_svg(tiling, 640)
    assert svg.count("<circle ") == circles
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest


def _view_box(tiling: Tiling) -> tuple[Fraction, ...]:
    """The picture's padded box in the plane, read off its integer frame."""
    den, _, box = _frame(tiling)
    assert type(den) is int and den > 0 and all(type(c) is int for c in box)
    return tuple(Fraction(c, den) for c in box)


def test_a_tie_at_the_fourth_decimal_rounds_away_from_zero():
    svg = render_tiling_svg(UNIT_SPLIT, 6)
    assert _view_box(UNIT_SPLIT) == (Fraction(-1, 10), Fraction(11, 10)) * 2
    assert 'width="0.313"' in svg


def test_round3_matches_the_fraction_oracle():
    rng = random.Random(11)
    ties = [Fraction(k, 2000) for k in range(-4001, 4002, 2)]
    to_zero = [Fraction(-1, d) for d in range(2001, 2100)] + [Fraction(-4999, 10**7)]
    signs = [rng.choice((-1, 1)) for _ in range(700)]
    wide = [
        s * Fraction(rng.getrandbits(rng.randint(65, 300)), rng.getrandbits(80) + 1)
        for s in signs[:500]
    ]
    big_ties = [s * Fraction(2 * rng.getrandbits(100) + 1, 2000) for s in signs[500:]]
    small = [random_rational(rng, 10**6, 10**4) for _ in range(3000)]
    for x in ties + to_zero + wide + big_ties + small + [Fraction(0)]:
        assert _round3(x) == round3_oracle(x), x
    assert [_round3(x) for x in to_zero] == ["0"] * len(to_zero)
    assert _round3(Fraction(-1, 2000)) == "-0.001"


def _random_rect(rng: random.Random, reach: int) -> Rect:
    x0 = random_rational(rng, reach, 9)
    y0 = random_rational(rng, reach, 9)
    w = Fraction(rng.randint(1, reach), rng.randint(1, 9))
    h = Fraction(rng.randint(1, reach), rng.randint(1, 9))
    return Rect(x0, x0 + w, y0, y0 + h)


def test_view_box_matches_the_corner_oracle():
    # Rectangles with negative coordinates and far outside the basis
    # parallelogram, over rational bases with and without large denominators.
    rng = random.Random(11)
    for trial in range(2000):
        if trial % 2:
            basis = random_rational_basis(rng)
        else:
            basis = random_rational_basis(rng, bound=10**6, max_den=10**4)
        reach = rng.choice((3, 50, 10**5))
        tiling = Tiling(basis, tuple(_random_rect(rng, reach) for _ in range(rng.randint(1, 6))))
        assert _view_box(tiling) == view_box_oracle(tiling), tiling
        assert point_bound(tiling) == point_bound_oracle(tiling), tiling


def _scattered(rng: random.Random, tiling: Tiling) -> Tiling:
    """The tiling with each rectangle moved by its own lattice vector of
    coefficients in [-3, 3]: still a tiling of the torus, now with negative
    coordinates and rectangles far outside the basis parallelogram."""
    u, v = tiling.basis.u, tiling.basis.v
    rects = []
    for r in tiling.rects:
        shift = u.scaled(rng.randint(-3, 3)) + v.scaled(rng.randint(-3, 3))
        rects.append(Rect(r.x0 + shift.x, r.x1 + shift.x, r.y0 + shift.y, r.y1 + shift.y))
    return Tiling(tiling.basis, tuple(rects))


def test_render_matches_the_fraction_oracle():
    # Optimal tilings of rational bases, and split tilings scattered by
    # lattice vectors, at widths from one pixel to a million.  Pictures of
    # more than 600 lattice points are skipped to bound the oracle's time;
    # the large pictures above are pinned by digest.
    rng = random.Random(12)
    rendered = 0
    while rendered < 150:
        basis = random_rational_basis(rng, max_den=rng.choice((1, 4, 60)))
        tiling = build_optimal(basis)
        if rendered % 2:
            tiling = _scattered(rng, random_split_tiling(rng, tiling))
        count = len(lattice_points_in_box(basis, *view_box_oracle(tiling)))
        assert count <= point_bound(tiling), tiling
        if count > 600:
            continue
        rendered += 1
        for width in (1, 7, 640, 10**6):
            assert render_tiling_svg(tiling, width) == render_svg_oracle(tiling, width), tiling
