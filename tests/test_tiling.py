import random
from fractions import Fraction

import pytest

from torus_rect_tiler import (
    Axis,
    AxisAlignedGeneratorError,
    LatticeBasis,
    QuadrantBasis,
    Rect,
    Tiling,
    Vec2,
    Winner,
    build_one_rect,
    build_optimal,
    build_two_rect,
    lattice_points_in_box,
    min_length,
    quadrant_basis,
    tiling_from_json_dict,
    tiling_length,
    tiling_to_json_dict,
    verify_tiling,
)
from conftest import random_int_basis

SKEWED_23 = LatticeBasis(Vec2(3, 5), Vec2(-4, 1))
SKEWED_14 = LatticeBasis(Vec2(2, 1), Vec2(-4, 5))
UNIT = LatticeBasis(Vec2(1, 0), Vec2(0, 1))


def rect_tuple(r):
    return (r.x0, r.x1, r.y0, r.y1)


def test_rect_rejects_degenerate():
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Rect(0, 1, 2, 1)


def test_rect_measurements():
    r = Rect(Fraction(-1, 2), 2, 0, Fraction(7, 3))
    assert r.width == Fraction(5, 2)
    assert r.height == Fraction(7, 3)
    assert r.half_perimeter == Fraction(5, 2) + Fraction(7, 3)
    assert r.width * r.height == Fraction(35, 6)


def test_tiling_needs_rectangles():
    with pytest.raises(ValueError):
        Tiling(UNIT, ())


def test_tiling_length_examples():
    two = build_two_rect(SKEWED_23, quadrant_basis(SKEWED_23))
    assert tiling_length(two) == 13

    one = Tiling(UNIT, (Rect(0, 1, 0, 1),))
    assert tiling_length(one) == 2

    pair = QuadrantBasis(Vec2(2, 1), Vec2(-4, 5))
    other = build_two_rect(SKEWED_14, pair)
    assert tiling_length(other) == 12


def test_build_one_rect_examples():
    t = build_one_rect(SKEWED_14, Axis.Y)
    assert [rect_tuple(r) for r in t.rects] == [(0, 2, 0, 7)]
    assert tiling_length(t) == 9
    assert verify_tiling(t).valid

    t = build_one_rect(UNIT, Axis.X)
    assert [rect_tuple(r) for r in t.rects] == [(0, 1, 0, 1)]
    assert tiling_length(t) == 2

    t = build_one_rect(LatticeBasis(Vec2(1, 2), Vec2(3, 0)), Axis.X)
    assert [rect_tuple(r) for r in t.rects] == [(0, 3, 0, 2)]
    assert tiling_length(t) == 5
    assert verify_tiling(t).valid


def test_build_two_rect_examples():
    t = build_two_rect(SKEWED_23, quadrant_basis(SKEWED_23))
    assert [rect_tuple(r) for r in t.rects] == [(-4, -1, 0, 1), (-1, 3, 0, 5)]
    assert verify_tiling(t).valid

    t = build_two_rect(SKEWED_14, QuadrantBasis(Vec2(2, 1), Vec2(-4, 5)))
    assert [rect_tuple(r) for r in t.rects] == [(-4, -2, 0, 5), (-2, 2, 0, 1)]
    assert verify_tiling(t).valid

    basis = LatticeBasis(Vec2(1, 1), Vec2(-1, 1))
    t = build_two_rect(basis, QuadrantBasis(Vec2(1, 1), Vec2(-1, 1)))
    assert [rect_tuple(r) for r in t.rects] == [(-1, 0, 0, 1), (0, 1, 0, 1)]
    assert tiling_length(t) == 4
    assert sum(r.width * r.height for r in t.rects) == basis.covolume
    assert verify_tiling(t).valid


def test_build_two_rect_rejects_axis_aligned_generator():
    pair = QuadrantBasis(Vec2(1, 0), Vec2(-1, 1))
    with pytest.raises(AxisAlignedGeneratorError):
        build_two_rect(UNIT, pair)


def test_build_optimal_examples():
    t = build_optimal(SKEWED_23)
    assert [rect_tuple(r) for r in t.rects] == [(-4, -1, 0, 1), (-1, 3, 0, 5)]
    assert tiling_length(t) == 13

    t = build_optimal(SKEWED_14)
    assert [rect_tuple(r) for r in t.rects] == [(0, 2, 0, 7)]
    assert tiling_length(t) == 9

    t = build_optimal(UNIT)
    assert [rect_tuple(r) for r in t.rects] == [(0, 1, 0, 1)]
    assert tiling_length(t) == 2


def test_build_optimal_properties_on_random_bases():
    rng = random.Random(30)
    for _ in range(120):
        basis = random_int_basis(rng)
        rep = min_length(basis)
        t = build_optimal(basis, rep)
        assert verify_tiling(t).valid
        assert tiling_length(t) == rep.min_length
        assert sum(r.width * r.height for r in t.rects) == basis.covolume
        if rep.winner is Winner.TWO_RECT:
            assert len(t.rects) == 2
            assert tiling_length(t) == rep.witness.length_sum
        else:
            assert len(t.rects) == 1


def test_two_rect_length_identity_when_applicable():
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        basis = random_int_basis(rng)
        qb = quadrant_basis(basis)
        if qb.u1.x * qb.u1.y == 0:
            continue
        t = build_two_rect(basis, qb)
        assert tiling_length(t) == qb.length_sum
        assert verify_tiling(t).valid
        checked += 1
    assert checked > 100


def test_one_rect_injectivity_box_is_empty():
    rng = random.Random(32)
    for _ in range(80):
        basis = random_int_basis(rng)
        for axis in (Axis.X, Axis.Y):
            (r,) = build_one_rect(basis, axis).rects
            closed = lattice_points_in_box(basis, -r.width, r.width, -r.height, r.height)
            inside = [p for p in closed if abs(p.x) < r.width and abs(p.y) < r.height]
            assert all(p == Vec2(0, 0) for p in inside)


def test_tiling_json_round_trip():
    t = build_optimal(SKEWED_23)
    doc = tiling_to_json_dict(t)
    assert doc == {
        "basis": [["3", "5"], ["-4", "1"]],
        "rects": [["-4", "-1", "0", "1"], ["-1", "3", "0", "5"]],
    }
    assert tiling_from_json_dict(doc) == t


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {},
        {"basis": [["1", "0"], ["0", "1"]], "rects": []},
        {"basis": [["1", "0"]], "rects": [["0", "1", "0", "1"]]},
        {"basis": [["1", "0"], ["0", "1"]], "rects": [["0", "1", "0"]]},
        {"basis": [["1", "0.5"], ["0", "1"]], "rects": [["0", "1", "0", "1"]]},
        {"basis": [["1", "0"], ["2", "0"]], "rects": [["0", "1", "0", "1"]]},
    ],
)
def test_tiling_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        tiling_from_json_dict(doc)
