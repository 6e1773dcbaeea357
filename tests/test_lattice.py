import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from torus_rect_tiler import (
    LatticeBasis,
    QuadrantBasis,
    SingularBasisError,
    Vec2,
    Winner,
    axis_periods,
    enumerate_lattice_points,
    l1_norm,
    lattice_point,
    lattice_points_in_box,
    min_length,
    quadrant_basis,
)
from torus_rect_tiler import lattice
from torus_rect_tiler.lattice import box_points
from conftest import (
    basis_coordinates,
    brute_axis_period,
    brute_ball_points,
    brute_box_points,
    brute_quadrant_basis,
    brute_quadrant_minima,
    contains,
    random_int_basis,
    random_positive_rational,
    random_rational_basis,
    random_unimodular,
    transformed_basis,
)

SKEWED_23 = LatticeBasis(Vec2(3, 5), Vec2(-4, 1))
SKEWED_14 = LatticeBasis(Vec2(2, 1), Vec2(-4, 5))
UNIT = LatticeBasis(Vec2(1, 0), Vec2(0, 1))


def test_covolume_examples():
    assert SKEWED_23.covolume == 23
    assert UNIT.covolume == 1
    assert SKEWED_14.covolume == 14


def test_singular_basis_rejected():
    with pytest.raises(SingularBasisError):
        LatticeBasis(Vec2(2, 4), Vec2(1, 2))
    with pytest.raises(SingularBasisError):
        LatticeBasis(Vec2(0, 0), Vec2(1, 1))


def test_contains_examples():
    assert contains(SKEWED_14, Vec2(0, 7))
    assert not contains(SKEWED_14, Vec2(1, 0))
    assert basis_coordinates(SKEWED_14, Vec2(1, 0)) == (Fraction(5, 14), Fraction(-1, 14))
    assert contains(SKEWED_23, Vec2(0, 0))


def test_enumerate_lattice_points_examples():
    unit_ball = {(p.x, p.y) for p in enumerate_lattice_points(UNIT, 1)}
    assert unit_ball == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    pts_23 = {(p.x, p.y) for p in enumerate_lattice_points(SKEWED_23, 5)}
    assert pts_23 == {(0, 0), (4, -1), (-4, 1)}

    pts_14 = {(p.x, p.y) for p in enumerate_lattice_points(SKEWED_14, 3)}
    assert pts_14 == {(0, 0), (2, 1), (-2, -1)}


def test_enumerate_lattice_points_sorted_and_exact():
    rng = random.Random(10)
    for _ in range(40):
        basis = random_int_basis(rng, bound=8)
        radius = Fraction(rng.randint(0, 10))
        points = enumerate_lattice_points(basis, radius)
        keys = [(l1_norm(p), p.x, p.y) for p in points]
        assert keys == sorted(keys)
        assert len(set((p.x, p.y) for p in points)) == len(points)
        for p in points:
            assert l1_norm(p) <= radius
            assert contains(basis, p)


def test_enumerate_rejects_negative_radius():
    with pytest.raises(ValueError):
        enumerate_lattice_points(UNIT, -1)


def test_enumerate_lattice_points_matches_the_diamond_scan():
    # Random bases at radius 0, whole and fractional radii, and two sheared
    # families, (1,1),(k,k+1) and (1,0),(0,k), whose square [-r, r]^2 holds
    # many lattice points outside the l1 ball.
    rng = random.Random(13)
    queries = []
    for trial in range(80):
        if trial % 2:
            basis = random_rational_basis(rng, bound=8, max_den=5)
        else:
            basis = random_int_basis(rng, bound=8)
        whole = Fraction(rng.randint(1, 12))
        fractional = Fraction(rng.randint(1, 60), rng.randint(2, 7))
        queries += [(basis, Fraction(0)), (basis, whole), (basis, fractional)]
    for k in (1, 7, 40):
        for radius in (0, 1, Fraction(5, 2), 6):
            queries.append((LatticeBasis(Vec2(1, 1), Vec2(k, k + 1)), radius))
        for radius in (0, 1, Fraction(7, 2), 12, Fraction(121, 2)):
            queries.append((LatticeBasis(Vec2(1, 0), Vec2(0, k)), radius))
    outside = 0
    for basis, radius in queries:
        ball = enumerate_lattice_points(basis, radius)
        assert ball == brute_ball_points(basis, radius), (basis, radius)
        outside += len(lattice_points_in_box(basis, -radius, radius, -radius, radius))
        outside -= len(ball)
    assert outside > 10_000


def test_lattice_points_in_box_matches_ball_filter():
    rng = random.Random(11)
    for _ in range(30):
        basis = random_int_basis(rng, bound=8)
        r = Fraction(rng.randint(1, 8))
        ball = {
            (p.x, p.y)
            for p in brute_ball_points(basis, 2 * r)
            if -r <= p.x <= r and -r <= p.y <= r
        }
        box = {(p.x, p.y) for p in lattice_points_in_box(basis, -r, r, -r, r)}
        # points with |x|,|y| <= r all have l1 norm <= 2r, so the filter is complete
        assert box == ball
    # rational bases, asymmetric boxes with denominators the basis lacks
    for _ in range(60):
        basis = random_rational_basis(rng, bound=8, max_den=4)
        x_lo, x_hi = sorted(Fraction(rng.randint(-40, 40), rng.choice((5, 7))) for _ in range(2))
        y_lo, y_hi = sorted(Fraction(rng.randint(-40, 40), rng.choice((5, 7))) for _ in range(2))
        reach = max(abs(x_lo), abs(x_hi)) + max(abs(y_lo), abs(y_hi))
        ball = [(p.x, p.y) for p in brute_ball_points(basis, reach)]
        box = [(p.x, p.y) for p in lattice_points_in_box(basis, x_lo, x_hi, y_lo, y_hi)]
        want = [(x, y) for x, y in ball if x_lo <= x <= x_hi and y_lo <= y <= y_hi]
        assert box == sorted(want)


def _box_bases(rng, bound):
    """Three integer bases with entries up to bound, in both determinant signs,
    with no entry 0 and with each entry 0 in turn.  Skew (a basis vector's l1
    norm squared over |det|) is at most 4, so brute_box_points' square stays
    small."""
    bases = []
    for zero in (None, 0, 1, 2, 3):
        found = 0
        while found < 3:
            entries = [rng.randint(-bound, bound) for _ in range(4)]
            if zero is not None:
                entries[zero] = 0
            ux, uy, vx, vy = entries
            det = ux * vy - uy * vx
            if det and max(abs(ux) + abs(uy), abs(vx) + abs(vy)) ** 2 <= 4 * abs(det):
                bases += [(ux, uy, vx, vy), (vx, vy, ux, uy)]
                found += 1
    return bases


def _box_sides(rng, centre, reach):
    """One side's (lo, hi) for each shape: wide, reversed, zero-width and
    one-wide, the narrow ones through centre so that they can hold points."""
    lo = centre - rng.randint(0, 3 * reach)
    one = centre - rng.randint(0, 1)
    return [
        (lo, lo + rng.randint(0, 6 * reach)),
        (lo, lo - rng.randint(1, reach)),
        (centre, centre),
        (one, one + 1),
    ]


def test_box_points_matches_brute_force_scan():
    rng = random.Random(23)
    for bound in (6, 2**60):
        for cleared in _box_bases(rng, bound):
            ux, uy, vx, vy = cleared
            reach = max(map(abs, cleared))
            for _ in range(3):
                z1, z2 = rng.randint(-2, 2), rng.randint(-2, 2)
                xs = _box_sides(rng, z1 * ux + z2 * vx, reach)
                ys = _box_sides(rng, z1 * uy + z2 * vy, reach)
                for (x_lo, x_hi), (y_lo, y_hi) in itertools.product(xs, ys):
                    got = sorted(box_points(cleared, x_lo, x_hi, y_lo, y_hi))
                    assert got == brute_box_points(cleared, x_lo, x_hi, y_lo, y_hi)


def test_quadrant_basis_examples():
    qb = quadrant_basis(SKEWED_23)
    assert (qb.u1.x, qb.u1.y) == (3, 5)
    assert (qb.u2.x, qb.u2.y) == (-4, 1)

    qb = quadrant_basis(UNIT)
    assert (qb.u1.x, qb.u1.y) == (1, 0)
    assert (qb.u2.x, qb.u2.y) == (-1, 1)

    qb = quadrant_basis(SKEWED_14)
    assert (qb.u1.x, qb.u1.y) == (2, 1)
    assert (qb.u2.x, qb.u2.y) == (-2, 6)


def test_quadrant_basis_certificate_and_canonical_signs():
    rng = random.Random(12)
    for _ in range(150):
        basis = random_int_basis(rng)
        qb = quadrant_basis(basis)
        u1, u2 = qb.u1, qb.u2
        assert u1.x > 0 or (u1.x == 0 and u1.y > 0)
        assert u1.x * u1.y >= 0
        assert u2.x < 0 < u2.y
        assert abs(u1.x * u2.y - u1.y * u2.x) == basis.covolume
        assert contains(basis, u1) and contains(basis, u2)



@pytest.mark.parametrize(
    "u1, u2, text",
    [
        ((0, 0), (-1, 1), "u1 must be a nonzero same-sign vector"),
        ((1, -1), (-1, 1), "u1 must be a nonzero same-sign vector"),
        ((-1, -1), (-1, 1), "u1 not in canonical orientation"),
        ((0, -1), (-1, 1), "u1 not in canonical orientation"),
        ((1, 0), (1, -1), "u2 must satisfy x < 0 < y"),
        ((1, 0), (0, 1), "u2 must satisfy x < 0 < y"),
        ((1, 1), (-1, 0), "u2 must satisfy x < 0 < y"),
    ],
)
def test_quadrant_basis_rejects_a_pair_out_of_canonical_form(u1, u2, text):
    with pytest.raises(ValueError, match=text):
        QuadrantBasis(Vec2(*u1), Vec2(*u2))
    QuadrantBasis(Vec2(0, 2), Vec2(-1, 1))  # u1 on the y axis is canonical

def test_quadrant_basis_matches_brute_force():
    rng = random.Random(13)
    for _ in range(150):
        basis = random_int_basis(rng)
        qb = quadrant_basis(basis)
        n1, n2 = brute_quadrant_minima(basis)
        assert l1_norm(qb.u1) == n1
        assert l1_norm(qb.u2) == n2


# Lattices with many l1 ties within and across the sign classes: Z^2, its
# index-2 sublattice (1,1),(1,-1) and Z^2 turned by the rational rotation
# with cosine 3/5.
TIE_HEAVY = (
    UNIT,
    LatticeBasis(Vec2(1, 1), Vec2(1, -1)),
    LatticeBasis(Vec2(Fraction(3, 5), Fraction(4, 5)), Vec2(Fraction(-4, 5), Fraction(3, 5))),
)


def test_quadrant_basis_follows_the_tie_rule():
    # Whole results, orientation included, against the oracle's own sign
    # test and tie rule (least norm, then least |y|, then canonical sign).
    # A unimodular image spans the same lattice, so it must give the same
    # pair as the oracle run on the original basis.
    rng = random.Random(22)
    for _ in range(100):
        basis = random_int_basis(rng)
        assert quadrant_basis(basis) == brute_quadrant_basis(basis)
    for _ in range(60):
        basis = random_rational_basis(rng)
        assert quadrant_basis(basis) == brute_quadrant_basis(basis)
    for base in TIE_HEAVY:
        want = brute_quadrant_basis(base)
        assert quadrant_basis(base) == want
        for _ in range(40):
            image = transformed_basis(base, random_unimodular(rng))
            assert quadrant_basis(image) == want


@pytest.mark.parametrize(
    "u, v, count",
    [
        ((1, 1), (10, 11), 24 * 25 + 2),
        ((1, 1), (30, 31), 64 * 65 + 2),
        ((1, 1), (100, 101), 204 * 205 + 2),
        ((1, 0), (0, 50), 51 * 52 + 2),
    ],
)
def test_quadrant_basis_work_is_pinned_as_a_key_count(monkeypatch, u, v, count):
    # The search visits one of each pair +-(z1, z2), 2n pairs on shell n, so
    # stopping before shell N (the first n with n*det > m*max norm) costs
    # (N - 1)*N sign_key calls; QuadrantBasis checks its two vectors with two
    # more.  Full shells or a lost stop test change the count on any host.
    calls = []
    real = lattice.sign_key

    def counting(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(lattice, "sign_key", counting)
    quadrant_basis(LatticeBasis(Vec2(*u), Vec2(*v)))
    assert len(calls) == count


@pytest.mark.parametrize(
    "u, v, shells",
    [((1, 1), (10, 11), 25), ((1, 1), (30, 31), 65), ((1, 1), (100, 101), 205),
     ((1, 0), (0, 50), 52)],
)
def test_quadrant_basis_visits_one_of_each_pair_before_the_stop(monkeypatch, u, v, shells):
    # The key-count pin's bases, with N = shells its stop shell: the points
    # keyed must be z1*u + z2*v, one of each +-(z1, z2) with 0 < |z1| + |z2|
    # < N, each once, then QuadrantBasis's two vectors.  A walk that visits
    # the right number of wrong points passes the count and fails here.
    calls = []
    real = lattice.sign_key

    def recording(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(lattice, "sign_key", recording)
    qb = quadrant_basis(LatticeBasis(Vec2(*u), Vec2(*v)))
    (ux, uy), (vx, vy) = u, v
    want = [
        (z1 * ux + z2 * vx, z1 * uy + z2 * vy)
        for z1 in range(shells)
        for z2 in range(-shells, shells + 1)
        if 0 < z1 + abs(z2) < shells and (z1 > 0 or z2 > 0)
    ]
    want += [(qb.u1.x, qb.u1.y), (qb.u2.x, qb.u2.y)]
    assert Counter(calls) == Counter(want)


# Bases where a step of the shell walk, u - v or u + v, or a basis vector has a
# zero coordinate: each rule ties one coordinate of v to u, or sets one to 0.
# A walk that built its progressions with range() would raise on a zero step.
ZERO_STEP_RULES = (
    lambda u, v: (u, Vec2(u.x, v.y)),
    lambda u, v: (u, Vec2(v.x, u.y)),
    lambda u, v: (u, Vec2(-u.x, v.y)),
    lambda u, v: (u, Vec2(v.x, -u.y)),
    lambda u, v: (Vec2(u.x, 0), v),
    lambda u, v: (Vec2(0, u.y), v),
    lambda u, v: (u, Vec2(v.x, 0)),
    lambda u, v: (u, Vec2(0, v.y)),
)


def test_quadrant_basis_handles_zero_steps():
    rng = random.Random(30)
    for draw in (random_int_basis, random_rational_basis):
        for rule in ZERO_STEP_RULES:
            for _ in range(15):
                while True:
                    basis = draw(rng)
                    u, v = rule(basis.u, basis.v)
                    if u.x * v.y - u.y * v.x:
                        break
                basis = LatticeBasis(u, v)
                assert quadrant_basis(basis) == brute_quadrant_basis(basis)


def test_axis_periods_examples():
    per = axis_periods(SKEWED_23)
    assert (per.d_x, per.m_x, per.d_y, per.m_y) == (23, 24, 23, 24)

    per = axis_periods(SKEWED_14)
    assert (per.d_x, per.m_x, per.d_y, per.m_y) == (14, 15, 7, 9)

    per = axis_periods(LatticeBasis(Vec2(1, 2), Vec2(3, 0)))
    assert (per.d_x, per.m_x, per.d_y, per.m_y) == (3, 5, 6, 7)


def test_axis_periods_match_membership_scan():
    rng = random.Random(14)
    for _ in range(150):
        basis = random_int_basis(rng)
        per = axis_periods(basis)
        assert per.d_x == brute_axis_period(basis, "x")
        assert per.d_y == brute_axis_period(basis, "y")
        assert contains(basis, Vec2(per.d_x, 0))
        assert contains(basis, Vec2(0, per.d_y))
        assert per.m_x == per.d_x + basis.covolume / per.d_x
        assert per.m_y == per.d_y + basis.covolume / per.d_y


def test_min_length_examples():
    rep = min_length(SKEWED_23)
    assert rep.min_length == 13 and rep.winner is Winner.TWO_RECT
    assert (rep.quadrant_sum, rep.m_x, rep.m_y) == (13, 24, 24)

    rep = min_length(UNIT)
    assert rep.min_length == 2 and rep.winner is Winner.ONE_RECT_X
    assert (rep.quadrant_sum, rep.m_x, rep.m_y) == (3, 2, 2)

    rep = min_length(SKEWED_14)
    assert rep.min_length == 9 and rep.winner is Winner.ONE_RECT_Y
    assert (rep.quadrant_sum, rep.m_x, rep.m_y) == (11, 15, 9)


def test_min_length_winner_attains_minimum():
    rng = random.Random(15)
    for _ in range(150):
        basis = random_int_basis(rng)
        rep = min_length(basis)
        assert rep.min_length == min(rep.quadrant_sum, rep.m_x, rep.m_y)
        attained = {
            Winner.TWO_RECT: rep.quadrant_sum,
            Winner.ONE_RECT_X: rep.m_x,
            Winner.ONE_RECT_Y: rep.m_y,
        }[rep.winner]
        assert attained == rep.min_length
        if rep.winner is Winner.TWO_RECT:
            assert rep.quadrant_sum < rep.m_x and rep.quadrant_sum < rep.m_y


def test_unimodular_invariance():
    rng = random.Random(16)
    for _ in range(60):
        basis = random_int_basis(rng)
        rep = min_length(basis)
        other = transformed_basis(basis, random_unimodular(rng))
        rep2 = min_length(other)
        assert rep2.min_length == rep.min_length
        assert rep2.covolume == rep.covolume
        assert rep2.quadrant_sum == rep.quadrant_sum
        assert (rep2.m_x, rep2.m_y) == (rep.m_x, rep.m_y)


def test_axis_swap_swaps_periods():
    rng = random.Random(17)
    for _ in range(60):
        basis = random_int_basis(rng)
        rep = min_length(basis)
        swapped = LatticeBasis(Vec2(basis.u.y, basis.u.x), Vec2(basis.v.y, basis.v.x))
        rep2 = min_length(swapped)
        assert (rep2.m_x, rep2.m_y) == (rep.m_y, rep.m_x)
        assert rep2.min_length == rep.min_length
        assert rep2.quadrant_sum == rep.quadrant_sum


def test_sign_flip_invariance():
    # Flipping x maps strict-Q1 points onto strict-Q2 points but keeps axis
    # points in Q1, so the quadrant sum is only guaranteed when both
    # minimizers stay off the axes; the other quantities are always preserved.
    rng = random.Random(18)
    for _ in range(60):
        basis = random_int_basis(rng)
        rep = min_length(basis)
        for flipped in (
            LatticeBasis(Vec2(-basis.u.x, basis.u.y), Vec2(-basis.v.x, basis.v.y)),
            LatticeBasis(Vec2(basis.u.x, -basis.u.y), Vec2(basis.v.x, -basis.v.y)),
        ):
            rep2 = min_length(flipped)
            assert rep2.covolume == rep.covolume
            assert (rep2.m_x, rep2.m_y) == (rep.m_x, rep.m_y)
            assert rep2.min_length == rep.min_length
            if (
                rep.witness.u1.x * rep.witness.u1.y != 0
                and rep2.witness.u1.x * rep2.witness.u1.y != 0
            ):
                assert rep2.quadrant_sum == rep.quadrant_sum


def test_scaling_invariance():
    rng = random.Random(19)
    for _ in range(60):
        basis = random_int_basis(rng, bound=10)
        t = random_positive_rational(rng)
        scaled = LatticeBasis(basis.u.scaled(t), basis.v.scaled(t))
        rep, rep2 = min_length(basis), min_length(scaled)
        per, per2 = axis_periods(basis), axis_periods(scaled)
        assert rep2.min_length == t * rep.min_length
        assert rep2.quadrant_sum == t * rep.quadrant_sum
        assert per2.d_x == t * per.d_x and per2.d_y == t * per.d_y
        assert per2.m_x == t * per.m_x and per2.m_y == t * per.m_y
        assert rep2.covolume == t * t * rep.covolume


def test_divisibility_of_y_coordinates():
    rng = random.Random(20)
    for _ in range(40):
        basis = random_int_basis(rng)
        per = axis_periods(basis)
        g_y = basis.covolume / per.d_x
        for _ in range(20):
            w = lattice_point(basis, rng.randint(-10, 10), rng.randint(-10, 10))
            assert (w.y / g_y).denominator == 1


def test_rational_bases_work_throughout():
    rng = random.Random(21)
    for _ in range(40):
        basis = random_rational_basis(rng)
        qb = quadrant_basis(basis)
        n1, n2 = brute_quadrant_minima(basis)
        assert l1_norm(qb.u1) == n1 and l1_norm(qb.u2) == n2
        per = axis_periods(basis)
        assert contains(basis, Vec2(per.d_x, 0))
        assert contains(basis, Vec2(0, per.d_y))
        rep = min_length(basis)
        assert rep.min_length == min(rep.quadrant_sum, rep.m_x, rep.m_y)
