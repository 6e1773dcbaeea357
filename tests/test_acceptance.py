"""Acceptance gate: exact worked cases plus randomized property suites.

Every check is exact (zero tolerance).  Each criterion prints one pass/fail
line on the real stdout so the gate is visible regardless of capture mode.
"""

import random
import time
from contextlib import contextmanager

from torus_rect_tiler import (
    LatticeBasis,
    Orientation,
    QuadrantBasis,
    Rect,
    Tiling,
    Vec2,
    Winner,
    axis_periods,
    build_optimal,
    build_skeleton,
    build_two_rect,
    decompose_axis_paths,
    l1_norm,
    lattice_point,
    min_length,
    quadrant_basis,
    reduce_tiling_with_trace,
    tiling_length,
    verify_tiling,
)
from conftest import (
    brute_axis_period,
    brute_quadrant_minima,
    random_int_basis,
    random_positive_rational,
    random_split_tiling,
    random_unimodular,
    transformed_basis,
)

SKEWED_23 = LatticeBasis(Vec2(3, 5), Vec2(-4, 1))
SKEWED_14 = LatticeBasis(Vec2(2, 1), Vec2(-4, 5))


@contextmanager
def criterion(capfd, number: int, label: str, limit_s: float):
    def report(line):
        with capfd.disabled():
            print(line, flush=True)

    start = time.monotonic()
    try:
        yield
    except BaseException:
        report(f"[acceptance] criterion {number} FAIL  {label}")
        raise
    elapsed = time.monotonic() - start
    report(
        f"[acceptance] criterion {number} PASS  {label}  ({elapsed:.2f}s < {limit_s:g}s)"
    )
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.2f}s)"


def bases_for_oracle_suite():
    rng = random.Random(230514)
    return [random_int_basis(rng, bound=20) for _ in range(500)]


def test_criterion_1_skewed_23_worked_case(capfd):
    with criterion(capfd, 1, "covolume-23 worked case", 1.0):
        assert SKEWED_23.covolume == 23
        per = axis_periods(SKEWED_23)
        assert per.m_x == 24 and per.m_y == 24
        rep = min_length(SKEWED_23)
        assert rep.quadrant_sum == 13
        assert rep.min_length == 13
        assert rep.winner is Winner.TWO_RECT

        # independent confirmations
        n1, n2 = brute_quadrant_minima(SKEWED_23)
        assert n1 + n2 == 13
        assert brute_axis_period(SKEWED_23, "x") == per.d_x == 23
        assert brute_axis_period(SKEWED_23, "y") == per.d_y == 23

        tiling = build_optimal(SKEWED_23, rep)
        assert [(r.x0, r.x1, r.y0, r.y1) for r in tiling.rects] == [
            (-4, -1, 0, 1),
            (-1, 3, 0, 5),
        ]
        assert verify_tiling(tiling).valid
        assert tiling_length(tiling) == 13


def test_criterion_2_skewed_14_worked_case(capfd):
    with criterion(capfd, 2, "covolume-14 worked case", 1.0):
        qb = quadrant_basis(SKEWED_14)
        assert (qb.u1.x, qb.u1.y) == (2, 1)
        assert (qb.u2.x, qb.u2.y) == (-2, 6)
        rep = min_length(SKEWED_14)
        assert (rep.quadrant_sum, rep.m_x, rep.m_y) == (11, 15, 9)
        assert rep.min_length == 9
        assert rep.winner is Winner.ONE_RECT_Y

        tiling = build_optimal(SKEWED_14, rep)
        assert [(r.x0, r.x1, r.y0, r.y1) for r in tiling.rects] == [(0, 2, 0, 7)]
        assert verify_tiling(tiling).valid

        forced = build_two_rect(SKEWED_14, QuadrantBasis(Vec2(2, 1), Vec2(-4, 5)))
        assert [(r.x0, r.x1, r.y0, r.y1) for r in forced.rects] == [
            (-4, -2, 0, 5),
            (-2, 2, 0, 1),
        ]
        assert verify_tiling(forced).valid
        assert tiling_length(forced) == 12
        assert tiling_length(forced) == l1_norm(SKEWED_14.u) + l1_norm(SKEWED_14.v)


def test_criterion_3_oracle_equivalence_500_bases(capfd):
    with criterion(capfd, 3, "oracle equivalence on 500 random bases", 60.0):
        for basis in bases_for_oracle_suite():
            qb = quadrant_basis(basis)
            n1, n2 = brute_quadrant_minima(basis)
            assert l1_norm(qb.u1) == n1
            assert l1_norm(qb.u2) == n2
            per = axis_periods(basis)
            assert per.d_x == brute_axis_period(basis, "x")
            assert per.d_y == brute_axis_period(basis, "y")


def test_criterion_4_construction_validity_500_bases(capfd):
    with criterion(capfd, 4, "construction validity on the same 500 bases", 60.0):
        for basis in bases_for_oracle_suite():
            rep = min_length(basis)
            tiling = build_optimal(basis, rep)
            assert verify_tiling(tiling).valid
            assert tiling_length(tiling) == rep.min_length
            skeleton = build_skeleton(tiling)
            assert skeleton.total_length == tiling_length(tiling)


def test_criterion_5_invariance_200_pairs(capfd):
    with criterion(capfd, 5, "invariance under unimodular change, axis swap, scaling", 60.0):
        rng = random.Random(77041)
        for _ in range(200):
            basis = random_int_basis(rng, bound=20)
            rep = min_length(basis)

            other = transformed_basis(basis, random_unimodular(rng))
            rep_u = min_length(other)
            assert rep_u.min_length == rep.min_length
            assert rep_u.covolume == rep.covolume

            swapped = LatticeBasis(
                Vec2(basis.u.y, basis.u.x), Vec2(basis.v.y, basis.v.x)
            )
            rep_s = min_length(swapped)
            assert (rep_s.m_x, rep_s.m_y) == (rep.m_y, rep.m_x)
            assert rep_s.min_length == rep.min_length

            t = random_positive_rational(rng)
            scaled = LatticeBasis(basis.u.scaled(t), basis.v.scaled(t))
            assert min_length(scaled).min_length == t * rep.min_length


def test_criterion_6_lower_bound_and_reduction_200_tilings(capfd):
    with criterion(capfd, 6, "lower bound and reduction on 200 split tilings", 60.0):
        rng = random.Random(990217)
        reduced_count = 0
        for _ in range(200):
            basis = random_int_basis(rng, bound=20)
            rep = min_length(basis)
            tiling = random_split_tiling(rng, build_optimal(basis, rep), max_splits=6)
            assert verify_tiling(tiling).valid
            assert tiling_length(tiling) >= rep.min_length

            decomposition = decompose_axis_paths(build_skeleton(tiling))
            if decomposition.cycles_h or decomposition.cycles_v:
                continue
            reduced, steps = reduce_tiling_with_trace(tiling)
            assert verify_tiling(reduced).valid
            assert tiling_length(reduced) <= tiling_length(tiling)
            assert tiling_length(reduced) >= rep.min_length
            after = decompose_axis_paths(build_skeleton(reduced))
            assert len(after.paths_h) == 1 and len(after.paths_v) == 1
            assert not after.cycles_h and not after.cycles_v
            reduced_count += 1
        assert reduced_count > 50  # the cycle-free majority actually exercised reduction

        # worked 17 -> 13 merge reproduces the shift arithmetic exactly
        split = Tiling(
            SKEWED_23,
            (Rect(-4, -1, 0, 1), Rect(-1, 3, 0, 2), Rect(-1, 3, 2, 5)),
        )
        assert tiling_length(split) == 17
        reduced, steps = reduce_tiling_with_trace(split)
        assert tiling_length(reduced) == 13
        assert reduced == build_optimal(SKEWED_23)
        assert len(steps) == 1
        step = steps[0]
        assert step.axis is Orientation.H
        assert step.s2 == (1,) and step.s3 == (2,) and step.s1 == ()
        assert step.shrink == 2 and step.eliminated == (1,)
        eliminated_width = split.rects[1].width
        assert (
            step.length_after
            == step.length_before
            - eliminated_width
            - step.shrink * (len(step.s2) - len(step.s3))
            == 13
        )


def test_criterion_7_divisibility_100_bases(capfd):
    with criterion(capfd, 7, "y-coordinate divisibility on 100 bases x 50 points", 60.0):
        rng = random.Random(160423)
        for _ in range(100):
            basis = random_int_basis(rng, bound=20)
            per = axis_periods(basis)
            g_y = basis.covolume / per.d_x
            for _ in range(50):
                w = lattice_point(
                    basis, rng.randint(-10, 10), rng.randint(-10, 10)
                )
                assert (w.y / g_y).denominator == 1
