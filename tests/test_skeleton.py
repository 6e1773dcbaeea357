import copy
import dataclasses
import math
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from torus_rect_tiler import (
    Axis,
    CycleExistsError,
    LatticeBasis,
    Orientation,
    QuadrantBasis,
    Rect,
    SkeletonEdge,
    Tiling,
    Vec2,
    ViolationKind,
    Winner,
    axis_periods,
    build_one_rect,
    build_optimal,
    build_skeleton,
    build_two_rect,
    canonicalize,
    decompose_axis_paths,
    lattice_point,
    min_length,
    quadrant_basis,
    reduce_tiling_with_trace,
    tiling_from_json_dict,
    tiling_length,
    verify_tiling,
)
from torus_rect_tiler.exact_math import clear_denominators
from torus_rect_tiler.lattice import axis_forms
from torus_rect_tiler import certificate, skeleton
from torus_rect_tiler.certificate import _Placement, _certify, _clear, _locate
from torus_rect_tiler.skeleton import InvalidTilingError, Skeleton, _violations
from conftest import (
    assert_matches_brute_decomposition,
    brute_canonicalize,
    contains,
    placement_periods,
    random_int_basis,
    random_positive_rational,
    random_rational,
    random_rational_basis,
    random_split_tiling,
    recut_decomposition,
    recut_lines,
    recut_skeleton,
    replay_reduction,
)

SKEWED_23 = LatticeBasis(Vec2(3, 5), Vec2(-4, 1))
SKEWED_14 = LatticeBasis(Vec2(2, 1), Vec2(-4, 5))
UNIT = LatticeBasis(Vec2(1, 0), Vec2(0, 1))


def kinds(report):
    return {v.kind for v in report.violations}


def path_length(path):
    return sum((e.length for e in path), Fraction(0))


# --- canonicalize -----------------------------------------------------------


def test_canonicalize_examples():
    p = canonicalize(UNIT, Vec2(Fraction(5, 2), Fraction(-1, 3)))
    assert (p.rep.x, p.rep.y) == (Fraction(1, 2), Fraction(2, 3))

    p = canonicalize(SKEWED_23, Vec2(3, 5))
    assert p.rep == Vec2(0, 0)

    p = canonicalize(SKEWED_14, Vec2(0, 7))
    assert p.rep == Vec2(0, 0)


def test_canonicalize_idempotent_and_shift_invariant():
    rng = random.Random(40)
    for _ in range(60):
        basis = random_int_basis(rng, bound=9)
        x = Vec2(Fraction(rng.randint(-40, 40), rng.randint(1, 7)),
                 Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
        p = canonicalize(basis, x)
        assert canonicalize(basis, p.rep) == p
        shift = lattice_point(basis, rng.randint(-5, 5), rng.randint(-5, 5))
        assert canonicalize(basis, x + shift) == p


def test_canonicalize_matches_fraction_oracle():
    rng = random.Random(51)
    negative = 0
    for trial in range(600):
        if trial % 2:
            basis = random_rational_basis(rng, bound=20, max_den=9)
        else:
            basis = random_int_basis(rng)
        negative += basis.det < 0
        p = Vec2(random_rational(rng, bound=90), random_rational(rng, bound=90))
        assert canonicalize(basis, p) == brute_canonicalize(basis, p)
    assert negative > 200


# --- torus line frames -------------------------------------------------------


@pytest.mark.parametrize("kind", ["integer", "rational"])
def test_axis_form_matches_axis_periods_and_locate_is_lattice_invariant(kind):
    rng = random.Random(48 if kind == "integer" else 49)
    for _ in range(40):
        basis = random_int_basis(rng) if kind == "integer" else random_rational_basis(rng)
        per = axis_periods(basis)
        den, (ux, uy, vx, vy) = clear_denominators(
            basis.u.x, basis.u.y, basis.v.x, basis.v.y
        )
        det = abs(ux * vy - uy * vx)
        h, v = axis_forms(ux, uy, vx, vy)
        assert h[0] == math.gcd(uy, vy) and h[0] * h[1] == det
        assert v[0] == math.gcd(ux, vx) and v[0] * v[1] == det
        assert Fraction(h[1], den) == per.d_x and Fraction(v[1], den) == per.d_y
        assert 0 <= h[2] < h[1] and 0 <= v[2] < v[1]
        for _ in range(5):
            p = Vec2(random_rational(rng), random_rational(rng))
            q = p + lattice_point(basis, rng.randint(-6, 6), rng.randint(-6, 6))
            length = random_positive_rational(rng)
            # The points share their denominator with a length, as the
            # origin of a skeleton edge does.
            place_den, (*cleared, px, py, qx, qy, _) = clear_denominators(
                *basis.entries, p.x, p.y, q.x, q.y, length
            )
            for orientation, d in ((Orientation.H, per.d_x), (Orientation.V, per.d_y)):
                h_line = orientation is Orientation.H
                forms = _Placement(cleared).forms
                period = forms[orientation.value][1]
                placed = [
                    _locate(forms, orientation.value, x, y) for x, y in ((px, py), (qx, qy))
                ]
                assert placed[0] == placed[1]
                line_id, start = placed[0]
                key = Fraction(line_id[1], place_den)
                coord = Fraction(start, place_den)
                assert 0 <= key < basis.covolume / d and 0 <= coord < d
                assert Fraction(period, place_den) == d
                point = Vec2(coord, key) if h_line else Vec2(key, coord)
                assert contains(basis, point + p.scaled(-1))


# --- verify_tiling -----------------------------------------------------------


def test_verify_accepts_optimal_construction():
    report = verify_tiling(build_optimal(SKEWED_23))
    assert report.valid and not report.violations


def test_verify_memory_does_not_grow_with_the_injectivity_box():
    # The injectivity box of this square holds 239^2 lattice points.
    t = Tiling(UNIT, (Rect(0, 120, 0, 120),))
    tracemalloc.start()
    try:
        report = verify_tiling(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kinds(report) == {ViolationKind.INJECTIVITY, ViolationKind.COVERAGE}
    assert "lattice point (-119, -119)" in report.violations[0].detail
    assert peak < 1_000_000


def test_certificate_agrees_with_full_verification_on_edge_cases(monkeypatch):
    covolume_23 = SKEWED_23.covolume
    n = 20_000
    cases = [
        # A side of exactly one circumference, on both axes.
        Tiling(UNIT, (Rect(0, 1, 0, 1),)),
        build_one_rect(SKEWED_23, Axis.X),
        # Three circumferences wide, with the areas summing to the covolume.
        Tiling(UNIT, (Rect(0, 3, 0, Fraction(1, 3)),)),
        # Shorter than both circumferences (23), area 23, but (3, 5) lies in
        # the injectivity box (-4, 4) x (-23/4, 23/4).
        Tiling(SKEWED_23, (Rect(0, 4, 0, covolume_23 / 4),)),
        # Every line cancels, but each point is covered twice.
        Tiling(SKEWED_23, build_optimal(SKEWED_23).rects * 2),
        Tiling(UNIT, (Rect(0, 1, 0, 1),) * 2),
        # Area 1 but n circumferences wide: refused before any side is placed.
        Tiling(UNIT, (Rect(0, n, 0, Fraction(1, n)),)),
    ]
    # _certify locates each side it places, once.
    placed = 0
    locate = certificate._locate

    def counting(*args):
        nonlocal placed
        placed += 1
        return locate(*args)

    monkeypatch.setattr(certificate, "_locate", counting)
    verdicts, edit_placed = [], []
    for t in cases:
        den, cleared, boxes = _clear(t)
        whole = _certify(_Placement(cleared), dict(enumerate(boxes)))
        certified = whole is not None
        assert certified == (not _violations(den, cleared, boxes)), t
        assert certified == verify_tiling(t).valid
        verdicts.append(certified)
        # The same boxes as edits of the basis's one-rectangle tiling: box 0
        # replaces it and the others join.
        one_rect = build_one_rect(t.basis, Axis.X).rects
        den, cleared, boxes = _clear(Tiling(t.basis, one_rect + t.rects))
        placement = _Placement(cleared)
        assert _certify(placement, {0: boxes[0]}) is not None
        placed = 0
        edits = dict(enumerate(boxes[1:]))
        edited = _certify(placement, edits) is not None
        assert edited == (not _violations(den, cleared, boxes[1:])), t
        assert placement.boxes == edits
        edit_placed.append(placed)
    assert verdicts == [True, True, False, False, False, False, False]
    # A box that fails the area test or has a side longer than its line
    # places no side.
    assert edit_placed == [4, 4, 0, 4, 0, 0, 0]


def test_certificate_counts_the_sides_over_line_position_zero():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    one_rect = build_one_rect(SKEWED_23, Axis.X).rects[0]
    low_half = Rect(one_rect.x0, one_rect.x1, 0, one_rect.y1 / 2)
    shift = Vec2(Fraction(-1, 3), Fraction(2, 7))
    wrapping = Rect(3 * quarter, 5 * quarter, 0, half)
    cases = [
        # The areas sum to the covolume and the signed sides balance at every
        # endpoint, but each point of the lower half is covered twice: only
        # the count over position 0 refuses these.
        (Tiling(UNIT, (Rect(0, 1, 0, half),) * 2), False),
        (Tiling(UNIT, (Rect(-half, half, 0, half),) * 2), False),
        (Tiling(UNIT, (Rect(0, 1, 0, half), Rect(half, 3 * half, 0, half))), False),
        (Tiling(UNIT, (Rect(0, half, 0, half), Rect(half, 1, 0, half)) * 2), False),
        (Tiling(UNIT, (Rect(quarter, 3 * quarter, 0, half), wrapping) * 2), False),
        (Tiling(SKEWED_23, (low_half,) * 2), False),
        # Valid tilings whose sides start at position 0 or wrap past it.
        (Tiling(UNIT, (Rect(0, 1, 0, half), Rect(half, 3 * half, half, 1))), True),
        (Tiling(UNIT, (Rect(-half, half, -half, half),)), True),
        (Tiling(UNIT, (Rect(-quarter, half, 0, 1), Rect(half, 3 * quarter, 0, 1))), True),
        (
            Tiling(
                SKEWED_23,
                tuple(
                    Rect(r.x0 + shift.x, r.x1 + shift.x, r.y0 + shift.y, r.y1 + shift.y)
                    for r in build_optimal(SKEWED_23).rects
                ),
            ),
            True,
        ),
    ]
    for t, valid in cases:
        assert sum(r.width * r.height for r in t.rects) == t.basis.covolume
        den, cleared, boxes = _clear(t)
        whole = _certify(_Placement(cleared), dict(enumerate(boxes)))
        assert (whole is not None) == valid == (not _violations(den, cleared, boxes)), t
        assert verify_tiling(t).valid == valid


def test_a_certificate_that_refuses_a_valid_tiling_raises(monkeypatch):
    # Only a broken certificate can refuse a tiling the pair scan finds no
    # violation in; the scan then has no report to write.
    monkeypatch.setattr(skeleton, "_certify", lambda placement, edits: None)
    t = build_optimal(SKEWED_23)
    message = "boundary cancellation refused a tiling that verifies"
    with pytest.raises(RuntimeError, match=message):
        verify_tiling(t)
    with pytest.raises(RuntimeError, match=message):
        build_skeleton(t)


def test_a_line_that_cancels_without_bottom_length_raises():
    # A bottom and a top side of length 0 at one point balance every count,
    # but no side covers the line; no nondegenerate rectangle has such sides.
    placement = _Placement((1, 0, 0, 1))
    placement.on_line[("h", 0)] = {(0, 0): (0, 0), (0, 1): (0, 0)}
    with pytest.raises(RuntimeError, match="has sides but no bottom side"):
        certificate._cancels(placement, [("h", 0)])


def test_certificate_refuses_a_side_that_wraps_its_line_before_placing(monkeypatch):
    # Area 1 over Z^2, but 20000 circumferences wide: placing the bottom
    # side would list one arc per turn around its line, about 500 kB here.
    n = 20_000
    t = Tiling(UNIT, (Rect(0, n, 0, Fraction(1, n)),))
    placed = 0
    locate = certificate._locate

    def counting(*args):
        nonlocal placed
        placed += 1
        return locate(*args)

    monkeypatch.setattr(certificate, "_locate", counting)
    tracemalloc.start()
    try:
        report = verify_tiling(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert placed == 0
    assert kinds(report) == {ViolationKind.INJECTIVITY}
    assert "lattice point (-19999, 0)" in report.violations[0].detail
    assert peak < 100_000


def test_verify_flags_duplicate_rectangle_as_overlap():
    t = Tiling(UNIT, (Rect(0, 1, 0, 1), Rect(0, 1, 0, 1)))
    report = verify_tiling(t)
    assert not report.valid
    assert ViolationKind.OVERLAP in kinds(report)


def test_verify_flags_too_wide_rectangle_as_injectivity():
    t = Tiling(UNIT, (Rect(0, 2, 0, 1),))
    report = verify_tiling(t)
    assert not report.valid
    assert ViolationKind.INJECTIVITY in kinds(report)


def test_verify_flags_shrunk_rectangle_as_coverage():
    t = Tiling(UNIT, (Rect(0, Fraction(9, 10), 0, 1),))
    report = verify_tiling(t)
    assert not report.valid
    assert kinds(report) == {ViolationKind.COVERAGE}


def test_verifier_completeness_on_constructions():
    rng = random.Random(41)
    for _ in range(120):
        basis = random_int_basis(rng)
        assert verify_tiling(build_one_rect(basis, Axis.X)).valid
        assert verify_tiling(build_one_rect(basis, Axis.Y)).valid
        qb = quadrant_basis(basis)
        if qb.u1.x * qb.u1.y != 0:
            assert verify_tiling(build_two_rect(basis, qb)).valid


def test_verifier_soundness_against_perturbations():
    rng = random.Random(42)
    eps = Fraction(1, 7)
    for _ in range(60):
        basis = random_int_basis(rng, bound=10)
        t = build_optimal(basis)
        rects = list(t.rects)
        i = rng.randrange(len(rects))
        r = rects[i]

        shrunk = list(rects)
        shrunk[i] = Rect(r.x0, r.x1 - r.width * eps, r.y0, r.y1)
        report = verify_tiling(Tiling(basis, tuple(shrunk)))
        assert not report.valid and ViolationKind.COVERAGE in kinds(report)

        duplicated = rects + [rects[i]]
        report = verify_tiling(Tiling(basis, tuple(duplicated)))
        assert not report.valid and ViolationKind.OVERLAP in kinds(report)

        per = axis_periods(basis)
        widened = list(rects)
        widened[i] = Rect(r.x0, r.x0 + per.d_x + eps, r.y0, r.y1)
        report = verify_tiling(Tiling(basis, tuple(widened)))
        assert not report.valid and ViolationKind.INJECTIVITY in kinds(report)


# --- build_skeleton ----------------------------------------------------------


def test_skeleton_of_unit_square_is_two_loops():
    sk = build_skeleton(Tiling(UNIT, (Rect(0, 1, 0, 1),)))
    assert len(sk.vertices) == 1
    assert len(sk.edges) == 2
    assert {e.orientation for e in sk.edges} == {Orientation.H, Orientation.V}
    assert all(e.length == 1 for e in sk.edges)
    assert sk.total_length == 2


def test_skeleton_of_two_rect_skewed_23():
    t = build_optimal(SKEWED_23)
    sk = build_skeleton(t)
    assert sk.total_length == 13 == tiling_length(t)
    assert len(sk.vertices) == 4
    assert len(sk.edges) == 6
    h_lengths = sorted(e.length for e in sk.edges if e.orientation is Orientation.H)
    v_lengths = sorted(e.length for e in sk.edges if e.orientation is Orientation.V)
    assert h_lengths == [1, 3, 3]
    assert v_lengths == [1, 1, 4]


def test_skeleton_of_diamond_two_rect():
    basis = LatticeBasis(Vec2(1, 1), Vec2(-1, 1))
    t = build_two_rect(basis, QuadrantBasis(Vec2(1, 1), Vec2(-1, 1)))
    sk = build_skeleton(t)
    assert sk.total_length == 4 == tiling_length(t)


def test_skeleton_rejects_invalid_tiling():
    with pytest.raises(InvalidTilingError):
        build_skeleton(Tiling(UNIT, (Rect(0, 2, 0, 1),)))


def test_skeleton_length_identity_on_random_tilings():
    rng = random.Random(43)
    for _ in range(60):
        basis = random_int_basis(rng, bound=12)
        t = random_split_tiling(rng, build_optimal(basis), max_splits=4)
        sk = build_skeleton(t)
        assert sk.total_length == tiling_length(t)
        origins = {e.origin for e in sk.edges}
        assert origins <= set(sk.vertices)
        assert all(e.length > 0 for e in sk.edges)


# --- decompose_axis_paths ----------------------------------------------------


def test_one_rect_on_unit_lattice_gives_two_cycles():
    sk = build_skeleton(build_one_rect(UNIT, Axis.X))
    dec = decompose_axis_paths(sk)
    assert len(dec.cycles_h) == 1 and len(dec.cycles_v) == 1
    assert not dec.paths_h and not dec.paths_v
    assert path_length(dec.cycles_h[0]) == 1
    assert path_length(dec.cycles_v[0]) == 1


def test_one_rect_perpendicular_side_may_be_a_path():
    # d(L) = 6 but d_x*d_y = 18: the vertical sides only cover part of the
    # vertical geodesic, so only the built axis wraps into a cycle.
    basis = LatticeBasis(Vec2(1, 2), Vec2(3, 0))
    dec = decompose_axis_paths(build_skeleton(build_one_rect(basis, Axis.X)))
    assert len(dec.cycles_h) == 1
    assert path_length(dec.cycles_h[0]) == axis_periods(basis).d_x
    assert not dec.cycles_v
    assert len(dec.paths_v) == 1
    assert path_length(dec.paths_v[0]) == 2


def test_two_rect_skewed_23_has_one_maximal_path_per_axis():
    dec = decompose_axis_paths(build_skeleton(build_optimal(SKEWED_23)))
    assert not dec.cycles_h and not dec.cycles_v
    assert len(dec.paths_h) == 1 and len(dec.paths_v) == 1
    assert path_length(dec.paths_h[0]) == 7
    assert path_length(dec.paths_v[0]) == 6


def test_empty_skeleton_decomposes_to_nothing():
    dec = decompose_axis_paths(Skeleton(UNIT, (), ()))
    assert dec == decompose_axis_paths(Skeleton(UNIT, (), ()))
    assert not dec.cycles_h and not dec.paths_h
    assert not dec.cycles_v and not dec.paths_v


def test_decompose_rejects_an_edge_spanning_several_arcs():
    whole = SkeletonEdge(canonicalize(UNIT, Vec2(0, 0)), Orientation.H, Fraction(1))
    half = SkeletonEdge(
        canonicalize(UNIT, Vec2(Fraction(1, 2), 0)), Orientation.H, Fraction(1, 2)
    )
    with pytest.raises(ValueError):
        decompose_axis_paths(Skeleton(UNIT, (whole.origin, half.origin), (whole, half)))


def test_decompose_refuses_an_edge_that_wraps_its_line_before_placing():
    # 10^6 circumferences long: placing it would list one arc per turn.
    edge = SkeletonEdge(canonicalize(UNIT, Vec2(0, 0)), Orientation.H, Fraction(10**6))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="is not one arc of its line"):
            decompose_axis_paths(Skeleton(UNIT, (edge.origin,), (edge,)))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 100_000


def test_decomposition_agrees_with_endpoint_chaining_oracle():
    rng = random.Random(50)
    cycle_free = with_cycles = 0
    for trial in range(100):
        basis = random_int_basis(rng, bound=12)
        base = build_one_rect(basis, Axis.X) if trial % 2 else build_optimal(basis)
        sk = build_skeleton(random_split_tiling(rng, base, max_splits=5))
        assert_matches_brute_decomposition(sk)
        dec = decompose_axis_paths(sk)
        if dec.cycles_h or dec.cycles_v:
            with_cycles += 1
        elif len(base.rects) == 2:
            cycle_free += 1
    assert cycle_free > 10 and with_cycles > 10


def mutated_skeletons(rng: random.Random, sk: Skeleton):
    """Hand-broken copies of a skeleton: one edge's length times 2, 1/2, 0
    or -1; one edge duplicated; one edge dropped and the rest shuffled."""
    edges = list(sk.edges)

    def with_edges(new_edges):
        return dataclasses.replace(sk, edges=tuple(new_edges))

    for scale in (2, Fraction(1, 2), 0, -1):
        i = rng.randrange(len(edges))
        e = edges[i]
        scaled = SkeletonEdge(e.origin, e.orientation, e.length * scale)
        yield with_edges(edges[:i] + [scaled] + edges[i + 1 :])
    duplicated = list(edges)
    duplicated.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
    yield with_edges(duplicated)
    dropped = list(edges)
    del dropped[rng.randrange(len(edges))]
    rng.shuffle(dropped)
    yield with_edges(dropped)


def result_or_refusal(function, argument):
    try:
        return function(argument)
    except ValueError as error:
        return f"ValueError: {error}"


@pytest.mark.parametrize("kind", ["integer", "rational"])
def test_refused_skeletons_name_the_edge_the_recut_lines_name(kind):
    rng = random.Random(56 if kind == "integer" else 57)
    refused = accepted = with_cycles = 0
    for trial in range(50):
        if kind == "integer":
            basis = random_int_basis(rng, bound=12)
        else:
            basis = random_rational_basis(rng)
        base = build_one_rect(basis, Axis.X) if trial % 2 else build_optimal(basis)
        t = random_split_tiling(rng, base, max_splits=5)
        sk = build_skeleton(t)
        assert sk == recut_skeleton(t)
        dec = decompose_axis_paths(sk)
        assert dec == recut_decomposition(sk)
        with_cycles += bool(dec.cycles_h or dec.cycles_v)
        for mutant in mutated_skeletons(rng, sk):
            got = result_or_refusal(decompose_axis_paths, mutant)
            assert got == result_or_refusal(recut_decomposition, mutant)
            if isinstance(got, str):
                assert got.endswith("is not one arc of its line")
                refused += 1
            else:
                accepted += 1
    assert refused > 100 and accepted > 50 and with_cycles > 15


@pytest.mark.parametrize("kind", ["integer", "rational"])
def test_kept_lines_decompose_as_the_edges_placed_afresh(kind):
    # build_skeleton keeps its lines on the skeleton; a hand-built copy has
    # none, so its edges are cleared and placed again.  Both read the same,
    # and the kept lines are no dataclass field, so they take no part in ==,
    # hash, repr, asdict or astuple.  A deep copy or a pickle round trip
    # holds the three fields only, and decomposes as the original does.
    assert [f.name for f in dataclasses.fields(Skeleton)] == [
        "basis",
        "vertices",
        "edges",
    ]
    rng = random.Random(60 if kind == "integer" else 61)
    with_cycles = cycle_free = 0
    for trial in range(40):
        if kind == "integer":
            basis = random_int_basis(rng, bound=12)
        else:
            basis = random_rational_basis(rng)
        optimal = build_optimal(basis)
        base = build_one_rect(basis, Axis.Y) if trial % 2 else optimal
        for t in (optimal, random_split_tiling(rng, base, max_splits=5)):
            sk = build_skeleton(t)
            bare = Skeleton(sk.basis, sk.vertices, sk.edges)
            assert sk._lines is not None and bare._lines is None
            assert sk == bare and hash(sk) == hash(bare) and repr(sk) == repr(bare)
            assert dataclasses.asdict(sk) == dataclasses.asdict(bare)
            assert dataclasses.astuple(sk) == dataclasses.astuple(bare)
            dec = decompose_axis_paths(sk)
            assert dec == decompose_axis_paths(bare)
            copied, unpickled = copy.deepcopy(sk), pickle.loads(pickle.dumps(sk))
            assert copied._lines is None and unpickled._lines is None
            assert decompose_axis_paths(copied) == dec
            assert decompose_axis_paths(unpickled) == dec
            if dec.cycles_h or dec.cycles_v:
                with_cycles += 1
            else:
                cycle_free += 1
    assert with_cycles > 20 and cycle_free > 20


def test_decomposing_a_built_skeleton_clears_nothing(monkeypatch):
    calls = 0
    clear = skeleton.clear_denominators

    def counting(*values):
        nonlocal calls
        calls += 1
        return clear(*values)

    monkeypatch.setattr(skeleton, "clear_denominators", counting)
    monkeypatch.setattr(certificate, "clear_denominators", counting)
    t = cycle_free_split_tiling(16, 16)
    sk = build_skeleton(t)
    calls = 0
    dec = decompose_axis_paths(sk)
    assert calls == 0 and len(dec.paths_h) + len(dec.paths_v) > 2
    assert decompose_axis_paths(dataclasses.replace(sk)) == dec and calls == 1
    # Verify, skeleton, decomposition, reduction, verify of the result: each
    # clears the tiling it is given once, except the decomposition.
    calls = 0
    assert verify_tiling(t).valid
    decompose_axis_paths(build_skeleton(t))
    reduced, _ = reduce_tiling_with_trace(t)
    assert verify_tiling(reduced).valid
    assert calls == 4


def test_every_edge_lands_in_exactly_one_group():
    rng = random.Random(44)
    for _ in range(40):
        basis = random_int_basis(rng, bound=12)
        sk = build_skeleton(random_split_tiling(rng, build_optimal(basis), max_splits=4))
        dec = decompose_axis_paths(sk)
        grouped = [e for part in dec.cycles_h + dec.paths_h + dec.cycles_v + dec.paths_v for e in part]
        assert len(grouped) == len(sk.edges)
        assert set(grouped) == set(sk.edges)
        assert path_length(tuple(grouped)) == sk.total_length


def test_cycle_dichotomy_cycle_lengths_equal_axis_periods():
    rng = random.Random(45)
    for _ in range(40):
        basis = random_int_basis(rng, bound=12)
        per = axis_periods(basis)
        for axis in (Axis.X, Axis.Y):
            t = random_split_tiling(rng, build_one_rect(basis, axis), max_splits=3)
            dec = decompose_axis_paths(build_skeleton(t))
            for cycle in dec.cycles_h:
                assert path_length(cycle) == per.d_x
            for cycle in dec.cycles_v:
                assert path_length(cycle) == per.d_y
            if axis is Axis.X:
                assert dec.cycles_h
            else:
                assert dec.cycles_v


# --- reduce_tiling_with_trace ------------------------------------------------


def split_tiling_17() -> Tiling:
    # optimal two-rectangle tiling of SKEWED_23 with the second rectangle cut
    # at y = 2; length 17, two maximal horizontal paths
    return Tiling(
        SKEWED_23,
        (Rect(-4, -1, 0, 1), Rect(-1, 3, 0, 2), Rect(-1, 3, 2, 5)),
    )


def test_reduce_merges_the_17_to_13_example():
    t = split_tiling_17()
    assert tiling_length(t) == 17
    dec = decompose_axis_paths(build_skeleton(t))
    assert len(dec.paths_h) == 2 and len(dec.paths_v) == 1

    reduced, steps = reduce_tiling_with_trace(t)
    assert reduced == build_optimal(SKEWED_23)
    assert tiling_length(reduced) == 13
    assert len(steps) == 1

    step = steps[0]
    assert step.axis is Orientation.H
    assert step.s1 == () and step.s2 == (1,) and step.s3 == (2,)
    assert not step.mirrored
    assert step.shrink == 2
    assert step.eliminated == (1,)
    assert (step.length_before, step.length_after) == (17, 13)
    # eliminated rectangle had width 4, |s2| = |s3|, so the shift removes
    # exactly that width: 17 - 4 - 2*(1 - 1) = 13
    eliminated_width = t.rects[1].width
    bound = step.length_before - eliminated_width - step.shrink * (len(step.s2) - len(step.s3))
    assert step.length_after <= bound
    assert bound == 13


def test_reduce_keeps_already_reduced_tiling():
    t = build_optimal(SKEWED_23)
    reduced, steps = reduce_tiling_with_trace(t)
    assert reduced == t
    assert steps == ()


def test_reduce_tiling_returns_the_traced_result():
    t = split_tiling_17()
    assert reduce_tiling_with_trace(t)[0] == build_optimal(SKEWED_23)


def test_reduce_rejects_axis_cycles():
    with pytest.raises(CycleExistsError):
        reduce_tiling_with_trace(build_one_rect(SKEWED_23, Axis.X))
    with pytest.raises(CycleExistsError):
        reduce_tiling_with_trace(Tiling(UNIT, (Rect(0, 1, 0, 1),)))


def step_cycle_tiling() -> Tiling:
    """Cycle-free (3 H paths, 2 V paths), but the first merge closes an H line."""
    return tiling_from_json_dict(
        {
            "basis": [["-13", "-2"], ["3", "1"]],
            "rects": [
                ["-1", "7/5", "0", "24/25"],
                ["-1", "7/5", "24/25", "6/5"],
                ["7/5", "2", "0", "6/5"],
                ["-1", "2", "6/5", "2"],
                ["2", "3", "0", "1/5"],
                ["2", "3", "1/5", "1"],
            ],
        }
    )


def test_reduce_names_the_step_that_creates_an_axis_cycle():
    t = step_cycle_tiling()
    d = decompose_axis_paths(build_skeleton(t))
    assert d.cycles_h == () and d.cycles_v == ()
    with pytest.raises(CycleExistsError, match="after step 1"):
        reduce_tiling_with_trace(t)


def test_reduce_rejects_invalid_tiling():
    with pytest.raises(InvalidTilingError):
        reduce_tiling_with_trace(Tiling(UNIT, (Rect(0, 2, 0, 1),)))


def test_reduce_monotone_on_random_split_tilings():
    rng = random.Random(46)
    reduced_count = 0
    for _ in range(60):
        basis = random_int_basis(rng, bound=12)
        rep = min_length(basis)
        t = random_split_tiling(rng, build_optimal(basis, rep))
        assert tiling_length(t) >= rep.min_length
        dec = decompose_axis_paths(build_skeleton(t))
        if dec.cycles_h or dec.cycles_v:
            continue
        reduced, steps = reduce_tiling_with_trace(t)
        assert verify_tiling(reduced).valid
        assert tiling_length(reduced) <= tiling_length(t)
        assert tiling_length(reduced) >= rep.min_length
        dec2 = decompose_axis_paths(build_skeleton(reduced))
        assert len(dec2.paths_h) == 1 and len(dec2.paths_v) == 1
        assert not dec2.cycles_h and not dec2.cycles_v
        for step in steps:
            assert step.length_after < step.length_before
        assert replay_reduction(t, steps) == reduced
        reduced_count += 1
    assert reduced_count > 20


def test_reduction_replays_on_rational_bases():
    rng = random.Random(52)
    replayed = 0
    for _ in range(60):
        basis = random_rational_basis(rng)
        t = random_split_tiling(rng, build_optimal(basis))
        dec = decompose_axis_paths(build_skeleton(t))
        if dec.cycles_h or dec.cycles_v:
            continue
        reduced, steps = reduce_tiling_with_trace(t)
        assert replay_reduction(t, steps) == reduced
        replayed += 1
    assert replayed > 20


def random_box_edit(rng, cleared, boxes):
    """One random edit of one or two boxes, as index -> new box (None deletes).

    A translation by a lattice vector, or a shared side of two adjacent boxes
    moved along, keeps the tiling valid; other translations, a side moved out
    or in, a deletion, and a grow of one box with an equal shrink of its
    neighbour's far side mostly break it.
    """
    ux, uy, vx, vy = cleared
    span = max(map(abs, cleared))

    def single(i):
        x0, x1, y0, y1 = boxes[i]
        kind = rng.choice(["lattice", "translate", "nudge", "grow", "shrink", "delete"])
        if kind == "delete":
            return None
        if kind in ("lattice", "translate", "nudge"):
            if kind == "lattice":
                z1, z2 = rng.randint(-2, 2), rng.randint(-2, 2)
                dx, dy = z1 * ux + z2 * vx, z1 * uy + z2 * vy
            elif kind == "translate":
                dx, dy = rng.randint(-span, span), rng.randint(-span, span)
            else:
                dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1)])
            return x0 + dx, x1 + dx, y0 + dy, y1 + dy
        box = [x0, x1, y0, y1]
        side = rng.randrange(4)
        outward = 1 if side % 2 else -1
        extent = box[side | 1] - box[side & 2]
        if kind == "grow":
            box[side] += outward * rng.randint(1, span)
        elif extent > 1:
            box[side] -= outward * rng.randint(1, extent - 1)
        return tuple(box)

    adjacent = [
        (a, b, axis)
        for axis in (0, 2)
        for a, box_a in enumerate(boxes)
        for b, box_b in enumerate(boxes)
        if box_a[axis + 1] == box_b[axis]
        and box_a[2 - axis : 4 - axis] == box_b[2 - axis : 4 - axis]
    ]
    if adjacent and rng.random() < 0.4:
        # Move the side shared by a (low) and b (high) from c to c_new; the
        # box that shrinks gives up its shared side or, breaking the tiling,
        # its far side.
        a, b, axis = rng.choice(adjacent)
        low, high = list(boxes[a]), list(boxes[b])
        start, c, end = low[axis], low[axis + 1], high[axis + 1]
        if rng.random() < 0.5:
            c_new = rng.choice([t for t in range(start, end + 1) if t != c])
        else:
            c_new = rng.choice([t for t in (c - 1, c + 1) if start <= t <= end])
        if rng.random() < 0.5:
            low[axis + 1] = high[axis] = c_new
        elif c_new > c:
            low[axis + 1], high[axis + 1] = c_new, end - (c_new - c)
        else:
            high[axis], low[axis] = c_new, start + (c - c_new)
        return {
            k: tuple(box) if box[axis] < box[axis + 1] else None
            for k, box in ((a, low), (b, high))
        }
    chosen = rng.sample(range(len(boxes)), min(len(boxes), rng.randint(1, 2)))
    return {i: single(i) for i in chosen}


def placed_area(placement) -> int:
    """The area of the boxes a placement holds, summed afresh."""
    return sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in placement.boxes.values())


def placed_length(placement) -> int:
    """The half-perimeters of the boxes a placement holds, summed afresh."""
    return sum(x1 - x0 + y1 - y0 for x0, x1, y0, y1 in placement.boxes.values())


def assert_placed_afresh(placement) -> None:
    """A certified placement holds each side on the line, and under the key,
    where a fresh placement certified on its boxes holds it."""
    fresh = _Placement(placement.cleared)
    assert _certify(fresh, dict(placement.boxes)) is not None
    assert placement.on_line == fresh.on_line
    assert placement.line_of == fresh.line_of


def test_step_check_agrees_with_full_verification():
    rng = random.Random(53)
    valid = balanced_invalid = emptied = cycles = step_cycles = 0
    for trial in range(300):
        if trial % 2:
            basis = random_rational_basis(rng)
        else:
            basis = random_int_basis(rng, bound=12)
        den, cleared, boxes = _clear(random_split_tiling(rng, build_optimal(basis)))
        # Either box of a pair may come first.
        rng.shuffle(boxes)
        for _ in range(4):
            edits = random_box_edit(rng, cleared, boxes)
            edited = [edits.get(k, box) for k, box in enumerate(boxes)]
            edited = [box for box in edited if box]
            full = _violations(den, cleared, edited)
            whole_placement = _Placement(cleared)
            whole = _certify(whole_placement, dict(enumerate(edited)))
            assert (whole is not None) == (not full), (edits, full)
            assert whole_placement.boxes == dict(enumerate(edited))
            assert whole_placement.area == placed_area(whole_placement)
            assert whole_placement.length == placed_length(whole_placement)
            # A whole tiling touches every line it places, and returns those
            # the recut lines close into a cycle.
            assert whole is None or whole == recut_cycles(
                whole_placement, whole_placement.on_line
            )
            if whole is not None:
                assert_placed_afresh(whole_placement)
            cycles += bool(whole)
            # A certificate refused on area places no side.
            ux, uy, vx, vy = cleared
            on_area = whole_placement.area == abs(ux * vy - uy * vx)
            assert on_area or not whole_placement.on_line
            # The reduction's incremental form, from the unedited placement.
            placement = _Placement(cleared)
            assert _certify(placement, dict(enumerate(boxes))) is not None
            assert placement.area == placed_area(placement)
            assert placement.length == placed_length(placement)
            before = {line: dict(sides) for line, sides in placement.on_line.items()}
            step = _certify(placement, edits)
            assert (step is not None) == (not full), (edits, full)
            # The kept area and length follow the edits, also when they are
            # refused.
            assert placement.area == placed_area(placement)
            assert placement.length == placed_length(placement)
            # No line is left without a side: a line whose last side an edit
            # removed is no longer placed.  The step returns exactly the
            # lines whose sides changed, that still hold one and that the
            # recut lines close into a cycle.
            after = placement.on_line
            assert all(after.values())
            changed = {
                line
                for line in before.keys() | after.keys()
                if before.get(line) != after.get(line)
            }
            emptied += bool(changed - after.keys())
            assert step is None or step == recut_cycles(
                placement, changed & after.keys()
            )
            if step is not None:
                assert_placed_afresh(placement)
            step_cycles += bool(step)
            valid += not full
            balanced_invalid += bool(full) and all(
                v.kind is not ViolationKind.COVERAGE for v in full
            )
    assert valid > 150 and balanced_invalid > 150 and emptied > 100
    assert cycles > 100 and step_cycles > 50


# The seeds in use find one on the first draw at 16 and 32 rectangles and on
# the third at 64.
CYCLE_FREE_DRAWS = 50


def cycle_free_split_tiling(seed: int, count: int) -> Tiling:
    """A split tiling of count rectangles that reduces without meeting a cycle.

    Fails after CYCLE_FREE_DRAWS bases, so that a reduction that wrongly
    finds a cycle everywhere fails the caller instead of hanging it."""
    rng = random.Random(seed)
    for _ in range(CYCLE_FREE_DRAWS):
        basis = random_int_basis(rng, bound=20)
        rep = min_length(basis)
        if rep.winner is not Winner.TWO_RECT:
            continue
        t = build_optimal(basis, rep)
        while len(t.rects) < count:
            t = random_split_tiling(rng, t, max_splits=1)
        try:
            reduce_tiling_with_trace(t)
        except CycleExistsError:
            continue
        return t
    pytest.fail(
        f"seed {seed}: no cycle-free split tiling of {count} rectangles "
        f"in {CYCLE_FREE_DRAWS} draws"
    )


# Rechecking every step in full made 3309 box queries on the 32-rectangle
# tiling and 29369 on the 64-rectangle one (15 and 42 steps).
@pytest.mark.parametrize("count, full_recheck", [(32, 3309), (64, 29369)])
def test_reduction_scans_only_pairs_a_step_can_change(monkeypatch, count, full_recheck):
    t = cycle_free_split_tiling(count, count)
    calls = 0
    box_points = skeleton.box_points

    def counting(*args):
        nonlocal calls
        calls += 1
        return box_points(*args)

    monkeypatch.setattr(skeleton, "box_points", counting)
    reduced, steps = reduce_tiling_with_trace(t)
    assert calls < full_recheck / 3
    assert replay_reduction(t, steps) == reduced


def recut_runs(placement: _Placement) -> dict:
    """Each line's runs (start, length) read off ``recut_lines``' arcs; [] for
    a cycle."""
    lines, _ = recut_lines(placement.on_line, placement_periods(placement))
    return {
        line_id: []
        if all(line.covered)
        else [
            (line.cuts[run[0]], sum(line.arc_length(i) for i in run))
            for run in line.runs()
        ]
        for line_id, line in lines.items()
    }


@pytest.mark.parametrize("kind", ["integer", "rational"])
def test_endpoint_chain_runs_match_the_recut_lines(monkeypatch, kind):
    rng = random.Random(54 if kind == "integer" else 55)
    certify = skeleton._certify
    certified = 0

    def checking(placement, edits):
        # The input's certificate and each step's.
        nonlocal certified
        cycle_lines = certify(placement, edits)
        if cycle_lines is not None:
            for line_id, runs in recut_runs(placement).items():
                # A cycle by bottom length exactly where the oracle finds one.
                cycle = certificate._cancels(placement, [line_id]) == [line_id]
                assert cycle == (runs == [])
                assert cycle or line_id not in cycle_lines
                # Each chain of bottom sides is a run, from its head to the end
                # of its last side; a cycle is one chain, from the least
                # start, that closes the line.
                period = placement.forms[line_id[0]][1]
                bottoms = certificate._bottoms(placement.on_line[line_id])
                chains = [
                    (chain[0], (chain[-1] + bottoms[chain[-1]] - chain[0]) % period)
                    for chain in certificate._chains(bottoms, period)
                ]
                assert chains == ([(min(bottoms), 0)] if cycle else runs)
            certified += 1
        return cycle_lines

    monkeypatch.setattr(skeleton, "_certify", checking)
    reduced = cycles = steps = 0
    for _ in range(60):
        if kind == "integer":
            basis = random_int_basis(rng, bound=12)
        else:
            basis = random_rational_basis(rng)
        t = random_split_tiling(rng, build_optimal(basis))
        try:
            _, trace = reduce_tiling_with_trace(t)
        except CycleExistsError:
            cycles += 1
            continue
        reduced += 1
        steps += len(trace)
    assert certified >= reduced + cycles + steps
    assert reduced > 20 and cycles > 15 and steps > 60
    # A top side alone cannot cancel.
    placement = _Placement((1, 0, 0, 1))
    placement.on_line[("h", 0)] = {(0, 1): (0, 1)}
    assert certificate._cancels(placement, [("h", 0)]) is None


def recut_cycles(placement: _Placement, line_ids) -> list:
    """The lines among line_ids that ``recut_runs`` closes into a cycle, sorted."""
    runs = recut_runs(placement)
    return sorted(line_id for line_id in line_ids if runs[line_id] == [])


def recut_target(placement: _Placement):
    """The next step's (axis, line key, path start) read off ``recut_runs``:
    the first axis, h then v, whose lines hold two runs or more, its least
    line and that line's run of least start.  "cycle" when a line closes into
    a cycle, and None when no axis holds two runs."""
    runs = recut_runs(placement)
    if [] in runs.values():
        return "cycle"
    for orientation in "hv":
        lines = sorted(line_id for line_id in runs if line_id[0] == orientation)
        if sum(len(runs[line_id]) for line_id in lines) > 1:
            return orientation, lines[0][1], min(runs[lines[0]])[0]
    return None


@pytest.mark.parametrize("kind", ["integer", "rational", "cycle-free"])
def test_reduction_targets_the_run_the_recut_lines_choose(monkeypatch, kind):
    certify = skeleton._certify
    targets = []

    def recording(placement, edits):
        # The target after the input's certificate and after each step's.
        cycle_lines = certify(placement, edits)
        if cycle_lines is not None:
            targets.append(recut_target(placement))
        return cycle_lines

    monkeypatch.setattr(skeleton, "_certify", recording)
    if kind == "cycle-free":
        tilings = [cycle_free_split_tiling(count, count) for count in (32, 64)]
    else:
        rng = random.Random(56 if kind == "integer" else 57)
        tilings = [
            random_split_tiling(
                rng,
                build_optimal(
                    random_int_basis(rng, bound=12)
                    if kind == "integer"
                    else random_rational_basis(rng)
                ),
            )
            for _ in range(60)
        ]
        tilings.append(step_cycle_tiling())
    reduced = cycles = after_steps = 0
    chosen = []
    for t in tilings:
        den = _clear(t)[0]
        targets.clear()
        try:
            _, steps = reduce_tiling_with_trace(t)
        except CycleExistsError as error:
            # The reduction stops at the first state the oracle finds a cycle in.
            assert targets[-1] == "cycle"
            assert None not in targets and targets.count("cycle") == 1
            after = len(targets) - 1
            assert ("after step" in str(error)) == bool(after)
            assert not after or f"after step {after}:" in str(error)
            cycles += 1
            after_steps += bool(after)
            continue
        # And it stops exactly where no axis holds two runs.
        assert targets[-1] is None
        assert targets[:-1] == [
            (s.axis.value, s.line_key * den, s.path_start * den) for s in steps
        ]
        chosen += targets[:-1]
        reduced += 1
    # Both axes, lines past the first and runs past position 0 are chosen.
    assert {axis for axis, _, _ in chosen} == {"h", "v"}
    assert any(key for _, key, _ in chosen) and any(start for _, _, start in chosen)
    if kind == "cycle-free":
        assert reduced == 2 and len(chosen) > 50
    else:
        assert reduced > 20 and cycles > 15 and len(chosen) > 60 and after_steps


def test_only_the_skeleton_cuts_lines_into_arcs(monkeypatch):
    calls = 0
    cuts = certificate._cuts

    def counting(*args):
        nonlocal calls
        calls += 1
        return cuts(*args)

    monkeypatch.setattr(skeleton, "_cuts", counting)
    monkeypatch.setattr(certificate, "_cuts", counting)
    t = cycle_free_split_tiling(16, 16)
    assert verify_tiling(t).valid
    reduced, steps = reduce_tiling_with_trace(t)
    assert steps and verify_tiling(reduced).valid
    assert not verify_tiling(Tiling(UNIT, (Rect(0, 1, 0, Fraction(1, 2)),) * 2)).valid
    with pytest.raises(CycleExistsError):
        reduce_tiling_with_trace(build_one_rect(SKEWED_23, Axis.X))
    with pytest.raises(InvalidTilingError):
        reduce_tiling_with_trace(Tiling(UNIT, (Rect(0, 2, 0, 1),)))
    assert calls == 0
    build_skeleton(t)
    assert calls == len(skeleton._clear_valid(t)[1].on_line) > 2


@pytest.mark.parametrize("count", [32, 64])
def test_valid_tilings_are_certified_without_a_pair_scan(monkeypatch, count):
    t = cycle_free_split_tiling(count, count)
    calls = 0
    box_points = skeleton.box_points

    def counting(*args):
        nonlocal calls
        calls += 1
        return box_points(*args)

    monkeypatch.setattr(skeleton, "box_points", counting)
    assert verify_tiling(t).valid
    build_skeleton(t)
    assert calls == 0
    reduced, _ = reduce_tiling_with_trace(t)
    # Only the reduced tiling is scanned: one query per pair of its
    # rectangles, each rectangle with itself included.
    n = len(reduced.rects)
    assert n <= 2 and calls == n * (n + 1) // 2


def square_grid(k: int, side: Fraction) -> Tiling:
    """The k x k squares of this side that tile the torus over (k*side, 0),
    (0, k*side)."""
    basis = LatticeBasis(Vec2(k * side, 0), Vec2(0, k * side))
    return Tiling(
        basis,
        tuple(
            Rect(i * side, (i + 1) * side, j * side, (j + 1) * side)
            for i in range(k)
            for j in range(k)
        ),
    )


@pytest.mark.parametrize("side", [Fraction(1), Fraction(2, 3)])
def test_memory_per_rectangle_is_pinned(side):
    # tracemalloc's peak per rectangle, on 2304 squares.  Python 3.10-3.13
    # read 1,111 B for verify_tiling and 1,885-2,306 B for build_skeleton
    # (the most on 3.10); each bound is about 15% above the largest reading.
    k = 48
    t = square_grid(k, side)
    for call, bound in ((verify_tiling, 1280), (build_skeleton, 2650)):
        tracemalloc.start()
        try:
            call(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / k**2 < bound, call.__name__


def test_lower_bound_with_equality_only_unsplit():
    rng = random.Random(47)
    for _ in range(60):
        basis = random_int_basis(rng, bound=12)
        rep = min_length(basis)
        base = build_optimal(basis, rep)
        assert tiling_length(base) == rep.min_length
        split = random_split_tiling(rng, base)
        assert verify_tiling(split).valid
        assert tiling_length(split) > rep.min_length
