"""The theorem on small tori: no tiling is shorter than ``min_length``.

For an integer basis the torus Z^2/L is a finite set of cov unit cells, and
every tiling whose corners lie on the integer grid is an exact cover of those
cells by rectangles.  A branch-and-bound search over such covers finds the
least length among them with no code under test.  It checks only tilings
whose corners lie on the integer grid; running it on the scaled lattice qL
checks the tilings of R^2/L with corners on the 1/q grid.

The covers are also inputs the other checks never draw: tilings with axis
cycles that are not splits of an optimal tiling, for the skeleton and the
reduction, and, with one rectangle shifted by a cell or dropped, invalid
tilings whose verdict the cell masks decide.
"""

import random

from torus_rect_tiler import (
    CycleExistsError,
    LatticeBasis,
    Rect,
    Skeleton,
    Tiling,
    Vec2,
    build_skeleton,
    decompose_axis_paths,
    min_length,
    reduce_tiling_with_trace,
    tiling_length,
    verify_tiling,
)
from conftest import assert_matches_brute_decomposition

MAX_RECTS = 8


def cell_of(basis: tuple[int, int, int, int], x: int, y: int) -> tuple[int, int]:
    """The class of the integer point (x, y) modulo the lattice: its basis
    coordinates times det, taken mod det (basis coordinates mod 1)."""
    ux, uy, vx, vy = basis
    det = ux * vy - uy * vx
    return (x * vy - y * vx) % det, (ux * y - uy * x) % det


def placements(basis: tuple[int, int, int, int]) -> tuple[int, list[list[tuple]]]:
    """The cell count and, per cell, every injective w x h rectangle on an
    integer anchor that covers the cell, as (w + h, mask, x, y, w, h) sorted
    by length.  A mask is the bit set of the rectangle's cells; one mask is
    kept once, at its least length."""
    ux, uy, vx, vy = basis
    cov = abs(ux * vy - uy * vx)
    index: dict[tuple[int, int], int] = {}
    anchors = []
    # The fundamental parallelogram lies in this box and holds every class.
    reach_x, reach_y = abs(ux) + abs(vx), abs(uy) + abs(vy)
    for x in range(-reach_x, reach_x + 1):
        for y in range(-reach_y, reach_y + 1):
            cell = cell_of(basis, x, y)
            if cell not in index:
                index[cell] = len(anchors)
                anchors.append((x, y))
    if len(anchors) != cov:
        raise RuntimeError("the anchor scan missed a cell")
    best: dict[int, tuple] = {}
    for x, y in anchors:
        for w in range(1, cov + 1):
            for h in range(1, cov // w + 1):
                cells = {
                    index[cell_of(basis, x + i, y + j)] for i in range(w) for j in range(h)
                }
                if len(cells) < w * h:
                    continue
                mask = sum(1 << c for c in cells)
                if mask not in best or w + h < best[mask][0]:
                    best[mask] = (w + h, mask, x, y, w, h)
    covering: list[list[tuple]] = [[] for _ in range(cov)]
    for placement in sorted(best.values()):
        for c in range(cov):
            if placement[1] >> c & 1:
                covering[c].append(placement)
    return cov, covering


def shortest_covers(basis: tuple[int, int, int, int]) -> list[list[tuple]]:
    """Exact covers of the cells by at most MAX_RECTS rectangles, each
    strictly shorter than the last; the last one is a shortest.  Branches on
    the lowest uncovered cell and prunes a partial cover when its length plus
    2 sqrt(uncovered area), the least length of rectangles of that area,
    reaches the best length found."""
    cov, covering = placements(basis)
    full = (1 << cov) - 1
    found: list[list[tuple]] = []
    best = [2 * cov + 1]  # above any cover's length: each w + h <= 2 * w * h

    def search(covered: int, length: int, chosen: list[tuple]) -> None:
        if covered == full:
            best[0] = length
            found.append(list(chosen))
            return
        if len(chosen) == MAX_RECTS:
            return
        free = full ^ covered
        cell = (free & -free).bit_length() - 1
        for placement in covering[cell]:
            rest = best[0] - length - placement[0]
            if rest <= 0:
                break
            if placement[1] & covered:
                continue
            left = free.bit_count() - placement[5] * placement[4]
            if left and rest * rest <= 4 * left:
                continue
            chosen.append(placement)
            search(covered | placement[1], length + placement[0], chosen)
            chosen.pop()

    search(0, 0, [])
    return found


def is_exact_cover(basis: tuple[int, int, int, int], boxes: list[tuple]) -> bool:
    """Whether the unit cells of the (x, y, w, h) rectangles hit every class
    modulo the lattice, each once."""
    ux, uy, vx, vy = basis
    cells = [
        cell_of(basis, x + i, y + j) for x, y, w, h in boxes for i in range(w) for j in range(h)
    ]
    return len(cells) == len(set(cells)) == abs(ux * vy - uy * vx)


def rect(x: int, y: int, w: int, h: int) -> Rect:
    return Rect(x, x + w, y, y + h)


SHIFTS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def test_no_cover_of_a_small_torus_is_shorter_than_min_length():
    # Each cover found is also reduced, and perturbed: each rectangle in turn
    # is shifted by one cell along each axis, whose verdict must be the cell
    # masks', or dropped, which must be refused.
    rng = random.Random(58)
    bases = scaled = covers = reduced = shifted_valid = shifted_invalid = 0
    while bases < 60:
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        cov = abs(a * d - b * c)
        if not 0 < cov <= 24:
            continue
        bases += 1
        # Corners on the 1/2 and 1/3 grids while the scaled torus stays small.
        for q in (1, 2, 3):
            if q > 1 and q * q * cov > 24:
                break
            scaled += q > 1
            ints = (q * a, q * b, q * c, q * d)
            basis = LatticeBasis(Vec2(*ints[:2]), Vec2(*ints[2:]))
            least = min_length(basis).min_length
            found = shortest_covers(ints)
            assert found and sum(p[0] for p in found[-1]) == least
            for cover in found:
                length = sum(p[0] for p in cover)
                boxes = [p[2:] for p in cover]
                rects = [rect(*box) for box in boxes]
                t = Tiling(basis, tuple(rects))
                assert verify_tiling(t).valid
                sk = build_skeleton(t)
                assert sk.total_length == tiling_length(t) == length
                assert_matches_brute_decomposition(sk)
                bare = Skeleton(sk.basis, sk.vertices, sk.edges)
                assert decompose_axis_paths(bare) == decompose_axis_paths(sk)
                covers += 1
                try:
                    shorter, _ = reduce_tiling_with_trace(t)
                except CycleExistsError:
                    pass
                else:
                    assert verify_tiling(shorter).valid
                    assert least <= tiling_length(shorter) <= length
                    reduced += 1
                for k, (x, y, w, h) in enumerate(boxes):
                    for dx, dy in SHIFTS:
                        moved = (x + dx, y + dy, w, h)
                        valid = is_exact_cover(ints, boxes[:k] + [moved] + boxes[k + 1 :])
                        shifted = Tiling(basis, (*rects[:k], rect(*moved), *rects[k + 1 :]))
                        assert verify_tiling(shifted).valid == valid
                        shifted_valid += valid
                        shifted_invalid += not valid
                    if len(rects) > 1:  # a Tiling needs a rectangle
                        dropped = Tiling(basis, (*rects[:k], *rects[k + 1 :]))
                        assert not verify_tiling(dropped).valid
    assert scaled > 20 and covers > 600 and reduced > 100
    assert shifted_valid > 500 and shifted_invalid > 10000
