"""Torus-side machinery: canonical quotient points, full tiling verification,
skeleton graphs, axis path decomposition, and the path-merging reduction.

Points on the torus are identified by a canonical representative inside the
fundamental parallelogram.  Horizontal torus lines form a circle family with
spacing g_y = cov/d_x and circumference d_x (vertical lines symmetrically).

Internally a tiling has one integer form (den, cleared, boxes), made by one
``clear_denominators`` call: the basis (ux, uy, vx, vy) and each rectangle as
a box (x0, x1, y0, y1), all integers over den.  Verification, placement,
canonical points and the reduction's shifts run on it; only emitted values
become fractions.  Each line family is read off the integer Hermite form
{a*(d_x, 0) + b*(shear, g_y)} of the cleared lattice (``lattice.axis_form``),
so locating a point on its line is one divmod and one remainder.  One
placement (``_Placement``) maps axis segments (rectangle sides or skeleton
edges) onto lines cut at the segment endpoints; the skeleton's edges, its
cycle/path decomposition and the reduction's choice of path are all read off
those lines' covered arcs and runs.

Validity is certified by a degree argument (``_certify``).  Let f count the
rectangles over each torus point.  Crossing a horizontal line upward, f
gains the bottom sides over the crossing point and loses the top sides over
it; vertical lines likewise with left and right sides.  So f is constant
exactly when, on every line, each arc has as many bottom (left) as top
(right) sides over it, and the area sum, the integral of f, then fixes the
constant: f = 1 exactly when the areas sum to the covolume.  Placing the n
rectangles' sides takes O(n log n) for a tiling that passes; only a tiling
that fails pays the O(n^2) scan of open difference boxes with
``lattice.box_points`` (``_violations``) that writes its report.  The
certificate's placement is the one the skeleton and the reduction read.

The reduction certifies its input and then each step incrementally
(``_recertify``): the previous tiling cancelled on every line, so a step
needs only to keep the area sum and cancel on the lines its shifted sides
leave or join, which are the only lines it places and cuts again.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .exact_math import Vec2, clear_denominators
from .lattice import LatticeBasis, axis_form, box_points
from .tiling import Rect, Tiling

_Ints = tuple[int, int, int, int]  # a cleared basis or box


class InvalidTilingError(ValueError):
    """Operation requires a verified tiling."""


class CycleExistsError(ValueError):
    """An axis cycle makes the path-merging reduction inapplicable."""


class ReductionStepInvalidError(RuntimeError):
    """A rebuilt tiling failed verification or did not shrink; never ignored."""


class Orientation(Enum):
    H = "h"
    V = "v"


@dataclass(frozen=True)
class TorusPoint:
    """Canonical representative of a torus point (fractional basis coords in [0, 1))."""

    rep: Vec2


def _point(den: int, x: int, y: int) -> TorusPoint:
    return TorusPoint(Vec2(Fraction(x, den), Fraction(y, den)))


def _canonical(cleared: _Ints, x: int, y: int) -> tuple[int, int]:
    # The point's basis coordinates are n1/det and n2/det; subtracting their
    # floors times u and v leaves the fractional parts.  // floors for either
    # sign of det.
    ux, uy, vx, vy = cleared
    det = ux * vy - uy * vx
    f1 = (x * vy - y * vx) // det
    f2 = (ux * y - uy * x) // det
    return x - f1 * ux - f2 * vx, y - f1 * uy - f2 * vy


def canonicalize(basis: LatticeBasis, point: Vec2) -> TorusPoint:
    """Quotient map: two planar points give equal TorusPoints iff their
    difference is a lattice point."""
    den, (*cleared, x, y) = clear_denominators(*basis.entries, point.x, point.y)
    return _point(den, *_canonical(cleared, x, y))


class ViolationKind(Enum):
    INJECTIVITY = "injectivity"
    OVERLAP = "overlap"
    COVERAGE = "coverage"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"kind": v.kind.value, "detail": v.detail} for v in self.violations
            ],
        }


def _clear(tiling: Tiling) -> tuple[int, _Ints, list[_Ints]]:
    """The integer form (den, cleared, boxes) of a tiling."""
    den, ints = clear_denominators(
        *tiling.basis.entries,
        *(c for r in tiling.rects for c in (r.x0, r.x1, r.y0, r.y1)),
    )
    return den, ints[:4], [ints[k : k + 4] for k in range(4, len(ints), 4)]


def verify_tiling(tiling: Tiling) -> VerificationReport:
    """Decide the three tiling conditions exactly.

    Injectivity of the quotient on each open rectangle fails iff a nonzero
    lattice point sits in the open box (-w, w) x (-h, h); two interiors meet
    on the torus iff a lattice point sits in their open difference box; and
    given those, coverage is equivalent to the areas summing to the covolume.

    A valid tiling is recognised by the boundary-cancellation certificate
    (``_certify``: area sum, no side longer than its line, every arc of every
    line cancelling) in O(n log n) for n rectangles, with no pair scan; only
    a tiling it refuses is scanned pair by pair, in O(n^2) box queries, for
    the report.
    """
    den, cleared, boxes = _clear(tiling)
    if _certify(cleared, boxes) is not None:
        return VerificationReport(valid=True, violations=())
    violations = _refuted(den, cleared, boxes)
    return VerificationReport(valid=False, violations=tuple(violations))


def _violations(den: int, cleared: _Ints, boxes: list[_Ints]) -> list[Violation]:
    """``verify_tiling``'s violations of a tiling in integer form.  Each open
    box is a ``box_points`` scan with its bounds moved in by 1; the least hit
    is reported.  The box of a rectangle with itself is its injectivity box,
    which always holds 0.
    """
    injectivity, overlap = [], []
    for i, (ix0, ix1, iy0, iy1) in enumerate(boxes):
        for j in range(i, len(boxes)):
            jx0, jx1, jy0, jy1 = boxes[j]
            hits = box_points(
                cleared, jx0 - ix1 + 1, jx1 - ix0 - 1, jy0 - iy1 + 1, jy1 - iy0 - 1
            )
            if i == j:
                hits = (p for p in hits if p != (0, 0))
            first = min(hits, default=None)
            if first is None:
                continue
            lam = Vec2(Fraction(first[0], den), Fraction(first[1], den))
            if i == j:
                text = (
                    f"rect {i}: lattice point {lam} is shorter than the "
                    "rectangle in both axes"
                )
                injectivity.append(Violation(ViolationKind.INJECTIVITY, text))
            else:
                text = f"rects {i} and {j}: interiors meet under lattice shift {lam}"
                overlap.append(Violation(ViolationKind.OVERLAP, text))
    violations = injectivity + overlap
    ux, uy, vx, vy = cleared
    area = Fraction(sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in boxes), den * den)
    covolume = Fraction(abs(ux * vy - uy * vx), den * den)
    if area != covolume:
        text = f"rectangle areas sum to {area}, torus area is {covolume}"
        violations.append(Violation(ViolationKind.COVERAGE, text))
    return violations


def _violation_text(violations: list[Violation]) -> str:
    return "; ".join(f"{v.kind.value}: {v.detail}" for v in violations)


@dataclass(frozen=True)
class SkeletonEdge:
    """Atomic axis-aligned segment: starts at a vertex, runs in +x (H) or +y (V)."""

    origin: TorusPoint
    orientation: Orientation
    length: Fraction


@dataclass(frozen=True)
class Skeleton:
    basis: LatticeBasis
    vertices: tuple[TorusPoint, ...]
    edges: tuple[SkeletonEdge, ...]

    @property
    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges), Fraction(0))


# ---------------------------------------------------------------------------
# Torus lines shared by skeleton construction, decomposition and reduction


@dataclass
class _Line:
    """One torus line: sorted cut positions and which arcs between them are covered.

    Arc i runs from cuts[i] to the next cut around the circle.
    """

    circumference: int
    cuts: list[int]
    covered: list[bool] = field(init=False)

    def __post_init__(self):
        self.covered = [False] * len(self.cuts)

    def arc_length(self, i: int) -> int:
        m = len(self.cuts)
        if m == 1:
            return self.circumference
        j = (i + 1) % m
        if j:
            return self.cuts[j] - self.cuts[i]
        return self.circumference - self.cuts[-1] + self.cuts[0]

    def runs(self) -> list[list[int]]:
        """Maximal runs of consecutive covered arcs.

        A fully covered line is one run (a cycle) starting at cut 0; otherwise
        the runs (paths) come ordered by their first cut.
        """
        m = len(self.covered)
        if all(self.covered):
            return [list(range(m))]
        runs = []
        for i in range(m):
            if self.covered[i] and not self.covered[i - 1]:
                run = [i]
                j = (i + 1) % m
                while self.covered[j]:
                    run.append(j)
                    j = (j + 1) % m
                runs.append(run)
        return runs


_LineId = tuple[str, int]  # (orientation value, line key)


class _Placement:
    """Axis segments, each under its own key, mapped onto torus lines.

    A segment (orientation, x, y, length) runs from (x, y) in +x ("h") or
    +y ("v").  Each line is cut at the endpoints of the segments on it, and a
    segment covers the arcs from its start cut up to its end cut.  ``put`` and
    ``drop`` change segments; ``recut`` rebuilds only the lines they touched,
    so a caller that moves a few segments pays for the lines those segments
    leave or join.  Lines are held by (orientation, line key), the line key
    being the offset across the line modulo the spacing; segment values, line
    keys, cuts and arc lengths are integers over the denominator of the
    cleared basis.
    """

    def __init__(self, cleared: _Ints):
        ux, uy, vx, vy = cleared
        # The Hermite form (spacing, period, shear) of each line family.
        self.forms = {"h": axis_form(ux, vx, uy, vy), "v": axis_form(uy, vy, ux, vx)}
        self.on_line: dict[_LineId, dict] = {}  # line -> {key: (start, length)}
        self.line_of: dict = {}
        self.arcs: dict = {}  # key -> the arcs its segment covers
        self.lines: dict[_LineId, _Line] = {}
        self.touched: set[_LineId] = set()

    def put(self, key, orientation: str, x: int, y: int, length: int) -> None:
        along, offset = (x, y) if orientation == "h" else (y, x)
        spacing, period, shear = self.forms[orientation]
        # The lattice vector steps*(shear, spacing) moves the segment onto
        # the line of line_key in [0, spacing).
        steps, line_key = divmod(offset, spacing)
        line_id = (orientation, line_key)
        segment = ((along - steps * shear) % period, length)
        if key in self.line_of:
            if self.line_of[key] == line_id and self.on_line[line_id][key] == segment:
                return
            self.drop(key)
        self.on_line.setdefault(line_id, {})[key] = segment
        self.line_of[key] = line_id
        self.touched.add(line_id)

    def drop(self, key) -> None:
        line_id = self.line_of.pop(key)
        del self.on_line[line_id][key]
        self.arcs.pop(key, None)
        self.touched.add(line_id)

    def recut(self) -> list[_LineId]:
        """Rebuild the lines touched since the last call and return their ids,
        sorted; a line left without segments is removed."""
        touched = sorted(self.touched)
        self.touched.clear()
        for line_id in touched:
            segments = self.on_line[line_id]
            if not segments:
                del self.on_line[line_id]
                self.lines.pop(line_id, None)
                continue
            period = self.forms[line_id[0]][1]
            ends = {(start + n) % period for start, n in segments.values()}
            cuts = sorted(ends.union(start for start, _ in segments.values()))
            line = self.lines[line_id] = _Line(period, cuts)
            index = {c: i for i, c in enumerate(line.cuts)}
            for key, (start, remaining) in segments.items():
                i = index[start]
                arcs = []
                while remaining > 0:
                    arcs.append(i)
                    line.covered[i] = True
                    remaining -= line.arc_length(i)
                    i = (i + 1) % len(line.cuts)
                self.arcs[key] = tuple(arcs)
        return touched


def _sides(box: _Ints):
    # Bottom, top, left and right side of a box, as segments.
    x0, x1, y0, y1 = box
    yield "h", x0, y0, x1 - x0
    yield "h", x0, y1, x1 - x0
    yield "v", x0, y0, y1 - y0
    yield "v", x1, y0, y1 - y0


def _area(box: _Ints) -> int:
    x0, x1, y0, y1 = box
    return (x1 - x0) * (y1 - y0)


def _put_sides(placement: _Placement, box_id: int, box: _Ints) -> None:
    for side, segment in enumerate(_sides(box)):
        placement.put((box_id, side), *segment)


def _cancels(placement: _Placement, line_ids: Iterable[_LineId]) -> bool:
    """Whether each arc of these lines has as many bottom (left) sides over
    it as top (right) sides, with sides keyed (box id, index in ``_sides``)."""
    for line_id in line_ids:
        line = placement.lines.get(line_id)
        if line is None:
            continue
        count = [0] * len(line.cuts)
        for key in placement.on_line[line_id]:
            sign = -1 if key[1] % 2 else 1  # top and right sides are odd
            for i in placement.arcs[key]:
                count[i] += sign
        if any(count):
            return False
    return True


def _certify(cleared: _Ints, boxes: list[_Ints]) -> _Placement | None:
    """The placement of the boxes' sides, keyed (box index, index in
    ``_sides``), when the boxes tile the torus; None when they do not.

    Exactly when ``_violations`` is empty, by the degree argument of the
    module docstring.  A side longer than its line's circumference, the
    period of its family, cannot occur in a tiling (its rectangle would meet
    its own translate by the period), and is refused before anything is
    placed: placing it would list one arc per turn around the line.  A
    tiling that passes costs O(n log n) for n boxes: each arc then lies under
    at most one bottom and one top side, so the sides cover O(n) arcs.
    """
    ux, uy, vx, vy = cleared
    if sum(map(_area, boxes)) != abs(ux * vy - uy * vx):
        return None
    placement = _Placement(cleared)
    width, height = placement.forms["h"][1], placement.forms["v"][1]
    if any(x1 - x0 > width or y1 - y0 > height for x0, x1, y0, y1 in boxes):
        return None
    for box_id, box in enumerate(boxes):
        _put_sides(placement, box_id, box)
    return placement if _cancels(placement, placement.recut()) else None


def _recertify(
    placement: _Placement,
    ids: list[int],
    boxes: list[_Ints],
    edits: dict[int, _Ints | None],
) -> list[_LineId] | None:
    """Move the sides of the edited boxes (index -> new box, or None to drop
    the box) in ``placement``, where box index k has id ``ids[k]``.  Returns
    the lines cut again, or None when the edited boxes do not tile the torus.

    Exact given that ``boxes`` tile: every line no edit touched still
    cancels, so the certificate needs only the area change to be 0 and the
    touched lines to cancel.  A side that wraps its line is counted once per
    turn, which keeps the count exact; a reduction step grows a box by at
    most the extent of another, so its sides wrap at most twice.  After None
    the placement is of no use.
    """
    old_area = sum(_area(boxes[k]) for k in edits)
    if sum(_area(box) for box in edits.values() if box) != old_area:
        return None
    for k, box in edits.items():
        if box:
            _put_sides(placement, ids[k], box)
        else:
            for side in range(4):
                placement.drop((ids[k], side))
    touched = placement.recut()
    return touched if _cancels(placement, touched) else None


def _refuted(den: int, cleared: _Ints, boxes: list[_Ints]) -> list[Violation]:
    # The report on boxes the certificate refused, which must hold a violation.
    violations = _violations(den, cleared, boxes)
    if not violations:
        raise RuntimeError("boundary cancellation refused a tiling that verifies")
    return violations


def _clear_valid(tiling: Tiling) -> tuple[int, _Ints, list[_Ints], _Placement]:
    # The integer form of a tiling that must verify, and its sides' placement.
    den, cleared, boxes = _clear(tiling)
    placement = _certify(cleared, boxes)
    if placement is None:
        raise InvalidTilingError(_violation_text(_refuted(den, cleared, boxes)))
    return den, cleared, boxes, placement


def build_skeleton(tiling: Tiling) -> Skeleton:
    """Graph of corner images and subdivided side images on the torus.

    Each rectangle side is split at every vertex lying on its line, and
    coinciding pieces from adjacent rectangles merge into one atomic edge.
    The total edge length equals the tiling length.
    """
    den, cleared, _, placement = _clear_valid(tiling)
    lines = placement.lines
    # Every cut is a corner image, and every corner lies on one H line.
    vertices = set()
    edges = []
    for (orientation, key), line in lines.items():
        for i, cut in enumerate(line.cuts):
            x, y = (cut, key) if orientation == "h" else (key, cut)
            w = _canonical(cleared, x, y)
            if orientation == "h":
                vertices.add(w)
            if line.covered[i]:
                edges.append((orientation, w, line.arc_length(i)))
    edges.sort()
    return Skeleton(
        tiling.basis,
        tuple(_point(den, *w) for w in sorted(vertices)),
        tuple(
            SkeletonEdge(_point(den, *w), Orientation(axis), Fraction(length, den))
            for axis, w, length in edges
        ),
    )


@dataclass(frozen=True)
class AxisPathDecomposition:
    """Partition of skeleton edges into axis cycles and maximal axis paths."""

    cycles_h: tuple[tuple[SkeletonEdge, ...], ...]
    paths_h: tuple[tuple[SkeletonEdge, ...], ...]
    cycles_v: tuple[tuple[SkeletonEdge, ...], ...]
    paths_v: tuple[tuple[SkeletonEdge, ...], ...]


def decompose_axis_paths(skeleton: Skeleton) -> AxisPathDecomposition:
    """Place each edge on its torus line and read off the covered runs.

    A line whose covered arcs close the full circle is a cycle (its length is
    then the axis period); otherwise each maximal run of consecutive arcs is
    one maximal path.  Raises ValueError when an edge is not exactly one arc
    of its line, or two edges cover the same arc (a hand-built skeleton).  An
    edge longer than its line's circumference is refused before it is placed,
    which would list one arc per turn around the line.
    """
    edges = skeleton.edges
    _, ints = clear_denominators(
        *skeleton.basis.entries,
        *(c for e in edges for c in (e.origin.rep.x, e.origin.rep.y, e.length)),
    )
    placement = _Placement(ints[:4])
    for k, edge in enumerate(edges):
        orientation = edge.orientation.value
        x, y, length = ints[4 + 3 * k : 7 + 3 * k]
        if length > placement.forms[orientation][1]:
            raise ValueError(f"skeleton edge {edge} is not one arc of its line")
        placement.put(k, orientation, x, y, length)
    placement.recut()
    edge_at: dict[tuple[_LineId, int], SkeletonEdge] = {}
    for k, edge in enumerate(edges):
        line_id, arcs = placement.line_of[k], placement.arcs[k]
        if len(arcs) != 1 or (line_id, arcs[0]) in edge_at:
            raise ValueError(f"skeleton edge {edge} is not one arc of its line")
        edge_at[line_id, arcs[0]] = edge

    cycles = {"h": [], "v": []}
    paths = {"h": [], "v": []}
    lines = placement.lines
    for line_id in sorted(lines):
        line = lines[line_id]
        found = cycles if all(line.covered) else paths
        for run in line.runs():
            found[line_id[0]].append(tuple(edge_at[line_id, i] for i in run))
    return AxisPathDecomposition(
        cycles_h=tuple(cycles["h"]),
        paths_h=tuple(paths["h"]),
        cycles_v=tuple(cycles["v"]),
        paths_v=tuple(paths["v"]),
    )


@dataclass(frozen=True)
class ReductionStep:
    """One application of the path-merging shift.

    Rectangle indices refer to the step's input tiling.  s1 holds rectangles
    with both axis-facing sides on the chosen path, s2 those with only the
    high side (top for H, right for V), s3 those with only the low side.
    When mirrored, the shift runs toward increasing coordinates and s3 is the
    shrinking class.
    """

    axis: Orientation
    line_key: Fraction
    path_start: Fraction
    mirrored: bool
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    s3: tuple[int, ...]
    shrink: Fraction
    eliminated: tuple[int, ...]
    length_before: Fraction
    length_after: Fraction

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis.value,
            "line": str(self.line_key),
            "path_start": str(self.path_start),
            "mirrored": self.mirrored,
            "s1": list(self.s1),
            "s2": list(self.s2),
            "s3": list(self.s3),
            "shrink": str(self.shrink),
            "eliminated": list(self.eliminated),
            "length_before": str(self.length_before),
            "length_after": str(self.length_after),
        }


def _half_perimeter(box: _Ints) -> int:
    x0, x1, y0, y1 = box
    return x1 - x0 + y1 - y0


def reduce_tiling_with_trace(
    tiling: Tiling,
) -> tuple[Tiling, tuple[ReductionStep, ...]]:
    """Repeatedly merge maximal axis paths, horizontal axis first.

    Each step classifies the rectangles incident to the chosen path, shifts
    every path-facing side by the minimum extent of the shrinking class, drops
    the rectangles that collapse, and re-verifies the result.  The output is a
    valid tiling with exactly one maximal path per axis and length at most the
    input's.

    The input is certified by boundary cancellation (``_certify``), in
    O(n log n) for n rectangles, and the reduction reads the certificate's
    placement of the sides.  Each step is then certified exactly but only
    where it can fail (``_recertify``): the area sum must stay the
    covolume, and the lines the shifted sides leave or join, the only lines
    placed and cut again, must still cancel arc by arc.  No rectangle pair is
    scanned unless a check fails: the input's or a step's failure raises
    with the full O(n^2) verification report.  The reduced tiling is verified
    pair by pair once more.

    Raises CycleExistsError when the input has an axis cycle, and also when a
    step creates one (the message then names the step), since the shift
    applies only to maximal paths.
    """
    den, cleared, boxes, placement = _clear_valid(tiling)
    length = sum(map(_half_perimeter, boxes))
    # Sides are keyed by (box id, side index); a box keeps its id while the
    # indices of the boxes after an eliminated one drop.
    ids = list(range(len(boxes)))
    runs: dict[_LineId, list[list[int]]] = {}
    run_count = {"h": 0, "v": 0}
    steps: list[ReductionStep] = []
    touched = sorted(placement.lines)
    for _ in range(len(boxes) + 2):
        # Only a line a step touched can have closed into a cycle.
        for line_id in touched:
            run_count[line_id[0]] -= len(runs.pop(line_id, ()))
            line = placement.lines.get(line_id)
            if line is None:
                continue
            if all(line.covered):
                after = f" after step {len(steps)}" if steps else ""
                raise CycleExistsError(
                    f"{line_id[0]}-cycle on line {Fraction(line_id[1], den)}"
                    f"{after}: the path-merging reduction does not apply"
                )
            runs[line_id] = line.runs()
            run_count[line_id[0]] += len(runs[line_id])

        if run_count["h"] > 1:
            orientation = "h"
        elif run_count["v"] > 1:
            orientation = "v"
        else:
            break
        # The first run of the first line, in (line key, start cut) order.
        target_line = min(line_id for line_id in runs if line_id[0] == orientation)
        target_run = runs[target_line][0]
        target_start = placement.lines[target_line].cuts[target_run[0]]
        target_arcs = set(target_run)
        # Index of the low and high side among a box's _sides, and of the
        # coordinates those sides sit at.
        lo_side, lo, hi = (0, 2, 3) if orientation == "h" else (2, 0, 1)

        # Per box with a side on the path, whether its low and its high side are.
        on: dict[int, list[bool]] = {}
        for box_id, side in placement.on_line[target_line]:
            arcs = placement.arcs[box_id, side]
            if target_arcs.isdisjoint(arcs):
                continue
            if not target_arcs.issuperset(arcs):
                raise ReductionStepInvalidError(
                    "rectangle side straddles two maximal paths"
                )
            idx = bisect_left(ids, box_id)
            on.setdefault(idx, [False, False])[side - lo_side] = True
        s1 = tuple(sorted(i for i, sides in on.items() if sides == [True, True]))
        s2 = tuple(sorted(i for i, sides in on.items() if sides == [False, True]))
        s3 = tuple(sorted(i for i, sides in on.items() if sides == [True, False]))

        mirrored = len(s2) < len(s3)
        working = s3 if mirrored else s2
        if not working:
            raise ReductionStepInvalidError(
                "several maximal paths but no shiftable rectangle on the chosen one"
            )
        shrink = min(boxes[i][hi] - boxes[i][lo] for i in working)
        shift = shrink if mirrored else -shrink

        edits: dict[int, _Ints | None] = {}
        for idx, (lo_on, hi_on) in on.items():
            box = list(boxes[idx])
            if lo_on:
                box[lo] += shift
            if hi_on:
                box[hi] += shift
            edits[idx] = None if box[lo] == box[hi] else tuple(box)
        eliminated = tuple(sorted(i for i, box in edits.items() if box is None))

        if not eliminated:
            raise ReductionStepInvalidError("shift eliminated no rectangle")
        new_boxes = [edits.get(i, box) for i, box in enumerate(boxes)]
        touched = _recertify(placement, ids, boxes, edits)
        if touched is None:
            violations = _refuted(den, cleared, [b for b in new_boxes if b])
            raise ReductionStepInvalidError(
                "rebuilt tiling is invalid: " + _violation_text(violations)
            )
        new_length = length + sum(
            (_half_perimeter(new) if new else 0) - _half_perimeter(boxes[i])
            for i, new in edits.items()
        )
        if not new_length < length:
            raise ReductionStepInvalidError("reduction step did not shorten the tiling")
        steps.append(
            ReductionStep(
                axis=Orientation(orientation),
                line_key=Fraction(target_line[1], den),
                path_start=Fraction(target_start, den),
                mirrored=mirrored,
                s1=s1,
                s2=s2,
                s3=s3,
                shrink=Fraction(shrink, den),
                eliminated=eliminated,
                length_before=Fraction(length, den),
                length_after=Fraction(new_length, den),
            )
        )
        ids = [box_id for box_id, box in zip(ids, new_boxes) if box]
        boxes = [box for box in new_boxes if box]
        length = new_length
    else:
        raise ReductionStepInvalidError("reduction did not terminate")
    violations = _violations(den, cleared, boxes)
    if violations:
        raise ReductionStepInvalidError(
            "reduced tiling is invalid: " + _violation_text(violations)
        )
    rects = (Rect(*(Fraction(c, den) for c in box)) for box in boxes)
    return Tiling(tiling.basis, tuple(rects)), tuple(steps)
