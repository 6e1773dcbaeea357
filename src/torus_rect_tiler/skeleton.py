"""Torus-side machinery: canonical quotient points, full tiling verification,
skeleton graphs, axis path decomposition, and the path-merging reduction.

Points on the torus are identified by a canonical representative inside the
fundamental parallelogram.  Horizontal torus lines form a circle family with
spacing g_y = cov/d_x and circumference d_x (vertical lines symmetrically).

Internally a tiling has one integer form (den, cleared, boxes), made by one
``clear_denominators`` call: the basis (ux, uy, vx, vy) and each rectangle as
a box (x0, x1, y0, y1), all integers over den.  Verification, placement,
canonical points and the reduction's shifts run on it; only emitted values
become fractions.  Verification scans open difference boxes with
``lattice.box_points``.  Each line family is read off the integer Hermite
form {a*(d_x, 0) + b*(shear, g_y)} of the cleared lattice
(``lattice.axis_form``), so locating a point on its line is one divmod and
one remainder.  One placement routine maps axis segments (rectangle sides or
skeleton edges) onto lines cut at the segment endpoints; the skeleton's
edges, its cycle/path decomposition and the reduction's choice of path are
all read off those lines' covered arcs and runs.
"""

from __future__ import annotations

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
    """
    violations = _violations(*_clear(tiling))
    return VerificationReport(valid=not violations, violations=tuple(violations))


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


def _clear_valid(tiling: Tiling) -> tuple[int, _Ints, list[_Ints]]:
    # The integer form of a tiling that must verify.
    form = _clear(tiling)
    violations = _violations(*form)
    if violations:
        raise InvalidTilingError(_violation_text(violations))
    return form


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


_LineId = tuple[Orientation, int]


def _place(
    cleared: _Ints, segments: Iterable[tuple[Orientation, int, int, int]]
) -> tuple[dict[_LineId, _Line], list[tuple[_LineId, tuple[int, ...]]]]:
    """Map axis segments (orientation, x, y, length), running from (x, y) in
    +x (H) or +y (V), onto torus lines.

    Each line is cut at the endpoints of the segments on it; the result holds
    the lines by (orientation, key) and, per segment in input order, its line
    and the arcs it covers.  Segment values, keys (offsets across the line
    modulo the spacing), cuts and arc lengths are integers over the
    denominator of the cleared basis.
    """
    ux, uy, vx, vy = cleared
    forms = {
        Orientation.H: axis_form(ux, vx, uy, vy),
        Orientation.V: axis_form(uy, vy, ux, vx),
    }
    cut_sets: dict[_LineId, set[int]] = {}
    located = []
    for orientation, x, y, length in segments:
        along, offset = (x, y) if orientation is Orientation.H else (y, x)
        spacing, period, shear = forms[orientation]
        # The lattice vector steps*(shear, spacing) moves the segment onto
        # the line of key in [0, spacing).
        steps, key = divmod(offset, spacing)
        start = (along - steps * shear) % period
        cut_sets.setdefault((orientation, key), set()).update(
            (start, (start + length) % period)
        )
        located.append(((orientation, key), start, length))

    lines = {
        line_id: _Line(forms[line_id[0]][1], sorted(cuts))
        for line_id, cuts in cut_sets.items()
    }
    cut_index = {
        line_id: {c: i for i, c in enumerate(line.cuts)}
        for line_id, line in lines.items()
    }
    placed = []
    for line_id, start, remaining in located:
        line = lines[line_id]
        i = cut_index[line_id][start]
        arcs = []
        while remaining > 0:
            arcs.append(i)
            line.covered[i] = True
            remaining -= line.arc_length(i)
            i = (i + 1) % len(line.cuts)
        placed.append((line_id, tuple(arcs)))
    return lines, placed


def _sides(boxes: Iterable[_Ints]):
    # Bottom, top, left and right side of each box, as _place segments.
    for x0, x1, y0, y1 in boxes:
        yield Orientation.H, x0, y0, x1 - x0
        yield Orientation.H, x0, y1, x1 - x0
        yield Orientation.V, x0, y0, y1 - y0
        yield Orientation.V, x1, y0, y1 - y0


def _sorted_line_ids(lines: dict[_LineId, _Line]) -> list[_LineId]:
    return sorted(lines, key=lambda line_id: (line_id[0].value, line_id[1]))


def build_skeleton(tiling: Tiling) -> Skeleton:
    """Graph of corner images and subdivided side images on the torus.

    Each rectangle side is split at every vertex lying on its line, and
    coinciding pieces from adjacent rectangles merge into one atomic edge.
    The total edge length equals the tiling length.
    """
    den, cleared, boxes = _clear_valid(tiling)
    lines, _ = _place(cleared, _sides(boxes))
    # Every cut is a corner image, and every corner lies on one H line.
    vertices = set()
    edges = []
    for (orientation, key), line in lines.items():
        for i, cut in enumerate(line.cuts):
            x, y = (cut, key) if orientation is Orientation.H else (key, cut)
            w = _canonical(cleared, x, y)
            if orientation is Orientation.H:
                vertices.add(w)
            if line.covered[i]:
                edges.append((orientation.value, w, line.arc_length(i), orientation))
    edges.sort(key=lambda e: e[:3])
    return Skeleton(
        tiling.basis,
        tuple(_point(den, *w) for w in sorted(vertices)),
        tuple(
            SkeletonEdge(_point(den, *w), orientation, Fraction(length, den))
            for _, w, length, orientation in edges
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
    of its line, or two edges cover the same arc (a hand-built skeleton).
    """
    edges = skeleton.edges
    _, ints = clear_denominators(
        *skeleton.basis.entries,
        *(c for e in edges for c in (e.origin.rep.x, e.origin.rep.y, e.length)),
    )
    segments = (
        (e.orientation, *ints[4 + 3 * k : 7 + 3 * k]) for k, e in enumerate(edges)
    )
    lines, placed = _place(ints[:4], segments)
    edge_at: dict[tuple[_LineId, int], SkeletonEdge] = {}
    for edge, (line_id, arcs) in zip(edges, placed):
        if len(arcs) != 1 or (line_id, arcs[0]) in edge_at:
            raise ValueError(f"skeleton edge {edge} is not one arc of its line")
        edge_at[line_id, arcs[0]] = edge

    cycles = {Orientation.H: [], Orientation.V: []}
    paths = {Orientation.H: [], Orientation.V: []}
    for line_id in _sorted_line_ids(lines):
        line = lines[line_id]
        found = cycles if all(line.covered) else paths
        for run in line.runs():
            found[line_id[0]].append(tuple(edge_at[line_id, i] for i in run))
    return AxisPathDecomposition(
        cycles_h=tuple(cycles[Orientation.H]),
        paths_h=tuple(paths[Orientation.H]),
        cycles_v=tuple(cycles[Orientation.V]),
        paths_v=tuple(paths[Orientation.V]),
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


def reduce_tiling(tiling: Tiling) -> Tiling:
    """Shrink a cycle-free tiling until each axis has one maximal path.

    Raises CycleExistsError when the input has an axis cycle, and also when a
    reduction step creates one.
    """
    reduced, _ = reduce_tiling_with_trace(tiling)
    return reduced


def reduce_tiling_with_trace(
    tiling: Tiling,
) -> tuple[Tiling, tuple[ReductionStep, ...]]:
    """Repeatedly merge maximal axis paths, horizontal axis first.

    Each step classifies the rectangles incident to the chosen path, shifts
    every path-facing side by the minimum extent of the shrinking class, drops
    the rectangles that collapse, and re-verifies the result.  The output is a
    valid tiling with exactly one maximal path per axis and length at most the
    input's.

    Raises CycleExistsError when the input has an axis cycle, and also when a
    step creates one (the message then names the step), since the shift
    applies only to maximal paths.
    """
    den, cleared, boxes = _clear_valid(tiling)
    length = sum(x1 - x0 + y1 - y0 for x0, x1, y0, y1 in boxes)
    steps: list[ReductionStep] = []
    for _ in range(len(boxes) + 2):
        lines, placed = _place(cleared, _sides(boxes))
        runs_by_axis = {Orientation.H: [], Orientation.V: []}
        for line_id in _sorted_line_ids(lines):
            orientation, key = line_id
            line = lines[line_id]
            if all(line.covered):
                after = f" after step {len(steps)}" if steps else ""
                raise CycleExistsError(
                    f"{orientation.value}-cycle on line {Fraction(key, den)}"
                    f"{after}: the path-merging reduction does not apply"
                )
            for run in line.runs():
                runs_by_axis[orientation].append((line_id, line.cuts[run[0]], set(run)))

        if len(runs_by_axis[Orientation.H]) > 1:
            orientation = Orientation.H
        elif len(runs_by_axis[Orientation.V]) > 1:
            orientation = Orientation.V
        else:
            break
        # Lines and their runs are already in (line key, start cut) order.
        target_line, target_start, target_arcs = runs_by_axis[orientation][0]
        # Index of the low and high side among a box's _sides, and of the
        # coordinates those sides sit at.
        if orientation is Orientation.H:
            lo_side, hi_side, lo, hi = 0, 1, 2, 3
        else:
            lo_side, hi_side, lo, hi = 2, 3, 0, 1

        def on_target(idx: int, side: int) -> bool:
            line_id, arcs = placed[4 * idx + side]
            if line_id != target_line or target_arcs.isdisjoint(arcs):
                return False
            if not target_arcs.issuperset(arcs):
                raise ReductionStepInvalidError(
                    "rectangle side straddles two maximal paths"
                )
            return True

        # Per box, whether its low and its high side lie on the path.
        on = [(on_target(i, lo_side), on_target(i, hi_side)) for i in range(len(boxes))]
        s1 = tuple(i for i, sides in enumerate(on) if sides == (True, True))
        s2 = tuple(i for i, sides in enumerate(on) if sides == (False, True))
        s3 = tuple(i for i, sides in enumerate(on) if sides == (True, False))

        mirrored = len(s2) < len(s3)
        working = s3 if mirrored else s2
        if not working:
            raise ReductionStepInvalidError(
                "several maximal paths but no shiftable rectangle on the chosen one"
            )
        shrink = min(boxes[i][hi] - boxes[i][lo] for i in working)
        shift = shrink if mirrored else -shrink

        new_boxes, eliminated = [], []
        for idx, (box, (lo_on, hi_on)) in enumerate(zip(boxes, on)):
            box = list(box)
            if lo_on:
                box[lo] += shift
            if hi_on:
                box[hi] += shift
            if box[lo] == box[hi]:
                eliminated.append(idx)
            else:
                new_boxes.append(tuple(box))

        if not eliminated:
            raise ReductionStepInvalidError("shift eliminated no rectangle")
        violations = _violations(den, cleared, new_boxes)
        if violations:
            raise ReductionStepInvalidError(
                "rebuilt tiling is invalid: " + _violation_text(violations)
            )
        new_length = sum(x1 - x0 + y1 - y0 for x0, x1, y0, y1 in new_boxes)
        if not new_length < length:
            raise ReductionStepInvalidError("reduction step did not shorten the tiling")
        steps.append(
            ReductionStep(
                axis=orientation,
                line_key=Fraction(target_line[1], den),
                path_start=Fraction(target_start, den),
                mirrored=mirrored,
                s1=s1,
                s2=s2,
                s3=s3,
                shrink=Fraction(shrink, den),
                eliminated=tuple(eliminated),
                length_before=Fraction(length, den),
                length_after=Fraction(new_length, den),
            )
        )
        boxes, length = new_boxes, new_length
    else:
        raise ReductionStepInvalidError("reduction did not terminate")
    rects = (Rect(*(Fraction(c, den) for c in box)) for box in boxes)
    return Tiling(tiling.basis, tuple(rects)), tuple(steps)
