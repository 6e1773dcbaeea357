"""Torus-side machinery: canonical quotient points, full tiling verification,
skeleton graphs, axis path decomposition, and the path-merging reduction.

Points on the torus are identified by a canonical representative inside the
fundamental parallelogram.  Horizontal torus lines form a circle family with
spacing g_y = cov/d_x and circumference d_x (vertical lines symmetrically).

A tiling's integer form, the placement of its sides by line and the degree
argument that certifies it are in ``certificate``; only a tiling it refuses
is scanned pair by pair for the report (``_violations``).

``build_skeleton`` keeps the edges it cut, line by line, on the ``Skeleton``
it returns (``Skeleton._lines``, an instance attribute and no dataclass
field, so no part of its value), and ``decompose_axis_paths`` chains them
from there.  A skeleton made any other way, a ``dataclasses.replace`` copy,
a ``copy`` and a pickle included, holds the three fields only and has its
edges cleared and placed again (``_edge_lines``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .certificate import (
    _bottoms,
    _certify,
    _chains,
    _clear,
    _cuts,
    _Ints,
    _LineId,
    _Placement,
)
from .exact_math import Vec2, clear_denominators
from .lattice import LatticeBasis, box_points
from .tiling import Rect, Tiling


class InvalidTilingError(ValueError):
    """Operation requires a verified tiling."""


class CycleExistsError(ValueError):
    """An axis cycle makes the path-merging reduction inapplicable."""


class ReductionStepInvalidError(RuntimeError):
    """A rebuilt tiling failed verification or did not shrink; never ignored."""


class Orientation(Enum):
    H = "h"
    V = "v"


_ORIENTATIONS = {o.value: o for o in Orientation}  # faster than Orientation(value)


@dataclass(frozen=True)
class TorusPoint:
    """Canonical representative of a torus point (fractional basis coords in [0, 1))."""

    rep: Vec2


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
    x, y = _canonical(cleared, x, y)
    return TorusPoint(Vec2(Fraction(x, den), Fraction(y, den)))


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


def verify_tiling(tiling: Tiling) -> VerificationReport:
    """Decide the three tiling conditions exactly.

    Injectivity of the quotient on each open rectangle fails iff a nonzero
    lattice point sits in the open box (-w, w) x (-h, h); two interiors meet
    on the torus iff a lattice point sits in their open difference box; and
    given those, coverage is equivalent to the areas summing to the covolume.

    A valid tiling is recognised by ``certificate._certify``; only a tiling
    it refuses is scanned pair by pair, in O(n^2) box queries, for the report.
    """
    den, cleared, boxes = _clear(tiling)
    if _certify(_Placement(cleared), dict(enumerate(boxes))) is not None:
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


# A line's edges as decompose_axis_paths chains them: (orientation, period,
# {start: length}, {start: edge}), with starts and lengths integers over the
# cleared basis's denominator.
_EdgeLine = tuple[str, int, dict[int, int], dict[int, SkeletonEdge]]


@dataclass(frozen=True)
class Skeleton:
    basis: LatticeBasis
    vertices: tuple[TorusPoint, ...]
    edges: tuple[SkeletonEdge, ...]
    # No field: build_skeleton sets its lines (_EdgeLine tuples) on the
    # instance it returns.  A dataclasses.replace copy, a copy and a pickle
    # hold the three fields only and read this None, so their edges are
    # placed afresh.
    _lines = None

    def __reduce__(self):
        return Skeleton, (self.basis, self.vertices, self.edges)

    @property
    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges), Fraction(0))


def _refuted(den: int, cleared: _Ints, boxes: list[_Ints]) -> list[Violation]:
    # The report on boxes the certificate refused, which must hold a violation.
    violations = _violations(den, cleared, boxes)
    if not violations:
        raise RuntimeError("boundary cancellation refused a tiling that verifies")
    return violations


def _clear_valid(tiling: Tiling) -> tuple[int, _Placement, list[_LineId]]:
    # The denominator of a tiling that must verify, the placement of its
    # boxes, keyed by index, and their sides, and its axis cycle lines, sorted.
    den, cleared, boxes = _clear(tiling)
    placement = _Placement(cleared)
    cycles = _certify(placement, dict(enumerate(boxes)))
    if cycles is None:
        raise InvalidTilingError(_violation_text(_refuted(den, cleared, boxes)))
    return den, placement, cycles


def build_skeleton(tiling: Tiling) -> Skeleton:
    """Graph of corner images and subdivided side images on the torus.

    Each rectangle side is split at every vertex lying on its line, and
    coinciding pieces from adjacent rectangles merge into one atomic edge.
    The total edge length equals the tiling length.

    Each placed line is cut at its sides' endpoints (``_cuts``, one sort of
    them).  The arc from a cut is an edge when the bottom (left) side with
    the latest start at or before it, around the line, covers it: on a line
    that cancels the bottom sides are disjoint and cover all that is covered.
    The skeleton keeps each line's edges for ``decompose_axis_paths``.
    """
    den, placement, _ = _clear_valid(tiling)
    cleared, edges, lines = placement.cleared, [], []
    for line_id, segments in sorted(placement.on_line.items()):
        orientation, key = line_id
        period = placement.forms[orientation][1]
        bottoms = _bottoms(segments)
        last = max(bottoms)  # the latest bottom start before the first cut
        lengths: dict[int, int] = {}
        at: dict[int, SkeletonEdge] = {}  # filled once the edges are made
        for cut, arc in _cuts(segments.values(), period).items():
            if cut in bottoms:
                last = cut
            if (cut - last) % period < bottoms[last]:
                x, y = (cut, key) if orientation == "h" else (key, cut)
                w = _canonical(cleared, x, y)
                edges.append((orientation, w, arc, at, cut))
                lengths[cut] = arc
        lines.append((orientation, period, lengths, at))
    # A torus point lies on one line of each axis, at one cut of it, so no two
    # edges share an orientation and origin: those alone order the edges, and
    # the sort never compares their lines' dicts.
    edges.sort()
    # Every corner image starts an edge: the rectangle just above and right of
    # a corner has it on its bottom or left side, short of the side's end.  So
    # the vertices are the edge origins.  One Fraction per distinct integer.
    fraction = {c: Fraction(c, den) for c in {c for e in edges for c in (*e[1], e[2])}}
    origins = sorted({e[1] for e in edges})
    vertices = {w: TorusPoint(Vec2(fraction[w[0]], fraction[w[1]])) for w in origins}
    made = []
    for axis, w, n, at, cut in edges:
        at[cut] = edge = SkeletonEdge(vertices[w], _ORIENTATIONS[axis], fraction[n])
        made.append(edge)
    skeleton = Skeleton(tiling.basis, tuple(vertices.values()), tuple(made))
    object.__setattr__(skeleton, "_lines", tuple(lines))
    return skeleton


@dataclass(frozen=True)
class AxisPathDecomposition:
    """Partition of skeleton edges into axis cycles and maximal axis paths."""

    cycles_h: tuple[tuple[SkeletonEdge, ...], ...]
    paths_h: tuple[tuple[SkeletonEdge, ...], ...]
    cycles_v: tuple[tuple[SkeletonEdge, ...], ...]
    paths_v: tuple[tuple[SkeletonEdge, ...], ...]


def _edge_lines(skeleton: Skeleton) -> list[_EdgeLine]:
    """The lines of a skeleton's edges, sorted, each cut at its edges'
    endpoints (``_cuts``, one sort of them).  Raises ValueError at the first
    edge longer than its line, and then at the first edge, in input order,
    that is not one arc of its line: its length is not the arc's from its
    start, or an earlier edge took that start.
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
    # A line holds its edges in input order, so the least of the first edges
    # refused on each line is the first refused in input order.
    lines, refused = [], []
    for (orientation, _), segments in sorted(placement.on_line.items()):
        period = placement.forms[orientation][1]
        arcs = _cuts(segments.values(), period)
        at, lengths = {}, {}  # the line's edges and their lengths, by start
        for k, (start, n) in segments.items():
            if n != arcs[start] or start in at:
                refused.append(k)
                break
            at[start], lengths[start] = edges[k], n
        else:
            lines.append((orientation, period, lengths, at))
    if refused:
        edge = edges[min(refused)]
        raise ValueError(f"skeleton edge {edge} is not one arc of its line")
    return lines


def decompose_axis_paths(skeleton: Skeleton) -> AxisPathDecomposition:
    """Chain the edges of each torus line end to start (``_chains``).

    The lines are the ones ``build_skeleton`` cut, kept on the skeleton it
    returned; a skeleton built any other way, a ``dataclasses.replace``
    copy, a copy or a pickle included, has its edges placed on their lines
    again (``_edge_lines``), which raises ValueError at the first edge that
    is not one arc of its line.  Each edge is one distinct arc, so a line
    whose edges' lengths sum to its period is one cycle; the chains of every
    other line are maximal paths.
    """
    lines = skeleton._lines
    if lines is None:
        lines = _edge_lines(skeleton)
    cycles = {"h": [], "v": []}
    paths = {"h": [], "v": []}
    for orientation, period, lengths, at in lines:
        found = cycles if sum(lengths.values()) == period else paths
        for chain in _chains(lengths, period):
            found[orientation].append(tuple(map(at.__getitem__, chain)))
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


def reduce_tiling_with_trace(
    tiling: Tiling,
) -> tuple[Tiling, tuple[ReductionStep, ...]]:
    """Repeatedly merge maximal axis paths, horizontal axis first.

    Each step classifies the rectangles incident to the chosen path, shifts
    every path-facing side by the minimum extent of the shrinking class, drops
    the rectangles that collapse, and re-verifies the result.  The output is a
    valid tiling with exactly one maximal path per axis and length at most the
    input's.

    The input and then each step are certified by the incremental
    endpoint-count certificate (``certificate._certify``), and the
    reduction reads the certificate's placement of the sides without
    cutting any line into arcs.  The certificate reports the lines a step
    touched that closed into cycles, in the one pass that counts them, and
    only the chosen line is walked: the chosen path is the first chain of its
    bottom sides (``_chains``), on the least line of the first axis with two
    runs.  A side lies on it when its start is less than the path's length
    past the path's start, going around the line.  No rectangle pair is
    scanned unless a check fails: the input's or a step's failure raises with
    the full O(n^2) verification report.  The reduced tiling is verified pair
    by pair once more.

    Raises CycleExistsError when the input has an axis cycle, and also when a
    step creates one (the message then names the step), since the shift
    applies only to maximal paths.
    """
    # Boxes are keyed by their index in the input, which they keep while the
    # indices of the boxes after an eliminated one drop.
    den, placement, cycles = _clear_valid(tiling)
    cleared, boxes = placement.cleared, placement.boxes
    steps: list[ReductionStep] = []
    for _ in range(len(boxes) + 2):
        # Only a line a step touched can have closed into a cycle.
        if cycles:
            orientation, key = cycles[0]
            after = f" after step {len(steps)}" if steps else ""
            raise CycleExistsError(
                f"{orientation}-cycle on line {Fraction(key, den)}"
                f"{after}: the path-merging reduction does not apply"
            )

        # Each placed line holds a run, so an axis holds two runs when it has
        # two lines or its least line has two chains.
        for orientation in "hv":
            lines = [line for line in placement.on_line if line[0] == orientation]
            target_line = min(lines)
            period = placement.forms[orientation][1]
            bottoms = _bottoms(placement.on_line[target_line])
            runs = _chains(bottoms, period)
            if len(lines) > 1 or len(runs) > 1:
                break
        else:
            break
        target_start, last = runs[0][0], runs[0][-1]
        target_length = (last + bottoms[last] - target_start) % period
        # Index of the low and high side among a box's sides (as in
        # certificate._cancels), and of the coordinates those sides sit at.
        lo_side, lo, hi = (0, 2, 3) if orientation == "h" else (2, 0, 1)

        # Per box id with a side on the path, whether its low and its high side are.
        on: dict[int, list[bool]] = {}
        for (box_id, side), (start, n) in placement.on_line[target_line].items():
            offset = (start - target_start) % period
            if offset >= target_length:
                continue
            if offset + n > target_length:
                raise ReductionStepInvalidError(
                    "rectangle side straddles two maximal paths"
                )
            on.setdefault(box_id, [False, False])[side - lo_side] = True
        s1 = sorted(k for k, sides in on.items() if sides == [True, True])
        s2 = sorted(k for k, sides in on.items() if sides == [False, True])
        s3 = sorted(k for k, sides in on.items() if sides == [True, False])

        mirrored = len(s2) < len(s3)
        working = s3 if mirrored else s2
        if not working:
            raise ReductionStepInvalidError(
                "several maximal paths but no shiftable rectangle on the chosen one"
            )
        shrink = min(boxes[k][hi] - boxes[k][lo] for k in working)
        shift = shrink if mirrored else -shrink

        edits: dict[int, _Ints | None] = {}
        for box_id, (lo_on, hi_on) in on.items():
            box = list(boxes[box_id])
            if lo_on:
                box[lo] += shift
            if hi_on:
                box[hi] += shift
            edits[box_id] = None if box[lo] == box[hi] else tuple(box)
        eliminated = sorted(k for k, box in edits.items() if box is None)

        if not eliminated:
            raise ReductionStepInvalidError("shift eliminated no rectangle")
        # The step reports indices in its input tiling, read before _certify
        # drops the eliminated boxes.
        rank = {box_id: i for i, box_id in enumerate(boxes)}
        length_before = placement.length
        cycles = _certify(placement, edits)
        if cycles is None:
            violations = _refuted(den, cleared, list(boxes.values()))
            raise ReductionStepInvalidError(
                "rebuilt tiling is invalid: " + _violation_text(violations)
            )
        if not placement.length < length_before:
            raise ReductionStepInvalidError("reduction step did not shorten the tiling")
        steps.append(
            ReductionStep(
                axis=_ORIENTATIONS[orientation],
                line_key=Fraction(target_line[1], den),
                path_start=Fraction(target_start, den),
                mirrored=mirrored,
                s1=tuple(rank[k] for k in s1),
                s2=tuple(rank[k] for k in s2),
                s3=tuple(rank[k] for k in s3),
                shrink=Fraction(shrink, den),
                eliminated=tuple(rank[k] for k in eliminated),
                length_before=Fraction(length_before, den),
                length_after=Fraction(placement.length, den),
            )
        )
    else:
        raise ReductionStepInvalidError("reduction did not terminate")
    violations = _violations(den, cleared, list(boxes.values()))
    if violations:
        raise ReductionStepInvalidError(
            "reduced tiling is invalid: " + _violation_text(violations)
        )
    rects = (Rect(*(Fraction(c, den) for c in box)) for box in boxes.values())
    return Tiling(tiling.basis, tuple(rects)), tuple(steps)
