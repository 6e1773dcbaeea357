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
{a*(d_x, 0) + b*(shear, g_y)} of the cleared lattice (``lattice.axis_forms``),
so locating a point on its line is one divmod and one remainder.  One
placement (``_Placement``) holds axis segments (rectangle sides or skeleton
edges) by torus line, each as its start and length along the line: the one
model of a line.  The certificate counts segment endpoints; the other
readers link segments end to start (``_chains``) or cut a line into arcs at
the sorted endpoints (``_cuts``).

Validity is certified by a degree argument (``_certify``).  Let f count the
rectangles over each torus point.  Crossing a horizontal line upward, f
gains the bottom sides over the crossing point and loses the top sides over
it; vertical lines likewise with left and right sides.  So f is constant
exactly when, on every line, the signed count of sides over each point
(bottom or left +1, top or right -1) is 0.  That count changes only at side
endpoints, so it is 0 everywhere exactly when, at every endpoint, the signs
of the sides starting there balance those of the sides ending there, and the
count over one fixed point, line position 0, is 0.  The area sum, the
integral of f, then fixes the constant: f = 1 exactly when the areas sum to
the covolume.  A side longer than its line's circumference, the period of
its family, cannot occur in a tiling (its rectangle would meet its own
translate by the period); it is refused before anything is placed, so each
placed side lies over each point of its line at most once.

The certificate is incremental: it applies box edits to a placement that
held a tiling or nothing, and counts again only on the lines the edited
sides leave or join.  Every other line still cancels, so the edited boxes
tile exactly when their areas sum to the covolume and those lines cancel.  A
whole tiling of n rectangles is certified as edits to an empty placement in
O(n) dict operations with no sort: each side adds to the counts at its two
endpoints and at most once to the count over position 0.  Only boxes the
certificate refuses pay the O(n^2) scan of open difference boxes with
``lattice.box_points`` (``_violations``) that writes the report.  The
certificate's placement is the one the skeleton and the reduction read.

On a line that cancels, the bottom (left) sides are disjoint and cover what
the top (right) sides cover.  So the line is an axis cycle exactly when their
lengths sum to its period (``_is_cycle``), each head, a bottom start that is
no bottom's end, begins one maximal run (``_heads``), and an arc between two
cuts is covered exactly when a bottom side covers it (``build_skeleton``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Collection, Iterable

from .exact_math import Vec2, clear_denominators
from .lattice import LatticeBasis, axis_forms, box_points
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


_ORIENTATIONS = {o.value: o for o in Orientation}  # faster than Orientation(value)


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

    A valid tiling is recognised with no pair scan and no sort by the
    boundary-cancellation certificate of the module docstring (``_certify``):
    the areas sum to the covolume and, on every line, the signed side counts
    balance at each side endpoint and over position 0.  Only a tiling it
    refuses is scanned pair by pair, in O(n^2) box queries, for the report.
    """
    den, cleared, boxes = _clear(tiling)
    if _certify(_Placement(cleared), {}, dict(enumerate(boxes))) is not None:
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


_LineId = tuple[str, int]  # (orientation value, line key)


class _Placement:
    """Axis segments, each under its own key, held by torus line.

    A segment (orientation, x, y, length) runs from (x, y) in +x ("h") or
    +y ("v"); on its line it is (start, length), the start being its position
    along the line in [0, period).  ``put`` and ``drop`` change segments and
    record the lines they leave or join in ``touched``, so a caller that moves
    a few segments checks only those lines.  Lines are held by (orientation,
    line key), the line key being the offset across the line modulo the
    spacing; segment values, line keys, cuts and arc lengths are integers over
    the denominator of the cleared basis.
    """

    def __init__(self, cleared: _Ints):
        self.cleared = cleared
        self.forms: dict[str, tuple[int, int, int]] = {}
        self.area = 0  # of the boxes whose sides _certify placed
        self.on_line: dict[_LineId, dict] = {}  # line -> {key: (start, length)}
        self.line_of: dict = {}
        self.touched: set[_LineId] = set()

    def form(self, orientation: str) -> tuple[int, int, int]:
        """The Hermite form (spacing, period, shear) of a line family.  The
        forms are built on first use; per-side code then reads ``forms``."""
        if not self.forms:
            self.forms.update(zip("hv", axis_forms(*self.cleared)))
        return self.forms[orientation]

    def put(self, key, orientation: str, x: int, y: int, length: int) -> None:
        if orientation == "h":
            along, offset = x, y
        else:
            along, offset = y, x
        spacing, period, shear = self.forms.get(orientation) or self.form(orientation)
        # The lattice vector steps*(shear, spacing) moves the segment onto
        # the line of line_key in [0, spacing).
        steps, line_key = divmod(offset, spacing)
        line_id = (orientation, line_key)
        segment = ((along - steps * shear) % period, length)
        placed = self.line_of.get(key)
        if placed is not None:
            if placed == line_id and self.on_line[line_id][key] == segment:
                return
            self.drop(key)
        segments = self.on_line.get(line_id)
        if segments is None:
            self.on_line[line_id] = segments = {}
        segments[key] = segment
        self.line_of[key] = line_id
        self.touched.add(line_id)

    def drop(self, key) -> None:
        line_id = self.line_of.pop(key)
        del self.on_line[line_id][key]
        self.touched.add(line_id)


def _chains(segments: dict[int, int], period: int) -> list[list[int]]:
    """The chains of disjoint segments {start: length} on a line, as lists of
    starts.  A chain begins at each start that is no segment's end, in sorted
    order, and runs on while its end is a start.  When every start is an end,
    the segments close the line into one chain, from the least start."""
    ends = {(start + n) % period for start, n in segments.items()}
    chains = []
    for head in sorted(segments.keys() - ends) or [min(segments)]:
        chain = [head]
        at = (head + segments[head]) % period
        while at != head and at in segments:
            chain.append(at)
            at = (at + segments[at]) % period
        chains.append(chain)
    return chains


def _cuts(segments: Collection[tuple[int, int]], period: int) -> dict[int, int]:
    """The endpoints of (start, length) segments on a line, sorted, each
    mapped to the length of the arc to the next endpoint around the line."""
    ends = {(start + n) % period for start, n in segments}
    cuts = sorted(ends.union(start for start, _ in segments))
    return {a: b - a for a, b in zip(cuts, cuts[1:] + [cuts[0] + period])}


def _bottoms(segments: dict) -> dict[int, int]:
    # The bottom (left) sides {start: length} of sides keyed (box id, side).
    return {start: n for (_, side), (start, n) in segments.items() if not side % 2}


def _cancels(placement: _Placement, line_ids: Iterable[_LineId]) -> bool:
    """Whether every point of these lines has as many bottom (left) sides
    over it as top (right) sides, with sides keyed (box id, side index):
    0 bottom, 1 top, 2 left, 3 right.  A line's signed count changes only at
    side endpoints, so it is 0 everywhere when the signs balance at every
    endpoint and the count over position 0 is 0; a side [start, start +
    length) lies over position 0 when it starts there or wraps past it.
    Lines no longer placed are skipped.
    """
    on_line, forms = placement.on_line, placement.forms
    for line_id in line_ids:
        segments = on_line.get(line_id)
        if segments is None:
            continue
        period = forms[line_id[0]][1]
        jumps: dict[int, int] = {}
        over_zero = 0
        for (_, side), (start, n) in segments.items():
            sign = -1 if side % 2 else 1  # top and right sides are odd
            end = start + n
            if start == 0 or end > period:
                over_zero += sign
            jumps[start] = jumps.get(start, 0) + sign
            if end >= period:  # no side is longer than its line
                end -= period
            jumps[end] = jumps.get(end, 0) - sign
        if over_zero or any(jumps.values()):
            return False
    return True


def _certify(
    placement: _Placement,
    boxes: dict[int, _Ints],
    edits: dict[int, _Ints | None],
) -> list[_LineId] | None:
    """Apply the edits (box id -> new box, or None to drop the box) to
    ``boxes``, to the placement's area and to its sides, keyed (box id, side
    index) as in ``_cancels``.  Returns the lines the edits touched, sorted,
    when the edited boxes tile the torus, and None when they do not.  Lines
    left without sides are dropped from the placement (but still returned),
    and ``placement.touched`` is cleared; no line is cut into arcs.

    Exact, by the degree argument of the module docstring, when the boxes
    placed before either tiled the torus or were none: so a whole tiling is
    certified by applying ``dict(enumerate(boxes))`` to an empty placement.
    The area test runs first, on the area kept from the edited boxes, and
    places no side and builds no Hermite form; then the side-length guard,
    then the endpoint counts of ``_cancels`` on the touched lines.  ``boxes``
    and the area hold the edits even after None, but the placement is then of
    no use.
    """
    area = placement.area
    for k, box in edits.items():
        old = boxes.get(k)
        if old:
            x0, x1, y0, y1 = old
            area -= (x1 - x0) * (y1 - y0)
        if box:
            x0, x1, y0, y1 = boxes[k] = box
            area += (x1 - x0) * (y1 - y0)
        else:
            del boxes[k]
    placement.area = area
    ux, uy, vx, vy = placement.cleared
    if area != abs(ux * vy - uy * vx):
        return None
    width, height = placement.form("h")[1], placement.form("v")[1]
    if any(
        x1 - x0 > width or y1 - y0 > height
        for x0, x1, y0, y1 in filter(None, edits.values())
    ):
        return None
    put, drop = placement.put, placement.drop
    for k, box in edits.items():
        if box:
            x0, x1, y0, y1 = box
            put((k, 0), "h", x0, y0, x1 - x0)
            put((k, 1), "h", x0, y1, x1 - x0)
            put((k, 2), "v", x0, y0, y1 - y0)
            put((k, 3), "v", x1, y0, y1 - y0)
        else:
            for side in range(4):
                drop((k, side))
    touched = sorted(placement.touched)
    placement.touched.clear()
    for line_id in touched:
        if not placement.on_line[line_id]:
            del placement.on_line[line_id]
    return touched if _cancels(placement, touched) else None


def _is_cycle(placement: _Placement, line_id: _LineId) -> bool:
    """Whether a line that cancels is an axis cycle: its disjoint bottom (left)
    sides sum to its period.  Raises RuntimeError if it has none, as it cannot."""
    covered = 0
    for (_, side), (_, n) in placement.on_line[line_id].items():
        if not side % 2:
            covered += n
    if not covered:
        raise RuntimeError(f"line {line_id} has sides but no bottom side")
    return covered == placement.forms[line_id[0]][1]


def _heads(placement: _Placement, line_id: _LineId) -> tuple[dict[int, int], set[int]]:
    """The bottom (left) sides {start: length} of a line that cancels, and its
    heads, the starts that are no bottom's end: one per maximal run."""
    period = placement.forms[line_id[0]][1]
    bottoms = _bottoms(placement.on_line[line_id])
    ends = {(start + n) % period for start, n in bottoms.items()}
    return bottoms, bottoms.keys() - ends


def _refuted(den: int, cleared: _Ints, boxes: list[_Ints]) -> list[Violation]:
    # The report on boxes the certificate refused, which must hold a violation.
    violations = _violations(den, cleared, boxes)
    if not violations:
        raise RuntimeError("boundary cancellation refused a tiling that verifies")
    return violations


def _clear_valid(tiling: Tiling) -> tuple[int, _Ints, dict[int, _Ints], _Placement]:
    # The integer form of a tiling that must verify, its boxes keyed by
    # index, and its sides' placement.
    den, cleared, boxes = _clear(tiling)
    placement, placed = _Placement(cleared), {}
    if _certify(placement, placed, dict(enumerate(boxes))) is None:
        raise InvalidTilingError(_violation_text(_refuted(den, cleared, boxes)))
    return den, cleared, placed, placement


def build_skeleton(tiling: Tiling) -> Skeleton:
    """Graph of corner images and subdivided side images on the torus.

    Each rectangle side is split at every vertex lying on its line, and
    coinciding pieces from adjacent rectangles merge into one atomic edge.
    The total edge length equals the tiling length.

    Each placed line is cut at its sides' endpoints (``_cuts``, one sort of
    them).  The arc from a cut is an edge when the bottom (left) side with
    the latest start at or before it, around the line, covers it: on a line
    that cancels the bottom sides are disjoint and cover all that is covered.
    """
    den, cleared, _, placement = _clear_valid(tiling)
    edges = []
    for (orientation, key), segments in placement.on_line.items():
        period = placement.form(orientation)[1]
        bottoms = _bottoms(segments)
        last = max(bottoms)  # the latest bottom start before the first cut
        for cut, arc in _cuts(segments.values(), period).items():
            if cut in bottoms:
                last = cut
            if (cut - last) % period < bottoms[last]:
                x, y = (cut, key) if orientation == "h" else (key, cut)
                edges.append((orientation, _canonical(cleared, x, y), arc))
    edges.sort()
    # Every corner image starts an edge: the rectangle just above and right of
    # a corner has it on its bottom or left side, short of the side's end.  So
    # the vertices are the edge origins.  One Fraction per distinct integer.
    fraction = {c: Fraction(c, den) for c in {c for e in edges for c in (*e[1], e[2])}}
    origins = sorted({w for _, w, _ in edges})
    vertices = {w: TorusPoint(Vec2(fraction[w[0]], fraction[w[1]])) for w in origins}
    return Skeleton(
        tiling.basis,
        tuple(vertices.values()),
        tuple(
            SkeletonEdge(vertices[w], _ORIENTATIONS[axis], fraction[n])
            for axis, w, n in edges
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
    """Place each edge on its torus line and chain the edges end to start.

    Each line is cut at its edges' endpoints (``_cuts``, one sort of them).
    Raises ValueError at the first edge longer than its line, and then at the
    first edge, in input order, that is not one arc of its line: its length
    is not the arc's from its start, or an earlier edge took that start.  The
    ``_chains`` of a line whose arcs all hold an edge are one cycle, of the
    axis period; those of every other line are maximal paths.
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
        if length > placement.form(orientation)[1]:
            raise ValueError(f"skeleton edge {edge} is not one arc of its line")
        placement.put(k, orientation, x, y, length)
    cycles = {"h": [], "v": []}
    paths = {"h": [], "v": []}
    # A line holds its edges in input order, so the least of the first edges
    # refused on each line is the first refused in input order.
    refused = []
    for (orientation, _), segments in sorted(placement.on_line.items()):
        period = placement.form(orientation)[1]
        arcs = _cuts(segments.values(), period)
        at, lengths = {}, {}  # the line's edges and their lengths, by start
        for k, (start, n) in segments.items():
            if n != arcs[start] or start in at:
                refused.append(k)
                break
            at[start], lengths[start] = edges[k], n
        else:
            found = cycles if len(at) == len(arcs) else paths
            for chain in _chains(lengths, period):
                found[orientation].append(tuple(map(at.__getitem__, chain)))
    if refused:
        edge = edges[min(refused)]
        raise ValueError(f"skeleton edge {edge} is not one arc of its line")
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

    The input and then each step are certified by the incremental
    endpoint-count certificate of the module docstring (``_certify``), and
    the reduction reads the certificate's placement of the sides without
    cutting any line into arcs.  Each line a step touched is checked for a
    cycle by the length of its bottom (left) sides (``_is_cycle``), and only
    the chosen path is walked: the run from the least head (``_heads``) on the
    least line of the first axis with two runs.  A side lies on it when its
    start is less than the run's length past the run's start, going around
    the line.  No rectangle pair is scanned unless a check fails: the input's
    or a step's failure raises with the full O(n^2) verification report.  The
    reduced tiling is verified pair by pair once more.

    Raises CycleExistsError when the input has an axis cycle, and also when a
    step creates one (the message then names the step), since the shift
    applies only to maximal paths.
    """
    # Boxes are keyed by their index in the input, which they keep while the
    # indices of the boxes after an eliminated one drop.
    den, cleared, boxes, placement = _clear_valid(tiling)
    length = sum(map(_half_perimeter, boxes.values()))
    steps: list[ReductionStep] = []
    touched = sorted(placement.on_line)
    for _ in range(len(boxes) + 2):
        # Only a line a step touched can have closed into a cycle.
        for line_id in touched:
            if line_id in placement.on_line and _is_cycle(placement, line_id):
                after = f" after step {len(steps)}" if steps else ""
                raise CycleExistsError(
                    f"{line_id[0]}-cycle on line {Fraction(line_id[1], den)}"
                    f"{after}: the path-merging reduction does not apply"
                )

        # Each placed line holds a run, so an axis holds two runs when it has
        # two lines or its least line has two heads.
        for orientation in "hv":
            lines = [line for line in placement.on_line if line[0] == orientation]
            target_line = min(lines)
            bottoms, heads = _heads(placement, target_line)
            if len(lines) > 1 or len(heads) > 1:
                break
        else:
            break
        period = placement.form(orientation)[1]
        target_start = end = min(heads)
        while end in bottoms:
            end = (end + bottoms[end]) % period
        target_length = (end - target_start) % period
        # Index of the low and high side among a box's sides (as in _cancels),
        # and of the coordinates those sides sit at.
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
        # The step reports indices in its input tiling, and its length change
        # reads the boxes before _certify edits them.
        rank = {box_id: i for i, box_id in enumerate(boxes)}
        new_length = length + sum(
            (_half_perimeter(new) if new else 0) - _half_perimeter(boxes[k])
            for k, new in edits.items()
        )
        touched = _certify(placement, boxes, edits)
        if touched is None:
            violations = _refuted(den, cleared, list(boxes.values()))
            raise ReductionStepInvalidError(
                "rebuilt tiling is invalid: " + _violation_text(violations)
            )
        if not new_length < length:
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
                length_before=Fraction(length, den),
                length_after=Fraction(new_length, den),
            )
        )
        length = new_length
    else:
        raise ReductionStepInvalidError("reduction did not terminate")
    violations = _violations(den, cleared, list(boxes.values()))
    if violations:
        raise ReductionStepInvalidError(
            "reduced tiling is invalid: " + _violation_text(violations)
        )
    rects = (Rect(*(Fraction(c, den) for c in box)) for box in boxes.values())
    return Tiling(tiling.basis, tuple(rects)), tuple(steps)
