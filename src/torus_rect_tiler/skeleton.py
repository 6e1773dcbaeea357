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
placement (``_Placement``) holds axis segments (rectangle sides or skeleton
edges) by torus line, each as its start and length along the line.  The
certificate and the reduction read those endpoints directly; only the
skeleton and its cycle/path decomposition cut lines into arcs at them
(``_Placement.recut``) and read the covered arcs and their runs.

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
the top (right) sides cover, so the line's maximal runs of sides start where
a bottom side starts and no bottom side ends, and each run is the chain of
bottom sides from its start (``_runs``).  A line with sides but no run start
is an axis cycle.
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
        j = (i + 1) % len(self.cuts)
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
    """Axis segments, each under its own key, held by torus line.

    A segment (orientation, x, y, length) runs from (x, y) in +x ("h") or
    +y ("v"); on its line it is (start, length), the start being its position
    along the line in [0, period).  ``put`` and ``drop`` change segments and
    record the lines they leave or join in ``touched``, so a caller that moves
    a few segments checks only those lines.  ``recut`` cuts every line at its
    segments' endpoints into the arcs the skeleton reads.  Lines are held by
    (orientation, line key), the line key being the offset across the line
    modulo the spacing; segment values, line keys, cuts and arc lengths are
    integers over the denominator of the cleared basis.
    """

    def __init__(self, cleared: _Ints):
        self.cleared = cleared
        self.forms: dict[str, tuple[int, int, int]] | None = None
        self.on_line: dict[_LineId, dict] = {}  # line -> {key: (start, length)}
        self.line_of: dict = {}
        self.touched: set[_LineId] = set()

    def form(self, orientation: str) -> tuple[int, int, int]:
        """The Hermite form (spacing, period, shear) of a line family.

        The forms are built on first use, so a certificate that fails its area
        test builds none.  A ``cached_property`` in place of this call made
        the split-reduce benchmark about 8% slower (2-CPU x86_64, Python 3.11).
        """
        if self.forms is None:
            ux, uy, vx, vy = self.cleared
            h, v = axis_form(ux, vx, uy, vy), axis_form(uy, vy, ux, vx)
            self.forms = {"h": h, "v": v}
        return self.forms[orientation]

    def put(self, key, orientation: str, x: int, y: int, length: int) -> None:
        along, offset = (x, y) if orientation == "h" else (y, x)
        spacing, period, shear = self.form(orientation)
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
        self.touched.add(line_id)

    def recut(self) -> tuple[dict[_LineId, _Line], dict]:
        """Cut every line at the endpoints of its segments.  Returns the lines
        by ``_LineId`` and, per segment key, the indices of the arcs its
        segment covers."""
        lines, arcs = {}, {}
        for line_id, segments in self.on_line.items():
            period = self.form(line_id[0])[1]
            ends = {(start + n) % period for start, n in segments.values()}
            cuts = sorted(ends.union(start for start, _ in segments.values()))
            line = lines[line_id] = _Line(period, cuts)
            index = {c: i for i, c in enumerate(line.cuts)}
            for key, (start, remaining) in segments.items():
                i = index[start]
                covered = []
                while remaining > 0:
                    covered.append(i)
                    line.covered[i] = True
                    remaining -= line.arc_length(i)
                    i = (i + 1) % len(line.cuts)
                arcs[key] = tuple(covered)
        return lines, arcs


def _sides(box: _Ints):
    # Bottom, top, left and right side of a box, as segments.
    x0, x1, y0, y1 = box
    yield "h", x0, y0, x1 - x0
    yield "h", x0, y1, x1 - x0
    yield "v", x0, y0, y1 - y0
    yield "v", x1, y0, y1 - y0


def _cancels(placement: _Placement, line_ids: Iterable[_LineId]) -> bool:
    """Whether every point of these lines has as many bottom (left) sides
    over it as top (right) sides, with sides keyed (box id, index in
    ``_sides``).  A line's signed count changes only at side endpoints, so it
    is 0 everywhere when the signs balance at every endpoint and the count
    over position 0 is 0; a side [start, start + length) lies over position 0
    when it starts there or wraps past it.  Lines no longer placed are
    skipped.
    """
    for line_id in line_ids:
        segments = placement.on_line.get(line_id)
        if segments is None:
            continue
        period = placement.form(line_id[0])[1]
        jumps: dict[int, int] = {}
        over_zero = 0
        for (_, side), (start, n) in segments.items():
            sign = -1 if side % 2 else 1  # top and right sides are odd
            end = start + n
            if start == 0 or end > period:
                over_zero += sign
            jumps[start] = jumps.get(start, 0) + sign
            end %= period
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
    ``boxes`` and to the placement of their sides, keyed (box id, index in
    ``_sides``).  Returns the lines the edits touched, sorted, when the edited
    boxes tile the torus, and None when they do not.  Lines left without
    sides are dropped from the placement (but still returned), and
    ``placement.touched`` is cleared; no line is cut into arcs.

    Exact, by the degree argument of the module docstring, when the boxes
    placed before either tiled the torus or were none: so a whole tiling is
    certified by applying ``dict(enumerate(boxes))`` to an empty placement.
    The area test runs first and builds no line, then the side-length guard,
    then the endpoint counts of ``_cancels`` on the touched lines.  ``boxes``
    holds the edited boxes even after None, but the placement is then of no
    use.
    """
    for k, box in edits.items():
        if box:
            boxes[k] = box
        else:
            del boxes[k]
    ux, uy, vx, vy = placement.cleared
    area = sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in boxes.values())
    if area != abs(ux * vy - uy * vx):
        return None
    width, height = placement.form("h")[1], placement.form("v")[1]
    if any(
        x1 - x0 > width or y1 - y0 > height
        for x0, x1, y0, y1 in filter(None, edits.values())
    ):
        return None
    for k, box in edits.items():
        if box:
            for side, segment in enumerate(_sides(box)):
                placement.put((k, side), *segment)
        else:
            for side in range(4):
                placement.drop((k, side))
    touched = sorted(placement.touched)
    placement.touched.clear()
    for line_id in touched:
        if not placement.on_line[line_id]:
            del placement.on_line[line_id]
    return touched if _cancels(placement, touched) else None


def _runs(placement: _Placement, line_id: _LineId) -> list[tuple[int, int]]:
    """The maximal runs of sides on a line that cancels, as (start, length)
    sorted by start; [] when the sides close the line into a cycle.

    The bottom (left) sides of such a line are disjoint and cover what its
    top (right) sides cover, so a run starts where a bottom side starts and
    no bottom side ends, and runs on through the bottom sides chained from
    there, each starting where the last one ends.  Raises RuntimeError when
    the line has sides but no bottom side, which a line that cancels cannot.
    """
    period = placement.form(line_id[0])[1]
    bottoms = {
        start: n
        for (_, side), (start, n) in placement.on_line[line_id].items()
        if not side % 2
    }
    if not bottoms:
        raise RuntimeError(f"line {line_id} has sides but no bottom side")
    ends = {(start + n) % period for start, n in bottoms.items()}
    runs = []
    for start in sorted(bottoms.keys() - ends):
        length, at = 0, start
        while at in bottoms:
            n = bottoms[at]
            length += n
            at = (at + n) % period
        runs.append((start, length))
    return runs


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
    """
    den, cleared, _, placement = _clear_valid(tiling)
    lines, _ = placement.recut()
    # Every cut is a corner image, and every corner lies on one H line.
    corners = set()
    edges = []
    for (orientation, key), line in lines.items():
        for i, cut in enumerate(line.cuts):
            x, y = (cut, key) if orientation == "h" else (key, cut)
            w = _canonical(cleared, x, y)
            if orientation == "h":
                corners.add(w)
            if line.covered[i]:
                edges.append((orientation, w, line.arc_length(i)))
    edges.sort()
    vertices = {w: _point(den, *w) for w in sorted(corners)}
    lengths = {n: Fraction(n, den) for _, _, n in edges}
    return Skeleton(
        tiling.basis,
        tuple(vertices.values()),
        tuple(
            SkeletonEdge(vertices[w], Orientation(axis), lengths[n])
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
        if length > placement.form(orientation)[1]:
            raise ValueError(f"skeleton edge {edge} is not one arc of its line")
        placement.put(k, orientation, x, y, length)
    lines, arcs = placement.recut()
    edge_at: dict[tuple[_LineId, int], SkeletonEdge] = {}
    for k, edge in enumerate(edges):
        line_id, covered = placement.line_of[k], arcs[k]
        if len(covered) != 1 or (line_id, covered[0]) in edge_at:
            raise ValueError(f"skeleton edge {edge} is not one arc of its line")
        edge_at[line_id, covered[0]] = edge

    cycles = {"h": [], "v": []}
    paths = {"h": [], "v": []}
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

    The input and then each step are certified by the incremental
    endpoint-count certificate of the module docstring (``_certify``), and
    the reduction reads the certificate's placement of the sides without
    cutting any line into arcs.  The runs of each line a step touched are
    chained from its bottom (left) sides (``_runs``); the chosen path is the
    run of least start on the least line of its axis, and a side lies on it
    when its start is less than the run's length past the run's start, going
    around the line.  No rectangle pair is scanned unless a check fails: the
    input's or a step's failure raises with the full O(n^2) verification
    report.  The reduced tiling is verified pair by pair once more.

    Raises CycleExistsError when the input has an axis cycle, and also when a
    step creates one (the message then names the step), since the shift
    applies only to maximal paths.
    """
    # Boxes are keyed by their index in the input, which they keep while the
    # indices of the boxes after an eliminated one drop.
    den, cleared, boxes, placement = _clear_valid(tiling)
    length = sum(map(_half_perimeter, boxes.values()))
    runs: dict[_LineId, list[tuple[int, int]]] = {}
    run_count = {"h": 0, "v": 0}
    steps: list[ReductionStep] = []
    touched = sorted(placement.on_line)
    for _ in range(len(boxes) + 2):
        # Only a line a step touched can have closed into a cycle.
        for line_id in touched:
            run_count[line_id[0]] -= len(runs.pop(line_id, ()))
            if line_id not in placement.on_line:
                continue
            line_runs = _runs(placement, line_id)
            if not line_runs:
                after = f" after step {len(steps)}" if steps else ""
                raise CycleExistsError(
                    f"{line_id[0]}-cycle on line {Fraction(line_id[1], den)}"
                    f"{after}: the path-merging reduction does not apply"
                )
            runs[line_id] = line_runs
            run_count[line_id[0]] += len(line_runs)

        if run_count["h"] > 1:
            orientation = "h"
        elif run_count["v"] > 1:
            orientation = "v"
        else:
            break
        # The first run of the first line, in (line key, start) order.
        target_line = min(line_id for line_id in runs if line_id[0] == orientation)
        target_start, target_length = runs[target_line][0]
        period = placement.form(orientation)[1]
        # Index of the low and high side among a box's _sides, and of the
        # coordinates those sides sit at.
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
                axis=Orientation(orientation),
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
