"""Torus-side machinery: canonical quotient points, full tiling verification,
skeleton graphs, axis path decomposition, and the path-merging reduction.

Points on the torus are identified by a canonical representative inside the
fundamental parallelogram.  Horizontal torus lines form a circle family with
spacing g_y = cov/d_x and circumference d_x (vertical lines symmetrically).

Verification and line placement clear a tiling (or skeleton) and its basis
to integers over one denominator once per call, and convert back to fractions
only the values they emit.  Verification scans each open difference box with
``lattice.box_points``.  Each line family is read off the integer Hermite form
{a*(d_x, 0) + b*(shear, g_y)} of the cleared lattice (``lattice.axis_form``),
so locating a point on its line is one divmod and one remainder.  One
placement routine maps axis segments (rectangle sides or skeleton edges) onto
lines cut at the segment endpoints; the skeleton's edges, its cycle/path
decomposition and the reduction's choice of path are all read off those
lines' covered arcs and runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .exact_math import Vec2, clear_denominators
from .lattice import (
    LatticeBasis,
    axis_form,
    basis_coordinates,
    box_points,
    lattice_point,
)
from .tiling import Rect, Tiling, tiling_length


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


def canonicalize(basis: LatticeBasis, point: Vec2) -> TorusPoint:
    """Quotient map: two planar points give equal TorusPoints iff their
    difference is a lattice point."""
    z1, z2 = basis_coordinates(basis, point)
    f1 = z1 - math.floor(z1)
    f2 = z2 - math.floor(z2)
    return TorusPoint(lattice_point(basis, f1, f2))


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
    The basis and all rectangles are cleared to integers once; each open box
    is a ``box_points`` scan with its bounds moved in by 1.  The box of a
    rectangle with itself is its injectivity box, which always holds 0.
    """
    basis = tiling.basis
    den, ints = clear_denominators(
        *basis.entries, *(c for r in tiling.rects for c in (r.x0, r.x1, r.y0, r.y1))
    )
    cleared = ints[:4]
    boxes = [ints[k : k + 4] for k in range(4, len(ints), 4)]
    injectivity: list[Violation] = []
    overlap: list[Violation] = []
    for i, (ix0, ix1, iy0, iy1) in enumerate(boxes):
        for j in range(i, len(boxes)):
            jx0, jx1, jy0, jy1 = boxes[j]
            hits = box_points(
                cleared, jx0 - ix1 + 1, jx1 - ix0 - 1, jy0 - iy1 + 1, jy1 - iy0 - 1
            )
            if i == j:
                hits.remove((0, 0))
            if not hits:
                continue
            lam = Vec2(Fraction(hits[0][0], den), Fraction(hits[0][1], den))
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
    total_area = Fraction(
        sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in boxes), den * den
    )
    if total_area != basis.covolume:
        violations.append(
            Violation(
                ViolationKind.COVERAGE,
                f"rectangle areas sum to {total_area}, torus area is {basis.covolume}",
            )
        )
    return VerificationReport(valid=not violations, violations=tuple(violations))


def _violation_text(report: VerificationReport) -> str:
    return "; ".join(f"{v.kind.value}: {v.detail}" for v in report.violations)


def _require_valid(tiling: Tiling) -> None:
    report = verify_tiling(tiling)
    if not report.valid:
        raise InvalidTilingError(_violation_text(report))


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
    basis: LatticeBasis,
    segments: Iterable[tuple[Orientation, Fraction, Fraction, Fraction]],
) -> tuple[int, dict[_LineId, _Line], list[tuple[_LineId, tuple[int, ...]]]]:
    """Map axis segments (orientation, along, offset, length) onto torus lines.

    The basis and all segment values are cleared to integers over one
    denominator den.  Each line is cut at the endpoints of the segments on it;
    the result holds den, the lines by (orientation, key) and, per segment in
    input order, its line and the arcs it covers.  Keys (offsets modulo the
    line spacing), cuts and arc lengths are integers over den.
    """
    segments = list(segments)
    den, ints = clear_denominators(
        *basis.entries, *(value for segment in segments for value in segment[1:])
    )
    ux, uy, vx, vy = ints[:4]
    forms = {
        Orientation.H: axis_form(ux, vx, uy, vy),
        Orientation.V: axis_form(uy, vy, ux, vx),
    }
    cut_sets: dict[_LineId, set[int]] = {}
    located = []
    for k, (orientation, *_) in enumerate(segments):
        along, offset, length = ints[4 + 3 * k : 7 + 3 * k]
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
    return den, lines, placed


def _sides(rects: Iterable[Rect]):
    # Bottom, top, left and right side of each rectangle, as _place segments.
    for r in rects:
        yield Orientation.H, r.x0, r.y0, r.width
        yield Orientation.H, r.x0, r.y1, r.width
        yield Orientation.V, r.y0, r.x0, r.height
        yield Orientation.V, r.y0, r.x1, r.height


def _sorted_line_ids(lines: dict[_LineId, _Line]) -> list[_LineId]:
    return sorted(lines, key=lambda line_id: (line_id[0].value, line_id[1]))


def build_skeleton(tiling: Tiling) -> Skeleton:
    """Graph of corner images and subdivided side images on the torus.

    Each rectangle side is split at every vertex lying on its line, and
    coinciding pieces from adjacent rectangles merge into one atomic edge.
    The total edge length equals the tiling length.
    """
    _require_valid(tiling)
    basis = tiling.basis
    den, lines, _ = _place(basis, _sides(tiling.rects))
    # Every cut is a corner image, and every corner lies on one H line.
    vertices = set()
    edges = []
    for (orientation, key), line in lines.items():
        for i, cut in enumerate(line.cuts):
            x, y = (cut, key) if orientation is Orientation.H else (key, cut)
            w = canonicalize(basis, Vec2(Fraction(x, den), Fraction(y, den)))
            if orientation is Orientation.H:
                vertices.add(w)
            if line.covered[i]:
                length = Fraction(line.arc_length(i), den)
                edges.append(SkeletonEdge(w, orientation, length))
    edges.sort(
        key=lambda e: (e.orientation.value, e.origin.rep.x, e.origin.rep.y, e.length)
    )
    ordered = sorted(vertices, key=lambda w: (w.rep.x, w.rep.y))
    return Skeleton(basis, tuple(ordered), tuple(edges))


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
    _, lines, placed = _place(
        skeleton.basis,
        (
            (e.orientation, e.origin.rep.x, e.origin.rep.y, e.length)
            if e.orientation is Orientation.H
            else (e.orientation, e.origin.rep.y, e.origin.rep.x, e.length)
            for e in skeleton.edges
        ),
    )
    edge_at: dict[tuple[_LineId, int], SkeletonEdge] = {}
    for edge, (line_id, arcs) in zip(skeleton.edges, placed):
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
    _require_valid(tiling)
    current = tiling
    steps: list[ReductionStep] = []
    for _ in range(len(tiling.rects) + 2):
        den, lines, placed = _place(current.basis, _sides(current.rects))
        runs_by_axis: dict[Orientation, list] = {
            Orientation.H: [],
            Orientation.V: [],
        }
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
        # Index of the low and high side among a rectangle's _sides.
        lo_side, hi_side = (0, 1) if orientation is Orientation.H else (2, 3)

        def on_target(idx: int, side: int) -> bool:
            line_id, arcs = placed[4 * idx + side]
            if line_id != target_line or target_arcs.isdisjoint(arcs):
                return False
            if not target_arcs.issuperset(arcs):
                raise ReductionStepInvalidError(
                    "rectangle side straddles two maximal paths"
                )
            return True

        s1, s2, s3 = [], [], []
        hi_on, lo_on = {}, {}
        for idx in range(len(current.rects)):
            hi_on[idx] = on_target(idx, hi_side)
            lo_on[idx] = on_target(idx, lo_side)
            if hi_on[idx] and lo_on[idx]:
                s1.append(idx)
            elif hi_on[idx]:
                s2.append(idx)
            elif lo_on[idx]:
                s3.append(idx)

        mirrored = len(s2) < len(s3)
        working = s3 if mirrored else s2
        if not working:
            raise ReductionStepInvalidError(
                "several maximal paths but no shiftable rectangle on the chosen one"
            )
        direction = 1 if mirrored else -1
        if orientation is Orientation.H:
            shrink = min(current.rects[i].height for i in working)
        else:
            shrink = min(current.rects[i].width for i in working)

        new_rects = []
        eliminated = []
        for idx, r in enumerate(current.rects):
            lo_b, hi_b = (r.y0, r.y1) if orientation is Orientation.H else (r.x0, r.x1)
            new_lo = lo_b + direction * shrink if lo_on[idx] else lo_b
            new_hi = hi_b + direction * shrink if hi_on[idx] else hi_b
            if new_lo == new_hi:
                eliminated.append(idx)
                continue
            if orientation is Orientation.H:
                new_rects.append(Rect(r.x0, r.x1, new_lo, new_hi))
            else:
                new_rects.append(Rect(new_lo, new_hi, r.y0, r.y1))

        if not eliminated:
            raise ReductionStepInvalidError("shift eliminated no rectangle")
        new_tiling = Tiling(current.basis, tuple(new_rects))
        check = verify_tiling(new_tiling)
        if not check.valid:
            raise ReductionStepInvalidError(
                "rebuilt tiling is invalid: " + _violation_text(check)
            )
        length_before = tiling_length(current)
        length_after = tiling_length(new_tiling)
        if not length_after < length_before:
            raise ReductionStepInvalidError("reduction step did not shorten the tiling")
        steps.append(
            ReductionStep(
                axis=orientation,
                line_key=Fraction(target_line[1], den),
                path_start=Fraction(target_start, den),
                mirrored=mirrored,
                s1=tuple(s1),
                s2=tuple(s2),
                s3=tuple(s3),
                shrink=shrink,
                eliminated=tuple(eliminated),
                length_before=length_before,
                length_after=length_after,
            )
        )
        current = new_tiling
    else:
        raise ReductionStepInvalidError("reduction did not terminate")
    return current, tuple(steps)
