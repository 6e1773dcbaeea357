"""The integer line model and the boundary-cancellation certificate.

A tiling has one integer form (den, cleared, boxes), made by one
``clear_denominators`` call (``_clear``): the basis (ux, uy, vx, vy) and each
rectangle as a box (x0, x1, y0, y1), all integers over den.  Verification,
placement, canonical points, the reduction's shifts and the picture run on
it; only emitted values become fractions.  Each line family is read off the
integer Hermite form {a*(d_x, 0) + b*(shear, g_y)} of the cleared lattice
(``lattice.axis_forms``), and ``_locate``, the one model of a line, maps a
point to its line and its start along it with one divmod and one remainder.
The certificate's placement (``_Placement``), which only ``_certify``
writes, holds each certified side as (start, length) on its line.  The
certificate counts side endpoints; the other readers link segments (sides or
skeleton edges) end to start (``_chains``) or cut a line into arcs at the
sorted endpoints (``_cuts``).

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
``lattice.box_points`` that writes the report (``skeleton._violations``).
The certificate's placement is the one the skeleton and the reduction read.

On a line that cancels, the bottom (left) sides are disjoint and cover what
the top (right) sides cover.  So the line is an axis cycle exactly when their
lengths sum to its period (``_cancels``), the chains of its bottom sides
(``_chains``) are its maximal runs, and an arc between two cuts is covered
exactly when a bottom side covers it (``skeleton.build_skeleton``).
"""

from __future__ import annotations

from typing import Collection, Iterable

from .exact_math import clear_denominators
from .lattice import axis_forms
from .tiling import Tiling

_Ints = tuple[int, int, int, int]  # a cleared basis or box
_LineId = tuple[str, int]  # (orientation value, line key)


def _clear(tiling: Tiling) -> tuple[int, _Ints, list[_Ints]]:
    """The integer form (den, cleared, boxes) of a tiling."""
    den, ints = clear_denominators(
        *tiling.basis.entries,
        *(c for r in tiling.rects for c in (r.x0, r.x1, r.y0, r.y1)),
    )
    return den, ints[:4], [ints[k : k + 4] for k in range(4, len(ints), 4)]


def _locate(forms: dict, orientation: str, x: int, y: int) -> tuple[_LineId, int]:
    """The line through (x, y) in +x ("h") or +y ("v"), and the point's start
    along it in [0, period), from the Hermite forms (spacing, period, shear)
    by orientation.  A line is (orientation, line key), the line key being
    the offset across the line modulo the spacing."""
    along, offset = (x, y) if orientation == "h" else (y, x)
    spacing, period, shear = forms[orientation]
    # The lattice vector steps*(shear, spacing) moves the point onto the line
    # of line_key in [0, spacing).
    steps, line_key = divmod(offset, spacing)
    return (orientation, line_key), (along - steps * shear) % period


class _Placement:
    """The certificate's state, written only by ``_certify``: the certified
    boxes, their area, their length (the sum of their half-perimeters), the
    Hermite form of each line family by orientation, and the boxes' sides,
    each under its own key, held by torus line as (start, length)
    (``_locate``), with the line each key lies on.  Side values, line keys,
    cuts and arc lengths are integers over the denominator of the cleared
    basis.
    """

    def __init__(self, cleared: _Ints):
        self.cleared = cleared
        self.forms = dict(zip("hv", axis_forms(*cleared)))
        self.boxes: dict[int, _Ints] = {}  # the boxes whose sides _certify placed
        self.area = 0  # of those boxes
        self.length = 0  # their half-perimeters summed
        self.on_line: dict[_LineId, dict] = {}  # line -> {key: (start, length)}
        self.line_of: dict = {}  # key -> line


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


def _cancels(
    placement: _Placement, line_ids: Iterable[_LineId]
) -> list[_LineId] | None:
    """The axis cycles among these lines, in their order, when every point of
    them has as many bottom (left) sides over it as top (right) sides, and
    None when one does not; sides are keyed (box id, side index): 0 bottom,
    1 top, 2 left, 3 right.  A line's signed count changes only at side
    endpoints, so it is 0 everywhere when the signs balance at every endpoint
    and the count over position 0 is 0; a side [start, start + length) lies
    over position 0 when it starts there or wraps past it.  A line that
    cancels is a cycle exactly when its bottom sides sum to its period.
    """
    on_line, forms, cycles = placement.on_line, placement.forms, []
    for line_id in line_ids:
        period = forms[line_id[0]][1]
        jumps: dict[int, int] = {}
        over_zero = covered = 0
        for (_, side), (start, n) in on_line[line_id].items():
            sign = -1 if side % 2 else 1  # top and right sides are odd
            if sign > 0:
                covered += n
            end = start + n
            if start == 0 or end > period:
                over_zero += sign
            jumps[start] = jumps.get(start, 0) + sign
            if end >= period:  # no side is longer than its line
                end -= period
            jumps[end] = jumps.get(end, 0) - sign
        if over_zero or any(jumps.values()):
            return None
        if not covered:
            raise RuntimeError(f"line {line_id} has sides but no bottom side")
        if covered == period:
            cycles.append(line_id)
    return cycles


def _certify(
    placement: _Placement, edits: dict[int, _Ints | None]
) -> list[_LineId] | None:
    """Apply the edits (box id -> new box, or None to drop the box) to the
    placement's boxes, their area, their length and their sides, keyed (box
    id, side index) as in ``_cancels``.  Returns the touched lines that are
    axis cycles, sorted (often none: test the result with ``is None``), when
    the edited boxes tile the torus, and None when they do not.  A line is
    touched when a side leaves or joins it: a side whose line, start and
    length are unchanged touches none, a moved side leaves its old line for
    its new one, and a dropped box leaves the lines of all four sides.  Lines
    left without sides are dropped from the placement, and no line is cut
    into arcs.

    Exact, by the degree argument of the module docstring, when the boxes
    placed before either tiled the torus or were none: so a whole tiling is
    certified by applying ``dict(enumerate(boxes))`` to an empty placement.
    The area test runs first, on the area kept from the edited boxes, and
    places no side; then the side-length guard, then the endpoint counts and
    bottom lengths of ``_cancels`` on the touched lines.  The boxes, their
    area and their length hold the edits even after None, but the sides are
    then of no use.
    """
    boxes, area, length = placement.boxes, placement.area, placement.length
    for k, box in edits.items():
        old = boxes.get(k)
        if old:
            x0, x1, y0, y1 = old
            area -= (x1 - x0) * (y1 - y0)
            length -= x1 - x0 + y1 - y0
        if box:
            x0, x1, y0, y1 = boxes[k] = box
            area += (x1 - x0) * (y1 - y0)
            length += x1 - x0 + y1 - y0
        else:
            del boxes[k]
    placement.area, placement.length = area, length
    ux, uy, vx, vy = placement.cleared
    if area != abs(ux * vy - uy * vx):
        return None
    width, height = placement.forms["h"][1], placement.forms["v"][1]
    if any(
        x1 - x0 > width or y1 - y0 > height
        for x0, x1, y0, y1 in filter(None, edits.values())
    ):
        return None
    forms, on_line, line_of = placement.forms, placement.on_line, placement.line_of
    touched: set[_LineId] = set()
    for k, box in edits.items():
        if not box:
            for side in range(4):
                line_id = line_of.pop((k, side))
                del on_line[line_id][k, side]
                touched.add(line_id)
            continue
        x0, x1, y0, y1 = box
        w, h = x1 - x0, y1 - y0
        for key, orientation, x, y, n in (
            ((k, 0), "h", x0, y0, w),
            ((k, 1), "h", x0, y1, w),
            ((k, 2), "v", x0, y0, h),
            ((k, 3), "v", x1, y0, h),
        ):
            line_id, start = _locate(forms, orientation, x, y)
            old = line_of.get(key)
            if old is not None:
                if old == line_id and on_line[old][key] == (start, n):
                    continue  # an unchanged side touches no line
                del on_line[old][key]
                touched.add(old)
            segments = on_line.get(line_id)
            if segments is None:
                on_line[line_id] = segments = {}
            segments[key] = start, n
            line_of[key] = line_id
            touched.add(line_id)
    for line_id in touched:
        if not on_line[line_id]:
            del on_line[line_id]
    return _cancels(placement, sorted(touched.intersection(on_line)))
