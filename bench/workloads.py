"""Seeded inputs, the timed operation and its output check for each workload.

A workload turns its seed into a pool of inputs before timing starts; the
library only ever sees those inputs.  Each input belongs to a level: a rung of
the ladder the workload varies (lattice skew, rectangle count, box size) or an
input class.  The pool is ordered so that every prefix holds the levels in the
same proportion as the whole pool, which keeps a time-bounded run's mix, and
so its percentiles, the same from run to run.

Operations call the library through module attributes (``lattice.min_length``)
so that the traced run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from torus_rect_tiler import exact_math, lattice, skeleton, svg, tiling
from torus_rect_tiler.exact_math import Vec2, l1_norm
from torus_rect_tiler.lattice import LatticeBasis, Winner
from torus_rect_tiler.skeleton import ViolationKind
from torus_rect_tiler.tiling import Rect, Tiling


@dataclass(frozen=True)
class Item:
    """One generated input.

    ``x`` is the numeric ladder value used for growth fits (0 when the level
    is a class, not a rung); ``expect`` is what the output check compares
    against, computed at set-up.
    """

    level: str
    x: int
    payload: object
    expect: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[random.Random], list[Item]]
    op: Callable[[Item], object]
    # (errors, exact output text for the digest, input properties)
    check: Callable[[Item, object], tuple[list[str], str, dict]]
    # layers whose per-op time is fitted against the ladder value ``x``
    growth_layers: tuple[str, ...] = ()


def interleave(groups: list[list[Item]]) -> list[Item]:
    """Smooth weighted round robin: any prefix holds each group in proportion."""
    total = sum(len(g) for g in groups)
    credit = [0] * len(groups)
    taken = [0] * len(groups)
    order = []
    for _ in range(total):
        for i, g in enumerate(groups):
            credit[i] += len(g)
        pick = max(range(len(groups)), key=lambda i: (credit[i], -i))
        credit[pick] -= total
        order.append(groups[pick][taken[pick]])
        taken[pick] += 1
    return order


def skew(basis: LatticeBasis) -> float:
    return float(l1_norm(basis.u) * l1_norm(basis.v) / basis.covolume)


def den_bits(basis: LatticeBasis, rects=()) -> int:
    values = [basis.u.x, basis.u.y, basis.v.x, basis.v.y]
    for r in rects:
        values += [r.x0, r.x1, r.y0, r.y1]
    return max(Fraction(v).denominator.bit_length() for v in values)


def random_int_basis(rng: random.Random, bound: int) -> LatticeBasis:
    while True:
        a, b, c, d = (rng.randint(-bound, bound) for _ in range(4))
        if a * d - b * c:
            return LatticeBasis(Vec2(a, b), Vec2(c, d))


def random_unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return a, b, c, d


def split_rects(rng: random.Random, rects, count: int) -> tuple[Rect, ...]:
    """Cut random rectangles at interior fifths until there are ``count``."""
    rects = list(rects)
    while len(rects) < count:
        i = rng.randrange(len(rects))
        r = rects[i]
        t = Fraction(rng.randint(1, 4), 5)
        if rng.random() < 0.5:
            cut = r.x0 + r.width * t
            rects[i : i + 1] = [Rect(r.x0, cut, r.y0, r.y1), Rect(cut, r.x1, r.y0, r.y1)]
        else:
            cut = r.y0 + r.height * t
            rects[i : i + 1] = [Rect(r.x0, r.x1, r.y0, cut), Rect(r.x0, r.x1, cut, r.y1)]
    return tuple(rects)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def json_round_trip(t: Tiling) -> Tiling:
    """The CLI's tiling file I/O, without the file: dict, text and back."""
    text = json.dumps(tiling.tiling_to_json_dict(t))
    return tiling.tiling_from_json_dict(json.loads(text))


def _kinds(report) -> set[str]:
    return {v.kind.value for v in report.violations}


# ---------------------------------------------------------------------------
# bases-mix: the CLI pipeline on small random bases, half of them rational.
#
# Bases with skew above MAX_MIX_SKEW are drawn again.  About one random
# rational basis in a few hundred is nearly singular (skew 10^4 and more), and
# its render alone then takes seconds, so whether a run held one would decide
# its throughput.  Cost growth with skew is what skew-ladder measures.

BASES_PER_CLASS = 200
MAX_MIX_SKEW = 32


def _random_rational_text(rng: random.Random) -> str:
    while True:
        parts = []
        for _ in range(4):
            d = rng.randint(1, 1000)
            parts.append((rng.randint(-20 * d, 20 * d), d))
        (a, p), (b, q), (c, r), (d, s) = parts
        if Fraction(a, p) * Fraction(d, s) != Fraction(b, q) * Fraction(c, r):
            return " ".join(f"{n}/{m}" for n, m in parts)


def _basis_of(text: str) -> LatticeBasis:
    ux, uy, vx, vy = (Fraction(p) for p in text.split())
    return LatticeBasis(Vec2(ux, uy), Vec2(vx, vy))


def _gen_bases_mix(rng: random.Random) -> list[Item]:
    groups = []
    for level in ("int", "rational"):
        group = []
        while len(group) < BASES_PER_CLASS:
            if level == "int":
                b = random_int_basis(rng, 20)
                text = f"{b.u.x} {b.u.y} {b.v.x} {b.v.y}"
            else:
                text = _random_rational_text(rng)
            if skew(_basis_of(text)) <= MAX_MIX_SKEW:
                group.append(Item(level, 0, text))
        groups.append(group)
    return interleave(groups)


def _op_bases_mix(item: Item):
    ux, uy, vx, vy = (exact_math.parse_rational(p) for p in item.payload.split())
    basis = LatticeBasis(Vec2(ux, uy), Vec2(vx, vy))
    report = lattice.min_length(basis)
    built = tiling.build_optimal(basis, report)
    loaded = json_round_trip(built)
    verdict = skeleton.verify_tiling(loaded)
    graph = skeleton.build_skeleton(loaded)
    paths = skeleton.decompose_axis_paths(graph)
    picture = svg.render_tiling_svg(loaded)
    return report, built, loaded, verdict, graph, paths, picture


def _check_bases_mix(item: Item, out):
    report, built, loaded, verdict, graph, paths, picture = out
    errors = []
    length = tiling.tiling_length(built)
    if length != report.min_length:
        errors.append(f"tiling length {length} != min_length {report.min_length}")
    if loaded != built:
        errors.append("JSON round trip changed the tiling")
    if not verdict.valid:
        errors.append(f"optimal tiling rejected: {_kinds(verdict)}")
    if graph.total_length != length:
        errors.append(f"skeleton length {graph.total_length} != tiling length {length}")
    try:
        root = ET.fromstring(picture)
        tiles = sum(1 for el in root.iter() if el.get("class") == "tile")
        if tiles != len(built.rects):
            errors.append(f"SVG has {tiles} tiles for {len(built.rects)} rectangles")
    except ET.ParseError as exc:
        errors.append(f"SVG is not XML: {exc}")
    text = _dumps(
        {
            "minlen": report.to_json_dict(),
            "tiling": tiling.tiling_to_json_dict(built),
            "verify": verdict.to_json_dict(),
            "edges": [
                [str(e.origin.rep), e.orientation.value, str(e.length)]
                for e in graph.edges
            ],
            "paths": [len(paths.cycles_h), len(paths.paths_h), len(paths.cycles_v), len(paths.paths_v)],
        }
    )
    basis = built.basis
    props = {"skew": skew(basis), "den_bits": den_bits(basis), "rects": len(built.rects)}
    return errors, text, props


# ---------------------------------------------------------------------------
# skew-ladder: the certified search on sheared lattices.
#
# A level k holds the Z^2 family (1,1),(k,k+1) and random small lattices
# sheared v <- v + m*u.  The search in quadrant_basis scans about
# 2*B^2 coefficient pairs, where B = N(B^-1) * max(|q1|, |q2|) is its
# certified bound; m is chosen per lattice so that B lies within 4% of the
# family's bound 2(k+2).  Shearing by the bare k instead would make a level's
# cost depend mostly on which base lattices the seed drew.
# Counts put p50 at the middle of the k=30 rung and p90 at the middle of the
# k=200 rung, where a rung's spread of costs moves the percentile least.

SKEW_LADDER = {10: 25, 30: 50, 100: 5, 200: 20}


def _sheared_item(rng: random.Random, k: int) -> Item:
    target = 2 * (k + 2)
    while True:
        base = random_int_basis(rng, 6)
        if skew(base) > 3:
            continue
        report = lattice.min_length(base)
        qb = report.witness
        worst = int(max(l1_norm(qb.u1), l1_norm(qb.u2)))
        (ux, uy), (wx, wy) = (int(base.u.x), int(base.u.y)), (int(base.v.x), int(base.v.y))
        goal = target * int(base.covolume)
        best = None
        for m in range(1, 100 * target):
            # certified bound times the covolume, in integers
            bound = max(abs(wy + m * uy) + abs(uy), abs(wx + m * ux) + abs(ux)) * worst
            if best is None or abs(bound - goal) < best[0]:
                best = (abs(bound - goal), m)
            if bound > 2 * goal:
                break
        if best[0] * 25 <= goal:
            sheared = LatticeBasis(base.u, base.v + base.u.scaled(best[1]))
            return Item(f"k={k}", k, sheared, report.min_length)


def _gen_skew_ladder(rng: random.Random) -> list[Item]:
    groups = []
    for k, count in SKEW_LADDER.items():
        family = LatticeBasis(Vec2(1, 1), Vec2(k, k + 1))
        unsheared = LatticeBasis(Vec2(1, 1), Vec2(0, 1))
        group = [Item(f"k={k}", k, family, lattice.min_length(unsheared).min_length)]
        group += [_sheared_item(rng, k) for _ in range(count - 1)]
        groups.append(group)
    return interleave(groups)


def _op_skew_ladder(item: Item):
    report = lattice.min_length(item.payload)
    built = tiling.build_optimal(item.payload, report)
    return report, built, skeleton.verify_tiling(built)


def _check_skew_ladder(item: Item, out):
    report, built, verdict = out
    errors = []
    if report.min_length != item.expect:
        errors.append(f"min_length {report.min_length} != unsheared {item.expect}")
    if tiling.tiling_length(built) != report.min_length:
        errors.append("tiling length differs from min_length")
    if not verdict.valid:
        errors.append(f"optimal tiling rejected: {_kinds(verdict)}")
    text = _dumps(
        {
            "minlen": report.to_json_dict(),
            "tiling": tiling.tiling_to_json_dict(built),
            "verify": verdict.to_json_dict(),
        }
    )
    basis = item.payload
    props = {"skew": skew(basis), "den_bits": den_bits(basis), "rects": len(built.rects)}
    return errors, text, props


# ---------------------------------------------------------------------------
# split-reduce: skeleton and path-merging reduction on cycle-free split tilings.
#
# A split tiling can be cycle-free and still reach an axis cycle part way
# through the reduction, which then raises CycleExistsError (about one tiling
# in 500 at these sizes).  Such a tiling is outside the reduction's domain, so
# set-up runs the reduction once on every candidate and draws again when it
# raises.  To bound that set-up cost, each tiling appears twice in a pass.
# Counts put p50 inside the 8-rectangle rung and p90 at the middle of the 16
# rung, where its spread of costs moves the percentile least, while a run
# still completes well over 100 operations.

SPLIT_LADDER = {8: 41, 16: 8, 32: 1}
SPLIT_REPEATS = 2


def _split_item(rng: random.Random, count: int) -> Item:
    while True:
        basis = random_int_basis(rng, 20)
        report = lattice.min_length(basis)
        if report.winner is not Winner.TWO_RECT:
            continue  # a one-rectangle tiling is an axis cycle: reduction does not apply
        rects = split_rects(rng, tiling.build_optimal(basis, report).rects, count)
        t = Tiling(basis, rects)
        try:
            skeleton.reduce_tiling_with_trace(t)
        except skeleton.CycleExistsError:
            continue
        return Item(f"rects={count}", count, t, report.min_length)


def _gen_split_reduce(rng: random.Random) -> list[Item]:
    groups = [[_split_item(rng, n) for _ in range(c)] for n, c in SPLIT_LADDER.items()]
    return interleave([group * SPLIT_REPEATS for group in groups])


def _op_split_reduce(item: Item):
    before = skeleton.verify_tiling(item.payload)
    graph = skeleton.build_skeleton(item.payload)
    paths = skeleton.decompose_axis_paths(graph)
    reduced, steps = skeleton.reduce_tiling_with_trace(item.payload)
    after = skeleton.verify_tiling(reduced)
    return before, paths, reduced, steps, after


def _check_split_reduce(item: Item, out):
    before, paths, reduced, steps, after = out
    t = item.payload
    errors = []
    if not before.valid:
        errors.append(f"split tiling rejected: {_kinds(before)}")
    if paths.cycles_h or paths.cycles_v:
        errors.append("cycle found in a cycle-free tiling")
    if not after.valid:
        errors.append(f"reduced tiling rejected: {_kinds(after)}")
    length_in, length_out = tiling.tiling_length(t), tiling.tiling_length(reduced)
    if not item.expect <= length_out <= length_in:
        errors.append(f"reduced length {length_out} outside [{item.expect}, {length_in}]")
    final = skeleton.decompose_axis_paths(skeleton.build_skeleton(reduced))
    if (len(final.paths_h), len(final.paths_v)) != (1, 1) or final.cycles_h or final.cycles_v:
        errors.append("reduced tiling does not have one path per axis")
    text = _dumps(
        {
            "reduced": tiling.tiling_to_json_dict(reduced),
            "steps": [s.to_json_dict() for s in steps],
            "verify": after.to_json_dict(),
        }
    )
    props = {"skew": skew(t.basis), "den_bits": den_bits(t.basis, t.rects), "rects": len(t.rects)}
    return errors, text, props


# ---------------------------------------------------------------------------
# verify-reject: invalid tilings whose box queries return points.
#
# Oversized squares sit on covolume-1 lattices (unimodular bases of Z^2, or
# of the rational lattice spanned by (q, 0) and (0, 1/q)), so a square of side
# s meets about 4*s^2 lattice points whatever the seed.  Points of a rational
# lattice cost more to list than those of Z^2, so the s=40 rung, which holds
# p90, is all Z^2 and twice as large as the others: p90 then sits among
# squares of one cost.  The cheap duplicate and shortfall classes hold p50.

# side -> (squares over Z^2, squares over a rational lattice)
SQUARES = {20: (2, 2), 30: (2, 2), 40: (8, 0), 50: (2, 2), 60: (2, 2)}
CHEAP_PER_CLASS = 40
CHEAP_RECTS = 6

OVERSIZE = frozenset({ViolationKind.INJECTIVITY.value, ViolationKind.COVERAGE.value})
DUPLICATE = frozenset({ViolationKind.OVERLAP.value, ViolationKind.COVERAGE.value})
SHORTFALL = frozenset({ViolationKind.COVERAGE.value})


def _unit_lattice(rng: random.Random, rational: bool) -> LatticeBasis:
    a, b, c, d = random_unimodular(rng)
    q = Fraction(rng.randint(2, 12)) if rational else Fraction(1)
    return LatticeBasis(Vec2(a * q, b / q), Vec2(c * q, d / q))


def _square_item(rng: random.Random, side: int, rational: bool) -> Item:
    basis = _unit_lattice(rng, rational)
    x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    y0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    square = Tiling(basis, (Rect(x0, x0 + side, y0, y0 + side),))
    return Item(f"side={side}", side, square, OVERSIZE)


def _cheap_item(rng: random.Random, duplicate: bool) -> Item:
    basis = random_int_basis(rng, 20)
    rects = list(split_rects(rng, tiling.build_optimal(basis).rects, CHEAP_RECTS))
    i = rng.randrange(len(rects))
    if duplicate:
        shift = lattice.lattice_point(basis, rng.randint(-2, 2), rng.randint(-2, 2))
        r = rects[i]
        rects.append(Rect(r.x0 + shift.x, r.x1 + shift.x, r.y0 + shift.y, r.y1 + shift.y))
        return Item("duplicate", 0, Tiling(basis, tuple(rects)), DUPLICATE)
    del rects[i]
    return Item("shortfall", 0, Tiling(basis, tuple(rects)), SHORTFALL)


def _gen_verify_reject(rng: random.Random) -> list[Item]:
    groups = [
        [_square_item(rng, side, rational=False) for _ in range(ints)]
        + [_square_item(rng, side, rational=True) for _ in range(rationals)]
        for side, (ints, rationals) in SQUARES.items()
    ]
    groups.append([_cheap_item(rng, duplicate=True) for _ in range(CHEAP_PER_CLASS)])
    groups.append([_cheap_item(rng, duplicate=False) for _ in range(CHEAP_PER_CLASS)])
    return interleave(groups)


def _op_verify_reject(item: Item):
    return skeleton.verify_tiling(item.payload)


def _check_verify_reject(item: Item, out):
    t = item.payload
    errors = []
    if out.valid or _kinds(out) != item.expect:
        errors.append(f"violations {sorted(_kinds(out))} != planted {sorted(item.expect)}")
    props = {"skew": skew(t.basis), "den_bits": den_bits(t.basis, t.rects), "rects": len(t.rects)}
    return errors, _dumps(out.to_json_dict()), props


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bases-mix", _gen_bases_mix, _op_bases_mix, _check_bases_mix),
        Workload(
            "skew-ladder",
            _gen_skew_ladder,
            _op_skew_ladder,
            _check_skew_ladder,
            growth_layers=("lattice.quadrant_basis",),
        ),
        Workload(
            "split-reduce",
            _gen_split_reduce,
            _op_split_reduce,
            _check_split_reduce,
            growth_layers=("skeleton.verify_tiling", "skeleton.reduce_tiling_with_trace"),
        ),
        Workload("verify-reject", _gen_verify_reject, _op_verify_reject, _check_verify_reject),
    )
}


def generate(name: str, seed: int) -> list[Item]:
    """The pool for one workload; the same seed always gives the same pool."""
    return WORKLOADS[name].generate(random.Random(f"{name}:{seed}"))
