"""Exact outputs pinned by one digest.

Seeded tilings over integer and rational bases, of five kinds: optimal, one
rectangle (axis cycles), split, duplicated, and split with one rectangle
shifted off the lattice (refused by boundary cancellation, not by area).  For
each, the digest covers the ``verify_tiling`` report, the ``skeleton``
command's stdout, stderr and exit code, the decomposition of a
``dataclasses.replace`` copy of the skeleton (which places its edges afresh)
and the ``reduce`` trace, or the error each call raised.  A change to any of
these outputs changes the digest.
"""

import dataclasses
import hashlib
import json
import random

from torus_rect_tiler import (
    Axis,
    Rect,
    Tiling,
    build_one_rect,
    build_optimal,
    build_skeleton,
    decompose_axis_paths,
    reduce_tiling_with_trace,
    tiling_length,
    tiling_to_json_dict,
    verify_tiling,
)
from torus_rect_tiler.cli import main
from conftest import random_int_basis, random_rational_basis, random_split_tiling

DIGEST = "72b7298bd973fb983b0d5151eb5e829bdfe815e5d36d422a9df53dc69baf3c7b"


def _shifted(rng: random.Random, tiling: Tiling) -> Tiling:
    # One rectangle moved by a third of its width and a fifth of its height.
    rects = list(tiling.rects)
    i = rng.randrange(len(rects))
    r = rects[i]
    dx, dy = r.width / 3, r.height / 5
    rects[i] = Rect(r.x0 + dx, r.x1 + dx, r.y0 + dy, r.y1 + dy)
    return Tiling(tiling.basis, tuple(rects))


def _tilings():
    rng = random.Random(29)
    for trial in range(40):
        basis = random_rational_basis(rng) if trial % 2 else random_int_basis(rng)
        optimal = build_optimal(basis)
        split = random_split_tiling(rng, optimal, max_splits=4)
        yield "optimal", optimal
        yield "one-rect", build_one_rect(basis, (Axis.X, Axis.Y)[trial // 2 % 2])
        yield "split", split
        yield "duplicated", Tiling(basis, optimal.rects * 2)
        yield "shifted", _shifted(rng, random_split_tiling(rng, optimal, max_splits=3))


def _outcome(function, *args):
    try:
        return function(*args)
    except ValueError as error:
        return f"{type(error).__name__}: {error}"


def test_outputs_match_the_pinned_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "tiling.json"
    kinds, refused_by_cancellation = {}, 0
    for kind, tiling in _tilings():
        kinds[kind] = kinds.get(kind, 0) + 1
        report = verify_tiling(tiling).to_json_dict()
        if kind == "shifted":
            violations = {v["kind"] for v in report["violations"]}
            refused_by_cancellation += bool(violations) and "coverage" not in violations
        path.write_text(json.dumps(tiling_to_json_dict(tiling)))
        code = main(["skeleton", "-t", str(path)])
        printed = capsys.readouterr()
        sk = _outcome(build_skeleton, tiling)
        if not isinstance(sk, str):
            sk = repr(decompose_axis_paths(dataclasses.replace(sk)))
        reduced = _outcome(reduce_tiling_with_trace, tiling)
        if not isinstance(reduced, str):
            result, steps = reduced
            reduced = {
                "tiling": tiling_to_json_dict(result),
                "length": str(tiling_length(result)),
                "trace": [step.to_json_dict() for step in steps],
            }
        doc = [kind, report, code, printed.out, printed.err, sk, reduced]
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert kinds == dict.fromkeys(
        ("optimal", "one-rect", "split", "duplicated", "shifted"), 40
    )
    assert refused_by_cancellation == 40
    assert digest.hexdigest() == DIGEST
