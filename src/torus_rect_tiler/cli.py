"""Command-line front end with exact rational I/O.

Exit codes: 0 success, 1 input or usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys

from .exact_math import Vec2, parse_rational, sign_key
from .lattice import (
    LatticeBasis,
    QuadrantBasis,
    _inverse_l1_norm,
    enumerate_lattice_points,
    min_length,
)
from .skeleton import (
    CycleExistsError,
    InvalidTilingError,
    ReductionStepInvalidError,
    build_skeleton,
    decompose_axis_paths,
    reduce_tiling_with_trace,
    verify_tiling,
)
from .svg import point_bound, render_tiling_svg
from .tiling import (
    Axis,
    AxisAlignedGeneratorError,
    Tiling,
    build_one_rect,
    build_optimal,
    build_two_rect,
    tiling_from_json_dict,
    tiling_length,
    tiling_to_json_dict,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2

# Largest N = floor(N(B^-1) * radius) `oracle` accepts.  It lists the square
# [-radius, radius]^2 and keeps the l1 ball; every point listed has
# |z1| + |z2| <= 2N + 2, so box_points visits at most about 4N lines and 8N^2
# points, about 1 s.
ORACLE_MAX_COEFFICIENT = 120
# Largest certified bound on the lattice points `render` draws, at about
# 5 us per point: the largest accepted picture (19 460 points, from
# `build -b "1 1 115 116"`) takes about a tenth of a second on a 2-CPU x86_64
# host.
RENDER_MAX_POINTS = 20_000
# Largest `render --width`: the text of each coordinate grows with the width's
# digits, which RENDER_MAX_POINTS does not bound.
RENDER_MAX_WIDTH = 10**6


class CliError(Exception):
    """Input problem; reported on stderr with exit code 1."""


_TOO_MANY_DIGITS = "a number has too many digits to read or print"


def _past_digit_limit(exc: ValueError) -> bool:
    # Python converts no int of over sys.get_int_max_str_digits() digits to or
    # from text, and its message would advise sys.set_int_max_str_digits().
    return "integer string conversion" in str(exc)


def _read(parse, value, prefix=""):
    """parse(value) on user input, with a ValueError reported as a CliError."""
    try:
        return parse(value)
    except ValueError as exc:
        raise CliError(
            _TOO_MANY_DIGITS if _past_digit_limit(exc) else prefix + str(exc)
        ) from None


def _int_option(text: str) -> int:
    # argparse reports a ValueError as usage and an echo of every digit, and
    # lets other exceptions through to main.
    try:
        return int(text)
    except ValueError as exc:
        if _past_digit_limit(exc):
            raise CliError(_TOO_MANY_DIGITS) from None
        raise


_int_option.__name__ = "int"  # argparse's "invalid int value" names the type


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # verification failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # Help and usage text for stdout goes through _emit: argparse would drop
    # a failed write and exit 0, or leave it to Python's flush at exit.  A
    # closed stdout reaches here as file None.
    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _emit(message, None)
        else:
            super()._print_message(message, file)


def _parse_basis(text: str) -> LatticeBasis:
    # Only ASCII whitespace separates the rationals, as in parse_rational.
    # Each token is read before they are counted, so a refused one is named.
    values = [parse_rational(p) for p in re.findall(r"\S+", text, re.ASCII)]
    if len(values) != 4:
        raise ValueError(
            f"basis needs four rationals 'ux uy vx vy', got {len(values)} items"
        )
    ux, uy, vx, vy = values
    return LatticeBasis(Vec2(ux, uy), Vec2(vx, vy))


def _load_tiling(path: str, basis_text) -> Tiling:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise CliError(f"JSON in {path} is nested too deeply") from None
    tiling = _read(tiling_from_json_dict, doc, f"bad tiling document in {path}: ")
    if basis_text is not None and _read(_parse_basis, basis_text) != tiling.basis:
        raise CliError("basis on the command line differs from the tiling file")
    return tiling


def _emit(text: str, output) -> None:
    try:
        if output is None:
            if sys.stdout is None:  # Python's stdout when fd 1 was closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        if output is None and sys.stdout is not None:
            # so that Python's flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "standard output" if output is None else output
        raise CliError(f"cannot write {where}: {exc}") from None


def _emit_json(doc, output) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", output)


def _sign_pair_from_basis(basis: LatticeBasis) -> QuadrantBasis:
    """Reuse the input vectors for a forced two-rectangle build.

    Needs one strictly off-axis same-sign vector and one opposite-sign vector,
    in either order; signs are canonicalized.
    """
    for first, second in ((basis.u, basis.v), (basis.v, basis.u)):
        _, y1, x1 = sign_key(first.x, first.y)
        _, y2, x2 = sign_key(second.x, second.y)
        if x1 >= 0 and x2 < 0:
            if x1 * y1 == 0:
                raise AxisAlignedGeneratorError(
                    f"{first} lies on an axis; the two-rectangle construction "
                    "does not apply"
                )
            return QuadrantBasis(Vec2(x1, y1), Vec2(x2, y2))
    raise AxisAlignedGeneratorError(
        "basis does not split into a same-sign and an opposite-sign vector"
    )


def _cmd_minlen(args) -> int:
    basis = _read(_parse_basis, args.basis)
    _emit_json(min_length(basis).to_json_dict(), args.output)
    return EXIT_OK


def _cmd_build(args) -> int:
    basis = _read(_parse_basis, args.basis)
    if args.force == "one-rect-x":
        tiling = build_one_rect(basis, Axis.X)
    elif args.force == "one-rect-y":
        tiling = build_one_rect(basis, Axis.Y)
    elif args.force == "two-rect":
        tiling = build_two_rect(basis, _sign_pair_from_basis(basis))
    else:
        tiling = build_optimal(basis)
    _emit_json(tiling_to_json_dict(tiling), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    tiling = _load_tiling(args.tiling, args.basis)
    report = verify_tiling(tiling)
    _emit_json(report.to_json_dict(), args.output)
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_skeleton(args) -> int:
    tiling = _load_tiling(args.tiling, args.basis)
    skeleton = build_skeleton(tiling)
    decomposition = decompose_axis_paths(skeleton)
    doc = {
        "vertices": [[str(w.rep.x), str(w.rep.y)] for w in skeleton.vertices],
        "edges": [
            {
                "origin": [str(e.origin.rep.x), str(e.origin.rep.y)],
                "axis": e.orientation.value,
                "length": str(e.length),
            }
            for e in skeleton.edges
        ],
        "total_length": str(skeleton.total_length),
        "cycles_h": len(decomposition.cycles_h),
        "paths_h": len(decomposition.paths_h),
        "cycles_v": len(decomposition.cycles_v),
        "paths_v": len(decomposition.paths_v),
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    tiling = _load_tiling(args.tiling, args.basis)
    reduced, steps = reduce_tiling_with_trace(tiling)
    doc = {
        "tiling": tiling_to_json_dict(reduced),
        "length": str(tiling_length(reduced)),
        "trace": [step.to_json_dict() for step in steps],
    }
    _emit_json(doc, args.output)
    return EXIT_OK


def _cmd_render(args) -> int:
    tiling = _load_tiling(args.tiling, args.basis)
    if args.width <= 0:
        raise CliError("--width must be positive")
    if args.width > RENDER_MAX_WIDTH:
        raise CliError(f"--width must be at most {RENDER_MAX_WIDTH}")
    points = point_bound(tiling)
    if points > RENDER_MAX_POINTS:
        raise CliError(
            f"the picture may hold up to {points} lattice points; "
            f"render draws at most {RENDER_MAX_POINTS}"
        )
    _emit(render_tiling_svg(tiling, width=args.width), args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    basis = _read(_parse_basis, args.basis)
    radius = _read(parse_rational, args.radius)
    if radius < 0:
        raise CliError("radius must be nonnegative")
    bound = math.floor(_inverse_l1_norm(basis) * radius)
    if bound > ORACLE_MAX_COEFFICIENT:
        raise CliError(
            f"radius {radius} needs basis coefficients up to {bound}; "
            f"oracle scans at most {ORACLE_MAX_COEFFICIENT}"
        )
    points = enumerate_lattice_points(basis, radius)
    keys = [key for key in (sign_key(p.x, p.y) for p in points) if key[0]]

    def minimum(opposite: bool):
        side = [key for key in keys if (key[2] < 0) is opposite]
        if not side:
            return None
        norm, y, x = min(side)
        return {"vector": [str(x), str(y)], "norm": str(norm)}

    doc = {
        "radius": str(radius),
        "count": len(points),
        "points": [[str(p.x), str(p.y)] for p in points],
        "q1_min": minimum(False),
        "q2_min": minimum(True),
    }
    _emit_json(doc, args.output)
    return EXIT_OK


_TILING = (("-t", "--tiling"), dict(required=True, help="tiling JSON file"))
_OUTPUT = (("-o", "--output"), dict(help="write output here instead of stdout"))

# name, help, handler, whether --basis is required, the other options in order
_COMMANDS = (
    ("minlen", "minimum tiling length report", _cmd_minlen, True, [_OUTPUT]),
    ("build", "construct a tiling as a JSON document", _cmd_build, True, [
        (("--force",), dict(choices=("one-rect-x", "one-rect-y", "two-rect"),
                            help="pick a construction instead of the optimal one")),
        _OUTPUT]),
    ("verify", "check a tiling file against the torus", _cmd_verify, False,
     [_TILING, _OUTPUT]),
    ("skeleton", "dump the skeleton graph of a tiling file", _cmd_skeleton, False,
     [_TILING, _OUTPUT]),
    ("reduce", "merge maximal axis paths to shorten a tiling", _cmd_reduce, False,
     [_TILING, _OUTPUT]),
    ("render", "render a tiling file to SVG", _cmd_render, False, [
        _TILING,
        (("-o", "--output"), dict(required=True, help="output SVG path")),
        (("--width",), dict(type=_int_option, default=640,
                            help="image width in pixels"))]),
    ("oracle", "brute-force lattice point dump for cross-checks", _cmd_oracle, True,
     [(("--radius",), dict(required=True, help="l1 radius (rational)")), _OUTPUT]),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torus-rect-tiler",
        description=(
            "Exact minimum-length axis-aligned rectangular tilings of the flat "
            "torus defined by a rational lattice basis."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, summary, handler, basis_required, options in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "-b",
            "--basis",
            required=basis_required,
            metavar='"ux uy vx vy"',
            help="lattice basis as four rationals: first vector then second",
        )
        for flags, settings in options:
            p.add_argument(*flags, **settings)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except InvalidTilingError as exc:
        print(f"invalid tiling: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (CliError, CycleExistsError, AxisAlignedGeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ReductionStepInvalidError as exc:
        print(f"error: reduction failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # Left to here: output text such as a covolume past the digit limit,
        # and a JSON number past it, which json.load rejects.
        if not _past_digit_limit(exc):
            raise
        print(f"error: {_TOO_MANY_DIGITS}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
