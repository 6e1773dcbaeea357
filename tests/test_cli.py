import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torus_rect_tiler import cli
from torus_rect_tiler.cli import RENDER_MAX_POINTS, main
from torus_rect_tiler.exact_math import Vec2
from torus_rect_tiler.lattice import LatticeBasis
from torus_rect_tiler.skeleton import ReductionStepInvalidError, verify_tiling
from torus_rect_tiler.tiling import (
    Axis,
    build_one_rect,
    build_optimal,
    tiling_from_json_dict,
    tiling_to_json_dict,
)

ROOT = Path(__file__).resolve().parent.parent
SKEWED_23 = "3 5 -4 1"
SKEWED_14 = "2 1 -4 5"
UNIT = "1 0 0 1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_tiling(tmp_path, capsys, basis, *extra):
    path = tmp_path / "tiling.json"
    code, out, _ = run(capsys, "build", "-b", basis, *extra, "-o", str(path))
    assert code == 0
    return path


# --- minlen -------------------------------------------------------------------


def test_minlen_skewed_23(capsys):
    code, doc, _ = run_json(capsys, "minlen", "-b", SKEWED_23)
    assert code == 0
    assert doc["min_length"] == "13"
    assert doc["winner"] == "two_rect"
    assert doc["covolume"] == "23"
    assert doc["quadrant_sum"] == "13"
    assert doc["m_x"] == "24" and doc["m_y"] == "24"
    assert doc["witness"] == {"u1": ["3", "5"], "u2": ["-4", "1"]}


def test_minlen_unit(capsys):
    code, doc, _ = run_json(capsys, "minlen", "-b", UNIT)
    assert code == 0
    assert doc["min_length"] == "2"
    assert doc["winner"] == "one_rect_x"


def test_minlen_skewed_14(capsys):
    code, doc, _ = run_json(capsys, "minlen", "-b", SKEWED_14)
    assert code == 0
    assert doc["min_length"] == "9"
    assert doc["winner"] == "one_rect_y"
    assert doc["witness"] == {"u1": ["2", "1"], "u2": ["-2", "6"]}


def test_minlen_rejects_bad_basis(capsys):
    code, out, err = run(capsys, "minlen", "-b", "1 0")
    assert code == 1 and "error" in err
    code, out, err = run(capsys, "minlen", "-b", "1 2 2 4")
    assert code == 1 and "singular" in err
    code, out, err = run(capsys, "minlen", "-b", "1 0 0 0.5")
    assert code == 1


# --- build --------------------------------------------------------------------


def test_build_default_is_optimal(capsys):
    code, doc, _ = run_json(capsys, "build", "-b", SKEWED_23)
    assert code == 0
    assert doc["rects"] == [["-4", "-1", "0", "1"], ["-1", "3", "0", "5"]]

    code, doc, _ = run_json(capsys, "build", "-b", SKEWED_14)
    assert code == 0
    assert doc["rects"] == [["0", "2", "0", "7"]]


def test_build_forced_two_rect_uses_input_vectors(capsys):
    code, doc, _ = run_json(capsys, "build", "-b", SKEWED_14, "--force", "two-rect")
    assert code == 0
    assert doc["rects"] == [["-4", "-2", "0", "5"], ["-2", "2", "0", "1"]]


def test_build_forced_one_rect(capsys):
    code, doc, _ = run_json(capsys, "build", "-b", SKEWED_14, "--force", "one-rect-x")
    assert code == 0
    assert doc["rects"] == [["0", "14", "0", "1"]]


def test_build_forced_one_rect_y(capsys):
    code, doc, _ = run_json(capsys, "build", "-b", SKEWED_14, "--force", "one-rect-y")
    assert code == 0
    basis = LatticeBasis(Vec2(2, 1), Vec2(-4, 5))
    assert doc == tiling_to_json_dict(build_one_rect(basis, Axis.Y))
    assert verify_tiling(tiling_from_json_dict(doc)).valid


def test_build_forced_two_rect_inapplicable(capsys):
    code, out, err = run(capsys, "build", "-b", UNIT, "--force", "two-rect")
    assert code == 1
    assert err == (
        "error: basis does not split into a same-sign and an opposite-sign vector\n"
    )


def test_build_forced_two_rect_refuses_a_same_sign_vector_on_an_axis(capsys):
    code, out, err = run(capsys, "build", "-b", "1 0 -1 1", "--force", "two-rect")
    assert (code, out) == (1, "")
    assert err == (
        "error: (1, 0) lies on an axis; the two-rectangle construction does not apply\n"
    )


# --- verify -------------------------------------------------------------------


def test_verify_built_tiling_round_trip(capsys, tmp_path):
    path = write_tiling(tmp_path, capsys, SKEWED_23)
    code, doc, _ = run_json(capsys, "verify", "-b", SKEWED_23, "-t", str(path))
    assert code == 0
    assert doc == {"valid": True, "violations": []}


@pytest.mark.parametrize(
    "rects, only",
    [
        # The unit square twice: refused on area.
        pytest.param([["0", "1", "0", "1"], ["0", "1", "0", "1"]], None, id="on-area"),
        # The areas sum to the covolume, so the boundary cancellation test
        # refuses it, and the overlap is its one violation: no coverage.
        pytest.param(
            [["0", "1/2", "0", "1"], ["3/4", "5/4", "0", "1"]],
            "rects 0 and 1: interiors meet under lattice shift (1, 0)",
            id="by-cancellation",
        ),
    ],
)
def test_verify_duplicated_rectangle(capsys, tmp_path, rects, only):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"basis": [["1", "0"], ["0", "1"]], "rects": rects}))
    code, doc, _ = run_json(capsys, "verify", "-t", str(path))
    assert code == 2
    assert doc["valid"] is False
    assert any(v["kind"] == "overlap" for v in doc["violations"])
    if only is not None:
        assert doc["violations"] == [{"kind": "overlap", "detail": only}]


def test_verify_over_wide_rectangle(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps(
            {"basis": [["1", "0"], ["0", "1"]], "rects": [["0", "2", "0", "1"]]}
        )
    )
    code, doc, _ = run_json(capsys, "verify", "-t", str(path))
    assert code == 2
    assert any(v["kind"] == "injectivity" for v in doc["violations"])


def test_verify_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "verify", "-t", str(path))
    assert code == 1 and "error" in err

    path.write_text(json.dumps({"basis": [["1", "0"], ["0", "1"]]}))
    code, out, err = run(capsys, "verify", "-t", str(path))
    assert code == 1

    code, out, err = run(capsys, "verify", "-t", str(tmp_path / "missing.json"))
    assert code == 1


def test_verify_rejects_a_number_in_place_of_a_rational_string(capsys, tmp_path):
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps({"basis": [["1", "0"], ["0", "1"]], "rects": [[0, 1, 0, 1]]}))
    code, out, err = run(capsys, "verify", "-t", str(path))
    assert code == 1 and "not a rational literal" in err and out == ""


def test_minlen_rejects_digits_outside_ascii(capsys):
    # Arabic-Indic three and one: Python's int() would read them.
    code, out, err = run(capsys, "minlen", "-b", "\u0663 0 0 \u0661")
    assert code == 1 and "not a rational literal" in err and out == ""


def test_minlen_rejects_whitespace_outside_ascii(capsys):
    # An ideographic space between the last two rationals joins them.
    code, out, err = run(capsys, "minlen", "-b", "3 5 4\u30001")
    assert (code, out, err) == (1, "", "error: not a rational literal: '4\\u30001'\n")


def test_minlen_counts_the_basis_rationals_only_when_each_reads(capsys):
    for basis, count in (("3 5 4", 3), ("1 2 3 4 5", 5), ("", 0)):
        code, out, err = run(capsys, "minlen", "-b", basis)
        want = f"error: basis needs four rationals 'ux uy vx vy', got {count} items\n"
        assert (code, out, err) == (1, "", want)
    code, out, err = run(capsys, "minlen", "-b", "1 2 3 x 5")
    assert (code, out, err) == (1, "", "error: not a rational literal: 'x'\n")


def test_verify_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "verify", "-t", str(path))
    assert code == 1 and "UTF-8" in err and out == ""


def test_verify_rejects_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "verify", "-t", str(path))
    assert code == 1 and "nested too deeply" in err and out == ""


def test_verify_basis_mismatch(capsys, tmp_path):
    path = write_tiling(tmp_path, capsys, SKEWED_23)
    code, out, err = run(capsys, "verify", "-b", UNIT, "-t", str(path))
    assert code == 1 and "differs" in err


# --- skeleton -----------------------------------------------------------------


def test_skeleton_command(capsys, tmp_path):
    path = write_tiling(tmp_path, capsys, SKEWED_23)
    code, doc, _ = run_json(capsys, "skeleton", "-t", str(path))
    assert code == 0
    assert doc["total_length"] == "13"
    assert len(doc["vertices"]) == 4
    assert len(doc["edges"]) == 6
    assert doc["cycles_h"] == 0 and doc["cycles_v"] == 0
    assert doc["paths_h"] == 1 and doc["paths_v"] == 1


def test_skeleton_command_rejects_invalid(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"basis": [["1", "0"], ["0", "1"]], "rects": [["0", "2", "0", "1"]]}
        )
    )
    code, out, err = run(capsys, "skeleton", "-t", str(path))
    assert code == 2
    assert err == (
        "invalid tiling: injectivity: rect 0: lattice point (-1, 0) is shorter "
        "than the rectangle in both axes; coverage: rectangle areas sum to 2, "
        "torus area is 1\n"
    )


# --- reduce -------------------------------------------------------------------


SPLIT_17 = {
    "basis": [["3", "5"], ["-4", "1"]],
    "rects": [
        ["-4", "-1", "0", "1"],
        ["-1", "3", "0", "2"],
        ["-1", "3", "2", "5"],
    ],
}


def test_reduce_three_rect_split(capsys, tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps(SPLIT_17))
    code, doc, _ = run_json(capsys, "reduce", "-b", SKEWED_23, "-t", str(path))
    assert code == 0
    assert doc["length"] == "13"
    assert doc["tiling"]["rects"] == [["-4", "-1", "0", "1"], ["-1", "3", "0", "5"]]
    assert len(doc["trace"]) == 1
    step = doc["trace"][0]
    assert step["axis"] == "h"
    assert step["s2"] == [1] and step["s3"] == [2] and step["s1"] == []
    assert step["shrink"] == "2"
    assert step["eliminated"] == [1]
    assert step["length_before"] == "17" and step["length_after"] == "13"


def test_reduce_already_optimal(capsys, tmp_path):
    path = write_tiling(tmp_path, capsys, SKEWED_23)
    code, doc, _ = run_json(capsys, "reduce", "-t", str(path))
    assert code == 0
    assert doc["trace"] == []
    assert doc["tiling"]["rects"] == [["-4", "-1", "0", "1"], ["-1", "3", "0", "5"]]


def test_reduce_one_rect_has_cycles(capsys, tmp_path):
    path = write_tiling(tmp_path, capsys, SKEWED_14)
    code, out, err = run(capsys, "reduce", "-t", str(path))
    assert code == 1
    assert err == (
        "error: v-cycle on line 0: the path-merging reduction does not apply\n"
    )


def test_reduce_invalid_tiling_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"basis": [["1", "0"], ["0", "1"]], "rects": [["0", "2", "0", "1"]]}
        )
    )
    code, out, err = run(capsys, "reduce", "-t", str(path))
    assert code == 2 and err.startswith("invalid tiling: ") and out == ""


def test_reduce_reports_a_failed_step(capsys, tmp_path, monkeypatch):
    # No input is known to make a step fail, so the reduction is replaced.
    def failing(tiling):
        raise ReductionStepInvalidError("shift eliminated no rectangle")

    monkeypatch.setattr(cli, "reduce_tiling_with_trace", failing)
    path = write_tiling(tmp_path, capsys, SKEWED_23)
    code, out, err = run(capsys, "reduce", "-t", str(path))
    assert code == 1 and out == ""
    assert err == "error: reduction failed: shift eliminated no rectangle\n"


# --- render -------------------------------------------------------------------


def test_render_two_rect_structure(capsys, tmp_path):
    tiling_path = write_tiling(tmp_path, capsys, SKEWED_23)
    out_path = tmp_path / "out.svg"
    code, _, _ = run(capsys, "render", "-t", str(tiling_path), "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<rect") == 2
    assert svg.count('class="arrow"') == 2
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")


def test_render_one_rect_and_split_counts(capsys, tmp_path):
    tiling_path = write_tiling(tmp_path, capsys, UNIT)
    out_path = tmp_path / "one.svg"
    code, _, _ = run(capsys, "render", "-t", str(tiling_path), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text().count("<rect") == 1

    split_path = tmp_path / "split.json"
    split_path.write_text(json.dumps(SPLIT_17))
    out3 = tmp_path / "three.svg"
    code, _, _ = run(capsys, "render", "-t", str(split_path), "-o", str(out3))
    assert code == 0
    assert out3.read_text().count("<rect") == 3


def test_render_is_deterministic(capsys, tmp_path):
    tiling_path = write_tiling(tmp_path, capsys, SKEWED_23)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "render", "-t", str(tiling_path), "-o", str(a))[0] == 0
    assert run(capsys, "render", "-t", str(tiling_path), "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_unwritable_path(capsys, tmp_path):
    tiling_path = write_tiling(tmp_path, capsys, UNIT)
    code, out, err = run(
        capsys, "render", "-t", str(tiling_path), "-o", str(tmp_path / "no" / "dir.svg")
    )
    assert code == 1 and "error" in err


def test_render_refuses_a_picture_with_too_many_lattice_points(capsys, tmp_path):
    # Over Z^2 the picture of (1,1),(1000,1001) spans about 1200 x 1200.
    tiling_path = write_tiling(tmp_path, capsys, "1 1 1000 1001", "--force", "one-rect-x")
    out_path = tmp_path / "huge.svg"
    start = time.perf_counter()
    code, out, err = run(capsys, "render", "-t", str(tiling_path), "-o", str(out_path))
    assert time.perf_counter() - start < 1
    assert code == 1 and err.startswith("error: the picture may hold up to ")
    assert err.rstrip().endswith(f"render draws at most {RENDER_MAX_POINTS}")
    assert out == "" and not out_path.exists()


def test_render_accepts_the_largest_picture_and_refuses_the_next(capsys, tmp_path):
    # Optimal tilings of (1,1),(k,k+1): k = 115 gives the largest picture the
    # bound accepts, k = 116 a bound just above RENDER_MAX_POINTS.
    out_path = tmp_path / "edge.svg"
    tiling_path = write_tiling(tmp_path, capsys, "1 1 115 116")
    render = ("render", "-t", str(tiling_path), "-o", str(out_path))
    assert run(capsys, *render) == (0, "", "")
    assert out_path.read_text().count("<circle ") == 19_460
    out_path.unlink()
    write_tiling(tmp_path, capsys, "1 1 116 117")
    assert run(capsys, *render) == (
        1,
        "",
        "error: the picture may hold up to 20022 lattice points; "
        "render draws at most 20000\n",
    )
    assert not out_path.exists()


def test_render_rejects_nonpositive_width(capsys, tmp_path):
    tiling_path = write_tiling(tmp_path, capsys, UNIT)
    out_path = tmp_path / "zero.svg"
    code, out, err = run(
        capsys, "render", "-t", str(tiling_path), "-o", str(out_path), "--width", "0"
    )
    assert code == 1 and "--width must be positive" in err
    assert not out_path.exists()


def test_render_refuses_a_width_above_a_million(capsys, tmp_path):
    # Each coordinate's text grows with the width's digits: a 4000-digit
    # width would write hundreds of megabytes, so it is refused at once.
    tiling_path = write_tiling(tmp_path, capsys, SKEWED_23)
    out_path = tmp_path / "wide.svg"
    render = ("render", "-t", str(tiling_path), "-o", str(out_path), "--width")
    expected = (1, "", "error: --width must be at most 1000000\n")
    start = time.perf_counter()
    for width in (str(10**6 + 1), "9" * 4000):
        assert run(capsys, *render, width) == expected
    assert time.perf_counter() - start < 1
    assert not out_path.exists()
    assert run(capsys, *render, str(10**6)) == (0, "", "")
    assert 'width="1000000"' in out_path.read_text()


# --- oracle -------------------------------------------------------------------


def test_oracle_unit_radius_one(capsys):
    code, doc, _ = run_json(capsys, "oracle", "-b", UNIT, "--radius", "1")
    assert code == 0
    assert doc["count"] == 5
    assert doc["q1_min"]["norm"] == "1"
    assert doc["q2_min"] is None


def test_oracle_skewed_23(capsys):
    code, doc, _ = run_json(capsys, "oracle", "-b", SKEWED_23, "--radius", "8")
    assert code == 0
    assert doc["q1_min"]["norm"] == "8"
    assert doc["q2_min"]["norm"] == "5"


def test_oracle_skewed_14(capsys):
    code, doc, _ = run_json(capsys, "oracle", "-b", SKEWED_14, "--radius", "8")
    assert code == 0
    assert doc["q2_min"] == {"vector": ["-2", "6"], "norm": "8"}


def test_oracle_rejects_negative_radius(capsys):
    code, out, err = run(capsys, "oracle", "-b", UNIT, "--radius", "-1")
    assert code == 1


def test_oracle_rejects_a_radius_that_is_not_rational(capsys):
    code, out, err = run(capsys, "oracle", "-b", UNIT, "--radius", "abc")
    assert code == 1 and "not a rational literal" in err and out == ""


def test_oracle_rejects_a_huge_radius_before_scanning(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "-b", UNIT, "--radius", "100000")
    assert time.perf_counter() - start < 1
    assert code == 1 and err.startswith("error: radius 100000") and out == ""


def test_oracle_bounds_the_basis_coefficients_not_the_radius(capsys):
    # N(B^-1) = 1001 here, so radius r/1001 scans coefficients up to r.
    code, doc, _ = run_json(capsys, "oracle", "-b", "1 0 1000 1", "--radius", "120/1001")
    assert code == 0 and doc["count"] == 1
    code, out, err = run(capsys, "oracle", "-b", "1 0 1000 1", "--radius", "121/1001")
    assert code == 1 and "up to 121;" in err and out == ""


# --- general ------------------------------------------------------------------


def test_build_verify_round_trip_always_valid(capsys, tmp_path):
    for basis in (SKEWED_23, SKEWED_14, UNIT, "1 2 3 0"):
        path = write_tiling(tmp_path, capsys, basis)
        code, doc, _ = run_json(capsys, "verify", "-b", basis, "-t", str(path))
        assert code == 0 and doc["valid"] is True


def test_emitted_json_reserializes_byte_identical(capsys, tmp_path):
    path = write_tiling(tmp_path, capsys, SKEWED_23)
    text = path.read_text()
    assert json.dumps(json.loads(text), indent=2) + "\n" == text

    code, out, _ = run(capsys, "minlen", "-b", SKEWED_23)
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_minlen_winner_agrees_with_default_build(capsys):
    for basis in (SKEWED_23, SKEWED_14, UNIT, "1 2 3 0", "7 3 -5 2"):
        code, report, _ = run_json(capsys, "minlen", "-b", basis)
        assert code == 0
        code, tiling_doc, _ = run_json(capsys, "build", "-b", basis)
        assert code == 0
        expected = 2 if report["winner"] == "two_rect" else 1
        assert len(tiling_doc["rects"]) == expected


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["minlen"])  # missing -b
    assert exc.value.code == 1


BASIS_OPTION = ("-b", "--basis")
BASIS_HELP = "lattice basis as four rationals: first vector then second"
HELP_OPTION = (("-h", "--help"), False, argparse.SUPPRESS, None, None,
               "show this help message and exit")
OUTPUT_OPTION = (("-o", "--output"), False, None, None, None,
                 "write output here instead of stdout")
TILING_OPTION = (("-t", "--tiling"), True, None, None, None, "tiling JSON file")


def basis_option(required):
    return (BASIS_OPTION, required, None, None, '"ux uy vx vy"', BASIS_HELP)


# Each subcommand's help and its options in order, as
# (option strings, required, default, choices, metavar, help).
CLI_SURFACE = {
    "minlen": ("minimum tiling length report",
               [HELP_OPTION, basis_option(True), OUTPUT_OPTION]),
    "build": ("construct a tiling as a JSON document", [
        HELP_OPTION,
        basis_option(True),
        (("--force",), False, None, ("one-rect-x", "one-rect-y", "two-rect"), None,
         "pick a construction instead of the optimal one"),
        OUTPUT_OPTION,
    ]),
    "verify": ("check a tiling file against the torus",
               [HELP_OPTION, basis_option(False), TILING_OPTION, OUTPUT_OPTION]),
    "skeleton": ("dump the skeleton graph of a tiling file",
                 [HELP_OPTION, basis_option(False), TILING_OPTION, OUTPUT_OPTION]),
    "reduce": ("merge maximal axis paths to shorten a tiling",
               [HELP_OPTION, basis_option(False), TILING_OPTION, OUTPUT_OPTION]),
    "render": ("render a tiling file to SVG", [
        HELP_OPTION,
        basis_option(False),
        TILING_OPTION,
        (("-o", "--output"), True, None, None, None, "output SVG path"),
        (("--width",), False, 640, None, None, "image width in pixels"),
    ]),
    "oracle": ("brute-force lattice point dump for cross-checks", [
        HELP_OPTION,
        basis_option(True),
        (("--radius",), True, None, None, None, "l1 radius (rational)"),
        OUTPUT_OPTION,
    ]),
}


def test_cli_surface_is_pinned():
    # Read from the argparse actions, not the formatted help, whose headings
    # differ between Python versions.
    parser = cli._build_parser()
    assert parser.prog == "torus-rect-tiler"
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.required and sub.metavar == "command"
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, help) for name, (help, _) in CLI_SURFACE.items()
    ]
    for name, (_, options) in CLI_SURFACE.items():
        actions = sub.choices[name]._actions
        assert [
            (tuple(a.option_strings), a.required, a.default, a.choices, a.metavar, a.help)
            for a in actions
        ] == options, name
    (width,) = [a for a in sub.choices["render"]._actions if a.dest == "width"]
    assert width.type.__name__ == "int"  # argparse's "invalid int value" text


def run_cli_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "torus_rect_tiler.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=2,
    )


def test_the_module_exits_with_the_status_main_returns(capsys, tmp_path):
    minlen = ("minlen", "-b", SKEWED_23)
    done = run_cli_process(*minlen)
    assert (done.returncode, done.stdout.decode()) == run(capsys, *minlen)[:2]
    done = run_cli_process("minlen", "-b", "1 2")
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1
    path = write_tiling(tmp_path, capsys, SKEWED_23)
    doc = json.loads(path.read_text())
    doc["rects"][0][1] = "-2"  # the first rectangle, shrunk
    path.write_text(json.dumps(doc))
    assert run_cli_process("verify", "-t", str(path)).returncode == 2


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="the quadrant_basis shell search costs about N^2 on (1,0),(0,N)")
def test_minlen_answers_on_a_reduced_basis_with_a_long_vector():
    assert run_cli_process("minlen", "-b", "1 0 0 1000000").returncode == 0


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="_violations lists every lattice point in each box it scans")
def test_verify_refuses_a_huge_square_over_the_integers(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "basis": [["1", "0"], ["0", "1"]],
        "rects": [["0", "1000000", "0", "1000000"]],
    }))
    assert run_cli_process("verify", "-t", str(path)).returncode == 2


def test_numbers_past_the_int_digit_limit_are_an_error_line(capsys, tmp_path):
    # By default Python converts no int of over 4300 digits to or from text.  Here
    # the covolume has 5001 digits, and the tiling file holds a 5000-digit int.
    big = "1" + "0" * 2500
    code, out, err = run(capsys, "minlen", "-b", f"{big} 0 0 {big}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    path = tmp_path / "big.json"
    path.write_text('{"basis": [[' + "1" * 5000 + ', 0], [0, 1]], "rects": []}')
    code, out, err = run(capsys, "verify", "-t", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_literal_past_the_int_digit_limit_reads_as_too_many_digits(capsys, tmp_path):
    # The basis, the radius and a rational string in a tiling file are each
    # parsed by parse_rational, whose ValueError text would advise
    # sys.set_int_max_str_digits().
    ones = "1" * 5000
    expected = (1, "", "error: a number has too many digits to read or print\n")
    assert run(capsys, "minlen", "-b", f"{ones} 0 0 1") == expected
    assert run(capsys, "oracle", "-b", "1 0 0 1", "--radius", ones) == expected
    path = tmp_path / "big.json"
    path.write_text('{"basis": [["' + ones + '", "0"], ["0", "1"]], '
                    '"rects": [["0", "1", "0", "1"]]}')
    assert run(capsys, "verify", "-t", str(path)) == expected


def test_a_width_past_the_int_digit_limit_reads_as_too_many_digits(capsys, tmp_path):
    # argparse would report int()'s ValueError as usage and echo every digit.
    tiling_path = write_tiling(tmp_path, capsys, UNIT)
    out_path = tmp_path / "wide.svg"
    render = ("render", "-t", str(tiling_path), "-o", str(out_path), "--width")
    expected = (1, "", "error: a number has too many digits to read or print\n")
    assert run(capsys, *render, "9" * 5000) == expected
    with pytest.raises(SystemExit) as exc:
        main([*render, "1e3"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (1, "") and err.startswith("usage: ")
    assert err.endswith(
        "torus-rect-tiler render: error: argument --width: invalid int value: '1e3'\n"
    )
    for width in ("0", "-5"):
        assert run(capsys, *render, width) == (1, "", "error: --width must be positive\n")
    assert not out_path.exists()


# --- fuzz ---------------------------------------------------------------------

# Deterministic, no example database, and a deadline per example, so the fuzz
# tests take the same few seconds and write nothing outside pytest's tmp dirs.
FUZZ = settings(
    database=None,
    derandomize=True,
    deadline=5000,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
rational_texts = small_rationals.map(str)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-6, 6) | st.text(max_size=5) | rational_texts,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["basis", "rects", "x"]), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def near_valid_tilings(draw):
    """A built tiling, cut into pieces and then perhaps broken in one place.

    A singular basis gives a document with no rectangles.
    """
    u = Vec2(draw(small_rationals), draw(small_rationals))
    v = Vec2(draw(small_rationals), draw(small_rationals))
    if u.x * v.y == u.y * v.x:
        return {"basis": [[str(u.x), str(u.y)], [str(v.x), str(v.y)]], "rects": []}
    doc = tiling_to_json_dict(build_optimal(LatticeBasis(u, v)))
    rows = doc["rects"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        x0, x1, y0, y1 = (Fraction(t) for t in rows[i])
        if draw(st.booleans()):
            mid = (x0 + x1) / 2
            pieces = [[x0, mid, y0, y1], [mid, x1, y0, y1]]
        else:
            mid = (y0 + y1) / 2
            pieces = [[x0, x1, y0, mid], [x0, x1, mid, y1]]
        rows[i : i + 1] = [[str(t) for t in row] for row in pieces]
    fault = draw(st.sampled_from([None, None, None, "value", "duplicate", "drop", "key"]))
    if fault == "value":
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, 3))] = draw(json_values)
    elif fault == "duplicate":
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    elif fault == "drop":
        del rows[draw(st.integers(0, len(rows) - 1))]
    elif fault == "key":
        del doc[draw(st.sampled_from(["basis", "rects"]))]
    return doc


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "tiling.json"


@FUZZ
@given(
    doc=json_values | near_valid_tilings(),
    # "{svg}" stands for a file next to the tiling; render requires -o.
    argv=st.sampled_from([["verify"], ["skeleton"], ["reduce"], ["render", "-o", "{svg}"]]),
)
def test_cli_tiling_commands_never_raise(fuzz_file, doc, argv):
    fuzz_file.write_text(json.dumps(doc))
    svg = str(fuzz_file.with_suffix(".svg"))
    argv = [arg.format(svg=svg) for arg in argv]
    assert main([*argv, "-t", str(fuzz_file)]) in (0, 1, 2)


basis_texts = st.lists(rational_texts, min_size=3, max_size=5).map(" ".join) | st.text(
    max_size=12
)
# A small basis times 10**k: the skew stays small, so the search stays fast,
# but from k = 2150 on an output such as the covolume has over 4300 digits.
scaled_basis_texts = st.builds(
    lambda entries, k: " ".join(str(q * 10**k) for q in entries),
    st.lists(small_rationals, min_size=4, max_size=4),
    st.integers(0, 40) | st.integers(2100, 2600),
)


@FUZZ
@given(
    basis=basis_texts | scaled_basis_texts,
    argv=st.sampled_from(
        [
            ["minlen"],
            ["build"],
            ["build", "--force", "one-rect-x"],
            ["build", "--force", "one-rect-y"],
            ["build", "--force", "two-rect"],
            ["oracle", "--radius", "2"],
            ["oracle", "--radius", "1/3"],
        ]
    ),
)
def test_cli_basis_commands_never_raise(basis, argv):
    # --basis=TEXT keeps a TEXT that starts with "-" from reading as an option.
    assert main([argv[0], f"--basis={basis}", *argv[1:]]) in (0, 1, 2)
