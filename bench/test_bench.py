"""Self-tests of the benchmark: seeded inputs, tracing and output checks."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from torus_rect_tiler import lattice, skeleton  # noqa: E402


@pytest.fixture
def small_split_ladder(monkeypatch):
    # The full split-reduce pool takes seconds to set up; a short ladder
    # exercises the same generator.
    monkeypatch.setattr(workloads, "SPLIT_LADDER", {8: 3, 16: 1})


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, small_split_ladder):
    first = repr(workloads.generate(name, 7)).encode()
    assert first == repr(workloads.generate(name, 7)).encode()
    assert first != repr(workloads.generate(name, 8)).encode()


def test_wrapped_calls_return_what_unwrapped_calls_return(small_split_ladder):
    samples = {name: workloads.generate(name, 3)[:6] for name in ("bases-mix", "split-reduce")}
    samples["verify-reject"] = [
        item for item in workloads.generate("verify-reject", 3) if item.level != "side=60"
    ][:6]

    def outputs():
        return {
            name: [workloads.WORKLOADS[name].check(i, workloads.WORKLOADS[name].op(i))[1]
                   for i in items]
            for name, items in samples.items()
        }

    plain = outputs()
    original = skeleton.verify_tiling
    tracing = tracer.Tracing(tracer.Recorder(), "torus_rect_tiler",
                             {"tiling.json": (workloads, "json_round_trip")})
    op = tracing.recorder.wrap("op", outputs, root=True)
    with tracing:
        assert skeleton.verify_tiling is not original
        assert op() == plain
    assert skeleton.verify_tiling is original
    recorder = tracing.recorder
    assert {"skeleton.verify_tiling", "lattice.quadrant_basis", "tiling.json",
            "svg.render_tiling_svg", "skeleton.reduce_tiling_with_trace"} <= set(recorder.names)
    assert recorder.parents[0] == -1 and all(p >= 0 for p in recorder.parents[1:])


def test_self_time_subtracts_children():
    recorder = tracer.Recorder()
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: inner() + inner(), root=True)
    outer()
    own = recorder.self_times()
    total = recorder.ends[0] - recorder.starts[0]
    children = sum(recorder.ends[i] - recorder.starts[i] for i in (1, 2))
    assert recorder.names == ["outer", "inner", "inner"]
    assert own[0] == total - children and own[1:] == [
        recorder.ends[i] - recorder.starts[i] for i in (1, 2)
    ]


def test_corrupted_min_length_fails_the_output_check(monkeypatch):
    pool = [i for i in workloads.generate("skew-ladder", 1) if i.x <= 30][:8]
    clean = worker.run(workloads.WORKLOADS["skew-ladder"], pool, 0.0)
    assert clean["failed"] == 0 and clean["attempted"] == len(pool)

    real = lattice.min_length

    def off_by_one(basis):
        report = real(basis)
        return dataclasses.replace(report, min_length=report.min_length + 1)

    monkeypatch.setattr(lattice, "min_length", off_by_one)
    broken = worker.run(workloads.WORKLOADS["skew-ladder"], pool, 0.0)
    assert broken["failed"] / broken["attempted"] > 0
    assert any("min_length" in m for m in broken["errors"])


def test_changed_output_fails_against_recorded_hashes():
    pool = workloads.generate("verify-reject", run.DEFAULT_SEED)
    cheap = [i for i, item in enumerate(pool) if item.x == 0][:5]
    recorded = json.loads(run.DIGESTS.read_text())["verify-reject"]
    expected = [recorded[i] for i in cheap]
    subset = [pool[i] for i in cheap]
    assert worker.run(workloads.WORKLOADS["verify-reject"], subset, 0.0, expected=expected)["failed"] == 0
    expected[2] = "0" * 16
    assert worker.run(workloads.WORKLOADS["verify-reject"], subset, 0.0, expected=expected)["failed"] == 1


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bases-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
