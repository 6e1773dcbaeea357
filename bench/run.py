"""Benchmark for torus-rect-tiler: four seeded workloads, closed loop, one caller.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in fresh processes started by this script (worker.py):
several that only set up, for ``setup_s``, and one that also runs the timed
loop.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` one worker runs each input traced and untraced in turn, and gives
per-layer self time and counts per op, per-level tables, growth exponents
and the tracing overhead, and writes its spans to bench/out/.
Every op's output is checked, outside the timed interval; for the default
seed the exact outputs are also compared with bench/digests.json.

Times are reported as on a reference host: each op's time is scaled by how
fast a fixed reference routine ran around it (see worker.py), which removes
most of the host's speed swings; the raw times are printed next to them.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when every check
passed, 1 when an output check failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"

WORKLOADS = ("bases-mix", "skew-ladder", "split-reduce", "verify-reject")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
# setup_s is the median over the timed worker's set-up and fresh processes
# that only set up, as many before the timed worker as fit in
# SETUP_SIDE_SECONDS (at least one, at most SETUP_SIDE_MAX) and as many after.
SETUP_SIDE_SECONDS = 1.0
SETUP_SIDE_MAX = 7
MIN_OPS = 100  # so that at least ten samples lie beyond p90
# Spans must cover this share of each traced op's wall time.  A scheduler
# hiccup between two spans can push a single millisecond op below it, so the
# check allows COVERAGE_MISSES of the ops to fall short.
MIN_COVERAGE = 0.9
COVERAGE_MISSES = 0.01

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (span, counter, unit): the per-op mean of a span's self time ("ms") or of
# one of its counts, over the traced run's ops.
LAYER_METRICS = (
    ("exact_math.parse_rational", "ms", "ms/op"),
    ("exact_math.parse_rational", "calls", "count/op"),
    ("lattice.quadrant_basis", "ms", "ms/op"),
    ("lattice.axis_periods", "ms", "ms/op"),
    ("lattice.axis_periods", "calls", "count/op"),
    ("lattice.lattice_points_in_box", "ms", "ms/op"),
    ("lattice.lattice_points_in_box", "calls", "count/op"),
    ("lattice.lattice_points_in_box", "points", "count/op"),
    ("lattice.min_length", "ms", "ms/op"),
    ("tiling.build_optimal", "ms", "ms/op"),
    ("tiling.json", "ms", "ms/op"),
    ("skeleton.verify_tiling", "ms", "ms/op"),
    ("skeleton.verify_tiling", "calls", "count/op"),
    ("skeleton.verify_tiling", "rect_pairs", "count/op"),
    ("skeleton.canonicalize", "ms", "ms/op"),
    ("skeleton.canonicalize", "calls", "count/op"),
    ("skeleton.build_skeleton", "ms", "ms/op"),
    ("skeleton.build_skeleton", "vertices", "count/op"),
    ("skeleton.build_skeleton", "edges", "count/op"),
    ("skeleton.decompose_axis_paths", "ms", "ms/op"),
    ("skeleton.reduce_tiling_with_trace", "ms", "ms/op"),
    ("skeleton.reduce_tiling_with_trace", "steps", "count/op"),
    ("skeleton.reduce_tiling_with_trace", "eliminated", "count/op"),
    ("svg.render_tiling_svg", "ms", "ms/op"),
    ("svg.render_tiling_svg", "bytes", "count/op"),
    ("svg.render_tiling_svg", "circles", "count/op"),
)
# Growth exponents: slope of log self time against log ladder value.
GROWTH_METRICS = (
    "lattice.quadrant_basis",
    "skeleton.verify_tiling",
    "skeleton.reduce_tiling_with_trace",
)
TRACE_METRICS = (
    ("skeleton.reduce_tiling_with_trace.ms_per_step", "ms"),
    ("trace.op_ms", "ms/op"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{span}.{counter}": unit for span, counter, unit in LAYER_METRICS}
    units.update({f"{span}.growth_exp": "slope" for span in GROWTH_METRICS})
    units.update(TRACE_METRICS)
    return units


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed_worker(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    extra = ("--seconds", str(seconds), *extra)
    if seed == DEFAULT_SEED:
        extra += ("--digests", str(DIGESTS))
    return _worker(workload, seed, *extra, timeout=2 * seconds + 60)


def _input_summary(props: list[dict]) -> str:
    def share(key, test):
        values = [p[key] for p in props if key in p]
        return f"{100 * sum(map(test, values)) / len(values):.0f}%" if values else "n/a"

    parts = [
        f"skew>10 {share('skew', lambda s: s > 10)}",
        f"den_bits>1 {share('den_bits', lambda b: b > 1)}",
        f"rects>=8 {share('rects', lambda r: r >= 8)}",
    ]
    if any("box_points" in p for p in props):
        parts.append(f"box_points>=1000 {share('box_points', lambda n: n >= 1000)}")
    return "  ".join(parts)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, untraced, and the timed worker's raw result."""
    def setup_only() -> dict:
        return _worker(workload, seed, "--setup-only", timeout=60)

    before = [setup_only()]
    while (sum(s["setup_raw_s"] for s in before) < SETUP_SIDE_SECONDS
           and len(before) < SETUP_SIDE_MAX):
        before.append(setup_only())
    res = _timed_worker(workload, seed, seconds)
    setups = before + [res] + [setup_only() for _ in before]
    if res["ops"] < MIN_OPS:
        print(f"warning: {workload}: {res['ops']} timed ops, fewer than {MIN_OPS}",
              file=sys.stderr)

    def times(durations, setup_key):
        return {
            "ops_per_s": len(durations) / sum(durations) * 1e9,
            "op_p50_ms": statistics.median(durations) / 1e6,
            "op_p90_ms": statistics.quantiles(durations, n=10)[-1] / 1e6,
            "setup_s": statistics.median(s[setup_key] for s in setups),
        }

    values = {**times(res["scaled_ns"], "setup_s"), "peak_rss_mb": res["peak_rss_mb"]}
    raw = times(res["durations_ns"], "setup_raw_s")
    units = dict(END_TO_END)
    print(f"== {workload}  seed {seed}  closed loop, 1 caller: {res['ops']} timed ops "
          f"in {res['timed_s']:.2f} s, {res['attempted']} checked, {len(setups)} set-ups; "
          f"host ran at {1 / res['host_scale']:.2f}x the reference host")
    print(f"  {'metric':<14}{'reference host':>16}{'this host':>14}")
    for name, value in values.items():
        print(f"  {name:<14}{value:>16.4f}{raw.get(name, value):>14.4f} {units[name]}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<14}{rate:>14.4f} ratio ({res['failed']} of {res['attempted']})")
    print(f"  inputs: {_input_summary(res['props'])}")
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}, res


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from a worker that runs each input untraced, then traced."""
    spans_file = OUT / f"trace-{workload}-seed{seed}.json"
    res = _timed_worker(workload, seed, seconds, "--trace-out", str(spans_file))
    tr = res["trace"]
    layers = tr["layers"]
    values = {
        f"{span}.{counter}": layers.get(span, {}).get(counter, 0.0)
        for span, counter, _ in LAYER_METRICS
    }
    values.update({f"{s}.growth_exp": tr["growth"].get(s, 0.0) for s in GROWTH_METRICS})
    reduce = layers.get("skeleton.reduce_tiling_with_trace", {})
    steps = reduce.get("steps", 0.0)
    values["skeleton.reduce_tiling_with_trace.ms_per_step"] = (
        reduce.get("ms", 0.0) / steps if steps else 0.0
    )
    values["trace.op_ms"] = tr["op_ms"]
    coverage = tr["coverage"]
    short = sum(c < MIN_COVERAGE for c in coverage)
    values["trace.coverage_pct"] = 100 * coverage[int(len(coverage) * COVERAGE_MISSES)]
    values["trace.overhead_pct"] = 100 * tr["overhead"]

    problems = []
    if short > len(coverage) * COVERAGE_MISSES:
        problems.append(f"spans cover less than {100 * MIN_COVERAGE:.0f}% of the wall time "
                        f"of {short} of {len(coverage)} ops")
    units = per_layer_units()
    print(f"== {workload}  seed {seed}  traced: {tr['ops']} ops, spans in {spans_file.relative_to(ROOT)}")
    print(f"  {'layer (self time per op)':<36}{'ms/op':>10}{'share':>8}{'calls/op':>11}")
    for span, entry in sorted(layers.items(), key=lambda kv: -kv[1].get("ms", 0.0)):
        print(f"  {span:<36}{entry.get('ms', 0.0):>10.4f}"
              f"{100 * entry.get('ms', 0.0) / tr['op_ms']:>7.1f}%{entry.get('calls', 0.0):>11.1f}")
    modules = {}
    for span, entry in layers.items():
        module = span.split(".")[0]
        modules[module] = modules.get(module, 0.0) + entry.get("ms", 0.0)
    print("  self time by module: " + ", ".join(
        f"{m} {100 * ms / tr['op_ms']:.1f}%" for m, ms in sorted(modules.items(), key=lambda kv: -kv[1])))
    print("  op phases (inclusive): " + ", ".join(
        f"{p} {100 * ms / tr['op_ms']:.1f}%" for p, ms in tr["phases"].items()))
    level_layers = sorted({s for lv in tr["levels"].values() for s in lv["layers"]})
    print("  per level (mean self ms per op): " + ", ".join(level_layers))
    for level, lv in tr["levels"].items():
        cells = " ".join(f"{lv['layers'].get(s, 0.0):.3f}" for s in level_layers)
        print(f"    {level:<12} ops {lv['ops']:>4}  op {lv['op_ms']:>9.3f} ms | {cells}")
    for name, value in values.items():
        print(f"  {name:<48}{value:>14.4f} {units[name]}")
    print(f"  span coverage of op wall time: min {100 * coverage[0]:.1f}%, "
          f"median {100 * coverage[len(coverage) // 2]:.1f}%, {short} ops below "
          f"{100 * MIN_COVERAGE:.0f}%")
    print(f"  inputs: {_input_summary(res['props'])}")
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}, res, problems


def record_digests() -> None:
    """Rewrite bench/digests.json from one pass over each default-seed pool."""
    hashes = {w: _worker(w, DEFAULT_SEED, timeout=600)["hashes"] for w in WORKLOADS}
    DIGESTS.write_text(json.dumps(hashes, indent=0) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite bench/digests.json for the default seed and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torus_rect_tiler" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'torus_rect_tiler'}", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed, problems = {}, 0, 0, []
        for name in names:
            if args.trace:
                values, res, issues = trace(name, args.seed, args.seconds)
            else:
                values, res = measure(name, args.seed, args.seconds)
                issues = []
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in values.items()})
            attempted += res["attempted"]
            failed += res["failed"]
            problems += [f"{name}: {m}" for m in res["errors"] + issues]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
