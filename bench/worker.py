"""One workload in one fresh process: set up, run the closed loop, check.

Started by run.py, never imported by it, so that set-up time and peak RSS
belong to this workload alone.  Prints one JSON object on stdout.
"""

import time

T0 = time.perf_counter()  # set-up time starts before the package import

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import torus_rect_tiler

    if Path(torus_rect_tiler.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"torus_rect_tiler imported from {torus_rect_tiler.__file__}, not {SRC}")


def _fit_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; 0 with fewer than two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def analyse_trace(recorder, items, scales, growth_layers) -> tuple[dict, list[int]]:
    """Per-layer self time and counts per op, per level, and growth exponents.

    ``items`` are the inputs of the recorded ops in order, one root span each,
    and ``scales`` their reference-host factors (see ``host_scales``).
    ``phases`` is the inclusive time per op of the spans the op calls directly.
    Also returns the lattice points the box queries of each op returned.
    """
    own = recorder.self_times()
    ops = []
    for idx, name in enumerate(recorder.names):
        parent = recorder.parents[idx]
        dur = recorder.ends[idx] - recorder.starts[idx]
        if parent < 0:
            ops.append({"root": idx, "ns": dur, "covered": 0, "phases": defaultdict(int),
                        "self": defaultdict(int), "calls": defaultdict(int),
                        "counts": defaultdict(int)})
            continue
        op = ops[-1]
        if parent == op["root"]:
            op["covered"] += dur
            op["phases"][name] += dur
        op["self"][name] += own[idx]
        op["calls"][name] += 1
        for key, value in recorder.counts.get(idx, {}).items():
            op["counts"][f"{name}.{key}"] += value
    if len(ops) != len(items):
        raise RuntimeError(f"{len(ops)} root spans for {len(items)} ops")
    for op, scale in zip(ops, scales):
        op["ms"] = op["ns"] * scale / 1e6
        op["self"] = {name: ns * scale / 1e6 for name, ns in op["self"].items()}
        op["phases"] = {name: ns * scale / 1e6 for name, ns in op["phases"].items()}

    def means(group):
        n = len(group)
        layers = defaultdict(lambda: defaultdict(float))
        for op in group:
            for name, ms in op["self"].items():
                layers[name]["ms"] += ms / n
            for name, c in op["calls"].items():
                layers[name]["calls"] += c / n
            for key, c in op["counts"].items():
                name, _, counter = key.rpartition(".")
                layers[name][counter] += c / n
        return {name: dict(v) for name, v in sorted(layers.items())}

    by_level = defaultdict(list)
    for op, item in zip(ops, items):
        by_level[(item.x, item.level)].append(op)
    levels = {
        level: {"x": x, "ops": len(group), "op_ms": sum(o["ms"] for o in group) / len(group),
                "layers": {n: v["ms"] for n, v in means(group).items()}}
        for (x, level), group in sorted(by_level.items())
    }
    growth = {
        name: _fit_slope([(v["x"], v["layers"].get(name, 0.0)) for v in levels.values()])
        for name in growth_layers
    }
    summary = {
        "ops": len(ops),
        "op_ms": sum(o["ms"] for o in ops) / len(ops),
        "coverage": sorted(o["covered"] / o["ns"] for o in ops),
        "layers": means(ops),
        "phases": {name: sum(o["phases"].get(name, 0.0) for o in ops) / len(ops)
                   for name in sorted({n for o in ops for n in o["phases"]})},
        "levels": levels,
        "growth": growth,
    }
    box_points = [o["counts"].get("lattice.lattice_points_in_box.points", 0) for o in ops]
    return summary, box_points


# On a shared 2-core Xeon VM the host's speed swung by up to 1.9x for minutes
# at a time (other tenants share its cores), and every timing in a run moved
# with it.  So a fixed routine of Fraction, dict and sort work is timed
# between ops, and each op's time is scaled by REF_MS over the routine's
# median time around that op: times read as on a host where the routine takes
# REF_MS.  Over 3 s windows of bases-mix ops this cut the spread of op time
# from 17% to 2% (CV).
REF_MS = 2.5  # the routine's time on a quiet 2-core Xeon VM, Python 3.11.7
REF_EVERY_NS = 50_000_000  # op time between two timings of the routine
REF_WINDOW = 3  # routine timings on each side of an op that set its scale


def reference_ns() -> int:
    """Time one run of the fixed reference routine."""
    start = time.perf_counter_ns()
    table = {}
    for i in range(1, 300):
        a, b = Fraction(i, i + 7), Fraction(3, i % 13 + 1)
        table[i % 31] = (a * b + a / b - Fraction(i % 5, 3), i)
    sorted(table.values())
    return time.perf_counter_ns() - start


def host_scales(refs: list[int], slots: list[int]) -> list[float]:
    """Per op, REF_MS over the median routine time in the window around it.

    ``slots[k]`` is the index in ``refs`` of the last routine timing before op k.
    """
    out = []
    for j in slots:
        window = refs[max(0, j - REF_WINDOW + 1) : j + 1 + REF_WINDOW]
        out.append(REF_MS * 1e6 / statistics.median(window))
    return out


def _call(op, item):
    start = time.perf_counter_ns()
    try:
        out, raised = op(item), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, raised = None, exc
    return out, raised, time.perf_counter_ns() - start


def _outcome(workload, item, out, raised) -> tuple[list[str], str, dict]:
    if raised is not None:
        return [f"raised {type(raised).__name__}: {raised}"], "", {}
    errors, text, props = workload.check(item, out)
    return errors, hashlib.sha256(text.encode()).hexdigest()[:16], props


def run(workload, pool, seconds: float, tracing=None, expected=None) -> dict:
    """Closed loop, one caller: the next op starts when the previous one is checked.

    Ops run until their summed wall time reaches ``seconds``; then the rest of
    the first pass runs untimed, so that every input is checked at least once.
    Checks run outside the timed interval.  ``expected`` holds the recorded
    output hash of each pool input, for the default seed.

    With ``tracing`` each input runs twice in a row, traced and untraced in
    alternating order, so that the tracing overhead is measured on the same
    inputs at the same moment; the two outputs must be identical.
    """
    traced_op = None if tracing is None else tracing.recorder.wrap("op", workload.op, root=True)
    budget = seconds * 1e9
    timed_ns, durations, traced_durations = 0, [], []
    refs, slots, since_ref = [], [], 0
    first = []  # exact-output hash per pool index, from the first pass
    failures, messages, props, done = 0, [], [], []
    # The pool and the modules are long-lived: keep them out of collections.
    gc.collect()
    gc.freeze()
    refs.append(reference_ns())
    i = 0
    while timed_ns < budget or i < len(pool):
        item = pool[i % len(pool)]
        timed = timed_ns < budget
        if tracing is not None and i % 2:
            with tracing:
                traced = _call(traced_op, item)
        out, raised, elapsed = _call(workload.op, item)
        errors, h, p = _outcome(workload, item, out, raised)
        if timed:
            timed_ns += elapsed
            durations.append(elapsed)
        if tracing is not None:
            if not i % 2:
                with tracing:
                    traced = _call(traced_op, item)
            if _outcome(workload, item, *traced[:2])[:2] != (errors, h):
                errors.append("traced output differs from the untraced output")
            if timed:
                timed_ns += traced[2]
                traced_durations.append(traced[2])
            done.append(item)
        slots.append(len(refs) - 1)
        if timed:
            since_ref += elapsed + (traced[2] if tracing is not None else 0)
            if since_ref >= REF_EVERY_NS:
                refs.append(reference_ns())
                since_ref = 0
        if i < len(pool):
            if expected is not None and h != expected[i]:
                errors.append("output differs from the recorded default-seed output")
            first.append(h)
        elif h != first[i % len(pool)]:
            errors.append("output differs from the first pass on the same input")
        props.append(p)
        if errors:
            failures += 1
            if len(messages) < 5:
                messages.append(f"{item.level} #{i % len(pool)}: {'; '.join(errors)}")
        i += 1
    refs.append(reference_ns())
    gc.unfreeze()
    scales = host_scales(refs, slots)
    result = {
        "ops": len(durations),
        "timed_s": sum(durations) / 1e9,
        "durations_ns": durations,
        "scaled_ns": [d * f for d, f in zip(durations, scales)],
        "host_scale": statistics.median(scales),
        "attempted": i,
        "failed": failures,
        "errors": messages,
        "hashes": first,
        "props": props,
    }
    if tracing is not None:
        result["trace"], box_points = analyse_trace(
            tracing.recorder, done, scales, workload.growth_layers
        )
        result["trace"]["overhead"] = sum(traced_durations) / sum(durations) - 1
        for p, points in zip(props, box_points):
            p["box_points"] = points
        result["levels"] = [item.level for item in done]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", help="record spans and write them to this JSON file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--digests", help="JSON file of recorded output hashes to compare against")
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    pool = workloads.generate(args.workload, args.seed)
    setup_raw_s = time.perf_counter() - T0
    scale = REF_MS * 1e6 / statistics.median(reference_ns() for _ in range(5))
    setup = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * scale}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracing = None
    if args.trace_out:
        import tracer

        tracing = tracer.Tracing(tracer.Recorder(), "torus_rect_tiler",
                                 {"tiling.json": (workloads, "json_round_trip")})
    expected = None
    if args.digests:
        with open(args.digests, encoding="utf-8") as handle:
            expected = json.load(handle)[args.workload]
        if len(expected) != len(pool):
            raise SystemExit(f"{args.digests} records {len(expected)} outputs for {len(pool)} inputs")
    result = run(workloads.WORKLOADS[args.workload], pool, args.seconds, tracing, expected)
    result.update(setup)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracing is not None:
        record = {**tracing.recorder.to_json(), "summary": result["trace"],
                  "ops": [{"level": lv, **p} for lv, p in zip(result["levels"], result["props"])]}
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
