"""Span recorder for the traced run.

Only the traced run installs it.  ``Tracing`` rebinds each target function in
every namespace that holds it (the defining module and each module that
imported the name), so calls the package makes internally are recorded too,
not only the benchmark's own calls.  Spans are kept in memory as parallel
lists; a span records its name, start, end and parent, and a call made outside
any root span (set-up, output checks) is passed through unrecorded.  Garbage
collections that run inside a root span are recorded as ``python.gc`` spans,
so that their pauses are not charged to whichever span they interrupted.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
from typing import Callable, Optional

_clock = time.perf_counter_ns

Counter = Callable[[tuple, object], dict]


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._gc_span = -1

    def on_gc(self, phase: str, info: dict) -> None:
        """A ``gc.callbacks`` hook recording each collection as a span."""
        if phase == "start" and self._stack:
            self._gc_span = len(self.starts)
            self.names.append("python.gc")
            self.parents.append(self._stack[-1])
            self.ends.append(0)
            self.starts.append(_clock())
        elif phase == "stop" and self._gc_span >= 0:
            self.ends[self._gc_span] = _clock()
            self._gc_span = -1

    def wrap(self, name: str, fn, counter: Optional[Counter] = None, root: bool = False):
        """``fn`` recording one span per call; a root span opens a new tree."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (stack or root):
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()
            if counter is not None:
                counts[idx] = counter(args, result)
            return result

        return traced

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        return own

    def to_json(self) -> dict:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {
            "names": table,
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": {str(i): c for i, c in self.counts.items()},
        }


def _pairs(args, result) -> dict:
    n = len(args[0].rects)
    return {"rect_pairs": n * (n - 1) // 2}


def _graph(args, result) -> dict:
    return {"vertices": len(result.vertices), "edges": len(result.edges)}


def _reduction(args, result) -> dict:
    steps = result[1]
    return {"steps": len(steps), "eliminated": sum(len(s.eliminated) for s in steps)}


def _picture(args, result) -> dict:
    return {"bytes": len(result.encode()), "circles": result.count("<circle")}


# (module under the package, function, counter); the span name is module.function
TARGETS: tuple[tuple[str, str, Optional[Counter]], ...] = (
    ("exact_math", "parse_rational", None),
    ("lattice", "min_length", None),
    ("lattice", "quadrant_basis", None),
    ("lattice", "axis_periods", None),
    ("lattice", "lattice_points_in_box", lambda args, result: {"points": len(result)}),
    ("tiling", "build_optimal", None),
    ("skeleton", "verify_tiling", _pairs),
    ("skeleton", "canonicalize", None),
    ("skeleton", "build_skeleton", _graph),
    ("skeleton", "decompose_axis_paths", None),
    ("skeleton", "reduce_tiling_with_trace", _reduction),
    ("svg", "render_tiling_svg", _picture),
)


class Tracing:
    """The wrapped bindings, switched on for the duration of a with-block.

    Each target, plus each ``extra`` (span name -> (module, attribute)), is
    rebound in every namespace that holds it; leaving the block puts the
    original functions back.
    """

    def __init__(self, recorder: Recorder, package: str, extra: dict) -> None:
        self.recorder = recorder
        namespaces = [
            m
            for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        namespaces += [module for module, _ in extra.values()]
        plan = [
            (f"{mod}.{fn}", sys.modules[f"{package}.{mod}"], fn, counter)
            for mod, fn, counter in TARGETS
        ]
        plan += [(span, module, attr, None) for span, (module, attr) in extra.items()]
        self._swaps = []
        for span, module, attr, counter in plan:
            original = getattr(module, attr)
            wrapped = recorder.wrap(span, original, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._swaps.append((ns, key, original, wrapped))

    def __enter__(self) -> "Tracing":
        for ns, key, _, wrapped in self._swaps:
            setattr(ns, key, wrapped)
        gc.callbacks.append(self.recorder.on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self.recorder.on_gc)
        for ns, key, original, _ in self._swaps:
            setattr(ns, key, original)
