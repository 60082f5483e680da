"""Spans recorded by the benchmark around its calls into actionvar.

A span is one call into a module's public function, made from the
benchmark's own code: name, start, end, parent span, request id, and
whether the call raised.  Spans stay in memory until the run ends.  The
untimed and timed passes call through the same `call` interface; the
untraced tracer just forwards, so both passes execute the same code.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


class NullTracer:
    """Forwards calls without recording anything."""

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per call; nested calls record their parent."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index, request id, raised]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request_id: int | None = None

    def call(self, name, fn, *args):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, perf_counter(), 0.0, parent, self.request_id, True]
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args)
            span[5] = False
            return result
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "request", "raised")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@dataclass
class LayerStats:
    calls: int = 0
    time_s: float = 0.0
    self_s: float = 0.0
    fail: int = 0
    child_calls: int = 0


def aggregate(spans: list[list]) -> dict[str, LayerStats]:
    """Per span name: calls, summed time, self time, raised calls.

    Calls run one after another in one thread, so a span's self time is
    its duration minus the summed durations of its direct children.
    """
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    child_time = [0.0] * len(spans)
    child_calls = [0] * len(spans)
    for _name, start, end, parent, _request, _raised in spans:
        if parent is not None:
            child_time[parent] += end - start
            child_calls[parent] += 1
    for index, (name, start, end, _parent, _request, raised) in enumerate(spans):
        s = stats[name]
        s.calls += 1
        s.time_s += end - start
        s.self_s += end - start - child_time[index]
        s.fail += raised
        s.child_calls += child_calls[index]
    return stats
