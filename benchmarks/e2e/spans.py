"""Spans recorded from outside the program, and the timing backend proxy.

Tracing inside ``src/`` is a later issue; here every span is recorded by
benchmark code wrapped around a call into a layer's public function.
Spans stay in memory until the run ends and are then written as
Chrome-trace JSON (``chrome://tracing`` / Perfetto "X" events).

A span is ``(name, start, end, parent, region)``: ``parent`` is the
index of the span that caused it (``None`` at top level) and ``region``
is the Figure-6 tag (``Conv`` / ``ReLU`` / ``Bootstrap`` / ``Other``)
that was active on the backend's :class:`repro.backend.trace.OpTrace`
when the call was made.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None
    region: str | None = None
    thread: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """An append-only, thread-safe list of finished spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, region: str | None = None) -> int:
        span = Span(name, start, end, parent, region, threading.get_ident())
        with self._lock:
            self.spans.append(span)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record the body as one span; yields a box holding its index.

        The index is reserved up front so child spans recorded inside
        the body can name their parent before the parent has ended.
        """
        start = time.perf_counter()
        with self._lock:
            self.spans.append(Span(name, start, start, parent, None,
                                   threading.get_ident()))
            index = len(self.spans) - 1
        try:
            yield index
        finally:
            self.spans[index].end = time.perf_counter()

    def children(self, parent: int) -> list[Span]:
        return [s for s in self.spans if s.parent == parent]

    def self_seconds(self, index: int) -> float:
        """Span duration minus the part its child spans cover."""
        span = self.spans[index]
        return span.seconds - covered_seconds(
            [(c.start, c.end) for c in self.children(index)],
            span.start, span.end)

    def write_chrome_trace(self, path) -> None:
        events = []
        threads: dict[int, int] = {}
        for index, span in enumerate(self.spans):
            tid = threads.setdefault(span.thread, len(threads))
            events.append({
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 0,
                "tid": tid,
                "args": {"id": index, "parent": span.parent,
                         "region": span.region},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def covered_seconds(intervals: list[tuple[float, float]],
                    lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


#: HEBackend method -> name the backend records it under in its OpTrace
#: (``backend.trace.by_op()``), which is also the span name suffix
BACKEND_OPS = {
    "encrypt": "encrypt", "decrypt": "decrypt", "encode": "encode",
    "add": "add", "add_plain": "add_plain", "sub": "sub",
    "sub_plain": "sub_plain", "negate": "negate", "mul": "mul",
    "mul_plain": "mul_plain", "relinearize": "relin", "rescale": "rescale",
    "mod_switch": "modswitch", "upscale": "upscale",
    "bootstrap": "bootstrap", "rotate": "rotate", "conjugate": "conjugate",
}


class TimedBackend:
    """Delegates every ``HEBackend`` method and records one span per call.

    Each wrapper calls the *real* backend's bound method, so work the
    real backend does through its own methods (``mod_switch_to`` ->
    ``mod_switch``, a bootstrap's internal rotations) stays inside the
    one span of the public call that caused it.  Everything that is not
    an op (``config``, ``trace``, ``ctx``, ``rotation_fallbacks`` ...)
    is read straight from the real backend.
    """

    def __init__(self, real, recorder: SpanRecorder):
        self.real = real
        self.recorder = recorder
        #: index of the ``program.run`` span the next calls belong to
        self.parent: int | None = None
        for method, op in BACKEND_OPS.items():
            setattr(self, method, self._timed(getattr(real, method), op))

    def _timed(self, call, op: str):
        name = "backend." + op
        add = self.recorder.add
        trace = self.real.trace
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = call(*args, **kwargs)
            add(name, start, clock(), self.parent, trace.current_tag)
            return result

        return wrapper

    def __getattr__(self, attr):
        return getattr(self.real, attr)
