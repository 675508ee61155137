"""Serving metrics: thread-safe counters and latency histograms.

The serving layer records everything a capacity planner would ask of a
production FHE endpoint: request/batch counters, batch slot occupancy,
queue depth, end-to-end latency percentiles, and ciphertext bytes moved
over the wire.  Snapshots are plain dicts (easy to assert in tests and
dump as JSON); :meth:`Metrics.render` emits a flat ``name value`` text
dump in the spirit of a Prometheus exposition.
"""

from __future__ import annotations

import bisect
import threading
import time


class Histogram:
    """A bounded sorted sample of observations with percentile queries.

    Keeps at most ``max_samples`` values; once full, every new value
    overwrites the oldest (a ring over insertion order) so long-running
    servers track recent behaviour without unbounded memory.
    """

    def __init__(self, max_samples: int = 4096):
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self._sorted: list[float] = []
        self._ring: list[float] = []
        self._next = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if len(self._ring) < self.max_samples:
            self._ring.append(value)
        else:
            old = self._ring[self._next]
            self._sorted.pop(bisect.bisect_left(self._sorted, old))
            self._ring[self._next] = value
            self._next = (self._next + 1) % self.max_samples
        bisect.insort(self._sorted, value)

    def percentile(self, q: float) -> float:
        if not self._sorted:
            return 0.0
        rank = min(len(self._sorted) - 1,
                   max(0, round(q / 100.0 * (len(self._sorted) - 1))))
        return self._sorted[rank]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count if self.count else 0.0,
            "min": self._sorted[0] if self._sorted else 0.0,
            "max": self._sorted[-1] if self._sorted else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class SlidingWindow:
    """Time-windowed observations with percentile / rate queries.

    Unlike :class:`Histogram` (which rings over *insertion order*), this
    window forgets by *age*: only observations younger than ``window_s``
    count.  That is the shape a *current* rate needs
    (``serve_goodput_rps``) — what happened five minutes ago must not
    colour the reading now.  The clock is injectable so tests advance
    time without sleeping.  Not thread-safe on its own; callers hold
    their own lock.
    """

    def __init__(self, window_s: float = 5.0, max_samples: int = 2048,
                 clock=None):
        self.window_s = window_s
        self.max_samples = max_samples
        self._clock = clock or time.monotonic
        self._samples: list[tuple[float, float]] = []  # (when, value)

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        drop = 0
        for when, _ in self._samples:
            if when >= horizon:
                break
            drop += 1
        if drop:
            del self._samples[:drop]
        if len(self._samples) > self.max_samples:
            del self._samples[:len(self._samples) - self.max_samples]

    def observe(self, value: float, now: float | None = None) -> None:
        now = self._clock() if now is None else now
        self._samples.append((now, float(value)))
        self._trim(now)

    def count(self, now: float | None = None) -> int:
        self._trim(self._clock() if now is None else now)
        return len(self._samples)

    def rate(self, now: float | None = None) -> float:
        """Observations per second over the window."""
        now = self._clock() if now is None else now
        self._trim(now)
        return len(self._samples) / self.window_s if self.window_s else 0.0

    def percentile(self, q: float, now: float | None = None) -> float:
        self._trim(self._clock() if now is None else now)
        if not self._samples:
            return 0.0
        values = sorted(v for _, v in self._samples)
        rank = min(len(values) - 1,
                   max(0, round(q / 100.0 * (len(values) - 1))))
        return values[rank]


def aggregate_counters(snapshots: list[dict],
                       names: tuple[str, ...]) -> dict[str, float]:
    """Sum selected counters/gauges across metrics ``snapshot()`` dicts.

    The scale-out router uses this to fold its shards' overload metrics
    (goodput, repacks, deadline misses) into one aggregated
    reply; missing names count as zero so a freshly spawned shard does
    not poison the sum.
    """
    totals = {name: 0.0 for name in names}
    for snap in snapshots:
        counters = snap.get("counters", {})
        gauges = snap.get("gauges", {})
        for name in names:
            totals[name] += float(counters.get(name,
                                               gauges.get(name, 0.0)))
    return totals


class Metrics:
    """Named counters, gauges and histograms behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """One coherent dict: counters, gauges, histogram summaries."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.snapshot()
                    for name, hist in self._histograms.items()
                },
            }

    def render(self) -> str:
        """Flat plaintext dump: one ``name value`` line per metric."""
        snap = self.snapshot()
        lines = []
        for name in sorted(snap["counters"]):
            lines.append(f"{name} {snap['counters'][name]:g}")
        for name in sorted(snap["gauges"]):
            lines.append(f"{name} {snap['gauges'][name]:g}")
        for name in sorted(snap["histograms"]):
            summary = snap["histograms"][name]
            for key in ("count", "mean", "p50", "p95", "max"):
                lines.append(f"{name}_{key} {summary[key]:g}")
        return "\n".join(lines) + "\n"
