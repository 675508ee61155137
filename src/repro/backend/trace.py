"""Operation tracing for cost/memory modelling.

Every backend operation is recorded as ``(tag, op, limbs)`` where *tag* is
the currently active region label (e.g. the NN operator that generated the
homomorphic ops: "Conv", "ReLU", "Bootstrap").  The evaluation harness
feeds these aggregates into the cost model to regenerate Figure 6's
per-phase inference-time breakdown.

**Thread safety.**  Threads that share one backend (serve workers, user
threads) record ops into one trace, so:

* the region stack is *per-thread* (``threading.local``): a region
  entered on one thread can never leak its tag into ops another thread
  records concurrently (the old shared stack interleaved tags — and the
  resulting counts differed run to run);
* counter updates happen under a lock (``Counter.__iadd__`` on a key is
  a read-modify-write, not atomic), so concurrent recording is lossless
  and totals are deterministic regardless of completion order.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class OpTrace:
    """Aggregated homomorphic-operation counts, grouped by region tag."""

    counts: Counter = field(default_factory=Counter)
    _tls: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @property
    def current_tag(self) -> str:
        """This thread's active region tag ("Other" outside any region)."""
        stack = self._stack()
        return stack[-1] if stack else "Other"

    @contextmanager
    def region(self, tag: str):
        """Attribute ops recorded *by this thread* inside to ``tag``."""
        stack = self._stack()
        stack.append(tag)
        try:
            yield
        finally:
            stack.pop()

    def record(self, op: str, limbs: int, count: int = 1) -> None:
        key = (self.current_tag, op, limbs)
        with self._lock:
            self.counts[key] += count

    def clear(self) -> None:
        with self._lock:
            self.counts.clear()

    # -- views ---------------------------------------------------------------

    def _snapshot(self) -> Counter:
        with self._lock:
            return Counter(self.counts)

    def total(self, op: str | None = None) -> int:
        return sum(
            n for (_, o, _), n in self._snapshot().items()
            if op is None or o == op
        )

    def by_tag(self) -> dict[str, Counter]:
        out: dict[str, Counter] = {}
        for (tag, op, limbs), n in self._snapshot().items():
            out.setdefault(tag, Counter())[(op, limbs)] += n
        return out

    def by_op(self) -> Counter:
        out = Counter()
        for (_, op, _), n in self._snapshot().items():
            out[op] += n
        return out

    def merge(self, other: "OpTrace") -> None:
        theirs = other._snapshot()
        with self._lock:
            self.counts.update(theirs)
