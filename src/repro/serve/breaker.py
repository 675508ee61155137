"""Per-model circuit breaker for the inference worker.

:class:`CircuitBreaker` is the *failure* guard in front of every
model's execution path.  A model whose executions keep failing (bad key
material, a poisoned compiled program, an injected chaos storm) should
fail *fast* instead of burning a worker thread and a queue slot per
doomed request.  Standard three-state breaker:

- **closed** — requests flow; consecutive execution failures are
  counted, successes reset the count;
- **open** — after ``failure_threshold`` consecutive failures,
  requests are rejected immediately with
  :class:`repro.errors.CircuitOpenError` (transient, so well-behaved
  clients back off and retry);
- **half-open** — after ``reset_timeout_s`` one *probe* request is
  let through; its success closes the breaker, its failure re-opens
  it and restarts the timeout.

Load is not this module's job: the worker's bounded queue and deadline
drop are the only admission rule (see :mod:`repro.serve.worker`).

State transitions are serialised under one lock; ``clock`` is injectable
so tests drive timeouts without sleeping.
"""

from __future__ import annotations

import threading
import time

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: gauge encoding for ``serve_circuit_state_<model_id>``
STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


class CircuitBreaker:
    """Three-state breaker guarding one model's execution path."""

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0, clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        # caller holds the lock
        if (self._state == OPEN
                and self._clock() - self._opened_at >= self.reset_timeout_s):
            self._state = HALF_OPEN
            self._probe_inflight = False
        return self._state

    def allow(self) -> bool:
        """May a request proceed right now?

        In half-open state exactly one caller gets True (the probe);
        concurrent requests stay rejected until the probe reports back.
        """
        with self._lock:
            state = self._peek_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._failures = 0
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            state = self._peek_state()
            if state == HALF_OPEN:
                self._trip()
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        # caller holds the lock
        self._state = OPEN
        self._failures = 0
        self._opened_at = self._clock()
        self._probe_inflight = False
