"""Thread-pool execution engine for the inference server.

Python threads are a real fit here: the hot kernels (NTT, RNS modmul)
are vectorised numpy which releases the GIL, so worker threads execute
different models' batches genuinely in parallel.  The pool wraps one
bounded request queue:

* ``submit`` applies **backpressure** — a full queue raises a typed
  :class:`repro.errors.QueueFullError` instead of buffering unboundedly.
  The bounded queue plus the deadline drop below is the *only* admission
  rule: ``queue_size`` is the dial that trades goodput for queueing
  delay (worst-case wait is roughly ``queue_size / capacity``);
* each worker thread pops a request, then *lingers* up to ``max_wait_s``
  collecting compatible requests (:func:`repro.serve.batcher.can_join`)
  into one slot-batched execution; the linger is **deadline-aware** —
  it is capped so the tightest member's remaining deadline still covers
  an (EWMA-estimated) execution, so batching never converts an
  admissible request into a timeout;
* requests carry a **deadline**; a request that expires in the queue is
  completed with a structured timeout failure, never executed
  (``serve_deadline_miss_total``); successes inside their deadline feed
  the ``serve_goodput_rps`` gauge;
* execution errors complete the affected requests with structured
  failures — a poisoned request cannot crash the server;
* a failed *batched* execution is contained one way: when the failure
  names a culprit, the culprit fails alone and the healthy B-1
  re-execute once as **one** batch (``serve_batch_repacks``); otherwise
  every member gets the typed error and the execution counts as **one**
  breaker failure — clients retry transient errors through
  :mod:`repro.serve.retry`, exactly as for ``QueueFullError``;
* every model is guarded by a per-model **circuit breaker**
  (:mod:`repro.serve.breaker`): after N consecutive execution failures
  new requests are rejected cheaply with
  :class:`repro.errors.CircuitOpenError` until a half-open probe
  succeeds (``serve_circuit_state_<model>`` gauge,
  ``serve_circuit_open_total`` counter);
* ``close`` drains and fails pending work, then joins the threads.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

from repro import chaos
from repro.errors import (
    CircuitOpenError,
    QueueFullError,
    ReproError,
    RequestTimeoutError,
    ServerShutdownError,
)
from repro.serve.batcher import (
    PendingRequest,
    can_join,
    execute_batch,
)
from repro.serve.breaker import (
    HALF_OPEN,
    OPEN,
    STATE_CODES,
    CircuitBreaker,
)
from repro.serve.metrics import Metrics, SlidingWindow
from repro.serve.registry import ModelEntry

_SENTINEL = object()


@dataclass
class ServeResponse:
    """Structured outcome of one request (success or failure)."""

    ok: bool
    payload: bytes | None = None
    slot_offset: int = 0
    batch_size: int = 0
    error: str | None = None
    message: str | None = None
    latency_s: float = 0.0

    @classmethod
    def failure(cls, exc: BaseException,
                latency_s: float = 0.0) -> "ServeResponse":
        return cls(ok=False, error=type(exc).__name__, message=str(exc),
                   latency_s=latency_s)

    def header(self) -> dict:
        """JSON-safe wire header (payload bytes travel separately)."""
        return {
            "ok": self.ok,
            "slot_offset": self.slot_offset,
            "batch_size": self.batch_size,
            "error": self.error,
            "message": self.message,
            "latency_s": round(self.latency_s, 6),
        }


class InferenceWorker:
    """Bounded-queue thread pool with cross-request slot batching."""

    def __init__(
        self,
        metrics: Metrics | None = None,
        num_threads: int = 2,
        queue_size: int = 64,
        max_wait_s: float = 0.005,
        request_timeout_s: float = 30.0,
        breaker_failures: int = 5,
        breaker_reset_s: float = 30.0,
    ):
        if num_threads < 1:
            raise ReproError("need at least one worker thread")
        self.metrics = metrics or Metrics()
        self.max_wait_s = max_wait_s
        self.request_timeout_s = request_timeout_s
        self.breaker_failures = breaker_failures
        self.breaker_reset_s = breaker_reset_s
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breakers_lock = threading.Lock()
        # per-model EWMA of batch execution seconds; sizes the
        # deadline-aware linger cap in _collect_batch
        self._exec_ewma: dict[str, float] = {}
        self._ewma_lock = threading.Lock()
        # successes that beat their deadline, for serve_goodput_rps
        self._goodput = SlidingWindow()
        self._goodput_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._ids = itertools.count(1)
        self._stopping = False
        self._threads = [
            threading.Thread(target=self._loop, name=f"serve-worker-{i}",
                             daemon=True)
            for i in range(num_threads)
        ]
        for t in self._threads:
            t.start()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        entry: ModelEntry,
        session_id: str,
        ciphertext,
        timeout_s: float | None = None,
        wire_bytes_in: int = 0,
    ) -> Future:
        """Enqueue one request; returns a Future of :class:`ServeResponse`.

        Raises :class:`ServerShutdownError` after :meth:`close`,
        :class:`QueueFullError` when the bounded queue is full, and
        :class:`CircuitOpenError` while the model's breaker is open.
        """
        if self._stopping:
            raise ServerShutdownError("server is shutting down")
        breaker = self.breaker(entry)
        probing = breaker.state == HALF_OPEN
        if not breaker.allow():
            self.metrics.inc("serve_requests_rejected_total")
            self.metrics.inc("serve_circuit_rejected_total")
            raise CircuitOpenError(
                f"circuit open for model {entry.model_id!r}")
        timeout_s = self.request_timeout_s if timeout_s is None else timeout_s
        request_id = next(self._ids)
        req = PendingRequest(
            request_id=request_id,
            session_id=session_id,
            fingerprint=entry.fingerprint,
            entry=entry,
            ciphertext=ciphertext,
            deadline=time.monotonic() + timeout_s if timeout_s else None,
            poisoned=chaos.poison_request(request_id),
        )
        try:
            self._queue.put_nowait(req)
        except queue.Full:
            if probing:
                # the half-open probe never reached execution; reopen so
                # the breaker does not wedge with a probe in flight
                breaker.record_failure()
            self.metrics.inc("serve_requests_rejected_total")
            raise QueueFullError(
                f"request queue full ({self._queue.maxsize} pending)"
            ) from None
        self.metrics.inc("serve_requests_total")
        self.metrics.inc("serve_bytes_in_total", wire_bytes_in)
        self.metrics.set_gauge("serve_queue_depth", self._queue.qsize())
        return req.future

    def wait(self, future: Future, timeout_s: float | None = None) -> ServeResponse:
        """Block for a response; a client-side timeout becomes a
        structured failure rather than an exception."""
        timeout_s = self.request_timeout_s if timeout_s is None else timeout_s
        try:
            return future.result(timeout=timeout_s)
        except FutureTimeoutError:
            return ServeResponse.failure(
                RequestTimeoutError(
                    f"no response within {timeout_s:.3f}s"),
                latency_s=timeout_s,
            )

    # -- worker loop --------------------------------------------------------

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            batch = self._collect_batch(item)
            if batch:
                self._execute(batch)
            self.metrics.set_gauge("serve_queue_depth", self._queue.qsize())

    def _linger_cap(self, batch: list[PendingRequest],
                    linger_until: float) -> float:
        """Cap the linger so the tightest deadline still covers execution.

        The cap is ``min(deadline) - 1.25 * exec_ewma``: stop collecting
        early enough that, by the per-model execution-time estimate
        (plus slack), the most impatient member still gets its result
        inside its deadline.  Without deadlines the full ``max_wait_s``
        linger stands.
        """
        deadlines = [r.deadline for r in batch if r.deadline is not None]
        if not deadlines:
            return linger_until
        est = 1.25 * self._exec_estimate(batch[0].entry)
        return min(linger_until, min(deadlines) - est)

    def _collect_batch(self, first: PendingRequest) -> list[PendingRequest]:
        """Grow a batch around ``first`` for up to ``max_wait_s``.

        Incompatible requests popped while lingering are pushed back to
        the queue tail (FIFO order within a batch window is not
        guaranteed; deadlines still are).  The linger window is
        deadline-aware (:meth:`_linger_cap`) and re-tightens as members
        with closer deadlines join.
        """
        batch = [first]
        if first.entry.supports_batching and first.entry.max_batch > 1:
            linger_until = self._linger_cap(
                batch, time.monotonic() + self.max_wait_s)
            while len(batch) < first.entry.max_batch:
                remaining = linger_until - time.monotonic()
                try:
                    nxt = (self._queue.get(timeout=remaining)
                           if remaining > 0 else self._queue.get_nowait())
                except queue.Empty:
                    break
                if nxt is _SENTINEL:
                    # keep the shutdown signal for the next worker
                    self._queue.put(nxt)
                    break
                if can_join(batch, nxt):
                    batch.append(nxt)
                    linger_until = self._linger_cap(batch, linger_until)
                else:
                    try:
                        self._queue.put_nowait(nxt)
                    except queue.Full:
                        self._fail(nxt, QueueFullError(
                            "queue full while re-queuing an unbatchable "
                            "request"))
        live = []
        now = time.monotonic()
        est = self._exec_estimate(first.entry)
        for req in batch:
            # a request whose remaining deadline no longer covers an
            # (estimated) execution is dropped now: executing it would
            # spend a batch slot producing a result nobody can use
            doomed = (est > 0.0 and req.deadline is not None
                      and req.deadline - now < est)
            if req.expired(now) or doomed:
                self._expire(
                    req,
                    ("cannot finish inside its deadline after"
                     if doomed and not req.expired(now) else
                     "expired after")
                    + f" {now - req.enqueued_at:.3f}s in queue")
            else:
                live.append(req)
        return live

    def _observe(self, deadline_missed: bool) -> None:
        """Count one finished request against its deadline."""
        if deadline_missed:
            self.metrics.inc("serve_deadline_miss_total")
            return
        with self._goodput_lock:
            self._goodput.observe(1.0)
            rate = self._goodput.rate()
        self.metrics.set_gauge("serve_goodput_rps", rate)

    def _exec_estimate(self, entry: ModelEntry) -> float:
        with self._ewma_lock:
            return self._exec_ewma.get(entry.model_id, 0.0)

    def _update_exec_estimate(self, entry: ModelEntry,
                              elapsed: float) -> None:
        with self._ewma_lock:
            old = self._exec_ewma.get(entry.model_id)
            self._exec_ewma[entry.model_id] = (
                elapsed if old is None else 0.7 * old + 0.3 * elapsed)

    def breaker(self, entry: ModelEntry) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``entry``.

        The registry entry may override the worker-wide threshold/reset
        defaults (see :class:`repro.serve.registry.ModelEntry`).
        """
        with self._breakers_lock:
            breaker = self._breakers.get(entry.model_id)
            if breaker is None:
                breaker = self._breakers[entry.model_id] = CircuitBreaker(
                    failure_threshold=(entry.breaker_failures
                                       or self.breaker_failures),
                    reset_timeout_s=(entry.breaker_reset_s
                                     if entry.breaker_reset_s is not None
                                     else self.breaker_reset_s),
                )
                self.metrics.set_gauge(
                    f"serve_circuit_state_{entry.model_id}",
                    STATE_CODES[breaker.state])
            return breaker

    def _record_outcome(self, entry: ModelEntry, success: bool) -> None:
        model_id = entry.model_id
        breaker = self.breaker(entry)
        before = breaker.state
        if success:
            breaker.record_success()
        else:
            breaker.record_failure()
        after = breaker.state
        if after == OPEN and before != OPEN:
            self.metrics.inc("serve_circuit_open_total")
        self.metrics.set_gauge(
            f"serve_circuit_state_{model_id}", STATE_CODES[after])

    def _execute(self, batch: list[PendingRequest]) -> None:
        entry = batch[0].entry
        started = time.monotonic()
        try:
            results = execute_batch(entry, batch)
        except Exception as exc:  # noqa: BLE001 — worker must survive
            # one failed execution is ONE breaker failure however many
            # members it carried: counted per member, a single faulty
            # batch of 8 would open a threshold-5 circuit by itself
            self._record_outcome(entry, success=False)
            if len(batch) > 1 and self._repack(batch, exc):
                return
            for req in batch:
                self.metrics.inc("serve_requests_failed_total")
                self._fail(req, exc)
            return
        self._record_outcome(entry, success=True)
        finished = time.monotonic()
        self._update_exec_estimate(entry, finished - started)
        self.metrics.inc("serve_batches_total")
        self.metrics.observe("serve_batch_occupancy", len(batch))
        self.metrics.observe("serve_batch_exec_s", finished - started)
        for req, result in zip(batch, results):
            latency = finished - req.enqueued_at
            missed = req.deadline is not None and finished > req.deadline
            self._observe(deadline_missed=missed)
            self.metrics.observe("serve_request_latency_s", latency)
            self.metrics.inc("serve_bytes_out_total", len(result.payload))
            if not req.future.set_running_or_notify_cancel():
                continue
            req.future.set_result(ServeResponse(
                ok=True,
                payload=result.payload,
                slot_offset=result.slot_offset,
                batch_size=result.batch_size,
                latency_s=latency,
            ))

    def _repack(self, batch: list[PendingRequest],
                exc: BaseException) -> bool:
        """Contain a batch failure by re-packing the healthy members.

        When the failure names a culprit (``exc.culprit_request_id``, or
        a chaos-poisoned member), the culprit fails alone with the typed
        error and the healthy B-1 re-execute once as *one* batch.
        Returns False (caller fails the whole batch with the typed
        error) when nothing attributes the failure to a specific member:
        re-packing all survivors would just fail again.
        """
        culprit_id = getattr(exc, "culprit_request_id", None)
        culprits = [r for r in batch
                    if r.poisoned or r.request_id == culprit_id]
        if not culprits:
            return False
        self.metrics.inc("serve_batch_repacks")
        culprit_ids = {r.request_id for r in culprits}
        for req in culprits:
            self.metrics.inc("serve_requests_failed_total")
            self._fail(req, exc)
        healthy = [r for r in batch if r.request_id not in culprit_ids]
        now = time.monotonic()
        live = []
        for req in healthy:
            if req.expired(now):
                self._expire(req, "expired during batch re-packing")
            else:
                live.append(req)
        if live:
            self._execute(live)
        return True

    def _expire(self, req: PendingRequest, why: str) -> None:
        """Fail ``req`` as a deadline miss without executing it."""
        self.metrics.inc("serve_requests_timeout_total")
        self._observe(deadline_missed=True)
        self._fail(req, RequestTimeoutError(
            f"request {req.request_id} {why}"))

    def _fail(self, req: PendingRequest, exc: BaseException) -> None:
        latency = time.monotonic() - req.enqueued_at
        if req.future.set_running_or_notify_cancel():
            req.future.set_result(ServeResponse.failure(exc, latency))

    # -- shutdown -----------------------------------------------------------

    def close(self, timeout_s: float = 10.0) -> None:
        """Graceful shutdown: refuse new work, fail queued work, join."""
        if self._stopping:
            return
        self._stopping = True
        drained: list[PendingRequest] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SENTINEL:
                drained.append(item)
        for req in drained:
            self._fail(req, ServerShutdownError(
                "server shut down before the request ran"))
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for t in self._threads:
            t.join(timeout=timeout_s)

    def __enter__(self) -> "InferenceWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
