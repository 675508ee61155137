"""``serve_mix``: one InferenceServer, three traffic phases.

* **open** — an open loop: seeded Poisson arrivals submitted from the one
  generator thread through ``server.worker.submit``.  Every request is
  timed from the moment it was *due*, so a stall is charged to the
  requests it delayed, and the generator's own lateness is reported.
* **sat** — a closed loop from the same thread: a fixed window of
  requests is always outstanding, which pins batch occupancy at
  ``max_batch`` and measures throughput.
* **wire** — closed loops over loopback: each ``RemoteModelClient``
  connection does full encrypt -> infer -> decrypt round trips.
  ``RemoteModelClient.infer`` blocks, so this phase alone uses one
  thread per connection (``WIRE_CONNECTIONS`` = nproc = 2).

Requests for the open and sat phases are encrypted before the phase
starts: those phases time the server, the wire phase times the client
work as well.  Every reply is decrypted and compared with the numpy
reference after its phase, outside the timed region.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time

import numpy as np

from repro.serve import InferenceServer, ModelRegistry, RemoteModelClient

import measure
from workloads import ServeMix, scaled


class Phase:
    """What one traffic phase observed."""

    def __init__(self, name: str):
        self.name = name
        self.sent = 0
        self.completed = 0
        self.correct = 0
        self.wall_s = 0.0
        #: request latency in ms (open: from due time; wire: round trip)
        self.latency_ms: list[float] = []
        #: open phase: how late each request left the generator, in ms
        self.late_ms: list[float] = []
        #: open phase: correct replies inside the SLO
        self.within_slo = 0
        self.encrypt_ms: list[float] = []
        self.decrypt_ms: list[float] = []
        self.before: dict = {}
        self.after: dict = {}

    # -- server-side view: Metrics.snapshot() deltas over the phase -----

    def counter(self, name: str) -> float:
        return (self.after["counters"].get(name, 0)
                - self.before["counters"].get(name, 0))

    def histogram(self, name: str) -> tuple[float, float]:
        """(observations, their sum) added during the phase."""
        empty = {"count": 0, "sum": 0.0}
        new = self.after["histograms"].get(name, empty)
        old = self.before["histograms"].get(name, empty)
        return new["count"] - old["count"], new["sum"] - old["sum"]

    def mean(self, name: str) -> float:
        count, total = self.histogram(name)
        return total / count if count else 0.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


class Served:
    """A registered model behind a started server, plus phase drivers."""

    def __init__(self, workload: ServeMix, tally: measure.Tally,
                 recorder=None):
        self.workload = workload
        self.tally = tally
        self.recorder = recorder
        start = time.perf_counter()
        self.registry = ModelRegistry()
        self.entry = workload.register(self.registry)
        self.register_s = time.perf_counter() - start
        self.server = InferenceServer(self.registry).start()

    def stop(self) -> None:
        """Close the worker pool; the accept thread ends with the process.

        ``InferenceServer.stop()`` joins its accept thread, but closing
        the listening socket does not interrupt a blocked ``accept()``
        on Linux, so that join sits out its full 5 s timeout — 30 s a
        run over six children.  The thread is an idle daemon.
        """
        self.server.worker.close()

    def first_reply(self, x) -> None:
        """One full round trip over the wire, checked."""
        with RemoteModelClient(self.server.host, self.server.port,
                               self.workload.MODEL_ID) as client:
            out = client.infer(x)
        self.tally.check_output("first reply", out,
                                self.workload.reference(x),
                                self.workload.tolerance)

    # -- helpers ---------------------------------------------------------

    def _encrypt_all(self, xs):
        entry = self.entry
        return [entry.encryptor(entry.backend, x) for x in xs]

    def _check_reply(self, phase: Phase, label: str, response, x) -> bool:
        """Decrypt one worker response and compare with the reference."""
        if response is None or not response.ok:
            why = "no response" if response is None else (
                f"{response.error}: {response.message}")
            self.tally.fail(f"{phase.name} {label}: {why}")
            return False
        phase.completed += 1
        out = self.entry.decrypt_result(response.payload,
                                        response.slot_offset)
        good = self.tally.check_output(
            f"{phase.name} {label}", out, self.workload.reference(x),
            self.workload.tolerance)
        phase.correct += good
        return good

    def _span(self, name: str, start: float, end: float) -> None:
        if self.recorder is not None:
            self.recorder.add(name, start, end)

    def _begin(self, name: str) -> Phase:
        gc.collect()
        phase = Phase(name)
        phase.before = self.server.metrics.snapshot()
        return phase

    def _end(self, phase: Phase) -> Phase:
        phase.after = self.server.metrics.snapshot()
        return phase

    # -- phases ----------------------------------------------------------

    def open_phase(self, rng, seconds: float) -> Phase:
        workload, worker, entry = self.workload, self.server.worker, self.entry
        count = max(1, round(workload.OPEN_RATE * seconds))
        due = np.cumsum(rng.exponential(1.0 / workload.OPEN_RATE, count))
        xs = [workload.make_input(rng) for _ in range(count)]
        ciphertexts = self._encrypt_all(xs)
        done: list[float | None] = [None] * count
        futures: list = [None] * count
        phase = self._begin("open")
        origin = time.perf_counter() + 0.05
        for i in range(count):
            target = origin + due[i]
            while True:
                remaining = target - time.perf_counter()
                if remaining <= 0:
                    break
                if remaining > 0.002:
                    time.sleep(remaining - 0.001)
            phase.late_ms.append((time.perf_counter() - target) * 1e3)
            phase.sent += 1
            try:
                future = worker.submit(entry, "open", ciphertexts[i])
            except Exception as exc:  # refused or shed: a failed request
                self.tally.fail(f"open {i}: {type(exc).__name__}: {exc}")
                continue
            future.add_done_callback(
                lambda _f, i=i: done.__setitem__(i, time.perf_counter()))
            futures[i] = future
        responses = [worker.wait(f) if f is not None else None
                     for f in futures]
        phase.wall_s = time.perf_counter() - origin
        self._end(phase)
        for i, response in enumerate(responses):
            if futures[i] is None:
                continue
            good = self._check_reply(phase, str(i), response, xs[i])
            if done[i] is None:
                continue
            latency = (done[i] - (origin + due[i])) * 1e3
            phase.latency_ms.append(latency)
            self._span("serve.request.open", origin + due[i], done[i])
            phase.within_slo += good and latency <= workload.SLO_MS
        return phase

    def sat_phase(self, rng, count: int) -> Phase:
        workload, worker, entry = self.workload, self.server.worker, self.entry
        xs = [workload.make_input(rng) for _ in range(count)]
        ciphertexts = self._encrypt_all(xs)
        window = threading.Semaphore(workload.SAT_WINDOW)
        futures: list = [None] * count
        phase = self._begin("sat")
        start = time.perf_counter()
        for i in range(count):
            window.acquire()
            phase.sent += 1
            try:
                future = worker.submit(entry, "sat", ciphertexts[i])
            except Exception as exc:
                self.tally.fail(f"sat {i}: {type(exc).__name__}: {exc}")
                window.release()
                continue
            future.add_done_callback(lambda _f: window.release())
            futures[i] = future
        responses = [worker.wait(f) if f is not None else None
                     for f in futures]
        phase.wall_s = time.perf_counter() - start
        self._end(phase)
        self._span("serve.phase.sat", start, start + phase.wall_s)
        for i, response in enumerate(responses):
            if futures[i] is not None:
                self._check_reply(phase, str(i), response, xs[i])
        return phase

    def wire_phase(self, rng, round_trips: int) -> Phase:
        workload = self.workload
        connections = workload.WIRE_CONNECTIONS
        inputs = [[workload.make_input(rng) for _ in range(round_trips)]
                  for _ in range(connections)]
        phase = self._begin("wire")
        lock = threading.Lock()

        def client_loop(xs) -> None:
            with RemoteModelClient(self.server.host, self.server.port,
                                   workload.MODEL_ID) as client:
                for i, x in enumerate(xs):
                    with lock:
                        phase.sent += 1
                    t0 = time.perf_counter()
                    try:
                        payload = client.encrypt(x)
                        t1 = time.perf_counter()
                        reply, body = client.infer_bytes(payload)
                        t2 = time.perf_counter()
                        out = client.decrypt(body,
                                             reply.get("slot_offset", 0))
                    except Exception as exc:
                        with lock:
                            self.tally.fail(
                                f"wire {i}: {type(exc).__name__}: {exc}")
                        continue
                    t3 = time.perf_counter()
                    self._span("serve.client.encrypt", t0, t1)
                    self._span("serve.client.rpc", t1, t2)
                    self._span("serve.client.decrypt", t2, t3)
                    with lock:
                        phase.completed += 1
                        phase.latency_ms.append((t3 - t0) * 1e3)
                        phase.encrypt_ms.append((t1 - t0) * 1e3)
                        phase.decrypt_ms.append((t3 - t2) * 1e3)
                        phase.correct += self.tally.check_output(
                            f"wire {i}", out, workload.reference(x),
                            workload.tolerance)

        threads = [threading.Thread(target=client_loop, args=(xs,))
                   for xs in inputs]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.wall_s = time.perf_counter() - start
        return self._end(phase)

    def single_requests(self, rng, count: int) -> list[float]:
        """In-process latency (ms) of one request at a time, no wire."""
        worker, entry = self.server.worker, self.entry
        phase = Phase("single")
        latencies = []
        for i in range(count):
            x = self.workload.make_input(rng)
            ciphertext = entry.encryptor(entry.backend, x)
            start = time.perf_counter()
            response = worker.wait(worker.submit(entry, "single", ciphertext))
            latencies.append((time.perf_counter() - start) * 1e3)
            self._check_reply(phase, str(i), response, x)
        return latencies


def open_phase_gates(phase: Phase, tally: measure.Tally) -> None:
    """The open phase must have been an open loop that kept up."""
    if phase.completed < 0.95 * phase.sent:
        tally.fail(f"open phase completed {phase.completed} of "
                        f"{phase.sent} sent (< 95 %)")
    late = percentile(phase.late_ms, 90)
    if late >= 20.0:
        tally.fail(f"open-phase generator ran {late:.1f} ms late at "
                        "p90 (>= 20 ms): arrivals were not on schedule")


def phase_sizes(workload: ServeMix, scale: float,
                smoke: bool) -> tuple[float, int, int]:
    """(open-phase seconds, sat-phase requests, wire round trips)."""
    if smoke:
        return 3.0, 2 * workload.SAT_WINDOW, 1
    return (workload.OPEN_SECONDS * max(1.0, scale),
            scaled(workload.SAT_REQUESTS, scale),
            scaled(workload.WIRE_ROUND_TRIPS, scale))


def run_child(workload: ServeMix, seed: int, index: int, scale: float,
              smoke: bool) -> dict:
    """One child: a cold set-up, direct inferences, compile samples.

    The last child of a run also drives the three traffic phases, on the
    server its set-up started.
    """
    tally = measure.Tally()
    rng = measure.child_rng(seed, index)
    first = workload.make_input(rng)
    samples: dict[str, list[float]] = {}
    values: dict = {}
    result = {"samples": samples, "values": values, "tally": tally}
    gc.collect()
    start = time.perf_counter()
    served = Served(workload, tally)
    try:
        served.first_reply(first)
        samples["setup_s"] = [time.perf_counter() - start]
        entry = served.entry
        # infer_s: the registered program run directly, un-served
        samples["infer_s"] = measure.timed_inferences(
            lambda x: entry.program.run(entry.backend, x,
                                        check_plan=False)[0],
            workload, rng, *measure.infer_sizes(workload, scale, smoke),
            tally)
        if index == workload.children - 1 or smoke:
            seconds, requests, round_trips = phase_sizes(workload, scale,
                                                         smoke)
            opened = served.open_phase(rng, seconds)
            sat = served.sat_phase(rng, requests)
            wire = served.wire_phase(rng, round_trips)
            open_phase_gates(opened, tally)
            samples["serve_p50_ms"] = opened.latency_ms  # and serve_p90_ms
            samples["wire_rtt_ms"] = wire.latency_ms
            values["serve_p50_ms"] = percentile(opened.latency_ms, 50)
            values["serve_p90_ms"] = percentile(opened.latency_ms, 90)
            values["serve_slo_share"] = opened.within_slo / opened.sent
            values["serve_rps"] = sat.completed / sat.wall_s
            values["wire_rtt_ms"] = statistics.median(wire.latency_ms)
            result["phases"] = {
                p.name: {"sent": p.sent, "completed": p.completed,
                         "correct": p.correct, "wall_s": p.wall_s}
                for p in (opened, sat, wire)
            }
        values["key_mb"] = entry.key_bytes / 2**20
        values["kernel_backend"] = entry.program.stats["kernel_backend"]
        values.update(measure.program_counts(entry.program))
    finally:
        served.stop()
    del served, entry
    samples["compile_s"], program = measure.timed_compiles(
        workload, workload.model_bytes(),
        *measure.compile_sizes(workload, scale, smoke), tally)
    counts = measure.program_counts(program)
    if any(values[name] != count for name, count in counts.items()):
        tally.fail("the registered program and a direct compile of "
                        f"the same model differ in their counts: {counts}")
    return measure.finish(result)
