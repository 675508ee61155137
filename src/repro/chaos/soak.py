"""Chaos soak: a seeded, long-running overload + fault scenario.

The point of the serving layer's containment machinery — a bounded
queue, deadline-aware batching, partial-batch re-packing, breakers,
typed transient errors — is what happens over *minutes* of sustained
overload with faults firing, not in one unit test.  This module runs
exactly that scenario against an in-process serving stack and reports
whether containment held:

1. **calibrate** — closed-loop, no chaos: measure the stack's
   single-load capacity (requests/sec) and unloaded p95;
2. **soak** — open-loop arrivals at ``overload x capacity`` for
   ``duration_s`` with a seeded :class:`~repro.chaos.ChaosPlan`
   installed, every request carrying a deadline derived from the
   unloaded p95;
3. **report** — classify every outcome (good = replied inside its
   deadline; queue-full / circuit-open backpressure; timeouts;
   transient vs non-transient failures) next to the chaos events that
   fired.

The invariants a healthy stack maintains (gated by
``benchmarks/bench_overload.py`` and the CI soak job):

* goodput stays >= 70% of calibrated capacity despite 3x offered load;
* admitted requests' p95 stays <= 2x the unloaded p95 (set by
  ``queue_size / capacity``: a shorter queue buys latency with goodput);
* zero non-transient client errors — overload and faults surface only
  as typed transient rejections a client can back off on.

Everything is deterministic from ``SoakConfig.seed``: the chaos plan,
the arrival schedule, and the request payloads.  Run one from the CLI
with ``repro soak`` (``--out`` writes the JSON report).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

import repro.errors as errors_mod
from repro import chaos
from repro.ckks import CkksParameters
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.serve import InferenceWorker, Metrics, ModelRegistry


@dataclass
class SoakConfig:
    """One soak scenario, fully determined by its fields."""

    seed: int = 42
    #: open-loop phase length (the calibration phase is on top)
    duration_s: float = 8.0
    #: offered load as a multiple of calibrated capacity
    overload: float = 3.0
    workers: int = 2
    #: small on purpose: bounds worst-case queue delay to roughly
    #: ``queue_size / capacity`` so admitted requests can still meet
    #: their deadlines; overload beyond it is refused, not buffered
    queue_size: int = 32
    max_batch: int = 8
    #: closed-loop requests used to measure capacity / unloaded p95
    calibration_requests: int = 48
    #: chaos spec for the soak phase (None = :func:`soak_plan`)
    chaos_spec: str | None = None
    #: request deadline as a multiple of the unloaded p95
    deadline_factor: float = 8.0


def soak_plan(seed: int) -> chaos.ChaosPlan:
    """The default soak fault mix: every site is containable in-process.

    Poisoned requests exercise partial-batch re-packing, executor job
    exceptions exercise fail-the-batch/breaker accounting, and backend
    latency spikes stretch executions under the deadline drop.  Wire
    sites are omitted — the soak drives the worker directly,
    so there is no client socket for them to break.
    """
    return chaos.ChaosPlan(seed, {
        chaos.SERVE_POISON: chaos.SiteSpec(0.02, max_count=16),
        chaos.EXECUTOR_JOB_EXCEPTION: chaos.SiteSpec(0.01, max_count=8),
        chaos.BACKEND_LATENCY: chaos.SiteSpec(0.02, max_count=16,
                                              value=0.01),
    })


def build_soak_registry(max_batch: int = 8) -> tuple:
    """A small GEMM model that tiles ``max_batch`` requests per ciphertext.

    Same shape as the serving throughput benchmark: 24 features into 3
    outputs, 512 slots = 8 blocks of 64.  Returns ``(registry, weights)``.
    """
    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("gemm")
    builder.add_input("features", [1, 24])
    builder.add_initializer(
        "w", (rng.normal(size=(3, 24)) * 0.3).astype(np.float32))
    builder.add_initializer("b", rng.normal(size=(3,)).astype(np.float32))
    builder.add_node("Gemm", ["features", "w", "b"], outputs=["output"],
                     transB=1)
    builder.add_output("output", [1, 3])
    model = load_model_bytes(model_to_bytes(builder.build()))
    weights = {t.name: t.to_numpy() for t in model.graph.initializer}
    registry = ModelRegistry()
    params = CkksParameters(poly_degree=1024, scale_bits=30,
                            first_prime_bits=40, num_levels=4)
    registry.register("gemm", model, params=params, max_batch=max_batch,
                      seed=7)
    return registry, weights


def _fresh_cts(entry, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [entry.encryptor(entry.backend,
                            rng.uniform(-1, 1, size=(1, 24)))
            for _ in range(count)]


def calibrate(entry, config: SoakConfig) -> dict:
    """Closed-loop, chaos-free capacity + unloaded p95."""
    cts = _fresh_cts(entry, config.calibration_requests, config.seed)
    metrics = Metrics()
    with InferenceWorker(metrics=metrics, num_threads=config.workers,
                         queue_size=config.queue_size,
                         max_wait_s=0.05,
                         request_timeout_s=600.0) as worker:
        started = time.perf_counter()
        # closed loop at concurrency = max_batch: enough in flight to
        # fill batches, never enough to queue
        window = max(1, entry.max_batch)
        responses = []
        for base in range(0, len(cts), window):
            futures = [worker.submit(entry, "calibrate", ct)
                       for ct in cts[base:base + window]]
            responses.extend(worker.wait(f, timeout_s=600) for f in futures)
        elapsed = time.perf_counter() - started
    ok = [r for r in responses if r.ok]
    if not ok:
        raise errors_mod.ServeError(
            "soak calibration produced no successful responses")
    latencies = sorted(r.latency_s for r in ok)
    rank = min(len(latencies) - 1, round(0.95 * (len(latencies) - 1)))
    return {
        "capacity_rps": len(ok) / elapsed,
        "unloaded_p95_s": latencies[rank],
        "calibration_requests": len(ok),
    }


def _classify(ok: bool, error: str | None) -> str:
    """Bucket one outcome (by error class name) for the report."""
    if ok:
        return "ok"
    cls = getattr(errors_mod, error or "", None)
    if not (isinstance(cls, type) and issubclass(cls, errors_mod.ReproError)):
        return "non_transient"
    if cls is errors_mod.QueueFullError:
        return "queue_full"
    if cls is errors_mod.CircuitOpenError:
        return "circuit_open"
    if cls is errors_mod.RequestTimeoutError:
        return "timeout"
    return "transient" if cls.transient else "non_transient"


def run_soak(config: SoakConfig | None = None, entry=None) -> dict:
    """Run calibration + the overload soak; returns the containment report.

    ``entry`` lets callers reuse an already-registered model (the bench
    does, to keep its wall-clock down); by default a fresh soak registry
    is compiled.
    """
    config = config or SoakConfig()
    if entry is None:
        registry, _ = build_soak_registry(max_batch=config.max_batch)
        entry = registry.get("gemm")
    cal = calibrate(entry, config)
    deadline_s = max(0.25, config.deadline_factor * cal["unloaded_p95_s"])
    offered_rps = max(1.0, config.overload * cal["capacity_rps"])
    total = max(1, int(offered_rps * config.duration_s))
    cts = _fresh_cts(entry, min(total, 64), config.seed + 1)

    plan = (chaos.ChaosPlan.from_spec(config.chaos_spec)
            if config.chaos_spec else soak_plan(config.seed))
    outcomes: dict[str, int] = {}
    ok_latencies: list[float] = []
    good = 0

    metrics = Metrics()
    with chaos.active(plan) as injector, \
            InferenceWorker(
                metrics=metrics,
                num_threads=config.workers,
                queue_size=config.queue_size,
                max_wait_s=0.05,
                request_timeout_s=deadline_s,
            ) as worker, \
            ThreadPoolExecutor(max_workers=16,
                               thread_name_prefix="soak-wait") as waiters:

        def wait_one(future):
            response = worker.wait(future, timeout_s=deadline_s + 1.0)
            bucket = _classify(response.ok, response.error)
            if bucket == "ok" and response.latency_s <= deadline_s:
                return "good", response.latency_s
            if bucket == "ok":
                return "late", response.latency_s
            return bucket, None

        pending = []
        started = time.perf_counter()
        for i in range(total):
            due = started + i / offered_rps
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                future = worker.submit(entry, "soak", cts[i % len(cts)],
                                       timeout_s=deadline_s)
            except errors_mod.ReproError as exc:
                bucket = _classify(False, type(exc).__name__)
                outcomes[bucket] = outcomes.get(bucket, 0) + 1
                continue
            pending.append(waiters.submit(wait_one, future))
        for item in pending:
            bucket, latency = item.result()
            outcomes[bucket] = outcomes.get(bucket, 0) + 1
            if latency is not None:
                ok_latencies.append(latency)
            if bucket == "good":
                good += 1
        elapsed = time.perf_counter() - started
        fired = injector.counts()
        events = len(injector.events())

    snap = metrics.snapshot()
    counters = snap["counters"]
    ok_latencies.sort()
    admitted_p95 = (ok_latencies[min(len(ok_latencies) - 1,
                                     round(0.95 * (len(ok_latencies) - 1)))]
                    if ok_latencies else 0.0)
    non_transient = outcomes.get("non_transient", 0)
    return {
        "config": asdict(config),
        **cal,
        "deadline_s": deadline_s,
        "offered_rps": offered_rps,
        "sent": total,
        "elapsed_s": elapsed,
        "outcomes": outcomes,
        "goodput_rps": good / elapsed if elapsed else 0.0,
        "goodput_fraction_of_capacity": (
            (good / elapsed) / cal["capacity_rps"]
            if elapsed and cal["capacity_rps"] else 0.0),
        "admitted_p95_s": admitted_p95,
        "admitted_p95_over_unloaded": (
            admitted_p95 / cal["unloaded_p95_s"]
            if cal["unloaded_p95_s"] else 0.0),
        "non_transient_errors": non_transient,
        "chaos": {
            "plan": plan.to_spec(),
            "fired": fired,
            "events": events,
        },
        "metrics": {
            name: counters.get(name, 0)
            for name in ("serve_deadline_miss_total",
                         "serve_batch_repacks",
                         "serve_requests_total",
                         "serve_requests_rejected_total")
        },
        "contained": non_transient == 0,
    }


def render(report: dict) -> str:
    """ASCII containment report (evalharness / ``repro soak`` output)."""
    lines = [
        "chaos soak containment report",
        "=============================",
        f"seed:               {report['config']['seed']}",
        f"chaos plan:         {report['chaos']['plan']}",
        f"capacity:           {report['capacity_rps']:8.2f} req/s "
        f"(unloaded p95 {report['unloaded_p95_s'] * 1e3:.1f} ms)",
        f"offered:            {report['offered_rps']:8.2f} req/s "
        f"({report['config']['overload']:.1f}x) for "
        f"{report['elapsed_s']:.1f}s = {report['sent']} requests",
        f"deadline:           {report['deadline_s'] * 1e3:.1f} ms",
        "",
        "outcomes:",
    ]
    for bucket in ("good", "late", "queue_full", "circuit_open",
                   "timeout", "transient", "non_transient"):
        count = report["outcomes"].get(bucket, 0)
        if count:
            lines.append(f"  {bucket:<14} {count:6d}")
    lines += [
        "",
        f"goodput:            {report['goodput_rps']:8.2f} req/s "
        f"({report['goodput_fraction_of_capacity'] * 100:.0f}% of capacity)",
        f"admitted p95:       {report['admitted_p95_s'] * 1e3:8.1f} ms "
        f"({report['admitted_p95_over_unloaded']:.2f}x unloaded)",
        f"chaos events:       {report['chaos']['events']} "
        f"{report['chaos']['fired']}",
        f"repacks:            {report['metrics']['serve_batch_repacks']:g}",
        f"non-transient:      {report['non_transient_errors']}",
        f"containment:        "
        f"{'HELD' if report['contained'] else 'BROKEN'}",
    ]
    return "\n".join(lines)
