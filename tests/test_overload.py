"""Overload-control tests: deadline-aware batching, batch-failure
containment, incremental chaos logs, deadline propagation."""

import json

import numpy as np
import pytest

from repro import chaos
from repro.errors import ChaosError, RequestTimeoutError
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.serve import (
    InferenceWorker,
    Metrics,
    ModelRegistry,
    SlidingWindow,
    aggregate_counters,
)
from repro.serve.batcher import PendingRequest
from repro.serve.router import remaining_timeout_s


class FakeClock:
    """Injectable monotonic clock so window tests need no sleeping."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def gemv_model(n_in=24, n_out=3, seed=0, name="m"):
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder(name)
    builder.add_input("features", [1, n_in])
    builder.add_initializer(
        "w", (rng.normal(size=(n_out, n_in)) * 0.3).astype(np.float32))
    builder.add_initializer("b", rng.normal(size=(n_out,)).astype(np.float32))
    builder.add_node("Gemm", ["features", "w", "b"], outputs=["output"],
                     transB=1)
    builder.add_output("output", [1, n_out])
    model = load_model_bytes(model_to_bytes(builder.build()))
    weights = {t.name: t.to_numpy() for t in model.graph.initializer}
    return model, weights


@pytest.fixture(scope="module")
def repack_registry():
    model, weights = gemv_model()
    reg = ModelRegistry()
    reg.register("credit", model, max_batch=4, seed=7)
    return reg, weights


def expected_scores(weights, x):
    return (x @ weights["w"].T + weights["b"]).ravel()


def make_request(entry, x, request_id=0, poisoned=False):
    ct = entry.encryptor(entry.backend, x)
    return PendingRequest(request_id, "s0", entry.fingerprint, entry, ct,
                          poisoned=poisoned)


# -- sliding window / metric aggregation ------------------------------------


def test_sliding_window_forgets_by_age():
    clock = FakeClock()
    win = SlidingWindow(window_s=1.0, clock=clock)
    win.observe(5.0)
    win.observe(7.0)
    assert win.count() == 2
    assert win.percentile(95) == 7.0
    clock.advance(2.0)
    assert win.count() == 0
    assert win.percentile(95) == 0.0  # empty window, like Histogram


def test_aggregate_counters_sums_across_shards():
    snaps = [
        {"counters": {"serve_deadline_miss_total": 3}, "gauges": {}},
        {"counters": {}, "gauges": {"serve_goodput_rps": 2.5}},
    ]
    agg = aggregate_counters(snaps, ("serve_deadline_miss_total",
                                     "serve_goodput_rps",
                                     "serve_batch_repacks"))
    assert agg["serve_deadline_miss_total"] == 3
    assert agg["serve_goodput_rps"] == 2.5
    assert agg["serve_batch_repacks"] == 0


# -- deadline-aware batching -------------------------------------------------


def test_linger_cap_tracks_tightest_deadline(repack_registry):
    reg, _ = repack_registry
    entry = reg.get("credit")
    with InferenceWorker(num_threads=1, max_wait_s=10.0) as worker:
        worker._exec_ewma[entry.model_id] = 0.4
        x = np.zeros((1, 24))
        near = make_request(entry, x, 1)
        near.deadline = near.enqueued_at + 1.0
        far = make_request(entry, x, 2)
        far.deadline = far.enqueued_at + 50.0
        cap = worker._linger_cap([far, near], linger_until=1e12)
        # stop lingering 1.25 * ewma before the tightest deadline
        assert cap == pytest.approx(near.deadline - 0.5)
        # without deadlines the full linger stands
        free = make_request(entry, x, 3)
        assert worker._linger_cap([free], linger_until=123.0) == 123.0


def test_collect_batch_drops_doomed_requests(repack_registry):
    """A request whose remaining deadline cannot cover execution is
    failed at collect time instead of wasting a batch slot."""
    reg, _ = repack_registry
    entry = reg.get("credit")
    with InferenceWorker(num_threads=1, max_wait_s=0.0) as worker:
        worker._exec_ewma[entry.model_id] = 5.0  # "executions take 5s"
        x = np.zeros((1, 24))
        doomed = make_request(entry, x, 1)
        doomed.deadline = doomed.enqueued_at + 0.5  # < the 5s estimate
        live = worker._collect_batch(doomed)
        assert live == []
        resp = doomed.future.result(timeout=5)
        assert not resp.ok
        assert resp.error == RequestTimeoutError.__name__
        counters = worker.metrics.snapshot()["counters"]
        assert counters["serve_deadline_miss_total"] == 1
        assert counters["serve_requests_timeout_total"] == 1


# -- batch-failure containment ------------------------------------------------


def test_repack_recovers_healthy_requests_as_one_batch(repack_registry):
    """One poisoned member fails alone; the healthy B-1 re-execute as a
    single batch (one extra execution)."""
    reg, weights = repack_registry
    entry = reg.get("credit")
    rng = np.random.default_rng(5)
    xs = [rng.uniform(-1, 1, size=(1, 24)) for _ in range(4)]
    reqs = [make_request(entry, x, i) for i, x in enumerate(xs)]
    reqs[2].poisoned = True

    metrics = Metrics()
    with InferenceWorker(metrics=metrics, num_threads=1) as worker:
        worker._execute(reqs)

    counters = metrics.snapshot()["counters"]
    assert counters["serve_batch_repacks"] == 1

    bad = reqs[2].future.result(timeout=5)
    assert not bad.ok and bad.error == ChaosError.__name__
    healthy = [r for i, r in enumerate(reqs) if i != 2]
    for req, x in zip(healthy, [x for i, x in enumerate(xs) if i != 2]):
        resp = req.future.result(timeout=5)
        assert resp.ok
        assert resp.batch_size == 3  # re-packed together, not singletons
        got = entry.decrypt_result(resp.payload, resp.slot_offset)
        assert np.allclose(got.ravel(), expected_scores(weights, x),
                           atol=1e-3)


def test_unattributed_batch_failure_costs_one_execution(
        repack_registry, monkeypatch):
    """A failure that names no culprit is not retried server-side: one
    execution, the typed error to every member, one breaker failure."""
    from repro.serve import worker as worker_mod
    from repro.serve.breaker import CLOSED

    reg, _ = repack_registry
    entry = reg.get("credit")
    calls = []

    def hiccup(entry_, requests, **kwargs):
        calls.append(len(requests))
        raise RuntimeError("backend hiccup, no culprit")

    monkeypatch.setattr(worker_mod, "execute_batch", hiccup)
    x = np.zeros((1, 24))
    reqs = [make_request(entry, x, i) for i in range(entry.max_batch)]

    metrics = Metrics()
    with InferenceWorker(metrics=metrics, num_threads=1) as worker:
        worker._execute(reqs)
        breaker = worker.breaker(entry)
        # counted per member, a batch of 8 would open the default
        # threshold-5 circuit on its first fault
        assert breaker._failures == 1 and breaker.state == CLOSED

    assert calls == [entry.max_batch]
    counters = metrics.snapshot()["counters"]
    assert counters.get("serve_batch_repacks", 0) == 0
    assert counters["serve_requests_failed_total"] == entry.max_batch
    assert counters.get("serve_circuit_open_total", 0) == 0
    for req in reqs:
        resp = req.future.result(timeout=5)
        assert not resp.ok and resp.error == RuntimeError.__name__
        assert "no culprit" in resp.message


# -- soak ---------------------------------------------------------------------


def test_short_soak_is_contained_by_queue_and_deadline_alone():
    """3x overload with faults firing surfaces only as the queue's and
    the deadline's typed transient errors — there is no other admission
    rule to report."""
    from repro.chaos.soak import SoakConfig, render, run_soak

    report = run_soak(SoakConfig(seed=42, duration_s=1.0,
                                 calibration_requests=16))
    assert report["non_transient_errors"] == 0 and report["contained"]
    assert set(report["outcomes"]) <= {
        "good", "late", "queue_full", "circuit_open", "timeout",
        "transient"}
    assert sum(report["outcomes"].values()) == report["sent"]
    assert "containment:        HELD" in render(report)


# -- deadline propagation ----------------------------------------------------


def test_remaining_timeout_floors_and_counts_down():
    assert remaining_timeout_s(deadline=110.0, now=100.0) == 10.0
    # a nearly-expired forward keeps a small positive budget
    assert remaining_timeout_s(deadline=100.0, now=100.0) == 0.05
    assert remaining_timeout_s(deadline=90.0, now=100.0) == 0.05
    assert remaining_timeout_s(deadline=100.1, now=100.0, floor=0.01) == (
        pytest.approx(0.1))


# -- incremental chaos replay log --------------------------------------------


def test_chaos_log_flushes_incrementally(tmp_path):
    """Each firing lands on disk as it happens — no dump_log/exit needed,
    so a process killed mid-soak still leaves a replayable log."""
    log = tmp_path / "chaos.jsonl"
    plan = chaos.ChaosPlan(
        11, {chaos.SERVE_POISON: chaos.SiteSpec(1.0, max_count=4)})
    try:
        chaos.set_log_path(str(log))
        with chaos.active(plan) as inj:
            chaos.set_log_path(str(log))  # (re)starts the header for inj
            assert chaos.poison_request(1)
            lines = [json.loads(line)
                     for line in log.read_text().splitlines()]
            assert lines[0]["plan"] == plan.to_spec()
            assert lines[1] == {"site": "serve.poison", "index": 1,
                                "detail": "request 1"}
            assert chaos.poison_request(2)
            lines = log.read_text().splitlines()
            assert len(lines) == 3  # appended, not rewritten
            assert inj.counts() == {"serve.poison": 2}
    finally:
        chaos.set_log_path(None)
