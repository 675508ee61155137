"""Serving subsystem tests: registry, batcher, worker, metrics, sessions."""

import threading
import time

import numpy as np
import pytest

from repro.ckks import CkksParameters
from repro.errors import (
    QueueFullError,
    ServerShutdownError,
    SessionMismatchError,
    UnknownModelError,
    UnknownSessionError,
)
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.serve import (
    InferenceWorker,
    Metrics,
    ModelRegistry,
    SessionManager,
)
from repro.serve.batcher import PendingRequest, can_join, execute_batch
from repro.serve.metrics import Histogram


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
def registry():
    model, weights = gemv_model()
    reg = ModelRegistry()
    reg.register("credit", model, max_batch=4, seed=7)
    return reg, weights


def expected_scores(weights, x):
    return (x @ weights["w"].T + weights["b"]).ravel()


def make_request(entry, x, request_id=0):
    ct = entry.encryptor(entry.backend, x)
    return PendingRequest(request_id, "s0", entry.fingerprint, entry, ct)


# -- registry ---------------------------------------------------------------


def test_registry_caches_entry(registry):
    reg, _ = registry
    assert reg.get("credit") is reg.get("credit")
    assert reg.ids() == ["credit"]
    assert reg.get("credit").supports_batching


def test_registry_unknown_model(registry):
    reg, _ = registry
    with pytest.raises(UnknownModelError):
        reg.get("nope")


def test_registry_batch_fallback():
    # 128 slots / batch 64 = 2-slot blocks: a 24-feature input cannot
    # tile, so registration halves the batch until the model fits.
    model, _ = gemv_model()
    reg = ModelRegistry()
    entry = reg.register("m", model, max_batch=64)
    assert entry.max_batch == 4  # 32-slot blocks are the first that fit
    assert entry.supports_batching


def test_registry_checks_shipped_keys_cover_program_steps(registry):
    """A shipped key blob without one of the program's own rotation
    steps is refused at registration, naming the step, not at the first
    request that rotates by it."""
    import dataclasses

    from repro.ckks.serialize import serialize_eval_keys
    from repro.errors import ServeError
    from repro.polymath.poly import rotation_galois_element
    from repro.serve.registry import _batching_rotation_steps

    reg, _ = registry
    owner = reg.get("credit")
    degree = owner.params.poly_degree
    batching = {rotation_galois_element(s, degree)
                for s in _batching_rotation_steps(owner)}
    step = next(s for s in owner.program.rotation_steps
                if rotation_galois_element(s, degree) not in batching)
    keys = owner.backend.ctx.keys
    rotations = dict(keys.rotations)
    del rotations[rotation_galois_element(step, degree)]
    blob = serialize_eval_keys(dataclasses.replace(keys, rotations=rotations))
    model, _ = gemv_model()
    with pytest.raises(ServeError, match=rf"steps \[{step}\]"):
        ModelRegistry().register("credit", model, max_batch=4,
                                 eval_keys=blob)


def test_registry_rejects_bad_model_type():
    from repro.errors import ServeError

    with pytest.raises(ServeError):
        ModelRegistry().register("m", 12345)


# -- slot batcher -----------------------------------------------------------


def test_batched_matches_unbatched(registry):
    """Acceptance: a batched request decrypts to the unbatched result."""
    reg, weights = registry
    entry = reg.get("credit")
    rng = np.random.default_rng(1)
    xs = [rng.uniform(-1, 1, size=(1, 24)) for _ in range(4)]

    solo = []
    for x in xs:
        [res] = execute_batch(entry, [make_request(entry, x)])
        solo.append(entry.decrypt_result(res.payload, res.slot_offset))

    requests = [make_request(entry, x, i) for i, x in enumerate(xs)]
    batched = execute_batch(entry, requests)
    assert [r.batch_size for r in batched] == [4, 4, 4, 4]
    assert [r.slot_offset for r in batched] == [
        i * entry.out_block for i in range(4)]
    for x, res, alone in zip(xs, batched, solo):
        together = entry.decrypt_result(res.payload, res.slot_offset)
        assert np.allclose(together.ravel(),
                           expected_scores(weights, x), atol=1e-3)
        assert np.allclose(together.ravel(), alone.ravel(), atol=1e-3)


def test_can_join_rules(registry):
    reg, _ = registry
    entry = reg.get("credit")
    x = np.zeros((1, 24))
    a, b = make_request(entry, x, 1), make_request(entry, x, 2)
    assert can_join([], a)
    assert can_join([a], b)
    # fingerprint mismatch refuses to share a ciphertext
    c = make_request(entry, x, 3)
    c.fingerprint = "different"
    assert not can_join([a], c)
    # level mismatch refuses as well
    d = make_request(entry, x, 4)
    d.ciphertext = entry.backend.mod_switch(d.ciphertext, 1)
    assert not can_join([a], d)
    # a full batch refuses to grow
    full = [make_request(entry, x, i) for i in range(entry.max_batch)]
    assert not can_join(full, b)


# -- worker -----------------------------------------------------------------


def test_worker_coalesces_concurrent_requests(registry):
    reg, weights = registry
    entry = reg.get("credit")
    metrics = Metrics()
    rng = np.random.default_rng(2)
    xs = [rng.uniform(-1, 1, size=(1, 24)) for _ in range(4)]
    with InferenceWorker(metrics=metrics, num_threads=1,
                         max_wait_s=0.25) as worker:
        futures = [
            worker.submit(entry, "s0", entry.encryptor(entry.backend, x))
            for x in xs
        ]
        responses = [worker.wait(f, timeout_s=30) for f in futures]
    for x, resp in zip(xs, responses):
        assert resp.ok, resp.message
        got = entry.decrypt_result(resp.payload, resp.slot_offset)
        assert np.allclose(got.ravel(), expected_scores(weights, x),
                           atol=1e-3)
    # all four rode in one ciphertext
    assert metrics.counter("serve_batches_total") == 1
    snap = metrics.snapshot()
    assert snap["histograms"]["serve_batch_occupancy"]["max"] == 4


def test_worker_backpressure_and_timeout(registry):
    reg, _ = registry
    entry = reg.get("credit")
    x = np.zeros((1, 24))
    worker = InferenceWorker(num_threads=1, queue_size=1, max_wait_s=0.0,
                             request_timeout_s=30.0)
    try:
        with entry.lock:  # stall execution so the queue backs up
            first = worker.submit(entry, "s0",
                                  entry.encryptor(entry.backend, x))
            deadline = time.monotonic() + 5
            while worker._queue.qsize() and time.monotonic() < deadline:
                time.sleep(0.005)  # wait for the worker to pick it up
            # client-side wait times out as a structured failure
            stalled = worker.wait(first, timeout_s=0.05)
            assert not stalled.ok
            assert stalled.error == "RequestTimeoutError"
            second = worker.submit(
                entry, "s0", entry.encryptor(entry.backend, x),
                timeout_s=0.05)
            with pytest.raises(QueueFullError):
                worker.submit(entry, "s0",
                              entry.encryptor(entry.backend, x))
            time.sleep(0.1)  # let the queued request expire
        resp_first = worker.wait(first, timeout_s=30)
        assert resp_first.ok
        # the expired request is a structured failure, not a crash
        resp_second = worker.wait(second, timeout_s=30)
        assert not resp_second.ok
        assert resp_second.error == "RequestTimeoutError"
        # and the worker still serves fresh requests afterwards
        again = worker.submit(entry, "s0",
                              entry.encryptor(entry.backend, x))
        assert worker.wait(again, timeout_s=30).ok
    finally:
        worker.close()


def test_worker_survives_poison_request(registry):
    reg, weights = registry
    entry = reg.get("credit")
    x = np.ones((1, 24)) * 0.1
    with InferenceWorker(num_threads=1, max_wait_s=0.0) as worker:
        poison = worker.submit(entry, "s0", object())  # not a ciphertext
        resp = worker.wait(poison, timeout_s=30)
        assert not resp.ok and resp.error
        good = worker.submit(entry, "s0",
                             entry.encryptor(entry.backend, x))
        resp = worker.wait(good, timeout_s=30)
        assert resp.ok
        got = entry.decrypt_result(resp.payload, resp.slot_offset)
        assert np.allclose(got.ravel(), expected_scores(weights, x),
                           atol=1e-3)


def test_worker_shutdown_refuses_and_drains(registry):
    reg, _ = registry
    entry = reg.get("credit")
    x = np.zeros((1, 24))
    worker = InferenceWorker(num_threads=1, max_wait_s=0.0)
    worker.close()
    with pytest.raises(ServerShutdownError):
        worker.submit(entry, "s0", entry.encryptor(entry.backend, x))
    worker.close()  # idempotent


# -- sessions ---------------------------------------------------------------


def test_session_fingerprint_mismatch(registry):
    """Acceptance: foreign-parameter ciphertexts get a typed rejection."""
    reg, _ = registry
    entry = reg.get("credit")
    sessions = SessionManager(reg)
    session = sessions.open("credit")
    assert session.fingerprint == entry.fingerprint

    from repro.ckks import CkksContext
    from repro.ckks.serialize import serialize_ciphertext

    foreign = CkksContext(
        CkksParameters(poly_degree=256, scale_bits=32, first_prime_bits=42,
                       num_levels=4),
        rotation_steps=[], seed=1)
    payload = serialize_ciphertext(foreign.encrypt(np.zeros(16)))
    with pytest.raises(SessionMismatchError):
        sessions.validate_request(session, payload)

    good = entry.encrypt_request(np.zeros((1, 24)))
    got_entry, ct = sessions.validate_request(session, good)
    assert got_entry is entry and ct.level == entry.params.max_level
    assert session.requests == 1


def test_session_unknown_and_close(registry):
    reg, _ = registry
    sessions = SessionManager(reg)
    session = sessions.open("credit")
    assert sessions.count() == 1
    sessions.close(session.session_id)
    with pytest.raises(UnknownSessionError):
        sessions.get(session.session_id)
    with pytest.raises(UnknownModelError):
        sessions.open("nope")


# -- metrics ----------------------------------------------------------------


def test_histogram_percentiles():
    hist = Histogram(max_samples=8)
    for v in range(100):  # ring keeps the most recent 8: 92..99
        hist.observe(v)
    snap = hist.snapshot()
    assert snap["count"] == 100
    assert snap["min"] == 92 and snap["max"] == 99
    assert 92 <= snap["p50"] <= 99


def test_metrics_snapshot_and_render():
    metrics = Metrics()
    metrics.inc("serve_requests_total", 3)
    metrics.set_gauge("serve_queue_depth", 2)
    for v in (0.1, 0.2, 0.3):
        metrics.observe("serve_request_latency_s", v)
    snap = metrics.snapshot()
    assert snap["counters"]["serve_requests_total"] == 3
    assert snap["gauges"]["serve_queue_depth"] == 2
    assert snap["histograms"]["serve_request_latency_s"]["count"] == 3
    text = metrics.render()
    assert "serve_requests_total 3" in text
    assert "serve_request_latency_s_p95" in text


def test_metrics_thread_safety():
    metrics = Metrics()

    def spin():
        for _ in range(500):
            metrics.inc("n")
            metrics.observe("h", 1.0)

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert metrics.counter("n") == 2000
    assert metrics.snapshot()["histograms"]["h"]["count"] == 2000
