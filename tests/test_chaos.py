"""Chaos suite: deterministic fault injection and failure containment.

Covers the :mod:`repro.chaos` plan/injector machinery itself (spec
parsing, per-site RNG determinism, replay logs) and the containment
layers it exists to validate: batch-failure containment, client-side
retry, per-model circuit breakers, wire-frame
bounds, and the evaluator's noise-budget guardrails.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import chaos
from repro.backend import ExactBackend, SchemeConfig, SimBackend
from repro.chaos import ChaosPlan, SiteSpec
from repro.ckks import CkksParameters
from repro.errors import (
    ChaosError,
    CircuitOpenError,
    DeserializationError,
    MessageTooLargeError,
    NoiseBudgetExhausted,
    QueueFullError,
    ReproError,
    ServerShutdownError,
    SessionMismatchError,
)
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.runtime.ckks_interp import run_ckks_function
from repro.serve import (
    InferenceServer,
    InferenceWorker,
    Metrics,
    ModelRegistry,
    RemoteModelClient,
    RetryPolicy,
    ServeClient,
)
from repro.serve.batcher import PendingRequest, execute_batch
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.server import recv_message, send_message


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
    # a second, independently-broken model: breaker tests need one whose
    # requests can occupy the shared queue while "credit" is half-open
    other, _ = gemv_model(seed=1, name="m2")
    reg.register("credit-b", other, max_batch=4, seed=7)
    return reg, weights


@pytest.fixture(scope="module")
def server(registry):
    reg, weights = registry
    with InferenceServer(reg, num_threads=2, max_wait_s=0.002) as srv:
        yield srv, weights


def expected_scores(weights, x):
    return (x @ weights["w"].T + weights["b"]).ravel()


# -- plan and spec grammar ---------------------------------------------------


def test_spec_roundtrip():
    spec = "seed=42;backend.latency=0.1~0.2;wire.reset=0.5@3"
    plan = ChaosPlan.from_spec(spec)
    assert plan.seed == 42
    assert plan.sites[chaos.BACKEND_LATENCY] == SiteSpec(0.1, None, 0.2)
    assert plan.sites[chaos.WIRE_RESET] == SiteSpec(0.5, 3, None)
    again = ChaosPlan.from_spec(plan.to_spec())
    assert again.seed == plan.seed and again.sites == plan.sites


def test_spec_bare_seed_expands_to_default_plan():
    plan = ChaosPlan.from_spec("7")
    assert plan.seed == 7
    assert plan.sites == ChaosPlan.default(7).sites
    # the default plan sticks to faults the stack heals end to end: no
    # result corruption, no forced budget exhaustion, everything capped
    assert chaos.BACKEND_CORRUPT not in plan.sites
    assert chaos.BACKEND_NOISE not in plan.sites
    assert all(s.max_count is not None for s in plan.sites.values())


def test_spec_rejects_garbage():
    for bad in ("", "wire.reset", "wire.reset=abc", "wire.reset=2.0",
                "bogus.site=0.5"):
        with pytest.raises(ReproError):
            ChaosPlan.from_spec(bad)
    with pytest.raises(ReproError):
        SiteSpec(0.5, max_count=-1)
    with pytest.raises(ReproError):
        ChaosPlan(0, {"not.a.site": SiteSpec(0.5)})


# -- determinism -------------------------------------------------------------


def test_site_streams_are_independent():
    """Decision k at a site is independent of other sites' traffic."""
    mk = lambda: ChaosPlan(7, {chaos.WIRE_RESET: SiteSpec(0.5),
                               chaos.SERVE_POISON: SiteSpec(0.5)})
    with chaos.active(mk()) as inj:
        alone = [inj.should_fire(chaos.WIRE_RESET, "rpc") is not None
                 for _ in range(30)]
    with chaos.active(mk()) as inj:
        interleaved = []
        for i in range(30):
            chaos.poison_request(i)  # burns draws on the *poison* stream
            interleaved.append(
                inj.should_fire(chaos.WIRE_RESET, "rpc") is not None)
    assert alone == interleaved
    assert any(alone) and not all(alone)


def test_same_seed_reproduces_identical_fault_sequence(registry):
    """Acceptance: one seed -> the same (site, index, detail) sequence."""
    reg, _ = registry
    entry = reg.get("credit")
    x = np.full((1, 24), 0.05)
    ct = entry.encryptor(entry.backend, x)
    fn = entry.program.module.main()
    spec = ("seed=99;executor.job_exception=0.25;"
            "backend.latency=0.3@5~0.0005;serve.poison=0.4")
    runs = []
    for _ in range(2):
        with chaos.active(ChaosPlan.from_spec(spec)) as inj:
            decisions = [chaos.poison_request(i) for i in range(1, 25)]
            outcome = "ok"
            try:
                # ops issue in program order, so the whole event log
                # (not just per-site streams) must replay identically
                run_ckks_function(entry.program.module, fn, entry.backend,
                                  [ct], check_plan=False)
            except (ChaosError, NoiseBudgetExhausted) as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            runs.append((decisions, outcome,
                         [e.key() for e in inj.events()]))
    assert runs[0] == runs[1]
    assert runs[0][2], "the plan never fired; the test proves nothing"


# -- backend corruption ------------------------------------------------------


def test_exact_backend_corruption_diverges_without_mutating_input(registry):
    reg, _ = registry
    entry = reg.get("credit")
    x = np.arange(24).reshape(1, 24) / 24.0
    ct = entry.encryptor(entry.backend, x)
    step = -entry.in_block
    clean = entry.backend.decrypt(entry.backend.rotate(ct, step),
                                  num_values=entry.num_slots)
    plan = ChaosPlan(1, {chaos.BACKEND_CORRUPT: SiteSpec(1.0, max_count=1)})
    with chaos.active(plan) as inj:
        dirty = entry.backend.decrypt(entry.backend.rotate(ct, step),
                                      num_values=entry.num_slots)
        assert inj.counts() == {chaos.BACKEND_CORRUPT: 1}
    assert not np.allclose(clean, dirty, atol=1e-2)
    # corruption hit a copy: the shared input ciphertext is untouched
    again = entry.backend.decrypt(entry.backend.rotate(ct, step),
                                  num_values=entry.num_slots)
    assert np.allclose(clean, again, atol=1e-9)


def test_sim_backend_corruption_diverges():
    config = SchemeConfig(poly_degree=128, scale_bits=30,
                          first_prime_bits=40, num_levels=3)
    sim = SimBackend(config, seed=3)
    x = np.random.default_rng(1).uniform(-1, 1, size=64)
    ct = sim.encrypt(x)
    clean = sim.decrypt(sim.rotate(ct, 1), 64)
    plan = ChaosPlan(1, {chaos.BACKEND_CORRUPT: SiteSpec(1.0, max_count=1)})
    with chaos.active(plan):
        dirty = sim.decrypt(sim.rotate(ct, 1), 64)
    assert not np.allclose(clean, dirty, atol=1e-2)


def test_forced_noise_exhaustion_targets_budget_ops():
    config = SchemeConfig(poly_degree=128, scale_bits=30,
                          first_prime_bits=40, num_levels=3)
    sim = SimBackend(config, seed=3)
    x = np.random.default_rng(2).uniform(-1, 1, size=64)
    a, b = sim.encrypt(x), sim.encrypt(x)
    plan = ChaosPlan(5, {chaos.BACKEND_NOISE: SiteSpec(1.0)})
    with chaos.active(plan):
        sim.add(a, b)  # add is not budget-consuming: never faulted
        with pytest.raises(NoiseBudgetExhausted, match="chaos"):
            sim.mul(a, b)


# -- batch-failure containment (acceptance) ----------------------------------


def test_poisoned_request_fails_alone_batchmates_bit_identical(registry):
    """Acceptance: in a 4-way batch with one poisoned request, exactly
    that request fails with a typed error and the other three come back
    from **one** batch of 3, *bit-identical* to executing those three
    ciphertexts as a batch directly."""
    reg, weights = registry
    entry = reg.get("credit")
    rng = np.random.default_rng(8)
    xs = [rng.uniform(-1, 1, size=(1, 24)) for _ in range(4)]
    # encrypt ONCE and reuse the ciphertext objects: encryption is
    # randomised, so only identical inputs make bit-identity meaningful
    cts = [entry.encryptor(entry.backend, x) for x in xs]

    direct = execute_batch(entry, [
        PendingRequest(100 + i, "s0", entry.fingerprint, entry, ct)
        for i, ct in enumerate(cts[1:])])

    metrics = Metrics()
    # worker ids start at 1; probability 1 with max_count=1 poisons
    # exactly the first submitted request
    plan = ChaosPlan(0, {chaos.SERVE_POISON: SiteSpec(1.0, max_count=1)})
    with chaos.active(plan):
        with InferenceWorker(metrics=metrics, num_threads=1,
                             max_wait_s=0.5) as worker:
            futures = [worker.submit(entry, "s0", ct) for ct in cts]
            responses = [worker.wait(f, timeout_s=60) for f in futures]

    poisoned, healthy = responses[0], responses[1:]
    assert not poisoned.ok
    assert poisoned.error == "ChaosError"
    assert "poisoned" in poisoned.message
    assert metrics.counter("serve_batch_repacks") == 1
    assert metrics.counter("serve_batches_total") == 1  # one re-execution
    for resp, ref, x in zip(healthy, direct, xs[1:]):
        assert resp.ok, resp.message
        assert resp.batch_size == 3  # re-packed together
        assert resp.slot_offset == ref.slot_offset
        assert resp.payload == ref.payload  # bit-identical to the direct run
        got = entry.decrypt_result(resp.payload, resp.slot_offset)
        assert np.allclose(got.ravel(), expected_scores(weights, x),
                           atol=1e-3)


# -- client retry (acceptance) -----------------------------------------------


def test_client_retry_heals_wire_faults(server):
    """Acceptance: the client retries transient wire faults with capped
    backoff and succeeds once the injection budget is spent."""
    srv, weights = server
    x = np.random.default_rng(9).uniform(-1, 1, size=(1, 24))
    plan = ChaosPlan(0, {chaos.WIRE_RESET: SiteSpec(1.0, max_count=2)})
    sleeps = []
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.001, seed=0,
                         sleep=sleeps.append)
    with chaos.active(plan) as inj:
        with RemoteModelClient(srv.host, srv.port, "credit",
                               retry=policy) as client:
            scores = client.infer(x)
        assert inj.counts() == {chaos.WIRE_RESET: 2}
        assert [e.key() for e in inj.events()] == [
            ("wire.reset", 1, "rpc"), ("wire.reset", 2, "rpc")]
    assert np.allclose(scores.ravel(), expected_scores(weights, x),
                       atol=1e-3)
    assert len(sleeps) == 2
    assert all(0.0 < s <= policy.max_delay_s for s in sleeps)


def test_client_heals_truncated_and_oversized_frames(server):
    srv, weights = server
    x = np.random.default_rng(10).uniform(-1, 1, size=(1, 24))
    plan = ChaosPlan(4, {chaos.WIRE_TRUNCATE: SiteSpec(1.0, max_count=1),
                         chaos.WIRE_OVERSIZE: SiteSpec(1.0, max_count=1),
                         chaos.WIRE_SLOW: SiteSpec(1.0, max_count=1,
                                                   value=0.001)})
    policy = RetryPolicy(max_attempts=6, base_delay_s=0.001, seed=0)
    with chaos.active(plan) as inj:
        with RemoteModelClient(srv.host, srv.port, "credit",
                               retry=policy) as client:
            scores = client.infer(x)
        counts = inj.counts()
    assert counts[chaos.WIRE_TRUNCATE] == 1
    assert counts[chaos.WIRE_OVERSIZE] == 1
    assert np.allclose(scores.ravel(), expected_scores(weights, x),
                       atol=1e-3)


def test_permanent_errors_are_not_retried(server):
    srv, _ = server
    sleeps = []
    policy = RetryPolicy(max_attempts=4, base_delay_s=0.001,
                         sleep=sleeps.append)
    client = RemoteModelClient(srv.host, srv.port, "credit", retry=policy)
    try:
        with pytest.raises((SessionMismatchError, DeserializationError)):
            client.infer_bytes(b"definitely not a ciphertext")
    finally:
        client.close()
    assert sleeps == []  # a permanent failure never triggers backoff


# -- circuit breaker ---------------------------------------------------------


def test_breaker_state_machine_with_fake_clock():
    clk = [0.0]
    b = CircuitBreaker(failure_threshold=2, reset_timeout_s=10.0,
                       clock=lambda: clk[0])
    assert b.state == CLOSED and b.allow()
    b.record_failure()
    assert b.state == CLOSED  # below threshold
    b.record_failure()
    assert b.state == OPEN and not b.allow()
    clk[0] = 9.9
    assert not b.allow()
    clk[0] = 10.0
    assert b.state == HALF_OPEN
    assert b.allow()       # exactly one probe
    assert not b.allow()   # concurrent requests stay rejected
    b.record_failure()     # probe failed: straight back to open
    assert b.state == OPEN
    clk[0] = 20.0
    assert b.allow()
    b.record_success()
    assert b.state == CLOSED
    # a success resets the consecutive-failure count
    b.record_failure()
    b.record_success()
    b.record_failure()
    assert b.state == CLOSED


def test_breaker_opens_and_recovers_through_worker(registry):
    """Acceptance: repeated failures open the circuit (observable in
    metrics); after the reset timeout a half-open probe closes it."""
    reg, weights = registry
    entry = reg.get("credit")
    x = np.full((1, 24), 0.1)
    metrics = Metrics()
    worker = InferenceWorker(metrics=metrics, num_threads=1, max_wait_s=0.0,
                             breaker_failures=2, breaker_reset_s=0.2)
    try:
        plan = ChaosPlan(0, {chaos.SERVE_POISON: SiteSpec(1.0)})
        with chaos.active(plan):
            for _ in range(2):
                fut = worker.submit(entry, "s0",
                                    entry.encryptor(entry.backend, x))
                resp = worker.wait(fut, timeout_s=30)
                assert not resp.ok and resp.error == "ChaosError"
            with pytest.raises(CircuitOpenError):
                worker.submit(entry, "s0",
                              entry.encryptor(entry.backend, x))
        snap = metrics.snapshot()
        assert snap["counters"]["serve_circuit_open_total"] == 1
        assert snap["counters"]["serve_circuit_rejected_total"] == 1
        assert snap["gauges"]["serve_circuit_state_credit"] == 1  # open
        assert worker.breaker(entry).state == OPEN
        time.sleep(0.25)  # past the reset timeout -> half-open probe
        fut = worker.submit(entry, "s0", entry.encryptor(entry.backend, x))
        resp = worker.wait(fut, timeout_s=30)
        assert resp.ok
        got = entry.decrypt_result(resp.payload, resp.slot_offset)
        assert np.allclose(got.ravel(), expected_scores(weights, x),
                           atol=1e-3)
        assert worker.breaker(entry).state == CLOSED
        snap = metrics.snapshot()
        assert snap["gauges"]["serve_circuit_state_credit"] == 0  # closed
    finally:
        worker.close()


def test_breaker_reopens_when_probe_hits_full_queue(registry):
    """A half-open probe bounced by backpressure must re-open the
    breaker, not wedge it half-open with a phantom probe in flight."""
    reg, _ = registry
    entry = reg.get("credit")
    other = reg.get("credit-b")
    x = np.zeros((1, 24))
    worker = InferenceWorker(num_threads=1, queue_size=1, max_wait_s=0.0,
                             breaker_failures=1, breaker_reset_s=0.05)
    try:
        with chaos.active(ChaosPlan(0, {chaos.SERVE_POISON: SiteSpec(1.0,
                                                            max_count=1)})):
            fut = worker.submit(entry, "s0",
                                entry.encryptor(entry.backend, x))
            assert not worker.wait(fut, timeout_s=30).ok
        assert worker.breaker(entry).state == OPEN
        time.sleep(0.1)  # past the reset timeout -> half-open
        with other.lock:  # the *other* model stalls and fills the queue
            first = worker.submit(other, "s0",
                                  other.encryptor(other.backend, x))
            deadline = time.monotonic() + 5
            while worker._queue.qsize() and time.monotonic() < deadline:
                time.sleep(0.005)
            blocker = worker.submit(other, "s0",
                                    other.encryptor(other.backend, x))
            # the probe is admitted by the breaker but bounced by the
            # full queue before it could ever execute
            with pytest.raises(QueueFullError):
                worker.submit(entry, "s0",
                              entry.encryptor(entry.backend, x))
            assert worker.breaker(entry).state == OPEN  # re-opened
        assert worker.wait(first, timeout_s=30).ok
        assert worker.wait(blocker, timeout_s=30).ok
        time.sleep(0.1)  # a fresh probe is still possible: not wedged
        fut = worker.submit(entry, "s0", entry.encryptor(entry.backend, x))
        assert worker.wait(fut, timeout_s=30).ok
        assert worker.breaker(entry).state == CLOSED
    finally:
        worker.close()


# -- wire-frame bounds -------------------------------------------------------


def test_recv_message_rejects_oversize_prefix_before_allocating():
    a, b = socket.socketpair()
    with a, b:
        b.sendall(struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(MessageTooLargeError):
            recv_message(a)


def test_recv_message_respects_custom_bound():
    a, b = socket.socketpair()
    with a, b:
        send_message(b, {"op": "ping"}, b"x" * 256)
        with pytest.raises(MessageTooLargeError):
            recv_message(a, max_message_bytes=64)


def test_recv_message_partial_reads_are_clean_close():
    for fragment in (b"", b"\x01\x02",
                     struct.pack("<II", 12, 4) + b"abc"):
        a, b = socket.socketpair()
        with a:
            with b:
                if fragment:
                    b.sendall(fragment)
            assert recv_message(a) is None, fragment


def test_recv_message_roundtrip():
    a, b = socket.socketpair()
    with a, b:
        send_message(b, {"op": "ping", "n": 1}, b"body")
        assert recv_message(a) == ({"op": "ping", "n": 1}, b"body")


# -- worker semantics under an installed plan --------------------------------


def test_backpressure_and_deadlines_hold_under_chaos(registry):
    """Queue-full and deadline semantics are unchanged by an installed
    (latency-only, result-preserving) chaos plan."""
    reg, _ = registry
    entry = reg.get("credit")
    x = np.zeros((1, 24))
    plan = ChaosPlan(11, {chaos.BACKEND_LATENCY:
                          SiteSpec(0.2, max_count=8, value=0.001)})
    with chaos.active(plan):
        worker = InferenceWorker(num_threads=1, queue_size=1,
                                 max_wait_s=0.0)
        try:
            with entry.lock:  # stall execution so the queue backs up
                first = worker.submit(entry, "s0",
                                      entry.encryptor(entry.backend, x))
                deadline = time.monotonic() + 5
                while worker._queue.qsize() and time.monotonic() < deadline:
                    time.sleep(0.005)
                second = worker.submit(
                    entry, "s0", entry.encryptor(entry.backend, x),
                    timeout_s=0.05)
                with pytest.raises(QueueFullError):
                    worker.submit(entry, "s0",
                                  entry.encryptor(entry.backend, x))
                time.sleep(0.1)  # let the queued request expire
            assert worker.wait(first, timeout_s=30).ok
            resp = worker.wait(second, timeout_s=30)
            assert not resp.ok and resp.error == "RequestTimeoutError"
        finally:
            worker.close()


def test_graceful_shutdown_fails_queued_requests(registry):
    reg, _ = registry
    entry = reg.get("credit")
    x = np.zeros((1, 24))
    worker = InferenceWorker(num_threads=1, max_wait_s=0.0)
    with entry.lock:  # the in-flight request blocks on the entry lock
        first = worker.submit(entry, "s0",
                              entry.encryptor(entry.backend, x))
        deadline = time.monotonic() + 5
        while worker._queue.qsize() and time.monotonic() < deadline:
            time.sleep(0.005)
        second = worker.submit(entry, "s0",
                               entry.encryptor(entry.backend, x))
        closer = threading.Thread(target=worker.close)
        closer.start()
        # hold the lock until close() has failed the queued request (the
        # queue itself never empties: close() leaves its sentinel there)
        second.result(timeout=30)
    closer.join(timeout=30)
    assert not closer.is_alive()
    # in-flight work completed; queued work failed with a typed shutdown
    assert worker.wait(first, timeout_s=30).ok
    resp = worker.wait(second, timeout_s=30)
    assert not resp.ok and resp.error == "ServerShutdownError"
    with pytest.raises(ServerShutdownError):
        worker.submit(entry, "s0", entry.encryptor(entry.backend, x))


# -- evaluator noise-budget guardrails ---------------------------------------


def test_exact_backend_refuses_guaranteed_scale_overflow():
    params = CkksParameters(poly_degree=128, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    be = ExactBackend(params, seed=11)
    x = np.random.default_rng(0).uniform(-1, 1, size=64)
    a = be.encrypt(x)
    be.mul(a, a)  # plenty of capacity at the top level
    low = be.mod_switch_to(a, 0)
    # ~60 bits of product scale against a ~40-bit remaining modulus:
    # the result could never be rescaled back below the modulus, so the
    # evaluator refuses instead of producing garbage
    with pytest.raises(NoiseBudgetExhausted):
        be.mul(low, low)
    with pytest.raises(NoiseBudgetExhausted):
        be.mul_plain(low, be.encode(x, scale=be.config.scale, level=0))


def test_sim_backend_refuses_guaranteed_scale_overflow():
    config = SchemeConfig(poly_degree=128, scale_bits=30,
                          first_prime_bits=40, num_levels=3)
    sim = SimBackend(config, seed=11)
    x = np.random.default_rng(1).uniform(-1, 1, size=64)
    a = sim.encrypt(x)
    sim.mul(a, a)
    low = sim.mod_switch_to(a, 0)
    with pytest.raises(NoiseBudgetExhausted):
        sim.mul(low, low)
    with pytest.raises(NoiseBudgetExhausted):
        sim.mul_plain(low, sim.encode(x, scale=sim.config.scale, level=0))


def test_rescale_refuses_sub_unit_scale():
    params = CkksParameters(poly_degree=128, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    be = ExactBackend(params, seed=11)
    x = np.random.default_rng(2).uniform(-1, 1, size=64)
    with pytest.raises(NoiseBudgetExhausted):
        be.rescale(be.encrypt(x, scale=2.0 ** 10))
    config = SchemeConfig(poly_degree=128, scale_bits=30,
                          first_prime_bits=40, num_levels=3)
    sim = SimBackend(config, seed=11)
    with pytest.raises(NoiseBudgetExhausted):
        sim.rescale(sim.encrypt(x, scale=2.0 ** 10))


# -- activation: CLI flags and environment -----------------------------------


def test_cli_install_chaos_flags():
    import argparse

    from repro.cli import _install_chaos

    # the CI chaos job runs this suite with REPRO_CHAOS pre-installed;
    # put that injector (and its accumulated replay log) back afterwards
    previous = chaos.current()
    try:
        ns = argparse.Namespace(chaos_spec="seed=5;wire.reset=1@1",
                                chaos_seed=None)
        _install_chaos(ns)
        inj = chaos.current()
        assert inj is not None and inj.plan.seed == 5
        assert inj.plan.sites == {chaos.WIRE_RESET: SiteSpec(1.0, 1)}
        _install_chaos(argparse.Namespace(chaos_spec=None, chaos_seed=9))
        assert chaos.current().plan.sites == ChaosPlan.default(9).sites
        # an explicit spec wins over the seed shorthand
        _install_chaos(argparse.Namespace(
            chaos_spec="seed=3;serve.poison=0.5", chaos_seed=9))
        assert chaos.current().plan.seed == 3
        # no flags at all leaves the previous injector in place
        installed = chaos.current()
        _install_chaos(argparse.Namespace(chaos_spec=None, chaos_seed=None))
        assert chaos.current() is installed
        chaos.uninstall()
        assert chaos.current() is None
    finally:
        chaos._INJECTOR = previous


def test_env_activation_writes_replay_log(tmp_path):
    log = tmp_path / "chaos_replay.jsonl"
    code = (
        "import repro.chaos as c\n"
        "assert c.current() is not None\n"
        "assert c.current().plan.seed == 5\n"
        "fired = [c.wire_fault() is not None for _ in range(4)]\n"
        "assert fired.count(True) == 1, fired\n"
    )
    env = dict(os.environ)
    env["REPRO_CHAOS"] = "seed=5;wire.reset=1@1"
    env["REPRO_CHAOS_LOG"] = str(log)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert lines[0] == {"plan": "seed=5;wire.reset=1@1"}
    assert lines[1] == {"site": "wire.reset", "index": 1, "detail": "rpc"}


def test_dump_log_roundtrips_through_from_spec(tmp_path):
    plan = ChaosPlan(13, {chaos.SERVE_POISON: SiteSpec(0.5, max_count=3),
                          chaos.WIRE_SLOW: SiteSpec(0.1, value=0.01)})
    with chaos.active(plan):
        for i in range(20):
            chaos.poison_request(i)
        path = tmp_path / "log.jsonl"
        chaos.dump_log(str(path))
        events = chaos.replay_log()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    rebuilt = ChaosPlan.from_spec(lines[0]["plan"])
    assert rebuilt.seed == plan.seed and rebuilt.sites == plan.sites
    assert [(e["site"], e["index"], e["detail"]) for e in lines[1:]] == events
    assert 0 < len(events) <= 3
