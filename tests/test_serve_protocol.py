"""The Figure-2 protocol, end to end through the serving stack.

The client holds the secret key; the untrusted server holds the compiled
program and evaluation keys.  Ciphertext bytes cross a real socket in
both directions and the server never observes plaintext.  This is the
tier-1 version of ``examples/client_server_protocol.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.errors import SessionMismatchError, UnknownModelError
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes, save_model
from repro.serve import (
    InferenceServer,
    ModelRegistry,
    RemoteModelClient,
    ServeClient,
)


def build_model(seed=0):
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder("credit_score")
    builder.add_input("features", [1, 24])
    builder.add_initializer(
        "w", (rng.normal(size=(3, 24)) * 0.3).astype(np.float32))
    builder.add_initializer("b", rng.normal(size=(3,)).astype(np.float32))
    builder.add_node("Gemm", ["features", "w", "b"], outputs=["output"],
                     transB=1)
    builder.add_output("output", [1, 3])
    return builder.build()


@pytest.fixture(scope="module")
def server():
    model = load_model_bytes(model_to_bytes(build_model()))
    registry = ModelRegistry()
    registry.register("credit", model, max_batch=4, seed=7)
    weights = {t.name: t.to_numpy() for t in model.graph.initializer}
    with InferenceServer(registry, num_threads=2,
                         max_wait_s=0.002) as srv:
        yield srv, weights


def test_encrypt_serve_decrypt_roundtrip(server):
    srv, weights = server
    features = np.random.default_rng(1).uniform(-1, 1, size=(1, 24))
    with RemoteModelClient(srv.host, srv.port, "credit") as client:
        scores = client.infer(features)
    expected = (features @ weights["w"].T + weights["b"]).ravel()
    assert np.allclose(scores.ravel(), expected, atol=1e-3)


def test_concurrent_clients_all_correct(server):
    srv, weights = server
    rng = np.random.default_rng(2)
    inputs = [rng.uniform(-1, 1, size=(1, 24)) for _ in range(4)]
    outputs: dict[int, np.ndarray] = {}

    def one_client(index):
        with RemoteModelClient(srv.host, srv.port, "credit") as client:
            outputs[index] = client.infer(inputs[index])

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for index, x in enumerate(inputs):
        expected = (x @ weights["w"].T + weights["b"]).ravel()
        assert np.allclose(outputs[index].ravel(), expected, atol=1e-3)


def test_server_rejects_foreign_ciphertext(server):
    """Acceptance: fingerprint mismatch -> typed, structured rejection."""
    srv, _ = server
    from repro.ckks import CkksContext, CkksParameters
    from repro.ckks.serialize import serialize_ciphertext

    with RemoteModelClient(srv.host, srv.port, "credit") as client:
        foreign = CkksContext(
            CkksParameters(poly_degree=256, scale_bits=32,
                           first_prime_bits=42, num_levels=4),
            rotation_steps=[], seed=3)
        payload = serialize_ciphertext(foreign.encrypt(np.zeros(24)))
        with pytest.raises(SessionMismatchError):
            client.infer_bytes(payload)
        # the session (and server) survive the rejection
        scores = client.infer(np.zeros((1, 24)))
        assert scores.size == 3


def test_server_rejects_garbage_and_unknown_ids(server):
    srv, _ = server
    with ServeClient(srv.host, srv.port) as rpc:
        assert rpc.models() == ["credit"]
        reply, _ = rpc.rpc({"op": "open_session", "model_id": "missing"})
        assert not reply["ok"] and reply["error"] == "UnknownModelError"
        reply, _ = rpc.rpc({"op": "infer", "session_id": "bogus"}, b"")
        assert not reply["ok"] and reply["error"] == "UnknownSessionError"
        session, _ = rpc.rpc({"op": "open_session", "model_id": "credit"})
        reply, _ = rpc.rpc(
            {"op": "infer", "session_id": session["session_id"]},
            b"definitely not a ciphertext")
        assert not reply["ok"]
        assert reply["error"] in ("DeserializationError",
                                  "SessionMismatchError")
        reply, _ = rpc.rpc({"op": "nonsense"})
        assert not reply["ok"] and reply["error"] == "ServeError"
    with pytest.raises(UnknownModelError):
        RemoteModelClient(srv.host, srv.port, "missing")


def test_metrics_over_the_wire(server):
    srv, _ = server
    with RemoteModelClient(srv.host, srv.port, "credit") as client:
        client.infer(np.zeros((1, 24)))
        reply = client.rpc_client.metrics()
    counters = reply["snapshot"]["counters"]
    assert counters["serve_requests_total"] >= 1
    assert counters["serve_bytes_in_total"] > 0
    assert "serve_requests_total" in reply["text"]
    hists = reply["snapshot"]["histograms"]
    assert hists["serve_request_latency_s"]["count"] >= 1


def test_server_survives_oversized_frame(server):
    """A hostile length prefix gets a typed reply, never an allocation;
    the connection is closed because the stream cannot be resynced."""
    import socket
    import struct

    from repro.serve.server import recv_message

    srv, _ = server
    with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
        sock.sendall(struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF))
        message = recv_message(sock)
        assert message is not None
        reply, _ = message
        assert not reply["ok"]
        assert reply["error"] == "MessageTooLargeError"
        assert recv_message(sock) is None  # server closed after replying
    with ServeClient(srv.host, srv.port) as rpc:
        counters = rpc.metrics()["snapshot"]["counters"]
        assert counters["serve_frames_oversize_total"] >= 1
        assert rpc.models() == ["credit"]  # and the server still serves


def _wire_error_classes():
    """Every ReproError subclass reachable from the errors module.

    ``_error_from`` reconstructs errors by name from :mod:`repro.errors`,
    so this is exactly the set that round-trips typed over the wire.
    """
    import repro.errors as errors_mod
    from repro.errors import ReproError

    seen, stack = [], [ReproError]
    while stack:
        cls = stack.pop()
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted({c for c in seen
                   if getattr(errors_mod, c.__name__, None) is c},
                  key=lambda c: c.__name__)


def test_library_error_classes_all_round_trip():
    # an error class defined outside repro.errors would silently
    # degrade to a bare ServeError on the client; catch that drift here
    import repro.errors as errors_mod
    from repro.errors import ReproError

    stack = [ReproError]
    while stack:
        cls = stack.pop()
        if cls.__module__.startswith("repro"):
            assert getattr(errors_mod, cls.__name__, None) is cls, (
                f"{cls.__module__}.{cls.__name__} is not importable from "
                "repro.errors and cannot round-trip over the wire")
        stack.extend(cls.__subclasses__())


@pytest.mark.parametrize("cls", _wire_error_classes(),
                         ids=lambda c: c.__name__)
def test_error_header_round_trips_typed(cls):
    from repro.serve.server import _error_from
    from repro.serve.worker import ServeResponse

    reply = ServeResponse.failure(cls("boom")).header()
    rebuilt = _error_from(reply)
    assert type(rebuilt) is cls
    assert rebuilt.transient is cls.transient  # retryability survives
    assert "boom" in str(rebuilt)


def test_error_from_unknown_names_fall_back_to_serve_error():
    from repro.errors import ServeError
    from repro.serve.server import _error_from

    for name in ("InternalError", "ValueError", None):
        rebuilt = _error_from({"error": name, "message": "x"})
        assert type(rebuilt) is ServeError
        assert not rebuilt.transient


def test_cli_serve_and_client(tmp_path, capsys):
    """The ``repro serve`` / ``repro client`` pair over a real socket."""
    model_path = tmp_path / "credit.onnx"
    save_model(build_model(), model_path)
    port_file = tmp_path / "port"
    thread = threading.Thread(
        target=main,
        args=(["serve", str(model_path), "--port", "0", "--port-file",
               str(port_file), "--batch-size", "2", "--workers", "1"],),
        daemon=True,  # serve_forever blocks; the daemon dies with pytest
    )
    thread.start()
    deadline = time.monotonic() + 60
    while not port_file.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert port_file.exists(), "server never announced its port"
    port = int(port_file.read_text())
    rc = main(["client", "--port", str(port), "--model-id", "credit",
               "--requests", "2", "--show-metrics"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "response[0]:" in out and "response[1]:" in out
    assert "serve_requests_total" in out


# -- server-side chaos: the reply path exercises at-most-once delivery ------
#
# The client's contract is at-least-once *execution* (it re-sends after a
# lost reply; inference is deterministic) and exactly-one *response*
# (request ids correlate frames, stale duplicates are discarded).  Each
# test arms one server-side fault site and asserts the client heals.

def _chaos_infer(srv, weights, site, spec, repeats=1):
    from repro import chaos
    from repro.chaos import ChaosPlan, SiteSpec

    features = np.random.default_rng(3).uniform(-1, 1, size=(1, 24))
    expected = (features @ weights["w"].T + weights["b"]).ravel()
    with RemoteModelClient(srv.host, srv.port, "credit") as client:
        client.infer(features)  # session established before faults arm
        with chaos.active(ChaosPlan(11, {site: SiteSpec(*spec)})):
            for _ in range(repeats):
                scores = client.infer(features)
                assert np.allclose(scores.ravel(), expected, atol=1e-3)
    return srv.metrics.counter(f"serve_chaos_{site.split('.')[-1]}_total")


def test_dropped_reply_heals_by_reexecution(server):
    from repro import chaos

    srv, weights = server
    before = srv.metrics.counter("serve_requests_total")
    fired = _chaos_infer(srv, weights, chaos.SERVE_DROP_REPLY, (1.0, 1))
    assert fired >= 1
    # warm-up executed once; the lost reply forced the chaos-window
    # request to execute twice (at-least-once execution)
    assert srv.metrics.counter("serve_requests_total") >= before + 3


def test_corrupt_reply_is_transient(server):
    from repro import chaos

    srv, weights = server
    fired = _chaos_infer(srv, weights, chaos.SERVE_CORRUPT_REPLY, (1.0, 1))
    assert fired >= 1


def test_duplicated_replies_are_discarded_not_consumed(server):
    from repro import chaos

    srv, weights = server
    # every reply doubled for a while: later rpcs must skip stale frames
    fired = _chaos_infer(srv, weights, chaos.SERVE_DUP_REPLY, (1.0, 4),
                         repeats=3)
    assert fired >= 2


def test_delayed_reply_still_correct(server):
    from repro import chaos

    srv, weights = server
    fired = _chaos_infer(srv, weights, chaos.SERVE_DELAY_REPLY,
                         (1.0, 2, 0.01))
    assert fired >= 1


def test_stop_returns_without_sitting_out_the_accept_join():
    # closing the listening socket alone leaves accept() blocked on
    # Linux, and stop() then waited out its whole 5 s join timeout
    srv = InferenceServer(ModelRegistry(), num_threads=1).start()
    start = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - start < 1.0
    assert not srv._accept_thread.is_alive()
