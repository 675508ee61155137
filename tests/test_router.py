"""Scale-out serving: key-memory placement, wire key exchange, the
router front-end, cross-process failure containment.

The expensive fixtures here spawn real shard subprocesses (``repro
serve --shard``); the placement policy and the shard's register_model
key exchange are also covered in-process so most failures localise
without any process management involved.
"""

import socket
import struct
import subprocess
import threading
import time

import numpy as np
import pytest

from repro.ckks import CkksContext
from repro.ckks.serialize import (
    deserialize_ciphertext,
    serialize_ciphertext,
    serialize_eval_keys,
)
from repro.errors import (
    KeyError_,
    ServeError,
    ShardUnavailableError,
    UnknownModelError,
)
from repro.onnx import OnnxGraphBuilder, model_to_bytes
from repro.serve import (
    InferenceServer,
    KeyMemoryPlacement,
    ModelRegistry,
    RemoteModelClient,
    RouterServer,
    ServeClient,
    ShardHandle,
    ShardServer,
    default_serve_params,
    params_from_describe,
)
from repro.serve.transport import recv_message, send_message


def build_model(name="credit_score", seed=0):
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder(name)
    builder.add_input("features", [1, 24])
    builder.add_initializer(
        "w", (rng.normal(size=(3, 24)) * 0.3).astype(np.float32))
    builder.add_initializer("b", rng.normal(size=(3,)).astype(np.float32))
    builder.add_node("Gemm", ["features", "w", "b"], outputs=["output"],
                     transB=1)
    builder.add_output("output", [1, 3])
    return builder.build()


def _weights(model):
    return {t.name: t.to_numpy() for t in model.graph.initializer}


def _expected(weights, features):
    return (features @ weights["w"].T + weights["b"]).ravel()


# -- placement policy (pure, no processes) ----------------------------------

def test_placement_picks_least_key_bytes():
    p = KeyMemoryPlacement(3)
    assert p.place("a", 100) == (0, [])   # all empty: lowest index
    assert p.place("b", 60) == (1, [])
    assert p.place("c", 10) == (2, [])
    assert p.place("d", 5) == (2, [])     # 10+5 still the lightest shard
    assert p.shard_of("d") == 2
    assert p.resident(2) == ["c", "d"]
    assert p.resident_bytes(2) == 15


def test_placement_is_sticky_for_placed_models():
    p = KeyMemoryPlacement(2)
    shard, _ = p.place("a", 100)
    for _ in range(3):
        again, evicted = p.place("a", 100)
        assert (again, evicted) == (shard, [])
    assert p.resident_bytes(shard) == 100  # not double-counted


def test_placement_evicts_lru_under_budget():
    p = KeyMemoryPlacement(1, key_budget=100)
    p.place("a", 60)
    p.place("b", 30)
    p.touch("a")                          # b becomes the LRU entry
    shard, evicted = p.place("c", 40)
    assert shard == 0
    assert evicted == ["b"]
    assert p.resident(0) == ["a", "c"]
    assert p.resident_bytes(0) == 100


def test_placement_oversized_model_still_places():
    p = KeyMemoryPlacement(1, key_budget=50)
    p.place("a", 40)
    shard, evicted = p.place("huge", 400)
    assert shard == 0 and evicted == ["a"]
    assert p.resident(0) == ["huge"]      # over budget, but resident


def test_placement_remove_and_drop_shard():
    p = KeyMemoryPlacement(2)
    p.place("a", 10)
    p.place("b", 20)
    assert p.remove("a") == 0
    assert p.remove("a") is None
    assert p.drop_shard(1) == ["b"]
    assert p.snapshot()[1] == {"models": [], "key_bytes": 0}


# -- shard key exchange (in-process, no subprocess) -------------------------

def test_shard_register_model_over_wire_cannot_decrypt():
    """The real Figure-2 key exchange: serialized evaluation keys ship
    to the shard, the secret never does — the shard evaluates the
    program yet decryption inside the shard is structurally impossible."""
    params = default_serve_params()
    model = build_model(seed=0)
    model_bytes = model_to_bytes(model)
    # the client side is its own key authority
    authority = ModelRegistry()
    owner = authority.register("credit", model_bytes, params=params,
                               max_batch=4, seed=7)
    blob = serialize_eval_keys(owner.backend.ctx.keys)
    describe = owner.describe()
    authority.unregister("credit")

    registry = ModelRegistry()
    with ShardServer(registry, num_threads=2, max_wait_s=0.002) as srv:
        with ServeClient(srv.host, srv.port) as control:
            reply, _ = control.rpc({
                "op": "register_model",
                "model_id": "credit",
                "model_bytes": len(model_bytes),
                "params": params.describe(),
                "secret_hamming_weight": params.secret_hamming_weight,
                "max_batch": 4,
            }, model_bytes + blob)
            assert reply["ok"] and reply["key_bytes"] > 0

            assert control.models() == ["credit"]

        entry = registry.get("credit")
        assert entry.keygen_seed is None          # never knew a seed
        ct = entry.backend.ctx.encrypt([1.0])     # public-key encrypt ok
        with pytest.raises(KeyError_):
            entry.backend.ctx.decrypt(ct)

        # raw protocol inference: the test plays the secret-holding
        # client, rebuilding the same secret from the authority's seed
        with ServeClient(srv.host, srv.port) as client:
            info, _ = client.rpc({"op": "open_session",
                                  "model_id": "credit"})
            assert info["ok"] and info["keygen_seed"] is None
            cparams = params_from_describe(
                info["params"], info.get("secret_hamming_weight"))
            ctx = CkksContext(cparams, rotation_steps=[], need_relin=False,
                              seed=7)
            features = np.random.default_rng(5).uniform(-1, 1, (1, 24))
            vec = np.zeros(info["block_slots"])
            vec[np.asarray(info["input_positions"]).ravel()] = features.ravel()
            reply, body = client.rpc(
                {"op": "infer", "session_id": info["session_id"]},
                serialize_ciphertext(ctx.encrypt(vec)))
            assert reply["ok"]
            basis, _ = cparams.make_bases()
            out = np.asarray(ctx.decrypt(
                deserialize_ciphertext(body, basis), cparams.num_slots))
            got = out[reply.get("slot_offset", 0)
                      + np.asarray(info["output_positions"]).ravel()]
            assert np.allclose(got, _expected(_weights(model), features),
                               atol=1e-3)


def test_shard_register_rejects_missing_key_blob():
    registry = ModelRegistry()
    model_bytes = model_to_bytes(build_model())
    with ShardServer(registry, num_threads=1, max_wait_s=0.002) as srv:
        with ServeClient(srv.host, srv.port) as control:
            reply, _ = control.rpc({
                "op": "register_model",
                "model_id": "credit",
                "model_bytes": len(model_bytes),
                "params": default_serve_params().describe(),
            }, model_bytes)  # no key blob appended
            assert not reply["ok"]
            assert "key" in reply["message"]


# -- the router, end to end (real shard subprocesses) -----------------------

@pytest.fixture(scope="module")
def router():
    alpha = build_model("alpha", seed=0)
    beta = build_model("beta", seed=1)
    with RouterServer(num_shards=2, shard_workers=2, pool_size=2) as rt:
        rt.add_model("alpha", model_to_bytes(alpha), max_batch=4, seed=7)
        rt.add_model("beta", model_to_bytes(beta), max_batch=4, seed=8)
        yield rt, {"alpha": _weights(alpha), "beta": _weights(beta)}


def test_router_places_models_across_shards(router):
    rt, _ = router
    snapshot = rt.placement.snapshot()
    assert sorted(sum((s["models"] for s in snapshot.values()), [])) == \
        ["alpha", "beta"]
    # key-memory balance: one model per shard, not two on one
    assert all(len(s["models"]) == 1 for s in snapshot.values())
    assert all(s["key_bytes"] > 0 for s in snapshot.values())


def test_router_serves_both_models_correctly(router):
    rt, weights = router
    rng = np.random.default_rng(9)
    for model_id in ("alpha", "beta"):
        features = rng.uniform(-1, 1, size=(1, 24))
        with RemoteModelClient(rt.host, rt.port, model_id) as client:
            scores = client.infer(features)
        assert np.allclose(scores.ravel(),
                           _expected(weights[model_id], features),
                           atol=1e-3)


def test_router_unknown_model_is_permanent_error(router):
    rt, _ = router
    with pytest.raises(UnknownModelError):
        RemoteModelClient(rt.host, rt.port, "nope")


def test_router_replies_bit_identical_to_direct_server(router):
    """Routing through shard processes must not perturb ciphertexts:
    the reply bytes equal a direct single-process server's, bit for bit."""
    rt, _ = router
    registry = ModelRegistry()
    registry.register("alpha", model_to_bytes(build_model("alpha", seed=0)),
                      max_batch=4, seed=7)
    with InferenceServer(registry, num_threads=2, max_wait_s=0.002) as direct:
        via_router = RemoteModelClient(rt.host, rt.port, "alpha")
        via_direct = RemoteModelClient(direct.host, direct.port, "alpha")
        try:
            payload = via_router.encrypt(
                np.random.default_rng(1).uniform(-1, 1, (1, 24)))
            r_reply, r_body = via_router.infer_bytes(payload)
            d_reply, d_body = via_direct.infer_bytes(payload)
            assert r_body == d_body
            assert r_reply["slot_offset"] == d_reply["slot_offset"]
        finally:
            via_router.close()
            via_direct.close()


def test_router_survives_shard_kill_mid_batch(router):
    """PR-4 containment across the process boundary: a shard hard-killed
    under concurrent load costs at worst transient retries — every
    in-flight and subsequent request still returns a correct result."""
    rt, weights = router
    respawns_before = rt.metrics.counter("router_shard_respawns_total")
    errors: list[Exception] = []
    results: list[bool] = []
    lock = threading.Lock()

    def hammer(model_id, seed):
        rng = np.random.default_rng(seed)
        try:
            with RemoteModelClient(rt.host, rt.port, model_id) as client:
                for _ in range(4):
                    features = rng.uniform(-1, 1, size=(1, 24))
                    scores = client.infer(features)
                    ok = np.allclose(
                        scores.ravel(),
                        _expected(weights[model_id], features), atol=1e-3)
                    with lock:
                        results.append(bool(ok))
        except Exception as exc:  # noqa: BLE001 - recorded for the assert
            with lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(model_id, 20 + i))
        for i, model_id in enumerate(["alpha", "beta", "alpha", "beta"])
    ]
    for t in threads:
        t.start()
    time.sleep(0.3)  # let requests get in flight, then murder a shard
    rt.shards[0].kill_process()
    for t in threads:
        t.join(timeout=120)
    assert not errors, f"non-transient client failures: {errors!r}"
    assert results and all(results)
    assert rt.metrics.counter("router_shard_respawns_total") \
        >= respawns_before + 1
    assert all(shard.alive() for shard in rt.shards)


def test_router_control_plane_ops(router):
    rt, _ = router
    with ServeClient(rt.host, rt.port) as client:
        reply, _ = client.rpc({"op": "ping"})
        assert reply["ok"] and reply["router"]
        reply, _ = client.rpc({"op": "models"})
        assert reply["models"] == ["alpha", "beta"]
        reply, _ = client.rpc({"op": "metrics"})
        assert "router_requests_total" in reply["snapshot"]["counters"]
        placement = reply["placement"]
        assert sorted(sum((s["models"] for s in placement.values()), [])) \
            == ["alpha", "beta"]


# -- the router's wire front-end (the shared FrameServer shell) -------------

def test_router_oversized_frame_gets_typed_reply_then_close(router):
    """A hostile length prefix is refused before any allocation: typed
    reply, counted, connection closed — and the router keeps routing."""
    rt, _ = router
    before = rt.metrics.counter("serve_frames_oversize_total")
    with socket.create_connection((rt.host, rt.port), timeout=30) as sock:
        sock.sendall(struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF))
        reply, _ = recv_message(sock)
        assert not reply["ok"]
        assert reply["error"] == "MessageTooLargeError"
        assert recv_message(sock) is None  # closed: stream cannot resync
    assert rt.metrics.counter("serve_frames_oversize_total") == before + 1
    with ServeClient(rt.host, rt.port) as client:
        assert client.models() == ["alpha", "beta"]


@pytest.mark.parametrize("blob", [b'{"op": \xff"ping"}', b'["ping"]'],
                         ids=["garbled-json", "not-an-object"])
def test_router_corrupt_header_closes_only_that_connection(router, blob):
    rt, _ = router
    with ServeClient(rt.host, rt.port) as bystander:
        assert bystander.models() == ["alpha", "beta"]
        with socket.create_connection((rt.host, rt.port),
                                      timeout=30) as sock:
            sock.sendall(struct.pack("<II", len(blob), 0) + blob)
            assert recv_message(sock) is None  # no reply, just a close
        # the connection opened before the corrupt frame is untouched
        assert bystander.models() == ["alpha", "beta"]


def test_router_dispatch_bug_answers_internal_error_with_rid(
        router, monkeypatch):
    """A non-ReproError out of ``_dispatch`` is a router bug: the client
    gets ``InternalError`` under its own rid and the connection lives."""
    rt, _ = router

    def boom(header, body):
        raise RuntimeError("router bug")

    with socket.create_connection((rt.host, rt.port), timeout=30) as sock:
        with monkeypatch.context() as patched:
            patched.setattr(rt, "_dispatch", boom)
            send_message(sock, {"op": "ping", "rid": 41})
            reply, _ = recv_message(sock)
        assert not reply["ok"]
        assert reply["error"] == "InternalError"
        assert "router bug" in reply["message"]
        assert reply["rid"] == 41
        send_message(sock, {"op": "ping", "rid": 42})
        reply, _ = recv_message(sock)
        assert reply["ok"] and reply["rid"] == 42


def test_router_forwards_shard_options_to_shard_argv(monkeypatch):
    """``repro router --kernel X --workers N`` must reach ``repro serve
    --shard``: inspect the argv ``spawn_locked`` builds, spawning nothing."""
    seen = []

    class ExitedAtOnce:
        returncode = 1

        def __init__(self, cmd, **_kwargs):
            seen.append(cmd)

        def poll(self):
            return self.returncode

        def wait(self, timeout=None):
            return self.returncode

    monkeypatch.setattr(subprocess, "Popen", ExitedAtOnce)
    with pytest.raises(ShardUnavailableError):
        RouterServer(num_shards=1, shard_kernel="pyloops", shard_workers=3)
    (cmd,) = seen
    assert cmd[cmd.index("--kernel") + 1] == "pyloops"
    assert cmd[cmd.index("--workers") + 1] == "3"

    seen.clear()
    handle = ShardHandle(0)
    with pytest.raises(ShardUnavailableError), handle.lock:
        handle.spawn_locked()
    assert "--kernel" not in seen[0]  # unset stays unset


def test_router_stop_never_respawns_a_shard():
    """A request still in flight when ``stop()`` kills the shards sees
    them die; its recovery path must not spawn a process nobody owns."""
    rt = RouterServer(num_shards=1)
    shard = rt.shards[0]
    rt.stop()
    assert not shard.alive()
    rt._recover_shard(shard, shard.generation)
    assert not shard.alive()
    assert rt.metrics.counter("router_shard_respawns_total") == 0


def test_router_evicts_and_rehydrates_under_key_budget():
    """A one-shard router whose key budget holds a single model: placing
    the second evicts the first (LRU); using the first again transparently
    re-registers it from the router's retained key blob."""
    alpha = build_model("alpha", seed=0)
    beta = build_model("beta", seed=1)
    with RouterServer(num_shards=1, shard_workers=2,
                      pool_size=2, key_budget=4_000_000) as rt:
        spec = rt.add_model("alpha", model_to_bytes(alpha), seed=7)
        assert spec.key_bytes > 2_000_000  # budget really holds only one
        rt.add_model("beta", model_to_bytes(beta), seed=8)
        assert rt.placement.resident(0) == ["beta"]
        assert rt.metrics.counter("router_evictions_total") >= 1

        features = np.random.default_rng(2).uniform(-1, 1, (1, 24))
        with RemoteModelClient(rt.host, rt.port, "alpha") as client:
            scores = client.infer(features)  # miss -> re-registration
        assert np.allclose(scores.ravel(),
                           _expected(_weights(alpha), features), atol=1e-3)
        assert rt.placement.resident(0) == ["alpha"]  # beta was the LRU
