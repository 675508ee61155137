"""Scale-out serving: a routing front-end + model-shard processes.

One Python process can only push one GIL's worth of NTT kernels; the
ROADMAP's "serve heavy traffic" goal needs more.  This module scales the
Figure-2 server *out* instead of up:

* the **front-end** (:class:`RouterServer`) is the same
  :class:`~repro.serve.transport.FrameServer` every server is — one
  thread per client connection, the length-prefixed protocol
  *unchanged* — so every existing client (``ServeClient``,
  ``RemoteModelClient``, ``repro client``) works against a router
  verbatim; what this module adds is placement and forwarding only;
* N **shard processes** (:class:`~repro.serve.shard.ShardServer`
  subprocesses, spawned as ``repro serve --shard``) each run the full
  registry/worker/batcher/breaker stack and do the actual FHE work on
  their own interpreter — real multi-core scaling;
* the router owns **placement**: models are assigned to shards by
  resident evaluation-key bytes
  (:class:`~repro.serve.placement.KeyMemoryPlacement`, the Figure-7
  cost model), idle models' key material is LRU-evicted under a
  per-shard budget, and a routed request that misses (evicted model,
  respawned shard) transparently re-places and re-registers from the
  router's serialized key blob;
* the **key exchange is real**: the router serializes public/evaluation
  keys once per model (:func:`repro.ckks.serialize.serialize_eval_keys`)
  and ships the blob to the owning shard.  A shard can evaluate but
  never decrypt — no seed, no secret — while clients keep rebuilding
  their secret locally from ``open_session``'s keygen seed exactly as
  before.

Failure containment composes across the process boundary: a shard that
dies mid-batch surfaces to its in-flight clients as *transient* errors
(their retry policies re-send), the router respawns the process,
re-registers its models from the stored key blobs, and the retried
requests land on the recovered shard — zero non-transient client
errors, no lost or duplicated responses (request-id correlation
discards stale frames).  ``router.shard_kill`` in :mod:`repro.chaos`
drives exactly this path deterministically.
"""

from __future__ import annotations

import itertools
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import chaos
from repro.ckks.serialize import serialize_eval_keys
from repro.errors import (
    ConnectionClosedError,
    ReproError,
    ServeError,
    ShardUnavailableError,
    UnknownModelError,
    UnknownSessionError,
)
from repro.serve.metrics import Metrics, aggregate_counters
from repro.serve.placement import KeyMemoryPlacement
from repro.serve.registry import ModelRegistry, default_serve_params
from repro.serve.retry import RetryPolicy
from repro.serve.server import ServeClient
from repro.serve.transport import DEFAULT_MAX_MESSAGE_BYTES, FrameServer

_router_session_counter = itertools.count(1)

#: how long a (re)spawned shard process gets to report its port
SPAWN_TIMEOUT_S = 30.0

#: overload counters summed across shards in the router's ``metrics`` op
OVERLOAD_METRICS = (
    "serve_goodput_rps",
    "serve_batch_repacks",
    "serve_deadline_miss_total",
)


def remaining_timeout_s(deadline: float, now: float | None = None,
                        floor: float = 0.05) -> float:
    """Time left until ``deadline`` (monotonic), floored.

    The router forwards *this* — never the client's original
    ``timeout_s`` — on every shard attempt, so a request that already
    burned half its deadline on a dead-shard recovery cannot occupy the
    recovered shard for its full original budget.  The floor keeps a
    nearly-expired forward from degenerating into an instant shard-side
    timeout (the router's own deadline loop is the real cutoff).
    """
    now = time.monotonic() if now is None else now
    return max(floor, deadline - now)


# -- model specs -----------------------------------------------------------

@dataclass
class ModelSpec:
    """Everything the router needs to (re)register a model on any shard.

    Built once by :meth:`RouterServer.add_model`: the router compiles
    the model *once* to act as the key authority — generates the full
    key set (program rotations + slot-batching rotations), serializes
    the public/evaluation keys into ``key_blob``, captures the client
    metadata, then **drops the backend** so the router itself stays
    light.  ``keygen_seed`` is kept only to serve ``open_session`` (the
    client rebuilds its secret from it, as in the single-process
    server); shards only ever receive ``key_blob``.
    """

    model_id: str
    model_bytes: bytes
    params_describe: dict
    secret_hamming_weight: int | None
    max_batch: int
    keygen_seed: int
    key_blob: bytes
    key_bytes: int
    fingerprint: str
    describe: dict


@dataclass
class RouterSession:
    """A client session bound to a model; shard binding is re-derived."""

    session_id: str
    model_id: str
    shard: int = -1
    shard_session: str = ""
    generation: int = -1
    lock: threading.Lock = field(default_factory=threading.Lock)


# -- shard process handles -------------------------------------------------

class _ShardPool:
    """A small pool of ``ServeClient`` connections to one shard.

    Connections are created lazily up to ``size``; concurrent forwards
    beyond that block until one frees up.  A connection that saw an
    error is discarded, never reused (the stream may be desynced).
    """

    def __init__(self, host: str, port: int, size: int, timeout_s: float):
        self.host = host
        self.port = port
        self.size = size
        self.timeout_s = timeout_s
        self._free: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._created = 0
        self._closed = False

    def _new_client(self) -> ServeClient:
        # no client-side retry here: the router wants shard failures
        # surfaced immediately so its own failover logic can respawn
        return ServeClient(self.host, self.port, timeout_s=self.timeout_s,
                           retry=RetryPolicy(max_attempts=1))

    def acquire(self) -> ServeClient:
        try:
            return self._free.get_nowait()
        except queue.Empty:
            pass
        with self._lock:
            if self._closed:
                raise ShardUnavailableError("shard connection pool closed")
            if self._created < self.size:
                self._created += 1
                try:
                    return self._new_client()
                except OSError as exc:
                    self._created -= 1
                    raise ShardUnavailableError(
                        f"cannot connect to shard at "
                        f"{self.host}:{self.port}: {exc}") from exc
        try:
            return self._free.get(timeout=self.timeout_s)
        except queue.Empty:
            raise ShardUnavailableError(
                f"no shard connection freed within "
                f"{self.timeout_s:.0f}s") from None

    def release(self, client: ServeClient) -> None:
        if self._closed:
            client.close()
            return
        self._free.put(client)

    def discard(self, client: ServeClient) -> None:
        client.close()
        with self._lock:
            self._created = max(0, self._created - 1)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        while True:
            try:
                self._free.get_nowait().close()
            except queue.Empty:
                break


class ShardHandle:
    """One shard subprocess: lifecycle, connections, generation counter.

    ``generation`` increments on every (re)spawn; sessions remember the
    generation they were opened against, so a stale binding is detected
    by comparison, never by a failed RPC.
    """

    def __init__(self, index: int, host: str = "127.0.0.1",
                 pool_size: int = 4, timeout_s: float = 60.0,
                 workers: int = 1, kernel: str | None = None):
        self.index = index
        self.host = host
        self.pool_size = pool_size
        self.timeout_s = timeout_s
        self.workers = workers
        self.kernel = kernel
        #: backend the shard reported at registration (its own resolution
        #: of the requested kernel, e.g. ``auto`` -> ``numpy``)
        self.kernel_backend: str | None = None
        self.lock = threading.Lock()
        self.generation = 0
        self.port = 0
        self.proc: subprocess.Popen | None = None
        self.pool: _ShardPool | None = None

    # -- process lifecycle -------------------------------------------------

    def _child_env(self) -> dict:
        env = dict(os.environ)
        # the shard must import repro regardless of the parent's cwd
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (src_root + os.pathsep + existing
                                 if existing else src_root)
        # server-side chaos sites fire *inside* the shard: REPRO_CHAOS is
        # inherited as-is, but each shard logs to its own replay file
        log = env.pop("REPRO_CHAOS_LOG", "")
        if log:
            env["REPRO_CHAOS_LOG"] = f"{log}.shard{self.index}"
        return env

    def spawn_locked(self) -> None:
        """(Re)start the shard process; caller holds ``self.lock``."""
        self.kill_process()
        if self.pool is not None:
            self.pool.close()
        port_file = tempfile.NamedTemporaryFile(
            prefix=f"repro-shard{self.index}-", suffix=".port", delete=False)
        port_file.close()
        os.unlink(port_file.name)
        cmd = [
            sys.executable, "-m", "repro", "serve", "--shard",
            "--host", self.host, "--port", "0",
            "--port-file", port_file.name,
            "--workers", str(self.workers),
        ]
        if self.kernel is not None:
            cmd += ["--kernel", self.kernel]
        self.proc = subprocess.Popen(
            cmd, env=self._child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ShardUnavailableError(
                    f"shard {self.index} exited with code "
                    f"{self.proc.returncode} during startup")
            try:
                self.port = int(Path(port_file.name).read_text())
                break
            except (OSError, ValueError):
                time.sleep(0.02)
        else:
            raise ShardUnavailableError(
                f"shard {self.index} did not report a port within "
                f"{SPAWN_TIMEOUT_S:.0f}s")
        try:
            os.unlink(port_file.name)
        except OSError:
            pass
        self.pool = _ShardPool(self.host, self.port, self.pool_size,
                               self.timeout_s)
        self.generation += 1

    def kill_process(self) -> None:
        """Hard-kill the subprocess (also the chaos shard_kill action)."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def close(self) -> None:
        with self.lock:
            if self.pool is not None:
                self.pool.close()
            self.kill_process()

    # -- rpc ---------------------------------------------------------------

    def rpc(self, header: dict, body: bytes = b"") -> tuple[dict, bytes]:
        """One request/reply against this shard over a pooled connection.

        Wire-level failures surface as transient errors after the dead
        connection is discarded — classification and failover belong to
        the router.
        """
        pool = self.pool
        if pool is None:
            raise ShardUnavailableError(
                f"shard {self.index} has no live process")
        client = pool.acquire()
        try:
            reply, payload = client.rpc(header, body)
        except (ReproError, OSError):
            pool.discard(client)
            raise
        pool.release(client)
        return reply, payload


# -- the router ------------------------------------------------------------

class RouterServer(FrameServer):
    """Route the serve protocol to shard processes: placement + forwarding.

    Args:
        num_shards: shard subprocesses to spawn.
        key_budget: per-shard resident evaluation-key byte budget; when
            placing a model would exceed it, LRU models on that shard
            are evicted (their keys dropped) first.  None = unbounded.
        pool_size: connections kept to each shard; bounds the forwards
            in flight per shard whatever the client connection count.
        shard_workers / shard_kernel: forwarded to each shard (worker
            threads, ``--kernel`` backend choice).
    """

    def __init__(
        self,
        num_shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        key_budget: int | None = None,
        metrics: Metrics | None = None,
        request_timeout_s: float = 60.0,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
        pool_size: int = 4,
        shard_workers: int = 1,
        shard_kernel: str | None = None,
    ):
        super().__init__(host, port, metrics, max_message_bytes)
        self.placement = KeyMemoryPlacement(num_shards, key_budget)
        self.request_timeout_s = request_timeout_s
        self._specs: dict[str, ModelSpec] = {}
        self._specs_lock = threading.Lock()
        self._sessions: dict[str, RouterSession] = {}
        self._sessions_lock = threading.Lock()
        self.shards = [
            ShardHandle(index, host=host, pool_size=pool_size,
                        timeout_s=request_timeout_s, workers=shard_workers,
                        kernel=shard_kernel)
            for index in range(num_shards)
        ]
        try:
            for shard in self.shards:
                with shard.lock:
                    shard.spawn_locked()
        except BaseException:
            self.stop()  # the shards already up, and the bound socket
            raise

    # -- model management --------------------------------------------------

    def add_model(self, model_id: str, model, params=None,
                  max_batch: int = 4, seed: int = 0) -> ModelSpec:
        """Compile ``model`` once, build its key blob, and place +
        register it on a shard right away.

        The compile happens in a throwaway registry purely to act as key
        authority; the resulting backend (and with it the bulk of the
        key memory) is garbage once the blob is serialized.
        """
        params = params or default_serve_params()
        if isinstance(model, (str, Path)):
            model_bytes = Path(model).read_bytes()
        elif isinstance(model, (bytes, bytearray)):
            model_bytes = bytes(model)
        else:
            raise ServeError(
                "router models must be .onnx paths or bytes (the bytes "
                "are shipped to shard processes)")
        scratch = ModelRegistry()
        entry = scratch.register(model_id, model_bytes, params=params,
                                 max_batch=max_batch, seed=seed)
        spec = ModelSpec(
            model_id=model_id,
            model_bytes=model_bytes,
            params_describe=params.describe(),
            secret_hamming_weight=params.secret_hamming_weight,
            max_batch=entry.max_batch,
            keygen_seed=seed,
            key_blob=serialize_eval_keys(entry.backend.ctx.keys),
            key_bytes=entry.key_bytes,
            fingerprint=entry.fingerprint,
            describe=entry.describe(),
        )
        scratch.unregister(model_id)  # drop the backend + its key memory
        with self._specs_lock:
            self._specs[model_id] = spec
        self.metrics.inc("router_models_added_total")
        self.metrics.set_gauge(f"serve_key_bytes_{model_id}", spec.key_bytes)
        self._ensure_placed(spec)
        return spec

    def spec(self, model_id: str) -> ModelSpec:
        with self._specs_lock:
            spec = self._specs.get(model_id)
            known = sorted(self._specs)
        if spec is None:
            raise UnknownModelError(
                f"model {model_id!r} is not registered with the router "
                f"(known: {known or 'none'})")
        return spec

    def _ensure_placed(self, spec: ModelSpec) -> int:
        """Make sure ``spec`` is resident on a live shard; returns it.

        Covers initial placement, the routed-request miss after an LRU
        eviction, and re-placement after a shard died.  Eviction RPCs
        are best-effort: a shard that will not drop a model is about to
        be respawned or over budget by one model — neither is fatal.
        """
        shard_index = self.placement.shard_of(spec.model_id)
        if shard_index is not None:
            return shard_index
        shard_index, evicted = self.placement.place(
            spec.model_id, spec.key_bytes)
        shard = self.shards[shard_index]
        for victim in evicted:
            self.metrics.inc("router_evictions_total")
            self.metrics.set_gauge(f"serve_key_bytes_{victim}", 0)
            try:
                shard.rpc({"op": "unregister_model", "model_id": victim})
            except (ReproError, OSError):
                pass
        self._register_on(shard, spec)
        self._export_shard_gauges()
        return shard_index

    def _register_on(self, shard: ShardHandle, spec: ModelSpec) -> None:
        """Ship model bytes + key blob to ``shard`` (the key exchange)."""
        header = {
            "op": "register_model",
            "model_id": spec.model_id,
            "params": spec.params_describe,
            "secret_hamming_weight": spec.secret_hamming_weight,
            "max_batch": spec.max_batch,
            "model_bytes": len(spec.model_bytes),
        }
        reply, _ = shard.rpc(header, spec.model_bytes + spec.key_blob)
        if not reply.get("ok"):
            raise ServeError(
                f"shard {shard.index} refused model {spec.model_id!r}: "
                f"{reply.get('message')}")
        shard.kernel_backend = reply.get("kernel_backend")
        self.metrics.inc("router_models_registered_total")

    def _recover_shard(self, shard: ShardHandle, seen_generation: int) -> None:
        """Respawn a dead shard and re-register its resident models.

        Concurrent failures collapse into one respawn: whoever takes the
        lock first does the work, later arrivals see a newer generation
        and return immediately.  Sessions re-bind lazily (their stored
        generation no longer matches).
        """
        with shard.lock:
            # stop() sets the flag before it takes this lock to kill the
            # shard, so a request still in flight cannot respawn it after
            if (shard.generation != seen_generation
                    or self._stopping.is_set()):
                return
            shard.spawn_locked()
            self.metrics.inc("router_shard_respawns_total")
            for model_id in self.placement.resident(shard.index):
                try:
                    self._register_on(shard, self.spec(model_id))
                except UnknownModelError:
                    self.placement.remove(model_id)

    def _export_shard_gauges(self) -> None:
        for index, info in self.placement.snapshot().items():
            self.metrics.set_gauge(
                f"router_shard_{index}_key_bytes", info["key_bytes"])
            self.metrics.set_gauge(
                f"router_shard_{index}_models", len(info["models"]))

    def stop(self) -> None:
        super().stop()
        for shard in self.shards:
            shard.close()

    # -- request handling --------------------------------------------------

    def _dispatch(self, header: dict, body: bytes) -> tuple[dict, bytes]:
        op = header.get("op")
        self.metrics.inc("router_requests_total")
        if op == "ping":
            return {"ok": True, "router": True}, b""
        if op == "models":
            with self._specs_lock:
                return {"ok": True, "models": sorted(self._specs)}, b""
        if op == "metrics":
            shard_snaps = self._shard_metric_snapshots()
            return {
                "ok": True,
                "snapshot": self.metrics.snapshot(),
                "text": self.metrics.render(),
                "placement": {
                    str(k): v for k, v in self.placement.snapshot().items()
                },
                "shard_kernels": {
                    str(s.index): s.kernel_backend for s in self.shards
                },
                "shards": shard_snaps,
                "aggregated": aggregate_counters(
                    list(shard_snaps.values()), OVERLOAD_METRICS),
            }, b""
        if op == "open_session":
            return self._handle_open(header)
        if op == "close_session":
            return self._handle_close(header)
        if op == "infer":
            return self._handle_infer(header, body)
        raise ServeError(f"unknown op {op!r}")

    def _handle_open(self, header: dict) -> tuple[dict, bytes]:
        """Open a router-owned session; the shard binding is lazy.

        The reply is built from the router's own spec — including the
        keygen seed the *client* needs to rebuild its secret — because
        the shard could not provide it: it never had the seed.
        """
        spec = self.spec(str(header.get("model_id")))
        session = RouterSession(
            session_id=f"r{next(_router_session_counter):06d}",
            model_id=spec.model_id,
        )
        with self._sessions_lock:
            self._sessions[session.session_id] = session
        info = dict(spec.describe)
        info.update({
            "ok": True,
            "session_id": session.session_id,
            "keygen_seed": spec.keygen_seed,
            "secret_hamming_weight": spec.secret_hamming_weight,
        })
        return info, b""

    def _handle_close(self, header: dict) -> tuple[dict, bytes]:
        session_id = str(header.get("session_id"))
        with self._sessions_lock:
            session = self._sessions.pop(session_id, None)
        if session is not None and session.shard >= 0:
            shard = self.shards[session.shard]
            if session.generation == shard.generation:
                try:
                    shard.rpc({"op": "close_session",
                               "session_id": session.shard_session})
                except (ReproError, OSError):
                    pass
        return {"ok": True}, b""

    def _session(self, session_id: str) -> RouterSession:
        with self._sessions_lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        return session

    def _bind_session(self, session: RouterSession) -> ShardHandle:
        """Ensure ``session`` has a live shard session; returns the shard.

        Re-binds whenever the model moved (eviction / shard death) or
        the shard respawned since the last request (generation mismatch).
        """
        spec = self.spec(session.model_id)
        with session.lock:
            shard_index = self._ensure_placed(spec)
            shard = self.shards[shard_index]
            if (session.shard == shard_index
                    and session.generation == shard.generation
                    and session.shard_session):
                return shard
            reply, _ = shard.rpc({"op": "open_session",
                                  "model_id": session.model_id})
            if not reply.get("ok"):
                if reply.get("error") == "UnknownModelError":
                    # a respawn's model re-registration is still in
                    # flight (or an eviction race): transient — the
                    # caller's deadline loop retries once the recovery
                    # thread has pushed the model back
                    raise ShardUnavailableError(
                        f"shard {shard_index} does not have "
                        f"{session.model_id!r} yet: {reply.get('message')}")
                raise ServeError(
                    f"shard {shard_index} refused a session for "
                    f"{session.model_id!r}: {reply.get('message')}")
            session.shard = shard_index
            session.shard_session = reply["session_id"]
            session.generation = shard.generation
            return shard

    def _handle_infer(self, header: dict, body: bytes) -> tuple[dict, bytes]:
        """Route one inference to the owning shard, with failover.

        At-least-once *execution*, exactly-one *response*: transient
        shard failures (dead process, dropped/corrupt reply, respawn in
        progress) are retried *here*, holding the client's request open
        until its own deadline — a router that bounced every wobble back
        to the client would burn the client's retry budget on windows
        the router itself knows how to wait out.  Only when the deadline
        expires does the client see a transient
        :class:`ShardUnavailableError` and re-send.  Inference is
        deterministic, so re-execution is safe.
        """
        session = self._session(str(header.get("session_id")))
        self.placement.touch(session.model_id)
        try:
            deadline_s = float(header.get("timeout_s")
                               or self.request_timeout_s)
        except (TypeError, ValueError):
            deadline_s = self.request_timeout_s
        deadline = time.monotonic() + min(deadline_s, self.request_timeout_s)
        last_exc: Exception | None = None
        attempt = 0
        while True:
            attempt += 1
            if attempt > 1:
                if time.monotonic() >= deadline or self._stopping.is_set():
                    break
                # pause between recovery rounds: respawn + model
                # re-registration is seconds, not microseconds
                time.sleep(min(0.05 * attempt, 0.5))
            try:
                shard = self._bind_session(session)
            except (ShardUnavailableError, ConnectionClosedError,
                    OSError) as exc:
                last_exc = exc
                self._recover_placement(session)
                continue
            if chaos.shard_kill(f"shard{shard.index}"):
                # the injected fault: the shard process dies right as
                # this request reaches it
                shard.kill_process()
            # forward the *remaining* deadline, not the client's original
            # timeout: a retry after a recovery round must not grant the
            # shard the full budget the client no longer has
            forward = {
                "op": "infer",
                "session_id": session.shard_session,
                "timeout_s": remaining_timeout_s(deadline),
            }
            try:
                reply, payload = shard.rpc(forward, body)
            except (ReproError, OSError) as exc:
                last_exc = exc
                self.metrics.inc("router_shard_failures_total")
                if shard.alive():
                    # one bad wire exchange (dropped/corrupt reply,
                    # reset): the pool already discarded the connection,
                    # so retrying reaches the live process on a fresh
                    # one — respawning here would throw away resident
                    # models over a transient
                    continue
                self._recover_shard(shard, session.generation)
                continue
            if not reply.get("ok") and reply.get("error") in (
                    "UnknownSessionError", "UnknownModelError"):
                # the shard lost state we thought it had (restart we did
                # not witness, eviction race): rebind and retry once
                session.shard_session = ""
                if reply.get("error") == "UnknownModelError":
                    self.placement.remove(session.model_id)
                last_exc = ServeError(reply.get("message") or "stale shard")
                continue
            self.metrics.inc(f"router_shard_{shard.index}_requests_total")
            reply.pop("rid", None)  # the shard's rid is not the client's
            return reply, payload
        raise ShardUnavailableError(
            f"shard for model {session.model_id!r} unavailable after "
            f"{attempt} recovery attempts over "
            f"{min(deadline_s, self.request_timeout_s):.0f}s: {last_exc}")

    def _shard_metric_snapshots(self) -> dict:
        """Best-effort per-shard metrics snapshots for the metrics op.

        A dead or mid-respawn shard simply contributes nothing; the
        aggregation must never fail a metrics request.
        """
        snaps: dict[str, dict] = {}
        for shard in self.shards:
            try:
                reply, _ = shard.rpc({"op": "metrics"})
            except (ReproError, OSError):
                continue
            if reply.get("ok"):
                snaps[str(shard.index)] = reply.get("snapshot", {})
        return snaps

    def _recover_placement(self, session: RouterSession) -> None:
        """A shard could not be bound: respawn its process if it died.

        The failing shard is found through placement (a fresh session
        has no binding of its own yet), falling back to the session's
        last known shard when the model was concurrently un-placed.
        """
        shard_index = self.placement.shard_of(session.model_id)
        if shard_index is None and session.shard >= 0:
            shard_index = session.shard
        if shard_index is not None:
            shard = self.shards[shard_index]
            if not shard.alive():
                self._recover_shard(shard, shard.generation)
        session.shard_session = ""
