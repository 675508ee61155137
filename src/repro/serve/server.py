"""Inference server and clients for the Figure-2 protocol over a wire.

The frame codec, the connection loop and the exception-to-header shell
live in :mod:`repro.serve.transport`; this module is what an inference
server *answers* (:class:`InferenceServer`) and the two clients that
speak to any of the three servers.

Ops: ``models``, ``open_session``, ``close_session``, ``infer``,
``metrics``, ``ping``.

Key distribution caveat: a production deployment ships the *public* and
*evaluation* keys to the server and keeps the secret on the client.  This
reproduction's keygen is deterministic from ``(params, seed)``, so
``open_session`` returns the keygen seed and the client rebuilds the same
secret locally — an out-of-band key exchange stand-in (serialising key
material is a ROADMAP item).  The server-side request path never touches
the secret key: it deserializes ciphertexts, batches, and evaluates.
"""

from __future__ import annotations

import socket
import time

import numpy as np

from repro import chaos
from repro.ckks import CkksContext, CkksParameters
from repro.ckks.serialize import (
    deserialize_ciphertext,
    serialize_ciphertext,
)
from repro.errors import (
    ConnectionClosedError,
    DeserializationError,
    ReproError,
    ServeError,
)
from repro.polymath import kernels
from repro.serve.metrics import Metrics
from repro.serve.registry import ModelRegistry
from repro.serve.retry import RetryPolicy
from repro.serve.session import SessionManager
from repro.serve.transport import (
    DEFAULT_MAX_MESSAGE_BYTES,
    OVERSIZE_PREFIX,
    FrameServer,
    encode_frame,
    recv_message,
    send_message,
)
from repro.serve.worker import InferenceWorker


# -- server ----------------------------------------------------------------

class InferenceServer(FrameServer):
    """Serve registered models over a local TCP socket."""

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Metrics | None = None,
        num_threads: int = 1,
        queue_size: int = 64,
        max_wait_s: float = 0.005,
        request_timeout_s: float = 30.0,
        breaker_failures: int = 5,
        breaker_reset_s: float = 30.0,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
        recv_timeout_s: float | None = None,
    ):
        super().__init__(host, port, metrics, max_message_bytes,
                         recv_timeout_s)
        self.registry = registry
        # the registry exports per-model serve_key_bytes_* gauges (the
        # Figure-7 key-memory meter) through the server's metrics
        registry.export_key_gauges(self.metrics)
        # pre-compile the selected kernel backend's JIT kernels now, so
        # the first request never pays compilation latency
        self.metrics.set_gauge("kernel_warmup_seconds", kernels.warmup())
        self.sessions = SessionManager(registry)
        self.worker = InferenceWorker(
            metrics=self.metrics,
            num_threads=num_threads,
            queue_size=queue_size,
            max_wait_s=max_wait_s,
            request_timeout_s=request_timeout_s,
            breaker_failures=breaker_failures,
            breaker_reset_s=breaker_reset_s,
        )

    def stop(self) -> None:
        super().stop()
        self.worker.close()

    # -- request handling --------------------------------------------------

    def _send_reply(self, conn: socket.socket, reply: dict,
                    payload: bytes) -> bool:
        """Send one reply frame, subject to server-side chaos.

        These faults fire *after* the result is committed, so they
        exercise the client's at-most-once machinery: a dropped or
        corrupt reply surfaces client-side as a transient connection
        error (retry re-executes — safe, inference is deterministic),
        a duplicated reply is discarded by request-id correlation, and
        a delayed reply still pairs with the right request.  Returns
        False when the connection must close.
        """
        fault = chaos.reply_fault(str(reply.get("rid", "")))
        if fault is None:
            send_message(conn, reply, payload)
            return True
        site, spec = fault
        self.metrics.inc(f"serve_chaos_{site.split('.')[-1]}_total")
        if site == chaos.SERVE_DROP_REPLY:
            return False  # computed, never answered: client sees a close
        if site == chaos.SERVE_CORRUPT_REPLY:
            frame = bytearray(encode_frame(reply, payload))
            for off in range(8, min(len(frame), 24)):
                frame[off] ^= 0x01  # garble the header JSON, keep ASCII
            conn.sendall(bytes(frame))
            return False  # stream is poisoned beyond resync
        if site == chaos.SERVE_DUP_REPLY:
            send_message(conn, reply, payload)
            send_message(conn, reply, payload)
            return True
        # SERVE_DELAY_REPLY: the result was committed a while ago as far
        # as the client can tell
        time.sleep(spec.value if spec.value is not None else 0.05)
        send_message(conn, reply, payload)
        return True

    def _dispatch(self, header: dict, body: bytes) -> tuple[dict, bytes]:
        op = header.get("op")
        if op == "ping":
            return {"ok": True}, b""
        if op == "models":
            return {"ok": True, "models": self.registry.ids()}, b""
        if op == "metrics":
            return {
                "ok": True,
                "kernel_backend": kernels.active_name(),
                "snapshot": self.metrics.snapshot(),
                "text": self.metrics.render(),
            }, b""
        if op == "open_session":
            entry = self.registry.get(str(header.get("model_id")))
            session = self.sessions.open(entry.model_id)
            info = entry.describe()
            info.update({
                "ok": True,
                "session_id": session.session_id,
                "keygen_seed": entry.keygen_seed,
                "secret_hamming_weight": entry.params.secret_hamming_weight,
            })
            return info, b""
        if op == "close_session":
            self.sessions.close(str(header.get("session_id")))
            return {"ok": True}, b""
        if op == "infer":
            return self._handle_infer(header, body)
        raise ServeError(f"unknown op {op!r}")

    def _handle_infer(self, header: dict, body: bytes) -> tuple[dict, bytes]:
        session = self.sessions.get(str(header.get("session_id")))
        entry, ciphertext = self.sessions.validate_request(session, body)
        timeout_s = header.get("timeout_s")
        future = self.worker.submit(
            entry, session.session_id, ciphertext,
            timeout_s=timeout_s, wire_bytes_in=len(body),
        )
        response = self.worker.wait(future, timeout_s)
        return response.header(), response.payload or b""


# -- clients ---------------------------------------------------------------

class ServeClient:
    """Low-level RPC client speaking the framed protocol.

    Wire-level failures — connection resets, truncated replies, a dead
    server socket — surface as the transient
    :class:`repro.errors.ConnectionClosedError`; :meth:`rpc` heals them
    by reconnecting and resending under ``retry`` (capped exponential
    backoff + jitter).  This is also where :mod:`repro.chaos` injects
    its wire faults, so the healing path is exercised by the chaos
    suite, not just trusted.
    """

    #: stale frames (duplicated or delayed-past-retry replies) one rpc
    #: will discard before declaring the stream unsalvageable
    MAX_STALE_REPLIES = 8

    def __init__(self, host: str, port: int, timeout_s: float = 120.0,
                 retry: RetryPolicy | None = None,
                 max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.max_message_bytes = max_message_bytes
        self._sock: socket.socket | None = None
        self._rid = 0
        self._connect()

    def _connect(self) -> None:
        self.close()
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout_s)

    def _reconnect(self, _exc: BaseException, _attempt: int) -> None:
        try:
            self._connect()
        except OSError:
            self._sock = None  # next attempt raises transiently again

    def rpc(self, header: dict, body: bytes = b"") -> tuple[dict, bytes]:
        return self.retry.call(lambda: self._rpc_once(header, body),
                               on_retry=self._reconnect)

    def _rpc_once(self, header: dict, body: bytes) -> tuple[dict, bytes]:
        if self._sock is None:
            raise ConnectionClosedError("client socket is not connected")
        self._rid += 1
        header = dict(header)
        header["rid"] = rid = self._rid
        self._send_with_chaos(header, body)
        # request-id correlation (at-most-once): a server may duplicate
        # a reply or deliver one delayed past an earlier attempt —
        # discard frames whose rid is not ours.  Replies without a rid
        # (failure paths, old servers) are accepted as-is.
        for _ in range(self.MAX_STALE_REPLIES):
            try:
                message = recv_message(self._sock, self.max_message_bytes)
            except DeserializationError as exc:
                # corrupt reply frame: the stream cannot be resynced, so
                # drop the connection and let the retry policy heal it
                self.close()
                raise ConnectionClosedError(
                    f"corrupt reply frame: {exc}") from exc
            if message is None:
                raise ConnectionClosedError("server closed the connection")
            reply, payload = message
            if reply.get("rid") in (None, rid):
                return reply, payload
        self.close()
        raise ConnectionClosedError(
            f"no reply matching rid={rid} within "
            f"{self.MAX_STALE_REPLIES} frames")

    def _send_with_chaos(self, header: dict, body: bytes) -> None:
        fault = chaos.wire_fault()
        if fault is None:
            send_message(self._sock, header, body)
            return
        site, spec = fault
        frame = encode_frame(header, body)
        if site == chaos.WIRE_RESET:
            self.close()
            raise ConnectionClosedError("chaos: injected connection reset")
        if site == chaos.WIRE_TRUNCATE:
            try:
                self._sock.sendall(frame[:max(1, len(frame) // 2)])
            finally:
                self.close()
            raise ConnectionClosedError("chaos: injected truncated frame")
        if site == chaos.WIRE_OVERSIZE:
            try:
                self._sock.sendall(OVERSIZE_PREFIX)
            finally:
                self.close()
            raise ConnectionClosedError("chaos: injected oversized frame")
        # WIRE_SLOW: trickle the frame out, then proceed normally
        delay = spec.value if spec.value is not None else 0.005
        step = max(1024, len(frame) // 8)
        for off in range(0, len(frame), step):
            self._sock.sendall(frame[off:off + step])
            time.sleep(delay)

    def models(self) -> list[str]:
        reply, _ = self.rpc({"op": "models"})
        return reply["models"]

    def metrics(self) -> dict:
        reply, _ = self.rpc({"op": "metrics"})
        return reply

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RemoteModelClient:
    """Figure-2 client: owns the secret key, ships only ciphertexts.

    Opens a session, rebuilds the key context locally from the session's
    parameter description + keygen seed (see the module docstring's key
    distribution caveat), and exposes ``infer(tensor) -> tensor`` doing
    pack -> encrypt -> wire -> decrypt -> unpack.
    """

    def __init__(self, host: str, port: int, model_id: str,
                 timeout_s: float = 120.0,
                 retry: RetryPolicy | None = None):
        # one policy for both layers: the ServeClient heals wire faults
        # (reconnect + resend), while infer_bytes retries *typed*
        # transient server failures (backpressure, deadline misses,
        # chaos, open breakers) that arrive as ok=false headers
        self._retry = retry or RetryPolicy()
        self.rpc_client = ServeClient(host, port, timeout_s=timeout_s,
                                      retry=self._retry)
        info, _ = self.rpc_client.rpc(
            {"op": "open_session", "model_id": model_id})
        if not info.get("ok"):
            raise _error_from(info)
        self.info = info
        self.session_id = info["session_id"]
        params = info["params"]
        self.params = CkksParameters(
            poly_degree=params["N"],
            scale_bits=params["scale_bits"],
            first_prime_bits=params["first_prime_bits"],
            num_levels=params["levels"],
            num_special_primes=params["special_primes"],
            secret_hamming_weight=info.get("secret_hamming_weight"),
        )
        # Same (params, seed) => same secret key as the server's context:
        # the secret is the first thing keygen samples, so the extra keys
        # the server generated do not perturb it.
        self.ctx = CkksContext(self.params, rotation_steps=[],
                               need_relin=False, need_conjugation=False,
                               seed=info["keygen_seed"])
        self.cipher_basis, _ = self.params.make_bases()
        self.in_positions = np.asarray(info["input_positions"])
        self.in_shape = tuple(info["input_shape"])
        self.out_positions = np.asarray(info["output_positions"])
        self.out_shape = tuple(info["output_shape"])
        self.block_slots = info["block_slots"]

    def encrypt(self, tensor: np.ndarray) -> bytes:
        vec = np.zeros(self.block_slots)
        vec[self.in_positions.ravel()] = np.asarray(tensor).ravel()
        return serialize_ciphertext(self.ctx.encrypt(vec))

    def decrypt(self, payload: bytes, slot_offset: int = 0) -> np.ndarray:
        ct = deserialize_ciphertext(payload, self.cipher_basis)
        vec = np.asarray(
            self.ctx.decrypt(ct, self.params.num_slots))
        return vec[slot_offset + self.out_positions.ravel()].reshape(
            self.out_shape)

    def infer_bytes(self, payload: bytes,
                    timeout_s: float | None = None) -> tuple[dict, bytes]:
        header = {"op": "infer", "session_id": self.session_id}
        if timeout_s is not None:
            header["timeout_s"] = timeout_s

        def attempt() -> tuple[dict, bytes]:
            reply, body = self.rpc_client.rpc(header, payload)
            if not reply.get("ok"):
                # typed reconstruction: transient errors (QueueFull,
                # RequestTimeout, CircuitOpen, Chaos...) get retried by
                # the policy; permanent ones propagate on first sight
                raise _error_from(reply)
            return reply, body

        return self._retry.call(attempt)

    def infer(self, tensor: np.ndarray,
              timeout_s: float | None = None) -> np.ndarray:
        reply, body = self.infer_bytes(self.encrypt(tensor), timeout_s)
        return self.decrypt(body, reply.get("slot_offset", 0))

    def close(self) -> None:
        try:
            self.rpc_client.rpc(
                {"op": "close_session", "session_id": self.session_id})
        except (ServeError, OSError):
            pass
        self.rpc_client.close()

    def __enter__(self) -> "RemoteModelClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _error_from(reply: dict) -> ReproError:
    """Rebuild a typed error from a structured failure header."""
    import repro.errors as errors_mod

    name = reply.get("error") or "ServeError"
    cls = getattr(errors_mod, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = ServeError
    return cls(reply.get("message") or "server reported a failure")
