"""The wire front-end every server shares: frames, connections, errors.

Framing: every message is ``<u32 header_len><u32 body_len><header JSON>
<body bytes>`` (little-endian lengths).  The body carries serialized
ciphertexts (:mod:`repro.ckks.serialize`); the header carries the op and
structured status, so a failed request is an ``ok=false`` header — never
a dropped connection or a crashed server.

This module is the only place in :mod:`repro.serve` that packs or
parses that prefix, opens a listening socket, or turns an exception
into a failure header.  :class:`FrameServer` owns accept, one thread per
connection, the read/dispatch/reply loop and the lifecycle; the three
servers (``InferenceServer``, its ``ShardServer`` subclass and
``RouterServer``) subclass it and supply ``_dispatch`` only.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

from repro.errors import (
    DeserializationError,
    MessageTooLargeError,
    ReproError,
)
from repro.serve.metrics import Metrics
from repro.serve.worker import ServeResponse

#: default cap on either length prefix of an inbound frame.  64 MiB is
#: far above any toy-parameter ciphertext yet small enough that a
#: hostile/corrupt prefix cannot drive the receiver out of memory.
DEFAULT_MAX_MESSAGE_BYTES = 64 << 20

_PREFIX = struct.Struct("<II")

#: the hostile length prefix the ``wire.oversize`` chaos site sends
OVERSIZE_PREFIX = _PREFIX.pack(0xFFFFFFFF, 0xFFFFFFFF)


# -- codec -----------------------------------------------------------------

def encode_frame(header: dict, body: bytes = b"") -> bytes:
    blob = json.dumps(header).encode()
    return _PREFIX.pack(len(blob), len(body)) + blob + body


def send_message(sock: socket.socket, header: dict, body: bytes = b"") -> None:
    sock.sendall(encode_frame(header, body))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_message(
    sock: socket.socket,
    max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
) -> tuple[dict, bytes] | None:
    """Receive one framed message; ``None`` on peer close.

    A peer that disappears mid-frame (truncated send, reset) is a clean
    close — the frame is simply gone, never a struct/JSON parse error.
    A length prefix above ``max_message_bytes`` raises the typed
    :class:`repro.errors.MessageTooLargeError` *before* any allocation.
    """
    try:
        header_len, body_len = _PREFIX.unpack(_recv_exact(sock, _PREFIX.size))
        if header_len > max_message_bytes or body_len > max_message_bytes:
            raise MessageTooLargeError(
                f"frame length prefix {header_len}+{body_len} bytes exceeds "
                f"max_message_bytes={max_message_bytes}"
            )
        try:
            header = json.loads(_recv_exact(sock, header_len))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DeserializationError(
                f"corrupt frame header: {exc}") from exc
        if not isinstance(header, dict):
            raise DeserializationError(
                "corrupt frame header: not a JSON object")
        body = _recv_exact(sock, body_len) if body_len else b""
    except ConnectionError:
        return None
    return header, body


def failure_header(exc: BaseException) -> dict:
    """The ``ok=false`` reply header for a request that raised ``exc``.

    A :class:`ReproError` travels under its own class name, so the
    client re-raises it typed; anything else is a server bug and is
    reported as ``InternalError`` without leaking the class.
    """
    header = ServeResponse.failure(exc).header()
    if not isinstance(exc, ReproError):
        header["error"] = "InternalError"
    return header


# -- server ----------------------------------------------------------------

class FrameServer:
    """Listening socket + one thread per connection + the request shell.

    Subclasses implement :meth:`_dispatch`; whatever it raises becomes a
    failure header, so a connection only ever closes on a wire fault
    (oversize prefix, corrupt header, peer gone), never on a bad request.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Metrics | None = None,
        max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
        recv_timeout_s: float | None = None,
    ):
        self.metrics = metrics or Metrics()
        self.max_message_bytes = max_message_bytes
        # bounds how long one recv may sit idle: a slow-loris client
        # trickling bytes cannot pin a connection thread forever
        self.recv_timeout_s = recv_timeout_s
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Accept connections on a background thread (tests, benchmarks)."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking accept loop (the ``repro serve`` / ``router`` CLI)."""
        self._accept_loop()

    def stop(self) -> None:
        self._stopping.set()
        # closing a listening socket does not wake a thread blocked in
        # accept() on Linux; shutting it down first does
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # platforms that refuse shutdown on a listening socket
        try:
            self._sock.close()
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                break  # socket closed by stop()
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True).start()

    # -- request handling --------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            if self.recv_timeout_s is not None:
                conn.settimeout(self.recv_timeout_s)
            while not self._stopping.is_set():
                try:
                    message = recv_message(conn, self.max_message_bytes)
                except MessageTooLargeError as exc:
                    # the refused body is still on the wire, so the
                    # stream cannot be resynced: report, then close
                    self.metrics.inc("serve_frames_oversize_total")
                    try:
                        send_message(conn, failure_header(exc))
                    except OSError:
                        pass
                    break
                except (DeserializationError, OSError):
                    break
                if message is None:
                    break
                header, body = message
                try:
                    reply, payload = self._dispatch(header, body)
                except Exception as exc:  # noqa: BLE001 — keep serving
                    reply, payload = failure_header(exc), b""
                # echo the client's request id so its reply correlation
                # can discard duplicated/stale frames (at-most-once)
                rid = header.get("rid")
                if rid is not None:
                    reply["rid"] = rid
                try:
                    if not self._send_reply(conn, reply, payload):
                        break
                except OSError:
                    break

    def _dispatch(self, header: dict, body: bytes) -> tuple[dict, bytes]:
        """Answer one request: ``(reply header, reply body)``."""
        raise NotImplementedError

    def _send_reply(self, conn: socket.socket, reply: dict,
                    payload: bytes) -> bool:
        """Send one reply frame; False when the connection must close."""
        send_message(conn, reply, payload)
        return True
