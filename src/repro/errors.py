"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``transient`` classifies an error for retry purposes: transient
    errors (connection resets, backpressure, deadline misses, injected
    chaos) may succeed if the caller simply tries again, while permanent
    errors (unknown model, fingerprint mismatch) will fail identically
    on every attempt and must never be retried.
    """

    transient: bool = False


class ParameterError(ReproError):
    """Invalid or inconsistent FHE scheme parameters."""


class SecurityError(ParameterError):
    """Requested parameters cannot meet the requested security level."""


class KernelUnavailableError(ParameterError):
    """A requested kernel backend cannot run in this process.

    Raised when an explicitly named backend (``--kernel numba``,
    ``REPRO_KERNEL=numba``) is missing its dependency;
    ``--kernel auto`` never raises, it falls back to numpy instead.
    """


class EncodingError(ReproError):
    """A message cannot be encoded/decoded with the given encoder."""


class NoiseBudgetExhausted(ReproError):
    """A ciphertext ran out of levels or its noise passed the threshold."""


class ScaleMismatchError(ReproError):
    """Homomorphic operands have incompatible scales."""


class LevelMismatchError(ReproError):
    """Homomorphic operands live at different levels."""


class CiphertextDegreeError(ReproError):
    """Homomorphic operands have incompatible ciphertext degrees.

    Adding a size-2 to a size-3 ciphertext would silently drop the
    quadratic part on one side; the optimizer's lazy-relinearization
    pass guarantees both operands carry the same number of parts, so a
    mismatch at runtime is always a compiler bug, never user error.
    """


class DeserializationError(ParameterError):
    """A serialized payload is malformed, truncated, or corrupted.

    Subclasses :class:`ParameterError` because a damaged wire payload is
    indistinguishable, to the receiver, from one produced under foreign
    parameters; callers that guarded the Figure-2 wire format with
    ``except ParameterError`` keep working.
    """


class ArtifactError(ReproError):
    """Generated client-tool artifacts cannot be built as requested."""


class KeyError_(ReproError):
    """A required evaluation key (relin/rotation) is missing."""


class IRError(ReproError):
    """Malformed IR detected (verification failure, bad operands...)."""


class IRTypeError(IRError):
    """An IR value has the wrong type for the op consuming it."""


class LoweringError(ReproError):
    """A lowering pass could not translate a construct."""


class PassError(ReproError):
    """A compiler pass failed an internal invariant."""


class OnnxParseError(ReproError):
    """The ONNX protobuf payload is malformed or unsupported."""


class UnsupportedOperatorError(ReproError):
    """The model uses an operator outside the supported subset."""


class CompileError(ReproError):
    """Top-level compilation failure."""


class RuntimeBackendError(ReproError):
    """An FHE runtime backend failed to execute a program."""


class ChaosError(ReproError):
    """A fault injected by :mod:`repro.chaos` (always transient)."""

    transient = True


class ServeError(ReproError):
    """Base class for inference-serving failures (:mod:`repro.serve`)."""


class UnknownModelError(ServeError):
    """A request referenced a model id the registry does not hold."""


class UnknownSessionError(ServeError):
    """A request referenced a session id the server does not know."""


class SessionMismatchError(ServeError):
    """A ciphertext's parameter fingerprint does not match its session."""


class QueueFullError(ServeError):
    """The server's bounded request queue rejected a request (backpressure).

    Transient: backpressure clears as the worker drains the queue.
    """

    transient = True


class RequestTimeoutError(ServeError):
    """A request missed its deadline before or during execution.

    Transient: the deadline miss reflects momentary load, not a property
    of the request.
    """

    transient = True


class ServerShutdownError(ServeError):
    """The server is shutting down and will not take new work."""


class MessageTooLargeError(ServeError):
    """A wire frame's length prefix exceeds the configured bound.

    Raised *before* any allocation is attempted, so a hostile or corrupt
    length prefix cannot drive the receiver out of memory.
    """


class ConnectionClosedError(ServeError):
    """The peer closed the connection mid-conversation.

    Transient: reconnecting and resending is the standard cure.
    """

    transient = True


class ShardUnavailableError(ServeError):
    """A router could not reach (or revive) the shard owning a model.

    Transient: the router respawns dead shard processes and re-registers
    their models from serialized evaluation keys; a retried request
    lands on the recovered shard.
    """

    transient = True


class CircuitOpenError(ServeError):
    """The per-model circuit breaker is open; request rejected cheaply.

    Transient: the breaker half-opens after its reset timeout and closes
    again once a probe succeeds.
    """

    transient = True

