"""repro.serve — an FHE inference server with cross-request slot batching.

The paper's Figure-2 threat model is a client/server protocol; this
package turns the repository's one-shot demonstration of it into a
serving subsystem:

* :mod:`repro.serve.registry` — compile models and generate keys once,
  serve them many times;
* :mod:`repro.serve.session` — bind clients to a parameter fingerprint
  and reject mismatched ciphertexts with typed errors;
* :mod:`repro.serve.batcher` — coalesce compatible requests into the
  unused CKKS slot blocks of one ciphertext (one program execution
  serves the whole batch);
* :mod:`repro.serve.worker` — bounded-queue thread pool with deadlines,
  backpressure (the only admission rule), deadline-aware batching,
  batch-failure containment (named culprits fail alone and the rest
  re-run once as one batch, otherwise the batch fails with its typed
  error), per-model circuit breakers and graceful shutdown;
* :mod:`repro.serve.breaker` — the three-state circuit breaker (failure
  guard);
* :mod:`repro.serve.retry` — client-side capped exponential backoff;
* :mod:`repro.serve.metrics` — request/batch/latency/byte accounting;
* :mod:`repro.serve.transport` — the one wire front-end: the
  length-prefixed frame codec, the listening socket and per-connection
  request loop, and the exception-to-failure-header shell that all
  three servers share;
* :mod:`repro.serve.server` — what an inference server answers on that
  front-end, plus the ``repro client`` side of the protocol;
* :mod:`repro.serve.router` — scale-out: placement + forwarding of
  requests to N shard *processes* with key-memory-aware placement, LRU
  key eviction and cross-process failure containment (``repro router``);
* :mod:`repro.serve.shard` — the shard process: a full server whose
  models and (secret-free) evaluation keys arrive over the wire;
* :mod:`repro.serve.placement` — the Figure-7 key-byte cost model
  behind shard assignment and eviction.

Failure semantics (containment validated by :mod:`repro.chaos` fault
injection — see "Failure model & chaos testing" in docs/INTERNALS.md):
a poisoned request fails alone while its batchmates are re-executed
once as one batch; transient wire/server failures are healed by client-side
retry; a model whose executions keep failing trips a circuit breaker
instead of burning worker threads.

Quick in-process use::

    from repro.serve import ModelRegistry, InferenceServer, RemoteModelClient

    registry = ModelRegistry()
    registry.register("credit", "model.onnx", max_batch=4)
    with InferenceServer(registry) as server:
        with RemoteModelClient(server.host, server.port, "credit") as client:
            scores = client.infer(features)
"""

from repro.serve.batcher import (
    BatchResult,
    PendingRequest,
    can_join,
    combine_requests,
    execute_batch,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.metrics import (
    Histogram,
    Metrics,
    SlidingWindow,
    aggregate_counters,
)
from repro.serve.placement import KeyMemoryPlacement, Placement
from repro.serve.retry import RetryPolicy, is_transient
from repro.serve.router import ModelSpec, RouterServer, ShardHandle
from repro.serve.shard import ShardServer, params_from_describe
from repro.serve.registry import (
    ModelEntry,
    ModelRegistry,
    default_serve_params,
)
from repro.serve.server import (
    InferenceServer,
    RemoteModelClient,
    ServeClient,
)
from repro.serve.session import Session, SessionManager
from repro.serve.worker import InferenceWorker, ServeResponse

__all__ = [
    "BatchResult",
    "CircuitBreaker",
    "Histogram",
    "InferenceServer",
    "InferenceWorker",
    "KeyMemoryPlacement",
    "Metrics",
    "ModelEntry",
    "ModelRegistry",
    "ModelSpec",
    "PendingRequest",
    "Placement",
    "RemoteModelClient",
    "RetryPolicy",
    "RouterServer",
    "ServeClient",
    "ServeResponse",
    "Session",
    "SessionManager",
    "ShardHandle",
    "ShardServer",
    "SlidingWindow",
    "aggregate_counters",
    "can_join",
    "combine_requests",
    "default_serve_params",
    "execute_batch",
    "is_transient",
    "params_from_describe",
]
