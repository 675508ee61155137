"""Cross-request CKKS slot batching (the serving layer's tentpole).

A model compiled with ``batch_size = B`` evaluates the *same* homomorphic
ops over ``B`` disjoint slot blocks of one ciphertext (Table 2
"Batching"): per-ciphertext cost is unchanged, so packing B requests into
one ciphertext multiplies requests/sec by nearly B.

Clients always encrypt into block 0 (their generated encryptor packs the
compiled :class:`~repro.passes.layout.PackedLayout`, which addresses one
block).  The batcher lifts request *i* into block *i* homomorphically::

    combined = ct_0 + rotate(ct_1, -block) + ... + rotate(ct_{B-1}, -(B-1)*block)

which is sound because an encrypted block-0 packing is (up to CKKS noise)
zero in every other slot, so the rotated summands occupy disjoint slot
regions.  The rotation keys for the ``-i*block`` steps are generated once
at model registration.  One program execution then serves the whole
batch; each response reuses the single result ciphertext with a
``slot_offset = i * out_block`` telling the client which output block to
decode.

**Slot-batching invariant**: requests may share a ciphertext only when
they target the same model entry, carry the same parameter fingerprint
(same key context), and sit at the same (level, scale) — i.e. the
combined ciphertext is indistinguishable, to the compiled program, from
one the program's own batch packer would have produced.  Anything else
falls back to per-request execution.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.ckks.serialize import serialize_ciphertext
from repro.errors import ChaosError
from repro.runtime.ckks_interp import run_ckks_function
from repro.serve.registry import ModelEntry


@dataclass
class PendingRequest:
    """One queued inference request."""

    request_id: int
    session_id: str
    fingerprint: str
    entry: ModelEntry
    ciphertext: object
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    deadline: float | None = None
    # Chaos-marked at submit time; detonates inside execute_batch so the
    # failure exercises the worker's repack containment.
    poisoned: bool = False

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) > self.deadline


@dataclass
class BatchResult:
    """What one request gets back from an executed batch."""

    payload: bytes
    slot_offset: int
    batch_size: int


def can_join(batch: list[PendingRequest], req: PendingRequest) -> bool:
    """May ``req`` share a ciphertext with the requests in ``batch``?

    Enforces the slot-batching invariant documented in the module
    docstring; also refuses to grow past the compiled batch factor.
    """
    if not batch:
        return True
    head = batch[0]
    entry = head.entry
    if req.entry is not entry or not entry.supports_batching:
        return False
    if len(batch) >= entry.max_batch:
        return False
    if req.fingerprint != head.fingerprint:
        return False
    a, b = head.ciphertext, req.ciphertext
    return a.scale == b.scale and a.level == b.level


def combine_requests(entry: ModelEntry, requests: list[PendingRequest]):
    """Pack each request's block-0 ciphertext into its own batch block."""
    backend = entry.backend
    block = entry.in_block
    combined = requests[0].ciphertext
    for index, req in enumerate(requests[1:], start=1):
        shifted = backend.rotate(req.ciphertext, -(index * block))
        combined = backend.add(combined, shifted)
    return combined


def execute_batch(entry: ModelEntry,
                  requests: list[PendingRequest]) -> list[BatchResult]:
    """Run one program execution serving ``requests`` (1..max_batch).

    Returns one :class:`BatchResult` per request, in order.  The entry
    lock serialises use of the shared evaluator/key material; worker
    threads still execute different models concurrently.

    A poisoned-request failure carries ``culprit_request_id`` so the
    worker's partial-batch re-packing can fail the culprit alone and
    re-execute the healthy remainder as one batch; a failure without an
    attributable culprit fails the whole batch with its typed error.
    """
    for req in requests:
        if req.poisoned:
            exc = ChaosError(
                f"chaos: request {req.request_id} poisoned at execution"
            )
            exc.culprit_request_id = req.request_id
            raise exc
    with entry.lock:
        packed = combine_requests(entry, requests)
        fn = entry.program.module.main()
        outs = run_ckks_function(entry.program.module, fn, entry.backend,
                                 [packed], check_plan=False)
        payload = serialize_ciphertext(outs[0])
    return [
        BatchResult(
            payload=payload,
            slot_offset=index * entry.out_block,
            batch_size=len(requests),
        )
        for index in range(len(requests))
    ]
