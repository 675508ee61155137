"""Model registry: compile once, serve many times.

The single biggest cost the serving layer amortises is setup: compiling
the ONNX model and generating evaluation keys takes orders of magnitude
longer than one inference.  :class:`ModelRegistry` performs that work
exactly once per model id and caches everything a request needs — the
compiled :class:`~repro.compiler.driver.CompiledProgram`, a live
:class:`~repro.backend.exact.ExactBackend` (keys included), the client
encryptor/decryptor tools, the wire-format basis, and its parameter
fingerprint.

Registration also prepares cross-request slot batching (see
:mod:`repro.serve.batcher`): when the model is compiled with SIMD batch
blocks, the registry generates the extra rotation keys that move a
request's block-0 packing into batch block *i*.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ckks import CkksParameters
from repro.ckks.serialize import (
    basis_fingerprint,
    deserialize_ciphertext,
    deserialize_eval_keys,
    serialize_ciphertext,
)
from repro.polymath.poly import rotation_galois_element
from repro.compiler import ACECompiler, CompileOptions
from repro.compiler.artifacts import client_tools
from repro.errors import (
    CompileError,
    LoweringError,
    ServeError,
    UnknownModelError,
)
from repro.onnx import load_model, load_model_bytes
from repro.onnx.protos import ModelProto


#: toy-but-real default parameter set for small served models; callers
#: serving deeper models pass their own :class:`CkksParameters`
def default_serve_params() -> CkksParameters:
    return CkksParameters(poly_degree=256, scale_bits=30,
                          first_prime_bits=40, num_levels=4)


@dataclass
class ModelEntry:
    """Everything cached for one served model."""

    model_id: str
    program: object
    params: CkksParameters
    backend: object
    cipher_basis: object
    fingerprint: str
    encryptor: object
    decryptor: object
    #: keygen seed: (params, seed) determines the key material, standing
    #: in for an out-of-band key exchange with the secret-key holder.
    #: ``None`` when the entry was registered from *serialized* evaluation
    #: keys (scale-out shards): this process never saw the seed or the
    #: secret and can evaluate but not decrypt.
    keygen_seed: int | None = 0
    #: per-model circuit-breaker overrides (None = the worker's default):
    #: a flaky experimental model can trip fast while a battle-tested one
    #: tolerates more consecutive failures before opening
    breaker_failures: int | None = None
    breaker_reset_s: float | None = None
    #: serialisation lock: the backend's evaluator is shared by workers
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def num_slots(self) -> int:
        return self.params.num_slots

    @property
    def in_block(self) -> int:
        """Slot width of one request's input block."""
        return self.program.input_layouts[0].slots

    @property
    def out_block(self) -> int:
        """Slot width of one request's output block."""
        return self.program.output_layouts[0].slots

    @property
    def max_batch(self) -> int:
        return self.program.batch_size

    @property
    def key_bytes(self) -> int:
        """Resident evaluation-key memory (the Figure-7 meter the
        scale-out router's LRU eviction reads)."""
        return self.backend.ctx.keys.byte_size()

    @property
    def supports_batching(self) -> bool:
        """Can several requests tile into one ciphertext?"""
        return (
            self.max_batch > 1
            and len(self.program.input_layouts) == 1
            and len(self.program.output_layouts) == 1
            and self.in_block * self.max_batch <= self.num_slots
            and self.out_block * self.max_batch <= self.num_slots
        )

    # -- client-side conveniences (tests, benchmarks, in-process demos) ----

    def encrypt_request(self, tensor: np.ndarray) -> bytes:
        """Pack + encrypt one input tensor into wire bytes (block 0)."""
        return serialize_ciphertext(self.encryptor(self.backend, tensor))

    def decrypt_result(self, payload: bytes, slot_offset: int = 0):
        """Decrypt a response payload; ``slot_offset`` selects the batch
        block the server placed this request's result in."""
        ct = deserialize_ciphertext(payload, self.cipher_basis)
        vec = np.asarray(
            self.backend.decrypt(ct, num_values=self.num_slots))
        layout = self.decryptor.layout
        return vec[slot_offset + layout.positions.ravel()].reshape(
            layout.shape)

    def describe(self) -> dict:
        """JSON-safe summary handed to clients when a session opens."""
        in_layout = self.program.input_layouts[0]
        out_layout = self.program.output_layouts[0]
        return {
            "model_id": self.model_id,
            "fingerprint": self.fingerprint,
            "params": self.params.describe(),
            "max_batch": self.max_batch,
            "supports_batching": self.supports_batching,
            "input_shape": list(in_layout.shape),
            "input_positions": in_layout.positions.ravel().tolist(),
            "output_shape": list(out_layout.shape),
            "output_positions": out_layout.positions.ravel().tolist(),
            "slots": self.num_slots,
            "block_slots": in_layout.slots,
        }


def _batching_rotation_steps(entry: ModelEntry) -> list[int]:
    """Steps that move a block-0 request into batch block ``i``.

    ``rotate(ct, -i*block)`` shifts slots right by ``i*block``; the
    combined ciphertext then holds request ``i`` in block ``i``.
    """
    return [-(i * entry.in_block) for i in range(1, entry.max_batch)]


class ModelRegistry:
    """Thread-safe map of model id -> compiled, key-loaded entry.

    ``metrics`` (optional, settable after construction) receives a
    per-model ``serve_key_bytes_<model_id>`` gauge on every register /
    unregister — the Figure-7 key-memory meter the scale-out router's
    placement and LRU eviction read.
    """

    def __init__(self, metrics=None):
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}
        self.metrics = metrics

    def _export_key_gauges(self, model_id: str, key_bytes: int) -> None:
        if self.metrics is None:
            return
        self.metrics.set_gauge(f"serve_key_bytes_{model_id}", key_bytes)
        with self._lock:
            total = sum(e.key_bytes for e in self._entries.values())
        self.metrics.set_gauge("serve_key_bytes_total", total)

    def export_key_gauges(self, metrics) -> None:
        """Adopt ``metrics`` and (re)export every entry's key gauge."""
        self.metrics = metrics
        for model_id in self.ids():
            with self._lock:
                entry = self._entries.get(model_id)
            if entry is not None:
                self._export_key_gauges(model_id, entry.key_bytes)

    def register(
        self,
        model_id: str,
        model,
        params: CkksParameters | None = None,
        options: CompileOptions | None = None,
        max_batch: int = 4,
        seed: int = 0,
        breaker_failures: int | None = None,
        breaker_reset_s: float | None = None,
        eval_keys: bytes | None = None,
        layout_tune: str | None = None,
    ) -> ModelEntry:
        """Compile ``model`` and cache every serving artifact for it.

        Args:
            model: a :class:`ModelProto`, raw ``.onnx`` bytes, or a path.
            params: executable CKKS parameters (default: a small real set).
            options: compile options; ``exact_params``/``batch_size`` are
                overridden to match ``params``/``max_batch``.
            max_batch: SIMD batch blocks to compile for (1 disables slot
                batching).
            seed: keygen seed; in this reproduction the client derives the
                same secret from (params, seed), standing in for an
                out-of-band key exchange.  Ignored for key material when
                ``eval_keys`` is given.
            breaker_failures / breaker_reset_s: per-model circuit-breaker
                overrides applied by the worker (None = worker defaults).
            eval_keys: serialized public/evaluation keys
                (:func:`repro.ckks.serialize.serialize_eval_keys`).  The
                real key exchange: the entry evaluates under the shipped
                keys, never holds a secret, and cannot mint keys — the
                blob must already contain the program's rotation steps
                *and* the slot-batching steps.
            layout_tune: layout/BSGS autotuning mode for the compile
                (``heuristic``/``search``); None keeps the
                options' own setting.  ``search`` spends extra compile
                time once at registration and serves the tuned program
                (rotation keys are re-derived after tuning, so the
                served key set always matches).
        """
        if isinstance(model, (str, Path)):
            model = load_model(model)
        elif isinstance(model, (bytes, bytearray)):
            model = load_model_bytes(bytes(model))
        elif not isinstance(model, ModelProto):
            raise ServeError(
                f"cannot register a {type(model).__name__} as a model"
            )
        params = params or default_serve_params()
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        options = options or CompileOptions(
            bootstrap_enabled=False, poly_mode="off")
        options.exact_params = params
        if layout_tune is not None:
            options.layout_tune = layout_tune
        program = self._compile_with_batch_fallback(model, options,
                                                    params, max_batch)
        cipher_basis, key_basis = params.make_bases()
        if eval_keys is not None:
            chain = deserialize_eval_keys(eval_keys, cipher_basis, key_basis)
            backend = program.make_exact_backend(params, keychain=chain)
            keygen_seed = None
        else:
            backend = program.make_exact_backend(params, seed=seed)
            keygen_seed = seed
        encryptor, decryptor = client_tools(program)
        entry = ModelEntry(
            model_id=model_id,
            program=program,
            params=params,
            backend=backend,
            cipher_basis=cipher_basis,
            fingerprint=basis_fingerprint(cipher_basis),
            encryptor=encryptor,
            decryptor=decryptor,
            keygen_seed=keygen_seed,
            breaker_failures=breaker_failures,
            breaker_reset_s=breaker_reset_s,
        )
        if eval_keys is not None:
            self._check_shipped_keys(entry)
        elif entry.supports_batching:
            backend.ctx.add_rotation_keys(_batching_rotation_steps(entry))
        with self._lock:
            self._entries[model_id] = entry
        self._export_key_gauges(model_id, entry.key_bytes)
        return entry

    @staticmethod
    def _check_shipped_keys(entry: ModelEntry) -> None:
        """Shipped key blobs must cover every rotation the entry runs:
        the program's steps and, when it batches, the slot-batching
        steps."""
        rotations = entry.backend.ctx.keys.rotations
        degree = entry.params.poly_degree
        steps = list(entry.program.rotation_steps)
        if entry.supports_batching:
            steps += _batching_rotation_steps(entry)
        missing = [
            step for step in dict.fromkeys(steps)
            if step % (degree // 2)
            and rotation_galois_element(step, degree) not in rotations
        ]
        if missing:
            raise ServeError(
                f"evaluation-key blob for model {entry.model_id!r} lacks "
                f"rotation keys for steps {missing}; the key owner must "
                "generate them before serializing"
            )

    @staticmethod
    def _compile_with_batch_fallback(model, options, params, max_batch):
        """Compile at ``max_batch`` blocks, halving until the model tiles.

        A model whose activations exceed ``slots/batch`` cannot ride in a
        batch block; rather than reject registration the registry serves
        it at the largest batch factor that fits (possibly 1 = no slot
        batching, per-request execution only).
        """
        batch = max_batch
        while True:
            options.batch_size = batch
            try:
                program = ACECompiler(model, options).compile()
                if (batch == 1 or
                        program.input_layouts[0].slots * batch
                        == params.num_slots):
                    return program
            except (CompileError, LoweringError):
                if batch == 1:
                    raise
            if batch == 1:
                raise CompileError(
                    "model does not tile into the exact parameter slots"
                )
            batch //= 2

    def get(self, model_id: str) -> ModelEntry:
        with self._lock:
            entry = self._entries.get(model_id)
            known = sorted(self._entries)
        if entry is None:
            raise UnknownModelError(
                f"model {model_id!r} is not registered "
                f"(known: {known or 'none'})"
            )
        return entry

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def unregister(self, model_id: str) -> None:
        with self._lock:
            entry = self._entries.pop(model_id, None)
        if entry is not None:
            self._export_key_gauges(model_id, 0)
