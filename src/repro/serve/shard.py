"""Shard: a single-process model server managed by the scale-out router.

A shard is an :class:`~repro.serve.server.InferenceServer` — same wire
protocol, same worker/batcher/breaker stack — extended with the control
ops the router drives placement with:

* ``register_model`` — compile a model from shipped ONNX bytes and load
  *serialized* public/evaluation keys
  (:func:`repro.ckks.serialize.serialize_eval_keys`).  This is the real
  key exchange of the Figure-2 threat model: the shard process never
  sees a keygen seed or a secret key, so it can evaluate registered
  programs but can never decrypt a request — even with full memory
  access to the shard, the operator learns nothing about plaintexts.
* ``unregister_model`` — drop a model and its resident key material
  (the router's LRU eviction calls this to reclaim key memory).

Run one with ``repro serve --shard`` (no model argument: models arrive
over the wire) or in-process via :class:`ShardServer` directly.
"""

from __future__ import annotations

from repro.ckks import CkksParameters
from repro.errors import ServeError
from repro.polymath import kernels
from repro.serve.server import InferenceServer


def params_from_describe(described: dict,
                         secret_hamming_weight=None) -> CkksParameters:
    """Rebuild :class:`CkksParameters` from its ``describe()`` dict."""
    try:
        return CkksParameters(
            poly_degree=int(described["N"]),
            scale_bits=int(described["scale_bits"]),
            first_prime_bits=int(described["first_prime_bits"]),
            num_levels=int(described["levels"]),
            num_special_primes=int(described["special_primes"]),
            secret_hamming_weight=secret_hamming_weight,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed parameter description: {exc}") from exc


class ShardServer(InferenceServer):
    """An inference server whose models are pushed to it over the wire."""

    def _dispatch(self, header: dict, body: bytes) -> tuple[dict, bytes]:
        op = header.get("op")
        if op == "register_model":
            return self._handle_register(header, body)
        if op == "unregister_model":
            model_id = str(header.get("model_id"))
            self.registry.unregister(model_id)
            return {"ok": True, "model_id": model_id}, b""
        return super()._dispatch(header, body)

    def _handle_register(self, header: dict,
                         body: bytes) -> tuple[dict, bytes]:
        """Compile shipped model bytes under shipped evaluation keys.

        The body is ``model_bytes + key_blob``; the header's
        ``model_bytes`` length splits them.
        """
        model_id = str(header.get("model_id"))
        try:
            model_len = int(header["model_bytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(
                f"register_model header lacks a model_bytes length: {exc}"
            ) from exc
        if not 0 < model_len <= len(body):
            raise ServeError(
                f"model_bytes={model_len} does not split a "
                f"{len(body)}-byte register_model body"
            )
        model_bytes, key_blob = body[:model_len], body[model_len:]
        if not key_blob:
            raise ServeError(
                "register_model carried no evaluation-key blob; shards "
                "never generate keys themselves"
            )
        params = params_from_describe(
            header.get("params") or {},
            header.get("secret_hamming_weight"),
        )
        entry = self.registry.register(
            model_id,
            model_bytes,
            params=params,
            max_batch=int(header.get("max_batch", 4)),
            eval_keys=bytes(key_blob),
        )
        return {
            "ok": True,
            "model_id": model_id,
            "fingerprint": entry.fingerprint,
            "max_batch": entry.max_batch,
            "key_bytes": entry.key_bytes,
            "kernel_backend": kernels.active_name(),
        }, b""
