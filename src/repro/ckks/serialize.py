"""Ciphertext and key serialisation (the Figure-2 wire format).

The threat-model protocol ships ciphertexts between client and server;
this module provides a compact binary encoding for ciphertexts and
plaintexts: a small JSON header (scale, level, domain, moduli fingerprint)
followed by the raw residue matrices.  The receiving side validates the
fingerprint against its own basis, so mismatched parameter sets fail
loudly instead of decrypting garbage.

Because the bytes arrive from an untrusted peer, every header field is
validated before it is used: a truncated, bit-flipped, or hostile payload
raises :class:`repro.errors.DeserializationError` rather than leaking a
raw ``struct`` / ``json`` / ``numpy`` exception.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.keys import KeyChain, KeySwitchKey, PublicKey
from repro.errors import DeserializationError, ParameterError
from repro.polymath.rns import RnsBasis, RnsPoly

_MAGIC = b"ACEct010"
_KEY_MAGIC = b"ACEek010"

#: upper bound on the JSON header blob; real headers are < 300 bytes
_MAX_HEADER_BYTES = 1 << 16


def basis_fingerprint(basis: RnsBasis) -> str:
    """Stable digest of (degree, moduli-prefix) for compatibility checks."""
    payload = json.dumps([basis.degree, basis.moduli]).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _pack_header(meta: dict) -> bytes:
    blob = json.dumps(meta).encode()
    return _MAGIC + struct.pack("<I", len(blob)) + blob


def _unpack_header(data: bytes) -> tuple[dict, int]:
    if data[: len(_MAGIC)] != _MAGIC:
        raise DeserializationError("not an ACE ciphertext payload")
    if len(data) < len(_MAGIC) + 4:
        raise DeserializationError("payload truncated inside the header")
    (length,) = struct.unpack_from("<I", data, len(_MAGIC))
    if length > _MAX_HEADER_BYTES:
        raise DeserializationError(
            f"header length {length} exceeds the {_MAX_HEADER_BYTES}-byte cap"
        )
    start = len(_MAGIC) + 4
    if len(data) < start + length:
        raise DeserializationError("payload truncated inside the header")
    try:
        meta = json.loads(data[start : start + length])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DeserializationError(f"corrupt header JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise DeserializationError("header must be a JSON object")
    return meta, start + length


def _require(meta: dict, field: str, kind) -> object:
    """Fetch + type-check one header field."""
    value = meta.get(field)
    if isinstance(value, bool) and kind is not bool:
        raise DeserializationError(f"header field {field!r} has a bad type")
    if not isinstance(value, kind):
        raise DeserializationError(
            f"header field {field!r} missing or has a bad type"
        )
    return value


def _validated_meta(meta: dict, expected_kind: str) -> dict:
    """Validate the untrusted header fields shared by cipher/plain."""
    if meta.get("kind") != expected_kind:
        want = "a ciphertext" if expected_kind == "cipher" else "a plaintext"
        raise ParameterError(f"expected {want}, got {meta.get('kind')}")
    limbs = _require(meta, "limbs", int)
    degree = _require(meta, "degree", int)
    parts = _require(meta, "parts", int)
    scale = _require(meta, "scale", (int, float))
    _require(meta, "is_ntt", bool)
    _require(meta, "fingerprint", str)
    if limbs < 1 or degree < 1 or scale <= 0:
        raise DeserializationError(
            f"implausible header: limbs={limbs} degree={degree} scale={scale}"
        )
    if expected_kind == "cipher" and parts not in (2, 3):
        raise DeserializationError(
            f"ciphertext must have 2 or 3 parts, header says {parts}"
        )
    return meta


def _check_sub_basis(meta: dict, basis: RnsBasis, what: str) -> RnsBasis:
    limbs, degree = meta["limbs"], meta["degree"]
    if degree != basis.degree:
        raise ParameterError(
            f"{what} ring degree {degree} does not match the receiver's "
            f"{basis.degree}"
        )
    if limbs > len(basis):
        raise DeserializationError(
            f"{what} claims {limbs} limbs but the receiver's chain has "
            f"only {len(basis)}"
        )
    sub_basis = basis.prefix(limbs)
    if basis_fingerprint(sub_basis) != meta["fingerprint"]:
        raise ParameterError(
            f"{what} was produced under a different parameter set"
        )
    return sub_basis


def _read_body(data: bytes, offset: int, count: int) -> np.ndarray:
    if len(data) < offset + count * 8:
        raise DeserializationError(
            f"payload truncated: body needs {count * 8} bytes at offset "
            f"{offset}, only {max(len(data) - offset, 0)} present"
        )
    return np.frombuffer(data, dtype=np.uint64, count=count, offset=offset)


def peek_header(data: bytes) -> dict:
    """Parse and return the validated header of a serialized payload.

    Lets a server check ``kind``/``fingerprint`` compatibility (e.g.
    against a session's key context) without touching the body bytes.
    """
    meta, _ = _unpack_header(data)
    kind = meta.get("kind")
    if kind not in ("cipher", "plain"):
        raise DeserializationError(f"unknown payload kind {kind!r}")
    return _validated_meta(meta, kind)


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    """Encode a ciphertext as bytes."""
    basis = ct.basis
    meta = {
        "kind": "cipher",
        "parts": ct.size,
        "limbs": len(basis),
        "degree": basis.degree,
        "scale": ct.scale,
        "slots_in_use": ct.slots_in_use,
        "is_ntt": ct.parts[0].is_ntt,
        "fingerprint": basis_fingerprint(basis),
    }
    body = b"".join(
        np.ascontiguousarray(p.residues).tobytes() for p in ct.parts
    )
    return _pack_header(meta) + body


def deserialize_ciphertext(data: bytes, basis: RnsBasis) -> Ciphertext:
    """Decode a ciphertext; ``basis`` is the receiver's full chain."""
    meta, offset = _unpack_header(data)
    meta = _validated_meta(meta, "cipher")
    sub_basis = _check_sub_basis(meta, basis, "ciphertext")
    limbs, degree = meta["limbs"], meta["degree"]
    slots_in_use = meta.get("slots_in_use")
    if not isinstance(slots_in_use, int) or isinstance(slots_in_use, bool):
        slots_in_use = 0
    count = limbs * degree
    parts = []
    for index in range(meta["parts"]):
        flat = _read_body(data, offset + index * count * 8, count)
        parts.append(RnsPoly(sub_basis, flat.reshape(limbs, degree).copy(),
                             meta["is_ntt"]))
    return Ciphertext(parts, meta["scale"], max(slots_in_use, 0))


def serialize_plaintext(pt: Plaintext) -> bytes:
    meta = {
        "kind": "plain",
        "parts": 1,
        "limbs": len(pt.poly.basis),
        "degree": pt.poly.basis.degree,
        "scale": pt.scale,
        "is_ntt": pt.poly.is_ntt,
        "fingerprint": basis_fingerprint(pt.poly.basis),
    }
    return _pack_header(meta) + np.ascontiguousarray(
        pt.poly.residues).tobytes()


def deserialize_plaintext(data: bytes, basis: RnsBasis) -> Plaintext:
    meta, offset = _unpack_header(data)
    meta = _validated_meta(meta, "plain")
    sub_basis = _check_sub_basis(meta, basis, "plaintext")
    limbs, degree = meta["limbs"], meta["degree"]
    flat = _read_body(data, offset, limbs * degree)
    poly = RnsPoly(sub_basis, flat.reshape(limbs, degree).copy(),
                   meta["is_ntt"])
    return Plaintext(poly, meta["scale"])


# -- evaluation keys (the scale-out serving key exchange) -------------------
#
# ``serialize_eval_keys`` encodes everything an untrusted evaluator needs —
# public key, relinearisation key, rotation keys, conjugation key — and
# *nothing else*: the secret key is structurally absent from the format, so
# shipping a key blob to a model shard can never replicate the secret.  The
# receiving side rebuilds a :class:`~repro.ckks.keys.KeyChain` with
# ``secret=None`` (decryption raises a typed error).

def _poly_bytes(poly: RnsPoly) -> bytes:
    return np.ascontiguousarray(poly.residues).tobytes()


def serialize_eval_keys(keys: KeyChain) -> bytes:
    """Encode the public/evaluation keys (never the secret) as bytes."""
    cipher_basis = keys.public.b.basis
    galois = sorted(keys.rotations)
    ksks: list[KeySwitchKey] = [keys.rotations[g] for g in galois]
    if keys.relin is not None:
        ksks.append(keys.relin)
    if keys.conjugation is not None:
        ksks.append(keys.conjugation)
    if ksks:
        key_basis = ksks[0].basis
    else:
        key_basis = cipher_basis
    meta = {
        "kind": "evalkeys",
        "degree": cipher_basis.degree,
        "cipher_limbs": len(cipher_basis),
        "key_limbs": len(key_basis),
        "fingerprint": basis_fingerprint(cipher_basis),
        "key_fingerprint": basis_fingerprint(key_basis),
        "relin": keys.relin is not None,
        "conjugation": keys.conjugation is not None,
        "rotations": galois,
        "num_cipher_primes": (ksks[0].num_cipher_primes if ksks else 0),
        "num_special_primes": (ksks[0].num_special_primes if ksks else 0),
    }
    chunks = [_poly_bytes(keys.public.b), _poly_bytes(keys.public.a)]
    for ksk in ksks:
        for b, a in ksk.pairs:
            chunks.append(_poly_bytes(b))
            chunks.append(_poly_bytes(a))
    blob = json.dumps(meta).encode()
    return _KEY_MAGIC + struct.pack("<I", len(blob)) + blob + b"".join(chunks)


def _unpack_key_header(data: bytes) -> tuple[dict, int]:
    if data[: len(_KEY_MAGIC)] != _KEY_MAGIC:
        raise DeserializationError("not an ACE evaluation-key payload")
    if len(data) < len(_KEY_MAGIC) + 4:
        raise DeserializationError("key payload truncated inside the header")
    (length,) = struct.unpack_from("<I", data, len(_KEY_MAGIC))
    if length > _MAX_HEADER_BYTES:
        raise DeserializationError(
            f"key header length {length} exceeds the "
            f"{_MAX_HEADER_BYTES}-byte cap"
        )
    start = len(_KEY_MAGIC) + 4
    if len(data) < start + length:
        raise DeserializationError("key payload truncated inside the header")
    try:
        meta = json.loads(data[start : start + length])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DeserializationError(f"corrupt key header JSON: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("kind") != "evalkeys":
        raise DeserializationError("payload is not an evaluation-key blob")
    return meta, start + length


def eval_keys_fingerprint(data: bytes) -> str:
    """The cipher-basis fingerprint of a serialized key blob (header only)."""
    meta, _ = _unpack_key_header(data)
    fingerprint = meta.get("fingerprint")
    if not isinstance(fingerprint, str):
        raise DeserializationError("key header carries no fingerprint")
    return fingerprint


def deserialize_eval_keys(data: bytes, cipher_basis: RnsBasis,
                          key_basis: RnsBasis) -> KeyChain:
    """Rebuild an evaluation-only :class:`KeyChain` (``secret=None``).

    ``cipher_basis``/``key_basis`` are the receiver's own chains (from
    :meth:`repro.ckks.params.CkksParameters.make_bases`); fingerprints in
    the untrusted header must match both, so keys generated under foreign
    parameters fail loudly before any polynomial is built.
    """
    meta, offset = _unpack_key_header(data)
    degree = _require(meta, "degree", int)
    if degree != cipher_basis.degree:
        raise ParameterError(
            f"key blob ring degree {degree} does not match the receiver's "
            f"{cipher_basis.degree}"
        )
    for field_name, basis in (("fingerprint", cipher_basis),
                              ("key_fingerprint", key_basis)):
        if _require(meta, field_name, str) != basis_fingerprint(basis):
            raise ParameterError(
                "evaluation keys were generated under a different "
                "parameter set"
            )
    cipher_limbs = _require(meta, "cipher_limbs", int)
    key_limbs = _require(meta, "key_limbs", int)
    if cipher_limbs != len(cipher_basis) or key_limbs != len(key_basis):
        raise DeserializationError(
            f"key blob limb counts ({cipher_limbs}, {key_limbs}) do not "
            f"match the receiver's ({len(cipher_basis)}, {len(key_basis)})"
        )
    galois = meta.get("rotations")
    if not isinstance(galois, list) or not all(
            isinstance(g, int) and not isinstance(g, bool) for g in galois):
        raise DeserializationError("key header rotations must be integers")
    num_cipher = _require(meta, "num_cipher_primes", int)
    num_special = _require(meta, "num_special_primes", int)

    def read_poly(basis: RnsBasis, limbs: int) -> RnsPoly:
        nonlocal offset
        flat = _read_body(data, offset, limbs * degree)
        offset += limbs * degree * 8
        return RnsPoly(basis, flat.reshape(limbs, degree).copy(), True)

    def read_ksk() -> KeySwitchKey:
        nonlocal offset
        if (num_cipher, num_special) != (cipher_limbs,
                                         key_limbs - cipher_limbs):
            raise DeserializationError(
                f"key header digit/special counts ({num_cipher}, "
                f"{num_special}) do not match the receiver's chains"
            )
        # on the wire: b_0, a_0, b_1, a_1, ... — copied once, straight
        # into the key's (2, digits, K, N) array
        count = num_cipher * 2 * key_limbs * degree
        wire = _read_body(data, offset, count).reshape(
            num_cipher, 2, key_limbs, degree)
        offset += count * 8
        stack = np.empty((2, num_cipher, key_limbs, degree), dtype=np.uint64)
        stack[...] = wire.transpose(1, 0, 2, 3)
        return KeySwitchKey(stack=stack, basis=key_basis,
                            num_cipher_primes=num_cipher,
                            num_special_primes=num_special)

    public = PublicKey(b=read_poly(cipher_basis, cipher_limbs),
                       a=read_poly(cipher_basis, cipher_limbs))
    rotations = {g: read_ksk() for g in galois}
    relin = read_ksk() if meta.get("relin") else None
    conjugation = read_ksk() if meta.get("conjugation") else None
    return KeyChain(secret=None, public=public, relin=relin,
                    rotations=rotations, conjugation=conjugation)
