"""Ciphertext serialisation tests (the Figure-2 wire format)."""

import json
import struct

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParameters
from repro.ckks.serialize import (
    basis_fingerprint,
    deserialize_ciphertext,
    deserialize_plaintext,
    serialize_ciphertext,
    serialize_plaintext,
)
from repro.errors import ParameterError


@pytest.fixture(scope="module")
def ctx():
    params = CkksParameters(poly_degree=128, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    return CkksContext(params, rotation_steps=[1], seed=0)


def _full_basis(ctx):
    basis, _ = ctx.params.make_bases()
    return basis


def test_ciphertext_roundtrip(ctx):
    rng = np.random.default_rng(0)
    msg = rng.uniform(-1, 1, size=64)
    ct = ctx.encrypt(msg)
    blob = serialize_ciphertext(ct)
    back = deserialize_ciphertext(blob, _full_basis(ctx))
    assert back.scale == ct.scale
    assert back.level == ct.level
    assert np.allclose(ctx.decrypt(back, 64), msg, atol=1e-3)


def test_wire_roundtrip_preserves_computation(ctx):
    """Figure 2: client encrypts, server computes on the wire format."""
    rng = np.random.default_rng(1)
    msg = rng.uniform(-1, 1, size=64)
    blob = serialize_ciphertext(ctx.encrypt(msg))
    # server side
    server_ct = deserialize_ciphertext(blob, _full_basis(ctx))
    rotated = ctx.evaluator.rotate(server_ct, 1)
    reply = serialize_ciphertext(rotated)
    # client side
    result = deserialize_ciphertext(reply, _full_basis(ctx))
    assert np.allclose(ctx.decrypt(result, 64), np.roll(msg, -1), atol=1e-2)


def test_low_level_ciphertext_roundtrip(ctx):
    msg = np.full(64, 0.5)
    ct = ctx.evaluator.mod_switch(ctx.encrypt(msg), 2)
    back = deserialize_ciphertext(serialize_ciphertext(ct), _full_basis(ctx))
    assert back.level == ct.level
    assert np.allclose(ctx.decrypt(back, 64), msg, atol=1e-3)


def test_plaintext_roundtrip(ctx):
    pt = ctx.encode([1.0, 2.0, 3.0])
    back = deserialize_plaintext(serialize_plaintext(pt), _full_basis(ctx))
    vals = ctx.evaluator.decode(back, 3)
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=1e-4)


def test_parameter_mismatch_rejected(ctx):
    other = CkksContext(
        CkksParameters(poly_degree=128, scale_bits=32, first_prime_bits=42,
                       num_levels=3),
        rotation_steps=[], seed=1,
    )
    blob = serialize_ciphertext(ctx.encrypt([1.0]))
    other_basis, _ = other.params.make_bases()
    with pytest.raises(ParameterError):
        deserialize_ciphertext(blob, other_basis)


def test_garbage_payload_rejected(ctx):
    with pytest.raises(ParameterError):
        deserialize_ciphertext(b"not a ciphertext at all", _full_basis(ctx))


def test_fingerprint_sensitivity(ctx):
    basis = _full_basis(ctx)
    assert basis_fingerprint(basis) != basis_fingerprint(basis.prefix(2))


def test_kind_mismatch_rejected(ctx):
    blob = serialize_plaintext(ctx.encode([1.0]))
    with pytest.raises(ParameterError):
        deserialize_ciphertext(blob, _full_basis(ctx))


# -- hostile-wire fuzzing ---------------------------------------------------
#
# The serving layer feeds these bytes straight off a socket, so every
# malformed payload must surface as a typed ReproError (specifically a
# DeserializationError / ParameterError), never a raw struct / json /
# numpy exception.

from repro.ckks.serialize import _pack_header, peek_header  # noqa: E402
from repro.errors import DeserializationError, ReproError  # noqa: E402


def test_truncated_payload_rejected_everywhere(ctx):
    blob = serialize_ciphertext(ctx.encrypt(np.linspace(-1, 1, 64)))
    basis = _full_basis(ctx)
    cuts = [0, 1, 4, 8, 10, 11, 40, len(blob) // 2, len(blob) - 1]
    for cut in cuts:
        with pytest.raises(DeserializationError):
            deserialize_ciphertext(blob[:cut], basis)


def test_mutated_wire_bytes_never_leak_raw_errors(ctx):
    blob = serialize_ciphertext(ctx.encrypt(np.linspace(-1, 1, 64)))
    basis = _full_basis(ctx)
    rng = np.random.default_rng(0)
    for _ in range(300):
        data = bytearray(blob)
        for _ in range(rng.integers(1, 4)):
            data[rng.integers(0, len(data))] ^= int(rng.integers(1, 256))
        try:
            deserialize_ciphertext(bytes(data), basis)
        except ReproError:
            pass  # typed rejection is the contract
        # body-only bit flips decode structurally; that is fine — the
        # damage surfaces as CKKS noise, not as a crash


def test_hostile_header_fields_rejected(ctx):
    basis = _full_basis(ctx)
    fingerprint = basis_fingerprint(basis)
    base = {
        "kind": "cipher", "parts": 2, "limbs": len(basis),
        "degree": basis.degree, "scale": 2.0**30, "slots_in_use": 64,
        "is_ntt": True, "fingerprint": fingerprint,
    }
    body = b"\0" * (len(basis) * basis.degree * 8 * 2)
    evil_headers = [
        {**base, "parts": 7},                  # not a valid ct shape
        {**base, "parts": "2"},                # type confusion
        {**base, "limbs": -1},
        {**base, "limbs": len(basis) + 9},     # beyond the receiver chain
        {**base, "degree": 0},
        {**base, "degree": basis.degree * 2},  # wrong ring
        {**base, "scale": -5.0},
        {**base, "scale": None},
        {**base, "is_ntt": "yes"},
        {**base, "fingerprint": 123},
        {k: v for k, v in base.items() if k != "limbs"},  # missing field
    ]
    for meta in evil_headers:
        with pytest.raises(ParameterError):
            deserialize_ciphertext(_pack_header(meta) + body, basis)


def test_header_length_cap(ctx):
    import struct as struct_mod

    evil = b"ACEct010" + struct_mod.pack("<I", 1 << 30) + b"{}"
    with pytest.raises(DeserializationError):
        deserialize_ciphertext(evil, _full_basis(ctx))


def test_corrupt_header_json(ctx):
    import struct as struct_mod

    payload = b"{not json!"
    evil = b"ACEct010" + struct_mod.pack("<I", len(payload)) + payload
    with pytest.raises(DeserializationError):
        deserialize_ciphertext(evil, _full_basis(ctx))
    array = b"[1, 2, 3]"
    evil = b"ACEct010" + struct_mod.pack("<I", len(array)) + array
    with pytest.raises(DeserializationError):
        deserialize_ciphertext(evil, _full_basis(ctx))


def test_peek_header_reads_without_body(ctx):
    ct = ctx.encrypt(np.linspace(-1, 1, 64))
    blob = serialize_ciphertext(ct)
    header = peek_header(blob)
    assert header["kind"] == "cipher"
    assert header["fingerprint"] == basis_fingerprint(_full_basis(ctx))
    # the body is irrelevant to the peek: strip it entirely
    header_only = blob[: len(blob) - ct.byte_size()]
    assert peek_header(header_only)["parts"] == ct.size
    with pytest.raises(DeserializationError):
        peek_header(b"junk")


def test_truncated_plaintext_rejected(ctx):
    blob = serialize_plaintext(ctx.encode([1.0, 2.0]))
    with pytest.raises(DeserializationError):
        deserialize_plaintext(blob[:-8], _full_basis(ctx))


# -- evaluation-key blobs (the scale-out router's key exchange) ------------


@pytest.fixture(scope="module")
def keyed_ctx():
    params = CkksParameters(poly_degree=128, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    return CkksContext(params, rotation_steps=[1, 2, -1],
                       need_conjugation=True, seed=5)


def test_eval_keys_roundtrip_structure(keyed_ctx):
    from repro.ckks.serialize import (
        deserialize_eval_keys,
        eval_keys_fingerprint,
        serialize_eval_keys,
    )

    blob = serialize_eval_keys(keyed_ctx.keys)
    chain = deserialize_eval_keys(blob, *keyed_ctx.params.make_bases())
    assert chain.secret is None  # the blob structurally excludes it
    assert chain.relin is not None and chain.conjugation is not None
    assert set(chain.rotations) == set(keyed_ctx.keys.rotations)
    # blob size tracks the Figure-7 key-memory meter (header overhead only)
    assert abs(len(blob) - keyed_ctx.keys.byte_size()) < 4096
    assert (eval_keys_fingerprint(blob)
            == basis_fingerprint(_full_basis(keyed_ctx)))


def test_eval_keys_evaluate_bit_identically(keyed_ctx):
    """Shipped keys rotate/relinearize exactly like the owner's chain."""
    from repro.ckks.evaluator import CkksEvaluator
    from repro.ckks.serialize import deserialize_eval_keys, serialize_eval_keys

    chain = deserialize_eval_keys(serialize_eval_keys(keyed_ctx.keys),
                                  *keyed_ctx.params.make_bases())
    shipped = CkksEvaluator(keyed_ctx.params, chain,
                            np.random.default_rng(0))
    msg = np.random.default_rng(2).uniform(-1, 1, size=64)
    ct = keyed_ctx.encrypt(msg)
    owner_rot = keyed_ctx.evaluator.rotate(ct, 1)
    shipped_rot = shipped.rotate(ct, 1)
    assert serialize_ciphertext(owner_rot) == serialize_ciphertext(shipped_rot)
    owner_sq = keyed_ctx.evaluator.relinearize(
        keyed_ctx.evaluator.multiply(ct, ct))
    shipped_sq = shipped.relinearize(shipped.multiply(ct, ct))
    assert serialize_ciphertext(owner_sq) == serialize_ciphertext(shipped_sq)


def test_eval_keys_cannot_decrypt(keyed_ctx):
    from repro.ckks import CkksContext
    from repro.ckks.serialize import deserialize_eval_keys, serialize_eval_keys
    from repro.errors import KeyError_

    chain = deserialize_eval_keys(serialize_eval_keys(keyed_ctx.keys),
                                  *keyed_ctx.params.make_bases())
    shipped_ctx = CkksContext.from_keychain(keyed_ctx.params, chain, seed=0)
    ct = shipped_ctx.encrypt([1.0, 2.0])  # public-key encryption works
    with pytest.raises(KeyError_):
        shipped_ctx.decrypt(ct)
    with pytest.raises(KeyError_):
        shipped_ctx.add_rotation_keys([4])  # and key minting is impossible


def test_eval_keys_reject_corruption_and_foreign_params(keyed_ctx):
    from repro.ckks.serialize import deserialize_eval_keys, serialize_eval_keys
    from repro.errors import DeserializationError

    blob = serialize_eval_keys(keyed_ctx.keys)
    truncated = blob[:len(blob) // 2]
    with pytest.raises(DeserializationError):
        deserialize_eval_keys(truncated, *keyed_ctx.params.make_bases())
    garbled = bytearray(blob)
    garbled[4:8] = b"\xff\xff\xff\xff"
    with pytest.raises(DeserializationError):
        deserialize_eval_keys(bytes(garbled),
                              *keyed_ctx.params.make_bases())
    # a digit count that disagrees with the chain would size the key array
    (length,) = struct.unpack_from("<I", blob, 8)
    meta = json.loads(blob[12:12 + length])
    for hostile_digits in (-1, meta["num_cipher_primes"] + 1):
        header = json.dumps(
            {**meta, "num_cipher_primes": hostile_digits}).encode()
        hostile = (blob[:8] + struct.pack("<I", len(header)) + header
                   + blob[12 + length:])
        with pytest.raises(DeserializationError):
            deserialize_eval_keys(hostile, *keyed_ctx.params.make_bases())
    foreign = CkksParameters(poly_degree=128, scale_bits=32,
                             first_prime_bits=42, num_levels=3)
    with pytest.raises(ParameterError):
        deserialize_eval_keys(blob, *foreign.make_bases())
