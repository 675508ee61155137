"""Evaluator hot-path tests: hoisted rotations, single-copy key-switch
keys, the plaintext cache, batched NTT, and the bookkeeping (slots_in_use,
missing keys) that rides along with them."""

import tracemalloc

import numpy as np
import pytest

from repro.backend import ExactBackend
from repro.ckks import CkksContext, CkksParameters
from repro.ckks.cipher import Ciphertext
from repro.ckks.linear import LinearTransform, apply_hoisted_batch
from repro.ckks.serialize import deserialize_eval_keys, serialize_eval_keys
from repro.errors import KeyError_, ParameterError
from repro.polymath import modmath
from repro.polymath.poly import ntt_automorphism_index_map, rotation_galois_element
from repro.polymath.rns import RnsBasis, RnsPoly
from repro.utils.primes import generate_prime_chain


N = 64
SLOTS = N // 2


@pytest.fixture(scope="module")
def ctx():
    params = CkksParameters(poly_degree=N, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    return CkksContext(params, rotation_steps=list(range(1, SLOTS)),
                       seed=11, need_conjugation=True)


def _cipher_equal(a, b):
    return a.size == b.size and all(
        x.is_ntt == y.is_ntt and np.array_equal(x.residues, y.residues)
        for x, y in zip(a.parts, b.parts)
    )


# ----------------------------------------------------------------------
# hoisted rotation
# ----------------------------------------------------------------------

def test_hoisted_rotations_bit_identical_to_loop(ctx):
    rng = np.random.default_rng(0)
    msg = rng.uniform(-1, 1, SLOTS)
    ct = ctx.encrypt(msg)
    ev = ctx.evaluator
    steps = [0, 1, 2, 5, 17, SLOTS - 1]
    hoisted = ev.rotate_hoisted(ct, steps)
    assert set(hoisted) == set(steps)
    for step in steps:
        assert _cipher_equal(hoisted[step], ev.rotate(ct, step))
        got = ctx.decrypt(hoisted[step], SLOTS)
        assert np.allclose(got, np.roll(msg, -step), atol=1e-3)


@pytest.fixture(scope="module")
def pow2():
    params = CkksParameters(poly_degree=N, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    return CkksContext(params, seed=11)  # power-of-two key set only


def test_rotation_without_exact_key_raises(pow2):
    ct = pow2.encrypt(np.linspace(-1, 1, SLOTS))
    with pytest.raises(KeyError_, match="step 11"):
        pow2.evaluator.rotate(ct, 11)  # 11 = 8+2+1: never composed
    with pytest.raises(KeyError_, match="step 11"):
        pow2.evaluator.rotate(ct, 11, keep=True)
    assert ct.hoisted is None


def test_hoisted_rotation_checks_every_key_before_decomposing(pow2):
    ct = pow2.encrypt(np.linspace(-1, 1, SLOTS))
    with pytest.raises(KeyError_, match="step 11"):
        pow2.evaluator.rotate_hoisted(ct, [8, 11, 2])
    assert ct.hoisted is None
    # a complete batch leaves nothing held on its source either
    out = pow2.evaluator.rotate_hoisted(ct, [8, 2, 8])
    assert set(out) == {8, 2} and ct.hoisted is None


# ----------------------------------------------------------------------
# key-switch keys: one array per key, read through views
# ----------------------------------------------------------------------

def _eval_only_keys(ctx):
    blob = serialize_eval_keys(ctx.keys)
    return deserialize_eval_keys(blob, *ctx.params.make_bases())


@pytest.mark.parametrize("rebuild", [False, True],
                         ids=["generated", "deserialized"])
def test_keyswitch_key_is_held_once(ctx, rebuild):
    keys = _eval_only_keys(ctx) if rebuild else ctx.keys
    ksks = [*keys.rotations.values(), keys.relin, keys.conjugation]
    assert len(ksks) == SLOTS - 1 + 2
    _, key_basis = ctx.params.make_bases()
    for ksk in ksks:
        digits = ksk.num_cipher_primes
        assert ksk.stack.shape == (2, digits, len(key_basis), N)
        assert ksk.stack.flags.owndata and ksk.stack.flags.writeable
        assert ksk.byte_size() == ksk.stack.nbytes
        assert len(ksk.pairs) == digits
        for j, (b, a) in enumerate(ksk.pairs):
            assert np.shares_memory(b.residues, ksk.stack[0, j])
            assert np.shares_memory(a.residues, ksk.stack[1, j])
    if rebuild:
        for galois, ksk in keys.rotations.items():
            assert np.array_equal(ksk.stack, ctx.keys.rotations[galois].stack)
        assert serialize_eval_keys(keys) == serialize_eval_keys(ctx.keys)


def _gathered_inner_product(ev, digits, ksk, level):
    """The inner product as it was before keys were read through views:
    rows gathered with a fancy index into a fresh ``(2, level+1, K', N)``
    copy, one fused pass over it."""
    ext = ev._extended_basis(level)
    idx = list(range(level + 1)) + list(
        range(len(ev.cipher_basis), len(ev.key_basis)))
    keys = np.stack([
        [ksk.pairs[j][h].residues[idx] for j in range(level + 1)]
        for h in range(2)
    ])
    assert not np.shares_memory(keys, ksk.stack)
    q = ext.moduli_col[None, None, :, :]
    prods = modmath.mul_mod(digits[None, :, :, :], keys, q)
    acc = modmath.mod_reduce(np.add.reduce(prods, axis=1), ext.moduli_col)
    return (RnsPoly(ext, acc[0], is_ntt=True),
            RnsPoly(ext, acc[1], is_ntt=True))


def test_key_switch_at_every_level_matches_gathered_reference(
        ctx, monkeypatch):
    rng = np.random.default_rng(3)
    ev = ctx.evaluator
    ct = ctx.encrypt(rng.uniform(-1, 1, SLOTS))
    other = ctx.encrypt(rng.uniform(-1, 1, SLOTS))
    steps = [1, 6, SLOTS - 1]

    def run_ops(a, b):
        hoisted = ev.rotate_hoisted(a, steps)
        # a 3-part ciphertext built by hand: multiply refuses level 0,
        # and only the bits of the key switch matter here
        cipher3 = Ciphertext([*a.parts, b.parts[1]], a.scale)
        return [ev.rotate(a, 5), *(hoisted[s] for s in steps),
                ev.relinearize(cipher3), ev.conjugate(a)]

    for level in range(ev.params.max_level + 1):
        a, b = ev.mod_switch_to(ct, level), ev.mod_switch_to(other, level)
        got = run_ops(a, b)
        with monkeypatch.context() as patch:
            patch.setattr(
                ev, "_inner_product",
                lambda digits, ksk, lvl: _gathered_inner_product(
                    ev, digits, ksk, lvl))
            want = run_ops(a, b)
        assert all(c.level == level for c in got)
        for g, w in zip(got, want):
            assert _cipher_equal(g, w)


def test_rotations_retain_less_than_one_key():
    degree = 512
    params = CkksParameters(poly_degree=degree, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    steps = [1, 2, 3, 4]
    wide = CkksContext(params, rotation_steps=steps + [5], seed=5)
    ev = wide.evaluator
    one_key = next(iter(wide.keys.rotations.values())).byte_size()
    ct = wide.encrypt(np.linspace(-1, 1, degree // 2))
    levels = [ev.mod_switch_to(ct, lvl) for lvl in (3, 2, 1)]
    for a in levels:
        # a fifth key fills what is kept per level and not per key
        # (extended bases, NTT tables, kernel packs)
        ev.rotate(a, 5)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for a in levels:
            for step in steps:
                ev.rotate(a, step)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < one_key


def test_rotation_results_unaffected_by_cache_reuse(ctx):
    rng = np.random.default_rng(4)
    msg = rng.uniform(-1, 1, SLOTS)
    ev = ctx.evaluator
    ct = ctx.encrypt(msg)
    first = ev.rotate(ct, 3)
    again = ev.rotate(ct, 3)
    assert _cipher_equal(first, again)
    lower = ev.mod_switch(ct, 1)
    rotated_low = ev.rotate(lower, 3)  # same key, restricted to fewer limbs
    assert rotated_low.level == lower.level
    assert np.allclose(ctx.decrypt(rotated_low, SLOTS),
                       np.roll(msg, -3), atol=1e-3)


# ----------------------------------------------------------------------
# batched NTT
# ----------------------------------------------------------------------

def test_batched_ntt_matches_per_limb():
    primes = generate_prime_chain([30, 30, 30, 30], N)
    basis = RnsBasis(primes, N)
    rng = np.random.default_rng(5)
    rows = np.stack([rng.integers(0, q, N, dtype=np.uint64)
                     for q in basis.moduli])
    fwd = basis.ntt_forward(rows)
    per_limb = np.stack([basis.ntts[i].forward(rows[i])
                         for i in range(len(basis))])
    assert np.array_equal(fwd, per_limb)
    back = basis.ntt_inverse(fwd)
    assert np.array_equal(back, rows)


def test_batched_ntt_on_non_full_prefix_and_digit_stacks():
    primes = generate_prime_chain([30, 30, 30, 30], N)
    basis = RnsBasis(primes, N)
    sub = basis.prefix(2)
    rng = np.random.default_rng(6)
    # (digits, limbs, N) stack over a 2-limb prefix basis
    stack = np.stack([
        np.stack([rng.integers(0, q, N, dtype=np.uint64)
                  for q in sub.moduli])
        for _ in range(3)
    ])
    fwd = sub.ntt_forward(stack)
    for d in range(3):
        for i in range(len(sub)):
            assert np.array_equal(fwd[d, i], sub.ntts[i].forward(stack[d, i]))
    assert np.array_equal(sub.ntt_inverse(fwd), stack)


def test_ntt_automorphism_is_pure_permutation():
    primes = generate_prime_chain([30, 30], N)
    basis = RnsBasis(primes, N)
    rng = np.random.default_rng(7)
    coeffs = [int(v) for v in rng.integers(-50, 50, N)]
    poly = RnsPoly.from_int_coeffs(basis, coeffs, to_ntt=False)
    for steps in (1, 3, 7):
        galois = rotation_galois_element(steps, N)
        via_coeff = poly.automorphism(galois).to_ntt()
        via_ntt = poly.to_ntt().automorphism(galois)
        assert via_ntt.is_ntt
        assert np.array_equal(via_coeff.residues, via_ntt.residues)
        perm = ntt_automorphism_index_map(N, galois)
        assert np.array_equal(
            via_ntt.residues, poly.to_ntt().residues[:, perm]
        )


def test_rescale_ntt_fast_path_matches_coeff_route():
    primes = generate_prime_chain([30, 30, 30], N)
    basis = RnsBasis(primes, N)
    rng = np.random.default_rng(8)
    poly = RnsPoly.uniform_random(basis, rng)  # NTT form
    fast = poly.rescale_last()
    assert fast.is_ntt
    slow = poly.to_coeff().rescale_last()
    assert np.array_equal(fast.to_coeff().residues, slow.to_coeff().residues)


# ----------------------------------------------------------------------
# hoisted BSGS linear transforms + plaintext cache
# ----------------------------------------------------------------------

def test_bsgs_hoisted_matches_unhoisted_bit_for_bit(ctx):
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(SLOTS, SLOTS)) / SLOTS
    lt = LinearTransform(matrix)
    ct = ctx.encrypt(rng.uniform(-1, 1, SLOTS))
    hoisted = lt.apply(ctx.evaluator, ct, hoisted=True)
    baseline = lt.apply(ctx.evaluator, ct, hoisted=False)
    assert _cipher_equal(hoisted, baseline)


def test_custom_giant_split_validated_and_equivalent(ctx):
    rng = np.random.default_rng(10)
    matrix = rng.normal(size=(SLOTS, SLOTS)) / SLOTS
    vec = rng.uniform(-1, 1, SLOTS)
    ct = ctx.encrypt(vec)
    reference = LinearTransform(matrix).apply(ctx.evaluator, ct)
    for giant in (1, 8, SLOTS):
        lt = LinearTransform(matrix, giant=giant)
        assert lt.giant * lt.baby == SLOTS
        out = lt.apply(ctx.evaluator, ct)
        assert np.allclose(ctx.decrypt(out, SLOTS),
                           ctx.decrypt(reference, SLOTS), atol=1e-3)
    with pytest.raises(ParameterError):
        LinearTransform(matrix, giant=7)  # does not divide SLOTS=32


def test_apply_hoisted_batch_matches_individual_applies(ctx):
    rng = np.random.default_rng(11)
    mats = [rng.normal(size=(SLOTS, SLOTS)) / SLOTS for _ in range(2)]
    lts = [LinearTransform(m) for m in mats]
    ct = ctx.encrypt(rng.uniform(-1, 1, SLOTS))
    batched = apply_hoisted_batch(ctx.evaluator, ct, lts)
    for lt, out in zip(lts, batched):
        assert _cipher_equal(out, lt.apply(ctx.evaluator, ct))


def test_diagonal_plaintexts_memoised_per_level(ctx):
    rng = np.random.default_rng(12)
    matrix = rng.normal(size=(SLOTS, SLOTS)) / SLOTS
    lt = LinearTransform(matrix)
    ev = ctx.evaluator
    ct = ctx.encrypt(rng.uniform(-1, 1, SLOTS))
    first = lt._encode_diag(ev, ct, 1, 0)
    assert lt._encode_diag(ev, ct, 1, 0) is first  # cache hit
    lower = ev.mod_switch(ct, 1)
    low_plain = lt._encode_diag(ev, lower, 1, 0)
    assert low_plain is not first  # keyed by level
    assert low_plain.poly.basis.moduli == lower.basis.moduli
    keys = lt._plain_cache[ev]
    assert (ct.level, 1, 0) in keys and (lower.level, 1, 0) in keys


# ----------------------------------------------------------------------
# slots_in_use bookkeeping
# ----------------------------------------------------------------------

def test_slots_in_use_survives_every_evaluator_op(ctx):
    rng = np.random.default_rng(13)
    ev = ctx.evaluator
    msg = rng.uniform(-1, 1, 5)
    ct = ctx.encrypt(msg)  # 5 of 32 slots in use
    assert ct.slots_in_use == 5
    other = ctx.encrypt(rng.uniform(-1, 1, 3))
    plain = ctx.encode(rng.uniform(-1, 1, 5))
    assert ev.add(ct, other).slots_in_use == 5
    assert ev.add(other, ct).slots_in_use == 5  # max, either order
    assert ev.sub(ct, other).slots_in_use == 5
    assert ev.negate(ct).slots_in_use == 5
    assert ev.add_plain(ct, plain).slots_in_use == 5
    assert ev.sub_plain(ct, plain).slots_in_use == 5
    assert ev.multiply_plain(ct, plain).slots_in_use == 5
    prod = ev.multiply(ct, other)
    assert prod.slots_in_use == 5
    assert ev.relinearize(prod).slots_in_use == 5
    assert ev.rescale(ev.multiply_plain(ct, plain)).slots_in_use == 5
    assert ev.mod_switch(ct, 1).slots_in_use == 5
    assert ev.upscale(ct, 2).slots_in_use == 5
    assert ev.rotate(ct, 3).slots_in_use == 5
    assert ev.conjugate(ct).slots_in_use == 5
    hoisted = ev.rotate_hoisted(ct, [0, 1, 2])
    assert all(c.slots_in_use == 5 for c in hoisted.values())
