"""The RNS-CKKS homomorphic evaluator.

Implements every primitive the CKKS IR (paper Table 6) targets:
``add, sub, neg, mul`` (cipher-cipher, cipher-plain), ``rotate``,
``conjugate``, ``relin``, ``rescale``, ``modswitch``, ``upscale``,
``downscale``, ``encode`` — plus encryption/decryption.  ``bootstrap``
lives in :mod:`repro.ckks.bootstrap` and is attached by the context.

Key switching is the hot path (paper §4.3–4.4) and is organised so the
expensive half can be shared:

* :meth:`_decompose` performs the digit decomposition + mod-up of a
  polynomial once (inverse NTT, residue lift, batched forward NTT over
  every digit and limb in one numpy pass);
* :meth:`_inner_product` folds the digits with a key-switch key, read
  at the ciphertext's level through views of the key's one array;
* :meth:`rotate` is the one rotation path: it looks up the exact key
  (a missing one raises :class:`~repro.errors.KeyError_`), applies the
  Galois automorphism to the decomposed digits as a pure NTT-domain
  permutation, and with ``keep=True`` leaves the decomposition on the
  source (``Ciphertext.hoisted``) for the next rotation of it
  ("hoisting", Halevi–Shoup).

:meth:`rotate_hoisted` is a loop of :meth:`rotate` that keeps the
decomposition until its last step, so a hoisted batch is bit-for-bit
identical to a loop of plain rotations.  A compiled program hoists the
same way: the source holds its decomposition until the last rotation
that reads it.  Relinearisation and conjugation decompose through
:meth:`_key_switch`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    CiphertextDegreeError,
    KeyError_,
    LevelMismatchError,
    NoiseBudgetExhausted,
    ParameterError,
    ScaleMismatchError,
)
from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keys import KeyChain, KeySwitchKey, sample_error, sample_ternary
from repro.polymath import modmath
from repro.polymath.crt import signed_coeffs
from repro.polymath.poly import (
    conjugation_galois_element,
    ntt_automorphism_index_map,
    rotation_galois_element,
)
from repro.polymath.rns import RnsBasis, RnsPoly, mod_down_stack

_SCALE_RTOL = 1e-6


def _same_scale(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_SCALE_RTOL)


def _guard_product_scale(a: Ciphertext, other_scale: float, what: str) -> None:
    """Refuse a multiply whose product scale cannot fit the basis.

    A product scale at or past the full remaining modulus wraps the
    message mod Q and decrypt returns garbage with no error anywhere
    downstream — the classic scale-mismanagement failure CHET's
    invariant checking guards against.  Fires only on *guaranteed*
    overflow, so legitimate lazy-rescaling chains never trip it.
    """
    # lazy import: repro.ckks.noise imports this module at its top level
    from repro.ckks.noise import remaining_depth

    capacity_bits = sum(math.log2(q) for q in a.basis.moduli)
    product_bits = math.log2(a.scale) + math.log2(other_scale)
    if product_bits >= capacity_bits:
        raise NoiseBudgetExhausted(
            f"{what} would overflow the modulus chain: product scale "
            f"2^{product_bits:.1f} >= remaining capacity "
            f"2^{capacity_bits:.1f} "
            f"(remaining_depth={remaining_depth(a)}); bootstrap first"
        )


@dataclass
class HoistedDecomposition:
    """The shared (expensive) half of a key switch.

    ``digits`` is a ``(level+1, ext_limbs, N)`` uint64 stack: digit ``j``
    of the decomposed polynomial, lifted into the extended basis and in
    NTT form.  One decomposition serves every rotation step applied to the
    same ciphertext.
    """

    level: int
    ext: RnsBasis
    digits: np.ndarray

    def permuted(self, galois: int) -> np.ndarray:
        """Digits of the automorphic image — an NTT-domain gather."""
        perm = ntt_automorphism_index_map(self.ext.degree, galois)
        return self.digits[:, :, perm]


class CkksEvaluator:
    """Stateless-ish evaluator bound to one parameter set and key chain."""

    def __init__(self, params, keys: KeyChain, rng: np.random.Generator):
        self.params = params
        self.keys = keys
        self.rng = rng
        self.encoder = CkksEncoder(params.poly_degree)
        self.cipher_basis, self.key_basis = params.make_bases()
        self._ext_bases: dict[int, RnsBasis] = {}
        # guards first-miss population of ``_ext_bases``: serve worker
        # threads (and any user threads) may share one evaluator, and
        # without the lock concurrent misses would each build (and
        # briefly publish) a duplicate basis.  Lookups stay lock-free — entries
        # are immutable once inserted and dict reads are atomic.
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # encoding / encryption
    # ------------------------------------------------------------------

    def basis_at(self, level: int) -> RnsBasis:
        """Ciphertext basis with ``level + 1`` limbs."""
        if not 0 <= level <= self.params.max_level:
            raise ParameterError(f"level {level} out of range")
        return self.cipher_basis.prefix(level + 1)

    def encode(self, values, scale: float | None = None,
               level: int | None = None) -> Plaintext:
        """Encode a cleartext vector at the given scale and level."""
        scale = float(scale if scale is not None else self.params.scale)
        level = self.params.max_level if level is None else level
        coeffs = self.encoder.encode(values, scale)
        poly = RnsPoly.from_int_coeffs(self.basis_at(level), coeffs)
        return Plaintext(poly=poly, scale=scale)

    def decode(self, plain: Plaintext, num_values: int | None = None) -> np.ndarray:
        coeffs = signed_coeffs(
            plain.poly.to_coeff().residues, plain.poly.basis.moduli
        )
        return self.encoder.decode_real(coeffs, plain.scale, num_values)

    def encrypt(self, plain: Plaintext) -> Ciphertext:
        """Public-key encryption of an encoded plaintext."""
        basis = plain.poly.basis
        count = len(basis)
        pk_b = RnsPoly(basis, self.keys.public.b.residues[:count].copy(), True)
        pk_a = RnsPoly(basis, self.keys.public.a.residues[:count].copy(), True)
        u = sample_ternary(basis, self.rng)
        e0 = sample_error(basis, self.rng, self.params.error_std)
        e1 = sample_error(basis, self.rng, self.params.error_std)
        c0 = pk_b * u + e0 + plain.poly
        c1 = pk_a * u + e1
        return Ciphertext([c0, c1], plain.scale)

    def decrypt(self, cipher: Ciphertext) -> Plaintext:
        if self.keys.secret is None:
            raise KeyError_(
                "evaluation-only key chain holds no secret key; only the "
                "key owner (the client side of the Figure-2 protocol) can "
                "decrypt"
            )
        basis = cipher.basis
        s = self.keys.secret.restrict(basis)
        acc = cipher.parts[0] + cipher.parts[1] * s
        if cipher.size == 3:
            acc = acc + cipher.parts[2] * s * s
        return Plaintext(poly=acc, scale=cipher.scale)

    def decrypt_decode(self, cipher: Ciphertext, num_values: int | None = None) -> np.ndarray:
        return self.decode(self.decrypt(cipher), num_values)

    # ------------------------------------------------------------------
    # linear operations
    # ------------------------------------------------------------------

    def _check_binary(self, a: Ciphertext, b) -> None:
        if a.basis.moduli != (b.basis.moduli if isinstance(b, Ciphertext)
                              else b.poly.basis.moduli):
            raise LevelMismatchError(
                "operands at different levels; insert modswitch first"
            )
        b_scale = b.scale
        if not _same_scale(a.scale, b_scale):
            raise ScaleMismatchError(
                f"scales differ: 2^{math.log2(a.scale):.3f} vs "
                f"2^{math.log2(b_scale):.3f}"
            )

    def _check_degrees(self, a: Ciphertext, b: Ciphertext) -> None:
        if a.size != b.size:
            raise CiphertextDegreeError(
                f"ciphertext degrees differ: size {a.size} vs {b.size}; "
                "relinearise (or defer both relins) before adding"
            )

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_binary(a, b)
        self._check_degrees(a, b)
        parts = [pa + pb for pa, pb in zip(a.parts, b.parts)]
        return Ciphertext(parts, a.scale, max(a.slots_in_use, b.slots_in_use))

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_binary(a, b)
        self._check_degrees(a, b)
        parts = [pa - pb for pa, pb in zip(a.parts, b.parts)]
        return Ciphertext(parts, a.scale, max(a.slots_in_use, b.slots_in_use))

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext([-p for p in a.parts], a.scale, a.slots_in_use)

    def _align_plain(self, a: Ciphertext, plain: Plaintext) -> Plaintext:
        """Mod-switch ``plain`` down to ``a``'s basis when it sits higher.

        Dropping a plaintext's trailing RNS limbs is exact (no noise, no
        scale change), so a program whose inputs entered below the
        planned level — e.g. a served request its client encrypted
        below the top level — can still consume constants encoded at
        the planned level.  A plaintext *below* the ciphertext stays an
        error: limbs cannot be invented.
        """
        extra = len(plain.poly.basis) - len(a.basis)
        if extra <= 0:
            return plain
        return Plaintext(poly=plain.poly.drop_last(extra),
                         scale=plain.scale)

    def add_plain(self, a: Ciphertext, plain: Plaintext) -> Ciphertext:
        plain = self._align_plain(a, plain)
        self._check_binary(a, plain)
        parts = [a.parts[0] + plain.poly] + [p.copy() for p in a.parts[1:]]
        return Ciphertext(parts, a.scale, a.slots_in_use)

    def sub_plain(self, a: Ciphertext, plain: Plaintext) -> Ciphertext:
        plain = self._align_plain(a, plain)
        self._check_binary(a, plain)
        parts = [a.parts[0] - plain.poly] + [p.copy() for p in a.parts[1:]]
        return Ciphertext(parts, a.scale, a.slots_in_use)

    # ------------------------------------------------------------------
    # multiplication family
    # ------------------------------------------------------------------

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Cipher-cipher multiplication; result has 3 parts (Cipher3)."""
        if a.size != 2 or b.size != 2:
            raise ParameterError("relinearise before multiplying again")
        if a.basis.moduli != b.basis.moduli:
            raise LevelMismatchError(
                "operands at different levels; insert modswitch first"
            )
        _guard_product_scale(a, b.scale, "multiply")
        d0 = a.parts[0] * b.parts[0]
        d1 = a.parts[0] * b.parts[1] + a.parts[1] * b.parts[0]
        d2 = a.parts[1] * b.parts[1]
        return Ciphertext(
            [d0, d1, d2], a.scale * b.scale, max(a.slots_in_use, b.slots_in_use)
        )

    def multiply_plain(self, a: Ciphertext, plain: Plaintext) -> Ciphertext:
        plain = self._align_plain(a, plain)
        if a.basis.moduli != plain.poly.basis.moduli:
            raise LevelMismatchError(
                "plaintext encoded at wrong level; re-encode or modswitch"
            )
        _guard_product_scale(a, plain.scale, "multiply_plain")
        parts = [p * plain.poly for p in a.parts]
        return Ciphertext(parts, a.scale * plain.scale, a.slots_in_use)

    def square(self, a: Ciphertext) -> Ciphertext:
        return self.multiply(a, a)

    # ------------------------------------------------------------------
    # scale & level management
    # ------------------------------------------------------------------

    def rescale(self, a: Ciphertext) -> Ciphertext:
        """Divide by the last prime; drops one level, scale /= q_last."""
        if a.level == 0:
            raise NoiseBudgetExhausted(
                "no levels left to rescale; bootstrap required"
            )
        q_last = a.basis.moduli[-1]
        if a.scale / q_last < 1.0:
            raise NoiseBudgetExhausted(
                f"rescale would drop the scale below 1 "
                f"(2^{math.log2(a.scale):.1f} / 2^{math.log2(q_last):.1f}): "
                "the message would be destroyed"
            )
        parts = [p.rescale_last() for p in a.parts]
        return Ciphertext(parts, a.scale / q_last, a.slots_in_use)

    def mod_switch(self, a: Ciphertext, levels: int = 1) -> Ciphertext:
        """Drop limbs without changing the scale."""
        if levels <= 0:
            return a.copy()
        if a.level - levels < 0:
            raise NoiseBudgetExhausted("cannot modswitch below level 0")
        parts = [p.drop_last(levels) for p in a.parts]
        return Ciphertext(parts, a.scale, a.slots_in_use)

    def mod_switch_to(self, a: Ciphertext, level: int) -> Ciphertext:
        if level > a.level:
            raise LevelMismatchError(
                f"cannot raise level {a.level} -> {level} without bootstrap"
            )
        return self.mod_switch(a, a.level - level)

    def upscale(self, a: Ciphertext, extra_scale_bits: int) -> Ciphertext:
        """Multiply by 2^extra_scale_bits without consuming a level."""
        factor = 1 << extra_scale_bits
        parts = [p.scalar_mul(factor) for p in a.parts]
        return Ciphertext(parts, a.scale * factor, a.slots_in_use)

    def downscale(self, a: Ciphertext, target_scale: float) -> Ciphertext:
        """Rescale repeatedly until the scale is at or below the target."""
        out = a
        while out.scale > target_scale * (1 + _SCALE_RTOL) and out.level > 0:
            out = self.rescale(out)
        return out

    def adjust_scale(self, a: Ciphertext, target_scale: float) -> Ciphertext:
        """Force-match a scale by multiplying with an encoded constant 1.

        Consumes one multiplication + rescale worth of budget; used to align
        addition operands whose scales drifted apart.
        """
        if _same_scale(a.scale, target_scale):
            return a
        ratio = target_scale * a.basis.moduli[-1] / a.scale
        if ratio < 1:
            raise ScaleMismatchError(
                f"cannot reduce scale {a.scale} to {target_scale} exactly"
            )
        one = self.encode(1.0, scale=ratio, level=a.level)
        return self.rescale(self.multiply_plain(a, one))

    # ------------------------------------------------------------------
    # key switching: relinearise / rotate / conjugate
    # ------------------------------------------------------------------

    def _extended_basis(self, level: int) -> RnsBasis:
        """Basis (q_0..q_level, specials), sharing precomputed NTT tables."""
        ext = self._ext_bases.get(level)
        if ext is None:
            with self._cache_lock:
                ext = self._ext_bases.get(level)
                if ext is None:
                    moduli = (
                        self.cipher_basis.moduli[: level + 1]
                        + self.key_basis.moduli[len(self.cipher_basis):]
                    )
                    ext = RnsBasis.__new__(RnsBasis)
                    ext.moduli = moduli
                    ext.degree = self.key_basis.degree
                    ext.ntts = (
                        self.key_basis.ntts[: level + 1]
                        + self.key_basis.ntts[len(self.cipher_basis):]
                    )
                    ext._inv_last = {}
                    self._ext_bases[level] = ext
        return ext

    def _key_rows(self, level: int) -> tuple[tuple[slice, slice], ...]:
        """``(key rows, extended-basis rows)`` ranges for one level.

        The whole key basis at the top level, otherwise its first
        ``level+1`` cipher limbs and its trailing specials, each with the
        rows of the extended basis it lands on — basic slices, so
        indexing a key with them yields views, never copies.
        """
        num_cipher = len(self.cipher_basis)
        if level + 1 == num_cipher:
            return ((slice(None), slice(None)),)
        low = slice(0, level + 1)
        return ((low, low), (slice(num_cipher, None), slice(level + 1, None)))

    def _restrict_key_poly(self, poly: RnsPoly, level: int) -> RnsPoly:
        """Select the rows of a key-basis polynomial matching level+specials."""
        rows = np.concatenate(
            [poly.residues[key_rows] for key_rows, _ in self._key_rows(level)]
        )
        return RnsPoly(self._extended_basis(level), rows, poly.is_ntt)

    def _decompose(self, d: RnsPoly) -> HoistedDecomposition:
        """Digit decomposition + mod-up of ``d`` (the hoistable half).

        One inverse NTT of ``d``, one vectorised residue lift of every
        digit into the extended basis (via the basis' precomputed modulus
        column), and one batched forward NTT over all ``(level+1) * K``
        rows.
        """
        level = len(d.basis) - 1
        ext = self._extended_basis(level)
        d_coeff = d.to_coeff()
        lifted = modmath.mod_reduce(
            d_coeff.residues[:, None, :], ext.moduli_col[None, :, :]
        )
        return HoistedDecomposition(level, ext, ext.ntt_forward(lifted))

    def _inner_product(
        self, digits: np.ndarray, ksk: KeySwitchKey, level: int
    ) -> tuple[RnsPoly, RnsPoly]:
        """Fold decomposed digits with a key: the per-rotation cheap half.

        Each modular product is reduced below ``2^50``, so summing the
        ``level+1`` digit terms in plain uint64 cannot wrap and one final
        ``np.mod`` replaces a chain of modular additions.
        """
        ext = self._extended_basis(level)
        stack = ksk.stack[:, : level + 1]
        acc = np.empty((2, len(ext), ext.degree), dtype=np.uint64)
        for key_rows, ext_rows in self._key_rows(level):
            q = ext.moduli_col[ext_rows]
            # one fused pass over both key halves, on (2, digits, rows, N)
            # views of the key
            prods = modmath.mul_mod(
                digits[None, :, ext_rows], stack[:, :, key_rows], q)
            acc[:, ext_rows] = modmath.mod_reduce(
                np.add.reduce(prods, axis=1), q)
        return (
            RnsPoly(ext, acc[0], is_ntt=True),
            RnsPoly(ext, acc[1], is_ntt=True),
        )

    def _mod_down_pair(
        self, acc_b: RnsPoly, acc_a: RnsPoly
    ) -> tuple[RnsPoly, RnsPoly]:
        """Scale the key-switch accumulator pair back down by the specials."""
        num_special = len(self.key_basis) - len(self.cipher_basis)
        down_b, down_a = mod_down_stack([acc_b, acc_a], num_special)
        return down_b, down_a

    def _key_switch(self, d: RnsPoly, ksk: KeySwitchKey,
                    galois: int | None = None) -> tuple[RnsPoly, RnsPoly]:
        """Return (b, a) with b + a*s ≈ d * target over d's basis.

        With ``galois`` the decomposed digits are first permuted by that
        automorphism, so the pair switches ``sigma_galois(d)`` instead.
        """
        decomp = self._decompose(d)
        digits = decomp.digits if galois is None else decomp.permuted(galois)
        acc_b, acc_a = self._inner_product(digits, ksk, decomp.level)
        return self._mod_down_pair(acc_b, acc_a)

    def relinearize(self, a: Ciphertext) -> Ciphertext:
        """Reduce a 3-part ciphertext back to 2 parts (paper `relin`)."""
        if a.size == 2:
            return a.copy()
        if self.keys.relin is None:
            raise ParameterError("no relinearisation key generated")
        ks_b, ks_a = self._key_switch(a.parts[2], self.keys.relin)
        return Ciphertext(
            [a.parts[0] + ks_b, a.parts[1] + ks_a], a.scale, a.slots_in_use
        )

    def multiply_relin(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.relinearize(self.multiply(a, b))

    def _galois_key(self, steps: int) -> tuple[int, KeySwitchKey]:
        """Galois element and exact key of a nonzero rotation step."""
        galois = rotation_galois_element(steps, self.params.poly_degree)
        ksk = self.keys.rotations.get(galois)
        if ksk is None:
            raise KeyError_(
                f"no rotation key for step {steps}; the key set must "
                "hold every step the program rotates by (rotation-key "
                "analysis lists them)"
            )
        return galois, ksk

    def rotate(self, a: Ciphertext, steps: int,
               keep: bool = False) -> Ciphertext:
        """Cyclically rotate the slot vector left by ``steps``.

        The rotation needs a key for the exact step and raises
        :class:`~repro.errors.KeyError_` naming the step without one; the
        compiler's key-analysis pass generates exactly the steps a
        program uses (paper §4.4).  This is the one place a rotation
        looks up its key and decomposes its source.

        ``keep`` says more rotations of ``a`` follow.  The rotation
        reuses the decomposition ``a.hoisted`` holds, or computes it, and
        leaves it on ``a`` only if ``keep`` is set; a call with
        ``keep=False`` always leaves ``a`` holding nothing.  Results are
        bit-identical to rotating without ``keep``.

        The automorphism acts on the decomposed digits as an NTT-domain
        permutation; digits stay small (coefficients bounded by their
        source prime in absolute value), so the usual key-switch noise
        analysis is untouched, and because the gadget recombination
        commutes with the automorphism mod Q the result decrypts to
        ``sigma_g(m)`` exactly as the decompose-after-rotate order does.
        """
        held = a.hoisted
        if not keep:
            a.hoisted = None
        if steps % (self.params.poly_degree // 2) == 0:
            return a.copy()
        galois, ksk = self._galois_key(steps)
        if a.size != 2:
            raise ParameterError("relinearise before rotating")
        decomp = held if held is not None else self._decompose(a.parts[1])
        if keep:
            a.hoisted = decomp
        acc_b, acc_a = self._inner_product(
            decomp.permuted(galois), ksk, decomp.level
        )
        ks_b, ks_a = self._mod_down_pair(acc_b, acc_a)
        return Ciphertext([a.parts[0].automorphism(galois) + ks_b, ks_a],
                          a.scale, a.slots_in_use)

    def rotate_hoisted(
        self, a: Ciphertext, steps_list: list[int]
    ) -> dict[int, Ciphertext]:
        """Rotate one ciphertext by many steps, sharing the decomposition.

        A loop of :meth:`rotate` that keeps the decomposition on ``a``
        until the last distinct step, so the digit decomposition + mod-up
        (the dominant cost of a rotation) runs once; each step then pays
        only a digit permutation, the key inner product, and the
        mod-down.  Returns ``{step: rotated}`` keyed by the steps as
        given, and leaves ``a`` holding nothing.  Every step's key is
        checked before anything is decomposed.
        """
        steps = list(dict.fromkeys(steps_list))
        for step in steps:
            if step % (self.params.poly_degree // 2):
                self._galois_key(step)
        last = len(steps) - 1
        return {step: self.rotate(a, step, keep=i < last)
                for i, step in enumerate(steps)}

    def conjugate(self, a: Ciphertext) -> Ciphertext:
        if self.keys.conjugation is None:
            raise ParameterError("no conjugation key generated")
        if a.size != 2:
            raise ParameterError("relinearise before rotating")
        galois = conjugation_galois_element(self.params.poly_degree)
        ks_b, ks_a = self._key_switch(a.parts[1], self.keys.conjugation,
                                      galois)
        return Ciphertext([a.parts[0].automorphism(galois) + ks_b, ks_a],
                          a.scale, a.slots_in_use)
