"""POLY IR dialect (paper Table 7).

Every CKKS operation decomposes into RNS polynomial operations.  We model
the IR at the *fused-operator* granularity ACEfhe's optimised APIs expose
(``decomp_modup``, ``hw_modmuladd``, RNS-loop-fused ops): each op carries
its limb count in its :class:`~repro.ir.types.PolyType`, so the trip count
of the implicit RNS loop is a compile-time constant exactly as in §4.5.
A ciphertext becomes two (or three) Poly values; key-switching expands
into explicit digit loops referencing key material by name.

The per-limb ``hw_*`` operators of Table 7 are registered too; the
expansion statistics utility (:func:`hw_op_counts`) reports how many of
each a function would execute — this is what the §4.5 "331 lines of POLY
IR" style numbers are computed from.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import IRTypeError
from repro.ir.registry import OPS
from repro.ir.types import PolyType


def _poly(types, i, opcode):
    t = types[i]
    if not isinstance(t, PolyType):
        raise IRTypeError(f"{opcode} operand {i} must be poly, got {t}")
    return t


def _same(types, opcode):
    a = _poly(types, 0, opcode)
    b = _poly(types, 1, opcode)
    if a != b:
        raise IRTypeError(f"{opcode} operand shape mismatch: {a} vs {b}")
    return a


@OPS.define("poly.constant", 0)
def _p_constant(types, attrs):
    """An encoded plaintext polynomial (attrs const_name, degree, limbs)."""
    return [PolyType(attrs["degree"], attrs["limbs"])]


@OPS.define("poly.load_key", 0)
def _p_load_key(types, attrs):
    """One digit of a key-switch key (attrs key, digit, part, limbs)."""
    return [PolyType(attrs["degree"], attrs["limbs"])]


@OPS.define("poly.add", 2)
def _p_add(types, attrs):
    """RNS loop of hw_modadd over all limbs."""
    return [_same(types, "poly.add")]


@OPS.define("poly.sub", 2)
def _p_sub(types, attrs):
    """RNS loop of hw_modsub over all limbs."""
    return [_same(types, "poly.sub")]


@OPS.define("poly.neg", 1)
def _p_neg(types, attrs):
    return [_poly(types, 0, "poly.neg")]


@OPS.define("poly.mul", 2)
def _p_mul(types, attrs):
    """RNS loop of hw_modmul (NTT-domain pointwise) over all limbs."""
    return [_same(types, "poly.mul")]


@OPS.define("poly.muladd", 3)
def _p_muladd(types, attrs):
    """Fused hw_modmuladd loop: acc + x*y (the §4.5 loop-fusion example)."""
    a = _same(types[:2], "poly.muladd")
    c = _poly(types, 2, "poly.muladd")
    if c != a:
        raise IRTypeError("poly.muladd accumulator shape mismatch")
    return [a]


@OPS.define("poly.rescale", 1)
def _p_rescale(types, attrs):
    """DivideAndRound by the last limb (drops one limb)."""
    t = _poly(types, 0, "poly.rescale")
    if t.limbs < 2:
        raise IRTypeError("poly.rescale needs at least two limbs")
    return [PolyType(t.degree, t.limbs - 1)]


@OPS.define("poly.mod_drop", 1)
def _p_mod_drop(types, attrs):
    """Drop attr count trailing limbs (modulus switching)."""
    t = _poly(types, 0, "poly.mod_drop")
    count = attrs.get("count", 1)
    if count >= t.limbs:
        raise IRTypeError("poly.mod_drop would drop all limbs")
    return [PolyType(t.degree, t.limbs - count)]


@OPS.define("poly.decomp", 1)
def _p_decomp(types, attrs):
    """Extract digit attrs['digit'] (one residue polynomial)."""
    t = _poly(types, 0, "poly.decomp")
    if not 0 <= attrs["digit"] < t.limbs:
        raise IRTypeError("poly.decomp digit out of range")
    return [PolyType(t.degree, 1)]


@OPS.define("poly.mod_up", 1)
def _p_mod_up(types, attrs):
    """Base-extend a digit to attrs['limbs'] limbs."""
    t = _poly(types, 0, "poly.mod_up")
    return [PolyType(t.degree, attrs["limbs"])]


@OPS.define("poly.decomp_modup", 1)
def _p_decomp_modup(types, attrs):
    """Fused decomp + mod_up (ACEfhe's optimised API, §4.5)."""
    t = _poly(types, 0, "poly.decomp_modup")
    if not 0 <= attrs["digit"] < t.limbs:
        raise IRTypeError("poly.decomp_modup digit out of range")
    return [PolyType(t.degree, attrs["limbs"])]


@OPS.define("poly.mod_down", 1)
def _p_mod_down(types, attrs):
    """Divide by the product of attrs['count'] trailing (special) limbs."""
    t = _poly(types, 0, "poly.mod_down")
    count = attrs["count"]
    if count >= t.limbs:
        raise IRTypeError("poly.mod_down would drop all limbs")
    return [PolyType(t.degree, t.limbs - count)]


@OPS.define("poly.automorphism", 1)
def _p_automorphism(types, attrs):
    """hw_rotate loop: X -> X^galois on every limb."""
    return [_poly(types, 0, "poly.automorphism")]


@OPS.define("poly.ntt", 1)
def _p_ntt(types, attrs):
    """hw_ntt loop over limbs."""
    return [_poly(types, 0, "poly.ntt")]


@OPS.define("poly.intt", 1)
def _p_intt(types, attrs):
    """hw_intt loop over limbs."""
    return [_poly(types, 0, "poly.intt")]


#: per-limb hardware-oriented op each fused op expands into, with its
#: per-limb multiplicity (Table 7's hw_* granularity)
HW_EXPANSION = {
    "poly.add": ("hw_modadd", 1),
    "poly.sub": ("hw_modadd", 1),
    "poly.neg": ("hw_modadd", 1),
    "poly.mul": ("hw_modmul", 1),
    "poly.muladd": ("hw_modmuladd", 1),
    "poly.rescale": ("hw_modmul", 1),
    "poly.automorphism": ("hw_rotate", 1),
    "poly.ntt": ("hw_ntt", 1),
    "poly.intt": ("hw_intt", 1),
    "poly.mod_up": ("hw_modmul", 1),
    "poly.decomp_modup": ("hw_modmul", 1),
    "poly.mod_down": ("hw_modmul", 1),
}


def hw_op_counts(fn) -> Counter:
    """Expand a POLY-IR function into per-limb hw_* operation counts."""
    counts: Counter = Counter()
    for op in fn.body:
        entry = HW_EXPANSION.get(op.opcode)
        if entry is None:
            continue
        hw, mult = entry
        limbs = (
            op.results[0].type.limbs
            if op.results and isinstance(op.results[0].type, PolyType)
            else 1
        )
        counts[hw] += limbs * mult
    return counts
