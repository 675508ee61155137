"""CKKS IR -> POLY IR lowering (paper §4.5).

Every CKKS operation decomposes into RNS polynomial operations.  Two
modes:

* **stats** — analytic expansion: for each CKKS op, count the POLY-level
  ops (at ACEfhe's fused-API granularity: ``decomp_modup``,
  ``hw_modmuladd``, RNS-fused loops) and the per-limb ``hw_*`` ops they
  execute.  Scales to ResNet-sized programs; feeds the cost model.
* **full** — materialise an actual POLY IR function (``main_poly``),
  including unrolled key-switch digit loops.  Used for small programs
  (e.g. the paper's linear_infer example, whose POLY IR line count §4.5
  quotes) and for POLY-level differential execution.

The fusion optimisations of Table 2 (polynomial operator fusion, RNS loop
fusion) are applied during emission: multiply-accumulate chains become
``poly.muladd`` and digit decomposition fuses with base extension into
``poly.decomp_modup``.
"""

from __future__ import annotations

from collections import Counter

from repro.backend.interface import SchemeConfig
from repro.errors import LoweringError
from repro.ir import IRBuilder, Module, PolyType
from repro.ir.core import Function, Value
from repro.ir.dialects.poly_ops import HW_EXPANSION, hw_op_counts
from repro.ir.types import CipherType, Cipher3Type, PlainType, VectorType


def _limbs(value: Value, scheme: SchemeConfig) -> int:
    level = value.meta.get("level")
    if level is None:
        level = scheme.max_level
    return level + 1


class _StatsEmitter:
    """Counts POLY ops without materialising IR."""

    def __init__(self):
        self.poly_ops: Counter = Counter()
        self.hw_ops: Counter = Counter()
        self.lines = 0

    def emit(self, opcode: str, limbs: int, count: int = 1):
        self.poly_ops[opcode] += count
        self.lines += count
        entry = HW_EXPANSION.get(opcode)
        if entry is not None:
            hw, mult = entry
            self.hw_ops[hw] += limbs * count * mult


def _expand_op(op, scheme: SchemeConfig, emit) -> None:
    """Shared expansion rules: calls emit(poly_opcode, limbs, count)."""
    code = op.opcode
    if code.startswith("vector.") or code in ("ckks.encode", "ckks.decode"):
        return
    result = op.results[0] if op.results else None
    limbs = _limbs(result, scheme) if result is not None else 1
    specials = scheme.num_special_primes
    if code in ("ckks.add", "ckks.sub"):
        parts = 3 if isinstance(op.operands[0].type, Cipher3Type) else 2
        if isinstance(op.operands[1].type, PlainType):
            parts = 1  # only c0 changes for cipher(+)plain
        emit("poly.add" if code == "ckks.add" else "poly.sub", limbs, parts)
        return
    if code == "ckks.neg":
        emit("poly.neg", limbs, 2)
        return
    if code == "ckks.mul":
        if isinstance(op.operands[1].type, PlainType):
            emit("poly.mul", limbs, 2)
        else:
            emit("poly.mul", limbs, 4)
            emit("poly.add", limbs, 1)
        return
    if code in ("ckks.relin", "ckks.rotate", "ckks.conjugate"):
        digits = limbs
        ext = limbs + specials
        if code != "ckks.relin":
            emit("poly.automorphism", limbs, 2)
        emit("poly.intt", limbs, 1)  # digits extracted in coeff form
        emit("poly.decomp_modup", ext, digits)
        emit("poly.ntt", ext, digits)
        emit("poly.muladd", ext, 2 * digits)
        emit("poly.mod_down", ext, 2)
        if code == "ckks.relin":
            emit("poly.add", limbs, 2)
        else:
            emit("poly.add", limbs, 1)
        return
    if code == "ckks.rescale":
        emit("poly.rescale", limbs, 2)
        return
    if code == "ckks.modswitch":
        emit("poly.mod_drop", limbs, 2)
        return
    if code in ("ckks.upscale", "ckks.downscale"):
        emit("poly.mul", limbs, 2)
        return
    if code == "ckks.bootstrap":
        # ModRaise + CtS + EvalMod + StC; modelled as an opaque macro-op
        # whose cost the cost model charges separately.
        emit("poly.bootstrap", scheme.max_level + 1, 1)
        return
    raise LoweringError(f"no POLY expansion for {code}")


def poly_statistics(fn: Function, scheme: SchemeConfig, full: bool = False,
                    module: Module | None = None) -> dict:
    """Expand a CKKS function to POLY level (stats, optionally full IR)."""
    stats = _StatsEmitter()
    for op in fn.body:
        _expand_op(op, scheme, stats.emit)
    out = {
        "poly_ops": dict(stats.poly_ops),
        "hw_ops": dict(stats.hw_ops),
        "poly_ir_lines": stats.lines,
    }
    if full:
        if module is None:
            raise LoweringError("full POLY lowering needs the module")
        poly_fn = materialize_poly_function(module, fn, scheme)
        out["poly_function"] = poly_fn.name
        out["poly_ir_lines"] = len(poly_fn.body)
        out["hw_ops_full"] = dict(hw_op_counts(poly_fn))
    return out


def materialize_poly_function(module: Module, fn: Function,
                              scheme: SchemeConfig) -> Function:
    """Build an explicit POLY IR function mirroring the CKKS function.

    Ciphertexts become tuples of Poly values; key switching unrolls its
    digit loop with ``poly.decomp_modup`` + fused ``poly.muladd`` per
    digit, exactly the §4.5 structure.
    """
    degree = scheme.poly_degree
    specials = scheme.num_special_primes
    params: list[Value] = []
    env: dict[int, tuple[Value, ...]] = {}
    for p in fn.params:
        limbs = scheme.max_level + 1
        c0 = Value(PolyType(degree, limbs), f"{p.name}_c0")
        c1 = Value(PolyType(degree, limbs), f"{p.name}_c1")
        params.extend([c0, c1])
        env[p.id] = (c0, c1)
    poly_fn = Function("main_poly", params)
    builder = IRBuilder(module, poly_fn)
    module.functions.pop("main_poly", None)

    def const_poly(limbs: int, hint: str) -> Value:
        return builder.emit(
            "poly.constant", [],
            {"const_name": hint, "degree": degree, "limbs": limbs},
            name_hint=hint,
        )

    def key_digit(key: str, digit: int, part: int, limbs: int) -> Value:
        return builder.emit(
            "poly.load_key", [],
            {"key": key, "digit": digit, "part": part,
             "degree": degree, "limbs": limbs},
            name_hint=f"{key}{digit}{part}",
        )

    def keyswitch(d: Value, key: str, limbs: int):
        ext = limbs + specials
        d_coeff = builder.emit("poly.intt", [d], name_hint="ks_coeff")
        acc0 = acc1 = None
        for j in range(limbs):
            dig = builder.emit(
                "poly.decomp_modup", [d_coeff],
                {"digit": j, "limbs": ext}, name_hint="dig",
            )
            dig = builder.emit("poly.ntt", [dig], name_hint="dign")
            kb = key_digit(key, j, 0, ext)
            ka = key_digit(key, j, 1, ext)
            if acc0 is None:
                acc0 = builder.emit("poly.mul", [dig, kb], name_hint="acc0")
                acc1 = builder.emit("poly.mul", [dig, ka], name_hint="acc1")
            else:
                acc0 = builder.emit("poly.muladd", [dig, kb, acc0],
                                    name_hint="acc0")
                acc1 = builder.emit("poly.muladd", [dig, ka, acc1],
                                    name_hint="acc1")
        down0 = builder.emit("poly.mod_down", [acc0], {"count": specials},
                             name_hint="down0")
        down1 = builder.emit("poly.mod_down", [acc1], {"count": specials},
                             name_hint="down1")
        return down0, down1

    for op in fn.body:
        code = op.opcode
        if code.startswith("vector."):
            continue
        if code == "ckks.encode":
            level = op.attrs.get("level", scheme.max_level)
            source = op.operands[0].producer
            vec_name = source.attrs.get("const_name") if source else None
            pt = builder.emit(
                "poly.constant", [],
                {"const_name": vec_name or "pt",
                 "scale": op.attrs.get("scale"),
                 "level": level,
                 "degree": degree, "limbs": level + 1},
                name_hint="pt",
            )
            env[op.results[0].id] = (pt,)
            continue
        args = [env.get(o.id) for o in op.operands]
        result = op.results[0] if op.results else None
        limbs = _limbs(result, scheme) if result is not None else 1
        if code in ("ckks.add", "ckks.sub"):
            pc = "poly.add" if code == "ckks.add" else "poly.sub"
            a, b = args
            if len(b) == 1:  # plaintext: only c0 is touched
                c0 = builder.emit(pc, [a[0], b[0]])
                env[op.results[0].id] = (c0, *a[1:])
            else:
                parts = tuple(
                    builder.emit(pc, [x, y]) for x, y in zip(a, b)
                )
                extra = a[len(parts):] if len(a) > len(b) else b[len(parts):]
                env[op.results[0].id] = parts + tuple(extra)
            continue
        if code == "ckks.neg":
            env[op.results[0].id] = tuple(
                builder.emit("poly.neg", [x]) for x in args[0]
            )
            continue
        if code == "ckks.mul":
            a, b = args
            if len(b) == 1:  # cipher * plain
                env[op.results[0].id] = tuple(
                    builder.emit("poly.mul", [x, b[0]]) for x in a
                )
            else:  # cipher * cipher -> 3 parts
                d0 = builder.emit("poly.mul", [a[0], b[0]])
                t = builder.emit("poly.mul", [a[0], b[1]])
                d1 = builder.emit("poly.muladd", [a[1], b[0], t])
                d2 = builder.emit("poly.mul", [a[1], b[1]])
                env[op.results[0].id] = (d0, d1, d2)
            continue
        if code == "ckks.relin":
            c0, c1, c2 = args[0]
            ks0, ks1 = keyswitch(c2, "relin", limbs)
            env[op.results[0].id] = (
                builder.emit("poly.add", [c0, ks0]),
                builder.emit("poly.add", [c1, ks1]),
            )
            continue
        if code in ("ckks.rotate", "ckks.conjugate"):
            from repro.polymath.poly import (
                conjugation_galois_element,
                rotation_galois_element,
            )

            if code == "ckks.rotate":
                galois = rotation_galois_element(op.attrs["steps"], degree)
            else:
                galois = conjugation_galois_element(degree)
            c0, c1 = args[0]
            r0 = builder.emit("poly.automorphism", [c0],
                              {"galois": galois})
            r1 = builder.emit("poly.automorphism", [c1],
                              {"galois": galois})
            key = f"rot_{galois}" if code == "ckks.rotate" else "conj"
            ks0, ks1 = keyswitch(r1, key, limbs)
            env[op.results[0].id] = (
                builder.emit("poly.add", [r0, ks0]),
                ks1,
            )
            continue
        if code == "ckks.rescale":
            env[op.results[0].id] = tuple(
                builder.emit("poly.rescale", [x]) for x in args[0]
            )
            continue
        if code == "ckks.modswitch":
            count = op.attrs.get("levels", 1)
            env[op.results[0].id] = tuple(
                builder.emit("poly.mod_drop", [x], {"count": count})
                for x in args[0]
            )
            continue
        if code in ("ckks.upscale", "ckks.downscale"):
            scalar = const_poly(args[0][0].type.limbs, "scalar")
            env[op.results[0].id] = tuple(
                builder.emit("poly.mul", [x, scalar]) for x in args[0]
            )
            continue
        if code == "ckks.bootstrap":
            # opaque at POLY granularity; see module docstring
            c0, c1 = args[0]
            fresh = scheme.max_level + 1 if op.attrs.get(
                "target_level") is None else op.attrs["target_level"] + 1
            env[op.results[0].id] = (
                const_poly(fresh, "boot_c0"),
                const_poly(fresh, "boot_c1"),
            )
            continue
        raise LoweringError(f"no POLY materialisation for {code}")
    last = fn.returns
    poly_fn.returns = [v for ret in last for v in env[ret.id]]
    module.add_function(poly_fn)
    return poly_fn
