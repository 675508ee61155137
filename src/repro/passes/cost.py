"""The one op pricer: analytic RNS-CKKS cost model over ops, traces and IR.

Converts an operation kind and limb count — read from an
:class:`~repro.backend.trace.OpTrace` (op, limb-count, region-tag
aggregates) or from the ops of a VECTOR / SIHE / CKKS function — into
estimated single-thread seconds, using the asymptotic costs of §2.3 —
multiplications and rotations are ``O(N log N * r^2)`` (key switching
dominates), additions ``O(N * r)``, bootstrapping linear in the
refreshed level (§4.4) — with constants calibrated against the real
:class:`ExactBackend` kernels.

Every cost-aware decision of the compiler (the optimizer's gates, the
level replanner, the layout search and its adoption) and the evaluation
harness price through this module, so they are judged by one yardstick;
it sits below ``repro.passes.opt`` and imports nothing above ``ir``.

Absolute numbers depend on the host; the *relative* ACE-vs-Expert shape
(Figure 6) comes from op counts, limb counts and bootstrap targets, which
are real properties of the two programs.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, replace

from repro.backend.trace import OpTrace
from repro.ir.core import Function, Op, Value
from repro.ir.types import Cipher3Type

#: opcode -> priced kind for the ``vector.*``, ``sihe.*`` and ``ckks.*``
#: dialects; an opcode absent here is free.  ``ckks.mul`` is absent on
#: purpose: pricing it moves the replanner's decisions and every
#: recorded ``predicted_seconds``, so it waits for pricing from the POLY
#: expansion (ROADMAP item 10).
_KIND = {
    "ckks.add": "add", "ckks.sub": "sub", "ckks.neg": "negate",
    "ckks.relin": "relin", "ckks.rotate": "rotate",
    "ckks.conjugate": "conjugate", "ckks.rescale": "rescale",
    "ckks.modswitch": "modswitch", "ckks.upscale": "upscale",
    "ckks.bootstrap": "bootstrap", "ckks.encode": "encode",
    "sihe.add": "add", "sihe.sub": "sub", "sihe.neg": "negate",
    "sihe.rotate": "rotate", "sihe.mul": "mul",
    "vector.roll": "rotate", "vector.mul": "mul_plain",
    "vector.add": "add",
    "vector.relu": "nonlinear", "vector.nonlinear": "nonlinear",
}

#: limbs assumed for a value without a planned ``level`` in its meta
#: (VECTOR / SIHE IR, hand-built CKKS IR); a constant is fine because
#: every candidate of one model is priced under the same assumption
DEFAULT_LIMBS = 8

#: modeled work of one nonlinearity (sign-iteration ladder) in
#: (mul + relin) pairs; identical across layout candidates — layout
#: choices never change the nonlinearity count — but keeping it in the
#: total stops a ratio of two candidates' costs from pricing the linear
#: regions alone
_NONLINEAR_PAIRS = 8

#: process-wide calibration memo: measuring the host's kernel constants
#: costs real wall-clock (ExactBackend keygen + timed ops), and the
#: layout autotuner asks for the same ``(poly_degree, special_primes)``
#: model once per candidate costing.  Same double-checked-lock shape as
#: ``repro.polymath.ntt.stacked_tables``: check, re-check under the
#: lock, measure *outside* the lock, publish via ``setdefault``.
_calibration_memo: dict[tuple[int, int, int], "CostModel"] = {}
_calibration_lock = threading.Lock()


def cheaper(new: float, old: float) -> bool:
    """The one adoption rule: ``new`` prices strictly below ``old``.

    Relative 1e-12, so float noise never flips a decision and a tie
    keeps the current program."""
    return new < old * (1.0 - 1e-12)


@dataclass
class CostModel:
    """Per-op timing formulas, parameterised by ring degree N."""

    poly_degree: int = 8192
    num_special_primes: int = 1
    #: seconds per (N log2 N) butterfly unit — NTT/pointwise kernels
    c_ntt: float = 2.0e-9
    #: seconds per (N * limb) element-wise modular op
    c_eltwise: float = 1.5e-9
    #: bootstrap: seconds per (target_level+1) * N log2 N unit
    c_boot: float = 6.0e-8
    #: target-independent bootstrap work, in limb-equivalents of
    #: ``c_boot``: the ModRaise plus the CtS/EvalMod/StC stages run on
    #: the refresh's own depth of levels *above* the target whatever the
    #: target is, so most of a refresh's cost survives any retargeting —
    #: which is exactly why *deleting* a refresh (the level replanner's
    #: job) is worth so much more than lowering its target.
    boot_base_limbs: float = 24.0
    #: fixed per-op dispatch overhead
    c_fixed: float = 2.0e-6

    def _nlogn(self) -> float:
        n = self.poly_degree
        return n * math.log2(n)

    def op_seconds(self, op: str, limbs: int) -> float:
        """Estimated single-thread seconds for one operation."""
        n = self.poly_degree
        unit = self._nlogn()
        k = self.num_special_primes
        if op in ("add", "sub", "negate", "add_plain", "sub_plain",
                  "modswitch", "upscale"):
            return self.c_fixed + self.c_eltwise * n * limbs
        if op in ("mul_plain", "mul"):
            parts = 4 if op == "mul" else 2
            return self.c_fixed + self.c_eltwise * n * limbs * parts
        if op in ("relin", "rotate", "conjugate"):
            # digit-decomposed key switch: `limbs` digits, each an NTT at
            # limbs+k residues plus multiply-accumulates
            digits = limbs
            ext = limbs + k
            ntts = digits * ext + 2 * ext          # digit NTTs + mod-down
            muladds = 2 * digits * ext
            return (
                self.c_fixed
                + self.c_ntt * unit * ntts
                + self.c_eltwise * n * muladds
            )
        if op == "rescale":
            return self.c_fixed + self.c_ntt * unit * 2 * limbs
        if op == "bootstrap":
            # `limbs` records target_level+1 (set by the backends); the
            # variable term is linear in the refreshed level (the §4.4
            # optimisation lever), on top of the target-independent
            # full-chain stages (``boot_base_limbs``).
            return (self.c_fixed
                    + self.c_boot * unit * (self.boot_base_limbs + limbs))
        if op in ("encrypt", "decrypt", "encode"):
            return self.c_fixed + self.c_ntt * unit * limbs
        return self.c_fixed

    def hoisted_rotation_seconds(self, limbs: int, count: int) -> float:
        """Seconds for ``count`` rotations of one ciphertext under hoisting.

        The runtime shares a single digit decomposition across every
        rotation of the same input (PR-2 hoisted path): the
        ``digits * ext`` decomposition NTTs are paid once per batch, and
        each rotation then costs only its mod-down NTTs and
        multiply-accumulates.  Costing the batch per-rotation over-prices
        BSGS regions by nearly the full decomposition each step, which
        made the optimizer's gates too timid about rotation-heavy plans.
        """
        if count <= 1:
            return self.op_seconds("rotate", limbs) * max(count, 0)
        n = self.poly_degree
        unit = self._nlogn()
        digits = limbs
        ext = limbs + self.num_special_primes
        ntts = digits * ext + count * 2 * ext   # one decomposition + mod-downs
        muladds = count * 2 * digits * ext
        return (
            count * self.c_fixed
            + self.c_ntt * unit * ntts
            + self.c_eltwise * n * muladds
        )

    def trace_seconds(self, trace: OpTrace) -> dict[str, float]:
        """Seconds per region tag for a recorded trace."""
        out: dict[str, float] = {}
        for (tag, op, limbs), count in trace.counts.items():
            out[tag] = out.get(tag, 0.0) + count * self.op_seconds(op, limbs)
        return out

    def total_seconds(self, trace: OpTrace) -> float:
        return sum(self.trace_seconds(trace).values())

    # -- IR pricing ---------------------------------------------------------

    def limbs_of(self, value: Value) -> int:
        """Limbs of a value: planned level + 1 when ``Value.meta``
        carries scale-management metadata, else ``DEFAULT_LIMBS``."""
        level = value.meta.get("level") if value.meta else None
        return (level + 1) if level is not None else DEFAULT_LIMBS

    def op_cost(self, op: Op, limb_shift: int = 0) -> float:
        """Estimated seconds for one op; ``limb_shift`` prices the same
        op as if it ran that many levels higher on the chain (the level
        replanner uses this to cost keeping a region deep instead of
        refreshing)."""
        kind = _KIND.get(op.opcode)
        if kind is None:
            return 0.0
        limbs = self.limbs_of(op.results[0]) if op.results \
            else DEFAULT_LIMBS
        limbs = max(limbs + limb_shift, 1)
        if kind == "nonlinear":
            return _NONLINEAR_PAIRS * (
                self.op_seconds("mul", limbs)
                + self.op_seconds("relin", limbs)
            )
        cost = self.op_seconds(kind, limbs)
        if kind in ("add", "sub", "mul_plain", "negate") and any(
                isinstance(o.type, Cipher3Type) for o in op.operands):
            cost *= 1.5  # three polynomial parts instead of two
        return cost

    def key_switch_cost(self, limbs: int) -> float:
        return self.op_seconds("relin", limbs)

    def extra_part_cost(self, limbs: int) -> float:
        """Added cost of carrying one extra ciphertext part through an
        element-wise op (the price of deferring a relinearisation)."""
        return self.op_seconds("mul_plain", limbs) * 0.5

    def function_cost(self, fn: Function) -> float:
        """Modeled seconds for a whole function, run in program order.

        Rotations sharing one source ciphertext are costed as a batch at
        a single shared digit decomposition
        (:meth:`hoisted_rotation_seconds`) — per-rotation pricing
        over-penalised BSGS regions and skewed every cost gate that
        compares rotation-heavy candidates.  This is a pricing
        convention, not what executes today: no compiled program
        reaches ``ExactBackend.rotate_hoisted``, so every ``ckks.rotate``
        still pays its own decomposition (ROADMAP, "Hoisted rotations in
        the compiled path").
        """
        total = 0.0
        rotation_batches: dict[int, list[Op]] = {}
        for op in fn.body:
            if _KIND.get(op.opcode) == "rotate":
                rotation_batches.setdefault(
                    op.operands[0].id, []).append(op)
            else:
                total += self.op_cost(op)
        for batch in rotation_batches.values():
            limbs = self.limbs_of(batch[0].results[0])
            total += self.hoisted_rotation_seconds(limbs, len(batch))
        return total

    # -- calibration ------------------------------------------------------

    @classmethod
    def calibrated(cls, poly_degree: int, num_special_primes: int = 1,
                   sample_degree: int = 1024) -> "CostModel":
        """Fit the constants against real ExactBackend kernels.

        Runs a handful of operations at a small ring degree and scales the
        measured unit costs; keeps the model honest about this host.

        The measurement is memoised process-wide per
        ``(poly_degree, num_special_primes, sample_degree)``; callers get
        a private copy, so mutating a returned model never poisons the
        cache.
        """
        key = (poly_degree, num_special_primes, sample_degree)
        hit = _calibration_memo.get(key)
        if hit is None:
            with _calibration_lock:
                hit = _calibration_memo.get(key)
            if hit is None:
                built = cls._calibrate(poly_degree, num_special_primes,
                                       sample_degree)
                with _calibration_lock:
                    hit = _calibration_memo.setdefault(key, built)
        return replace(hit)

    @classmethod
    def _calibrate(cls, poly_degree: int, num_special_primes: int,
                   sample_degree: int) -> "CostModel":
        from repro.backend import ExactBackend
        from repro.ckks import CkksParameters

        params = CkksParameters(
            poly_degree=sample_degree, scale_bits=30, first_prime_bits=40,
            num_levels=3,
        )
        be = ExactBackend(params, rotation_steps=[1], seed=0)
        x = [0.5] * (sample_degree // 2)
        ct = be.encrypt(x)
        pt = be.encode(x, be.config.scale, be.config.max_level)

        def time_it(fn, reps=3):
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - start)
            return best

        unit = sample_degree * math.log2(sample_degree)
        limbs = params.num_levels + 1
        t_mul = time_it(lambda: be.mul_plain(ct, pt))
        t_rot = time_it(lambda: be.rotate(ct, 1))
        model = cls(poly_degree=poly_degree,
                    num_special_primes=num_special_primes)
        model.c_eltwise = max(t_mul / (sample_degree * limbs * 2), 1e-10)
        digits = limbs
        ext = limbs + 1
        ntts = digits * ext + 2 * ext
        model.c_ntt = max(t_rot / (unit * ntts), 1e-11)
        model.c_boot = model.c_ntt * 30.0  # CtS+EvalMod+StC per level
        return model

