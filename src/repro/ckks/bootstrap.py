"""CKKS bootstrapping (paper §2.1, §4.4).

Follows the classic HEAAN recipe:

1. **ModRaise** — reinterpret a level-0 ciphertext over the target level
   plus the levels the refresh itself consumes (the full modulus chain
   for the default, maximal target).  The underlying plaintext becomes
   ``m + q0 * I`` for a small integer polynomial I (|I| bounded by the
   sparse-secret Hamming weight).
2. **CoeffToSlot** — homomorphic DFT moving the polynomial *coefficients*
   into the *slots* so the modular reduction can be evaluated slot-wise.
   Because a ciphertext holds N/2 slots and the polynomial has N
   coefficients, this step yields two ciphertexts (low/high halves); the
   factor ``1/q0`` is folded into the transform so slots become
   ``I + m/q0``.
3. **EvalMod** — evaluate ``x mod 1`` via the scaled sine: compute
   ``exp(2*pi*i*x / 2^r)`` with a Taylor polynomial, square r times, and
   take the imaginary part with one conjugation.
4. **SlotToCoeff** — inverse DFT back to coefficient packing, recombining
   the two halves into one refreshed ciphertext.

The refreshed ciphertext sits at a configurable *target level*; ANT-ACE's
bootstrap-placement pass exploits exactly this knob ("only bootstrap a
ciphertext to the minimal levels needed", §4.4) — the cost model charges
less for lower targets, and the `min_target_level` path is what Figure 6's
Bootstrap reduction comes from.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.linear import LinearTransform, apply_hoisted_batch
from repro.ckks.polyeval import evaluate_polynomial, polynomial_depth
from repro.errors import NoiseBudgetExhausted, ParameterError
from repro.polymath.rns import RnsPoly


class Bootstrapper:
    """Precomputed bootstrapping machinery for one CKKS context."""

    def __init__(
        self,
        ev: CkksEvaluator,
        taylor_degree: int = 7,
        target_level: int | None = None,
    ):
        self.ev = ev
        params = ev.params
        n = params.poly_degree
        slots = params.num_slots
        self.taylor_degree = taylor_degree
        h = params.secret_hamming_weight or n
        #: bound on |I| after ModRaise (HEAAN heuristic h/2 + small slack)
        self.overflow_bound = max(2.0, h / 2 + 2)
        # doubling count r: shrink the Taylor argument below ~0.25 rad
        self.num_doublings = max(
            1, math.ceil(math.log2(2 * math.pi * (self.overflow_bound + 0.5) / 0.25))
        )
        zeta = np.exp(2j * np.pi / (2 * n))
        exps = np.empty(slots, dtype=np.int64)
        acc = 1
        for t in range(slots):
            exps[t] = acc
            acc = (acc * 5) % (2 * n)
        # U[t, j] = zeta^(j * 5^t): slots = U @ coeffs
        j_idx = np.arange(n)
        u_matrix = zeta ** (np.outer(exps, j_idx) % (2 * n))
        u_h = np.conj(u_matrix.T)  # N x N/2
        # CoeffToSlot halves (1/q0 is folded into the EvalMod argument
        # constant instead — 1/(N*q0) here would underflow the plaintext
        # encoding):
        self._cts_low = LinearTransform(u_h[:slots, :] / n)
        self._cts_high = LinearTransform(u_h[slots:, :] / n)
        # SlotToCoeff halves: z = U_left @ m_low + U_right @ m_high
        self._stc_left = LinearTransform(u_matrix[:, :slots])
        self._stc_right = LinearTransform(u_matrix[:, slots:])
        self.depth = self._total_depth()
        max_target = params.max_level - self.depth
        if max_target < 1:
            raise ParameterError(
                f"chain too short to bootstrap: depth {self.depth} needs "
                f"at least {self.depth + 1} levels, have {params.max_level}"
            )
        self.target_level = target_level if target_level is not None else max_target
        if self.target_level > max_target:
            raise ParameterError(
                f"target level {self.target_level} unreachable; max {max_target}"
            )

    def _total_depth(self) -> int:
        # CtS (1) + argument scaling (2) + Taylor + doublings +
        # imaginary-part extraction constant (1) + StC (1) +
        # final scale alignment (1)
        return 6 + polynomial_depth(self.taylor_degree) + self.num_doublings

    def required_rotations(self) -> list[int]:
        steps = set()
        for lt in (self._cts_low, self._cts_high, self._stc_left, self._stc_right):
            steps.update(lt.required_rotations())
        return sorted(steps)

    # ------------------------------------------------------------------

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a low-level ciphertext over a longer chain.

        Only the ``depth`` levels the refresh consumes are raised above
        the target (§4.4, "bootstrap to the minimal level"): limbs past
        that would ride through every key switch of the pipeline just to
        be dropped at the end.
        """
        ev = self.ev
        full = ev.basis_at(self.target_level + self.depth)
        q0 = ct.basis.moduli[0]
        parts = []
        for part in ct.parts:
            coeffs = part.to_coeff().residues[0]  # residues mod q0 only
            signed = coeffs.astype(np.int64)
            signed[signed > q0 // 2] -= q0
            parts.append(RnsPoly.from_int_coeffs(full, signed))
        return Ciphertext(parts, ct.scale, ct.slots_in_use)

    def _eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Slots: q0*(I + eps)  ->  eps  (the centred mod-q0 reduction).

        The input slots are raw polynomial coefficients (magnitude up to
        q0 * |I|); the 1/q0 normalisation is folded into the argument
        constant, encoded at a compensating scale chosen so that exactly
        two rescales land the result on the canonical scale Δ.
        """
        ev = self.ev
        r = self.num_doublings
        delta = float(ev.params.scale)
        # u = 2*pi*x / 2^r with x = I + eps (the caller relabelled the
        # scale so the slots are already normalised by q0)
        factor = 2 * math.pi / (1 << r)
        moduli = ct.basis.moduli
        const_scale = delta * moduli[-1] * moduli[-2] / ct.scale
        plain = ev.encode(factor, scale=const_scale, level=ct.level)
        u = ev.rescale(ev.rescale(ev.multiply_plain(ct, plain)))
        # w = exp(i*u) by Taylor series
        coeffs = [1j ** k / math.factorial(k) for k in range(self.taylor_degree + 1)]
        w = evaluate_polynomial(ev, u, coeffs)
        # square r times: w <- w^2
        for _ in range(r):
            w = ev.rescale(ev.multiply_relin(w, w))
        # sin(2*pi*x) = Im(w) = (w - conj(w)) / 2i ; eps ~ sin(2*pi*x)/(2*pi)
        w_conj = ev.conjugate(w)
        diff = ev.sub(w, w_conj)
        c = ev.encode(1.0 / (4j * math.pi), scale=float(ev.params.scale),
                      level=diff.level)
        return ev.rescale(ev.multiply_plain(diff, c))

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh a (near-)exhausted ciphertext to ``target_level``."""
        ev = self.ev
        params = ev.params
        if ct.size != 2:
            raise ParameterError("relinearise before bootstrapping")
        if ct.level > 0:
            ct = ev.mod_switch_to(ct, 0)
        if not math.isclose(ct.scale, float(params.scale), rel_tol=0.5):
            raise NoiseBudgetExhausted(
                "bootstrap expects the ciphertext at the base scale"
            )
        q0 = params.moduli[0]
        raised = self.mod_raise(ct)
        # CoeffToSlot: two ciphertexts whose slots are coeffs/q0 = I + m/q0.
        # Both halves transform the same ciphertext, so their BSGS baby
        # steps share one hoisted key-switch decomposition.
        z_low, z_high = apply_hoisted_batch(
            ev, raised, [self._cts_low, self._cts_high]
        )
        low = ev.add(z_low, ev.conjugate(z_low))    # slots: m_coeff / Delta'
        high = ev.add(z_high, ev.conjugate(z_high))
        # Relabel scales so the slots read as x = m_coeff/q0 = I + m/q0
        # (q0/Delta' is ~2, so the tracked scale stays healthy).
        relabel = q0 / ct.scale
        low = Ciphertext(low.parts, low.scale * relabel, ct.slots_in_use)
        high = Ciphertext(high.parts, high.scale * relabel, ct.slots_in_use)
        # EvalMod: remove the q0*I overflow
        low = self._eval_mod(low)
        high = self._eval_mod(high)
        # SlotToCoeff
        out = ev.add(
            self._stc_left.apply(ev, low), self._stc_right.apply(ev, high)
        )
        # The slots now hold msg * Delta'/q0 (Delta' = input scale) at the
        # StC output scale s2, i.e. the ciphertext encrypts msg at the
        # effective scale s2 * Delta' / q0 — pure bookkeeping:
        out = Ciphertext(out.parts, out.scale * ct.scale / q0, ct.slots_in_use)
        # Reserve one level for the exact scale alignment below.
        out = ev.mod_switch_to(out, self.target_level + 1)
        out = ev.adjust_scale(out, float(params.scale))
        out = ev.mod_switch_to(out, self.target_level)
        return out
