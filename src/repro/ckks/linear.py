"""Homomorphic linear transforms (matrix-vector products on slot vectors).

Implements the diagonal (Halevi–Shoup) method and its baby-step/giant-step
(BSGS) refinement: for an n×n matrix M and an encrypted slot vector z,

    M·z = sum_d  diag_d(M) ⊙ rot(z, d)                      (diagonal)
        = sum_i rot( sum_j diag'_{i*g+j}(M) ⊙ rot(z, j), i*g )   (BSGS)

where ``diag_d(M)[k] = M[k, (k+d) mod n]`` and the BSGS inner diagonals
are pre-rotated by ``-i*g``.  BSGS needs only ``O(sqrt(n))`` rotation keys
— the same trick the compiler's VECTOR-IR lowering uses for GEMV.

Two hot-path optimisations (see docs/INTERNALS.md "Evaluator hot paths"):

* all baby-step rotations of the input go through
  :meth:`CkksEvaluator.rotate_hoisted`, sharing one key-switch
  decomposition (and :func:`apply_hoisted_batch` shares those baby steps
  across *several* transforms of the same ciphertext — bootstrapping's
  CoeffToSlot halves);
* encoded diagonal plaintexts are memoised per ``(evaluator, level,
  diagonal, pre-rotation)``, so the steady state of repeated inference
  (``repro.serve``) stops re-encoding constants.

With hoisting, baby steps are much cheaper than giant steps, so the
optimal split shifts baby-heavy; pass ``giant`` explicitly to exploit
that (the default stays at the classic ``sqrt(n)`` balance).

Used by bootstrapping (CoeffToSlot / SlotToCoeff are dense DFT-like
matrices) and available to tests as a reference for the compiler output.
"""

from __future__ import annotations

import math
import threading
import warnings
import weakref

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.evaluator import CkksEvaluator
from repro.errors import ParameterError
from repro.polymath import modmath
from repro.polymath.poly import rotation_galois_element
from repro.polymath.rns import RnsPoly

#: Modular products are < 2^MAX_MODULUS_BITS, so this many of them sum in
#: raw uint64 without wrapping; one np.mod then folds the batch.
_SAFE_ACC_TERMS = (1 << 64) // (1 << modmath.MAX_MODULUS_BITS) - 1

#: evaluators already warned about composing missing rotation keys; one
#: warning per evaluator is signal, one per rotation is noise
_warned_evaluators: "weakref.WeakSet[CkksEvaluator]" = weakref.WeakSet()
_warned_lock = threading.Lock()


def _warn_missing_rotation_keys(ev: CkksEvaluator, steps, where: str) -> None:
    """Warn (once per evaluator) when ``steps`` lack exact rotation keys.

    A tuned BSGS split changes the step set a transform needs; keys are
    normally re-derived after tuning (the driver re-runs rotation-key
    analysis), but an evaluator built from a stale key blob silently
    falls back to composing each missing step from power-of-two keys —
    one extra key switch per set bit.  Surfacing that here turns a
    mystery slowdown into an actionable warning.
    """
    with _warned_lock:
        if ev in _warned_evaluators:
            return
    half = ev.params.poly_degree // 2
    missing = sorted({
        s % half for s in steps
        if s % half and rotation_galois_element(s % half,
                                                ev.params.poly_degree)
        not in ev.keys.rotations
    })
    if not missing:
        return
    with _warned_lock:
        if ev in _warned_evaluators:
            return
        _warned_evaluators.add(ev)
    shown = ", ".join(map(str, missing[:8]))
    if len(missing) > 8:
        shown += ", ..."
    warnings.warn(
        f"{where} needs rotation keys for {len(missing)} step(s) "
        f"[{shown}] that the evaluator does not hold; each will be "
        f"composed from power-of-two keys (slower). Re-run rotation-key "
        f"analysis after changing BSGS splits.",
        RuntimeWarning,
        stacklevel=3,
    )


def _accumulate_products(ct_stack: np.ndarray, pt_stack: np.ndarray,
                         q_col: np.ndarray) -> np.ndarray:
    """``sum_m ct_stack[m] * pt_stack[m] mod q`` over a ``(M, limbs, N)`` stack.

    The modular products are summed in plain uint64 (chunked far below the
    wrap-around bound) with a single ``np.mod`` per chunk — bit-identical
    to a chain of ``add_mod`` calls, without the per-term Python loop.
    """
    prods = modmath.mul_mod(ct_stack, pt_stack, q_col[None, :, :])
    acc = None
    for start in range(0, prods.shape[0], _SAFE_ACC_TERMS):
        part = modmath.mod_reduce(
            np.add.reduce(prods[start : start + _SAFE_ACC_TERMS], axis=0),
            q_col,
        )
        acc = part if acc is None else modmath.add_mod(acc, part, q_col)
    return acc


class LinearTransform:
    """A plaintext n×n complex matrix applicable to encrypted slot vectors."""

    def __init__(self, matrix: np.ndarray, use_bsgs: bool = True,
                 giant: int | None = None):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ParameterError(f"matrix must be square, got {matrix.shape}")
        self.n = matrix.shape[0]
        self.matrix = matrix
        self.use_bsgs = use_bsgs
        if giant is None:
            giant = int(math.isqrt(self.n))
            while self.n % giant:
                giant -= 1
        elif not 1 <= giant <= self.n or self.n % giant:
            raise ParameterError(
                f"giant step {giant} must divide the dimension {self.n}"
            )
        self.giant = giant
        self.baby = self.n // self.giant
        # encoded-diagonal memo: evaluator -> {(level, d, shift): Plaintext}
        self._plain_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._nonzero: dict[int, bool] = {}
        # guards first-miss population of both memos: threads sharing
        # one backend (serve workers, user threads) may apply one
        # transform at once
        self._cache_lock = threading.Lock()

    def diagonal(self, d: int) -> np.ndarray:
        idx = np.arange(self.n)
        return self.matrix[idx, (idx + d) % self.n]

    def _diag_nonzero(self, d: int) -> bool:
        hit = self._nonzero.get(d)
        if hit is None:
            # compute outside the lock (pure, idempotent), publish under it
            hit = bool(np.any(self.diagonal(d)))
            with self._cache_lock:
                self._nonzero[d] = hit
        return hit

    def required_rotations(self) -> list[int]:
        """Rotation steps the transform needs keys for."""
        if not self.use_bsgs:
            return [d for d in range(1, self.n)]
        steps = set()
        for j in range(1, self.giant):
            steps.add(j)
        for i in range(1, self.baby):
            steps.add(i * self.giant)
        return sorted(steps)

    def apply(self, ev: CkksEvaluator, ct: Ciphertext,
              hoisted: bool = True) -> Ciphertext:
        """Compute M · slots(ct); consumes exactly one level.

        ``hoisted=False`` forces the per-rotation baseline (every baby
        step pays its own key-switch decomposition) — kept for
        benchmarking and bit-exactness tests; both paths produce identical
        ciphertexts.
        """
        if self.n != ev.params.num_slots:
            raise ParameterError(
                f"matrix is {self.n}x{self.n} but the ring has "
                f"{ev.params.num_slots} slots"
            )
        _warn_missing_rotation_keys(
            ev, self.required_rotations(),
            f"{self.n}x{self.n} transform (giant={self.giant})")
        if self.use_bsgs:
            out = self._apply_bsgs(ev, ct, self._baby_rotations(ev, ct, hoisted))
        else:
            out = self._apply_diagonal(ev, ct, hoisted)
        return ev.rescale(out)

    def _encode_diag(self, ev: CkksEvaluator, ct: Ciphertext, d: int,
                     shift: int) -> Plaintext:
        """Encoded (optionally pre-rotated) diagonal, memoised per level.

        First-miss encodes run outside the lock (encoding is pure and two
        racing threads produce identical plaintexts); insertion is
        double-checked under the lock so exactly one entry is published.
        """
        with self._cache_lock:
            per_ev = self._plain_cache.setdefault(ev, {})
        key = (ct.level, d, shift)
        plain = per_ev.get(key)
        if plain is None:
            diag = self.diagonal(d)
            if shift:
                diag = np.roll(diag, shift)
            plain = ev.encode(diag, scale=float(ev.params.scale), level=ct.level)
            with self._cache_lock:
                plain = per_ev.setdefault(key, plain)
        return plain

    def _apply_diagonal(self, ev: CkksEvaluator, ct: Ciphertext,
                        hoisted: bool) -> Ciphertext:
        live = [d for d in range(self.n) if self._diag_nonzero(d)]
        if not live:
            raise ParameterError("zero matrix")
        if hoisted:
            rotated = ev.rotate_hoisted(ct, [d for d in live if d])
            rotated[0] = ct
        else:
            rotated = {d: (ev.rotate(ct, d) if d else ct) for d in live}
        acc = None
        for d in live:
            term = ev.multiply_plain(rotated[d], self._encode_diag(ev, ct, d, 0))
            acc = term if acc is None else ev.add(acc, term)
        return acc

    def _baby_rotations(self, ev: CkksEvaluator, ct: Ciphertext,
                        hoisted: bool) -> dict[int, Ciphertext]:
        """All baby-step rotations of the input, hoisted or per-rotation."""
        steps = list(range(1, self.giant))
        if hoisted:
            rots = ev.rotate_hoisted(ct, steps)
        else:
            rots = {j: ev.rotate(ct, j) for j in steps}
        rots[0] = ct
        return rots

    def _apply_bsgs(self, ev: CkksEvaluator, ct: Ciphertext,
                    baby_rots: dict[int, Ciphertext]) -> Ciphertext:
        g, b = self.giant, self.baby
        basis = ct.basis
        q_col = basis.moduli_col
        acc = None
        for i in range(b):
            live = [j for j in range(g) if self._diag_nonzero(i * g + j)]
            if not live:
                continue
            # pre-rotate the diagonals so the outer rotation lines them up,
            # then fold sum_j diag ⊙ rot(ct, j) in one stacked pass per part
            pt_stack = np.stack(
                [
                    self._encode_diag(ev, ct, i * g + j, i * g).poly.residues
                    for j in live
                ]
            )
            parts = [
                RnsPoly(
                    basis,
                    _accumulate_products(
                        np.stack(
                            [baby_rots[j].parts[k].residues for j in live]
                        ),
                        pt_stack,
                        q_col,
                    ),
                    True,
                )
                for k in range(2)
            ]
            inner = Ciphertext(
                parts, ct.scale * float(ev.params.scale), ct.slots_in_use
            )
            if i:
                inner = ev.rotate(inner, i * g)
            acc = inner if acc is None else ev.add(acc, inner)
        if acc is None:
            raise ParameterError("zero matrix")
        return acc


def apply_hoisted_batch(
    ev: CkksEvaluator, ct: Ciphertext, transforms: list[LinearTransform]
) -> list[Ciphertext]:
    """Apply several BSGS transforms to *one* ciphertext, sharing baby steps.

    Bootstrapping applies both CoeffToSlot halves to the same ModRaised
    ciphertext; the union of their baby-step rotations is hoisted behind a
    single key-switch decomposition, then each transform consumes the
    shared rotation table.  Results are identical to calling
    ``lt.apply(ev, ct)`` per transform.
    """
    for lt in transforms:
        if lt.n != ev.params.num_slots:
            raise ParameterError(
                f"matrix is {lt.n}x{lt.n} but the ring has "
                f"{ev.params.num_slots} slots"
            )
        if not lt.use_bsgs:
            raise ParameterError("shared hoisting requires BSGS transforms")
    _warn_missing_rotation_keys(
        ev, {s for lt in transforms for s in lt.required_rotations()},
        f"hoisted batch of {len(transforms)} transforms "
        f"(giants={[lt.giant for lt in transforms]})")
    steps = sorted({j for lt in transforms for j in range(1, lt.giant)})
    shared = ev.rotate_hoisted(ct, steps)
    shared[0] = ct
    return [ev.rescale(lt._apply_bsgs(ev, ct, shared)) for lt in transforms]
