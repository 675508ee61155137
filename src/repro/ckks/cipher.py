"""Ciphertext and plaintext value types for the RNS-CKKS evaluator.

A :class:`Ciphertext` is a tuple of RNS polynomials (2 normally, 3 right
after a cipher-cipher multiplication, before relinearisation) plus the
scale/level metadata the CKKS IR reasons about.  A :class:`Plaintext` is a
single encoded RNS polynomial with the same metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ParameterError
from repro.polymath.rns import RnsPoly

if TYPE_CHECKING:
    from repro.ckks.evaluator import HoistedDecomposition


@dataclass
class Plaintext:
    """An encoded message: one RNS polynomial + scale."""

    poly: RnsPoly
    scale: float

    @property
    def level(self) -> int:
        """Remaining rescale budget: number of limbs minus one."""
        return len(self.poly.basis) - 1

    def byte_size(self) -> int:
        return self.poly.byte_size()


@dataclass
class Ciphertext:
    """An RNS-CKKS ciphertext (2 or 3 polynomial parts).

    ``hoisted`` holds the key-switch decomposition of ``parts[1]`` while
    more rotations of this ciphertext are due (``CkksEvaluator.rotate``
    with ``keep=True``); it is derived state, so it is neither compared
    nor copied.
    """

    parts: list[RnsPoly]
    scale: float
    slots_in_use: int = 0  # informational: message length, 0 = unknown
    hoisted: "HoistedDecomposition | None" = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.parts) not in (2, 3):
            raise ParameterError(
                f"ciphertext must have 2 or 3 parts, got {len(self.parts)}"
            )
        bases = {tuple(p.basis.moduli) for p in self.parts}
        if len(bases) != 1:
            raise ParameterError("ciphertext parts live in different bases")

    @property
    def size(self) -> int:
        return len(self.parts)

    @property
    def level(self) -> int:
        """Remaining rescale budget: number of limbs minus one."""
        return len(self.parts[0].basis) - 1

    @property
    def basis(self):
        return self.parts[0].basis

    def copy(self) -> "Ciphertext":
        return Ciphertext(
            [p.copy() for p in self.parts], self.scale, self.slots_in_use
        )

    def byte_size(self) -> int:
        return sum(p.byte_size() for p in self.parts)

    def __repr__(self) -> str:
        log_scale = math.log2(self.scale) if self.scale > 0 else float("-inf")
        return (
            f"Ciphertext(size={self.size}, level={self.level}, "
            f"scale=2^{log_scale:.2f})"
        )
