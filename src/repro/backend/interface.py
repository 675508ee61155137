"""The abstract homomorphic-evaluation backend interface.

The operation set mirrors the CKKS IR (paper Table 6): everything a
lowered program can ask a runtime library to do.  Handles returned by the
backend are opaque to callers; only the backend interprets them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import LevelMismatchError, ParameterError


@dataclass(frozen=True)
class SchemeConfig:
    """The scheme a program is planned on and runs on.

    ``moduli`` is the ciphertext chain q_0 .. q_L: a rescale from level
    ``l`` divides by ``moduli[l]`` on every backend (:meth:`HEBackend.
    prime_at`), so a compiled program meets its planned scales on any of
    them.  Left empty it is the power-of-two chain ``[2^first_prime_bits]
    + [2^scale_bits] * num_levels``, which has no executable constraints
    (a :class:`SimBackend` may use the paper's N = 2^16 with 56-bit
    primes); :meth:`from_params` takes an executable parameter set's.
    """

    poly_degree: int
    scale_bits: int
    first_prime_bits: int
    num_levels: int
    num_special_primes: int = 1
    secret_hamming_weight: int | None = None
    moduli: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        chain = tuple(float(q) for q in self.moduli) or (
            (float(2**self.first_prime_bits),)
            + (float(2**self.scale_bits),) * self.num_levels)
        if len(chain) != self.num_levels + 1:
            raise ParameterError(
                f"a {self.num_levels}-level scheme needs "
                f"{self.num_levels + 1} moduli, got {len(chain)}")
        object.__setattr__(self, "moduli", chain)

    @classmethod
    def from_params(cls, params) -> "SchemeConfig":
        """The scheme of a :class:`~repro.ckks.params.CkksParameters`."""
        return cls(
            poly_degree=params.poly_degree,
            scale_bits=params.scale_bits,
            first_prime_bits=params.first_prime_bits,
            num_levels=params.num_levels,
            num_special_primes=params.num_special_primes,
            secret_hamming_weight=params.secret_hamming_weight,
            moduli=tuple(params.moduli),
        )

    @property
    def num_slots(self) -> int:
        return self.poly_degree // 2

    @property
    def scale(self) -> float:
        return float(2**self.scale_bits)

    @property
    def max_level(self) -> int:
        return self.num_levels


class HEBackend(ABC):
    """Abstract FHE runtime: the target of generated code & interpreters."""

    config: SchemeConfig

    # -- data movement -------------------------------------------------

    @abstractmethod
    def encrypt(self, values, scale: float | None = None, level: int | None = None):
        """Encrypt a cleartext vector into a ciphertext handle."""

    @abstractmethod
    def decrypt(self, cipher, num_values: int | None = None) -> np.ndarray:
        """Decrypt a ciphertext handle back to a cleartext vector."""

    @abstractmethod
    def encode(self, values, scale: float, level: int):
        """Encode a cleartext vector into a plaintext handle."""

    # -- arithmetic -----------------------------------------------------

    @abstractmethod
    def add(self, a, b):
        ...

    @abstractmethod
    def add_plain(self, a, p):
        ...

    @abstractmethod
    def sub(self, a, b):
        ...

    @abstractmethod
    def sub_plain(self, a, p):
        ...

    @abstractmethod
    def negate(self, a):
        ...

    @abstractmethod
    def mul(self, a, b):
        """Cipher-cipher multiply; returns a 3-part ciphertext."""

    @abstractmethod
    def mul_plain(self, a, p):
        ...

    @abstractmethod
    def relinearize(self, a):
        ...

    # -- scale / level management ------------------------------------------

    @abstractmethod
    def rescale(self, a):
        ...

    @abstractmethod
    def mod_switch(self, a, levels: int = 1):
        ...

    @abstractmethod
    def upscale(self, a, extra_scale_bits: int):
        ...

    @abstractmethod
    def bootstrap(self, a, target_level: int | None = None):
        """Refresh ``a`` to ``target_level``."""

    # -- slot manipulation -----------------------------------------------

    @abstractmethod
    def rotate(self, a, steps: int, keep: bool = False):
        """Rotate the slots of ``a`` left by ``steps``.

        ``keep=True`` says a later rotation reads ``a`` too: the backend
        may hold work those rotations share (the key-switch
        decomposition) on ``a`` until a call with ``keep=False``.  The
        result never depends on ``keep``.
        """

    @abstractmethod
    def conjugate(self, a):
        ...

    # -- introspection ------------------------------------------------------

    @abstractmethod
    def level_of(self, a) -> int:
        ...

    @abstractmethod
    def scale_of(self, a) -> float:
        ...

    def prime_at(self, level: int) -> float:
        """The prime a rescale *from* ``level`` divides by.

        It is ``config.moduli[level]``, the chain the compiler planned
        every runtime scale with, so a compiled program meets its planned
        scales bit-for-bit on any backend.
        """
        return self.config.moduli[level]

    def mod_switch_to(self, a, level: int):
        """Drop limbs until the handle sits at ``level``."""
        current = self.level_of(a)
        if level > current:
            raise LevelMismatchError(
                f"cannot raise level {current} -> {level} without bootstrap"
            )
        if level == current:
            return a
        return self.mod_switch(a, current - level)
