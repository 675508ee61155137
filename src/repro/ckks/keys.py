"""Key generation for RNS-CKKS.

Besides the secret/public key pair, homomorphic evaluation needs
*key-switching keys*: a relinearisation key (switching from s^2 back to s)
and one rotation key per distinct rotation step (switching from the
automorphic image of s back to s).  We use per-prime digit decomposition
(dnum = number of ciphertext primes) with one or more *special* primes P:

    ksk_j = ( -a_j * s + e_j + P * g_j * s',   a_j )      over  R_{QP}

where g_j is the CRT gadget factor for prime j (so that
``sum_j [d]_{q_j} * g_j ≡ d (mod Q)``).  Key switching then computes
``round( sum_j [d]_{q_j} * ksk_j / P )`` which is a valid encryption of
``d * s'`` under ``s`` with small additive noise.

Rotation keys dominate FHE memory (paper §6 RQ2: 34.3 GB of 34.5 GB for
ResNet-20); :meth:`KeyChain.byte_size` exposes the exact sizes the memory
model (Figure 7) is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import KeyError_, ParameterError
from repro.polymath import modmath
from repro.polymath.poly import (
    conjugation_galois_element,
    rotation_galois_element,
)
from repro.polymath.rns import RnsBasis, RnsPoly, gadget_factors


def sample_ternary(basis: RnsBasis, rng: np.random.Generator, hamming: int | None = None) -> RnsPoly:
    """Sample a ternary secret polynomial (coefficients in {-1, 0, 1})."""
    n = basis.degree
    if hamming is None:
        coeffs = rng.integers(-1, 2, size=n)
    else:
        coeffs = np.zeros(n, dtype=np.int64)
        positions = rng.choice(n, size=min(hamming, n), replace=False)
        coeffs[positions] = rng.choice([-1, 1], size=len(positions))
    return RnsPoly.from_int_coeffs(basis, coeffs)


def sample_error(basis: RnsBasis, rng: np.random.Generator, std: float = 3.2) -> RnsPoly:
    """Sample a discrete-Gaussian-ish error polynomial."""
    coeffs = np.round(rng.normal(0.0, std, size=basis.degree)).astype(np.int64)
    return RnsPoly.from_int_coeffs(basis, coeffs)


@dataclass
class SecretKey:
    """The ternary secret, stored over the full key basis (Q * P)."""

    poly: RnsPoly  # NTT form over key basis

    def restrict(self, basis: RnsBasis) -> RnsPoly:
        """The secret reduced to a prefix of the ciphertext basis."""
        count = len(basis)
        return RnsPoly(basis, self.poly.residues[:count].copy(), self.poly.is_ntt)


@dataclass
class PublicKey:
    """Standard RLWE public key (b, a) with b = -a*s + e over basis Q."""

    b: RnsPoly
    a: RnsPoly


@dataclass
class KeySwitchKey:
    """Digit-decomposed key-switching key: one (b_j, a_j) pair per prime.

    ``stack`` is the only copy of the key: a ``(2, digits, K, N)`` uint64
    array over the full key basis in NTT form — row 0 the ``b`` halves,
    row 1 the ``a`` halves, one ``(K, N)`` residue matrix per digit.
    Every other shape of the key (:attr:`pairs`, the evaluator's
    per-level restriction) is a view of it.
    """

    stack: np.ndarray
    basis: RnsBasis
    #: number of ciphertext primes the key was generated for
    num_cipher_primes: int
    #: number of trailing special primes
    num_special_primes: int

    @property
    def pairs(self) -> list[tuple[RnsPoly, RnsPoly]]:
        """``(b_j, a_j)`` per digit, as polynomials viewing :attr:`stack`."""
        return [
            (RnsPoly(self.basis, b, True), RnsPoly(self.basis, a, True))
            for b, a in zip(self.stack[0], self.stack[1])
        ]

    def byte_size(self) -> int:
        return int(self.stack.nbytes)


@dataclass
class KeyChain:
    """All key material for one context.

    ``secret`` is ``None`` for an *evaluation-only* chain rebuilt from
    serialized public/evaluation keys (the scale-out serving key
    exchange: :func:`repro.ckks.serialize.serialize_eval_keys` never
    includes the secret, so a model shard can evaluate but not decrypt).
    """

    secret: SecretKey | None
    public: PublicKey
    relin: KeySwitchKey | None = None
    rotations: dict[int, KeySwitchKey] = field(default_factory=dict)
    conjugation: KeySwitchKey | None = None

    def rotation_key(self, galois: int) -> KeySwitchKey:
        try:
            return self.rotations[galois]
        except KeyError as exc:
            raise KeyError_(
                f"no rotation key for Galois element {galois}; generate it "
                f"with KeyGenerator.gen_rotation_keys"
            ) from exc

    def byte_size(self, include_secret: bool = False) -> int:
        """Total evaluation-key memory in bytes (Figure 7 input)."""
        sizes = self.byte_sizes()
        total = sizes["public"] + sizes["relin"] + sizes["conjugation"] \
            + sizes["rotations"]
        if include_secret:
            total += sizes["secret"]
        return total

    def byte_sizes(self) -> dict[str, int]:
        """Per-component breakdown of :meth:`byte_size` (Figure 7 rows)."""
        return {
            "secret": (self.secret.poly.byte_size()
                       if self.secret is not None else 0),
            "public": self.public.b.byte_size() + self.public.a.byte_size(),
            "relin": self.relin.byte_size() if self.relin else 0,
            "conjugation": (self.conjugation.byte_size()
                            if self.conjugation else 0),
            "rotations": sum(k.byte_size()
                             for k in self.rotations.values()),
        }


class KeyGenerator:
    """Generates secret/public/evaluation keys for a parameter set."""

    def __init__(self, cipher_basis: RnsBasis, key_basis: RnsBasis,
                 rng: np.random.Generator, error_std: float = 3.2,
                 secret_hamming_weight: int | None = None):
        if key_basis.moduli[: len(cipher_basis)] != cipher_basis.moduli:
            raise ParameterError("key basis must extend the cipher basis")
        self.cipher_basis = cipher_basis
        self.key_basis = key_basis
        self.num_special = len(key_basis) - len(cipher_basis)
        self.rng = rng
        self.error_std = error_std
        self.secret_hamming_weight = secret_hamming_weight
        self._special_product = 1
        for q in key_basis.moduli[len(cipher_basis):]:
            self._special_product *= q

    # -- base keys ------------------------------------------------------------

    def gen_secret_key(self) -> SecretKey:
        return SecretKey(
            sample_ternary(self.key_basis, self.rng, self.secret_hamming_weight)
        )

    def gen_public_key(self, secret: SecretKey) -> PublicKey:
        a = RnsPoly.uniform_random(self.cipher_basis, self.rng)
        e = sample_error(self.cipher_basis, self.rng, self.error_std)
        s = secret.restrict(self.cipher_basis)
        b = -(a * s) + e
        return PublicKey(b=b, a=a)

    # -- key switching keys ---------------------------------------------------

    def gen_keyswitch_key(self, secret: SecretKey, target: RnsPoly) -> KeySwitchKey:
        """KSK that re-encrypts ``d * target`` as ``d * s`` ciphertexts.

        ``target`` is the secret-like polynomial being eliminated (s^2 for
        relinearisation, sigma(s) for rotations), over the key basis in NTT
        form.
        """
        num_cipher = len(self.cipher_basis)
        gadget = gadget_factors(tuple(self.cipher_basis.moduli))
        p = self._special_product
        stack = np.empty(
            (2, num_cipher, len(self.key_basis), self.key_basis.degree),
            dtype=np.uint64,
        )
        for j in range(num_cipher):
            a_j = RnsPoly.uniform_random(self.key_basis, self.rng)
            e_j = sample_error(self.key_basis, self.rng, self.error_std)
            b_j = -(a_j * secret.poly) + e_j + target.scalar_mul(p * gadget[j])
            stack[0, j] = b_j.residues
            stack[1, j] = a_j.residues
        return KeySwitchKey(
            stack=stack,
            basis=self.key_basis,
            num_cipher_primes=num_cipher,
            num_special_primes=self.num_special,
        )

    def gen_relin_key(self, secret: SecretKey) -> KeySwitchKey:
        s_squared = secret.poly * secret.poly
        return self.gen_keyswitch_key(secret, s_squared)

    def gen_rotation_keys(self, secret: SecretKey, steps: list[int]) -> dict[int, KeySwitchKey]:
        """Rotation keys for the given slot-rotation steps, keyed by Galois
        element (so equivalent steps share a key)."""
        n = self.key_basis.degree
        keys: dict[int, KeySwitchKey] = {}
        for step in steps:
            galois = rotation_galois_element(step, n)
            if galois in keys or galois == 1:
                continue
            rotated_secret = secret.poly.automorphism(galois)
            keys[galois] = self.gen_keyswitch_key(secret, rotated_secret)
        return keys

    def gen_conjugation_key(self, secret: SecretKey) -> KeySwitchKey:
        galois = conjugation_galois_element(self.key_basis.degree)
        return self.gen_keyswitch_key(secret, secret.poly.automorphism(galois))
