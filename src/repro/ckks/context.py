"""CkksContext: one-stop object bundling parameters, keys and evaluator.

This is the Python analogue of creating an ACEfhe context in generated
code: it owns the RNS bases, generates exactly the keys it is asked for
(the compiler's key-analysis pass decides which — paper §4.4), and exposes
encoder/encryptor/evaluator functionality.
"""

from __future__ import annotations

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyChain, KeyGenerator
from repro.ckks.params import CkksParameters


class CkksContext:
    """Keys + evaluator for one parameter set.

    Args:
        params: the RNS-CKKS parameter set.
        rotation_steps: slot-rotation steps to generate keys for.  ``None``
            (the default) generates the power-of-two key set an expert
            implementation would; the ANT-ACE compiler instead passes the
            exact set its key-analysis pass derived.
        need_relin / need_conjugation: skip generating unused keys.
        seed: RNG seed for reproducible keygen/encryption.
    """

    def __init__(
        self,
        params: CkksParameters,
        rotation_steps: list[int] | None = None,
        need_relin: bool = True,
        need_conjugation: bool = False,
        seed: int | None = None,
    ):
        self.params = params
        self.rng = np.random.default_rng(seed)
        cipher_basis, key_basis = params.make_bases()
        keygen = KeyGenerator(
            cipher_basis,
            key_basis,
            self.rng,
            params.error_std,
            params.secret_hamming_weight,
        )
        secret = keygen.gen_secret_key()
        public = keygen.gen_public_key(secret)
        if rotation_steps is None:
            rotation_steps = self._power_of_two_steps()
        rotations = keygen.gen_rotation_keys(secret, rotation_steps)
        self.keys = KeyChain(
            secret=secret,
            public=public,
            relin=keygen.gen_relin_key(secret) if need_relin else None,
            rotations=rotations,
            conjugation=(
                keygen.gen_conjugation_key(secret) if need_conjugation else None
            ),
        )
        self._keygen = keygen
        self.evaluator = CkksEvaluator(params, self.keys, self.rng)
        self.encoder = self.evaluator.encoder

    @classmethod
    def from_keychain(cls, params: CkksParameters, keys: KeyChain,
                      seed: int | None = None) -> "CkksContext":
        """A context around an existing key chain — no key generation.

        This is how a model shard loads serialized public/evaluation keys
        (:func:`repro.ckks.serialize.deserialize_eval_keys`): the chain
        typically has ``secret=None``, so the context can encrypt and
        evaluate but any decryption attempt raises a typed
        :class:`repro.errors.KeyError_`.  Key *minting* is impossible too
        (:meth:`add_rotation_keys` raises): an evaluator that was shipped
        keys can never widen its own key set.
        """
        self = cls.__new__(cls)
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.keys = keys
        self._keygen = None
        self.evaluator = CkksEvaluator(params, keys, self.rng)
        self.encoder = self.evaluator.encoder
        return self

    def _power_of_two_steps(self) -> list[int]:
        """The default key set FHE libraries generate (paper §2.2)."""
        slots = self.params.num_slots
        steps: list[int] = []
        step = 1
        while step < slots:
            steps.extend([step, slots - step])
            step *= 2
        return steps

    # -- convenience API ----------------------------------------------------

    def encrypt(self, values, scale: float | None = None,
                level: int | None = None) -> Ciphertext:
        plain = self.evaluator.encode(values, scale, level)
        cipher = self.evaluator.encrypt(plain)
        try:
            cipher.slots_in_use = len(values)
        except TypeError:
            cipher.slots_in_use = self.params.num_slots
        return cipher

    def decrypt(self, cipher: Ciphertext, num_values: int | None = None) -> np.ndarray:
        if num_values is None and cipher.slots_in_use:
            num_values = cipher.slots_in_use
        return self.evaluator.decrypt_decode(cipher, num_values)

    def encode(self, values, scale: float | None = None,
               level: int | None = None) -> Plaintext:
        return self.evaluator.encode(values, scale, level)

    def add_rotation_keys(self, steps: list[int]) -> None:
        if self._keygen is None:
            from repro.errors import KeyError_

            raise KeyError_(
                "context was built from shipped evaluation keys and cannot "
                "generate new rotation keys; the key owner must include "
                "every required step in the serialized key blob"
            )
        new = self._keygen.gen_rotation_keys(self.keys.secret, steps)
        self.keys.rotations.update(new)

    def key_memory_bytes(self) -> int:
        return self.keys.byte_size()

    def make_bootstrapper(self, taylor_degree: int = 7,
                          target_level: int | None = None):
        """Build a :class:`Bootstrapper`, generating the keys it needs.

        The exact rotation keys of its four DFT transforms and the
        conjugation key are generated here, so a context built from
        shipped evaluation keys (which cannot mint keys) raises
        :class:`~repro.errors.KeyError_`.
        """
        from repro.ckks.bootstrap import Bootstrapper

        bs = Bootstrapper(self.evaluator, taylor_degree, target_level)
        self.add_rotation_keys(bs.required_rotations())
        if self.keys.conjugation is None:
            self.keys.conjugation = self._keygen.gen_conjugation_key(
                self.keys.secret
            )
        return bs
