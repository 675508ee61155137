"""Backend adapter running on the real RNS-CKKS library."""

from __future__ import annotations

import numpy as np

from repro import chaos
from repro.backend.interface import HEBackend, SchemeConfig
from repro.backend.trace import OpTrace
from repro.ckks import CkksContext, CkksParameters
from repro.ckks.bootstrap import Bootstrapper
from repro.errors import ParameterError


class ExactBackend(HEBackend):
    """Executes programs with real keys and real RNS polynomials.

    Args:
        params: executable CKKS parameters.
        rotation_steps: rotation-key steps to generate (from the compiler's
            key-analysis pass); None = the power-of-two default set.
        enable_bootstrap: build the bootstrapper (requires a long enough
            chain and generates its rotation/conjugation keys).
        keychain: an existing :class:`~repro.ckks.keys.KeyChain` — e.g.
            one rebuilt from serialized evaluation keys — instead of
            generating keys from ``seed``.  The usual secret-less chain
            can evaluate and encrypt but never decrypt or mint keys.
    """

    def __init__(
        self,
        params: CkksParameters,
        rotation_steps: list[int] | None = None,
        enable_bootstrap: bool = False,
        bootstrap_target_level: int | None = None,
        seed: int | None = None,
        keychain=None,
    ):
        self.params = params
        if keychain is not None:
            self.ctx = CkksContext.from_keychain(params, keychain, seed=seed)
        else:
            self.ctx = CkksContext(
                params,
                rotation_steps=rotation_steps,
                need_conjugation=True,
                seed=seed,
            )
        self.ev = self.ctx.evaluator
        self.trace = OpTrace()
        self.config = SchemeConfig.from_params(params)
        self._bootstrapper: Bootstrapper | None = None
        #: one bootstrapper per refresh target — the fitting lowering
        #: emits per-region targets, and rebuilding the linear transforms
        #: (and re-deriving their rotation keys) on every call would
        #: swamp the refresh itself
        self._bootstrappers: dict[int, Bootstrapper] = {}
        if enable_bootstrap:
            self._bootstrapper = self.ctx.make_bootstrapper(
                target_level=bootstrap_target_level)
            self._bootstrappers[self._bootstrapper.target_level] = \
                self._bootstrapper

    def _rec(self, op: str, handle) -> None:
        # every homomorphic op funnels through here, making it the
        # backend-level fault-injection point (forced noise exhaustion,
        # latency spikes on the key-switch-heavy ops)
        chaos.on_backend_op(op)
        self.trace.record(op, self.level_of(handle) + 1)

    # -- data movement ------------------------------------------------------

    def encrypt(self, values, scale=None, level=None):
        ct = self.ctx.encrypt(values, scale=scale, level=level)
        self._rec("encrypt", ct)
        return ct

    def decrypt(self, cipher, num_values=None):
        self._rec("decrypt", cipher)
        return self.ctx.decrypt(cipher, num_values)

    def encode(self, values, scale, level):
        pt = self.ev.encode(values, scale=scale, level=level)
        self.trace.record("encode", level + 1)
        return pt

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        self._rec("add", a)
        return self.ev.add(a, b)

    def add_plain(self, a, p):
        self._rec("add_plain", a)
        return self.ev.add_plain(a, p)

    def sub(self, a, b):
        self._rec("sub", a)
        return self.ev.sub(a, b)

    def sub_plain(self, a, p):
        self._rec("sub_plain", a)
        return self.ev.sub_plain(a, p)

    def negate(self, a):
        self._rec("negate", a)
        return self.ev.negate(a)

    def mul(self, a, b):
        self._rec("mul", a)
        return chaos.corrupt_result("mul", self.ev.multiply(a, b))

    def mul_plain(self, a, p):
        self._rec("mul_plain", a)
        return self.ev.multiply_plain(a, p)

    def relinearize(self, a):
        self._rec("relin", a)
        return self.ev.relinearize(a)

    # -- scale / level --------------------------------------------------------

    def rescale(self, a):
        self._rec("rescale", a)
        return self.ev.rescale(a)

    def mod_switch(self, a, levels=1):
        self._rec("modswitch", a)
        return self.ev.mod_switch(a, levels)

    def upscale(self, a, extra_scale_bits):
        self._rec("upscale", a)
        return self.ev.upscale(a, extra_scale_bits)

    def bootstrap(self, a, target_level=None):
        if self._bootstrapper is None:
            raise ParameterError(
                "backend built without bootstrapping support"
            )
        bs = self._bootstrapper
        if target_level is not None and target_level != bs.target_level:
            bs = self._bootstrappers.get(target_level)
            if bs is None:
                # make_bootstrapper also generates the rotation and
                # conjugation keys this target's transforms need
                bs = self.ctx.make_bootstrapper(target_level=target_level)
                self._bootstrappers[target_level] = bs
        self.trace.record("bootstrap", bs.target_level + 1)
        return bs.bootstrap(a)

    # -- slots ---------------------------------------------------------------

    def rotate(self, a, steps, keep=False):
        self._rec("rotate", a)
        return chaos.corrupt_result("rotate",
                                    self.ev.rotate(a, steps, keep=keep))

    def conjugate(self, a):
        self._rec("conjugate", a)
        return self.ev.conjugate(a)

    # -- introspection ---------------------------------------------------------

    def level_of(self, a) -> int:
        return a.level

    def scale_of(self, a) -> float:
        return float(a.scale)
