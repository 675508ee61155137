"""Cleartext simulation backend with faithful CKKS bookkeeping.

``SimBackend`` executes compiled programs on cleartext numpy vectors while
enforcing *exactly* the same scale/level discipline as the real evaluator
(mismatched scales or levels raise the same exceptions; a rescale divides
by the scheme's own chain, ``config.moduli``, so a program compiled
against real primes meets its planned scales here too) and injecting
noise calibrated to CKKS behaviour:

* fresh encryption noise ~ sqrt(N) * sigma / scale,
* key-switch noise on every rotate/relinearise,
* rounding noise on every rescale,
* a configurable bootstrap error (the sine-approximation residue).

This is what makes the ResNet-scale accuracy/latency evaluation (paper
Figures 6-7, Table 11) runnable on a laptop: the compiler's decisions are
identical on both backends, only the polynomial arithmetic is elided.
The differential test suite checks Exact-vs-Sim agreement on programs the
exact backend can afford.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro import chaos
from repro.backend.interface import HEBackend, SchemeConfig
from repro.backend.trace import OpTrace
from repro.errors import (
    CiphertextDegreeError,
    LevelMismatchError,
    NoiseBudgetExhausted,
    ParameterError,
    ScaleMismatchError,
)

_SCALE_RTOL = 1e-6


@dataclass
class SimCipher:
    """Simulated ciphertext: message values + CKKS metadata."""

    values: np.ndarray  # complex128, length = num_slots
    scale: float
    level: int
    size: int = 2
    slots_in_use: int = 0

    def copy(self) -> "SimCipher":
        return SimCipher(
            self.values.copy(), self.scale, self.level, self.size,
            self.slots_in_use,
        )


@dataclass
class SimPlain:
    """Simulated plaintext: encoded message values + metadata."""

    values: np.ndarray
    scale: float
    level: int


class SimBackend(HEBackend):
    """Cleartext execution with CKKS semantics and cost tracing."""

    def __init__(
        self,
        config: SchemeConfig,
        inject_noise: bool = True,
        bootstrap_noise_std: float = 2.0**-20,
        bootstrap_target_level: int | None = None,
        seed: int | None = 0,
    ):
        self.config = config
        self.inject_noise = inject_noise
        self.bootstrap_noise_std = bootstrap_noise_std
        self.bootstrap_target_level = bootstrap_target_level
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.trace = OpTrace()
        n = config.poly_degree
        self._fresh_noise = math.sqrt(n) * 3.2 / config.scale
        self._round_noise = math.sqrt(n / 12.0)
        # Pre-generated complex noise pool: per-op sampling of millions of
        # gaussians dominates large-model simulation otherwise.  Slices at
        # content-derived offsets are statistically adequate for accuracy
        # runs.
        if inject_noise:
            pool_size = max(1 << 18, 4 * config.num_slots)
            real = self.rng.normal(0.0, 1.0 / math.sqrt(2), pool_size)
            imag = self.rng.normal(0.0, 1.0 / math.sqrt(2), pool_size)
            self._noise_pool = real + 1j * imag
        else:
            self._noise_pool = None

    # -- noise helpers ----------------------------------------------------

    def _noise(self, values: np.ndarray, std: float) -> np.ndarray:
        """Add a noise-pool slice at an offset derived from the *content*.

        The offset is a CRC of (seed, std, a sample of the input values)
        rather than a draw from shared RNG state: each op's noise is then
        a pure function of its inputs, so parallel execution is both
        thread-safe (no mutable RNG shared across workers) and
        bit-identical to sequential execution in any completion order.
        The slices remain N(0, std) marginally; only ops with *identical*
        inputs and std reuse a slice, which the accuracy simulations
        tolerate (distinct activations at every layer).
        """
        if not self.inject_noise or std <= 0:
            return values
        count = values.size
        pool = self._noise_pool
        flat = np.ascontiguousarray(values).ravel()
        sample = flat[:: max(1, count // 64)][:64]
        digest = zlib.crc32(sample.tobytes())
        seed_bits = (self.seed or 0) & 0xFFFFFFFF
        digest = zlib.crc32(struct.pack("<dII", std, count, seed_bits),
                            digest)
        offset = digest % (pool.size - count)
        return values + std * pool[offset : offset + count].reshape(
            values.shape
        )

    def _ks_noise_std(self, level: int) -> float:
        # digit decomposition: (level+1) digits of ~sqrt(N)*sigma each,
        # divided back by the special prime and the scale
        n = self.config.poly_degree
        return (level + 1) * math.sqrt(n) * 3.2 / self.config.scale

    # -- guards ------------------------------------------------------------

    @staticmethod
    def _check_levels(a, b) -> None:
        if a.level != b.level:
            raise LevelMismatchError(
                "operands at different levels; insert modswitch first"
            )

    @staticmethod
    def _check_degrees(a, b) -> None:
        if a.size != b.size:
            raise CiphertextDegreeError(
                f"ciphertext degrees differ: size {a.size} vs {b.size}; "
                "relinearise (or defer both relins) before adding"
            )

    @staticmethod
    def _check_scales(a, b) -> None:
        if not math.isclose(a.scale, b.scale, rel_tol=_SCALE_RTOL):
            raise ScaleMismatchError(
                f"scales differ: 2^{math.log2(a.scale):.3f} vs "
                f"2^{math.log2(b.scale):.3f}"
            )

    def _rec(self, op: str, level: int) -> None:
        # same fault-injection funnel as ExactBackend._rec, so chaos
        # plans behave identically on both backends
        chaos.on_backend_op(op)
        self.trace.record(op, level + 1)

    def _guard_mul_capacity(self, a, b) -> None:
        """Refuse a multiply whose product scale cannot fit the chain.

        Without this, a multiply at the bottom of the modulus chain
        silently wraps the scale past the remaining capacity and decrypt
        returns garbage.  Fires only on *guaranteed* overflow (product
        scale >= total remaining modulus), so legitimate lazy-rescaling
        chains never trip it.
        """
        from repro.ckks.noise import remaining_depth

        capacity_bits = sum(
            math.log2(q) for q in self.config.moduli[: a.level + 1]
        )
        product_bits = math.log2(a.scale) + math.log2(b.scale)
        if product_bits >= capacity_bits:
            raise NoiseBudgetExhausted(
                f"multiply would overflow the modulus chain: product scale "
                f"2^{product_bits:.1f} >= remaining capacity "
                f"2^{capacity_bits:.1f} at level {a.level} "
                f"(remaining_depth={remaining_depth(a)}); bootstrap first"
            )

    def _pad(self, values) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(values, dtype=np.complex128))
        slots = self.config.num_slots
        if arr.size > slots:
            raise ParameterError(
                f"message of {arr.size} values exceeds {slots} slots"
            )
        if arr.size == 1 and np.isscalar(values):
            return np.full(slots, arr[0], dtype=np.complex128)
        out = np.zeros(slots, dtype=np.complex128)
        out[: arr.size] = arr
        return out

    # -- data movement --------------------------------------------------------

    def encrypt(self, values, scale=None, level=None):
        scale = float(scale if scale is not None else self.config.scale)
        level = self.config.max_level if level is None else level
        vec = self._noise(self._pad(values), self._fresh_noise)
        try:
            used = len(values)
        except TypeError:
            used = self.config.num_slots
        self._rec("encrypt", level)
        return SimCipher(vec, scale, level, slots_in_use=used)

    def decrypt(self, cipher, num_values=None):
        self._rec("decrypt", cipher.level)
        if num_values is None and cipher.slots_in_use:
            num_values = cipher.slots_in_use
        out = np.real(cipher.values)  # Cipher3 decrypts like a Cipher
        return out[:num_values] if num_values is not None else out

    def encode(self, values, scale, level):
        self.trace.record("encode", level + 1)
        # plaintext coefficients are rounded to integers at `scale`
        vec = self._pad(values)
        quant = 0.5 / scale  # rounding error of encode
        return SimPlain(self._noise(vec, quant), float(scale), level)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        self._check_levels(a, b)
        self._check_scales(a, b)
        self._check_degrees(a, b)
        self._rec("add", a.level)
        return SimCipher(
            a.values + b.values, a.scale, a.level, a.size,
            a.slots_in_use,
        )

    @staticmethod
    def _align_plain(a, p):
        # mirror the exact evaluator: a plaintext encoded above the
        # ciphertext's level mod-switches down for free (level-aligned
        # batches enter programs below the planned level)
        if p.level > a.level:
            return SimPlain(p.values, p.scale, a.level)
        return p

    def add_plain(self, a, p):
        p = self._align_plain(a, p)
        self._check_levels(a, p)
        self._check_scales(a, p)
        self._rec("add_plain", a.level)
        return SimCipher(a.values + p.values, a.scale, a.level, a.size,
                         a.slots_in_use)

    def sub(self, a, b):
        self._check_levels(a, b)
        self._check_scales(a, b)
        self._check_degrees(a, b)
        self._rec("sub", a.level)
        return SimCipher(
            a.values - b.values, a.scale, a.level, a.size,
            a.slots_in_use,
        )

    def sub_plain(self, a, p):
        p = self._align_plain(a, p)
        self._check_levels(a, p)
        self._check_scales(a, p)
        self._rec("sub_plain", a.level)
        return SimCipher(a.values - p.values, a.scale, a.level, a.size,
                         a.slots_in_use)

    def negate(self, a):
        self._rec("negate", a.level)
        return SimCipher(-a.values, a.scale, a.level, a.size, a.slots_in_use)

    def mul(self, a, b):
        if a.size != 2 or b.size != 2:
            raise ParameterError("relinearise before multiplying again")
        self._check_levels(a, b)
        self._guard_mul_capacity(a, b)
        self._rec("mul", a.level)
        return chaos.corrupt_result("mul", SimCipher(
            a.values * b.values, a.scale * b.scale, a.level, 3, a.slots_in_use
        ))

    def mul_plain(self, a, p):
        p = self._align_plain(a, p)
        self._check_levels(a, p)
        self._guard_mul_capacity(a, p)
        self._rec("mul_plain", a.level)
        return SimCipher(
            a.values * p.values, a.scale * p.scale, a.level, a.size,
            a.slots_in_use,
        )

    def relinearize(self, a):
        self._rec("relin", a.level)
        if a.size == 2:
            return a.copy()
        vec = self._noise(a.values, self._ks_noise_std(a.level))
        return SimCipher(vec, a.scale, a.level, 2, a.slots_in_use)

    # -- scale / level ----------------------------------------------------------

    def rescale(self, a):
        if a.level == 0:
            raise NoiseBudgetExhausted(
                "no levels left to rescale; bootstrap required"
            )
        self._rec("rescale", a.level)
        prime = self.prime_at(a.level)
        new_scale = a.scale / prime
        if new_scale < 1.0:
            raise NoiseBudgetExhausted(
                f"rescale would drop the scale below 1 "
                f"(2^{math.log2(a.scale):.1f} / 2^{math.log2(prime):.1f}): "
                "the message would be destroyed"
            )
        vec = self._noise(a.values, self._round_noise / new_scale)
        return SimCipher(vec, new_scale, a.level - 1, a.size, a.slots_in_use)

    def mod_switch(self, a, levels=1):
        if levels <= 0:
            return a.copy()
        if a.level - levels < 0:
            raise NoiseBudgetExhausted("cannot modswitch below level 0")
        self._rec("modswitch", a.level)
        return SimCipher(
            a.values.copy(), a.scale, a.level - levels, a.size, a.slots_in_use
        )

    def upscale(self, a, extra_scale_bits):
        self._rec("upscale", a.level)
        return SimCipher(
            a.values.copy(), a.scale * (1 << extra_scale_bits), a.level,
            a.size, a.slots_in_use,
        )

    def bootstrap(self, a, target_level=None):
        if a.size != 2:
            raise ParameterError("relinearise before bootstrapping")
        target = (
            target_level
            if target_level is not None
            else self.bootstrap_target_level
        )
        if target is None:
            target = self.config.max_level
        # the cost model charges bootstrapping linearly in the refreshed
        # level (§4.4), so the trace records target+1, not the chain length
        self.trace.record("bootstrap", target + 1)
        vec = self._noise(a.values, self.bootstrap_noise_std)
        return SimCipher(
            vec, self.config.scale, target, 2, a.slots_in_use
        )

    # -- slots ------------------------------------------------------------------

    def rotate(self, a, steps, keep=False):
        # ``keep`` is ignored: a simulated rotation shares no work
        if a.size != 2:
            raise ParameterError("relinearise before rotating")
        steps = steps % self.config.num_slots
        if steps == 0:
            return a.copy()
        self._rec("rotate", a.level)
        vec = self._noise(np.roll(a.values, -steps), self._ks_noise_std(a.level))
        return chaos.corrupt_result(
            "rotate", SimCipher(vec, a.scale, a.level, 2, a.slots_in_use))

    def conjugate(self, a):
        self._rec("conjugate", a.level)
        vec = self._noise(np.conj(a.values), self._ks_noise_std(a.level))
        return SimCipher(vec, a.scale, a.level, 2, a.slots_in_use)

    # -- introspection -------------------------------------------------------------

    def level_of(self, a) -> int:
        return a.level

    def scale_of(self, a) -> float:
        return float(a.scale)
