"""Automatic security-parameter selection (paper §4.4, RQ3 / Table 10).

Given the *requirements* extracted by the compiler from a lowered program —
maximum multiplicative depth per bootstrap region, required SIMD width,
requested input scale Δ and output precision Q0 — the selector picks:

* the modulus chain bit layout ``log2(Q) = log2(Q0) + depth * log2(Δ)``
  plus special primes for key switching,
* ``N1``: the smallest ring degree whose HE-standard budget admits
  ``log2(QP)`` at the requested security level,
* ``N2``: twice the maximum SIMD vector width (CKKS packs N/2 slots),
* ``N = max(N1, N2)`` (paper §4.4).

The selection is *symbolic*: it reasons about the paper's 56/60-bit primes
even though the executable numpy arithmetic caps primes at 50 bits.  Use
:meth:`SelectedParameters.realize` to obtain a runnable
:class:`~repro.ckks.params.CkksParameters` with proportionally scaled-down
prime widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.params.security import max_log_qp_for_degree, min_degree_for_log_qp
from repro.polymath.modmath import MAX_MODULUS_BITS
from repro.utils.bits import next_power_of_two


@dataclass(frozen=True)
class SelectedParameters:
    """Result of automatic parameter selection."""

    log_n: int
    log_q0: int
    log_scale: int
    depth: int
    num_special_primes: int
    security_bits: int
    simd_width: int

    @classmethod
    def given(cls, params, simd_width: int) -> "SelectedParameters":
        """A given :class:`~repro.ckks.params.CkksParameters`, which
        its own ``security_bits`` vouches for, as a selection."""
        return cls(log_n=params.poly_degree.bit_length() - 1,
                   log_q0=params.first_prime_bits,
                   log_scale=params.scale_bits, depth=params.num_levels,
                   num_special_primes=params.num_special_primes,
                   security_bits=params.security_bits,
                   simd_width=simd_width)

    @property
    def degree(self) -> int:
        return 1 << self.log_n

    @property
    def log_q(self) -> int:
        return self.log_q0 + self.depth * self.log_scale

    @property
    def log_qp(self) -> int:
        return self.log_q + self.num_special_primes * self.log_q0

    def table10_row(self) -> dict[str, int]:
        """The three columns Table 10 reports."""
        return {
            "log2(N)": self.log_n,
            "log2(Q0)": self.log_q0,
            "log2(Delta)": self.log_scale,
        }

    def realize(self, max_prime_bits: int = MAX_MODULUS_BITS):
        """Build an executable :class:`CkksParameters`.

        Prime widths above the numpy arithmetic cap are scaled down
        proportionally (preserving the Q0/Δ ratio); the ring degree is also
        reduced to keep runtimes laptop-scale, since the *symbolic*
        selection already records the paper-fidelity values.
        """
        from repro.ckks.params import CkksParameters

        shrink = min(1.0, (max_prime_bits - 2) / self.log_q0)
        scale_bits = max(20, int(self.log_scale * shrink))
        first_bits = max(scale_bits, min(max_prime_bits, int(self.log_q0 * shrink)))
        degree = min(self.degree, 1 << 13)
        return CkksParameters(
            poly_degree=degree,
            scale_bits=scale_bits,
            first_prime_bits=first_bits,
            num_levels=self.depth,
            num_special_primes=self.num_special_primes,
            security_bits=0,
        )


class ParameterSelector:
    """Implements the N/Q selection procedure of §4.4."""

    def __init__(self, security_bits: int = 128):
        self.security_bits = security_bits

    def select(
        self,
        depth: int,
        simd_width: int,
        log_scale: int = 56,
        log_q0: int = 60,
        num_special_primes: int = 1,
    ) -> SelectedParameters:
        """Choose parameters for a program of the given requirements.

        Args:
            depth: maximum multiplicative depth between bootstrap points
                (each level consumes one Δ-sized prime).
            simd_width: widest cleartext vector the VECTOR IR produced.
            log_scale: requested log2 of the input scale Δ.
            log_q0: requested log2 of the output-precision prime Q0.
            num_special_primes: key-switching special primes.
        """
        if depth < 0:
            raise ParameterError("depth must be non-negative")
        if simd_width < 1:
            raise ParameterError("simd_width must be positive")
        if log_scale > log_q0:
            raise ParameterError(
                f"input scale 2^{log_scale} exceeds output budget 2^{log_q0}"
            )
        log_q = log_q0 + depth * log_scale
        log_qp = log_q + num_special_primes * log_q0
        n1 = min_degree_for_log_qp(log_qp, self.security_bits)
        n2 = 2 * next_power_of_two(simd_width)
        degree = max(n1, n2)
        # Selecting N larger than N1 never hurts security (§4.4): a larger
        # degree strictly increases the admissible budget.
        assert max_log_qp_for_degree(degree, self.security_bits) >= log_qp
        return SelectedParameters(
            log_n=degree.bit_length() - 1,
            log_q0=log_q0,
            log_scale=log_scale,
            depth=depth,
            num_special_primes=num_special_primes,
            security_bits=self.security_bits,
            simd_width=simd_width,
        )
