"""Pluggable kernel backends for the NTT/RNS hot loops.

Every hot kernel of :mod:`repro.polymath` — elementwise modular
arithmetic, the negacyclic NTT cores (single-modulus and stacked
per-row-moduli variants), and the base-conversion / rescale inner loops
— goes through the narrow :class:`KernelBackend` interface defined here.
Three implementations exist:

* ``numpy`` — the float-reciprocal Barrett code this repo has always
  run on.  Always available, the default, and the bit-identity
  reference for every other backend.
* ``numba`` — CPU JIT: fused butterfly loops with ``prange`` over
  stacked limbs, Shoup twiddle multiplication and a SEAL-style
  128-bit Barrett reduction built from 64-bit words (no float quotient
  estimate), so its per-backend modulus ceiling rises past the shared
  50-bit floor.  Available when :mod:`numba` imports.
* ``pyloops`` — the *same* kernel source the numba backend compiles,
  executed as pure Python over object arrays.  Orders of magnitude
  slower; exists so the JIT arithmetic (128-bit Barrett, Shoup
  multiplication) has differential test coverage on hosts without
  numba.  Debugging/testing only.

Selection is process-global and runtime: ``--kernel`` on
``repro run/serve/router``, the ``REPRO_KERNEL`` environment variable,
or :func:`set_backend`.  ``auto`` probes ``numba`` and falls back to
``numpy`` with a one-line warning.  Backends are
**bit-identical** for all moduli within the shared
:data:`repro.polymath.modmath.MAX_MODULUS_BITS` floor: every kernel
computes exact integers mod q, so the same ciphertext bytes come out of
every backend at every ``--jobs`` count (the PR-2/PR-3 test pattern).

JIT backends compile on first use; call :func:`warmup` at process
start (the serving stack does this in ``InferenceServer.__init__``) so
the first request does not pay compilation latency.
"""

from __future__ import annotations

import logging
import os
import threading

import numpy as np

from repro.errors import KernelUnavailableError

log = logging.getLogger("repro.kernels")

#: Selection order probed by ``auto``.
AUTO_ORDER = ("numba", "numpy")

#: Every registered backend name (``auto`` resolves to one of these).
BACKEND_NAMES = ("numpy", "numba", "pyloops")


class NttTables:
    """Precomputed twiddle tables for one ``(degree, moduli)`` pair.

    ``psi_rev``/``psi_inv_rev`` are ``(B, N)`` merged-psi tables in
    bit-reversed order (one row per modulus), ``q`` and ``n_inv`` are
    ``(B,)`` vectors.  Backends attach their own derived tables (numpy
    broadcast views, numba Shoup/Barrett constants) through
    :meth:`extras`, memoised per backend under a double-checked
    lock; since :func:`repro.polymath.ntt.stacked_tables` memoises the
    ``NttTables`` themselves by ``(N, q_tuple)``, those derived tables
    are built once per process, not once per context construction.
    """

    __slots__ = ("degree", "moduli", "psi_rev", "psi_inv_rev", "q",
                 "n_inv", "max_bits", "_extras", "_lock")

    def __init__(self, degree: int, moduli: tuple[int, ...],
                 psi_rev: np.ndarray, psi_inv_rev: np.ndarray,
                 n_inv: np.ndarray):
        self.degree = degree
        self.moduli = tuple(moduli)
        self.psi_rev = psi_rev
        self.psi_inv_rev = psi_inv_rev
        self.q = np.array(self.moduli, dtype=np.uint64)
        self.n_inv = n_inv
        self.max_bits = max(int(q).bit_length() for q in self.moduli)
        self._extras: dict[str, object] = {}
        self._lock = threading.Lock()

    @property
    def num_rows(self) -> int:
        return len(self.moduli)

    def extras(self, name: str, builder):
        """Per-backend derived tables, built once (double-checked lock)."""
        hit = self._extras.get(name)
        if hit is not None:
            return hit
        with self._lock:
            hit = self._extras.get(name)
            if hit is None:
                hit = builder(self)
                self._extras[name] = hit
            return hit


class KernelBackend:
    """The narrow array-ops interface the polymath layer is built on.

    Elementwise ops accept scalars or arrays with numpy broadcasting
    (the modulus ``q`` may be a scalar or a column such as ``(B, 1)`` /
    ``(B, 1, 1)``) and return uint64 arrays reduced to ``[0, q)`` —
    exactly the :mod:`repro.polymath.modmath` contract.  The NTT entry
    points take a residue stack plus an :class:`NttTables`; rows of the
    flattened ``(R, N)`` view transform modulo ``moduli[r % B]``, which
    covers both the single-modulus ``(..., N)`` layout (``B == 1``) and
    the stacked ``(..., B, N)`` layout in one contract.

    All methods must be thread-safe and **bit-identical** to the numpy
    reference for moduli within the shared 50-bit floor.
    """

    #: registry key, reported in ``program.stats`` / serve metrics
    name = "abstract"
    #: per-backend modulus ceiling in bits (the shared floor is
    #: ``modmath.MAX_MODULUS_BITS``; JIT backends may exceed it)
    max_modulus_bits = 0
    #: True when first use pays compilation latency (warmup pays it early)
    jit = False

    @classmethod
    def available(cls) -> bool:
        return False

    @classmethod
    def unavailable_reason(cls) -> str:
        return "abstract backend"

    # -- elementwise ------------------------------------------------------
    def add_mod(self, a, b, q):
        raise NotImplementedError

    def sub_mod(self, a, b, q):
        raise NotImplementedError

    def neg_mod(self, a, q):
        raise NotImplementedError

    def mul_mod(self, a, b, q):
        raise NotImplementedError

    def mod_reduce(self, a, q):
        """Elementwise ``a mod q`` for *unreduced* uint64 ``a``.

        The base-conversion primitive: lifts digits into a basis and
        folds plain-uint64 accumulators back below their moduli.
        """
        raise NotImplementedError

    # -- NTT --------------------------------------------------------------
    def ntt_forward(self, a: np.ndarray, tables: NttTables) -> np.ndarray:
        """In-place forward NTT of ``a`` (see class docstring for layout)."""
        raise NotImplementedError

    def ntt_inverse(self, a: np.ndarray, tables: NttTables) -> np.ndarray:
        """In-place inverse NTT of ``a`` including the ``N^-1`` scaling."""
        raise NotImplementedError

    # -- fused RNS helpers ------------------------------------------------
    def rescale_delta(self, last_coeff: np.ndarray, q_last: int,
                      q_col: np.ndarray) -> np.ndarray:
        """Centred ``[last residue] mod q_i`` rows for the rescale step.

        ``last_coeff`` is the coefficient-form last residue with any
        leading shape ``(..., N)``; ``q_col`` is the remaining-basis
        column ``(k, 1)``.  Returns the ``(..., k, N)`` correction.
        The default composes the generic primitives; JIT backends may
        fuse the whole pass.
        """
        last = np.asarray(last_coeff, dtype=np.uint64)
        half = np.uint64(q_last // 2)
        last_mod = self.mod_reduce(last[..., None, :], q_col)
        correction = np.mod(np.uint64(q_last), q_col)
        return np.where(
            last[..., None, :] > half,
            self.sub_mod(last_mod, correction, q_col),
            last_mod,
        )

    # -- lifecycle --------------------------------------------------------
    def warmup(self, degree: int = 32) -> None:
        """Pre-compile / pre-build everything first use would pay for."""


# -- registry and selection ------------------------------------------------

_lock = threading.Lock()
_instances: dict[str, KernelBackend] = {}
_active: KernelBackend | None = None


def _backend_class(name: str):
    # backends import lazily so `import repro` never pays for (or
    # requires) numba
    if name == "numpy":
        from repro.polymath.kernels.numpy_backend import NumpyBackend
        return NumpyBackend
    if name == "numba":
        from repro.polymath.kernels.numba_backend import NumbaBackend
        return NumbaBackend
    if name == "pyloops":
        from repro.polymath.kernels.pyloops_backend import PyloopsBackend
        return PyloopsBackend
    raise KernelUnavailableError(
        f"unknown kernel backend {name!r} "
        f"(choose from {', '.join(BACKEND_NAMES)} or auto)")


def backend_available(name: str) -> bool:
    """True when ``name`` can be instantiated in this process."""
    try:
        return _backend_class(name).available()
    except KernelUnavailableError:
        return False


def get_backend(name: str) -> KernelBackend:
    """The singleton backend instance for ``name`` (must be available)."""
    inst = _instances.get(name)
    if inst is not None:
        return inst
    with _lock:
        inst = _instances.get(name)
        if inst is None:
            cls = _backend_class(name)
            if not cls.available():
                raise KernelUnavailableError(
                    f"kernel backend {name!r} is unavailable: "
                    f"{cls.unavailable_reason()}")
            inst = cls()
            _instances[name] = inst
        return inst


def resolve(name: str) -> KernelBackend:
    """Resolve a requested name (including ``auto``) to a live backend.

    ``auto`` probes :data:`AUTO_ORDER` and falls back to numpy with a
    one-line warning naming what was probed; an explicit unavailable
    name raises :class:`~repro.errors.KernelUnavailableError`.
    """
    name = (name or "numpy").strip().lower()
    if name != "auto":
        return get_backend(name)
    for candidate in AUTO_ORDER:
        if candidate == "numpy":
            break
        if backend_available(candidate):
            return get_backend(candidate)
    probed = ", ".join(c for c in AUTO_ORDER if c != "numpy")
    log.warning("kernel backend auto: %s unavailable, falling back to numpy",
                probed)
    return get_backend("numpy")


def set_backend(name: str) -> KernelBackend:
    """Select the process-global backend; returns the resolved instance."""
    global _active
    backend = resolve(name)
    with _lock:
        _active = backend
    return backend


def active() -> KernelBackend:
    """The process-global backend, resolving ``$REPRO_KERNEL`` lazily."""
    backend = _active
    if backend is None:
        backend = set_backend(os.environ.get("REPRO_KERNEL", "numpy"))
    return backend


def active_name() -> str:
    return active().name


def warmup(degree: int = 32) -> float:
    """Pre-compile the active backend's JIT kernels; returns seconds.

    No-op (0.0) on non-JIT backends.  Called at process start by the
    serving stack and the CLI so the first request/inference never pays
    numba compilation latency.
    """
    import time

    backend = active()
    if not backend.jit:
        return 0.0
    t0 = time.perf_counter()
    backend.warmup(degree)
    elapsed = time.perf_counter() - t0
    log.info("kernel backend %s warmed up in %.2fs", backend.name, elapsed)
    return elapsed


def _reset_for_tests() -> None:
    """Drop the cached selection (tests switch backends per-case)."""
    global _active
    with _lock:
        _active = None
