"""Pluggable kernel backends: selection, differential identity, plumbing.

The pyloops backend executes the *same* kernel source numba compiles
(128-bit Barrett, Shoup twiddles) in pure Python, so the JIT arithmetic
gets full differential coverage on hosts without numba; when numba (or
CuPy + a GPU) is installed the same assertions run against the real
JIT backends too.
"""

import threading

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParameters
from repro.errors import KernelUnavailableError, ParameterError
from repro.ir import CipherType, IRBuilder, Module
from repro.polymath import kernels, modmath
from repro.polymath.kernels import jitcore
from repro.polymath.ntt import NttContext, stacked_tables
from repro.polymath.rns import RnsBasis
from repro.runtime.ckks_interp import run_ckks_function

HAVE_NUMBA = kernels.backend_available("numba")

#: every non-default backend that can run on this host; pyloops is
#: always present, so the differential suite never silently shrinks to
#: nothing
ALT_BACKENDS = ["pyloops"] + (["numba"] if HAVE_NUMBA else [])

#: 59-bit NTT-friendly prime (== 1 mod 128): above the numpy float-trick
#: ceiling, inside the JIT backends' 59-bit one
P59 = 288230376151714561

N = 64
SLOTS = N // 2


@pytest.fixture(autouse=True)
def _numpy_backend_after(monkeypatch):
    """Every test starts and ends on the default numpy backend."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    kernels.set_backend("numpy")
    yield
    kernels.set_backend("numpy")


# ----------------------------------------------------------------------
# selection / registry
# ----------------------------------------------------------------------

def test_default_backend_is_numpy():
    kernels._reset_for_tests()
    assert kernels.active_name() == "numpy"
    assert kernels.active() is kernels.get_backend("numpy")


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "pyloops")
    kernels._reset_for_tests()
    assert kernels.active_name() == "pyloops"


def test_unknown_backend_rejected():
    with pytest.raises(KernelUnavailableError):
        kernels.get_backend("vulkan")
    with pytest.raises(KernelUnavailableError):
        kernels.set_backend("vulkan")


@pytest.mark.skipif(HAVE_NUMBA, reason="numba present: cannot be missing")
def test_missing_dependency_raises_with_reason():
    with pytest.raises(KernelUnavailableError, match="numba"):
        kernels.get_backend("numba")


def test_auto_resolves_cleanly(caplog):
    with caplog.at_level("WARNING", logger="repro.kernels"):
        backend = kernels.resolve("auto")
    if HAVE_NUMBA:
        assert backend.name == "numba"
    else:
        assert backend.name == "numpy"
        assert any("falling back to numpy" in r.message for r in caplog.records)


def test_backend_singletons():
    assert kernels.get_backend("pyloops") is kernels.get_backend("pyloops")


def test_warmup_is_cheap_noop_for_interpreted_backends():
    kernels.set_backend("numpy")
    assert kernels.warmup() == 0.0
    kernels.set_backend("pyloops")
    assert kernels.warmup() == 0.0  # jit=False: nothing to compile
    # the warmup body itself still runs for any backend on request
    kernels.get_backend("pyloops").warmup()


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_numba_warmup_compiles_all_kernels():
    kernels.set_backend("numba")
    seconds = kernels.warmup()
    assert seconds >= 0.0
    backend = kernels.get_backend("numba")
    for name in jitcore.ELEMENTWISE_KERNELS + jitcore.NTT_KERNELS:
        assert backend._compiled.get(name) is not None


# ----------------------------------------------------------------------
# differential identity: elementwise
# ----------------------------------------------------------------------

MODULI = [97, (1 << 30) + 3 + 2**12, (1 << 50) - 27]


@pytest.mark.parametrize("name", ALT_BACKENDS)
@pytest.mark.parametrize("q", MODULI)
def test_elementwise_matches_numpy(name, q):
    ref = kernels.get_backend("numpy")
    alt = kernels.get_backend(name)
    rng = np.random.default_rng(7)
    a = rng.integers(0, q, size=(3, 128), dtype=np.uint64)
    b = rng.integers(0, q, size=(3, 128), dtype=np.uint64)
    qq = np.uint64(q)
    for op in ("add_mod", "sub_mod", "mul_mod"):
        assert np.array_equal(getattr(ref, op)(a, b, qq),
                              getattr(alt, op)(a, b, qq)), op
    assert np.array_equal(ref.neg_mod(a, qq), alt.neg_mod(a, qq))
    raw = rng.integers(0, 1 << 62, size=(3, 128), dtype=np.uint64)
    assert np.array_equal(ref.mod_reduce(raw, qq), alt.mod_reduce(raw, qq))


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_elementwise_edge_operands(name):
    """Operands at q-1 with the modulus at exactly the shared floor."""
    q = (1 << modmath.MAX_MODULUS_BITS) - 27
    alt = kernels.get_backend(name)
    a = np.array([q - 1, q - 1, 1, 0], dtype=np.uint64)
    b = np.array([q - 1, 1, q - 1, q - 1], dtype=np.uint64)
    got = alt.mul_mod(a, b, np.uint64(q))
    want = np.array([((q - 1) * (q - 1)) % q, q - 1, q - 1, 0],
                    dtype=np.uint64)
    assert np.array_equal(got, want)
    assert np.array_equal(alt.add_mod(a, b, np.uint64(q)),
                          np.array([(2 * q - 2) % q, q, q, q - 1],
                                   dtype=np.uint64) % np.uint64(q))


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_elementwise_broadcast_column_moduli(name):
    """(B, 1) and (1, 1, B, 1) modulus layouts used by the RNS layer."""
    moduli = [97, 193, 257]
    ref = kernels.get_backend("numpy")
    alt = kernels.get_backend(name)
    rng = np.random.default_rng(11)
    q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    a = rng.integers(0, 97, size=(3, 32), dtype=np.uint64)
    b = rng.integers(0, 97, size=(3, 32), dtype=np.uint64)
    for q in (q_col, q_col.reshape(1, 3, 1), q_col.reshape(1, 1, 3, 1)):
        lead = (1,) * (q.ndim - 2)
        aa = a.reshape(lead + a.shape)
        bb = b.reshape(lead + b.shape)
        for op in ("add_mod", "sub_mod", "mul_mod"):
            assert np.array_equal(getattr(ref, op)(aa, bb, q),
                                  getattr(alt, op)(aa, bb, q)), (op, q.shape)


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_exotic_layouts_fall_back_consistently(name):
    """0-d results and per-element moduli still match numpy exactly."""
    alt = kernels.get_backend(name)
    ref = kernels.get_backend("numpy")
    assert alt.mul_mod(np.uint64(5), np.uint64(6), np.uint64(7)) == \
        ref.mul_mod(np.uint64(5), np.uint64(6), np.uint64(7))
    # modulus varying along the last axis: not a kernel layout, must
    # still be correct via the numpy fallback
    q_row = np.array([97, 193, 257, 521], dtype=np.uint64)
    a = np.array([90, 180, 250, 500], dtype=np.uint64)
    assert np.array_equal(alt.mul_mod(a, a, q_row), ref.mul_mod(a, a, q_row))


# ----------------------------------------------------------------------
# differential identity: 128-bit Barrett past the float-trick ceiling
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_59_bit_mul_mod_exact(name):
    backend = kernels.get_backend(name)
    assert backend.max_modulus_bits == jitcore.JIT_MAX_MODULUS_BITS
    rng = np.random.default_rng(13)
    a = rng.integers(0, P59, size=64, dtype=np.uint64)
    b = rng.integers(0, P59, size=64, dtype=np.uint64)
    got = backend.mul_mod(a, b, np.uint64(P59))
    want = np.array([(int(x) * int(y)) % P59 for x, y in zip(a, b)],
                    dtype=np.uint64)
    assert np.array_equal(got, want)
    edge = np.array([P59 - 1, 1, 0], dtype=np.uint64)
    assert np.array_equal(
        backend.mul_mod(edge, edge, np.uint64(P59)),
        np.array([((P59 - 1) ** 2) % P59, 1, 0], dtype=np.uint64))


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_59_bit_ntt_roundtrip_beyond_numpy_ceiling(name, monkeypatch):
    """JIT backends transform under a 59-bit prime; numpy refuses it."""
    kernels.set_backend(name)
    ctx = NttContext(P59, N)
    rng = np.random.default_rng(17)
    a = rng.integers(0, P59, size=(2, N), dtype=np.uint64)
    fwd = ctx.forward(a)
    assert np.array_equal(ctx.inverse(fwd), a)
    # ground truth on one coefficient vector: evaluation at psi powers is
    # hard to check directly, but linearity + roundtrip + the negacyclic
    # convolution theorem below pin the transform down
    x = rng.integers(0, P59, size=N, dtype=np.uint64)
    y = rng.integers(0, P59, size=N, dtype=np.uint64)
    got = ctx.negacyclic_multiply(x, y)
    acc = [0] * N
    for i in range(N):
        for j in range(N):
            k = i + j
            if k < N:
                acc[k] += int(x[i]) * int(y[j])
            else:
                acc[k - N] -= int(x[i]) * int(y[j])
    want = np.array([v % P59 for v in acc], dtype=np.uint64)
    assert np.array_equal(got, want)
    # the same tables are rejected by the numpy backend's 50-bit ceiling
    numpy_backend = kernels.get_backend("numpy")
    with pytest.raises(ParameterError, match="ceiling"):
        numpy_backend.ntt_forward(a.copy(), ctx.tables)
    # and the shared floor is still enforceable explicitly
    with pytest.raises(ParameterError):
        modmath.check_modulus(P59, max_bits=modmath.MAX_MODULUS_BITS)


# ----------------------------------------------------------------------
# differential identity: NTT + rescale on real bases
# ----------------------------------------------------------------------

def _chain_basis():
    params = CkksParameters(poly_degree=N, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    return RnsBasis(list(params.moduli), N)


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_stacked_ntt_matches_numpy(name):
    basis = _chain_basis()
    ref = kernels.get_backend("numpy")
    alt = kernels.get_backend(name)
    rng = np.random.default_rng(19)
    stack = np.stack([rng.integers(0, q, size=N, dtype=np.uint64)
                      for q in basis.moduli])
    # extra leading (digit) dimension exercised too
    for arr in (stack, np.stack([stack, stack[:, ::-1].copy()])):
        f_ref = ref.ntt_forward(arr.copy(), basis.tables)
        f_alt = alt.ntt_forward(arr.copy(), basis.tables)
        assert np.array_equal(f_ref, f_alt)
        assert np.array_equal(ref.ntt_inverse(f_ref.copy(), basis.tables),
                              alt.ntt_inverse(f_alt.copy(), basis.tables))


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_rescale_delta_matches_numpy(name):
    basis = _chain_basis()
    ref = kernels.get_backend("numpy")
    alt = kernels.get_backend(name)
    rng = np.random.default_rng(23)
    k = len(basis) - 1
    q_last = basis.moduli[k]
    q_col = basis.moduli_col[:k]
    for shape in ((N,), (2, N)):
        last = rng.integers(0, q_last, size=shape, dtype=np.uint64)
        assert np.array_equal(ref.rescale_delta(last, q_last, q_col),
                              alt.rescale_delta(last, q_last, q_col))


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_rns_rescale_route_bit_identical(name):
    """RnsPoly.rescale_last produces identical residues on every backend."""
    from repro.polymath.rns import RnsPoly

    basis = _chain_basis()
    rng = np.random.default_rng(29)
    coeffs = rng.integers(-1000, 1000, size=N)
    results = {}
    for backend in ("numpy", name):
        kernels.set_backend(backend)
        poly = RnsPoly.from_int_coeffs(basis, coeffs, to_ntt=True)
        results[backend] = poly.rescale_last().residues
    assert np.array_equal(results["numpy"], results[name])


# ----------------------------------------------------------------------
# ciphertext bit-identity: full encrypt/eval/decrypt
# ----------------------------------------------------------------------

def _ckks_roundtrip(seed=42):
    params = CkksParameters(poly_degree=N, scale_bits=30,
                            first_prime_bits=40, num_levels=3,
                            num_special_primes=1)
    ctx = CkksContext(params, rotation_steps=[1], seed=seed,
                      need_conjugation=True)
    rng = np.random.default_rng(3)
    vec = rng.normal(size=SLOTS) * 0.5
    ct = ctx.encrypt(vec)
    sq = ctx.evaluator.rescale(
        ctx.evaluator.relinearize(ctx.evaluator.multiply(ct, ct)))
    rot = ctx.evaluator.rotate(sq, 1)
    out = np.asarray(ctx.decrypt(rot, SLOTS))
    return (
        np.concatenate([p.residues.ravel() for p in ct.parts]),
        np.concatenate([p.residues.ravel() for p in rot.parts]),
        out,
    )


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_ciphertext_bytes_identical_across_backends(name):
    kernels.set_backend("numpy")
    enc_ref, ev_ref, out_ref = _ckks_roundtrip()
    kernels.set_backend(name)
    enc_alt, ev_alt, out_alt = _ckks_roundtrip()
    assert np.array_equal(enc_ref, enc_alt)
    assert np.array_equal(ev_ref, ev_alt)
    assert np.array_equal(out_ref, out_alt)


@pytest.mark.parametrize("name", ALT_BACKENDS)
def test_exact_backend_bit_identical_across_backends_and_jobs(name):
    """ExactBackend DAG run: same residues at jobs=1/numpy vs jobs=4/alt."""
    from repro.backend import ExactBackend

    params = CkksParameters(poly_degree=N, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    module = Module("m")
    b = IRBuilder.make_function(module, "main", [CipherType(SLOTS)], ["x"])
    x = b.function.params[0]
    rots = [b.emit("ckks.rotate", [x], {"steps": i}) for i in (1, 2)]
    acc = b.emit("ckks.mul", [x, x])
    acc = b.emit("ckks.rescale", [acc])
    for r in rots:
        r2 = b.emit("ckks.mul", [r, r])
        acc = b.emit("ckks.add", [acc, b.emit("ckks.rescale", [r2])])
    b.ret([acc])
    x_in = np.linspace(-0.5, 0.5, SLOTS)

    outs = {}
    for backend, jobs in (("numpy", 1), (name, 4)):
        kernels.set_backend(backend)
        exact = ExactBackend(params, rotation_steps=[1, 2], seed=5)
        outs[backend] = run_ckks_function(module, b.function, exact, [x_in],
                                          check_plan=False, jobs=jobs)[0]
    ref, alt = outs["numpy"], outs[name]
    assert ref.level == alt.level and ref.scale == alt.scale
    for k in range(ref.size):
        assert np.array_equal(ref.parts[k].residues, alt.parts[k].residues)


# ----------------------------------------------------------------------
# twiddle-table memoisation
# ----------------------------------------------------------------------

def test_tables_memoised_per_degree_and_chain():
    t1 = stacked_tables(N, (257,))
    t2 = stacked_tables(N, (257,))
    assert t1 is t2
    assert NttContext(257, N).tables is NttContext(257, N).tables
    basis = _chain_basis()
    # a prefix shares the globally memoised per-chain entry
    assert basis.prefix(1).tables is stacked_tables(N, (basis.moduli[0],))
    assert basis.tables is RnsBasis(list(basis.moduli), N).tables


def test_tables_memo_thread_race_single_instance():
    moduli = (641, 1153)  # fresh key: not built anywhere else in the suite
    results = []
    barrier = threading.Barrier(8)

    def build():
        barrier.wait()
        results.append(stacked_tables(N, moduli))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(r) for r in results}) == 1


def test_tables_extras_builder_runs_once_under_contention():
    tables = stacked_tables(N, (257, 769))
    calls = []
    barrier = threading.Barrier(8)

    def builder(t):
        calls.append(1)
        return {"token": object()}

    got = []

    def fetch():
        barrier.wait()
        got.append(tables.extras("race-test", builder))

    threads = [threading.Thread(target=fetch) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert len({id(g["token"]) for g in got}) == 1


def test_numpy_backend_shape_validation():
    basis = _chain_basis()
    backend = kernels.get_backend("numpy")
    bad = np.zeros((len(basis) + 1, N), dtype=np.uint64)
    with pytest.raises(ParameterError):
        backend.ntt_forward(bad, basis.tables)
    with pytest.raises(ParameterError):
        kernels.get_backend("pyloops").ntt_forward(bad, basis.tables)


# ----------------------------------------------------------------------
# plumbing: stats / serve metrics
# ----------------------------------------------------------------------

def test_kernel_backend_reported_in_program_stats():
    from repro.compiler import ACECompiler, CompileOptions
    from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes

    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("linear_infer")
    builder.add_input("image", [1, 8])
    builder.add_initializer(
        "fc.weight", (rng.normal(size=(4, 8)) * 0.3).astype(np.float32))
    builder.add_initializer(
        "fc.bias", rng.normal(size=(4,)).astype(np.float32))
    builder.add_node("Gemm", ["image", "fc.weight", "fc.bias"],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 4])
    model = load_model_bytes(model_to_bytes(builder.build()))
    program = ACECompiler(model, CompileOptions(poly_mode="off")).compile()
    assert program.stats["kernel_backend"] == "numpy"


def test_serve_metrics_report_kernel_backend():
    from repro.serve import InferenceServer, ModelRegistry, ServeClient

    server = InferenceServer(ModelRegistry(), port=0).start()
    try:
        with ServeClient(server.host, server.port) as client:
            reply = client.metrics()
        assert reply["kernel_backend"] == "numpy"
        assert "kernel_warmup_seconds" in reply["snapshot"]["gauges"]
    finally:
        server.stop()
