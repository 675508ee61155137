"""Hoisted rotations in the compiled path: every rotation source is
decomposed once per run, and holds its decomposition only until the last
rotation that reads it."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.backend import ExactBackend
from repro.ckks import CkksContext, CkksParameters
from repro.ckks.evaluator import CkksEvaluator
from repro.ir import CipherType, IRBuilder, Module, compute_schedule
from repro.ir.schedule import rotation_groups
from repro.runtime.ckks_interp import run_ckks_function

N = 64
SLOTS = N // 2
PARAMS = CkksParameters(poly_degree=N, scale_bits=30, first_prime_bits=40,
                        num_levels=3)


def _cipher_equal(a, b):
    return a.size == b.size and all(
        x.is_ntt == y.is_ntt and np.array_equal(x.residues, y.residues)
        for x, y in zip(a.parts, b.parts)
    )


@pytest.fixture
def decompositions(monkeypatch):
    """Counts ``CkksEvaluator._decompose`` calls."""
    count = Counter()
    real = CkksEvaluator._decompose

    def spy(self, d):
        count["calls"] += 1
        return real(self, d)

    monkeypatch.setattr(CkksEvaluator, "_decompose", spy)
    return count


class _DropKeep:
    """A backend that rotates every source as if no later rotation read it."""

    def __init__(self, real):
        self.real = real

    def rotate(self, a, steps, keep=False):
        return self.real.rotate(a, steps)

    def __getattr__(self, attr):
        return getattr(self.real, attr)


#: public backend op -> the name it is recorded under in ``backend.trace``
_BACKEND_OPS = {
    "encrypt": "encrypt", "decrypt": "decrypt", "encode": "encode",
    "add": "add", "add_plain": "add_plain", "sub": "sub",
    "sub_plain": "sub_plain", "negate": "negate", "mul": "mul",
    "mul_plain": "mul_plain", "relinearize": "relin", "rescale": "rescale",
    "mod_switch": "modswitch", "upscale": "upscale",
    "bootstrap": "bootstrap", "rotate": "rotate", "conjugate": "conjugate",
}


class _CountingBackend:
    """Delegating proxy: one wrapper per public op, ``__getattr__`` for
    the rest; counts the calls each op receives."""

    def __init__(self, real):
        self.real = real
        self.calls = Counter()
        for method, name in _BACKEND_OPS.items():
            setattr(self, method, self._counted(getattr(real, method), name))

    def _counted(self, call, name):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return call(*args, **kwargs)

        return wrapper

    def __getattr__(self, attr):
        return getattr(self.real, attr)


# ----------------------------------------------------------------------
# evaluator: rotate(..., keep)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return CkksContext(PARAMS, rotation_steps=list(range(1, SLOTS)), seed=11)


def test_keep_sequence_bit_identical_and_released(ctx, decompositions):
    ev = ctx.evaluator
    ct = ctx.encrypt(np.random.default_rng(0).uniform(-1, 1, SLOTS))
    steps = [1, 5, 0, 17, SLOTS - 1]
    want = [ev.rotate(ct, s) for s in steps]
    assert ct.hoisted is None
    decompositions.clear()
    got = []
    for i, step in enumerate(steps):
        last = i == len(steps) - 1
        got.append(ev.rotate(ct, step, keep=not last))
        assert (ct.hoisted is None) == last
    assert decompositions["calls"] == 1
    for g, w in zip(got, want):
        assert _cipher_equal(g, w)
        assert g.hoisted is None


def test_keep_false_on_a_zero_step_releases(ctx):
    ev = ctx.evaluator
    ct = ctx.encrypt(np.linspace(-1, 1, SLOTS))
    ev.rotate(ct, 3, keep=True)
    assert ct.hoisted is not None
    assert ct.copy().hoisted is None  # derived state is never copied
    assert _cipher_equal(ev.rotate(ct, SLOTS, keep=False), ct)
    assert ct.hoisted is None


# ----------------------------------------------------------------------
# schedule + interpreter on hand-built CKKS IR
# ----------------------------------------------------------------------

def _mixed_groups(module):
    """x*x relinearised, rotated three times; x rotated twice, the reads
    of the two sources interleaved."""
    b = IRBuilder.make_function(module, "main", [CipherType(SLOTS)], ["x"])
    x = b.function.params[0]
    rx1 = b.emit("ckks.rotate", [x], {"steps": 1})
    sq = b.emit("ckks.relin", [b.emit("ckks.mul", [x, x])])
    rs1 = b.emit("ckks.rotate", [sq], {"steps": 2})
    acc = b.emit("ckks.add", [rx1, b.emit("ckks.rotate", [x], {"steps": 7})])
    rs2 = b.emit("ckks.rotate", [sq], {"steps": 5})
    rs3 = b.emit("ckks.rotate", [sq], {"steps": SLOTS - 1})
    sq_sum = b.emit("ckks.add", [b.emit("ckks.add", [rs1, rs2]), rs3])
    b.ret([acc, sq_sum])
    return b.function


def test_rotation_groups_and_keep_marks():
    fn = _mixed_groups(Module("m"))
    groups = rotation_groups(fn)
    x, sq = fn.params[0].id, fn.body[2].results[0].id
    assert groups == {x: [0, 4], sq: [3, 6, 7]}
    assert compute_schedule(fn).keep_decomposition == {0, 3, 6}


def test_interpreter_decomposes_each_source_once(decompositions):
    module = Module("m")
    fn = _mixed_groups(module)
    make = lambda: ExactBackend(PARAMS, rotation_steps=[1, 2, 5, 7, SLOTS - 1],
                                seed=5)
    msg = np.random.default_rng(2).uniform(-1, 1, SLOTS)
    hoisting, looping = make(), make()
    ct = hoisting.encrypt(msg)
    decompositions.clear()
    got = run_ckks_function(module, fn, hoisting, [ct], check_plan=False)
    # two rotation groups + one relinearisation
    assert decompositions["calls"] == 2 + 1
    assert ct.hoisted is None
    assert all(out.hoisted is None for out in got)
    want = run_ckks_function(module, fn, _DropKeep(looping),
                             [looping.encrypt(msg)], check_plan=False)
    for g, w in zip(got, want):
        assert _cipher_equal(g, w)


def test_concurrent_runs_sharing_one_input_cipher():
    """Threads running one program on one input ciphertext race on the
    decomposition it holds: every output stays bit-identical, and once
    all runs are done the input holds nothing (each run's last write to
    it is a ``keep=False`` clear)."""
    module = Module("m")
    fn = _mixed_groups(module)
    backend = ExactBackend(PARAMS, rotation_steps=[1, 2, 5, 7, SLOTS - 1],
                           seed=5)
    ct = backend.encrypt(np.random.default_rng(3).uniform(-1, 1, SLOTS))
    want = run_ckks_function(module, fn, backend, [ct], check_plan=False)
    results, errors = [], []

    def worker():
        try:
            for _ in range(4):
                results.append(run_ckks_function(module, fn, backend, [ct],
                                                 check_plan=False))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 16
    for got in results:
        for g, w in zip(got, want):
            assert _cipher_equal(g, w)
    assert ct.hoisted is None


# ----------------------------------------------------------------------
# a compiled program
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def gemm():
    """Two Gemm layers at exact N=128 parameters (two rotation sources)."""
    from repro.compiler import ACECompiler, CompileOptions
    from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes

    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("gemm2")
    builder.add_input("x", [1, 12])
    for name, (rows, cols) in (("0", (8, 12)), ("1", (4, 8))):
        builder.add_initializer(f"w{name}", (rng.normal(size=(rows, cols))
                                             * 0.3).astype(np.float32))
        builder.add_initializer(f"b{name}", rng.normal(size=(rows,))
                                .astype(np.float32))
    builder.add_node("Gemm", ["x", "w0", "b0"], outputs=["h"], transB=1)
    builder.add_node("Gemm", ["h", "w1", "b1"], outputs=["y"], transB=1)
    builder.add_output("y", [1, 4])
    params = CkksParameters(poly_degree=128, scale_bits=30,
                            first_prime_bits=40, num_levels=4)
    options = CompileOptions(exact_params=params, bootstrap_enabled=False,
                             poly_mode="off")
    model = load_model_bytes(model_to_bytes(builder.build()))
    return ACECompiler(model, options).compile(), params


def _ckks_rotation_groups(fn):
    return [group for group in rotation_groups(fn).values()
            if fn.body[group[0]].opcode == "ckks.rotate"]


def test_compiled_gemm_decomposes_once_per_rotation_group(gemm,
                                                          decompositions):
    program, params = gemm
    fn = program.module.main()
    groups = _ckks_rotation_groups(fn)
    rotations = sum(len(group) for group in groups)
    assert len(groups) >= 2 and rotations > len(groups)
    backend = program.make_exact_backend(params, seed=3)
    x = np.random.default_rng(4).uniform(-1, 1, (1, 12))
    decompositions.clear()
    program.run(backend, x)
    relins = backend.trace.by_op()["relin"]
    assert decompositions["calls"] == len(groups) + relins


def test_compiled_program_without_a_rotation_key_raises(gemm):
    from repro.errors import KeyError_

    program, params = gemm
    short = program.rotation_steps[:-1]
    backend = program.make_exact_backend(params, rotation_steps=short,
                                         seed=3)
    x = np.random.default_rng(4).uniform(-1, 1, (1, 12))
    with pytest.raises(KeyError_, match="no rotation key for step"):
        program.run(backend, x)


def test_compiled_gemm_outputs_match_unhoisted_run(gemm):
    program, params = gemm
    module, fn = program.module, program.module.main()
    x = np.random.default_rng(5).uniform(-1, 1, (1, 12))
    packed = [program.pack_input(x)]
    outs = {}
    for name, wrap in (("hoisted", lambda be: be), ("looped", _DropKeep)):
        backend = program.make_exact_backend(params, seed=3)
        ciphers = run_ckks_function(module, fn, wrap(backend), packed)
        outs[name] = (ciphers, [backend.decrypt(c) for c in ciphers])
    for got, want in zip(outs["hoisted"][0], outs["looped"][0]):
        assert _cipher_equal(got, want)
    for got, want in zip(outs["hoisted"][1], outs["looped"][1]):
        assert got.tobytes() == want.tobytes()


def test_one_backend_rotate_call_per_compiled_rotate(gemm):
    """What a timing proxy around the backend relies on: each op of the
    program reaches the backend as exactly one call of its public
    method, so per-call counts equal ``backend.trace.by_op()``."""
    program, params = gemm
    fn = program.module.main()
    backend = program.make_exact_backend(params, seed=3)
    proxy = _CountingBackend(backend)
    rng = np.random.default_rng(6)
    program.run(proxy, rng.uniform(-1, 1, (1, 12)))  # fills the const pool
    for _ in range(2):
        backend.trace.clear()
        proxy.calls.clear()
        program.run(proxy, rng.uniform(-1, 1, (1, 12)))
        rotates = sum(op.opcode == "ckks.rotate" for op in fn.body)
        assert proxy.calls["rotate"] == rotates
        assert dict(proxy.calls) == dict(backend.trace.by_op())


def test_exact_backend_has_one_rotation_entry_point():
    assert not hasattr(ExactBackend, "rotate_hoisted")
