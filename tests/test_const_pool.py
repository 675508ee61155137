"""The executor's constant pool: ops no input reaches run once per
backend, later runs issue only what depends on the input, and the
results are those of running everything every time."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro import chaos
from repro.backend import SchemeConfig, SimBackend
from repro.chaos import ChaosPlan
from repro.ckks import CkksParameters
from repro.errors import ChaosError, RuntimeBackendError
from repro.ir import CipherType, IRBuilder, Module, VectorType, compute_schedule
from repro.ir.core import Op, Value
from repro.runtime import ckks_interp
from repro.runtime import executor as executor_module
from repro.runtime.ckks_interp import run_ckks_function
from repro.runtime.executor import cached_schedule, const_pool

SLOTS = 64
LEVELS = 4


def _sim(seed=3, cls=SimBackend):
    return cls(
        SchemeConfig(poly_degree=2 * SLOTS, scale_bits=40,
                     first_prime_bits=50, num_levels=LEVELS),
        inject_noise=True, seed=seed,
    )


def _weighted(module, terms=6, mask_param=False):
    """sum_i rescale(rotate(x, i) * encode(w_i [* mask])): one constant and
    one encode per term, each read by exactly one ciphertext op."""
    types = [CipherType(SLOTS)] + ([VectorType(SLOTS)] if mask_param else [])
    b = IRBuilder.make_function(module, "main", types)
    x = b.function.params[0]
    rng = np.random.default_rng(0)
    acc = None
    for i in range(terms):
        name = module.add_constant("w", rng.normal(size=SLOTS // 2))
        vec = b.emit("vector.constant", [],
                     {"const_name": name, "length": SLOTS})
        if mask_param:
            vec = b.emit("vector.mul", [vec, b.function.params[1]])
        plain = b.emit("ckks.encode", [vec],
                       {"scale": 2.0 ** 40, "level": LEVELS})
        rot = b.emit("ckks.rotate", [x], {"steps": i + 1})
        term = b.emit("ckks.rescale", [b.emit("ckks.mul", [rot, plain])])
        acc = term if acc is None else b.emit("ckks.add", [acc, term])
    b.ret([acc])
    return b.function


def _inputs(count=3):
    rng = np.random.default_rng(7)
    return [rng.uniform(-1, 1, size=SLOTS) for _ in range(count)]


def _published(backend, module, fn):
    pool = const_pool(backend, module, fn, cached_schedule(fn))
    return pool if pool.published else None


@pytest.fixture
def issued(monkeypatch):
    """Opcodes reaching ``ckks_interp._issue``, in issue order."""
    seen = []
    real = ckks_interp._issue

    def spy(module, op, *rest):
        seen.append(op.opcode)
        return real(module, op, *rest)

    monkeypatch.setattr(ckks_interp, "_issue", spy)
    return seen


def _gemm_program():
    from repro.compiler import ACECompiler, CompileOptions
    from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes

    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("gemm")
    builder.add_input("x", [1, 12])
    builder.add_initializer("w", (rng.normal(size=(4, 12)) * 0.3)
                            .astype(np.float32))
    builder.add_initializer("b", rng.normal(size=(4,)).astype(np.float32))
    builder.add_node("Gemm", ["x", "w", "b"], outputs=["y"], transB=1)
    builder.add_output("y", [1, 4])
    params = CkksParameters(poly_degree=128, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    options = CompileOptions(exact_params=params, bootstrap_enabled=False,
                             poly_mode="off")
    model = load_model_bytes(model_to_bytes(builder.build()))
    return ACECompiler(model, options).compile(), params


# -- the def-use fact -------------------------------------------------------

def test_schedule_marks_ops_no_parameter_reaches():
    module = Module("m")
    fn = _weighted(module, terms=2)
    sched = compute_schedule(fn)
    static = {fn.body[i].opcode for i in sched.static}
    assert static == {"vector.constant", "ckks.encode"}
    assert len(sched.static) == 4
    assert set(sched.describe()) == {"ops", "stages", "max_width",
                                     "mean_width"}


def test_encode_of_a_cleartext_parameter_is_not_static():
    module = Module("m")
    fn = _weighted(module, terms=2, mask_param=True)
    sched = compute_schedule(fn)
    assert {fn.body[i].opcode for i in sched.static} == {"vector.constant"}


# -- same results as issuing everything every run ---------------------------

def test_three_runs_match_first_runs_sim_noise():
    """Run k on one backend (k > 1 steady) == a first run on a fresh one."""
    module = Module("m")
    fn = _weighted(module)
    shared = _sim()
    for x in _inputs():
        got = run_ckks_function(module, fn, shared, [x],
                                check_plan=False)[0]
        want = run_ckks_function(module, fn, _sim(), [x],
                                 check_plan=False)[0]
        assert np.array_equal(got.values, want.values)
        assert (got.scale, got.level) == (want.scale, want.level)


def test_three_runs_match_first_runs_exact_gemm():
    """Real RNS residues, limb for limb (same keygen seed, one shared
    input ciphertext so encryption randomness is not in the comparison)."""
    program, params = _gemm_program()
    module, fn = program.module, program.module.main()
    shared = program.make_exact_backend(params, seed=7)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.uniform(-1, 1, size=(1, 12))
        ct = shared.encrypt(program.pack_input(x, 0))
        got = run_ckks_function(module, fn, shared, [ct])[0]
        fresh = program.make_exact_backend(params, seed=7)
        want = run_ckks_function(module, fn, fresh, [ct])[0]
        assert (got.level, got.scale) == (want.level, want.scale)
        for k in range(2):
            assert np.array_equal(got.parts[k].residues,
                                  want.parts[k].residues)
    assert _published(shared, module, fn)


# -- a steady run issues only what depends on the input ---------------------

class _CountingSim(SimBackend):
    encodes = 0

    def encode(self, values, scale, level):
        self.encodes += 1
        return super().encode(values, scale, level)


def test_static_ops_issue_once_per_backend(issued):
    module = Module("m")
    fn = _weighted(module)
    backend = _sim(cls=_CountingSim)
    x = _inputs(1)[0]
    run_ckks_function(module, fn, backend, [x], check_plan=False)
    assert sorted(issued) == sorted(op.opcode for op in fn.body)
    del issued[:]
    for _ in range(2):
        run_ckks_function(module, fn, backend, [x], check_plan=False)
    assert backend.encodes == 6
    assert "vector.constant" not in issued and "ckks.encode" not in issued
    assert len(issued) == 2 * (len(fn.body) - 12)


def test_pool_is_per_backend_and_dies_with_it():
    module = Module("m")
    fn = _weighted(module)
    first, second = _sim(cls=_CountingSim), _sim(cls=_CountingSim)
    x = _inputs(1)[0]
    for backend in (first, first, second):
        run_ckks_function(module, fn, backend, [x], check_plan=False)
    assert (first.encodes, second.encodes) == (6, 6)
    pool = _published(first, module, fn)
    assert pool is not _published(second, module, fn)
    plain = weakref.ref(next(iter(pool.values.values())))
    del pool, first
    gc.collect()
    assert plain() is None
    assert _published(second, module, fn)


def test_encode_of_a_parameter_reencodes_and_follows_it():
    module = Module("m")
    fn = _weighted(module, mask_param=True)
    backend = _sim(cls=_CountingSim)
    x = _inputs(1)[0]
    outs = []
    for mask in (np.ones(SLOTS), np.zeros(SLOTS), np.ones(SLOTS)):
        out = run_ckks_function(module, fn, backend, [x, mask],
                                check_plan=False)[0]
        outs.append(backend.decrypt(out, SLOTS))
    assert backend.encodes == 18
    assert np.array_equal(outs[0], outs[2])
    assert np.abs(outs[0]).max() > 0.1 and np.abs(outs[1]).max() < 1e-6
    assert not _published(backend, module, fn).skip - compute_schedule(fn).static


def test_bound_pins_a_prefix_and_reruns_the_rest(monkeypatch, issued):
    monkeypatch.setattr(executor_module, "_ENCODE_CACHE_MAX", 3)
    module = Module("m")
    fn = _weighted(module)
    backend = _sim(cls=_CountingSim)
    for x in _inputs():
        want = run_ckks_function(module, fn, _sim(), [x],
                                 check_plan=False)[0]
        del issued[:]
        got = run_ckks_function(module, fn, backend, [x],
                                check_plan=False)[0]
        assert np.array_equal(got.values, want.values)
    pool = _published(backend, module, fn)
    assert len(pool.values) == 3
    # first three encodes (program order) pinned, last three run each time
    encodes = [op.results[0].id for op in fn.body
               if op.opcode == "ckks.encode"]
    assert set(pool.values) == set(encodes[:3])
    assert backend.encodes == 6 + 2 * 3
    assert issued.count("ckks.encode") == issued.count("vector.constant") == 3


def test_pooled_plaintexts_never_enter_the_environment(monkeypatch):
    """Pooled values are looked up, not copied into the environment."""
    module = Module("m")
    fn = _weighted(module)
    backend = _sim()
    x = _inputs(1)[0]
    seen = []
    real = ckks_interp._values

    def probe(env, pool, values):
        seen.append(set(env))
        return real(env, pool, values)

    monkeypatch.setattr(ckks_interp, "_values", probe)
    run_ckks_function(module, fn, backend, [x], check_plan=False)
    pool = _published(backend, module, fn)
    del seen[:]
    run_ckks_function(module, fn, backend, [x], check_plan=False)
    assert seen and not any(env & set(pool.values) for env in seen)


# -- validity ---------------------------------------------------------------

def test_cached_schedule_invalidates_on_same_length_edit():
    from tests.test_parallel_exec import _branchy_ckks

    module = Module("m")
    fn = _branchy_ckks(module, branches=2, chain=2)
    first = cached_schedule(fn)
    assert cached_schedule(fn) is first
    # replace the second rotate of branch 1 by one reading the input
    old = fn.body[1]
    new = Op("ckks.rotate", [fn.params[0]], [Value(CipherType(SLOTS))],
             {"steps": 1})
    fn.body[1] = new
    for op in fn.body:
        op.operands = [new.results[0] if o is old.results[0] else o
                       for o in op.operands]
    second = cached_schedule(fn)
    assert second is not first
    assert first.deps[1] == (0,) and second.deps[1] == ()


def test_rebinding_a_constant_between_runs_is_seen():
    module = Module("m")
    fn = _weighted(module)
    backend = _sim()
    x = _inputs(1)[0]

    def run(on):
        return run_ckks_function(module, fn, on, [x],
                                 check_plan=False)[0].values

    before = run(backend)
    assert np.array_equal(run(backend), before)
    name = fn.body[0].attrs["const_name"]
    module.constants[name] = module.constants[name] * -3.0
    after = run(backend)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, run(_sim()))


def test_same_length_body_edit_drops_the_pool():
    module = Module("m")
    fn = _weighted(module)
    backend = _sim()
    x = _inputs(1)[0]
    run_ckks_function(module, fn, backend, [x], check_plan=False)
    other = module.add_constant("w", np.full(SLOTS // 2, 0.25))
    new = Op("vector.constant", [], [Value(VectorType(SLOTS))],
             {"const_name": other, "length": SLOTS})
    fn.body[0] = new
    fn.body[1].operands = [new.results[0]]
    got = run_ckks_function(module, fn, backend, [x], check_plan=False)[0]
    want = run_ckks_function(module, fn, _sim(), [x], check_plan=False)[0]
    assert np.array_equal(got.values, want.values)


def test_failed_first_run_publishes_nothing_and_retry_succeeds():
    module = Module("m")
    fn = _weighted(module)
    backend = _sim(cls=_CountingSim)
    x = _inputs(1)[0]
    # fires once, mid-run: some static results are already recorded
    plan = ChaosPlan.from_spec("seed=3;executor.job_exception=0.05@1")
    with chaos.active(plan):
        with pytest.raises(ChaosError):
            run_ckks_function(module, fn, backend, [x], check_plan=False)
    assert 0 < backend.encodes < 6
    assert _published(backend, module, fn) is None
    got = run_ckks_function(module, fn, backend, [x], check_plan=False)[0]
    want = run_ckks_function(module, fn, _sim(), [x], check_plan=False)[0]
    assert np.array_equal(got.values, want.values)
    assert len(_published(backend, module, fn).values) == 6


def test_plan_check_still_guards_steady_runs():
    program, _ = _gemm_program()
    backend = program.make_sim_backend(seed=1)
    x = np.random.default_rng(2).uniform(-1, 1, size=(1, 12))
    program.run(backend, x, check_plan=True)
    fn = program.module.main()
    static = cached_schedule(fn).static
    index = next(i for i, op in enumerate(fn.body)
                 if i not in static
                 and op.results[0].meta.get("scale") is not None)
    fn.body[index].results[0].meta["scale"] *= 2.0
    with pytest.raises(RuntimeBackendError):
        program.run(backend, x, check_plan=True)


# -- two threads may first-run one backend ----------------------------------

def test_concurrent_first_runs_publish_one_pool():
    module = Module("m")
    fn = _weighted(module)
    backend = _sim()
    x = _inputs(1)[0]
    want = run_ckks_function(module, fn, _sim(), [x], check_plan=False)[0]
    results, errors = [], []
    barrier = threading.Barrier(6)

    def work():
        try:
            barrier.wait(timeout=10)
            for _ in range(5):
                results.append(run_ckks_function(
                    module, fn, backend, [x], check_plan=False)[0].values)
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(results) == 30
    assert all(np.array_equal(r, want.values) for r in results)
    pool = _published(backend, module, fn)
    assert pool is _published(backend, module, fn)
    assert len(pool.values) == 6
