"""Op schedules and the executor: DAG analysis, in-order execution of
compiled CKKS programs, and thread-safety of the caches that threads
sharing one backend (serve workers, user threads) populate."""

import threading

import numpy as np
import pytest

from repro.backend import ExactBackend, SchemeConfig, SimBackend
from repro.ckks import CkksParameters
from repro.ir import (
    CipherType,
    IRBuilder,
    Module,
    PolyType,
    TensorType,
    VectorType,
    build_op_dag,
    compute_schedule,
)
from repro.runtime.ckks_interp import run_ckks_function
from repro.runtime.executor import cached_schedule


def _sim(levels=6, slots=64, noise=True, seed=0):
    return SimBackend(
        SchemeConfig(poly_degree=2 * slots, scale_bits=40,
                     first_prime_bits=50, num_levels=levels),
        inject_noise=noise, seed=seed,
    )


def _diamond(module, opcode, ptype, attrs=None):
    """x -> two independent ops -> one joining op (classic diamond)."""
    b = IRBuilder.make_function(module, "main", [ptype], ["x"])
    x = b.function.params[0]
    a = b.emit(opcode, [x, x], dict(attrs or {}))
    c = b.emit(opcode, [x, x], dict(attrs or {}))
    out = b.emit(opcode, [a, c], dict(attrs or {}))
    b.ret([out])
    return b.function


def _branchy_ckks(module, branches=6, chain=3, slots=64):
    """Wide fan-out from one input: `branches` independent rotate chains
    folded by a balanced add tree."""
    b = IRBuilder.make_function(module, "main", [CipherType(slots)], ["x"])
    x = b.function.params[0]
    tips = []
    for i in range(1, branches + 1):
        v = x
        for _ in range(chain):
            v = b.emit("ckks.rotate", [v], {"steps": i})
        tips.append(v)
    while len(tips) > 1:
        tips = [
            b.emit("ckks.add", [tips[j], tips[j + 1]])
            if j + 1 < len(tips) else tips[j]
            for j in range(0, len(tips), 2)
        ]
    b.ret(tips)
    return b.function


# -- DAG construction (every dialect) ---------------------------------------

@pytest.mark.parametrize("opcode,ptype", [
    ("nn.add", TensorType((1, 4))),
    ("vector.add", VectorType(64)),
    ("sihe.add", CipherType(64)),
    ("ckks.add", CipherType(64)),
    ("poly.add", PolyType(64, 3)),
])
def test_build_op_dag_every_dialect(opcode, ptype):
    """def-use wiring is dialect-agnostic: same diamond, same DAG."""
    fn = _diamond(Module("m"), opcode, ptype)
    deps, users = build_op_dag(fn)
    assert deps == [(), (), (0, 1)]
    assert users == [(2,), (2,), ()]


def test_schedule_diamond_wavefronts():
    fn = _diamond(Module("m"), "ckks.add", CipherType(64))
    sched = compute_schedule(fn)
    assert sched.stages == [[0, 1], [2]]
    assert sched.stage_of == [0, 0, 1]
    assert sched.depth == 2
    assert sched.max_width == 2
    # x feeds two distinct ops; intermediates feed one; the return value
    # is excluded from the consumer refcounts (never freed)
    x_id = fn.params[0].id
    assert sched.consumers[x_id] == 2
    assert fn.returns[0].id not in sched.consumers


def test_schedule_fanout_shape():
    fn = _branchy_ckks(Module("m"), branches=8, chain=2)
    sched = compute_schedule(fn)
    # all 8 branch heads depend only on the input: one full-width stage
    # (branch i's head is op 2*i — each branch emits a 2-op chain)
    assert sched.stages[0] == list(range(0, 16, 2))
    assert sched.max_width == 8
    assert sched.num_ops == len(fn.body)
    assert sum(len(s) for s in sched.stages) == sched.num_ops
    # every dep sits in a strictly earlier stage
    for index, pred in enumerate(sched.deps):
        for p in pred:
            assert sched.stage_of[p] < sched.stage_of[index]


def test_schedule_pass_runs_in_pipeline():
    from repro.ir import PassManager, schedule_pass

    module = Module("m")
    _branchy_ckks(module, branches=4, chain=1)
    pm = PassManager()
    pm.add(schedule_pass())
    context = pm.run(module)
    sched = context["schedules"]["main"]
    assert sched.max_width == 4
    desc = sched.describe()
    assert desc["ops"] == sched.num_ops and desc["max_width"] == 4


def test_cached_schedule_invalidates_on_growth():
    module = Module("m")
    fn = _branchy_ckks(module, branches=2, chain=1)
    first = cached_schedule(fn)
    assert cached_schedule(fn) is first  # memo hit
    b = IRBuilder(module, fn)
    v = b.emit("ckks.rotate", [fn.returns[0]], {"steps": 1})
    b.ret([v])
    second = cached_schedule(fn)
    assert second is not first
    assert second.num_ops == first.num_ops + 1


# -- executing compiled programs ------------------------------------------

def test_compiled_stats_report_schedule():
    from repro.compiler import ACECompiler, CompileOptions
    from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes

    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("linear_infer")
    builder.add_input("image", [1, 84])
    builder.add_initializer(
        "fc.weight", (rng.normal(size=(10, 84)) * 0.3).astype(np.float32))
    builder.add_initializer(
        "fc.bias", rng.normal(size=(10,)).astype(np.float32))
    builder.add_node("Gemm", ["image", "fc.weight", "fc.bias"],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 10])
    model = load_model_bytes(model_to_bytes(builder.build()))
    program = ACECompiler(model, CompileOptions(poly_mode="off")).compile()
    desc = program.stats["schedule"]
    assert desc["ops"] > 0 and desc["max_width"] >= 1
    assert desc["stages"] <= desc["ops"]


def test_liveness_frees_dead_values():
    module = Module("m")
    fn = _branchy_ckks(module, branches=4, chain=8)
    backend = _sim(noise=False)
    out = run_ckks_function(module, fn, backend, [np.ones(64)],
                            check_plan=False)
    got = backend.decrypt(out[0], 64)
    assert np.allclose(got, 4.0, atol=1e-6)


def test_op_error_propagates():
    """A failing op surfaces its typed error."""
    from repro.errors import RuntimeBackendError

    module = Module("m")
    b = IRBuilder.make_function(module, "main", [CipherType(64)], ["x"])
    x = b.function.params[0]
    r = b.emit("ckks.rotate", [x], {"steps": 1})
    bad = b.emit("sihe.neg", [r])  # not a CKKS-interpreter op
    b.ret([bad])
    with pytest.raises(RuntimeBackendError):
        run_ckks_function(module, b.function, _sim(), [np.ones(64)],
                          check_plan=False)


# -- trace determinism ------------------------------------------------------

def test_trace_counts_deterministic_across_backends():
    module = Module("m")
    fn = _branchy_ckks(module, branches=6, chain=4)
    x = np.ones(64)
    backends = [_sim(noise=False) for _ in range(3)]
    for backend in backends:
        run_ckks_function(module, fn, backend, [x], check_plan=False)
    first, second, third = (b.trace._snapshot() for b in backends)
    assert first == second == third


def test_trace_region_tags_do_not_leak_across_threads():
    """Per-thread region stacks: concurrently recorded ops keep their own
    tags even when another thread is inside a different region."""
    from repro.backend.trace import OpTrace

    trace = OpTrace()
    barrier = threading.Barrier(4)
    errors = []

    def work(tag):
        try:
            with trace.region(tag):
                barrier.wait(timeout=10)  # everyone inside a region at once
                for _ in range(200):
                    trace.record("op", 1)
                    assert trace.current_tag == tag
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(f"tag{i}",))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    per_tag = trace.by_tag()
    for i in range(4):
        assert per_tag[f"tag{i}"][("op", 1)] == 200


# -- evaluator cache stress (PR-2 memo caches) ------------------------------

def test_evaluator_caches_safe_under_8_threads():
    """Hammer the ksk-stack / extended-basis caches from 8 threads with
    exact-key rotations at two levels; results must all agree and the
    trace must not lose a rotation."""
    params = CkksParameters(poly_degree=128, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    backend = ExactBackend(params, rotation_steps=[1, 2, 3], seed=3)
    ct = backend.encrypt(np.linspace(-1, 1, 64))
    low = backend.mod_switch(ct, 1)
    baseline = [backend.rotate(ct, 3), backend.rotate(low, 1)]
    backend.trace.clear()

    results = [None] * 8
    errors = []
    barrier = threading.Barrier(8)

    def work(i):
        try:
            barrier.wait(timeout=10)
            results[i] = [backend.rotate(ct, 3), backend.rotate(low, 1)]
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for outs in results:
        for out, want in zip(outs, baseline):
            for k in range(2):
                assert np.array_equal(out.parts[k].residues,
                                      want.parts[k].residues)
    assert backend.trace.by_op()["rotate"] == 16


def test_linear_transform_memo_safe_under_threads():
    from repro.ckks.linear import LinearTransform

    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    n = params.num_slots
    lt = LinearTransform(np.eye(n) * 0.5 + np.diag(np.ones(n - 1), 1))
    backend = ExactBackend(params, rotation_steps=lt.required_rotations(),
                           seed=1)
    ct = backend.encrypt(np.linspace(0.0, 1.0, n))
    baseline = lt.apply(backend.ev, ct)
    lt._plain_cache.clear()  # force concurrent first-miss encodes
    lt._nonzero.clear()
    results = [None] * 8
    errors = []
    barrier = threading.Barrier(8)

    def work(i):
        try:
            barrier.wait(timeout=10)
            results[i] = lt.apply(backend.ev, ct)
        except Exception as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for out in results:
        for k in range(2):
            assert np.array_equal(out.parts[k].residues,
                                  baseline.parts[k].residues)
