"""The algebraic op-reduction optimizer (``repro.passes.opt``).

Three layers of coverage:

* unit tests drive each rewrite on hand-built CKKS IR and re-verify the
  module afterwards (the same check the driver's PassManager performs);
* typed-degree tests pin the ``CiphertextDegreeError`` contract on both
  backends (mismatched part counts must raise, 3+3 must work);
* differential fuzzing compiles random models at ``--opt-level 0`` and
  ``2`` and demands bit-identical outputs on a noiseless ``SimBackend``
  (every level-2 rewrite is exact arithmetic there) plus close agreement
  on the noisy/exact paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SchemeConfig, SimBackend
from repro.ckks import CkksContext, CkksParameters
from repro.compiler import ACECompiler, CompileOptions
from repro.errors import CiphertextDegreeError
from repro.ir import (
    Cipher3Type,
    CipherType,
    IRBuilder,
    Module,
    verify_module,
)
from repro.ir.core import Op, Value
from repro.nn import model_to_onnx, resnet_mini
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.passes.cost import CostModel
from repro.passes.opt import (
    compose_modswitches,
    compose_rotations,
    cse_function,
    dedup_constant_payloads,
    fold_zero_rotations,
    key_switch_count,
    lazy_relinearize,
    relinearize_for_legality,
    sink_rescales,
)

TABLE = CostModel()


def _ckks_fn(slots=8, params=2):
    module = Module("m")
    names = ["x", "y", "z"][:params]
    builder = IRBuilder.make_function(
        module, "main", [CipherType(slots)] * params, names)
    return module, builder


# ---------------------------------------------------------------------------
# unit tests: one rewrite each, verifier-checked
# ---------------------------------------------------------------------------

def test_cse_merges_commuted_operands():
    module, b = _ckks_fn()
    x, y = b.function.params
    a1 = b.emit("ckks.add", [x, y])
    a2 = b.emit("ckks.add", [y, x])
    b.ret([b.emit("ckks.add", [a1, a2])])
    assert cse_function(b.function) == 1
    b.function.dce()
    verify_module(module)
    assert b.function.op_count("ckks.add") == 2  # a2 folded into a1


def test_cse_does_not_commute_sub():
    module, b = _ckks_fn()
    x, y = b.function.params
    s1 = b.emit("ckks.sub", [x, y])
    s2 = b.emit("ckks.sub", [y, x])
    b.ret([b.emit("ckks.add", [s1, s2])])
    assert cse_function(b.function) == 0
    verify_module(module)


def test_fold_zero_rotations_forwards_operand():
    module, b = _ckks_fn(params=1)
    x = b.function.params[0]
    rot = b.emit("ckks.rotate", [x], {"steps": 0})
    b.ret([b.emit("ckks.add", [rot, x])])
    assert fold_zero_rotations(b.function) == 1
    verify_module(module)
    assert b.function.op_count("ckks.rotate") == 0


def test_compose_rotations_merges_single_use_chain():
    module, b = _ckks_fn(params=1)
    x = b.function.params[0]
    inner = b.emit("ckks.rotate", [x], {"steps": 2})
    outer = b.emit("ckks.rotate", [inner], {"steps": 3})
    b.ret([outer])
    assert compose_rotations(b.function, TABLE) == 1
    verify_module(module)
    (rot,) = [op for op in b.function.body if op.opcode == "ckks.rotate"]
    assert rot.attrs["steps"] == 5
    assert rot.operands[0] is x


def test_compose_rotations_zero_total_forwards_operand():
    module, b = _ckks_fn(params=1)
    x = b.function.params[0]
    inner = b.emit("ckks.rotate", [x], {"steps": 4})
    outer = b.emit("ckks.rotate", [inner], {"steps": -4})
    b.ret([outer])
    assert compose_rotations(b.function, TABLE) == 1
    verify_module(module)
    assert b.function.op_count("ckks.rotate") == 0
    assert b.function.returns == [x]


def test_compose_rotations_keeps_multi_use_inner():
    module, b = _ckks_fn(params=1)
    x = b.function.params[0]
    inner = b.emit("ckks.rotate", [x], {"steps": 2})
    outer = b.emit("ckks.rotate", [inner], {"steps": 3})
    b.ret([b.emit("ckks.add", [inner, outer])])
    assert compose_rotations(b.function, TABLE) == 0
    verify_module(module)


def test_compose_modswitches_sums_levels():
    module, b = _ckks_fn(params=1)
    x = b.function.params[0]
    inner = b.emit("ckks.modswitch", [x], {"levels": 1})
    outer = b.emit("ckks.modswitch", [inner], {"levels": 2})
    b.ret([outer])
    assert compose_modswitches(b.function) == 1
    verify_module(module)
    (ms,) = [op for op in b.function.body if op.opcode == "ckks.modswitch"]
    assert ms.attrs["levels"] == 3


def test_dedup_constant_payloads_rewrites_refs():
    module, b = _ckks_fn(params=1)
    arr = np.arange(6, dtype=np.float64)
    module.constants["w0"] = arr.copy()
    module.constants["w1"] = arr.copy()
    module.constants["other"] = arr[:3].copy()
    c1 = b.emit("vector.constant", [],
                {"const_name": "w0", "length": 6})
    c2 = b.emit("vector.constant", [],
                {"const_name": "w1", "length": 6})
    b.ret([b.emit("vector.add", [c1, c2])])
    assert dedup_constant_payloads(module) == 1
    verify_module(module)
    assert "w1" not in module.constants
    names = {op.attrs["const_name"] for op in b.function.body
             if op.opcode == "vector.constant"}
    assert names == {"w0"}
    assert cse_function(b.function) == 1  # the loads now CSE


def test_lazy_relin_merges_sibling_relins():
    """Pattern A: add(relin(u), relin(v)) -> relin(add(u, v))."""
    module, b = _ckks_fn()
    x, y = b.function.params
    r1 = b.emit("ckks.relin", [b.emit("ckks.mul", [x, y])])
    r2 = b.emit("ckks.relin", [b.emit("ckks.mul", [x, x])])
    b.ret([b.emit("ckks.add", [r1, r2])])
    assert lazy_relinearize(b.function, TABLE) >= 1
    relinearize_for_legality(b.function)
    b.function.dce()
    verify_module(module)
    assert b.function.op_count("ckks.relin") == 1
    # the merged add runs on degree-3 operands
    (add,) = [op for op in b.function.body if op.opcode == "ckks.add"]
    assert all(isinstance(o.type, Cipher3Type) for o in add.operands)


def test_lazy_relin_commutes_below_rescale():
    """Pattern R: rescale(relin(u)) -> relin(rescale(u))."""
    module, b = _ckks_fn()
    x, y = b.function.params
    r = b.emit("ckks.relin", [b.emit("ckks.mul", [x, y])])
    b.ret([b.emit("ckks.rescale", [r])])
    assert lazy_relinearize(b.function, TABLE) == 1
    relinearize_for_legality(b.function)
    b.function.dce()
    verify_module(module)
    assert [op.opcode for op in b.function.body] == [
        "ckks.mul", "ckks.rescale", "ckks.relin"]
    # the rescale now runs on the degree-3 product
    assert isinstance(b.function.body[1].result.type, Cipher3Type)


def test_lazy_relin_keeps_multi_use_relin():
    module, b = _ckks_fn()
    x, y = b.function.params
    r = b.emit("ckks.relin", [b.emit("ckks.mul", [x, y])])
    rs = b.emit("ckks.rescale", [r])
    b.ret([b.emit("ckks.add", [rs, r])])  # r has two uses
    assert lazy_relinearize(b.function, TABLE) == 0


def test_lazy_relin_whole_sum_pays_one_key_switch():
    """A sum of three degree-2 products relinearises once (A twice)."""
    module, b = _ckks_fn()
    x, y = b.function.params
    terms = [
        b.emit("ckks.relin", [b.emit("ckks.mul", [x, y])]),
        b.emit("ckks.relin", [b.emit("ckks.mul", [x, x])]),
        b.emit("ckks.relin", [b.emit("ckks.mul", [y, y])]),
    ]
    total = b.emit("ckks.add", [b.emit("ckks.add", [terms[0], terms[1]]),
                                terms[2]])
    b.ret([total])
    before = key_switch_count(module)
    lazy_relinearize(b.function, TABLE)
    relinearize_for_legality(b.function)
    b.function.dce()
    verify_module(module)
    assert before == 3
    assert key_switch_count(module) == 1


def test_legality_relinearizes_before_rotate():
    module, b = _ckks_fn()
    x, y = b.function.params
    mul = b.emit("ckks.mul", [x, y])  # Cipher3
    rot = Value(CipherType(8), name="rot")
    b.function.append(Op("ckks.rotate", [mul], [rot], {"steps": 1}))
    b.function.returns = [rot]
    assert relinearize_for_legality(b.function) == 1
    verify_module(module)
    ops = [op.opcode for op in b.function.body]
    assert ops == ["ckks.mul", "ckks.relin", "ckks.rotate"]


def test_legality_caches_inserted_relin():
    module, b = _ckks_fn()
    x, y = b.function.params
    mul = b.emit("ckks.mul", [x, y])
    r1 = Value(CipherType(8), name="r1")
    r2 = Value(CipherType(8), name="r2")
    b.function.append(Op("ckks.rotate", [mul], [r1], {"steps": 1}))
    b.function.append(Op("ckks.rotate", [mul], [r2], {"steps": 2}))
    out = Value(CipherType(8), name="out")
    b.function.append(Op("ckks.add", [r1, r2], [out]))
    b.function.returns = [out]
    assert relinearize_for_legality(b.function) == 1  # one shared relin
    verify_module(module)


def test_legality_relinearizes_returns():
    module, b = _ckks_fn()
    x, y = b.function.params
    mul = b.emit("ckks.mul", [x, y])
    b.ret([mul])
    assert relinearize_for_legality(b.function) == 1
    verify_module(module)
    assert isinstance(b.function.returns[0].type, CipherType)


def test_sink_rescales_requires_matching_plan():
    module, b = _ckks_fn()
    x, y = b.function.params
    x.meta = {"scale": 2.0**80, "level": 3}
    y.meta = {"scale": 2.0**80, "level": 3}
    post = {"scale": 2.0**40, "level": 2}
    r1 = b.emit("ckks.rescale", [x])
    r1.meta = dict(post)
    r2 = b.emit("ckks.rescale", [y])
    r2.meta = dict(post)
    add = b.emit("ckks.add", [r1, r2])
    add.meta = dict(post)
    b.ret([add])
    assert sink_rescales(b.function, TABLE) == 1
    verify_module(module)
    assert b.function.op_count("ckks.rescale") == 1
    # without the plan metadata the pattern must not fire
    module2, b2 = _ckks_fn()
    x2, y2 = b2.function.params
    b2.ret([b2.emit("ckks.add", [b2.emit("ckks.rescale", [x2]),
                                 b2.emit("ckks.rescale", [y2])])])
    assert sink_rescales(b2.function, TABLE) == 0


def test_sink_rescales_skips_mismatched_levels():
    module, b = _ckks_fn()
    x, y = b.function.params
    x.meta = {"scale": 2.0**80, "level": 3}
    y.meta = {"scale": 2.0**80, "level": 2}
    r1 = b.emit("ckks.rescale", [x])
    r1.meta = {"scale": 2.0**40, "level": 2}
    r2 = b.emit("ckks.rescale", [y])
    r2.meta = {"scale": 2.0**40, "level": 1}
    b.ret([b.emit("ckks.add", [r1, r2])])
    assert sink_rescales(b.function, TABLE) == 0


# ---------------------------------------------------------------------------
# ciphertext-degree contract (satellite b)
# ---------------------------------------------------------------------------

def _sim_backend(slots=8):
    return SimBackend(SchemeConfig(poly_degree=2 * slots, scale_bits=30,
                                   first_prime_bits=40, num_levels=4))


def test_sim_add_mismatched_degrees_raises():
    be = _sim_backend()
    x = be.encrypt(np.arange(8) * 0.1)
    y = be.encrypt(np.arange(8) * 0.2)
    deg3 = be.mul(x, y)
    assert deg3.size == 3
    # same scale/level as deg3, but still two parts
    deg2 = be.mul_plain(x, be.encode(np.ones(8), x.scale, x.level))
    with pytest.raises(CiphertextDegreeError):
        be.add(deg3, deg2)
    with pytest.raises(CiphertextDegreeError):
        be.sub(deg2, deg3)


def test_sim_add_matching_degree3_works():
    be = _sim_backend()
    x = be.encrypt(np.arange(8) * 0.1)
    y = be.encrypt(np.arange(8) * 0.2)
    a3 = be.mul(x, y)
    b3 = be.mul(x, x)
    total = be.add(a3, b3)
    assert total.size == 3
    merged = be.rescale(be.relinearize(total))
    split = be.rescale(be.add(be.relinearize(a3), be.relinearize(b3)))
    assert np.allclose(be.decrypt(merged, 8), be.decrypt(split, 8),
                       atol=1e-4)


def test_exact_add_mismatched_degrees_raises():
    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    ctx = CkksContext(params, seed=0)
    ev = ctx.evaluator
    x = ctx.encrypt(np.arange(32) * 0.01)
    y = ctx.encrypt(np.arange(32) * 0.02)
    deg3 = ev.multiply(x, y)
    assert len(deg3.parts) == 3
    # same scale/level as deg3, but still two parts
    deg2 = ev.multiply_plain(x, ctx.encode(np.ones(32)))
    with pytest.raises(CiphertextDegreeError):
        ev.add(deg3, deg2)
    with pytest.raises(CiphertextDegreeError):
        ev.sub(deg2, deg3)
    # 3+3 is the lazy-relin contract: sum then relinearise once
    total = ev.relinearize(ev.add(deg3, ev.multiply(x, x)))
    reference = ev.add(ev.relinearize(deg3),
                       ev.relinearize(ev.multiply(x, x)))
    got = ctx.decrypt(total, 32)
    want = ctx.decrypt(reference, 32)
    assert np.allclose(got, want, atol=1e-3)


# ---------------------------------------------------------------------------
# differential fuzzing: opt 0 vs opt 2 (satellite c)
# ---------------------------------------------------------------------------

def _linear_model(draw):
    """A random all-linear model (conv/pool/gemm — no ReLU)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    channels = draw(st.sampled_from([1, 2]))
    size = draw(st.sampled_from([4, 8]))
    builder = OnnxGraphBuilder("fuzz_opt")
    builder.add_input("x", [1, channels, size, size])
    current, cur_c, cur_s = "x", channels, size
    for i in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            c_out = draw(st.sampled_from([cur_c, 2 * cur_c]))
            w = (rng.normal(size=(c_out, cur_c, 3, 3)) * 0.4).astype(
                np.float32)
            wn = builder.add_initializer(f"w{i}", w)
            current = builder.add_node(
                "Conv", [current, wn], strides=[1, 1],
                pads=[1, 1, 1, 1], kernel_shape=[3, 3])
            cur_c = c_out
        elif cur_s >= 4:
            current = builder.add_node(
                "AveragePool", [current], kernel_shape=[2, 2],
                strides=[2, 2])
            cur_s //= 2
    current = builder.add_node("GlobalAveragePool", [current])
    current = builder.add_node("Flatten", [current], axis=1)
    out_dim = draw(st.integers(2, 5))
    fw = (rng.normal(size=(out_dim, cur_c)) * 0.4).astype(np.float32)
    fb = rng.normal(size=(out_dim,)).astype(np.float32)
    current = builder.add_node(
        "Gemm", [current, builder.add_initializer("fw", fw),
                 builder.add_initializer("fb", fb)],
        outputs=["output"], transB=1)
    builder.add_output("output", [1, out_dim])
    model = load_model_bytes(model_to_bytes(builder.build()))
    return model, rng.normal(size=(1, channels, size, size))


def _run_at_level(model, image, opt_level, **backend_kwargs):
    program = ACECompiler(model, CompileOptions(
        poly_mode="off", opt_level=opt_level)).compile()
    backend = program.make_sim_backend(**backend_kwargs)
    return program.run(backend, image)[0], program


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_fuzz_opt_levels_bit_identical_on_noiseless_sim(data):
    model, image = _linear_model(data.draw)
    out0, prog0 = _run_at_level(model, image, 0,
                                inject_noise=False, seed=0)
    out2, prog2 = _run_at_level(model, image, 2,
                                inject_noise=False, seed=0)
    assert np.array_equal(out0, out2)
    ops0 = sum(fn.op_count() for fn in prog0.module.functions.values())
    ops2 = sum(fn.op_count() for fn in prog2.module.functions.values())
    assert ops2 <= ops0


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_fuzz_opt_levels_close_on_noisy_sim(data):
    model, image = _linear_model(data.draw)
    out0, _ = _run_at_level(model, image, 0, seed=0)
    out2, _ = _run_at_level(model, image, 2, seed=0)
    assert np.allclose(out0, out2, atol=1e-3)


def test_relu_model_opt_levels_agree():
    """Nonlinear path: lazy relin + pattern R active around sign()."""
    rng = np.random.default_rng(3)
    builder = OnnxGraphBuilder("relu_opt")
    builder.add_input("x", [1, 16])
    w = (rng.normal(size=(16, 16)) * 0.3).astype(np.float32)
    bias = rng.normal(size=(16,)).astype(np.float32)
    h = builder.add_node(
        "Gemm", ["x", builder.add_initializer("w", w),
                 builder.add_initializer("b", bias)], transB=1)
    r = builder.add_node("Relu", [h])
    w2 = (rng.normal(size=(4, 16)) * 0.3).astype(np.float32)
    builder.add_node("Gemm", [r, builder.add_initializer("w2", w2)],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 4])
    model = load_model_bytes(model_to_bytes(builder.build()))
    image = rng.normal(size=(1, 16)) * 0.5
    out0, prog0 = _run_at_level(model, image, 0,
                                inject_noise=False, seed=0)
    out2, prog2 = _run_at_level(model, image, 2,
                                inject_noise=False, seed=0)
    assert np.array_equal(out0, out2)
    rows = prog2.stats["opt"]["rows"]
    lazy = [r for r in rows if r["pass"] == "lazy-relin"]
    assert lazy and lazy[0]["rewrites"] > 0  # pattern R fired


def test_resnet_lite_optimized_parallel(monkeypatch):
    """Tier-1 ResNet-lite path at opt 2 under four executor jobs."""
    monkeypatch.setenv("REPRO_JOBS", "4")
    rng = np.random.default_rng(7)
    model = resnet_mini(num_classes=4, in_channels=1, base_width=2,
                        input_size=8, blocks=1, seed=1)
    proto = load_model_bytes(model_to_bytes(model_to_onnx(model)))
    program = ACECompiler(proto, CompileOptions(
        sign_iterations=3, poly_mode="off", opt_level=2)).compile()
    backend = program.make_sim_backend(seed=2)
    img = rng.normal(size=(1, 1, 8, 8)) * 0.5
    out = program.run(backend, img, jobs=4)[0]
    ref = model.forward(img).ravel()
    assert out.argmax() == ref.argmax()
    summary = program.stats["opt"]
    assert summary["opt_level"] == 2
    assert summary["key_switches_after"] <= summary["key_switches_before"]
    assert summary["ops_after"] < summary["ops_before"]


# ---------------------------------------------------------------------------
# driver + CLI surface (satellite a)
# ---------------------------------------------------------------------------

def _tiny_gemm_model(seed=0):
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder("tiny")
    builder.add_input("x", [1, 8])
    w = (rng.normal(size=(4, 8)) * 0.3).astype(np.float32)
    builder.add_node("Gemm", ["x", builder.add_initializer("w", w)],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 4])
    return load_model_bytes(model_to_bytes(builder.build()))


def test_opt_level_zero_records_no_rows():
    program = ACECompiler(_tiny_gemm_model(), CompileOptions(
        poly_mode="off", opt_level=0)).compile()
    assert program.stats["opt"]["opt_level"] == 0
    assert program.stats["opt"]["rows"] == []


def test_opt_stats_rows_are_consistent():
    program = ACECompiler(_tiny_gemm_model(), CompileOptions(
        poly_mode="off", opt_level=2)).compile()
    rows = program.stats["opt"]["rows"]
    assert rows
    for row in rows:
        assert row["stage"] in ("vector", "sihe", "ckks")
        assert row["ops_after"] <= row["ops_before"]
        assert row["key_switches_after"] <= row["key_switches_before"]
    # stages appear in lowering order: vector, then sihe, then ckks
    order = {"vector": 0, "sihe": 1, "ckks": 2}
    indices = [order[r["stage"]] for r in rows]
    assert indices == sorted(indices)


def test_rotation_steps_follow_composed_ir():
    """The key working set is derived from the post-opt rotations."""
    program = ACECompiler(_tiny_gemm_model(), CompileOptions(
        poly_mode="off", opt_level=2)).compile()
    performed = set()
    for fn in program.module.functions.values():
        for op in fn.body:
            if op.opcode == "ckks.rotate" and op.attrs.get("steps"):
                performed.add(op.attrs["steps"])
    assert performed == set(program.rotation_steps)


def test_cli_explain_prints_pass_table(tmp_path, capsys):
    from repro.cli import main
    from repro.onnx.writer import save_model

    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("cli")
    builder.add_input("x", [1, 8])
    w = (rng.normal(size=(4, 8)) * 0.3).astype(np.float32)
    builder.add_node("Gemm", ["x", builder.add_initializer("w", w)],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 4])
    path = tmp_path / "m.onnx"
    save_model(builder.build(), path)
    assert main(["compile", str(path), "-o", str(tmp_path / "out"),
                 "--explain", "--poly-mode", "off"]) == 0
    captured = capsys.readouterr().out
    assert "key-switches" in captured
    assert "opt: level 2" in captured
    import json
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["opt"]["opt_level"] == 2
    assert report["opt"]["rows"]


def test_cli_opt_level_zero_summary(tmp_path, capsys):
    from repro.cli import main
    from repro.onnx.writer import save_model

    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("cli0")
    builder.add_input("x", [1, 8])
    w = (rng.normal(size=(4, 8)) * 0.3).astype(np.float32)
    builder.add_node("Gemm", ["x", builder.add_initializer("w", w)],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 4])
    path = tmp_path / "m.onnx"
    save_model(builder.build(), path)
    assert main(["compile", str(path), "-o", str(tmp_path / "out"),
                 "--opt-level", "0", "--poly-mode", "off"]) == 0
    captured = capsys.readouterr().out
    assert "no rewrites recorded" in captured
