"""Cost/memory model and harness-utility tests."""

import numpy as np
import pytest

from repro.backend.interface import SchemeConfig
from repro.backend.trace import OpTrace
from repro.evalharness.memmodel import MemoryModel
from repro.ir.core import Function, Op, Value
from repro.ir.types import CipherType, VectorType
from repro.passes.cost import CostModel


@pytest.fixture
def scheme():
    return SchemeConfig(poly_degree=1 << 14, scale_bits=56,
                        first_prime_bits=60, num_levels=20)


def test_costmodel_keyswitch_dominates():
    cm = CostModel(poly_degree=1 << 14)
    limbs = 10
    assert cm.op_seconds("rotate", limbs) > cm.op_seconds("mul_plain", limbs)
    assert cm.op_seconds("relin", limbs) > cm.op_seconds("add", limbs)


def test_costmodel_quadratic_in_limbs():
    cm = CostModel(poly_degree=1 << 14)
    cheap = cm.op_seconds("rotate", 5)
    costly = cm.op_seconds("rotate", 25)
    assert costly / cheap > 10  # super-linear growth with limbs


def test_costmodel_bootstrap_affine_in_target():
    # the variable part is linear in the refreshed level (§4.4 lever)
    # on top of a target-independent base — ModRaise/CtS/EvalMod/StC run
    # near the chain top whatever the target, so deleting a refresh is
    # worth far more than retargeting it
    cm = CostModel(poly_degree=1 << 14)
    low = cm.op_seconds("bootstrap", 8)
    mid = cm.op_seconds("bootstrap", 16)
    high = cm.op_seconds("bootstrap", 24)
    assert low < mid < high
    assert high - mid == pytest.approx(mid - low, rel=1e-6)
    base = cm.op_seconds("bootstrap", 1)
    assert base > (high - low)  # base stages dominate the target range


def test_costmodel_trace_aggregation():
    cm = CostModel(poly_degree=1 << 12)
    trace = OpTrace()
    with trace.region("Conv"):
        trace.record("rotate", 10, count=5)
    with trace.region("ReLU"):
        trace.record("mul", 10, count=3)
    seconds = cm.trace_seconds(trace)
    assert set(seconds) == {"Conv", "ReLU"}
    assert seconds["Conv"] == pytest.approx(5 * cm.op_seconds("rotate", 10))
    assert cm.total_seconds(trace) == pytest.approx(sum(seconds.values()))


def test_costmodel_calibration_runs():
    cm = CostModel.calibrated(poly_degree=1 << 14, sample_degree=512)
    assert cm.c_ntt > 0
    assert cm.c_eltwise > 0


def _op(opcode, operands, type_, level=None, **attrs):
    result = Value(type_, "")
    if level is not None:
        result.meta = {"level": level}
    return Op(opcode, operands, [result], attrs)


def test_function_cost_vector_hand_computed():
    # 3 rolls of one source + mul + add, no level metadata: one hoisted
    # batch of 3 at the default 8 limbs, the rest per op
    cm = CostModel(poly_degree=1 << 12)
    vec = VectorType(16)
    fn = Function("main", [Value(vec, "x")])
    x = fn.params[0]
    rolls = [_op("vector.roll", [x], vec, steps=s) for s in (1, 2, 3)]
    mul = _op("vector.mul", [rolls[0].result, rolls[1].result], vec)
    add = _op("vector.add", [mul.result, rolls[2].result], vec)
    for op in (*rolls, mul, add):
        fn.append(op)
    fn.returns = [add.result]
    assert cm.function_cost(fn) == pytest.approx(
        cm.hoisted_rotation_seconds(8, 3)
        + cm.op_seconds("mul_plain", 8) + cm.op_seconds("add", 8),
        rel=1e-12)


def test_function_cost_ckks_reads_level_metadata():
    # limbs = planned level + 1; rotations batch per *source*
    cm = CostModel(poly_degree=1 << 12)
    ct = CipherType(16)
    fn = Function("main", [Value(ct, "x")])
    x = fn.params[0]
    r1 = _op("ckks.rotate", [x], ct, level=5, steps=1)
    r2 = _op("ckks.rotate", [x], ct, level=5, steps=2)
    add = _op("ckks.add", [r1.result, r2.result], ct, level=5)
    r3 = _op("ckks.rotate", [add.result], ct, level=5, steps=4)
    rescale = _op("ckks.rescale", [r3.result], ct, level=4)
    boot = _op("ckks.bootstrap", [rescale.result], ct, level=9,
               target_level=9)
    for op in (r1, r2, add, r3, rescale, boot):
        fn.append(op)
    fn.returns = [boot.result]
    assert cm.function_cost(fn) == pytest.approx(
        cm.op_seconds("add", 6) + cm.op_seconds("rescale", 5)
        + cm.op_seconds("bootstrap", 10)
        + cm.hoisted_rotation_seconds(6, 2) + cm.op_seconds("rotate", 6),
        rel=1e-12)


def test_single_key_switch_is_a_hoisted_batch_of_one():
    # one formula prices a key switch and a hoisted batch: at count 1 it
    # is the single-op price bit for bit
    for special in (1, 3):
        cm = CostModel(poly_degree=1 << 12, num_special_primes=special)
        for limbs in range(1, 41):
            single = cm.hoisted_rotation_seconds(limbs, 1)
            assert cm.op_seconds("rotate", limbs) == single
            assert cm.op_seconds("relin", limbs) == single
            assert cm.op_seconds("conjugate", limbs) == single


def test_memmodel_key_sizes(scheme):
    mm = MemoryModel(scheme)
    # 2 * digits * limbs * N * 8 bytes
    assert mm.ksk_bytes(0) == 2 * 1 * 2 * scheme.poly_degree * 8
    assert mm.ksk_bytes(9) == 2 * 10 * 11 * scheme.poly_degree * 8
    # trimming levels shrinks keys quadratically
    assert mm.ksk_bytes(scheme.max_level) / mm.ksk_bytes(5) > 8


def test_memmodel_ace_vs_expert(scheme):
    mm = MemoryModel(scheme)
    step_levels = {s: 6 for s in range(40)}
    ace = mm.ace_totals(step_levels, weight_bytes=10**6, peak_ciphertexts=8)
    exp = mm.expert_totals(40, weight_bytes=10**6, peak_ciphertexts=8)
    assert ace["keys"] < exp["keys"]
    assert ace["total"] < exp["total"]
    assert exp["keys"] / exp["total"] > 0.9


def test_peak_live_ciphertexts():
    from repro.evalharness.fig7 import peak_live_ciphertexts
    from repro.ir import CipherType, IRBuilder, Module

    module = Module("m")
    b = IRBuilder.make_function(module, "main", [CipherType(8)], ["x"])
    x = b.function.params[0]
    a = b.emit("ckks.rotate", [x], {"steps": 1})
    c = b.emit("ckks.rotate", [x], {"steps": 2})
    d = b.emit("ckks.add", [a, c])
    b.ret([d])
    # during the add, a, c and d coexist
    assert peak_live_ciphertexts(b.function) == 3


def test_table8_classify_lines():
    from repro.evalharness.table8 import classify_lines

    source = '"""Docstring."""\n\n# comment\nx = 1\ny = 2  # trailing\n'
    code, comments = classify_lines(source)
    assert code == 2
    assert comments == 2


def test_surveys_render():
    from repro.evalharness.surveys import render_table1, render_table9

    t1 = render_table1()
    assert "ACE" in t1 and "Fhelipe" in t1
    t9 = render_table9()
    assert "ANT-ACE" in t9 and "ONNX" in t9


def test_table_ops_lists_all_dialects():
    from repro.evalharness.table_ops import dialect_ops, render_op_tables

    assert len(dialect_ops("nn")) >= 8
    assert len(dialect_ops("ckks")) >= 12
    text = render_op_tables()
    assert "Table 7 (POLY IR)" in text
