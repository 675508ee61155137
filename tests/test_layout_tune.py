"""Layout & BSGS autotuning tests (passes.layout_tune + driver wiring).

The contract under test: every candidate the tuner may pick decrypts to
the same cleartext tensor as the heuristic lowering; the search only
reorganises work, never changes results.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksParameters
from repro.compiler import ACECompiler, CompileOptions
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.passes.frontend import onnx_to_nn
from repro.passes.layout import (
    LayoutPlan,
    bsgs_giant_candidates,
    candidate_layouts,
)
from repro.passes.layout_tune import enumerate_choices, search_plan
from repro.passes.nn_opt import nn_operator_fusion


def _gemm_model(o_count=48, f_count=48, seed=0):
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder("gemm")
    builder.add_input("x", [1, f_count])
    builder.add_initializer(
        "w", (rng.normal(size=(o_count, f_count)) * 0.3).astype(np.float32))
    builder.add_initializer(
        "b", rng.normal(size=(o_count,)).astype(np.float32))
    builder.add_node("Gemm", ["x", "w", "b"], outputs=["output"], transB=1)
    builder.add_output("output", [1, o_count])
    return load_model_bytes(model_to_bytes(builder.build()))


def _conv_model(seed=0):
    """conv(stride 2, 2->4 ch) -> global avg pool -> gemm: every layer
    kind the tuner enumerates, at a depth that fits 4 levels."""
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder("convnet")
    builder.add_input("x", [1, 2, 8, 8])
    w = (rng.normal(size=(4, 2, 3, 3)) * 0.4).astype(np.float32)
    cur = builder.add_node("Conv", ["x", builder.add_initializer("w", w)],
                           strides=[2, 2], pads=[1, 1, 1, 1],
                           kernel_shape=[3, 3])
    cur = builder.add_node("GlobalAveragePool", [cur])
    cur = builder.add_node("Flatten", [cur], axis=1)
    fw = (rng.normal(size=(3, 4)) * 0.4).astype(np.float32)
    fb = rng.normal(size=(3,)).astype(np.float32)
    builder.add_node("Gemm", [cur, builder.add_initializer("fw", fw),
                              builder.add_initializer("fb", fb)],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 3])
    return load_model_bytes(model_to_bytes(builder.build()))


def _fused(model):
    module = onnx_to_nn(model)
    nn_operator_fusion(module, {})
    return module


def _override_plans(model, slots):
    """One single-override LayoutPlan per non-default candidate choice."""
    choices = enumerate_choices(_fused(model), slots)
    return [(key, choice)
            for key, per_layer in choices
            for choice in per_layer[1:]]


MODELS = {
    "gemm": (_gemm_model, (1, 48), 256),
    "conv": (_conv_model, (1, 2, 8, 8), 128),
}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_every_candidate_matches_heuristic_sim(kind):
    """Each enumerated candidate decrypts to the heuristic's cleartext
    (noiseless simulation, 4 executor jobs)."""
    make, shape, slots = MODELS[kind]
    model = make()
    x = np.random.default_rng(1).normal(size=shape) * 0.5
    plans = _override_plans(model, slots)
    assert plans, "tuner enumerated no candidates for this model"

    def run(plan):
        program = ACECompiler(model, CompileOptions(
            poly_mode="off", slots=slots, layout_plan=plan)).compile()
        backend = program.make_sim_backend(seed=0, inject_noise=False)
        return program.run(backend, x, check_plan=False, jobs=4)[0].ravel()

    expected = run(None)
    for key, choice in plans:
        got = run(LayoutPlan({key: choice}))
        assert np.allclose(got, expected, atol=1e-6), (
            f"candidate {key}={choice} diverged from the heuristic")


def test_every_candidate_matches_heuristic_exact():
    """Same contract on the real RNS-CKKS backend (conv model)."""
    model = _conv_model()
    params = CkksParameters(poly_degree=256, scale_bits=30,
                            first_prime_bits=40, num_levels=6)
    x = np.random.default_rng(2).normal(size=(1, 2, 8, 8)) * 0.5
    plans = _override_plans(model, params.num_slots)

    def run(plan):
        program = ACECompiler(model, CompileOptions(
            poly_mode="off", exact_params=params, bootstrap_enabled=False,
            layout_plan=plan)).compile()
        backend = program.make_exact_backend(params, seed=3)
        return program.run(backend, x, jobs=4)[0].ravel()

    expected = run(None)
    for key, choice in plans:
        got = run(LayoutPlan({key: choice}))
        assert np.allclose(got, expected, atol=1e-2), (
            f"candidate {key}={choice} diverged on the exact backend")


@settings(max_examples=40, deadline=None)
@given(
    c=st.sampled_from([1, 2, 3, 4]),
    h=st.sampled_from([2, 4, 8]),
    slots_factor=st.sampled_from([1, 2, 4]),
)
def test_candidate_layouts_injective_and_bounded(c, h, slots_factor):
    shape = (c, h, h)
    slots = int(np.prod(shape)) * slots_factor
    layouts = candidate_layouts(shape, slots)
    assert "dense" in layouts
    for name, layout in layouts.items():
        flat = layout.positions.ravel()
        assert flat.size == c * h * h, name
        assert len(np.unique(flat)) == flat.size, f"{name} collides"
        assert 0 <= flat.min() and flat.max() < slots, f"{name} overflows"


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 4096))
def test_bsgs_giant_candidates_in_range(n):
    cands = bsgs_giant_candidates(n)
    assert cands == sorted(set(cands))
    assert all(1 <= g <= n for g in cands)


def test_search_mode_improves_predicted_cost():
    model = _gemm_model(48, 48)
    program = ACECompiler(model, CompileOptions(
        poly_mode="off", slots=256, layout_tune="search")).compile()
    layout = program.stats["layout"]
    assert layout["mode"] == "search"
    predicted = layout["predicted_vector_seconds"]
    assert predicted["chosen"] <= predicted["heuristic"]
    # the dedup heuristic pays ~95 rotations here; the search must find
    # the BSGS plan (~15 rotations)
    assert layout["plan"], "search adopted no override on the BSGS model"
    assert layout["adopted"] is True
    assert layout["predicted_seconds"] > 0
    assert layout["schedule_max_width"] >= 1
    # both lowered programs were priced on final CKKS IR; the win stayed
    final = layout["predicted_final_seconds"]
    assert final["chosen"] <= final["heuristic"]
    assert final["chosen"] == layout["predicted_seconds"]


def test_heuristic_mode_records_stats_without_plan():
    model = _gemm_model(8, 8)
    program = ACECompiler(model, CompileOptions(
        poly_mode="off", slots=64)).compile()  # default mode
    layout = program.stats["layout"]
    assert layout["mode"] == "heuristic"
    assert "plan" not in layout
    assert layout["predicted_seconds"] > 0
    info = program.note_measured_seconds(2.0 * layout["predicted_seconds"])
    assert info["measured_seconds"] == pytest.approx(
        2.0 * layout["predicted_seconds"])
    assert info["predicted_over_measured"] == pytest.approx(0.5)


def test_unknown_layout_tune_mode_rejected():
    from repro.errors import CompileError

    for mode in ("fancy", "off"):
        with pytest.raises(CompileError):
            ACECompiler(_gemm_model(8, 8), CompileOptions(
                poly_mode="off", slots=64, layout_tune=mode)).compile()


def test_calibration_memoised_and_copy_private():
    from repro.passes import cost

    cost._calibration_memo.clear()
    a = cost.CostModel.calibrated(512, 1, sample_degree=64)
    assert len(cost._calibration_memo) == 1
    b = cost.CostModel.calibrated(512, 1, sample_degree=64)
    assert len(cost._calibration_memo) == 1
    assert a is not b and a == b
    a.c_ntt = 123.0  # mutating a caller copy must not poison the memo
    c = cost.CostModel.calibrated(512, 1, sample_degree=64)
    assert c.c_ntt != 123.0


def test_search_plan_respects_eval_budget():
    nn = _fused(_gemm_model(48, 48))
    priced = []

    def price(layout):
        priced.append(layout)
        return 1.0

    options = CompileOptions(poly_mode="off", slots=256)
    result = search_plan(nn, 256, options, price, max_evals=1)
    assert result.info["candidates_evaluated"] == 1
    assert result.info["search_truncated"] is True
    assert len(priced) == 2  # the heuristic baseline and one candidate


def test_exact_params_too_small_are_refused():
    """Fixed parameters never grow: a model that needs more slots than
    ``exact_params`` give is refused, naming both counts, instead of
    compiling a program the scheme cannot hold."""
    from repro.errors import CompileError

    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=4)
    with pytest.raises(CompileError, match=r"needs \d+ slots .* give 32"):
        ACECompiler(_gemm_model(48, 48), CompileOptions(
            poly_mode="off", exact_params=params,
            bootstrap_enabled=False)).compile()


@pytest.mark.parametrize("case", ["resnet_compile", "gemm-search"])
def test_model_imported_once(case):
    """One import per compile: the slot-doubling re-lowering, the
    searched layout and the refresh rounds all lower clones of it."""
    from benchmarks.e2e import workloads
    from repro.compiler import driver

    if case == "resnet_compile":
        workload = workloads.get(case)
        model = load_model_bytes(workload.model_bytes())
        options = workload.options()
        options.poly_mode = "off"
    else:
        model = _gemm_model(48, 48)
        options = CompileOptions(poly_mode="off", slots=256,
                                 layout_tune="search")
    with mock.patch.object(driver, "onnx_to_nn",
                           wraps=driver.onnx_to_nn) as importer:
        ACECompiler(model, options).compile()
    assert importer.call_count == 1
