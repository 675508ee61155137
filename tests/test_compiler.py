"""End-to-end compiler tests: every IR level, both backends, codegen.

This is the differential-testing heart of the suite: one model executed
at the NN, VECTOR, SIHE and CKKS levels and through generated Python must
agree everywhere.
"""

import numpy as np
import pytest

from repro.ckks import CkksParameters
from repro.compiler import ACECompiler, CompileOptions
from repro.errors import CompileError, UnsupportedOperatorError
from repro.nn import model_to_onnx, resnet_mini
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.passes.frontend import onnx_to_nn
from repro.passes.lowering.nn_to_vector import NnToVectorLowering
from repro.passes.lowering.vector_to_sihe import VectorToSiheLowering
from repro.runtime import (
    run_nn_function,
    run_sihe_function,
    run_vector_function,
)


@pytest.fixture(scope="module")
def gemv_model():
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
    return load_model_bytes(model_to_bytes(builder.build()))


@pytest.fixture(scope="module")
def gemv_expected(gemv_model):
    rng = np.random.default_rng(42)
    x = rng.normal(size=(1, 84))
    weights = {t.name: t.to_numpy() for t in gemv_model.graph.initializer}
    return x, (x @ weights["fc.weight"].T + weights["fc.bias"]).ravel()


def test_frontend_importer(gemv_model):
    module = onnx_to_nn(gemv_model)
    fn = module.main()
    assert fn.op_count("nn.gemm") == 1
    assert fn.params[0].name == "image"
    assert len(module.constants) == 2


def test_frontend_rejects_unknown_op():
    builder = OnnxGraphBuilder("bad")
    builder.add_input("x", [1, 4])
    builder.add_node("Softmax", ["x"], outputs=["y"])
    builder.add_output("y", [1, 4])
    model = load_model_bytes(model_to_bytes(builder.build()))
    with pytest.raises(UnsupportedOperatorError):
        onnx_to_nn(model)


def test_differential_nn_vector_sihe(gemv_model, gemv_expected):
    """NN, VECTOR and SIHE interpreters agree on the same module."""
    from repro.backend import SchemeConfig, SimBackend

    x, expected = gemv_expected
    module = onnx_to_nn(gemv_model)
    ref = run_nn_function(module, module.main(), [x])[0].ravel()
    assert np.allclose(ref, expected)

    NnToVectorLowering(slots=128).run(module, {})
    vec_out = run_vector_function(module, module.main(), [x])[0]
    assert np.allclose(vec_out[:10], expected, atol=1e-9)

    VectorToSiheLowering().run(module, {})
    backend = SimBackend(
        SchemeConfig(poly_degree=256, scale_bits=40, first_prime_bits=50,
                     num_levels=4),
        seed=0,
    )
    sihe_out = run_sihe_function(module, module.main(), backend, [x.ravel()])
    decrypted = backend.decrypt(sihe_out[0], 128)
    assert np.allclose(decrypted[:10], expected, atol=1e-4)


def test_compile_and_run_sim(gemv_model, gemv_expected):
    x, expected = gemv_expected
    program = ACECompiler(gemv_model, CompileOptions(poly_mode="off")).compile()
    backend = program.make_sim_backend(seed=1)
    out = program.run(backend, x)[0]
    assert np.allclose(out, expected, atol=1e-3)
    # key analysis found a bounded rotation set
    assert 0 < len(program.rotation_steps) < 128


def test_compile_and_run_exact(gemv_model, gemv_expected):
    x, expected = gemv_expected
    params = CkksParameters(poly_degree=256, scale_bits=30,
                            first_prime_bits=40, num_levels=4)
    program = ACECompiler(
        gemv_model,
        CompileOptions(exact_params=params, bootstrap_enabled=False,
                       poly_mode="off"),
    ).compile()
    backend = program.make_exact_backend(params, seed=2)
    out = program.run(backend, x)[0]  # plan-checked at runtime
    assert np.allclose(out, expected, atol=1e-2)


def test_generated_python_matches_interpreter(gemv_model, gemv_expected, tmp_path):
    from repro.codegen import write_python_package
    from repro.codegen.pygen import load_generated

    x, expected = gemv_expected
    program = ACECompiler(gemv_model, CompileOptions(poly_mode="off")).compile()
    py_path = write_python_package(program.module, tmp_path, "gen_gemv")
    run, constants = load_generated(py_path)
    backend = program.make_sim_backend(seed=3)
    packed = program.pack_input(x)
    outs = run(backend, [packed], constants)
    got = program.unpack_output(outs[0])
    assert np.allclose(got, expected, atol=1e-3)


def test_full_poly_lowering_and_cgen(gemv_model):
    from repro.codegen import generate_c_like
    from repro.ir.dialects.poly_ops import hw_op_counts

    program = ACECompiler(gemv_model, CompileOptions(poly_mode="full")).compile()
    stats = program.stats["poly"]
    assert stats["poly_ir_lines"] > 100
    assert stats["hw_ops"]["hw_modmul"] > 0
    poly_fn = program.module.functions["main_poly"]
    counts = hw_op_counts(poly_fn)
    assert counts["hw_modmuladd"] > 0  # fusion happened
    source = generate_c_like(poly_fn)
    assert "Hw_modmuladd" in source
    assert "Decomp_modup" in source


def test_compiled_resnet_mini_all_backends():
    """ReLU + residual + conv: sim run with bootstrap hints honoured."""
    rng = np.random.default_rng(5)
    model = resnet_mini(num_classes=4, in_channels=1, base_width=2,
                        input_size=8, blocks=1, seed=1)
    proto = load_model_bytes(model_to_bytes(model_to_onnx(model)))
    calib = [rng.normal(size=(1, 1, 8, 8)) * 0.5 for _ in range(3)]
    program = ACECompiler(proto, CompileOptions(
        sign_iterations=4, calibration_inputs=calib, poly_mode="off",
    )).compile()
    backend = program.make_sim_backend(seed=2)
    img = rng.normal(size=(1, 1, 8, 8)) * 0.5
    out = program.run(backend, img)[0]
    ref = model.forward(img).ravel()
    assert out.argmax() == ref.argmax()
    assert np.allclose(out, ref, atol=0.15)
    # bootstraps were placed (the model's depth exceeds one region)
    assert backend.trace.total("bootstrap") >= 1


def test_compiled_program_region_tags():
    rng = np.random.default_rng(6)
    model = resnet_mini(num_classes=4, in_channels=1, base_width=2,
                        input_size=8, blocks=1, seed=1)
    proto = load_model_bytes(model_to_bytes(model_to_onnx(model)))
    program = ACECompiler(proto, CompileOptions(
        sign_iterations=3, poly_mode="off")).compile()
    backend = program.make_sim_backend(inject_noise=False, seed=0)
    program.run(backend, rng.normal(size=(1, 1, 8, 8)), check_plan=False)
    tags = set(backend.trace.by_tag())
    assert "Conv" in tags
    assert "ReLU" in tags


def test_depth_analysis_counts_muls():
    from repro.passes.lowering.sihe_to_ckks import DepthAnalysis

    rng = np.random.default_rng(7)
    model = resnet_mini(num_classes=4, in_channels=1, base_width=2,
                        input_size=8, blocks=1, seed=1)
    proto = load_model_bytes(model_to_bytes(model_to_onnx(model)))
    module = onnx_to_nn(proto)
    NnToVectorLowering(slots=256).run(module, {})
    VectorToSiheLowering(sign_iterations=3).run(module, {})
    analysis = DepthAnalysis(module.main())
    assert analysis.max_depth >= 3 * 3  # three f3 stages at depth >= 3
    assert analysis.hint_requirements  # ReLU hints exist


def test_exact_params_level_check(gemv_model):
    params = CkksParameters(poly_degree=256, scale_bits=30,
                            first_prime_bits=40, num_levels=1)
    with pytest.raises(CompileError):
        ACECompiler(
            gemv_model,
            CompileOptions(exact_params=params, bootstrap_enabled=False),
        ).compile()


def test_exact_backend_needs_the_compiled_chain(gemv_model):
    """Every planned scale divides by the compiled chain, so a backend
    on any other chain is refused, even at the same ring degree."""
    params = CkksParameters(poly_degree=256, scale_bits=30,
                            first_prime_bits=40, num_levels=4)
    program = ACECompiler(gemv_model, CompileOptions(
        exact_params=params, bootstrap_enabled=False,
        poly_mode="off")).compile()
    longer = CkksParameters(poly_degree=256, scale_bits=30,
                            first_prime_bits=40, num_levels=5)
    with pytest.raises(CompileError):
        program.make_exact_backend(longer, seed=0)
