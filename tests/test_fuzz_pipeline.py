"""Pipeline fuzzing: random models, differential execution at all levels.

Hypothesis generates random small conv/pool/dense networks; each one is
run as (a) the plaintext NN reference, (b) the lowered VECTOR program and
(c) the fully compiled CKKS program on the simulation backend.  All three
must agree — this is the strongest single guard on the layout selection,
linear-map lowering and scale-management machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import ACECompiler, CompileOptions
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.passes.frontend import onnx_to_nn
from repro.runtime import run_nn_function


def _random_model(draw):
    rng_seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    channels = draw(st.sampled_from([1, 2, 3]))
    size = draw(st.sampled_from([4, 8]))
    builder = OnnxGraphBuilder("fuzz")
    builder.add_input("x", [1, channels, size, size])
    current = "x"
    cur_c, cur_s = channels, size
    num_layers = draw(st.integers(1, 3))
    for i in range(num_layers):
        kind = draw(st.sampled_from(["conv", "conv_stride", "pool"]))
        if kind == "conv":
            c_out = draw(st.sampled_from([cur_c, 2 * cur_c]))
            w = (rng.normal(size=(c_out, cur_c, 3, 3)) * 0.4).astype(
                np.float32)
            b = (rng.normal(size=(c_out,)) * 0.1).astype(np.float32)
            wn = builder.add_initializer(f"w{i}", w)
            bn = builder.add_initializer(f"b{i}", b)
            current = builder.add_node(
                "Conv", [current, wn, bn], strides=[1, 1],
                pads=[1, 1, 1, 1], kernel_shape=[3, 3])
            cur_c = c_out
        elif kind == "conv_stride" and cur_s >= 4:
            c_out = 2 * cur_c
            w = (rng.normal(size=(c_out, cur_c, 3, 3)) * 0.4).astype(
                np.float32)
            wn = builder.add_initializer(f"w{i}", w)
            current = builder.add_node(
                "Conv", [current, wn], strides=[2, 2],
                pads=[1, 1, 1, 1], kernel_shape=[3, 3])
            cur_c, cur_s = c_out, cur_s // 2
        elif cur_s >= 4:
            current = builder.add_node(
                "AveragePool", [current], kernel_shape=[2, 2],
                strides=[2, 2])
            cur_s //= 2
    current = builder.add_node("GlobalAveragePool", [current])
    current = builder.add_node("Flatten", [current], axis=1)
    out_dim = draw(st.integers(2, 6))
    fw = (rng.normal(size=(out_dim, cur_c)) * 0.4).astype(np.float32)
    fb = rng.normal(size=(out_dim,)).astype(np.float32)
    fwn = builder.add_initializer("fw", fw)
    fbn = builder.add_initializer("fb", fb)
    current = builder.add_node("Gemm", [current, fwn, fbn],
                               outputs=["output"], transB=1)
    builder.add_output("output", [1, out_dim])
    model = load_model_bytes(model_to_bytes(builder.build()))
    image = rng.normal(size=(1, channels, size, size))
    return model, image, out_dim


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fuzz_linear_models_compile_and_agree(data):
    model, image, out_dim = _random_model(data.draw)
    module = onnx_to_nn(model)
    expected = run_nn_function(module, module.main(), [image])[0].ravel()
    program = ACECompiler(model, CompileOptions(poly_mode="off")).compile()
    backend = program.make_sim_backend(seed=0)
    got = program.run(backend, image)[0]
    scale = max(1.0, np.abs(expected).max())
    assert np.allclose(got, expected, atol=5e-3 * scale), (
        f"mismatch: {got} vs {expected}"
    )


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_fuzz_models_with_relu(data):
    """Random models with a ReLU: encrypted argmax must track cleartext.

    The polynomial ReLU is an approximation, so a cleartext near-tie may
    legitimately flip; the cleartext winner must then still score within
    the error ``test_compiled_resnet_mini_all_backends`` tolerates at
    the same ``sign_iterations`` of the encrypted maximum.
    """
    model, image, out_dim = _random_model(data.draw)
    # splice a Relu in front of the final Gemm
    graph = model.graph
    gemm = graph.node[-1]
    relu_out = "pre_relu"
    from repro.onnx.protos import NodeProto

    graph.node.insert(
        len(graph.node) - 1,
        NodeProto(op_type="Relu", name="fz_relu",
                  input=[gemm.input[0]], output=[relu_out]),
    )
    gemm.input[0] = relu_out
    module = onnx_to_nn(model)
    expected = run_nn_function(module, module.main(), [image])[0].ravel()
    program = ACECompiler(model, CompileOptions(
        poly_mode="off", sign_iterations=4,
        calibration_inputs=[image])).compile()
    backend = program.make_sim_backend(seed=0)
    got = program.run(backend, image)[0]
    assert got.max() - got[expected.argmax()] <= 0.15, (
        f"mismatch: {got} vs {expected}"
    )
