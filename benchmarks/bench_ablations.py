"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation disables one compiler optimisation and measures the cost
delta with the same cost model as Figure 6, isolating where the paper's
speedup comes from:

* minimal-level vs full-chain bootstrapping (§4.4),
* lazy vs eager rescaling (the EVA-style waterline policy),
* exact rotation keys vs power-of-two composition (§2.2 fallback),
* rotation deduplication in the linear-map lowering (Listing 4's hoist).
"""

import numpy as np

from repro.backend import SchemeConfig, SimBackend
from repro.compiler import ACECompiler, CompileOptions
from repro.expert import ExpertConfig, ExpertInference
from repro.nn import model_to_onnx, resnet_mini
from repro.onnx import load_model_bytes, model_to_bytes
from repro.passes.cost import CostModel
from repro.passes.frontend import onnx_to_nn


def _mini_proto(seed=1):
    model = resnet_mini(num_classes=4, in_channels=1, base_width=4,
                        input_size=8, blocks=2, seed=seed)
    return load_model_bytes(model_to_bytes(model_to_onnx(model))), model


def _run_cost(program):
    backend = program.make_sim_backend(inject_noise=False, seed=0)
    rng = np.random.default_rng(0)
    img = rng.normal(size=(1, 1, 8, 8)) * 0.5
    program.run(backend, img, check_plan=False)
    cm = CostModel(program.scheme.poly_degree)
    return cm.total_seconds(backend.trace), backend.trace


def test_ablation_minimal_level_bootstrap(benchmark, capsys):
    """§4.4: refreshing to minimal levels must beat full-chain refreshes."""
    proto, _ = _mini_proto()
    opts = dict(sign_iterations=3, poly_mode="off")
    minimal = ACECompiler(proto, CompileOptions(
        **opts, minimal_level_bootstrap=True)).compile()
    full = ACECompiler(proto, CompileOptions(
        **opts, minimal_level_bootstrap=False)).compile()
    cost_min, trace_min = benchmark.pedantic(
        lambda: _run_cost(minimal), rounds=1, iterations=1)
    cost_full, trace_full = _run_cost(full)
    boots_min = [l for (_, op, l), n in trace_min.counts.items()
                 if op == "bootstrap"]
    boots_full = [l for (_, op, l), n in trace_full.counts.items()
                  if op == "bootstrap"]
    with capsys.disabled():
        print(f"\nablation bootstrap-target: minimal {cost_min:.2f}s "
              f"(targets {sorted(set(boots_min))}) vs full {cost_full:.2f}s "
              f"(targets {sorted(set(boots_full))})")
    assert boots_min and boots_full
    # the shallow final region gets a much lower refresh target
    assert min(boots_min) < min(boots_full)
    assert cost_min < cost_full


def test_ablation_rotation_dedup(benchmark, capsys):
    """Rotation dedup: distinct offsets << raw contribution count."""
    proto, _ = _mini_proto()
    program = benchmark.pedantic(
        lambda: ACECompiler(proto, CompileOptions(
            sign_iterations=3, poly_mode="off")).compile(),
        rounds=1, iterations=1,
    )
    fn = program.module.main()
    rotations = fn.op_count("ckks.rotate")
    muls = fn.op_count("ckks.mul")
    with capsys.disabled():
        print(f"\nablation rotation-dedup: {rotations} rotations for "
              f"{muls} multiplications")
    # without dedup every conv contribution would carry its own rotation:
    # rotations would be >= the plaintext-mul count
    assert rotations < muls


def test_ablation_pow2_rotation_composition(benchmark, capsys):
    """§2.2 fallback: composing from pow2 keys costs extra key switches."""
    proto, _ = _mini_proto()
    module = onnx_to_nn(proto)
    scheme = SchemeConfig(poly_degree=512, scale_bits=40,
                          first_prime_bits=50, num_levels=28)

    def run(pow2):
        backend = SimBackend(scheme, inject_noise=False, seed=0)
        expert = ExpertInference(module, backend, ExpertConfig(
            sign_iterations=4, power_of_two_rotations=pow2))
        rng = np.random.default_rng(0)
        expert.run(rng.normal(size=(1, 1, 8, 8)) * 0.5)
        return backend.trace.total("rotate"), len(expert.used_rotation_steps)

    rot_exact, keys_exact = benchmark.pedantic(
        lambda: run(False), rounds=1, iterations=1)
    rot_pow2, keys_pow2 = run(True)
    with capsys.disabled():
        print(f"\nablation pow2-composition: exact keys -> {rot_exact} "
              f"rotations / {keys_exact} keys; pow2 -> {rot_pow2} "
              f"rotations / {keys_pow2} keys")
    assert rot_pow2 > rot_exact      # composition costs time...
    assert keys_pow2 < keys_exact    # ...to save key memory


def test_ablation_simd_batching(benchmark, capsys):
    """Table 2 "Batching": B images share every homomorphic op, so the
    modelled per-image cost divides by B."""
    proto, model = _mini_proto()
    single = ACECompiler(proto, CompileOptions(
        sign_iterations=3, poly_mode="off", batch_size=1, slots=256,
    )).compile()
    batched = benchmark.pedantic(
        lambda: ACECompiler(proto, CompileOptions(
            sign_iterations=3, poly_mode="off", batch_size=4, slots=1024,
        )).compile(),
        rounds=1, iterations=1,
    )
    assert batched.stats["ckks_ops"] == single.stats["ckks_ops"]
    rng = np.random.default_rng(0)
    images = [rng.normal(size=(1, 1, 8, 8)) * 0.5 for _ in range(4)]
    backend = batched.make_sim_backend(inject_noise=False, seed=0)
    results = batched.run_batch(backend, images)
    cm = CostModel(batched.scheme.poly_degree)
    per_image = cm.total_seconds(backend.trace) / len(images)
    single_backend = single.make_sim_backend(inject_noise=False, seed=0)
    single.run(single_backend, images[0], check_plan=False)
    cm1 = CostModel(single.scheme.poly_degree)
    single_cost = cm1.total_seconds(single_backend.trace)
    with capsys.disabled():
        print(f"\nablation batching: {single_cost:.2f}s/image unbatched vs "
              f"{per_image:.2f}s/image at batch 4 "
              f"(N grows {single.scheme.poly_degree} -> "
              f"{batched.scheme.poly_degree})")
    # larger N makes each op costlier, but the 4x sharing dominates
    assert per_image < single_cost
    for image, got in zip(images, results):
        assert got.ravel().argmax() == model.forward(image).ravel().argmax()


def test_ablation_lazy_rescale(benchmark, capsys):
    """The waterline policy rescales accumulation chains once."""
    proto, _ = _mini_proto()
    program = benchmark.pedantic(
        lambda: ACECompiler(proto, CompileOptions(
            sign_iterations=3, poly_mode="off")).compile(),
        rounds=1, iterations=1,
    )
    fn = program.module.main()
    # the lazy policy pays off inside accumulation chains, i.e. the Conv
    # regions (ReLU polynomial chains genuinely need a rescale per mul)
    conv_rescales = sum(1 for op in fn.body if op.opcode == "ckks.rescale"
                        and op.attrs.get("region") == "Conv")
    conv_muls = sum(1 for op in fn.body if op.opcode == "ckks.mul"
                    and op.attrs.get("region") == "Conv")
    with capsys.disabled():
        print(f"\nablation lazy-rescale (Conv regions): {conv_rescales} "
              f"rescales for {conv_muls} multiplications "
              f"(eager would need ~{conv_muls})")
    assert conv_rescales < 0.5 * conv_muls
