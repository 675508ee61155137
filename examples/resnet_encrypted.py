"""Encrypted ResNet inference end-to-end (the paper's headline workload).

Trains a CIFAR-style ResNet on a synthetic dataset, exports it to ONNX,
compiles it with the ANT-ACE reproduction and compares encrypted (SimBackend
with calibrated CKKS noise) vs cleartext predictions — a single-model
slice of Table 11 — and prints the ACE-vs-Expert phase breakdown of
Figure 6.

Run:  python examples/resnet_encrypted.py [depth]
"""

import sys
import time

import numpy as np

from repro.backend import SchemeConfig, SimBackend
from repro.compiler import ACECompiler, CompileOptions
from repro.expert import ExpertConfig, ExpertInference
from repro.nn import SyntheticCifar, build_resnet, model_to_onnx, train_classifier
from repro.onnx import load_model_bytes, model_to_bytes
from repro.passes.cost import CostModel
from repro.passes.frontend import onnx_to_nn


def main() -> None:
    depth = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    rng = np.random.default_rng(0)
    dataset = SyntheticCifar(num_classes=10, image_size=16, channels=3,
                             noise=0.3, seed=1)
    model = build_resnet(depth, num_classes=10, in_channels=3,
                         base_width=8, input_size=16, seed=2)
    print(f"training ResNet-{depth} on synthetic CIFAR ...")
    train_classifier(model, dataset, steps=300, batch_size=32, lr=0.01,
                     seed=3)

    proto = load_model_bytes(model_to_bytes(model_to_onnx(model)))
    calib, _ = dataset.sample(4, seed=5)
    print("compiling ...")
    t0 = time.perf_counter()
    program = ACECompiler(proto, CompileOptions(
        sign_iterations=4,
        calibration_inputs=[img[None] for img in calib],
    )).compile()
    print(f"compiled in {time.perf_counter() - t0:.1f}s: "
          f"{program.stats['ckks_ops']} CKKS ops, "
          f"{program.stats['rotations']} rotation keys, "
          f"N=2^{program.selection.log_n}")

    images, labels = dataset.sample(5, seed=9)
    backend = program.make_sim_backend(seed=4)
    agree = correct = 0
    for image, label in zip(images, labels):
        logits = program.run(backend, image[None], check_plan=False)[0]
        plain = model.forward(image[None]).ravel()
        agree += int(np.argmax(logits) == np.argmax(plain))
        correct += int(np.argmax(logits) == label)
    print(f"encrypted-vs-plain prediction agreement: {agree}/5, "
          f"encrypted accuracy: {correct}/5")

    # Expert comparison (Figure 6 in miniature)
    module = onnx_to_nn(proto)
    cfg = ExpertConfig()
    scheme = SchemeConfig(
        poly_degree=program.scheme.poly_degree,
        scale_bits=program.scheme.scale_bits,
        first_prime_bits=program.scheme.first_prime_bits,
        num_levels=4 * cfg.sign_iterations + 8,
    )
    exp_backend = SimBackend(scheme, inject_noise=False, seed=5)
    expert = ExpertInference(module, exp_backend, cfg)
    expert.run(images[0][None])
    ace_cost = CostModel(program.scheme.poly_degree)
    exp_cost = CostModel(scheme.poly_degree)
    backend.trace.clear()
    program.run(backend, images[0][None], check_plan=False)
    ace_t = ace_cost.trace_seconds(backend.trace)
    exp_t = exp_cost.trace_seconds(exp_backend.trace)
    print(f"modelled per-image time  ACE: {sum(ace_t.values()):.2f}s  "
          f"Expert: {sum(exp_t.values()):.2f}s  "
          f"speedup {sum(exp_t.values()) / sum(ace_t.values()):.2f}x")


if __name__ == "__main__":
    main()
