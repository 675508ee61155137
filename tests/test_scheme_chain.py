"""One modulus chain: the scheme carries it, every consumer reads it.

A compiled program's ``scheme.moduli`` is the chain its scales were
planned with.  ``SimBackend`` rescales by the same primes as
``ExactBackend``, so a program compiled against real primes passes the
runtime plan check on both; and in automatic mode the parameter selector
is asked about the chain the program is then lowered onto.
"""

import math

import numpy as np
import pytest

from benchmarks.e2e import workloads
from repro.ckks import CkksParameters
from repro.compiler import ACECompiler, CompileOptions
from repro.errors import SecurityError
from repro.nn import model_to_onnx, resnet_mini
from repro.onnx import load_model_bytes, model_to_bytes
from repro.params.security import max_log_qp_for_degree


@pytest.fixture(scope="module")
def relu_boot():
    workload = workloads.get("relu_boot")
    program = workload.compile_program(workload.model_bytes())
    x = workload.make_input(np.random.default_rng(0))
    return workload, program, x


@pytest.fixture(scope="module")
def relu_boot_exact(relu_boot):
    workload, program, x = relu_boot
    return program.run(workload.make_backend(program), x)[0]


@pytest.mark.parametrize("inject_noise", [False, True])
def test_sim_meets_the_plan_on_real_primes(relu_boot, relu_boot_exact,
                                           inject_noise):
    workload, program, x = relu_boot
    backend = program.make_sim_backend(inject_noise=inject_noise, seed=0)
    out = program.run(backend, x, check_plan=True)[0]
    assert np.abs(out - workload.reference(x)).max() < workload.tolerance
    assert np.abs(out - relu_boot_exact).max() < 1e-3


def test_exact_params_resnet_runs_on_sim():
    rng = np.random.default_rng(5)
    model = resnet_mini(num_classes=4, in_channels=1, base_width=2,
                        input_size=8, blocks=1, seed=1)
    proto = load_model_bytes(model_to_bytes(model_to_onnx(model)))
    calib = [rng.normal(size=(1, 1, 8, 8)) * 0.5 for _ in range(3)]
    params = CkksParameters(poly_degree=256, scale_bits=25,
                            first_prime_bits=30, num_levels=24,
                            security_bits=0)
    program = ACECompiler(proto, CompileOptions(
        exact_params=params, sign_iterations=3, calibration_inputs=calib,
        poly_mode="off")).compile()
    assert program.bootstrap_targets
    assert program.scheme.moduli == tuple(float(q) for q in params.moduli)
    img = rng.normal(size=(1, 1, 8, 8)) * 0.5
    backend = program.make_sim_backend(inject_noise=False, seed=0)
    out = program.run(backend, img, check_plan=True)[0]
    assert np.abs(out.ravel() - model.forward(img).ravel()).max() < 0.05


def _log_qp(scheme) -> float:
    """log2(QP) of a scheme's chain; special primes are as wide as q0."""
    return (sum(math.log2(q) for q in scheme.moduli)
            + scheme.num_special_primes * scheme.first_prime_bits)


@pytest.mark.parametrize("bootstrap", [True, False])
def test_selected_ring_covers_the_chain(bootstrap):
    """Without bootstrapping the chain spans the whole program; the
    selector must see that chain, not the deepest region's."""
    workload = workloads.get("relu_boot")
    proto = load_model_bytes(workload.model_bytes())
    options = CompileOptions(poly_mode="off", sign_iterations=2,
                             bootstrap_enabled=bootstrap)
    try:
        program = ACECompiler(proto, options).compile()
    except SecurityError:
        assert not bootstrap
        return
    scheme = program.scheme
    assert program.selection.depth == scheme.num_levels
    assert program.selection.degree == scheme.poly_degree
    assert _log_qp(scheme) <= max_log_qp_for_degree(
        scheme.poly_degree, options.security_bits)
