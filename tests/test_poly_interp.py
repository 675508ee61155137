"""POLY-level differential execution: the lowest IR level runs on real
keys and must agree with the CKKS interpreter and the cleartext result."""

import numpy as np
import pytest

from repro.ckks import CkksParameters
from repro.ckks.cipher import Ciphertext
from repro.compiler import ACECompiler, CompileOptions
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.runtime.poly_interp import PolyInterpreter, run_poly_function


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("linear_infer")
    builder.add_input("image", [1, 20])
    builder.add_initializer(
        "fc.weight", (rng.normal(size=(4, 20)) * 0.3).astype(np.float32))
    builder.add_initializer(
        "fc.bias", rng.normal(size=(4,)).astype(np.float32))
    builder.add_node("Gemm", ["image", "fc.weight", "fc.bias"],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 4])
    model = load_model_bytes(model_to_bytes(builder.build()))
    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    program = ACECompiler(model, CompileOptions(
        exact_params=params, bootstrap_enabled=False, poly_mode="full",
    )).compile()
    backend = program.make_exact_backend(params, seed=1)
    x = rng.normal(size=(1, 20))
    weights = {t.name: t.to_numpy() for t in model.graph.initializer}
    expected = (x @ weights["fc.weight"].T + weights["fc.bias"]).ravel()
    return program, backend, x, expected


def test_poly_function_materialised(setup):
    program, _backend, _x, _expected = setup
    poly_fn = program.module.functions["main_poly"]
    assert poly_fn.op_count("poly.decomp_modup") > 0
    assert poly_fn.op_count("poly.muladd") > 0
    assert len(poly_fn.params) == 2  # one input ciphertext = two polys


def test_poly_execution_matches_cleartext(setup):
    program, backend, x, expected = setup
    poly_fn = program.module.functions["main_poly"]
    ct = backend.encrypt(program.pack_input(x))
    out_polys = run_poly_function(backend, program.module, poly_fn, [ct])
    assert len(out_polys) == 2
    # reassemble a ciphertext with the CKKS-level planned output scale
    out_meta = program.module.main().returns[0].meta
    result = Ciphertext(list(out_polys), out_meta["scale"])
    decoded = backend.ctx.decrypt(result, num_values=32)
    got = program.unpack_output(decoded)
    assert np.allclose(got, expected, atol=5e-2)


def test_poly_execution_matches_ckks_interpreter(setup):
    program, backend, x, expected = setup
    # CKKS-level run
    ckks_out = program.run(backend, x)[0]
    # POLY-level run
    poly_fn = program.module.functions["main_poly"]
    ct = backend.encrypt(program.pack_input(x))
    out_polys = run_poly_function(backend, program.module, poly_fn, [ct])
    out_meta = program.module.main().returns[0].meta
    result = Ciphertext(list(out_polys), out_meta["scale"])
    poly_out = program.unpack_output(
        backend.ctx.decrypt(result, num_values=32)
    )
    assert np.allclose(ckks_out, poly_out, atol=5e-3)
    assert np.allclose(poly_out, expected, atol=5e-2)


def test_key_reads_take_level_rows_in_one_copy(setup):
    program, backend, _x, _expected = setup
    ev = backend.ev
    num_cipher, key_limbs = len(ev.cipher_basis), len(ev.key_basis)

    def check(got, ksk, part, digit, level):
        idx = list(range(level + 1)) + list(range(num_cipher, key_limbs))
        assert got.basis.moduli == ev._extended_basis(level).moduli
        assert np.array_equal(got.residues, ksk.stack[part, digit][idx])
        # a copy the program may overwrite, made once from views of the key
        assert got.residues.flags.owndata
        assert not np.shares_memory(got.residues, ksk.stack)

    poly_fn = program.module.functions["main_poly"]
    interp = PolyInterpreter(backend, program.module)
    load = next(op for op in poly_fn.body if op.opcode == "poly.load_key"
                and op.attrs["key"].startswith("rot_"))
    ksk = backend.ctx.keys.rotation_key(int(load.attrs["key"][4:]))
    part, digit = load.attrs["part"], load.attrs["digit"]
    level = load.attrs["limbs"] - 1 - ev.params.num_special_primes
    check(interp._load_key(load), ksk, part, digit, level)
    for level in range(ev.params.max_level + 1):
        for part in range(2):
            poly = ksk.pairs[level][part]
            check(ev._restrict_key_poly(poly, level), ksk, part, level, level)
