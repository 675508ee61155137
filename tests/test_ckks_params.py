"""Parameter-set and key-material bookkeeping tests."""

import numpy as np
import pytest

from repro.backend.interface import SchemeConfig
from repro.ckks import CkksContext, CkksParameters
from repro.errors import KeyError_, ParameterError


def test_parameter_validation():
    with pytest.raises(ParameterError):
        CkksParameters(poly_degree=48)  # not a power of two
    with pytest.raises(ParameterError):
        CkksParameters(poly_degree=64, num_levels=-1)
    with pytest.raises(ParameterError):
        CkksParameters(poly_degree=64, num_special_primes=0)
    with pytest.raises(ParameterError):
        CkksParameters(poly_degree=64, scale_bits=10)  # below range
    with pytest.raises(ParameterError):
        CkksParameters(poly_degree=64, first_prime_bits=55)  # above cap


def test_chain_structure():
    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=3,
                            num_special_primes=2)
    assert len(params.moduli) == 4
    assert len(params.special_moduli) == 2
    assert params.moduli[0].bit_length() == 40
    assert all(q.bit_length() == 30 for q in params.moduli[1:])
    assert params.num_slots == 32
    assert params.max_level == 3
    assert params.log_qp() > params.log_q()
    d = params.describe()
    assert d["log2_N"] == 6 and d["levels"] == 3


def test_make_bases_consistency():
    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=2)
    cipher_basis, key_basis = params.make_bases()
    assert key_basis.moduli[: len(cipher_basis)] == cipher_basis.moduli
    assert len(key_basis) == len(cipher_basis) + 1


def test_scheme_config_helpers():
    config = SchemeConfig(poly_degree=1 << 14, scale_bits=56,
                          first_prime_bits=60, num_levels=20)
    assert config.num_slots == 1 << 13
    assert config.scale == float(2**56)
    assert config.moduli == (2.0**60,) + (2.0**56,) * 20


def test_scheme_config_carries_one_chain():
    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    config = SchemeConfig.from_params(params)
    assert config.moduli == tuple(float(q) for q in params.moduli)
    assert config.num_levels == 3 and config.poly_degree == 64
    with pytest.raises(ParameterError):
        SchemeConfig(poly_degree=64, scale_bits=30, first_prime_bits=40,
                     num_levels=2, moduli=config.moduli)


def test_key_memory_accounting():
    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=2)
    small = CkksContext(params, rotation_steps=[1], seed=0)
    large = CkksContext(params, rotation_steps=[1, 2, 3, 4], seed=0)
    assert large.key_memory_bytes() > small.key_memory_bytes()
    no_rot = CkksContext(params, rotation_steps=[], seed=0)
    assert no_rot.keys.rotations == {}


def test_missing_keys_raise():
    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=2)
    ctx = CkksContext(params, rotation_steps=[], need_relin=False, seed=0)
    ct = ctx.encrypt([1.0, 2.0])
    with pytest.raises(KeyError_):
        ctx.keys.rotation_key(5)
    c3 = ctx.evaluator.multiply(ct, ct)
    with pytest.raises(ParameterError):
        ctx.evaluator.relinearize(c3)
    with pytest.raises(ParameterError):
        ctx.evaluator.conjugate(ct)


def test_equal_step_rotation_keys_shared():
    """Steps equal mod num_slots share a Galois element and a key."""
    params = CkksParameters(poly_degree=64, scale_bits=30,
                            first_prime_bits=40, num_levels=2)
    ctx = CkksContext(params, rotation_steps=[1, 33], seed=0)  # 33 = 1 + 32
    assert len(ctx.keys.rotations) == 1


def test_sparse_secret_hamming_weight():
    params = CkksParameters(poly_degree=256, scale_bits=30,
                            first_prime_bits=40, num_levels=2,
                            secret_hamming_weight=16)
    ctx = CkksContext(params, rotation_steps=[], seed=0)
    from repro.polymath.crt import signed_coeffs

    coeffs = signed_coeffs(
        ctx.keys.secret.poly.to_coeff().residues,
        ctx.keys.secret.poly.basis.moduli,
    )
    nonzero = sum(1 for c in coeffs if c != 0)
    assert nonzero == 16
    assert all(c in (-1, 0, 1) for c in coeffs)
