"""Homomorphic matrix-vector product tests (diagonal + BSGS methods)."""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParameters
from repro.ckks.linear import LinearTransform
from repro.errors import ParameterError


N = 64
SLOTS = N // 2


@pytest.fixture(scope="module")
def ctx():
    params = CkksParameters(poly_degree=N, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    context = CkksContext(params, rotation_steps=list(range(1, SLOTS)),
                          seed=9)
    return context


def _apply(ctx, matrix, vec, use_bsgs):
    lt = LinearTransform(matrix, use_bsgs=use_bsgs)
    ct = ctx.encrypt(vec)
    out = lt.apply(ctx.evaluator, ct)
    return ctx.decrypt(out, SLOTS)


@pytest.mark.parametrize("use_bsgs", [False, True])
def test_random_matrix_vector(ctx, use_bsgs):
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(SLOTS, SLOTS)) / SLOTS
    vec = rng.uniform(-1, 1, size=SLOTS)
    got = _apply(ctx, matrix, vec, use_bsgs)
    assert np.allclose(got, matrix @ vec, atol=1e-2)


@pytest.mark.parametrize("use_bsgs", [False, True])
def test_identity_matrix(ctx, use_bsgs):
    vec = np.linspace(-1, 1, SLOTS)
    got = _apply(ctx, np.eye(SLOTS), vec, use_bsgs)
    assert np.allclose(got, vec, atol=1e-2)


def test_permutation_matrix(ctx):
    rng = np.random.default_rng(1)
    perm = rng.permutation(SLOTS)
    matrix = np.zeros((SLOTS, SLOTS))
    matrix[np.arange(SLOTS), perm] = 1.0
    vec = rng.uniform(-1, 1, size=SLOTS)
    got = _apply(ctx, matrix, vec, True)
    assert np.allclose(got, vec[perm], atol=1e-2)


def test_complex_matrix(ctx):
    """Bootstrap's DFT matrices are complex; check complex support."""
    rng = np.random.default_rng(2)
    matrix = (rng.normal(size=(SLOTS, SLOTS))
              + 1j * rng.normal(size=(SLOTS, SLOTS))) / SLOTS
    vec = rng.uniform(-1, 1, size=SLOTS)
    lt = LinearTransform(matrix)
    ct = ctx.encrypt(vec)
    out = lt.apply(ctx.evaluator, ct)
    decoded = ctx.evaluator.decode(ctx.evaluator.decrypt(out), SLOTS)
    assert np.allclose(decoded, np.real(matrix @ vec), atol=1e-2)


def test_bsgs_needs_fewer_keys():
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(SLOTS, SLOTS))
    plain = LinearTransform(matrix, use_bsgs=False)
    bsgs = LinearTransform(matrix, use_bsgs=True)
    assert len(bsgs.required_rotations()) < len(plain.required_rotations())
    # ~2*sqrt(n) vs n-1
    assert len(bsgs.required_rotations()) <= 4 * int(np.sqrt(SLOTS))


def test_transform_consumes_one_level(ctx):
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(SLOTS, SLOTS)) / SLOTS
    ct = ctx.encrypt(np.ones(SLOTS))
    out = LinearTransform(matrix).apply(ctx.evaluator, ct)
    assert out.level == ct.level - 1


def test_non_square_rejected():
    with pytest.raises(ParameterError):
        LinearTransform(np.ones((4, 8)))


def test_wrong_slot_count_rejected(ctx):
    lt = LinearTransform(np.eye(8))
    ct = ctx.encrypt(np.ones(SLOTS))
    with pytest.raises(ParameterError):
        lt.apply(ctx.evaluator, ct)


@pytest.mark.parametrize("giant", [2, 8, 16])
def test_per_transform_giant_equivalent(ctx, giant):
    """Any divisor split computes the same product as the sqrt default."""
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(SLOTS, SLOTS)) / SLOTS
    vec = rng.uniform(-1, 1, size=SLOTS)
    lt = LinearTransform(matrix, giant=giant)
    assert lt.giant == giant and lt.baby == SLOTS // giant
    got = ctx.decrypt(lt.apply(ctx.evaluator, ctx.encrypt(vec)), SLOTS)
    assert np.allclose(got, matrix @ vec, atol=1e-2)


def test_non_divisor_giant_rejected():
    with pytest.raises(ParameterError):
        LinearTransform(np.eye(32), giant=5)


def test_missing_rotation_keys_warn_once():
    """A transform whose split needs keys the evaluator lacks raises
    KeyError_ naming the first missing step, hoisted or not, and holds
    no decomposition on its input afterwards."""
    from repro.ckks.linear import apply_hoisted_batch
    from repro.errors import KeyError_

    params = CkksParameters(poly_degree=N, scale_bits=30,
                            first_prime_bits=40, num_levels=3)
    # default key set = powers of two only; giant=8 needs steps 3,5,6,7
    context = CkksContext(params, rotation_steps=None, seed=11)
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(SLOTS, SLOTS)) / SLOTS
    ct = context.encrypt(rng.uniform(-1, 1, size=SLOTS))
    lt = LinearTransform(matrix, giant=8)
    for apply in (lambda: lt.apply(context.evaluator, ct),
                  lambda: lt.apply(context.evaluator, ct, hoisted=False),
                  lambda: apply_hoisted_batch(context.evaluator, ct, [lt])):
        with pytest.raises(KeyError_, match="step 3"):
            apply()
        assert ct.hoisted is None
