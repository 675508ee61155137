"""Evaluator odds and ends: downscale, square, composed rotations,
trace bookkeeping, hypothesis properties of the homomorphic algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import SchemeConfig, SimBackend
from repro.ckks import CkksContext, CkksParameters


N = 128
SLOTS = N // 2


@pytest.fixture(scope="module")
def ctx():
    params = CkksParameters(poly_degree=N, scale_bits=28,
                            first_prime_bits=40, num_levels=4)
    return CkksContext(params, seed=21)


def test_square_equals_self_multiply(ctx):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=SLOTS)
    ev = ctx.evaluator
    ct = ctx.encrypt(x)
    sq = ev.rescale(ev.relinearize(ev.square(ct)))
    assert np.allclose(ctx.decrypt(sq), x * x, atol=1e-2)


def test_downscale_reaches_target(ctx):
    ev = ctx.evaluator
    ct = ctx.encrypt(np.full(SLOTS, 0.5))
    up = ev.upscale(ct, 29)  # scale is now ~2^57
    target = up.scale / ctx.params.moduli[up.level] * 1.05
    down = ev.downscale(up, target)
    assert down.scale <= target
    assert down.level == up.level - 1  # exactly one rescale needed
    assert np.allclose(ctx.decrypt(down), 0.5, atol=1e-2)


def test_rotation_composition_additivity(ctx):
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=SLOTS)
    ev = ctx.evaluator
    ct = ctx.encrypt(x)
    once = ev.rotate(ev.rotate(ct, 2), 2)
    direct = ev.rotate(ct, 4)
    assert np.allclose(ctx.decrypt(once), ctx.decrypt(direct), atol=1e-2)


@settings(max_examples=15, deadline=None)
@given(
    a=st.lists(st.floats(-1, 1), min_size=SLOTS, max_size=SLOTS),
    b=st.lists(st.floats(-1, 1), min_size=SLOTS, max_size=SLOTS),
)
def test_homomorphism_property_sim(a, b):
    """Dec(Enc(x) op Enc(y)) == x op y — the §2.1 defining equations."""
    be = SimBackend(
        SchemeConfig(poly_degree=N, scale_bits=30, first_prime_bits=40,
                     num_levels=2),
        seed=0,
    )
    x, y = np.array(a), np.array(b)
    cx, cy = be.encrypt(x), be.encrypt(y)
    assert np.allclose(be.decrypt(be.add(cx, cy), SLOTS), x + y, atol=1e-3)
    prod = be.rescale(be.relinearize(be.mul(cx, cy)))
    assert np.allclose(be.decrypt(prod, SLOTS), x * y, atol=1e-3)


def test_trace_merge_and_clear(ctx):
    from repro.backend.trace import OpTrace

    t1 = OpTrace()
    t1.record("mul", 3, 2)
    t2 = OpTrace()
    t2.record("mul", 3, 1)
    t2.record("rotate", 5, 4)
    t1.merge(t2)
    assert t1.total("mul") == 3
    assert t1.total("rotate") == 4
    assert t1.by_op()["rotate"] == 4
    t1.clear()
    assert t1.total() == 0


def test_encrypt_scalar_broadcast_sim():
    be = SimBackend(
        SchemeConfig(poly_degree=N, scale_bits=30, first_prime_bits=40,
                     num_levels=2),
        seed=1,
    )
    ct = be.encrypt(0.75)
    out = be.decrypt(ct)
    assert np.allclose(out, 0.75, atol=1e-4)


def test_sim_message_too_long_rejected():
    from repro.errors import ParameterError

    be = SimBackend(
        SchemeConfig(poly_degree=N, scale_bits=30, first_prime_bits=40,
                     num_levels=2),
        seed=2,
    )
    with pytest.raises(ParameterError):
        be.encrypt(np.ones(SLOTS + 1))
