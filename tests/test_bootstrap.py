"""Bootstrapping tests: the noise-refresh path of ACEfhe (paper §4.4).

Runs the full ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff pipeline
on real keys at a toy ring degree.
"""

import numpy as np
import pytest

from repro.ckks import CkksContext, CkksParameters
from repro.ckks.polyeval import (
    evaluate_polynomial,
    evaluate_polynomial_horner,
    polynomial_depth,
)
from repro.errors import ParameterError


N = 64


@pytest.fixture(scope="module")
def boot_ctx():
    params = CkksParameters(
        poly_degree=N,
        scale_bits=25,
        first_prime_bits=26,
        num_levels=22,
        num_special_primes=1,
        secret_hamming_weight=8,
    )
    ctx = CkksContext(params, rotation_steps=[], seed=7)
    bs = ctx.make_bootstrapper()
    return ctx, bs


def test_polyeval_matches_numpy():
    params = CkksParameters(poly_degree=N, scale_bits=30, first_prime_bits=40,
                            num_levels=6)
    ctx = CkksContext(params, rotation_steps=[], seed=3)
    ev = ctx.evaluator
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=N // 2)
    coeffs = [0.5, -1.25, 0.75, 0.125, -0.0625]
    expected = np.polyval(list(reversed(coeffs)), x)
    ct = ctx.encrypt(x)
    got = ctx.decrypt(evaluate_polynomial(ev, ct, coeffs), num_values=N // 2)
    assert np.allclose(got, expected, atol=1e-3)
    got_h = ctx.decrypt(
        evaluate_polynomial_horner(ev, ct, coeffs), num_values=N // 2
    )
    assert np.allclose(got_h, expected, atol=1e-3)


def test_polyeval_depth_bound():
    assert polynomial_depth(1) == 1
    assert polynomial_depth(2) == 2
    assert polynomial_depth(7) == 4
    assert polynomial_depth(8) == 4
    params = CkksParameters(poly_degree=N, scale_bits=30, first_prime_bits=40,
                            num_levels=polynomial_depth(7))
    ctx = CkksContext(params, rotation_steps=[], seed=4)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=N // 2)
    coeffs = [0.0, 1.0, 0.0, -0.5, 0.0, 0.25, 0.0, -0.125]
    ct = ctx.encrypt(x)
    out = evaluate_polynomial(ctx.evaluator, ct, coeffs)
    assert out.level >= 0  # fits exactly in the predicted budget
    expected = np.polyval(list(reversed(coeffs)), x)
    assert np.allclose(ctx.decrypt(out, N // 2), expected, atol=1e-3)


def test_bootstrap_refreshes_level(boot_ctx):
    ctx, bs = boot_ctx
    rng = np.random.default_rng(5)
    msg = rng.uniform(-0.25, 0.25, size=N // 2)
    ct = ctx.encrypt(msg, level=0)
    assert ct.level == 0
    refreshed = bs.bootstrap(ct)
    assert refreshed.level == bs.target_level
    assert refreshed.level > 0
    out = ctx.decrypt(refreshed, num_values=N // 2)
    assert np.allclose(out, msg, atol=0.02)


def test_bootstrap_then_compute(boot_ctx):
    """The whole point: keep multiplying after a refresh."""
    ctx, bs = boot_ctx
    ev = ctx.evaluator
    rng = np.random.default_rng(6)
    msg = rng.uniform(-0.25, 0.25, size=N // 2)
    ct = ctx.encrypt(msg, level=0)
    refreshed = bs.bootstrap(ct)
    sq = ev.rescale(ev.multiply_relin(refreshed, refreshed))
    out = ctx.decrypt(sq, num_values=N // 2)
    assert np.allclose(out, msg**2, atol=0.02)


def test_bootstrap_target_level_knob(boot_ctx):
    """ANT-ACE bootstraps to the *minimal* level needed (paper §4.4)."""
    ctx, _ = boot_ctx
    bs_min = ctx.make_bootstrapper(target_level=1)
    rng = np.random.default_rng(7)
    msg = rng.uniform(-0.25, 0.25, size=N // 2)
    ct = ctx.encrypt(msg, level=0)
    # ModRaise lifts only as far as the refresh itself consumes
    raised = bs_min.mod_raise(ct)
    assert len(raised.basis) == 1 + bs_min.depth + 1
    assert raised.level < ctx.params.max_level
    refreshed = bs_min.bootstrap(ct)
    assert refreshed.level == 1
    assert np.allclose(ctx.decrypt(refreshed, N // 2), msg, atol=0.02)


def test_bootstrap_rejects_unreachable_target(boot_ctx):
    ctx, bs = boot_ctx
    with pytest.raises(ParameterError):
        ctx.make_bootstrapper(target_level=ctx.params.max_level)


def test_bootstrap_chain_too_short():
    params = CkksParameters(poly_degree=N, scale_bits=25, first_prime_bits=26,
                            num_levels=3, secret_hamming_weight=8)
    ctx = CkksContext(params, rotation_steps=[], seed=8)
    with pytest.raises(ParameterError):
        ctx.make_bootstrapper()
