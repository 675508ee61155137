"""Backend tests, including Exact-vs-Sim differential agreement."""

import numpy as np
import pytest

from repro.backend import ExactBackend, SchemeConfig, SimBackend
from repro.ckks import CkksParameters
from repro.errors import (
    LevelMismatchError,
    NoiseBudgetExhausted,
    ParameterError,
    ScaleMismatchError,
)


N = 128


@pytest.fixture(scope="module")
def exact():
    params = CkksParameters(
        poly_degree=N, scale_bits=30, first_prime_bits=40, num_levels=3
    )
    be = ExactBackend(params, seed=11)
    be.ctx.add_rotation_keys([3])  # _program rotates by 3: no power of two
    return be


@pytest.fixture(scope="module")
def sim():
    config = SchemeConfig(
        poly_degree=N, scale_bits=30, first_prime_bits=40, num_levels=3
    )
    return SimBackend(config, seed=11)


def _program(be, x, w):
    """A small mixed program touching most ops."""
    cx = be.encrypt(x)
    cw = be.encrypt(w)
    pw = be.encode(w, scale=be.config.scale, level=be.config.max_level)
    t = be.add(cx, cw)                       # x + w
    t = be.sub_plain(t, pw)                  # x
    t = be.rotate(t, 3)                      # rot(x, 3)
    m = be.relinearize(be.mul(t, cw))        # rot(x,3) * w
    m = be.rescale(m)
    # Align cx to m's level and scale the way the compiler does: multiply
    # by ones at a scale that makes one rescale land exactly on m's scale.
    t2 = be.mod_switch_to(cx, be.level_of(m) + 1)
    ones_scale = be.scale_of(m) * be.prime_at(be.level_of(t2)) / be.scale_of(t2)
    pt2 = be.encode([1.0] * (N // 2), scale=ones_scale, level=be.level_of(t2))
    t2 = be.rescale(be.mul_plain(t2, pt2))   # x, at m's scale and level
    return be.decrypt(be.add(m, t2), N // 2)


def test_differential_exact_vs_sim(exact, sim):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=N // 2)
    w = rng.uniform(-1, 1, size=N // 2)
    expected = np.roll(x, -3) * w + x
    got_exact = _program(exact, x, w)
    got_sim = _program(sim, x, w)
    assert np.allclose(got_exact, expected, atol=5e-3)
    assert np.allclose(got_sim, expected, atol=5e-3)
    assert np.allclose(got_exact, got_sim, atol=5e-3)


def test_sim_mirrors_exact_errors(sim):
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=N // 2)
    a = sim.encrypt(x)
    b = sim.encrypt(x, scale=sim.config.scale * 4)
    with pytest.raises(ScaleMismatchError):
        sim.add(a, b)
    c = sim.mod_switch(a, 1)
    with pytest.raises(LevelMismatchError):
        sim.add(a, c)
    bottom = sim.mod_switch_to(a, 0)
    with pytest.raises(NoiseBudgetExhausted):
        sim.rescale(bottom)
    c3 = sim.mul(a, a)
    with pytest.raises(ParameterError):
        sim.rotate(c3, 1)
    with pytest.raises(ParameterError):
        sim.mul(c3, a)


def test_sim_bootstrap_restores_level(sim):
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.5, 0.5, size=N // 2)
    ct = sim.encrypt(x)
    low = sim.mod_switch_to(ct, 0)
    fresh = sim.bootstrap(low)
    assert sim.level_of(fresh) == sim.config.max_level
    assert np.allclose(sim.decrypt(fresh, N // 2), x, atol=1e-3)


def test_sim_noise_injection_is_plausible():
    config = SchemeConfig(poly_degree=N, scale_bits=30, first_prime_bits=40,
                          num_levels=3)
    noisy = SimBackend(config, inject_noise=True, seed=5)
    clean = SimBackend(config, inject_noise=False, seed=5)
    x = np.linspace(-1, 1, N // 2)
    out_noisy = noisy.decrypt(noisy.rotate(noisy.encrypt(x), 1), N // 2)
    out_clean = clean.decrypt(clean.rotate(clean.encrypt(x), 1), N // 2)
    err = np.abs(out_noisy - out_clean).max()
    assert 0 < err < 1e-4  # noise present but tiny


def test_trace_records_tags_and_ops(sim):
    sim.trace.clear()
    x = np.ones(N // 2)
    with sim.trace.region("Conv"):
        ct = sim.encrypt(x)
        ct = sim.rotate(ct, 1)
    with sim.trace.region("ReLU"):
        sq = sim.relinearize(sim.mul(ct, ct))
    by_tag = sim.trace.by_tag()
    assert "Conv" in by_tag and "ReLU" in by_tag
    assert sim.trace.total("rotate") == 1
    assert sim.trace.total("mul") == 1
    assert sim.trace.total() >= 4


def test_exact_trace_counts(exact):
    exact.trace.clear()
    x = np.ones(N // 2)
    ct = exact.encrypt(x)
    exact.rescale(exact.mul_plain(
        ct, exact.encode(x, exact.config.scale, exact.config.max_level)))
    assert exact.trace.total("mul_plain") == 1
    assert exact.trace.total("rescale") == 1
