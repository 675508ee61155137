"""Level planning on CKKS IR (repro.passes.levels).

Unit tests drive the ground-truth level analysis over hand-built CKKS
DAGs (where every rescale/bootstrap position is known exactly); the
end-to-end tests compile a bootstrap-deep ResNet-lite at every opt level
and check the fitting lowering's contract: every refresh target is its
region's measured need, ``program.stats["levels"]`` reads the final IR,
and decrypted outputs are bit-identical on the noiseless simulator.  The
fitting lowering (``lower_to_ckks``) is also checked on real prime
chains: no slack, few lowerings on a chain that is too short, and an
untouched SIHE input.
"""

import re
from unittest import mock

import numpy as np
import pytest

from benchmarks.bench_level_replan import _params, build_residual_model
from benchmarks.e2e import workloads
from repro.compiler import ACECompiler, CompileOptions
from repro.errors import LoweringError
from repro.ir import print_module
from repro.ir.core import Function, Op, Value
from repro.ir.types import Cipher3Type, CipherType
from repro.nn import model_to_onnx, resnet_mini
from repro.onnx import load_model_bytes, model_to_bytes
from repro.passes import levels
from repro.passes.levels import bootstrap_targets, clone_function, consumed_need
from repro.passes.lowering.sihe_to_ckks import SiheToCkksLowering
from repro.polymath import kernels

DELTA = 2.0 ** 56
Q0 = 2.0 ** 60
SLOTS = 8


def _moduli(levels):
    return [Q0] + [DELTA] * levels


def _make_fn(level):
    x = Value(CipherType(SLOTS), "x")
    x.meta = {"scale": DELTA, "level": level}
    fn = Function("main", [x])
    return fn, x


def _emit(fn, opcode, operands, attrs, scale, level, type_=None):
    result = Value(type_ or CipherType(SLOTS), "")
    result.meta = {"scale": scale, "level": level}
    fn.append(Op(opcode, list(operands), [result], dict(attrs or {})))
    return result


def _unit(fn, v, region="ReLU"):
    """One squaring unit: mul -> relin -> rescale, Δ -> Δ one level down."""
    lvl = v.meta["level"]
    prod = _emit(fn, "ckks.mul", [v, v], {"region": region},
                 DELTA * DELTA, lvl, Cipher3Type(SLOTS))
    red = _emit(fn, "ckks.relin", [prod], {"region": region},
                DELTA * DELTA, lvl)
    return _emit(fn, "ckks.rescale", [red], {"region": region},
                 DELTA, lvl - 1)


def _boot(fn, v, target, hint=0):
    return _emit(fn, "ckks.bootstrap", [v],
                 {"target_level": target, "region": "Bootstrap",
                  "hint": hint},
                 DELTA, target)


# ---------------------------------------------------------------------------
# consumed_need: the backward ground-truth depth analysis
# ---------------------------------------------------------------------------

class TestConsumedNeed:
    def test_rescales_count_one_level_each(self):
        fn, x = _make_fn(6)
        v = x
        for _ in range(3):
            v = _unit(fn, v)
        fn.returns = [v]
        assert consumed_need(fn, _moduli(6))[x.id] == 3

    def test_capacity_floor_keeps_wide_scales_representable(self):
        # a Δ²-scale value that is never rescaled consumes no levels,
        # but 2^112 does not fit under q0 = 2^60 alone: the plan must
        # keep it at level >= 1
        fn, x = _make_fn(6)
        prod = _emit(fn, "ckks.mul", [x, x], {}, DELTA * DELTA, 6,
                     Cipher3Type(SLOTS))
        red = _emit(fn, "ckks.relin", [prod], {}, DELTA * DELTA, 6)
        fn.returns = [red]
        assert consumed_need(fn).get(x.id, 0) == 0   # no moduli, no floor
        assert consumed_need(fn, _moduli(6))[x.id] == 1

    def test_bootstrap_resets_need(self):
        fn, x = _make_fn(6)
        v = _unit(fn, x)
        refreshed = _boot(fn, v, target=6)
        out = _unit(fn, refreshed)
        fn.returns = [out]
        need = consumed_need(fn, _moduli(6))
        assert need[x.id] == 1          # only the pre-refresh unit
        assert need[refreshed.id] == 1  # only the post-refresh unit

    def test_modswitch_consumes_attr_levels(self):
        fn, x = _make_fn(6)
        v = _emit(fn, "ckks.modswitch", [x], {"levels": 2}, DELTA, 4)
        fn.returns = [v]
        assert consumed_need(fn, _moduli(6))[x.id] == 2


# ---------------------------------------------------------------------------
# cloning
# ---------------------------------------------------------------------------

def test_clone_function_is_deep():
    fn, x = _make_fn(6)
    v = _unit(fn, x)
    fn.returns = [v]
    copy = clone_function(fn)
    copy.body[0].attrs["region"] = "Mutated"
    copy.body[0].results[0].meta["level"] = 0
    assert fn.body[0].attrs["region"] == "ReLU"
    assert fn.body[0].results[0].meta["level"] == 6
    assert all(a.id != b.id for a, b in zip(fn.params, copy.params))


# ---------------------------------------------------------------------------
# end-to-end: bootstrap-deep ResNet-lite through the whole pipeline
# ---------------------------------------------------------------------------

def _compile(opt_level, layout_tune="heuristic", blocks=2):
    model = resnet_mini(num_classes=4, in_channels=1, base_width=4,
                        input_size=8, blocks=blocks, seed=1)
    proto = load_model_bytes(model_to_bytes(model_to_onnx(model)))
    program = ACECompiler(proto, CompileOptions(
        sign_iterations=3, poly_mode="off", opt_level=opt_level,
        layout_tune=layout_tune,
    )).compile()
    return model, program


@pytest.fixture(scope="module")
def programs():
    return {level: _compile(level) for level in (0, 1, 2)}


def _chain(program) -> list[float]:
    """The modulus chain the program was lowered against."""
    return list(program.scheme.moduli)


def _slack(program) -> list[tuple[int, int]]:
    """(target, measured need) of every refresh whose target is not its
    region's need on the final IR."""
    fn = program.module.main()
    need = consumed_need(fn, _chain(program))
    return [(op.attrs["target_level"], need.get(op.result.id, 0))
            for op in fn.body if op.opcode == "ckks.bootstrap"
            and op.attrs["target_level"] != need.get(op.result.id, 0)]


class TestReplanEndToEnd:
    def test_fixpoint_bounded_and_targets_fitted(self, programs):
        _, p0 = programs[0]
        _, p2 = programs[2]
        targets = p2.stats["levels"]["targets"]
        assert targets and not _slack(p2)
        assert bootstrap_targets(p2.module.main()) == targets
        # the optimizer only ever shrinks the refresh budget vs opt 0
        assert max(p2.bootstrap_targets) <= max(p0.bootstrap_targets)

    def test_levels_stats_read_the_final_ir(self, programs):
        for _, program in programs.values():
            targets = bootstrap_targets(program.module.main())
            assert program.stats["levels"] == {
                "bootstraps": len(targets), "targets": targets}

    def test_outputs_bit_identical_across_opt_levels(self, programs):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(1, 1, 8, 8)) * 0.5
        outs = {}
        for level, (model, program) in programs.items():
            backend = program.make_sim_backend(inject_noise=False, seed=0)
            outs[level] = program.run(backend, img)[0]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])
        # and the plan is still semantically right (3-iteration sign
        # approximation without calibration: ranking, not magnitudes)
        ref = programs[2][0].forward(img).ravel()
        assert outs[2].argmax() == ref.argmax()

    def test_env_kernel_selection(self, programs, monkeypatch):
        # the opt-2 program under the kernel backend the CI matrix
        # exercises: the numba kernels when available
        _, program = programs[2]
        rng = np.random.default_rng(2)
        img = rng.normal(size=(1, 1, 8, 8)) * 0.5
        base = program.run(
            program.make_sim_backend(inject_noise=False, seed=0), img)[0]
        if kernels.backend_available("numba"):
            monkeypatch.setenv("REPRO_KERNEL", "numba")
        out = program.run(
            program.make_sim_backend(inject_noise=False, seed=0), img)[0]
        assert np.array_equal(base, out)


# ---------------------------------------------------------------------------
# the fitting lowering on real prime chains
# ---------------------------------------------------------------------------

def _relu_boot(num_levels=None):
    workload = workloads.get("relu_boot")
    options = workload.options()
    if num_levels is not None:
        options.exact_params = _params(num_levels)
    return load_model_bytes(workload.model_bytes()), options


def _residual():
    return build_residual_model(features=8, plain_layers=1), CompileOptions(
        exact_params=_params(17), poly_mode="off", sign_iterations=2)


@pytest.mark.parametrize("opt_level", [0, 1, 2])
@pytest.mark.parametrize("model", ["relu_boot", "residual", "resnet_mini",
                                   "resnet_mini_search"])
def test_no_refresh_has_slack(model, opt_level, programs):
    """Every refresh targets exactly its region's measured need — also
    when the layout search proposes a plan."""
    if model == "resnet_mini":
        program = programs[opt_level][1]
    elif model == "resnet_mini_search":
        program = _compile(opt_level, layout_tune="search", blocks=1)[1]
    else:
        proto, options = _relu_boot() if model == "relu_boot" \
            else _residual()
        options.opt_level = opt_level
        program = ACECompiler(proto, options).compile()
    assert program.bootstrap_targets
    assert _slack(program) == []


def _count_lowerings(proto, options):
    calls = []
    real = SiheToCkksLowering.run

    def counting(self, module, context):
        calls.append(1)
        return real(self, module, context)

    with mock.patch.object(SiheToCkksLowering, "run", counting):
        try:
            return ACECompiler(proto, options).compile(), len(calls)
        except LoweringError:
            return None, len(calls)


def test_short_chain_fails_in_two_lowerings():
    program, lowerings = _count_lowerings(*_relu_boot(num_levels=15))
    assert program is None and lowerings <= 2
    program, _ = _count_lowerings(*_relu_boot(num_levels=16))
    assert program.bootstrap_targets
    assert set(program.bootstrap_targets) == {16}


def _ir_text(module) -> str:
    """Printed IR with value names renumbered in order of appearance."""
    names: dict[str, str] = {}
    return re.sub(r"%[A-Za-z_]+_\d+",
                  lambda m: names.setdefault(m.group(0), f"%v{len(names)}"),
                  print_module(module))


def test_lowering_leaves_its_sihe_input_untouched():
    proto, options = _residual()
    captured = []
    real = levels.lower_to_ckks

    def capturing(sihe_module, *args, **kwargs):
        # the driver's pass rebinds its module's tables to the result
        captured.append(levels.shallow_copy(sihe_module))
        return real(sihe_module, *args, **kwargs)

    with mock.patch.object(levels, "lower_to_ckks", capturing):
        program = ACECompiler(proto, options).compile()
    sihe = captured[0]
    fn = sihe.main()

    def snapshot():
        return ([(op.opcode, [o.id for o in op.operands],
                  [(r.id, dict(r.meta)) for r in op.results],
                  dict(op.attrs)) for op in fn.body],
                sorted(sihe.constants), sorted(sihe.functions))

    before = snapshot()
    moduli = _chain(program)
    first, _ = real(sihe, moduli, program.scheme.scale, options)
    second, _ = real(sihe, moduli, program.scheme.scale, options)
    assert snapshot() == before
    assert _ir_text(first) == _ir_text(second)
