"""Global level/bootstrap re-planning on optimized IR (repro.passes.levels).

Unit tests drive the analyses over hand-built CKKS DAGs (where every
rescale/bootstrap position is known exactly); the end-to-end tests
compile a bootstrap-deep ResNet-lite at every opt level and check the
replanner's contract: no refresh target above its region's measured
need, bounded fixpoint, and bit-identical decrypted outputs on the
noiseless simulator.  The fitting lowering (``lower_to_ckks``) is checked
on real prime chains: no slack, few lowerings on a chain that is too
short, and an untouched SIHE input.
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
from repro.passes.cost import CostModel
from repro.passes.levels import (
    _global_relin_placement,
    _skip_pays,
    bootstrap_targets,
    clone_function,
    consumed_need,
    plan_bootstraps,
    replan_relins,
    summarize_levels_stats,
)
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


def _table():
    return CostModel(poly_degree=2 * SLOTS)


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
# plan_bootstraps: skip / retarget / keep decisions
# ---------------------------------------------------------------------------

class TestPlanBootstraps:
    def test_retargets_overprovisioned_refresh(self):
        # lowering guessed target 10; the optimized region only needs 4
        fn, x = _make_fn(3)
        v = _boot(fn, x, target=10)
        for _ in range(4):
            v = _unit(fn, v)
        fn.returns = [v]
        plan, rows = plan_bootstraps(fn, _table(), max_level=10,
                                     moduli=_moduli(10))
        assert plan == {0: {"target": 4}}
        assert rows[0]["decision"] == "retarget"
        assert rows[0]["need"] == 4

    def test_skips_refresh_whose_budget_covers_region(self):
        # entering at level 10 with a 2-unit region: the refresh is dead
        # weight and the cost gate agrees (six small ops vs one refresh)
        fn, x = _make_fn(10)
        v = _boot(fn, x, target=8)
        for _ in range(2):
            v = _unit(fn, v)
        fn.returns = [v]
        plan, rows = plan_bootstraps(fn, _table(), max_level=10,
                                     moduli=_moduli(10))
        assert plan == {0: {"skip": True}}
        assert rows[0]["decision"] == "skip"

    def test_keeps_already_minimal_placement(self):
        fn, x = _make_fn(1)
        v = _boot(fn, x, target=4)
        for _ in range(4):
            v = _unit(fn, v)
        fn.returns = [v]
        plan, rows = plan_bootstraps(fn, _table(), max_level=10,
                                     moduli=_moduli(10))
        assert plan == {}
        assert rows[0]["decision"] == "keep"

    def test_skip_gate_refuses_rotation_heavy_region(self):
        # keeping hundreds of rotations 18 levels deeper costs more than
        # the refresh it would delete; an empty region always pays
        table = CostModel(poly_degree=2 ** 14)
        fn, x = _make_fn(20)
        _boot(fn, x, target=2)
        boot_op = fn.body[0]
        rotations = []
        for _ in range(200):
            r = Value(CipherType(SLOTS), "")
            r.meta = {"scale": DELTA, "level": 2}
            rotations.append(Op("ckks.rotate", [x], [r], {"steps": 1}))
        assert not _skip_pays(table, boot_op, rotations, want=2, deeper=18)
        assert _skip_pays(table, boot_op, [], want=2, deeper=18)


# ---------------------------------------------------------------------------
# whole-DAG relinearisation placement
# ---------------------------------------------------------------------------

class TestRelinPlacement:
    def _add_tree_fn(self):
        """Four distinct 3-part products folded by an add tree, each
        eagerly relinearised the way a per-region lowering would."""
        fn, x = _make_fn(6)
        tips = []
        for i in range(4):
            rot = _emit(fn, "ckks.rotate", [x], {"steps": i + 1}, DELTA, 6)
            prod = _emit(fn, "ckks.mul", [x, rot], {}, DELTA * DELTA, 6,
                         Cipher3Type(SLOTS))
            tips.append(_emit(fn, "ckks.relin", [prod], {},
                              DELTA * DELTA, 6))
        while len(tips) > 1:
            tips = [
                _emit(fn, "ckks.add", [tips[i], tips[i + 1]], {},
                      DELTA * DELTA, 6)
                for i in range(0, len(tips), 2)
            ]
        fn.returns = [tips[0]]
        return fn

    def test_merges_relins_across_add_tree(self):
        fn = self._add_tree_fn()
        assert fn.op_count("ckks.relin") == 4
        inserted = _global_relin_placement(fn)
        assert inserted == 1
        assert fn.op_count("ckks.relin") == 1
        assert isinstance(fn.returns[0].type, CipherType)
        # adds were retyped to carry three parts up to the single relin
        add_results = [op.results[0] for op in fn.body
                       if op.opcode == "ckks.add"]
        assert all(isinstance(r.type, Cipher3Type) for r in add_results)

    def test_replan_relins_adopts_when_cheaper(self):
        fn = self._add_tree_fn()
        row = replan_relins(fn, _table())
        assert row["adopted"]
        assert row["relins_after"] == 1
        assert row["cost_after"] < row["cost_before"]
        assert fn.op_count("ckks.relin") == 1


# ---------------------------------------------------------------------------
# cloning and stats plumbing
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


def test_summarize_levels_stats_disabled_and_deltas():
    assert summarize_levels_stats(None) == {"enabled": False}
    out = summarize_levels_stats({
        "enabled": True, "rounds": [{}, {}],
        "bootstraps_before": 4, "bootstraps_after": 3,
        "cost_before": 10.0, "cost_after": 8.0,
    })
    assert out["rounds_run"] == 2
    assert out["bootstraps_removed"] == 1
    assert out["cost_reduction"] == pytest.approx(0.2)


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
    params = program.options.exact_params
    if params is not None:
        return [float(q) for q in params.moduli]
    scheme = program.scheme
    return ([2.0 ** scheme.first_prime_bits]
            + [2.0 ** scheme.scale_bits] * scheme.num_levels)


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
        stats = p2.stats["levels"]
        assert stats["enabled"]
        assert stats["rounds_run"] <= 3
        assert stats["cost_after"] <= stats["cost_before"]
        before, after = stats["targets_before"], stats["targets_after"]
        assert len(after) <= len(before)
        assert after and not _slack(p2)
        assert bootstrap_targets(p2.module.main()) == after
        # the replanner only ever shrinks the refresh budget vs opt 0
        assert max(p2.bootstrap_targets) <= max(p0.bootstrap_targets)

    def test_replanner_off_below_opt2(self, programs):
        for level in (0, 1):
            _, program = programs[level]
            assert program.stats["levels"] == {"enabled": False}

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

    def test_parallel_jobs_bit_identical(self, programs):
        _, program = programs[2]
        rng = np.random.default_rng(1)
        img = rng.normal(size=(1, 1, 8, 8)) * 0.5
        seq = program.run(
            program.make_sim_backend(inject_noise=False, seed=0), img,
            jobs=1)[0]
        par = program.run(
            program.make_sim_backend(inject_noise=False, seed=0), img,
            jobs=4)[0]
        assert np.array_equal(seq, par)

    def test_env_jobs_and_kernel_selection(self, programs, monkeypatch):
        # the replanned program under the environment the CI matrix
        # exercises: REPRO_JOBS=4 plus the numba kernels when available
        _, program = programs[2]
        rng = np.random.default_rng(2)
        img = rng.normal(size=(1, 1, 8, 8)) * 0.5
        base = program.run(
            program.make_sim_backend(inject_noise=False, seed=0), img)[0]
        monkeypatch.setenv("REPRO_JOBS", "4")
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
    when the layout search and the refresh rounds both propose."""
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
