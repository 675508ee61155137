"""The rewriting substrate (``repro.ir.rewrite``) and its users.

* the :class:`UseIndex` stays equal to a fresh ``fn.use_counts()`` /
  ``fn.uses()`` through any sequence of edits, and ``compact()`` writes
  the body a plain list model predicts;
* the production worklist and :func:`naive_apply_patterns` — "first
  match from the top, rebuild everything", the O(n^2) driver the passes
  used to be, kept here only as the reference — run the *same* matchers
  (``repro.passes.opt.PATTERNS``) and must print identical IR: on
  generated CKKS IR, and on every CKKS module the compiler optimizes
  for the benchmark workloads and ResNet-lite;
* worklist work is counted, not timed: ``visited`` grows linearly.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import ACECompiler, CompileOptions
from repro.errors import IRError
from repro.ir import (
    CipherType,
    IRBuilder,
    Module,
    PlainType,
    print_module,
    verify_module,
)
from repro.ir.core import Op, Value
from repro.ir.rewrite import Rewrite, RewriteTally, UseIndex, apply_patterns
from repro.nn import model_to_onnx, resnet_mini
from repro.onnx import load_model_bytes, model_to_bytes
from repro.passes import opt
from repro.passes.cost import CostModel
from repro.passes.levels import clone_module

TABLE = CostModel()
SLOTS = 8


# ---------------------------------------------------------------------------
# the reference driver (test-only)
# ---------------------------------------------------------------------------

class FreshUses:
    """``UseIndex``'s query surface, recomputed from the body."""

    def __init__(self, fn):
        self._fn = fn
        self._counts = fn.use_counts()
        self._uses = None

    def count(self, value):
        return self._counts.get(value.id, 0)

    def users(self, value):
        if self._uses is None:
            self._uses = self._fn.uses()
        return self._uses.get(value, [])


def naive_apply_patterns(fn, roots, match, pass_name, tally=None):
    """Fire the first match found scanning from op 0, rebuild every
    analysis, restart — until a whole scan finds nothing."""
    rewrites = 0
    while True:
        view = FreshUses(fn)
        for idx, op in enumerate(fn.body):
            rewrite = match(op, view) if op.opcode in roots else None
            if tally is not None and op.opcode in roots:
                tally.visited += 1
            if rewrite is None:
                continue
            fn.body[idx:idx] = rewrite.new_ops
            fn.replace_uses(op.result, rewrite.replacement)
            dead = {id(d) for d in rewrite.dead}
            fn.body = [o for o in fn.body if id(o) not in dead]
            rewrites += 1
            break
        else:
            return rewrites


def optimize_with(driver, module, cost_model=None):
    """``optimize_module`` at the CKKS stage, level 2, under ``driver``."""
    with mock.patch.object(opt, "apply_patterns", driver):
        rows = opt.optimize_module(module, "ckks", 2, cost_model=cost_model)
    verify_module(module)
    return print_module(module), [(r["pass"], r["rewrites"]) for r in rows]


def assert_drivers_agree(module, cost_model=None):
    naive = optimize_with(naive_apply_patterns, clone_module(module),
                          cost_model)
    fast = optimize_with(apply_patterns, clone_module(module), cost_model)
    assert fast == naive
    return dict(fast[1])


# ---------------------------------------------------------------------------
# generated CKKS IR
# ---------------------------------------------------------------------------

def random_ckks_module(rng: random.Random, motifs: int) -> Module:
    """A verifier-clean CKKS function built from the motifs the patterns
    look for: relinearised products (optionally rescaled or mod-switched
    — R — or scaled by a plaintext beside a sibling product — B), plain
    multiplies, adds/subs over mixed terms (A, C), sums
    of rescales, rotation chains that may sum to zero, modswitch chains.
    Operands favour recent values, so single-use chains and shared
    values both occur."""
    module = Module("m")
    b = IRBuilder.make_function(
        module, "main", [CipherType(SLOTS)] * 3 + [PlainType(SLOTS)],
        ["x", "y", "z", "p"])
    *ciphers, plain = b.function.params
    for value in ciphers:
        value.meta = {"level": 6, "scale": 2.0 ** 30}
    pool = list(ciphers)

    def pick():
        if rng.random() < 0.6:
            return pool[-rng.randint(1, min(3, len(pool)))]
        return rng.choice(pool)

    def emit(opcode, operands, meta, **attrs):
        out = b.emit(opcode, operands, attrs)
        out.meta = dict(meta)
        return out

    def lower(value, levels=1):
        meta = dict(value.meta)
        meta["level"] -= levels
        return meta

    for _ in range(motifs):
        kind = rng.choice(["prod", "prod", "prod_rs", "prod_ms", "prod_p",
                           "mulp",
                           "add", "add", "sub", "rescale", "rescaled_sum",
                           "modswitch", "rotate", "rotate"])
        a = pick()
        if kind.startswith("prod"):
            c = pick()
            meta = {"level": min(a.meta["level"], c.meta["level"]),
                    "scale": a.meta["scale"] * c.meta["scale"]}
            out = emit("ckks.relin", [emit("ckks.mul", [a, c], meta)], meta)
            if kind == "prod_rs":
                meta = lower(out)
                meta["scale"] /= 2.0 ** 30
                out = emit("ckks.rescale", [out], meta)
            elif kind == "prod_ms":
                out = emit("ckks.modswitch", [out], lower(out), levels=1)
            elif kind == "prod_p":  # B pays only next to a sibling relin
                other = emit("ckks.relin", [emit("ckks.mul", [c, a], meta)],
                             meta)
                out = emit("ckks.add", [emit("ckks.mul", [out, plain], meta),
                                        other], meta)
        elif kind == "mulp":
            out = emit("ckks.mul", [a, plain], a.meta)
        elif kind in ("add", "sub"):
            same = [v for v in pool[-6:] if v.meta == a.meta and v is not a]
            c = rng.choice(same) if same else pick()
            out = emit(f"ckks.{kind}", [a, c], a.meta)
        elif kind in ("rescale", "rescaled_sum"):
            meta = lower(a)
            meta["scale"] /= 2.0 ** 30
            out = emit("ckks.rescale", [a], meta)
            if kind == "rescaled_sum":
                same = [v for v in pool if v.meta == a.meta]
                other = emit("ckks.rescale", [rng.choice(same)], meta)
                out = emit("ckks.add", [out, other], meta)
        elif kind == "modswitch":
            levels = rng.randint(1, 2)
            out = emit("ckks.modswitch", [a], lower(a, levels), levels=levels)
        else:
            out = emit("ckks.rotate", [a], a.meta,
                       steps=rng.choice([-2, -1, 0, 0, 1, 2, 3]))
            if rng.random() < 0.5:
                out = emit("ckks.rotate", [out], a.meta,
                           steps=rng.choice([-2, -1, 0, 1, 2]))
        pool.append(out)
    total = pool[-1]
    for value in pool[-4:-1]:
        total = emit("ckks.add", [total, value], total.meta)
    b.ret([total])
    b.function.dce()
    verify_module(module)
    return module


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), motifs=st.integers(1, 40))
def test_worklist_matches_naive_on_generated_ir(seed, motifs):
    assert_drivers_agree(random_ckks_module(random.Random(seed), motifs))


def test_a_late_sibling_relin_requeues_the_plain_mul_before_it():
    """Pattern B's look-ahead reads *down* then back *up*: ``m`` does not
    pay until its sibling sum has merged into one relin — which happens
    at a later position, after ``m`` was popped and discarded.  The
    worklist must jump back to ``m``; the naive rescan gets there by
    restarting."""
    module = Module("m")
    b = IRBuilder.make_function(
        module, "main", [CipherType(SLOTS)] * 2 + [PlainType(SLOTS)],
        ["x", "y", "p"])
    x, y, p = b.function.params

    def product(a, c):
        return b.emit("ckks.relin", [b.emit("ckks.mul", [a, c])])

    m = b.emit("ckks.mul", [product(x, y), p])
    sibling = b.emit("ckks.add", [product(x, x), product(y, y)])
    b.ret([b.emit("ckks.add", [m, sibling])])
    rewrites = assert_drivers_agree(module)
    assert rewrites["lazy-relin"] == 3  # A on the sibling, B on m, A on top
    fn = clone_module(module).main()
    tally = RewriteTally()
    assert opt.lazy_relinearize(fn, TABLE, tally) == 3
    assert fn.op_count("ckks.relin") == 1
    roots = sum(op.opcode in ("ckks.mul", "ckks.add")
                for op in module.main().body)
    assert tally.visited > roots  # some op was visited twice


def test_generated_ir_exercises_every_pattern():
    """The generator is only a differential oracle if every pass fires
    on it somewhere, and lazy relin through each of A, B, C and R."""
    fired = dict.fromkeys(opt.PATTERNS, 0)
    suffixes = set()
    for seed in range(40):
        module = random_ckks_module(random.Random(seed), 40)
        for name, rewrites in assert_drivers_agree(module).items():
            if name in fired:
                fired[name] += rewrites
        fn = clone_module(module).main()
        opt.lazy_relinearize(fn, TABLE)
        suffixes |= {op.result.name.rsplit("_", 1)[-1] for op in fn.body}
    assert all(fired.values()), fired
    # d3 = pattern R, m3 = B, g3 = A or C, ra = C
    assert {"d3", "m3", "g3", "ra"} <= suffixes


# ---------------------------------------------------------------------------
# the compiler's own CKKS modules
# ---------------------------------------------------------------------------

def _workload(name):
    from benchmarks.e2e import workloads  # repo root: pytest's rootdir

    workload = workloads.get(name)
    return load_model_bytes(workload.model_bytes()), workload.options()


def _resnet_lite():
    model = resnet_mini(num_classes=4, in_channels=1, base_width=2,
                        input_size=8, blocks=1, seed=1)
    return (load_model_bytes(model_to_bytes(model_to_onnx(model))),
            CompileOptions(sign_iterations=3, poly_mode="off", opt_level=2))


@pytest.mark.parametrize("name", ["gemm_rot", "relu_boot", "resnet_compile",
                                  "serve_mix", "resnet_lite"])
def test_worklist_matches_naive_on_compiled_models(name):
    """Stop an ``--opt-level 2`` compile where it hands its first CKKS
    lowering (and calibrated cost model) to the optimizer, and optimize
    that module under both drivers."""
    proto, options = _resnet_lite() if name == "resnet_lite" \
        else _workload(name)
    assert options.opt_level == 2
    real = opt.optimize_module

    class Captured(Exception):
        pass

    def capturing(module, stage, opt_level, cost_model=None, context=None):
        if stage == "ckks":
            raise Captured(module, cost_model)
        return real(module, stage, opt_level, cost_model=cost_model,
                    context=context)

    with mock.patch.object(opt, "optimize_module", capturing), \
            pytest.raises(Captured) as caught:
        ACECompiler(proto, options).compile()
    rewrites = assert_drivers_agree(*caught.value.args)
    if name != "gemm_rot" and name != "serve_mix":  # Gemm-only: no relins
        assert rewrites["lazy-relin"] > 0


# ---------------------------------------------------------------------------
# the use index
# ---------------------------------------------------------------------------

def _defined_before(index, value, anchor):
    return value.producer is None or \
        index.key(value.producer) < index.key(anchor)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), edits=st.integers(0, 30))
def test_use_index_tracks_any_edit_sequence(seed, edits):
    rng = random.Random(seed)
    module = random_ckks_module(rng, 12)
    fn = module.main()
    index = UseIndex(fn)
    model = list(fn.body)  # the body a plain list would hold
    values = list(fn.params) + [r for op in fn.body for r in op.results]
    for _ in range(edits):
        if not model:
            break  # every op was erased: no anchor is left for an edit
        kind = rng.choice(["insert", "replace", "erase"])
        anchor = rng.choice(model)
        if kind == "insert":
            ciphers = [v for v in values
                       if isinstance(v.type, CipherType)
                       and (v.producer is None or v.producer in model)
                       and _defined_before(index, v, anchor)]
            new_ops = []
            for _ in range(rng.randint(1, 2)):
                out = Value(CipherType(SLOTS))
                new_ops.append(Op("ckks.add", [rng.choice(ciphers),
                                               rng.choice(ciphers)], [out]))
                ciphers.append(out)
                values.append(out)
            index.insert_before(anchor, new_ops)
            at = model.index(anchor)
            model[at:at] = new_ops
        elif kind == "replace":
            old = anchor.result
            earlier = [v for v in values
                       if v.type == old.type and v is not old
                       and (v.producer is None or v.producer in model)
                       and _defined_before(index, v, anchor)]
            if earlier:
                new = rng.choice(earlier)
                uses = index.count(old)
                assert index.replace_all_uses(old, new) == uses
                assert index.count(old) == 0
        else:
            unused = [op for op in model if index.count(op.result) == 0]
            if unused:
                index.erase(unused[0])
                model.remove(unused[0])
        # positions stay totally ordered in body order
        keys = [index.key(op) for op in model]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
    counts = {v.id: index.count(v) for v in values if index.count(v)}
    users = {v: sorted(map(id, index.users(v)))
             for v in values if index.users(v)}
    index.compact()
    assert [id(op) for op in fn.body] == [id(op) for op in model]
    verify_module(module)
    assert counts == fn.use_counts()
    assert users == {v: sorted(map(id, ops))
                     for v, ops in fn.uses().items()}


def test_erase_refuses_a_value_still_in_use():
    module = random_ckks_module(random.Random(0), 6)
    fn = module.main()
    used = next(op for op in fn.body if op.result in fn.uses())
    with pytest.raises(IRError, match="still has"):
        UseIndex(fn).erase(used)


def test_index_is_not_built_for_a_pass_without_candidates():
    module = random_ckks_module(random.Random(1), 10)
    fn = module.main()
    body = list(fn.body)
    with mock.patch.object(UseIndex, "_live") as build:
        assert apply_patterns(fn, ("ckks.bootstrap",),
                              lambda op, index: None, "none") == 0
        assert apply_patterns(fn, ("ckks.add",),
                              lambda op, index: None, "structural") == 0
    build.assert_not_called()
    assert fn.body == body


# ---------------------------------------------------------------------------
# termination and work
# ---------------------------------------------------------------------------

def test_cycling_patterns_raise_instead_of_truncating():
    """A matcher that always fires never reaches an empty queue: the
    guard names the pass rather than returning a half-rewritten body."""
    module = Module("m")
    b = IRBuilder.make_function(module, "main", [CipherType(SLOTS)], ["x"])
    b.ret([b.emit("ckks.neg", [b.function.params[0]])])

    def respawn(op, index):
        out = Value(op.result.type)
        return Rewrite([Op(op.opcode, list(op.operands), [out])], out, [op])

    with pytest.raises(IRError, match="spin-pass.*not at fixpoint"):
        apply_patterns(b.function, ("ckks.neg",), respawn, "spin-pass")


def _relin_chain(terms: int) -> Module:
    """sum_i relin(x * y) as a left-leaning add chain: 3 ops a term, and
    pattern A re-fires on every add once the one below it has merged."""
    module = Module("m")
    b = IRBuilder.make_function(module, "main", [CipherType(SLOTS)] * 2,
                                ["x", "y"])
    x, y = b.function.params
    total = b.emit("ckks.relin", [b.emit("ckks.mul", [x, y])])
    for _ in range(terms - 1):
        term = b.emit("ckks.relin", [b.emit("ckks.mul", [x, y])])
        total = b.emit("ckks.add", [total, term])
    b.ret([total])
    return module


def test_worklist_work_is_linear_in_ops_and_rewrites():
    work = []
    for ops in (250, 500, 1000):
        module = _relin_chain(ops // 3)
        fn = module.main()
        size = len(fn.body)
        tally = RewriteTally()
        rewrites = opt.lazy_relinearize(fn, TABLE, tally)
        verify_module(module)
        assert rewrites == ops // 3 - 1
        assert fn.op_count("ckks.relin") == 1
        assert tally.visited <= 3 * (size + rewrites)
        work.append(tally.visited)
    assert work[1] <= 2.3 * work[0] and work[2] <= 2.3 * work[1]
    # the reference driver really is quadratic on this shape
    naive = RewriteTally()
    roots, match = opt.PATTERNS["lazy-relin"]
    naive_apply_patterns(_relin_chain(250 // 3).main(), roots,
                         lambda op, view: match(TABLE, op, view),
                         "lazy-relin", naive)
    assert naive.visited > 10 * work[0]


# ---------------------------------------------------------------------------
# satellites: DCE sweep, constant digests, stats rows
# ---------------------------------------------------------------------------

def _fixpoint_dce(fn):
    """The two-pass-to-fixpoint DCE ``Function.dce`` used to be."""
    while True:
        used = {v.id for v in fn.returns}
        for op in fn.body:
            used.update(o.id for o in op.operands)
        keep = [op for op in fn.body
                if op.attrs.get("has_side_effects", False)
                or any(r.id in used for r in op.results)]
        if len(keep) == len(fn.body):
            return
        fn.body = keep


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_single_sweep_dce_removes_what_the_fixpoint_did(seed):
    rng = random.Random(seed)
    module = random_ckks_module(rng, 30)
    fn = module.main()
    # orphan whole chains: return an early value instead of the last
    fn.returns = [rng.choice(fn.body[:max(1, len(fn.body) // 3)]).result]
    if fn.body:
        rng.choice(fn.body).attrs["has_side_effects"] = True
    reference = clone_module(module)
    _fixpoint_dce(reference.main())
    removed = len(fn.body) - len(reference.main().body)
    assert fn.dce() == removed
    assert print_module(module) == print_module(reference)
    assert fn.dce() == 0


def test_constant_digest_is_memoised_per_stored_array():
    module = Module("m")
    module.constants["w"] = np.arange(6.0)
    digest = module.constant_digest("w")
    with mock.patch("hashlib.blake2b") as hasher:
        assert module.constant_digest("w") == digest  # no second hash
        assert clone_module(module).constant_digest("w") == digest
    hasher.assert_not_called()
    module.constants["w"] = np.arange(6.0) + 1  # rebound: memo dropped
    assert module.constant_digest("w") != digest
    del module.constants["w"]
    module.constants["w"] = np.arange(6.0)  # deleted, re-added
    assert module.constant_digest("w") == digest


def test_const_dedup_confirms_a_digest_hit_before_merging():
    module = Module("m")
    b = IRBuilder.make_function(module, "main", [], [])
    module.constants["a"] = np.arange(6.0)
    module.constants["b"] = np.arange(6.0) + 1  # same dtype and shape
    module.constants["c"] = np.arange(6.0)
    loads = [b.emit("vector.constant", [], {"const_name": n, "length": 6})
             for n in "abc"]
    b.ret([b.emit("vector.add", [b.emit("vector.add", loads[:2]),
                                 loads[2]])])
    with mock.patch.object(Module, "constant_digest", return_value=b"same"):
        assert opt.dedup_constant_payloads(module) == 1
    assert sorted(module.constants) == ["a", "b"]
    assert [op.attrs["const_name"] for op in b.function.body[:3]] == \
        ["a", "b", "a"]


def test_opt_rows_carry_seconds_and_visited():
    module = _relin_chain(20)
    rows = opt.optimize_module(module, "ckks", 2)
    assert all(row["seconds"] >= 0 and row["visited"] >= 0 for row in rows)
    by_pass = {row["pass"]: row for row in rows}
    assert by_pass["cse"]["visited"] == 0  # not a worklist pass
    assert by_pass["lazy-relin"]["visited"] > 0
    # each row's "before" is the previous row's "after": one scan a pass
    for prev, row in zip(rows, rows[1:]):
        for key in ("ops", "key_switches", "level_span", "bootstraps",
                    "post_refresh_span"):
            assert row[f"{key}_before"] == prev[f"{key}_after"]
