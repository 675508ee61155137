"""Algebraic op-reduction optimizer for the SIHE and CKKS IRs.

The mid-end of the compiler: after each lowering stage the driver runs
this module's rewrites to execute *fewer* operations — key-switch-bearing
ops (relin, rotate, conjugate) dominate runtime (see
``BENCH_micro_ckks.json``), so every merged rotation or deferred
relinearisation is a direct latency win.

Rewrites are tiered by bit-exactness so ``--opt-level`` has crisp
semantics:

* **level 0** — raw lowering output; nothing runs (not even CSE).
* **level 1** — rewrites that are bit-identical on every backend:
  constant-payload dedup, hash-consing CSE (with commutative operand
  canonicalisation), rotate-by-zero folding, modswitch composition, DCE
  and constant GC.  Identical ops produce identical ciphertexts on the
  exact backend, and the sim backend's noise is a pure function of op
  inputs, so merging duplicates cannot change any bit of the output.
* **level 2** (default) — adds rewrites that are mathematically
  equivalent but take a *different* path through the noise: rotation
  composition (``rotate(rotate(x,a),b) -> rotate(x,a+b)``), lazy
  relinearisation (defer ``relin`` past additions and plaintext
  multiplies so a sum of degree-2 products relinearises once), and
  rescale sinking (``add(rescale(u), rescale(v)) -> rescale(add(u,v))``).
  These are bit-identical on a noiseless ``SimBackend`` (the
  differential-fuzz oracle) and equivalent up to key-switch/rounding
  noise on the exact backend.

Every rewrite is gated by the per-op costs of
:class:`repro.passes.cost.CostModel` and fires only when the
estimated saving is positive; the IR verifier re-checks the module after
each pass (the driver's ``PassManager`` default).  Per-pass op deltas are
appended to ``context["opt_stats"]`` and surface as
``program.stats["opt"]`` (and ``repro compile --explain``).
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from repro.ir.core import Function, Module, Op, Value
from repro.ir.rewrite import Rewrite, RewriteTally, UseIndex, apply_patterns
from repro.ir.types import Cipher3Type, CipherType, PlainType
from repro.passes.common import (
    cse_function as _plain_cse,
    collect_constants,
    dce_function,
    _attr_key,
)
from repro.passes.cost import CostModel

#: opcodes that perform a key switch — the headline cost metric.
#: ``vector.roll`` is cleartext at its own level but lowers 1:1 to a
#: rotation, so counting it keeps the metric continuous across stages.
KEY_SWITCH_OPCODES = ("ckks.relin", "ckks.rotate", "ckks.conjugate",
                      "sihe.rotate", "vector.roll")

#: rotation-shaped ops sharing the ``steps`` attribute, per stage
_ROTATE_OPCODES = ("ckks.rotate", "sihe.rotate", "vector.roll")

#: binary ops whose operands commute bitwise on both backends (modular
#: and IEEE add/mul are commutative); ``sub`` is deliberately absent
_COMMUTATIVE = {"ckks.add", "ckks.mul", "sihe.add", "sihe.mul",
                "vector.add", "vector.mul"}

_SCALE_RTOL = 1e-6

#: attrs that annotate provenance, not semantics — two ops differing
#: only in these compute the same ciphertext, so CSE must ignore them
#: ("region" labels the Figure-6 breakdown, "hint" the originating
#: bootstrap-hint index, "role" marks lowering-internal helper ops)
_DIAGNOSTIC_ATTRS = ("region", "hint", "role")


# ---------------------------------------------------------------------------
# counters (stats rows)
# ---------------------------------------------------------------------------

def key_switch_count(module: Module) -> int:
    """Key-switch-bearing ops in the module (the headline number)."""
    total = 0
    for fn in module.functions.values():
        for op in fn.body:
            if op.opcode in KEY_SWITCH_OPCODES:
                total += 1
    return total


def bootstrap_count(module: Module) -> int:
    """Refresh ops in the module."""
    return sum(fn.op_count("ckks.bootstrap")
               for fn in module.functions.values())


def _snapshot(module: Module) -> dict:
    """The stats-row counters, from one scan of the module.

    ``level_span`` is the levels spanned by the scale-management plan (0
    when unannotated).  It alone is dishonest about bootstrap wins: it
    measures max-minus-min over *all* value levels, so a program
    entering at the chain top reports the same span whether its
    refreshes re-raise to the top or to a fitted minimal target.
    ``post_refresh_span`` therefore measures, when refreshes exist, from
    the highest ``target_level`` down to the lowest level reached — the
    depth the plan actually consumes after a refresh.
    """
    ops = key_switches = bootstraps = 0
    levels: list[int] = []
    targets: list[int] = []
    for fn in module.functions.values():
        ops += len(fn.body)
        values = list(fn.params)
        for op in fn.body:
            values += op.results
            if op.opcode in KEY_SWITCH_OPCODES:
                key_switches += 1
            elif op.opcode == "ckks.bootstrap":
                bootstraps += 1
                if op.attrs.get("target_level") is not None:
                    targets.append(op.attrs["target_level"])
        levels += [v.meta["level"] for v in values
                   if v.meta and "level" in v.meta]
    low = min(levels, default=0)
    span = max(levels) - low + 1 if levels else 0
    return {
        "ops": ops,
        "key_switches": key_switches,
        "level_span": span,
        "bootstraps": bootstraps,
        "post_refresh_span": (max(max(targets) - low + 1, 0) if targets
                              else span),
    }


# ---------------------------------------------------------------------------
# level-1 rewrites (bit-exact on every backend)
# ---------------------------------------------------------------------------

def dedup_constant_payloads(module: Module) -> int:
    """Merge module constants with byte-identical payloads.

    ``Module.add_constant`` gives identical arrays distinct names (one
    per call site), which blocks CSE from merging the ops that load
    them; canonicalising the names first lets CSE collapse the loads
    and the GC drop the duplicate storage.
    """
    canonical: dict[tuple, str] = {}
    rename: dict[str, str] = {}
    for name, arr in module.constants.items():
        key = (arr.dtype.str, arr.shape, module.constant_digest(name))
        keep = canonical.setdefault(key, name)
        # a digest hit is only a candidate: merge on equal content alone
        if keep != name and np.array_equal(arr, module.constants[keep]):
            rename[name] = keep
    if not rename:
        return 0
    for fn in module.functions.values():
        for op in fn.body:
            for attr in ("const_name", "mask_const"):
                target = rename.get(op.attrs.get(attr))
                if target is not None:
                    op.attrs[attr] = target
    for name in rename:
        del module.constants[name]
    return len(rename)


def cse_function(fn: Function) -> int:
    """Hash-consing CSE with commutative operand canonicalisation.

    Extends :func:`repro.passes.common.cse_function`: for commutative
    ops whose operands are both ciphertexts the key sorts the operand
    ids, so ``add(a, b)`` and ``add(b, a)`` collapse to one op (the
    operands themselves are left in place — only the key is canonical).
    """
    seen: dict[tuple, list] = {}
    replace: dict[int, Value] = {}
    new_body = []
    removed = 0
    for op in fn.body:
        operands = [replace.get(o.id, o) for o in op.operands]
        op.operands = operands
        ids = tuple(o.id for o in operands)
        if (op.opcode in _COMMUTATIVE and len(operands) == 2
                and all(isinstance(o.type, (CipherType, Cipher3Type))
                        for o in operands)):
            ids = tuple(sorted(ids))
        key = (
            op.opcode,
            ids,
            _attr_key({k: v for k, v in op.attrs.items()
                       if k not in _DIAGNOSTIC_ATTRS}),
        )
        if op.opcode.endswith(".constant"):
            key = (op.opcode, (), _attr_key(op.attrs.get("const_name")))
        prior = seen.get(key)
        if prior is not None:
            for old_r, new_r in zip(op.results, prior):
                replace[old_r.id] = new_r
            removed += 1
            continue
        seen[key] = op.results
        new_body.append(op)
    fn.body = new_body
    fn.returns = [replace.get(v.id, v) for v in fn.returns]
    return removed


def _fresh(type_, name: str, meta: dict) -> Value:
    value = Value(type_, name=name)
    value.meta = dict(meta)
    return value


def _match_zero_rotation(table, op: Op, index: UseIndex):
    if op.attrs.get("steps", 0) != 0:
        return None
    return Rewrite([], op.operands[0], [op])


def fold_zero_rotations(fn: Function,
                        tally: RewriteTally | None = None) -> int:
    """Forward ``rotate(x, 0)`` to its operand (a rotation by zero steps
    is the identity on both backends — no key switch, no noise)."""
    return _apply("rotate-fold", fn, None, tally)


def _match_modswitch_pair(table, op: Op, index: UseIndex):
    inner = op.operands[0].producer
    if (inner is None or inner.opcode != "ckks.modswitch"
            or index.count(inner.result) != 1):
        return None
    attrs = dict(op.attrs)
    attrs["levels"] = op.attrs.get("levels", 1) + inner.attrs.get("levels", 1)
    result = _fresh(op.result.type, f"{op.result.name}_ms", op.result.meta)
    return Rewrite([Op("ckks.modswitch", [inner.operands[0]], [result],
                       attrs)], result, [op, inner])


def compose_modswitches(fn: Function,
                        tally: RewriteTally | None = None) -> int:
    """``modswitch(modswitch(x, a), b) -> modswitch(x, a+b)`` when the
    inner modswitch has no other consumer.  Dropping limbs is exact, so
    the composition is bit-identical on every backend."""
    return _apply("modswitch-compose", fn, None, tally)


# ---------------------------------------------------------------------------
# level-2 rewrites (equivalent up to noise path)
# ---------------------------------------------------------------------------

def _match_rotation_pair(table: CostModel, op: Op, index: UseIndex):
    inner = op.operands[0].producer
    if (inner is None or inner.opcode != op.opcode
            or index.count(inner.result) != 1):
        return None
    if table.op_cost(inner) <= 0:
        return None  # cost table says the inner rotate is free
    total = op.attrs.get("steps", 0) + inner.attrs.get("steps", 0)
    if total == 0:
        return Rewrite([], inner.operands[0], [op, inner])
    attrs = dict(op.attrs)
    attrs["steps"] = total
    result = _fresh(op.result.type, f"{op.result.name}_rot", op.result.meta)
    return Rewrite([Op(op.opcode, [inner.operands[0]], [result], attrs)],
                   result, [op, inner])


def compose_rotations(fn: Function, table: CostModel,
                      tally: RewriteTally | None = None) -> int:
    """``rotate(rotate(x, a), b) -> rotate(x, a+b)`` for single-use inner
    rotations — one key switch instead of two.  The composed step's
    rotation key is provided by the post-opt rotation-step recompute
    (keys are stored by Galois element, so any integer step resolves).
    A chain composing to zero forwards the original operand."""
    return _apply("rotate-compose", fn, table, tally)


def _single_use_relin(value: Value, index: UseIndex) -> Op | None:
    producer = value.producer
    if (producer is not None and producer.opcode == "ckks.relin"
            and index.count(value) == 1):
        return producer
    return None


def _is_defer_candidate(value: Value, index: UseIndex) -> bool:
    """Will lazy relin eventually turn ``value`` into a relin result?"""
    producer = value.producer
    if producer is None:
        return False
    if producer.opcode == "ckks.relin":
        return True
    if producer.opcode in ("ckks.rescale", "ckks.modswitch"):
        return _single_use_relin(producer.operands[0], index) is not None
    return (producer.opcode == "ckks.mul"
            and isinstance(producer.operands[1].type, PlainType)
            and _single_use_relin(producer.operands[0], index) is not None)


def _defer_pays(index: UseIndex, op: Op, table: CostModel) -> bool:
    """Sinking a relin below a plain-multiply costs one extra ciphertext
    part; it pays only when a downstream add can then merge two relins
    into one key switch.  Checks both the enabling structure and the
    cost table's relin-vs-extra-part comparison.

    The look-ahead reads the consumers of ``op`` from the pass's
    :class:`~repro.ir.rewrite.UseIndex`, which is built once per pass and
    updated in place by each rewrite — no ``fn.uses()`` rebuild."""
    limbs = table.limbs_of(op.results[0])
    if table.key_switch_cost(limbs) <= table.extra_part_cost(limbs):
        return False
    for consumer in index.users(op.result):
        if consumer.opcode not in ("ckks.add", "ckks.sub"):
            continue
        other = (consumer.operands[1] if consumer.operands[0] is op.result
                 else consumer.operands[0])
        if _is_defer_candidate(other, index):
            return True
    return False


def _relin_of(op: Op, operand: Value, name: str, meta: dict) -> tuple:
    """``(red, relin_op)``: a relin of ``operand`` tagged with ``op``'s
    region, its result typed as a two-part ciphertext."""
    red = _fresh(CipherType(operand.type.slots), name, meta)
    return red, Op("ckks.relin", [operand], [red],
                   {"region": op.attrs.get("region")})


def _match_lazy_relin(table: CostModel, op: Op, index: UseIndex):
    """Patterns R, B, A and C of :func:`lazy_relinearize`, rooted at the
    consuming rescale/modswitch, plain multiply or add/sub."""
    meta = op.result.meta
    name = op.result.name
    if op.opcode in ("ckks.rescale", "ckks.modswitch"):
        # pattern R
        relin = _single_use_relin(op.operands[0], index)
        if relin is None:
            return None
        limbs = table.limbs_of(op.operands[0])
        gain = (table.key_switch_cost(limbs)
                - table.key_switch_cost(max(limbs - 1, 1)))
        if op.opcode == "ckks.rescale":
            gain -= table.op_seconds("rescale", limbs) * 0.5
        if gain <= 0:
            return None
        u = relin.operands[0]
        inner3 = _fresh(Cipher3Type(u.type.slots), f"{name}_d3", meta)
        red, relin_op = _relin_of(op, inner3, f"{name}_lr", meta)
        return Rewrite([Op(op.opcode, [u], [inner3], dict(op.attrs)),
                        relin_op], red, [op, relin])
    if op.opcode == "ckks.mul":
        # pattern B
        if not isinstance(op.operands[1].type, PlainType):
            return None
        relin = _single_use_relin(op.operands[0], index)
        if relin is None or not _defer_pays(index, op, table):
            return None
        u = relin.operands[0]
        mul3 = _fresh(Cipher3Type(u.type.slots), f"{name}_m3", meta)
        red, relin_op = _relin_of(op, mul3, f"{name}_lr", meta)
        return Rewrite([Op("ckks.mul", [u, op.operands[1]], [mul3],
                           dict(op.attrs)), relin_op], red, [op, relin])
    a, b = op.operands
    ra = _single_use_relin(a, index)
    rb = _single_use_relin(b, index)
    if ra is not None and rb is not None:
        # pattern A
        u, v = ra.operands[0], rb.operands[0]
        grouped = _fresh(Cipher3Type(u.type.slots), f"{name}_g3", meta)
        red, relin_op = _relin_of(op, grouped, f"{name}_lr", meta)
        return Rewrite([Op(op.opcode, [u, v], [grouped], dict(op.attrs)),
                        relin_op], red, [op, ra, rb])
    if op.opcode != "ckks.add" or (ra is None) == (rb is None):
        return None
    # pattern C: reassociate through a single-use inner add
    relin = ra if ra is not None else rb
    other = b if ra is not None else a
    inner = other.producer
    if (inner is None or inner.opcode != "ckks.add"
            or index.count(other) != 1):
        return None
    inner_relins = [(i, _single_use_relin(operand, index))
                    for i, operand in enumerate(inner.operands)]
    inner_relins = [(i, r) for i, r in inner_relins
                    if r is not None and r is not relin]
    if len(inner_relins) != 1:
        return None
    i, inner_relin = inner_relins[0]
    x = inner.operands[1 - i]
    u, v = inner_relin.operands[0], relin.operands[0]
    grouped = _fresh(Cipher3Type(u.type.slots), f"{name}_g3", meta)
    red, relin_op = _relin_of(op, grouped, f"{name}_lr", meta)
    out = _fresh(op.result.type, f"{name}_ra", meta)
    return Rewrite([Op("ckks.add", [u, v], [grouped], dict(op.attrs)),
                    relin_op,
                    Op("ckks.add", [x, red], [out], dict(op.attrs))],
                   out, [op, relin, inner, inner_relin])


def lazy_relinearize(fn: Function, table: CostModel,
                     tally: RewriteTally | None = None) -> int:
    """Defer relinearisations past additions and plaintext multiplies.

    Four peepholes, run to fixpoint (each fires only when the consumed
    relins have no other users, so nothing is recomputed):

    * **A** ``add/sub(relin(u), relin(v)) -> relin(add/sub(u, v))`` —
      two key switches become one; the addition runs on three parts.
    * **B** ``mul(relin(u), plain) -> relin(mul(u, plain))`` — an
      enabler: sinks the relin below the multiply so pattern A can merge
      it with a sibling; fires only when :func:`_defer_pays`.
    * **C** ``add(add(x, relin(u)), relin(v)) -> add(x, relin(add(u, v)))``
      — reassociation for add chains that mix non-relin terms.
    * **R** ``rescale/modswitch(relin(u)) -> relin(rescale/modswitch(u))``
      — commutes the relin below scale management, so the key switch
      runs at one fewer limb (EVA's relin-after-rescale) *and* the relin
      becomes visible to patterns A-C across the downstream adds.

    Replacement results carry the old results' types and meta, so
    downstream ops, the verifier, and the runtime plan check are all
    untouched.  The degree-3 values created here are consumed only by
    the new relins; :func:`relinearize_for_legality` enforces that
    invariant for everything else.
    """
    return _apply("lazy-relin", fn, table, tally)


def relinearize_for_legality(fn: Function) -> int:
    """Insert the relinearisations degree-3 values legally require.

    A ``Cipher3`` may flow through part-wise ops (add/sub with another
    Cipher3, neg, plaintext mul, rescale, modswitch, upscale) but must
    be relinearised before a rotation, conjugation, bootstrap, a
    cipher-cipher multiply, a mixed-degree addition, or a function
    return.  Inserted relins are cached so each value pays one key
    switch no matter how many illegal consumers it has.  A final retype
    sweep re-infers result types (a fixed degree can flip a downstream
    ``relin`` into a no-op, which is then forwarded)."""
    from repro.ir.registry import OPS

    inserted = 0
    cache: dict[int, Value] = {}
    new_body: list[Op] = []

    def relined(operand: Value) -> Value:
        nonlocal inserted
        red = cache.get(operand.id)
        if red is None:
            red = _fresh(CipherType(operand.type.slots),
                         f"{operand.name}_relin", operand.meta)
            producer = operand.producer
            region = producer.attrs.get("region") if producer else None
            new_body.append(Op("ckks.relin", [operand], [red],
                               {"region": region}))
            cache[operand.id] = red
            inserted += 1
        return red

    for op in fn.body:
        for i, operand in enumerate(op.operands):
            if not isinstance(operand.type, Cipher3Type):
                continue
            if op.opcode in ("ckks.rotate", "ckks.conjugate",
                             "ckks.bootstrap"):
                illegal = True
            elif op.opcode == "ckks.mul":
                illegal = isinstance(op.operands[1].type,
                                     (CipherType, Cipher3Type))
            elif op.opcode in ("ckks.add", "ckks.sub"):
                other = op.operands[1 - i]
                illegal = not isinstance(other.type, Cipher3Type)
            else:
                illegal = False
            if illegal:
                op.operands[i] = relined(operand)
        new_body.append(op)
    fn.body = new_body  # relined() appends any further relins here
    for i, value in enumerate(fn.returns):
        if isinstance(value.type, Cipher3Type):
            fn.returns[i] = relined(value)

    if not inserted:
        return 0
    # retype sweep: fixing an operand can narrow downstream result types
    # (Cipher3 -> Cipher), which can in turn make a later relin a no-op
    keep = []
    index = UseIndex(fn)
    for op in fn.body:
        if (op.opcode == "ckks.relin"
                and isinstance(op.operands[0].type, CipherType)):
            index.replace_all_uses(op.result, op.operands[0])
            continue
        inferred = OPS.get(op.opcode).infer(
            [o.type for o in op.operands], op.attrs)
        for result, type_ in zip(op.results, inferred):
            if result.type != type_:
                result.type = type_
        keep.append(op)
    fn.body = keep
    return inserted


def _match_rescale_pair(table: CostModel, op: Op, index: UseIndex):
    producers = [operand.producer for operand in op.operands]
    if any(p is None or p.opcode != "ckks.rescale" for p in producers):
        return None
    if any(index.count(operand) != 1 for operand in op.operands):
        return None
    u, v = (p.operands[0] for p in producers)
    if not u.meta or not v.meta:
        return None
    if u.meta.get("level") != v.meta.get("level"):
        return None
    su, sv = u.meta.get("scale"), v.meta.get("scale")
    if su is None or sv is None or not math.isclose(
            su, sv, rel_tol=_SCALE_RTOL):
        return None
    limbs = table.limbs_of(u)
    add_delta = (table.op_seconds("add", limbs)
                 - table.op_seconds("add", max(limbs - 1, 1)))
    if table.op_seconds("rescale", limbs) <= add_delta:
        return None  # saved rescale would not pay for the wider add
    if type(u.type) is not type(v.type):
        return None
    merged = _fresh(u.type, f"{op.result.name}_pre", u.meta)
    out = _fresh(op.result.type, f"{op.result.name}_rs", op.result.meta)
    return Rewrite([Op(op.opcode, [u, v], [merged], dict(op.attrs)),
                    Op("ckks.rescale", [merged], [out],
                       {"region": op.attrs.get("region")})],
                   out, [op, *producers])


def sink_rescales(fn: Function, table: CostModel,
                  tally: RewriteTally | None = None) -> int:
    """``add/sub(rescale(u), rescale(v)) -> rescale(add/sub(u, v))``.

    Hoists the additions above the rescale so an add-tree of freshly
    rescaled products pays one rescale instead of one per leaf.  Legal
    only when both rescales are single-use and the pre-rescale operands
    agree on (scale, level) — checked from the scale-management meta, so
    the pattern skips hand-built IR without a plan."""
    return _apply("rescale-sink", fn, table, tally)


#: pass name -> (root opcodes, ``match(table, op, index)``).  The
#: production worklist and the tests' naive reference driver both run
#: these matchers, so they can only differ in *which* op they offer next.
PATTERNS = {
    "rotate-fold": (_ROTATE_OPCODES, _match_zero_rotation),
    "modswitch-compose": (("ckks.modswitch",), _match_modswitch_pair),
    "rotate-compose": (_ROTATE_OPCODES, _match_rotation_pair),
    "lazy-relin": (("ckks.rescale", "ckks.modswitch", "ckks.mul",
                    "ckks.add", "ckks.sub"), _match_lazy_relin),
    "rescale-sink": (("ckks.add", "ckks.sub"), _match_rescale_pair),
}


def _apply(name: str, fn: Function, table: CostModel | None,
           tally: RewriteTally | None) -> int:
    roots, match = PATTERNS[name]
    return apply_patterns(fn, roots, partial(match, table), name, tally)


# ---------------------------------------------------------------------------
# pass driver
# ---------------------------------------------------------------------------

def _for_each_function(module: Module, rewrite) -> int:
    return sum(rewrite(fn) for fn in module.functions.values())


def optimize_module(module: Module, stage: str, opt_level: int,
                    cost_model: CostModel | None = None,
                    context: dict | None = None) -> list[dict]:
    """Run the op-reduction pipeline for one lowering stage.

    ``stage`` is ``"vector"``, ``"sihe"`` or ``"ckks"`` (lazy relin and
    rescale sinking only exist at the CKKS level, where those ops live).
    Returns the per-pass stat rows; also appends them to
    ``context["opt_stats"]`` for the driver to surface as
    ``program.stats["opt"]``.
    """
    table = cost_model or CostModel()
    tally = RewriteTally()
    rows: list[dict] = []
    before = None  # each pass's "after" scan is the next one's "before"

    def each(rewrite, *args) -> int:
        return sum(rewrite(fn, *args, tally)
                   for fn in module.functions.values())

    def run(name: str, rewrite) -> None:
        nonlocal before
        if before is None:
            before = _snapshot(module)
        visited, start = tally.visited, time.perf_counter()
        rewrites = rewrite()
        for fn in module.functions.values():
            dce_function(fn)
        seconds = time.perf_counter() - start
        after = _snapshot(module)
        row = {"stage": stage, "pass": name, "rewrites": rewrites}
        for key in ("ops", "key_switches", "level_span", "bootstraps",
                    "post_refresh_span"):
            row[f"{key}_before"] = before[key]
            row[f"{key}_after"] = after[key]
        row["seconds"] = seconds
        row["visited"] = tally.visited - visited
        rows.append(row)
        before = after

    if opt_level >= 1:
        run("const-dedup", lambda: dedup_constant_payloads(module))
        run("cse", lambda: _for_each_function(module, cse_function))
        run("rotate-fold", lambda: each(fold_zero_rotations))
        if stage == "ckks":
            run("modswitch-compose", lambda: each(compose_modswitches))
    if opt_level >= 2:
        run("rotate-compose", lambda: each(compose_rotations, table))
        if stage == "ckks":
            run("lazy-relin", lambda: each(lambda fn, tally: (
                lazy_relinearize(fn, table, tally)
                + relinearize_for_legality(fn))))
            run("rescale-sink", lambda: each(sink_rescales, table))
        run("cleanup", lambda: (
            _for_each_function(module, cse_function)
            + collect_constants(module)))
    if context is not None and rows:
        context.setdefault("opt_stats", []).extend(rows)
    return rows


def make_opt_pass(stage: str, opt_level: int):
    """A ``PassManager``-compatible runner for one stage's pipeline.

    Reads an optional calibrated :class:`CostModel` from
    ``context["cost_model"]`` (the driver installs one once the ring
    degree is selected)."""

    def run(module: Module, context: dict) -> None:
        optimize_module(module, stage, opt_level,
                        cost_model=context.get("cost_model"),
                        context=context)

    return run


def recompute_rotation_steps(module: Module, context: dict) -> None:
    """Re-derive the rotation-key working set from the *final* CKKS IR.

    Rotation composition changes which steps the program performs (and
    zero-folds remove some entirely); the key analysis must follow the
    optimizer or the generated keys would cover the pre-opt steps.  Runs
    at every opt level so the context is uniformly post-rewrite truth.
    """
    steps: set[int] = set()
    for fn in module.functions.values():
        for op in fn.body:
            if op.opcode == "ckks.rotate":
                step = op.attrs.get("steps", 0)
                if step:
                    steps.add(step)
    context["rotation_steps"] = sorted(steps)


def summarize_opt_stats(rows: list[dict], opt_level: int) -> dict:
    """Condense per-pass rows into ``program.stats["opt"]``.

    Raw stage counts are not comparable across stages (relins only
    exist after CKKS lowering; a vector op expands into many ckks ops),
    but each *row's* delta is measured within one stage, and
    rotation-shaped ops lower 1:1 (``vector.roll`` -> ``sihe.rotate``
    -> ``ckks.rotate``) — so the headline sums the per-row key-switch
    savings and states them against the final IR's count.  Op counts
    stay within the last stage, where the numbers are homogeneous.
    """
    summary = {"opt_level": opt_level, "rows": list(rows)}
    if rows:
        saved = sum(r["key_switches_before"] - r["key_switches_after"]
                    for r in rows)
        after = rows[-1]["key_switches_after"]
        summary["key_switches_before"] = after + saved
        summary["key_switches_after"] = after
        last_stage = [r for r in rows if r["stage"] == rows[-1]["stage"]]
        summary["ops_before"] = last_stage[0]["ops_before"]
        summary["ops_after"] = last_stage[-1]["ops_after"]
        summary["bootstraps"] = rows[-1].get("bootstraps_after", 0)
        summary["post_refresh_span"] = rows[-1].get(
            "post_refresh_span_after", 0)
    return summary
