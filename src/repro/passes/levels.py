"""Global level & bootstrap re-planning on the *optimized* CKKS IR.

Bootstrap placement happens inside the ``sihe -> ckks`` lowering, which
runs *before* the op-reduction optimizer.  Its first guess at each
refresh target is the region's SIHE multiplicative depth, which cannot
see the scale-management units a real prime chain costs; after
optimization the program's true level consumption is a measurable
property of the final DAG, and a refresh is the most expensive operation
in the whole system: one deleted bootstrap dwarfs any key-switch win.

This module measures instead of guessing (in the spirit of Orion's
global bootstrap placement and CHET's whole-program costed planning):

* :func:`consumed_need` — a backward dataflow analysis computing, for
  every value of a CKKS DAG, how many levels must still be available
  below it (rescales consume one, modswitches consume their ``levels``
  attribute, a bootstrap input consumes nothing).  This replaces the
  lowering-time ``depth[v]`` estimate with ground truth.
* :func:`lower_to_ckks` — the one way a CKKS program is built from SIHE:
  lower with the first-guess targets, and while the result does not fit
  the chain, raise each short refresh's target to the measured need of
  its region and lower again.
* :func:`plan_bootstraps` — walks the DAG once, projecting post-replan
  levels forward, and proposes per-hint overrides: *skip* a refresh
  whose remaining budget now covers its region, or *retarget* it to the
  measured minimal need.  Every proposal is gated by the
  :class:`~repro.passes.cost.CostModel` (a skipped refresh must pay for
  the deeper — hence wider — region ops it leaves behind).
  It only proposes: the driver lowers each proposal through its one
  lowering (``ACECompiler._lower`` — :func:`lower_to_ckks` with the
  proposal as ``hint_plan``, each target a floor the fitting lowering
  may raise, then the CKKS optimizer and the verifier) and adopts it
  only when :func:`repro.passes.cost.cheaper` says its final CKKS IR is
  cheaper, for at most three rounds.  Re-lowering (rather than patching
  levels in place) keeps the scale plan exact against *real* prime
  chains, where shifting a region changes which primes its rescales
  divide by.
* :func:`replan_relins` — generalises the lazy-relinearisation
  peepholes to a whole-DAG placement: strip every ``ckks.relin`` and
  re-insert one per value at the latest legal frontier (rotation,
  conjugation, bootstrap, cipher-cipher multiply, mixed-degree addition
  or return), merging relins across whole add-trees no matter how the
  lowering froze its region boundaries.  Adopted only if the modeled
  cost improves (carrying three parts through long element-wise chains
  can lose; the peepholes' cost gates become one global comparison).

Per-round deltas surface as ``program.stats["levels"]`` and in
``repro compile --explain``.
"""

from __future__ import annotations

import math

from repro.errors import LoweringError
from repro.ir.core import Function, Module, Op, Value
from repro.ir.registry import OPS
from repro.ir.types import Cipher3Type, CipherType
from repro.passes.cost import CostModel, cheaper
from repro.passes.lowering.sihe_to_ckks import (
    SiheToCkksLowering,
    capacity_floors,
    fits_capacity,
)
from repro.passes.opt import cse_function

_CIPHERISH = (CipherType, Cipher3Type)


# ---------------------------------------------------------------------------
# IR cloning (candidate plans are built on copies, never in place)
# ---------------------------------------------------------------------------

def clone_function(fn: Function) -> Function:
    """Deep-copy a function: fresh values, remapped operands/returns."""
    mapping: dict[int, Value] = {}
    params = []
    for p in fn.params:
        new_p = Value(p.type, p.name)
        new_p.meta = dict(p.meta)
        mapping[p.id] = new_p
        params.append(new_p)
    out = Function(fn.name, params)
    for op in fn.body:
        operands = [mapping[o.id] for o in op.operands]
        results = []
        for r in op.results:
            new_r = Value(r.type, r.name)
            new_r.meta = dict(r.meta)
            mapping[r.id] = new_r
            results.append(new_r)
        out.append(Op(op.opcode, operands, results, dict(op.attrs)))
    out.returns = [mapping[v.id] for v in fn.returns]
    return out


def shallow_copy(module: Module) -> Module:
    """A module sharing ``module``'s functions and constant payloads, with
    its own tables: adding or replacing either leaves ``module`` as it
    was (what a lowering pass does to the module it is handed)."""
    return Module(module.name, dict(module.functions),
                  dict(module.constants),
                  {k: (dict(v) if isinstance(v, dict) else v)
                   for k, v in module.meta.items()})


def clone_module(module: Module) -> Module:
    """Copy a module; constant payloads are shared (they are immutable)."""
    out = shallow_copy(module)
    for name, fn in module.functions.items():
        out.functions[name] = clone_function(fn)
    return out


# ---------------------------------------------------------------------------
# dataflow analyses over the optimized DAG
# ---------------------------------------------------------------------------

def _scale_floor(scale: float, caps: list[float]) -> int:
    """Smallest level whose capacity strictly exceeds ``scale``.

    The backends refuse any value whose scale reaches the remaining
    modulus product (``NoiseBudgetExhausted``), and the lowering's lazy
    waterline legally parks Δ²-scale products un-rescaled — so a level
    plan must keep such values high enough on the chain even when no
    rescale ever consumes those levels.
    """
    for level, cap in enumerate(caps):
        if fits_capacity(scale, cap):
            return level
    return len(caps) - 1


def consumed_need(fn: Function,
                  moduli: list[float] | None = None) -> dict[int, int]:
    """Backward analysis: ``need[v.id]`` = levels that must remain
    available at ``v`` for the rest of the program to execute.

    A rescale consumes one level, a modswitch its ``levels`` attribute;
    a bootstrap refreshes, so its *input* needs nothing further.  On top
    of the consumption walk, every value's planned *scale* imposes a
    capacity floor (see :func:`_scale_floor`) — the lazy waterline keeps
    scales up to ~Δ² in flight, which must stay representable.  This is
    the ground-truth replacement for the lowering-time depth estimate:
    it includes every scale-alignment unit the lowering actually emitted
    and every op the optimizer actually removed.
    """
    caps = capacity_floors(moduli) if moduli else None

    def floor_of(value: Value) -> int:
        if caps is None or not value.meta:
            return 0
        scale = value.meta.get("scale")
        return _scale_floor(scale, caps) if scale is not None else 0

    need: dict[int, int] = {}
    for op in reversed(fn.body):
        out_need = max(
            (max(need.get(r.id, 0), floor_of(r)) for r in op.results),
            default=0,
        )
        if op.opcode == "ckks.rescale":
            in_need = out_need + 1
        elif op.opcode == "ckks.modswitch":
            in_need = out_need + op.attrs.get("levels", 1)
        elif op.opcode == "ckks.bootstrap":
            in_need = 0
        else:
            in_need = out_need
        for operand in op.operands:
            if isinstance(operand.type, _CIPHERISH):
                if in_need > need.get(operand.id, 0):
                    need[operand.id] = in_need
    return need


def plan_bootstraps(fn: Function, table: CostModel, max_level: int,
                    moduli: list[float] | None = None,
                    ) -> tuple[dict[int, dict], list[dict]]:
    """Propose per-hint overrides from the optimized DAG.

    One forward walk projects each value's post-replan level; at every
    ``ckks.bootstrap`` the projected entry budget and the measured
    region need decide between *skip* (budget covers the region;
    cost-gated against the deeper region ops it implies) and *retarget*
    (the optimized region needs less than its target).

    Returns ``(plan, rows)``: ``plan`` maps hint index to an override
    (empty = the current placement is already minimal), ``rows`` one
    diagnostic entry per bootstrap op.
    """
    need = consumed_need(fn, moduli)
    region_ops = _region_map(fn)
    proj: dict[int, int] = {}      # value id -> projected new level
    plan: dict[int, dict] = {}
    rows: list[dict] = []
    for p in fn.params:
        if isinstance(p.type, _CIPHERISH):
            proj[p.id] = p.meta.get("level", max_level)

    for op in fn.body:
        cipher_ins = [o for o in op.operands
                      if isinstance(o.type, _CIPHERISH) and o.id in proj]
        if op.opcode == "ckks.bootstrap":
            hint = op.attrs.get("hint")
            t_old = op.attrs.get("target_level", max_level)
            entry = proj.get(op.operands[0].id)
            region_need = need.get(op.result.id, 0)
            want = max(min(region_need, max_level), 1)
            row = {
                "hint": hint, "target": t_old, "need": region_need,
                "entry": entry, "decision": "keep",
            }
            if hint is None or entry is None:
                proj[op.result.id] = t_old
                rows.append(row)
                continue
            deeper = entry - want
            if entry >= want and _skip_pays(table, op, region_ops.get(
                    hint, []), want, deeper):
                plan[hint] = {"skip": True}
                row["decision"] = "skip"
                proj[op.result.id] = entry
            elif want < t_old:
                plan[hint] = {"target": want}
                row["decision"] = "retarget"
                proj[op.result.id] = want
            else:
                proj[op.result.id] = t_old
            rows.append(row)
            continue
        # projected level: merges take the minimum contributing budget;
        # rescale/modswitch consume what the current plan says
        if cipher_ins:
            base = min(proj[o.id] for o in cipher_ins)
            if op.opcode == "ckks.rescale":
                base -= 1
            elif op.opcode == "ckks.modswitch":
                base -= op.attrs.get("levels", 1)
            for r in op.results:
                if isinstance(r.type, _CIPHERISH):
                    proj[r.id] = base
    return plan, rows


def _region_map(fn: Function) -> dict[int, list[Op]]:
    """Map each bootstrap hint to the downstream ops its refresh feeds.

    Forward ownership propagation: a value produced from a refreshed
    value belongs to that refresh's region (first contributing hint
    wins).  The skip gate prices these ops ``deeper`` levels up the
    chain — the rent a deleted refresh keeps paying.
    """
    region: dict[int, int] = {}
    region_ops: dict[int, list[Op]] = {}
    for op in fn.body:
        if op.opcode == "ckks.bootstrap":
            hint = op.attrs.get("hint")
            if hint is not None:
                region[op.result.id] = hint
                region_ops.setdefault(hint, [])
            continue
        owner = None
        for operand in op.operands:
            if operand.id in region:
                owner = region[operand.id]
                break
        if owner is not None:
            for r in op.results:
                region[r.id] = owner
            region_ops.setdefault(owner, []).append(op)
    return region_ops


def _skip_pays(table: CostModel, boot: Op, ops: list[Op],
               want: int, deeper: int) -> bool:
    """Does deleting this refresh beat retargeting it to ``want``?

    Skipping saves the whole bootstrap (dominated by its fixed
    CtS/EvalMod/StC stages) but leaves the region's ops ``deeper``
    levels higher on the chain, i.e. wider; ``ops`` is the *previous*
    region rooted at the same hint — a proxy for the op mix that will
    ride on the preserved budget.
    """
    saved = table.op_seconds("bootstrap", want + 1)
    extra = 0.0
    if deeper > 0:
        for op in ops:
            extra += table.op_cost(op, limb_shift=deeper) - table.op_cost(op)
    return saved > extra


# ---------------------------------------------------------------------------
# whole-DAG relinearisation placement
# ---------------------------------------------------------------------------

def _global_relin_placement(fn: Function) -> int:
    """Strip every relin; re-insert one per value at the latest legal
    frontier.  Returns the number of relins inserted."""
    replace: dict[int, Value] = {}
    relined_cache: dict[int, Value] = {}
    new_body: list[Op] = []
    inserted = 0

    def relined(value: Value) -> Value:
        nonlocal inserted
        if not isinstance(value.type, Cipher3Type):
            return value
        red = relined_cache.get(value.id)
        if red is None:
            red = Value(CipherType(value.type.slots), f"{value.name}_relin")
            red.meta = dict(value.meta)
            producer = value.producer
            region = producer.attrs.get("region") if producer else None
            new_body.append(Op("ckks.relin", [value], [red],
                               {"region": region}))
            relined_cache[value.id] = red
            inserted += 1
        return red

    for op in fn.body:
        operands = [replace.get(o.id, o) for o in op.operands]
        if op.opcode == "ckks.relin":
            replace[op.result.id] = operands[0]
            continue
        for i, operand in enumerate(operands):
            if not isinstance(operand.type, Cipher3Type):
                continue
            if op.opcode in ("ckks.rotate", "ckks.conjugate",
                             "ckks.bootstrap"):
                operands[i] = relined(operand)
            elif op.opcode == "ckks.mul" and isinstance(
                    operands[1].type, _CIPHERISH):
                operands[i] = relined(operand)
            elif op.opcode in ("ckks.add", "ckks.sub"):
                if not isinstance(operands[1 - i].type, Cipher3Type):
                    operands[i] = relined(operand)
        op.operands = operands
        inferred = OPS.get(op.opcode).infer(
            [o.type for o in operands], op.attrs)
        for result, type_ in zip(op.results, inferred):
            if result.type != type_:
                result.type = type_
        new_body.append(op)
    fn.body = new_body  # relined() appended return-site relins here too
    fn.returns = [relined(replace.get(v.id, v)) for v in fn.returns]
    fn.dce()
    return inserted


def replan_relins(fn: Function, table: CostModel) -> dict:
    """Whole-DAG relin placement, adopted only when the cost model says
    it beats the current (peephole-placed) program.  Returns a stats row
    and, when adopted, rewrites ``fn`` in place."""
    before_cost = table.function_cost(fn)
    before_relins = fn.op_count("ckks.relin")
    candidate = clone_function(fn)
    _global_relin_placement(candidate)
    cse_function(candidate)
    candidate.dce()
    after_cost = table.function_cost(candidate)
    adopted = cheaper(after_cost, before_cost)
    if adopted:
        fn.params = candidate.params
        fn.body = candidate.body
        fn.returns = candidate.returns
    return {
        "relins_before": before_relins,
        "relins_after": fn.op_count("ckks.relin"),
        "cost_before": before_cost,
        "cost_after": after_cost if adopted else before_cost,
        "adopted": adopted,
    }


# ---------------------------------------------------------------------------
# the fitting lowering
# ---------------------------------------------------------------------------

def lower_to_ckks(sihe_module: Module, moduli: list[float], scale: float,
                  options, hint_plan: dict[int, dict] | None = None,
                  ) -> tuple[Module, dict]:
    """Lower the SIHE module to a CKKS module that fits the chain;
    ``(module, context)``.

    Each refresh target starts at ``hint_plan``'s target or, without
    one, at its region's SIHE depth requirement.  While the lowered
    program does not fit, every short region — a refresh whose target,
    or a dead or skipped hint whose entry level, is below the
    :func:`consumed_need` of the region's first value — gets that need as
    its target, and the module is lowered again; targets only rise, so
    this ends.  Raises ``LoweringError`` when no target can rise.  The
    lowering only reads the SIHE function, so each attempt works on a
    :func:`shallow_copy` and ``sihe_module`` is left as it was.
    """
    max_level = len(moduli) - 1
    plan = dict(hint_plan or {})
    while True:
        module, ctx = shallow_copy(sihe_module), {}
        lowering = SiheToCkksLowering(
            moduli, scale, options.bootstrap_enabled,
            options.minimal_level_bootstrap, hint_plan=plan)
        lowering.run(module, ctx)
        if lowering.fits:
            return module, ctx
        need = consumed_need(module.main(), moduli)
        raised = dict(plan)
        for row in ctx["bootstrap_plan"]:
            entry = (row["target"] if row["status"] == "emitted"
                     else row["level_in"])
            want = min(need.get(row["value"], 0), max_level)
            if options.bootstrap_enabled and want > entry:
                raised[row["hint"]] = {"target": want}
        if raised == plan:
            raise LoweringError(
                f"the {max_level}-level chain is too short for this "
                "program: no refresh target can rise")
        plan = raised


def bootstrap_targets(fn: Function) -> list[int]:
    """The refresh targets of a function's bootstrap ops, in body order."""
    return [op.attrs.get("target_level") for op in fn.body
            if op.opcode == "ckks.bootstrap"]


def summarize_levels_stats(stats: dict | None) -> dict:
    """Condense replanner stats into the ``program.stats["levels"]``
    surface (full per-round rows stay available under ``rounds``)."""
    if not stats:
        return {"enabled": False}
    out = dict(stats)
    out["rounds_run"] = len(stats.get("rounds", []))
    out["bootstraps_removed"] = (
        stats.get("bootstraps_before", 0) - stats.get("bootstraps_after", 0))
    before, after = stats.get("cost_before"), stats.get("cost_after")
    if before and after is not None and before > 0:
        out["cost_reduction"] = (before - after) / before
    return out
