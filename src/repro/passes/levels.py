"""Level planning on CKKS IR: the fitting lowering and its analyses.

Bootstrap placement happens inside the ``sihe -> ckks`` lowering.  Its
first guess at each refresh target is the region's SIHE multiplicative
depth, which cannot see the scale-management units a real prime chain
costs; the program's true level consumption is a measurable property of
the lowered DAG, and a refresh is the most expensive operation in the
whole system.  So the lowering is fitted to what it measures (in the
spirit of Orion's global bootstrap placement and CHET's whole-program
planning), and that fitted lowering is the one refresh plan:

* :func:`consumed_need` — a backward dataflow analysis computing, for
  every value of a CKKS DAG, how many levels must still be available
  below it (rescales consume one, modswitches consume their ``levels``
  attribute, a bootstrap input consumes nothing).  This replaces the
  lowering-time ``depth[v]`` estimate with ground truth.
* :func:`lower_to_ckks` — the one way a CKKS program is built from SIHE:
  lower with the first-guess targets, and while the result does not fit
  the chain, raise each short refresh's target to the measured need of
  its region and lower again.

Relinearisation is placed by the lowering, moved by the CKKS
optimizer's cost-gated lazy-relin peepholes and made legal by
``relinearize_for_legality``.  The final IR's refresh count and targets
surface as ``program.stats["levels"]`` and in ``repro compile
--explain``.
"""

from __future__ import annotations

from repro.errors import LoweringError
from repro.ir.core import Function, Module, Op, Value
from repro.ir.types import Cipher3Type, CipherType
from repro.passes.lowering.sihe_to_ckks import (
    SiheToCkksLowering,
    capacity_floors,
    fits_capacity,
)

_CIPHERISH = (CipherType, Cipher3Type)


# ---------------------------------------------------------------------------
# IR cloning (every lowering works on a copy, never in place)
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
# the ground-truth level analysis
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


# ---------------------------------------------------------------------------
# the fitting lowering
# ---------------------------------------------------------------------------

def lower_to_ckks(sihe_module: Module, moduli: list[float], scale: float,
                  options) -> tuple[Module, dict]:
    """Lower the SIHE module to a CKKS module that fits the chain;
    ``(module, context)``.

    Each refresh target starts at its region's SIHE depth requirement.
    While the lowered program does not fit, every short region — a
    refresh whose target, or a dead hint whose entry level, is below the
    :func:`consumed_need` of the region's first value — gets that need as
    its target, and the module is lowered again; targets only rise, so
    this ends.  Raises ``LoweringError`` when no target can rise.  The
    lowering only reads the SIHE function, so each attempt works on a
    :func:`shallow_copy` and ``sihe_module`` is left as it was.
    """
    max_level = len(moduli) - 1
    targets: dict[int, int] = {}
    while True:
        module, ctx = shallow_copy(sihe_module), {}
        lowering = SiheToCkksLowering(
            moduli, scale, options.bootstrap_enabled,
            options.minimal_level_bootstrap, targets=targets)
        lowering.run(module, ctx)
        if lowering.fits:
            return module, ctx
        need = consumed_need(module.main(), moduli)
        raised = dict(targets)
        for row in ctx["bootstrap_plan"]:
            entry = (row["target"] if row["status"] == "emitted"
                     else row["level_in"])
            want = min(need.get(row["value"], 0), max_level)
            if options.bootstrap_enabled and want > entry:
                raised[row["hint"]] = want
        if raised == targets:
            raise LoweringError(
                f"the {max_level}-level chain is too short for this "
                "program: no refresh target can rise")
        targets = raised


def bootstrap_targets(fn: Function) -> list[int]:
    """The refresh targets of a function's bootstrap ops, in body order."""
    return [op.attrs.get("target_level") for op in fn.body
            if op.opcode == "ckks.bootstrap"]
