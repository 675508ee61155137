"""SIHE IR -> CKKS IR lowering (paper §4.4).

Everything Table 2 lists for the CKKS level happens here or in the
analyses feeding it:

* **Rescaling placement** — a lazy waterline policy: multiplication
  results stay at scale ~Δ² through whole accumulation chains and are
  rescaled only when the next multiplication needs headroom.  This is the
  EVA-style delayed rescaling the paper adopts (§4.4).
* **Relinearisation placement** — immediately after each cipher-cipher
  multiplication.
* **Scale/level alignment** — additions require exactly matching scales
  and levels; mismatched operands are aligned by modulus switching plus,
  when scales still differ, one multiply-by-ones at a compensating scale
  (a "scale management unit").
* **Bootstrapping placement** — ``sihe.bootstrap_hint`` markers (left
  before each ReLU) become ``ckks.bootstrap`` ops refreshing only to the
  *minimal* level the next region needs: first its SIHE depth
  requirement, then — when that runs the real chain dry — the need
  measured on the lowered program
  (:func:`repro.passes.levels.lower_to_ckks`); hints whose remaining
  budget already suffices are deleted (dead-refresh elimination).
* **Key analysis** — the set of rotation steps actually used is
  collected for exact key generation (paper RQ2's 84.8 % key-memory
  saving).

Every emitted cipher value is annotated with its planned (scale, level);
the strict CKKS interpreter re-checks the plan at runtime.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import LoweringError
from repro.ir import CipherType, IRBuilder, Module
from repro.ir.core import Function, Value
from repro.ir.types import PlainType, VectorType


def capacity_floors(moduli) -> list[float]:
    """Cumulative modulus products: ``floors[L]`` = capacity at level L."""
    caps: list[float] = []
    product = 1.0
    for q in moduli:
        product *= float(q)
        caps.append(product)
    return caps


def fits_capacity(scale: float, capacity: float) -> bool:
    """Whether a value at ``scale`` is representable under ``capacity``:
    the backends refuse any scale that reaches the remaining modulus
    product (``NoiseBudgetExhausted``)."""
    return capacity > scale * (1.0 + 1e-9)


class DepthAnalysis:
    """Multiplicative-depth accounting over a SIHE function.

    ``depth[v]`` counts levels consumed since the last refresh point on
    v's path; each ``bootstrap_hint`` records the maximum depth reached
    by values rooted at it (its *requirement* when lowered).
    """

    def __init__(self, fn: Function):
        self.depth: dict[int, int] = {}
        self.root: dict[int, object] = {}
        self.hint_requirements: dict[int, int] = {}  # hint op id -> depth
        self.input_requirement = 0
        self.max_depth = 0
        self._analyse(fn)

    def _analyse(self, fn: Function) -> None:
        for p in fn.params:
            self.depth[p.id] = 0
            self.root[p.id] = "input"
        hint_ids: dict[object, int] = {}
        for op in fn.body:
            if not op.opcode.startswith("sihe."):
                for r in op.results:
                    self.depth[r.id] = 0
                    self.root[r.id] = "input"
                continue
            operand_depths = [
                (self.depth.get(o.id, 0), self.root.get(o.id, "input"))
                for o in op.operands
                if isinstance(o.type, (CipherType,))
            ]
            if operand_depths:
                d, root = max(operand_depths, key=lambda t: t[0])
            else:
                d, root = 0, "input"
            if op.opcode == "sihe.bootstrap_hint":
                self._bump(root, d)
                self.depth[op.results[0].id] = 0
                self.root[op.results[0].id] = id(op)
                self.hint_requirements[id(op)] = 0
                continue
            if op.opcode == "sihe.mul":
                d += 1
            self._bump(root, d)
            for r in op.results:
                self.depth[r.id] = d
                self.root[r.id] = root
        self.max_depth = max(
            [self.input_requirement, *self.hint_requirements.values()]
        )

    def _bump(self, root, d: int) -> None:
        if root == "input":
            self.input_requirement = max(self.input_requirement, d)
        else:
            self.hint_requirements[root] = max(
                self.hint_requirements.get(root, 0), d
            )


class SiheToCkksLowering:
    """The scheduled lowering; requires the chosen modulus chain.

    It always lowers to the end: a value that runs the chain dry (level
    below 0, or a scale at or above the capacity of its level) clears
    :attr:`fits` instead of raising, so the caller can measure the
    finished program and raise the short refresh targets
    (:func:`repro.passes.levels.lower_to_ckks`).
    """

    def __init__(self, moduli: list[float], scale: float,
                 bootstrap_enabled: bool = True,
                 minimal_level_bootstrap: bool = True,
                 targets: dict[int, int] | None = None):
        self.moduli = [float(q) for q in moduli]
        self.capacity = capacity_floors(self.moduli)
        self.scale = float(scale)
        self.max_level = len(moduli) - 1
        self.bootstrap_enabled = bootstrap_enabled
        #: False = refresh to the full chain (the expert behaviour); the
        #: ablation benchmarks flip this to isolate §4.4's optimisation
        self.minimal_level_bootstrap = minimal_level_bootstrap
        #: per-hint refresh targets: hint index -> level, replacing the
        #: hint's SIHE depth requirement (the fitting lowering raises a
        #: short region's target to its measured need)
        self.targets = dict(targets or {})

    # -- state helpers ----------------------------------------------------

    def run(self, module: Module, context: dict) -> None:
        old = module.main()
        analysis = DepthAnalysis(old)
        context["depth_analysis"] = analysis
        slots = old.params[0].type.slots
        new_fn = Function(
            "main", [Value(CipherType(slots), p.name) for p in old.params]
        )
        builder = IRBuilder(module, new_fn)
        self.builder = builder
        self.state: dict[int, tuple[float, int]] = {}
        #: every emitted value fits the chain (see the class docstring)
        self.fits = True
        self.rotations: set[int] = set()
        env: dict[int, object] = {}
        for old_p, new_p in zip(old.params, new_fn.params):
            env[old_p.id] = new_p
            self._set(new_p, self.scale, self.max_level)
        self._region = None
        self._next_hint = 0
        self.hint_log: list[dict] = []
        for op in old.body:
            self._region = op.attrs.get("region")
            before = len(new_fn.body)
            env[op.results[0].id] = self._lower_op(op, env, analysis)
            for emitted in new_fn.body[before:]:
                if self._region:
                    emitted.attrs.setdefault("region", self._region)
        new_fn.returns = [env[v.id] for v in old.returns]
        module.functions.pop(old.name)
        module.add_function(new_fn)
        context["rotation_steps"] = sorted(self.rotations)
        context["slots"] = slots
        # region metadata for fitting the targets: one row per
        # ``sihe.bootstrap_hint`` in body order (the stable hint index
        # carried on every emitted ``ckks.bootstrap`` as attrs["hint"]),
        # naming the value id each region starts from
        context["bootstrap_plan"] = list(self.hint_log)

    def _set(self, value: Value, scale: float, level: int) -> Value:
        if level < 0 or not fits_capacity(scale, self.capacity[level]):
            self.fits = False
        self.state[value.id] = (scale, level)
        value.meta["scale"] = scale
        value.meta["level"] = level
        return value

    def _scale_of(self, v: Value) -> float:
        return self.state[v.id][0]

    def _level_of(self, v: Value) -> int:
        return self.state[v.id][1]

    # -- emission helpers ---------------------------------------------------

    def _emit(self, opcode, operands, attrs=None, hint=""):
        return self.builder.emit(opcode, operands, attrs or {}, hint)

    def _prime(self, level: int) -> float:
        """The prime a rescale at ``level`` divides by; below the chain
        (an unfitting lowering) the nominal scale stands in for it."""
        return self.moduli[level] if level > 0 else self.scale

    def _rescale(self, v: Value) -> Value:
        s, l = self.state[v.id]
        out = self._emit("ckks.rescale", [v], hint="rs")
        return self._set(out, s / self._prime(l), l - 1)

    def _normalize(self, v: Value) -> Value:
        """Bring the scale back near Δ (the lazy-rescale trigger)."""
        while self._scale_of(v) >= self.scale ** 1.5:
            v = self._rescale(v)
        return v

    def _modswitch_to(self, v: Value, level: int) -> Value:
        s, l = self.state[v.id]
        if level == l:
            return v
        if level > l:
            raise LoweringError(f"cannot modswitch up ({l} -> {level})")
        out = self._emit("ckks.modswitch", [v], {"levels": l - level}, "ms")
        return self._set(out, s, level)

    def _encode(self, vec: Value, scale: float, level: int) -> Value:
        out = self._emit(
            "ckks.encode", [vec],
            {"scale": scale, "level": level, "slots": vec.type.length},
            "enc",
        )
        out.meta["scale"] = scale
        out.meta["level"] = level
        return out

    def _ones(self, slots: int) -> Value:
        return self.builder.constant(
            "vector.constant", np.ones(slots), hint="ones",
            extra_attrs={"length": slots},
        )

    def _align_to(self, v: Value, scale: float, level: int) -> Value:
        """Force v to exactly (scale, level) with one compensating mult."""
        s, l = self.state[v.id]
        if l == level and math.isclose(s, scale, rel_tol=1e-9):
            return v
        if l < level + 1:
            raise LoweringError(
                f"cannot align from level {l} to ({scale:.3g}, {level})"
            )
        v = self._modswitch_to(v, level + 1)
        q = self._prime(level + 1)
        comp_scale = scale * q / self._scale_of(v)
        if comp_scale < 1.0:
            raise LoweringError("compensating scale below 1")
        ones = self._ones(v.type.slots)
        enc = self._encode(ones, comp_scale, level + 1)
        prod = self._emit("ckks.mul", [v, enc], {"role": "align"}, "align")
        self._set(prod, self._scale_of(v) * comp_scale, level + 1)
        return self._rescale(prod)

    def _align_pair(self, a: Value, b: Value) -> tuple[Value, Value]:
        a, b = self._normalize(a), self._normalize(b)
        level = min(self._level_of(a), self._level_of(b))
        a = self._modswitch_to(a, level)
        b = self._modswitch_to(b, level)
        sa, sb = self._scale_of(a), self._scale_of(b)
        if math.isclose(sa, sb, rel_tol=1e-9):
            return a, b
        # Align the larger-scaled operand down to the smaller scale (so
        # the compensating encode scale stays >= 1); costs one level.
        if sa <= sb:
            b = self._align_to(b, sa, level - 1)
            a = self._modswitch_to(a, level - 1)
        else:
            a = self._align_to(a, sb, level - 1)
            b = self._modswitch_to(b, level - 1)
        return a, b

    # -- op lowering -------------------------------------------------------

    def _lower_op(self, op, env, analysis):
        code = op.opcode
        if code.startswith("vector."):
            return self._emit(code, [env[o.id] for o in op.operands],
                              dict(op.attrs))
        if code == "sihe.encode":
            return env[op.operands[0].id]  # encoded lazily at use sites
        args = [env[o.id] for o in op.operands]
        if code == "sihe.rotate":
            steps = op.attrs["steps"]
            self.rotations.add(steps)
            # normalise *before* rotating: the fan-out of a shared input
            # then pays one rescale (CSE merges the duplicates) instead of
            # one per rotated copy
            arg = self._normalize(args[0])
            out = self._emit("ckks.rotate", [arg], {"steps": steps})
            return self._set(out, *self.state[arg.id])
        if code == "sihe.neg":
            out = self._emit("ckks.neg", [args[0]])
            return self._set(out, *self.state[args[0].id])
        if code == "sihe.bootstrap_hint":
            return self._lower_hint(op, args[0], analysis)
        if code == "sihe.mul":
            return self._lower_mul(op, args, env)
        if code in ("sihe.add", "sihe.sub"):
            return self._lower_addsub(op, args, env)
        raise LoweringError(f"no CKKS lowering for {code}")

    def _is_vector(self, value) -> bool:
        return isinstance(value.type, VectorType)

    def _lower_mul(self, op, args, env):
        a, b = args
        if self._is_vector(b):
            a = self._normalize(a)
            sa, la = self.state[a.id]
            enc = self._encode(b, self.scale, la)
            out = self._emit("ckks.mul", [a, enc])
            return self._set(out, sa * self.scale, la)
        a, b = self._normalize(a), self._normalize(b)
        level = min(self._level_of(a), self._level_of(b))
        a = self._modswitch_to(a, level)
        b = self._modswitch_to(b, level)
        prod = self._emit("ckks.mul", [a, b])
        scale = self._scale_of(a) * self._scale_of(b)
        self._set(prod, scale, level)
        out = self._emit("ckks.relin", [prod])
        return self._set(out, scale, level)

    def _lower_addsub(self, op, args, env):
        code = "ckks." + op.opcode.split(".")[1]
        a, b = args
        if self._is_vector(b):
            sa, la = self.state[a.id]
            enc = self._encode(b, sa, la)
            out = self._emit(code, [a, enc])
            return self._set(out, sa, la)
        sa, la = self.state[a.id]
        sb, lb = self.state[b.id]
        if la == lb and math.isclose(sa, sb, rel_tol=1e-9):
            out = self._emit(code, [a, b])
            return self._set(out, sa, la)
        a, b = self._align_pair(a, b)
        out = self._emit(code, [a, b])
        return self._set(out, *self.state[a.id])

    def _lower_hint(self, op, arg, analysis):
        hint = self._next_hint
        self._next_hint += 1
        requirement = analysis.hint_requirements.get(id(op), 0)
        # canonicalise *before* deciding dead/emit: both the fitted
        # targets (measured region needs) and the analysis'
        # ``hint_requirements`` are depths from a canonical-scale entry,
        # so the decision level must be the canonical one too.  An
        # off-waterline entry (the lazy policy legally parks Δ²-scale
        # values here) would otherwise pass the dead-refresh check with
        # a level its region cannot actually afford — shifting every
        # rescale in the region and running the chain dry on deep
        # multi-region models compiled against short exact prime chains.
        arg = self._normalize(arg)
        if not math.isclose(self._scale_of(arg), self.scale, rel_tol=0.3):
            arg = self._align_to(arg, self.scale, self._level_of(arg) - 1)
        level_in = self._level_of(arg)
        row = {"hint": hint, "requirement": requirement, "status": "dead",
               "target": None, "level_in": level_in, "value": arg.id}
        self.hint_log.append(row)
        if hint in self.targets:
            target = min(self.targets[hint], self.max_level)
        elif self.minimal_level_bootstrap:
            target = min(requirement, self.max_level)
        else:
            target = self.max_level
        if not self.bootstrap_enabled or level_in >= target:
            return arg  # dead-refresh elimination
        out = self._emit(
            "ckks.bootstrap", [arg],
            {"target_level": target, "region": "Bootstrap", "hint": hint},
        )
        row.update(status="emitted", target=target, value=out.id)
        return self._set(out, self.scale, target)
