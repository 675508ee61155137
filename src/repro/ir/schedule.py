"""Dependency-DAG analysis and wavefront scheduling for flat functions.

Inference graphs are DAGs (paper §3.2), and the fully scheduled CKKS-IR
op list a compiled program executes keeps that structure: parallel
residual branches of a ResNet, the giant steps of a BSGS matrix
multiply, per-channel convolutions.  This module recovers it from a
:class:`~repro.ir.core.Function` body:

* :func:`build_op_dag` maps each op to the ops producing its operands
  (and the reverse user lists) — pure SSA def-use wiring;
* :func:`compute_schedule` levelises the DAG into *wavefronts* (stage
  ``k`` holds every op whose predecessors all sit in stages ``< k``) and
  folds in the interpreter's last-use liveness as per-value consumer
  refcounts, so the executor drops dead ciphertexts the moment their
  final consumer completes, and marks the *static* ops —
  those no function parameter reaches — whose results are the same on
  every execution;
* :func:`schedule_pass` exposes the analysis through the pass manager
  (level "Others": it is dialect-agnostic and runs on every IR level).

The schedule itself is *descriptive*: a compiled program runs in
program order (:func:`repro.runtime.ckks_interp.run_ckks_function`),
which respects ``deps``; the wavefront depth and widths are reported
(``stages``, ``max_width``) as a measure of the program's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.core import Function
from repro.ir.passmanager import Pass
from repro.ir.types import CipherType


@dataclass
class OpSchedule:
    """Dependency DAG + wavefront levelisation of one function body.

    Attributes:
        deps: per op index, the sorted indices of ops producing its
            operands (function parameters contribute no edge).
        users: per op index, the sorted indices of ops consuming any of
            its results.
        stages: the wavefront schedule — ``stages[k]`` lists op indices
            whose dependencies all complete in stages ``< k``; every
            stage's ops are mutually independent.
        stage_of: per op index, its stage number.
        consumers: value id -> number of *distinct ops* consuming it
            (an op using a value twice counts once); the executor
            decrements this as consumers retire and frees the value at
            zero.  Returned values are excluded (never freed).
        static: indices of ops that cannot depend on the function's
            inputs: no operand is a parameter or the result of a
            non-static op.  An op with a cipher-typed result is never
            static.  In compiled programs this is the ``vector.*``
            constant subgraph and the ``ckks.encode`` ops it feeds.
    """

    deps: list[tuple[int, ...]]
    users: list[tuple[int, ...]]
    stages: list[list[int]]
    stage_of: list[int]
    consumers: dict[int, int] = field(default_factory=dict)
    static: frozenset[int] = frozenset()

    @property
    def num_ops(self) -> int:
        return len(self.deps)

    @property
    def depth(self) -> int:
        """Critical-path length in ops (number of wavefronts)."""
        return len(self.stages)

    @property
    def max_width(self) -> int:
        """Widest wavefront: the most mutually independent ops."""
        return max((len(s) for s in self.stages), default=0)

    @property
    def mean_width(self) -> float:
        """Average ops per wavefront (total work / critical path)."""
        if not self.stages:
            return 0.0
        return self.num_ops / len(self.stages)

    def width_histogram(self) -> dict[int, int]:
        """``{wavefront width: number of stages of that width}``."""
        hist: dict[int, int] = {}
        for stage in self.stages:
            hist[len(stage)] = hist.get(len(stage), 0) + 1
        return hist

    def describe(self) -> dict:
        """JSON-safe summary (benchmarks record this)."""
        return {
            "ops": self.num_ops,
            "stages": self.depth,
            "max_width": self.max_width,
            "mean_width": round(self.mean_width, 3),
        }


def build_op_dag(fn: Function) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """SSA def-use edges of ``fn.body`` as (deps, users) index lists.

    Works on any dialect: only ``op.operands`` / ``op.results`` wiring is
    inspected, never opcodes.
    """
    producer: dict[int, int] = {}
    for index, op in enumerate(fn.body):
        for res in op.results:
            producer[res.id] = index
    deps: list[tuple[int, ...]] = []
    users: list[set[int]] = [set() for _ in fn.body]
    for index, op in enumerate(fn.body):
        pred = set()
        for operand in op.operands:
            src = producer.get(operand.id)
            if src is not None and src != index:
                pred.add(src)
                users[src].add(index)
        deps.append(tuple(sorted(pred)))
    return deps, [tuple(sorted(u)) for u in users]


def compute_schedule(fn: Function) -> OpSchedule:
    """Wavefront schedule of ``fn`` with liveness refcounts folded in."""
    deps, users = build_op_dag(fn)
    stage_of = [0] * len(deps)
    for index, pred in enumerate(deps):
        # fn.body is topologically ordered, so predecessors are resolved
        stage_of[index] = 1 + max((stage_of[p] for p in pred), default=-1)
    depth = 1 + max(stage_of, default=-1) if deps else 0
    stages: list[list[int]] = [[] for _ in range(depth)]
    for index, stage in enumerate(stage_of):
        stages[stage].append(index)
    keep = {v.id for v in fn.returns}
    consumers: dict[int, int] = {}
    dynamic = {p.id for p in fn.params}
    static = set()
    for index, op in enumerate(fn.body):
        operand_ids = {operand.id for operand in op.operands}
        for vid in operand_ids:
            if vid not in keep:
                consumers[vid] = consumers.get(vid, 0) + 1
        if operand_ids.isdisjoint(dynamic) and not any(
                isinstance(r.type, CipherType) for r in op.results):
            static.add(index)
        else:
            for result in op.results:
                dynamic.add(result.id)
    return OpSchedule(
        deps=deps, users=users, stages=stages, stage_of=stage_of,
        consumers=consumers, static=frozenset(static),
    )


def schedule_pass(result_key: str = "schedules") -> Pass:
    """A pass that schedules every function into ``context[result_key]``.

    The analysis is read-only (the module is untouched); downstream
    consumers — benchmarks reporting wavefront width — pick the :class:`OpSchedule` out of the pass context by
    function name.
    """

    def run(module, context) -> None:
        out = context.setdefault(result_key, {})
        for name, fn in module.functions.items():
            out[name] = compute_schedule(fn)

    return Pass(
        "op-schedule", "Others", run,
        "dependency DAG + wavefront schedule",
    )
