"""Cost-model-driven layout & BSGS autotuning (ROADMAP #3).

CHET's headline result — and the reason ANT-ACE's §4.2 layout machinery
exists at all — is that *automatic* data-layout selection beats any
single hand-chosen packing across a model zoo.  This pass turns
:mod:`repro.passes.layout` from a fixed heuristic into a search:

* :func:`enumerate_choices` lists per-layer candidates on the fused NN
  module — input packings (dense / channel-minor interleaved / strided),
  conv output packings, global-average-pool placements, and GEMM
  strategies including baby-heavy BSGS splits
  (:func:`repro.passes.layout.bsgs_giant_candidates`);
* :func:`search_plan` runs greedy coordinate descent over the layers
  (sweeps until no single-layer change improves), ranking candidate
  :class:`LayoutPlan` objects through a ``price(layout)`` callable: the
  driver's own front half (``NnToVectorLowering`` + vector optimizer)
  priced with :meth:`repro.passes.cost.CostModel.function_cost` — the
  pricer every other gate uses: rotation batches per source priced
  *hoisted*, scaled by the wavefront-schedule factor at the effective
  job count, so a plan that narrows the schedule pays for it.  The
  argmin plan is only a proposal: the driver lowers it through its one
  lowering, prices the final CKKS IR and adopts it only if it is
  cheaper than the heuristic's — rotation-key analysis and scheduling
  run after adoption, so the generated keys match the tuned program.

The search itself costs candidates at the VECTOR level on cleartext
numpy plans: a candidate evaluation is a few milliseconds, not a compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.passes.cost import cheaper
from repro.passes.layout import LayoutPlan, bsgs_giant_candidates
from repro.utils.bits import next_power_of_two


def _const_shape(op_value, module) -> tuple[int, ...] | None:
    producer = op_value.producer
    if producer is None or "const_name" not in producer.attrs:
        return None
    return module.constants[producer.attrs["const_name"]].shape


def enumerate_choices(
    nn_module, slots: int, batch: int = 1, gemm_strategy: str = "auto"
) -> list[tuple[str, list[dict]]]:
    """Per-layer candidate choices, keyed exactly like the lowering.

    The first entry of every candidate list is the heuristic default;
    the search treats it as the no-override baseline.  Candidates that
    cannot lower at the given slot budget are filtered later by costing
    (a failed lowering prices at infinity), not here.
    """
    fn = nn_module.main()
    block = slots // batch
    out: list[tuple[str, list[dict]]] = []
    for i, p in enumerate(fn.params):
        full = p.type.shape
        shape = tuple(full[1:]) if len(full) == 4 else (full[-1],)
        if len(shape) == 3 and shape[0] > 1:
            choices = [{"layout": "dense"}, {"layout": "interleaved"}]
            if 2 * int(np.prod(shape)) <= block:
                choices.append({"layout": "strided"})
            out.append((f"input:{i}", choices))
    for index, op in enumerate(fn.body):
        kind = op.opcode.split(".")[1]
        key = f"{index}:{kind}"
        if kind == "conv":
            out.append((key, [
                {"layout": "heuristic"},
                {"layout": "dense"},
                {"layout": "interleaved"},
            ]))
        elif kind == "global_average_pool":
            out.append((key, [
                {"placement": "inplace"},
                {"placement": "head"},
            ]))
        elif kind == "gemm" and batch == 1:
            shape = _const_shape(op.operands[1], nn_module)
            if shape is None or len(shape) != 2:
                continue
            o_count, f_count = shape
            if not op.attrs.get("trans_b", False):
                o_count, f_count = f_count, o_count
            n = int(next_power_of_two(max(o_count, f_count)))
            choices = [{"strategy": "auto"}, {"strategy": "dedup"}]
            if 3 * n <= slots:
                choices += [
                    {"strategy": "bsgs", "giant": g}
                    for g in bsgs_giant_candidates(n)
                ]
            out.append((key, choices))
    return out


@dataclass
class TuneResult:
    """The argmin plan plus everything worth recording about the search."""

    plan: LayoutPlan
    info: dict = field(default_factory=dict)


def search_plan(nn_module, slots: int, options, price,
                max_sweeps: int = 2, max_evals: int = 96) -> TuneResult:
    """Greedy coordinate descent over the per-layer candidates.

    ``price(layout)`` returns the modeled seconds of one candidate plan
    (``None`` is the heuristic; ``inf`` when the plan cannot lower).
    Starts from the heuristic (empty plan); each sweep tries every
    alternative choice per layer and keeps strict improvements
    (:func:`repro.passes.cost.cheaper`).  Layers
    interact (an input packing changes every downstream offset family),
    which is why the sweep repeats until a full pass adopts nothing.
    ``max_evals`` bounds the candidate lowerings for very deep models;
    hitting it is recorded in the result info, never silent.
    """
    candidates = enumerate_choices(
        nn_module, slots, options.batch_size, options.gemm_strategy
    )
    plan = LayoutPlan()
    baseline = price(None)
    best_cost = baseline
    evaluated = 0
    truncated = False
    for _sweep in range(max_sweeps):
        improved = False
        for key, choices in candidates:
            current = plan.get(key) or choices[0]
            for choice in choices:
                if choice == current:
                    continue
                if evaluated >= max_evals:
                    truncated = True
                    break
                trial = plan.with_choice(key, choice)
                evaluated += 1
                cost = price(trial)
                if cheaper(cost, best_cost):
                    plan, best_cost, current = trial, cost, choice
                    improved = True
            if truncated:
                break
        if truncated or not improved:
            break
    # drop overrides that merely restate the heuristic default
    defaults = {key: choices[0] for key, choices in candidates}
    plan = LayoutPlan({
        k: v for k, v in plan.choices.items() if v != defaults.get(k)
    })
    info = {
        "slots": slots,
        "layers_considered": len(candidates),
        "candidates_evaluated": evaluated,
        "search_truncated": truncated,
        "predicted_vector_seconds": {
            "heuristic": baseline,
            "chosen": best_cost,
        },
        "plan": plan.describe(),
    }
    if baseline > 0 and np.isfinite(baseline) and np.isfinite(best_cost):
        info["predicted_vector_speedup"] = baseline / best_cost \
            if best_cost > 0 else None
    return TuneResult(plan=plan, info=info)
