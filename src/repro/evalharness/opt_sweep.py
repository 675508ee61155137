"""Opt-level sweep: the key-switch / bootstrap / latency frontier.

Compiles each evaluation model at ``--opt-level`` 0, 1 and 2 and charts
what each tier buys: level 1 merges duplicate work (CSE, dedup, folds),
level 2 adds the noise-path rewrites (rotation composition, lazy
relinearisation, rescale sinking) — so the sweep shows key switches,
refresh counts/targets and modeled latency moving together, the frontier
the ROADMAP's carried-over item asked for.
"""

from __future__ import annotations

import numpy as np

from repro.compiler import ACECompiler, CompileOptions
from repro.evalharness.models import EVAL_MODELS, trained_model
from repro.nn import model_to_onnx
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.passes.cost import CostModel
from repro.passes.opt import bootstrap_count, key_switch_count


def _dense_gemm_proto(features: int):
    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("gemm")
    builder.add_input("x", [1, features])
    w = (rng.normal(size=(features, features)) * 0.3).astype(np.float32)
    bias = (rng.normal(size=(features,)) * 0.1).astype(np.float32)
    builder.add_node(
        "Gemm", ["x", builder.add_initializer("w", w),
                 builder.add_initializer("b", bias)],
        outputs=["output"], transB=1)
    builder.add_output("output", [1, features])
    return load_model_bytes(model_to_bytes(builder.build()))


def sweep_rows(models=EVAL_MODELS, scale: str = "ci",
               opt_levels=(0, 1, 2)) -> list[dict]:
    rows: list[dict] = []
    for name in models:
        model, _dataset = trained_model(name, scale)
        proto = load_model_bytes(model_to_bytes(model_to_onnx(model)))
        for level in opt_levels:
            program = ACECompiler(proto, CompileOptions(
                sign_iterations=4, poly_mode="off", opt_level=level,
            )).compile()
            table = CostModel(
                poly_degree=program.scheme.poly_degree,
                num_special_primes=program.scheme.num_special_primes,
            )
            fn = program.module.main()
            rows.append({
                "model": name,
                "opt_level": level,
                "ops": fn.op_count(),
                "key_switches": key_switch_count(program.module),
                "bootstraps": bootstrap_count(program.module),
                "bootstrap_targets": program.bootstrap_targets,
                "rotation_keys": len(program.rotation_steps),
                "modeled_seconds": table.function_cost(fn),
            })
    return rows


def layout_rows(models=EVAL_MODELS, scale: str = "ci") -> list[dict]:
    """Chosen-vs-naive layout table (the tentpole's win condition).

    Compiles each zoo model with ``layout_tune`` at ``heuristic`` and
    ``search`` and prices *both* final CKKS programs with one uniform
    analytic :class:`CostModel` — the search itself uses the calibrated
    model, but mixing calibrated and analytic numbers in one table would
    make the speedup column meaningless.  A ``gemm-48`` row (the dense
    GEMV workload of ``bench_layout_tune.py``, where the rotate-dedup
    heuristic is far from optimal) rides along after the zoo models; a
    1.00x zoo row means the searched plan's final CKKS IR priced no
    cheaper than the heuristic's and was not adopted — the *choice* is
    still the tuner's.
    """
    workloads: list[tuple[str, object]] = []
    for name in models:
        model, _dataset = trained_model(name, scale)
        workloads.append((name, load_model_bytes(
            model_to_bytes(model_to_onnx(model)))))
    workloads.append(("gemm-48", _dense_gemm_proto(48)))
    rows: list[dict] = []
    for name, proto in workloads:
        per_mode: dict[str, dict] = {}
        for mode in ("heuristic", "search"):
            program = ACECompiler(proto, CompileOptions(
                sign_iterations=4, poly_mode="off", opt_level=2,
                layout_tune=mode,
                slots=256 if name == "gemm-48" else None,
            )).compile()
            table = CostModel(
                poly_degree=program.scheme.poly_degree,
                num_special_primes=program.scheme.num_special_primes,
            )
            fn = program.module.main()
            layout = program.stats.get("layout", {})
            per_mode[mode] = {
                "ops": fn.op_count(),
                "key_switches": key_switch_count(program.module),
                "rotation_keys": len(program.rotation_steps),
                "max_width": layout.get("schedule_max_width"),
                "modeled_seconds": table.function_cost(fn),
                # the plan column shows what the compile *committed* —
                # a searched plan that was not adopted is not an
                # override
                "plan": (layout.get("plan", {})
                         if layout.get("adopted", True) else {}),
            }
        rows.append({"model": name, **{
            f"{mode}_{k}": v
            for mode, stats in per_mode.items()
            for k, v in stats.items()
        }})
    return rows


def render_layout(rows: list[dict]) -> str:
    lines = ["Layout autotune — chosen vs naive packing per model "
             "(uniform analytic cost model)"]
    lines.append(
        f"{'model':<12}{'naive ops':>10}{'tuned ops':>10}"
        f"{'naive s':>9}{'tuned s':>9}{'speedup':>9}{'overrides':>10}"
    )
    speedups = []
    for row in rows:
        naive = row["heuristic_modeled_seconds"]
        tuned = row["search_modeled_seconds"]
        speedup = naive / tuned if tuned > 0 else float("inf")
        speedups.append(speedup)
        lines.append(
            f"{row['model']:<12}{row['heuristic_ops']:>10}"
            f"{row['search_ops']:>10}{naive:>9.3f}{tuned:>9.3f}"
            f"{speedup:>8.2f}x{len(row['search_plan']):>10}"
        )
    if speedups:
        lines.append(
            f"geo-mean modeled speedup heuristic -> search: "
            f"{_geomean(speedups):.2f}x"
        )
    return "\n".join(lines)


def render(rows: list[dict]) -> str:
    lines = ["Opt-level sweep — key-switch / bootstrap / latency frontier"]
    lines.append(
        f"{'model':<12}{'opt':>4}{'ops':>7}{'keysw':>7}{'boots':>6}"
        f"{'targets':>18}{'rotkeys':>8}{'modeled s':>11}"
    )
    for row in rows:
        ts = row["bootstrap_targets"]
        if len(ts) > 4:
            targets = f"{len(ts)}x[{min(ts)}..{max(ts)}]"
        else:
            targets = ",".join(str(t) for t in ts) or "-"
        lines.append(
            f"{row['model']:<12}{row['opt_level']:>4}{row['ops']:>7}"
            f"{row['key_switches']:>7}{row['bootstraps']:>6}"
            f"{targets:>18}{row['rotation_keys']:>8}"
            f"{row['modeled_seconds']:>11.3f}"
        )
    by_model: dict[str, list[dict]] = {}
    for row in rows:
        by_model.setdefault(row["model"], []).append(row)
    speedups = []
    for model_rows in by_model.values():
        base = next((r for r in model_rows if r["opt_level"] == 0), None)
        best = min(model_rows, key=lambda r: r["modeled_seconds"])
        if base and best["modeled_seconds"] > 0:
            speedups.append(base["modeled_seconds"] / best["modeled_seconds"])
    if speedups:
        lines.append(
            f"geo-mean modeled speedup opt0 -> best: "
            f"{_geomean(speedups):.2f}x"
        )
    return "\n".join(lines)


def _geomean(values: list[float]) -> float:
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
