"""Benchmark of the layout & BSGS autotuner (``--layout-tune search``).

Two rows:

* **gemm-bsgs** (gated) — a single 48x48 GEMM at 256 slots.  The
  heuristic picks the rotate-dedup GEMV (one rotation per matrix row,
  ~95 key switches); the cost-model search discovers the BSGS split
  (~2*sqrt(n) rotations) and must win end to end on the ExactBackend.
  Gates:

  - the cost model's ranking agrees with the measured winner: both
    final CKKS programs are priced with one uniform analytic
    :class:`CostModel` and the mode it predicts faster must also
    measure faster;
  - measured end-to-end speedup search vs heuristic >= 1.15x
    (enforced on hosts with >= 2 cores; recorded elsewhere).

* **convnet** (recorded, not gated) — conv -> pool -> gemm on the
  noiseless simulator: records the adopted plan, predicted speedup and
  modeled seconds so layout regressions on the conv path stay visible.

Results are written to ``BENCH_layout_tune.json`` (override with
``--out``).

Run:   PYTHONPATH=src python benchmarks/bench_layout_tune.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

from repro.ckks import CkksParameters
from repro.compiler import ACECompiler, CompileOptions
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.passes.cost import CostModel
from repro.passes.opt import key_switch_count

SPEEDUP_TARGET = 1.15
SPEEDUP_MIN_CORES = 2


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def build_gemm_model(features: int, seed: int = 0):
    rng = np.random.default_rng(seed)
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


def build_conv_model(seed: int = 0):
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder("convnet")
    builder.add_input("x", [1, 2, 8, 8])
    w = (rng.normal(size=(4, 2, 3, 3)) * 0.4).astype(np.float32)
    cur = builder.add_node("Conv", ["x", builder.add_initializer("w", w)],
                           strides=[2, 2], pads=[1, 1, 1, 1],
                           kernel_shape=[3, 3])
    cur = builder.add_node("GlobalAveragePool", [cur])
    cur = builder.add_node("Flatten", [cur], axis=1)
    fw = (rng.normal(size=(3, 4)) * 0.4).astype(np.float32)
    fb = rng.normal(size=(3,)).astype(np.float32)
    builder.add_node("Gemm", [cur, builder.add_initializer("fw", fw),
                              builder.add_initializer("fb", fb)],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, 3])
    return load_model_bytes(model_to_bytes(builder.build()))


def _modeled_seconds(program) -> float:
    """Price the final CKKS program with one uniform analytic model."""
    model = CostModel(
        poly_degree=program.scheme.poly_degree,
        num_special_primes=program.scheme.num_special_primes,
    )
    return model.function_cost(program.module.main())


def bench_gemm_bsgs(features: int, poly_degree: int, repeats: int) -> dict:
    """The gated row: heuristic vs search on one ExactBackend setup."""
    model = build_gemm_model(features)
    params = CkksParameters(poly_degree=poly_degree, scale_bits=30,
                            first_prime_bits=40, num_levels=4)
    x = np.random.default_rng(1).normal(size=(1, features)) * 0.5

    programs, times, modeled, key_switches = {}, {}, {}, {}
    for mode in ("heuristic", "search"):
        programs[mode] = ACECompiler(model, CompileOptions(
            exact_params=params, bootstrap_enabled=False, poly_mode="off",
            layout_tune=mode)).compile()
        modeled[mode] = _modeled_seconds(programs[mode])
        key_switches[mode] = key_switch_count(programs[mode].module)

    for mode in ("heuristic", "search"):
        program = programs[mode]
        backend = program.make_exact_backend(params, seed=0)
        program.run(backend, x)  # warm NTT tables / key stacks
        times[mode] = _median_time(
            lambda p=program, b=backend: p.run(b, x), repeats)
        programs[mode].note_measured_seconds(times[mode])

    layout = programs["search"].stats["layout"]
    speedup = times["heuristic"] / times["search"]
    predicted_faster = min(modeled, key=modeled.get)
    measured_faster = min(times, key=times.get)
    return {
        "model": "gemm-bsgs",
        "features": features,
        "poly_degree": poly_degree,
        "cpu_count": os.cpu_count() or 1,
        "key_switches": key_switches,
        "modeled_s": modeled,
        "heuristic_s": times["heuristic"],
        "search_s": times["search"],
        "speedup": speedup,
        "predicted_faster": predicted_faster,
        "measured_faster": measured_faster,
        "ranking_agrees": predicted_faster == measured_faster,
        "plan": layout.get("plan", {}),
        "predicted_vector_speedup": layout.get(
            "predicted_vector_speedup"),
        "predicted_over_measured": layout.get("predicted_over_measured"),
        "gated": True,
    }


def bench_convnet() -> dict:
    """The recorded row: the conv path through the tuner."""
    model = build_conv_model()
    x = np.random.default_rng(2).normal(size=(1, 2, 8, 8)) * 0.5
    outs, programs = {}, {}
    for mode in ("heuristic", "search"):
        programs[mode] = ACECompiler(model, CompileOptions(
            poly_mode="off", slots=128, layout_tune=mode)).compile()
        backend = programs[mode].make_sim_backend(seed=0, inject_noise=False)
        outs[mode] = programs[mode].run(backend, x, check_plan=False)[0]
    layout = programs["search"].stats["layout"]
    return {
        "model": "convnet",
        "modeled_s": {m: _modeled_seconds(p) for m, p in programs.items()},
        "noiseless_sim_identical": bool(
            np.allclose(outs["heuristic"], outs["search"], atol=1e-6)),
        "plan": layout.get("plan", {}),
        "predicted_vector_speedup": layout.get("predicted_vector_speedup"),
        "gated": False,
    }


def run(quick: bool) -> dict:
    repeats = 3 if quick else 5
    gemm = bench_gemm_bsgs(features=48, poly_degree=512, repeats=repeats)
    conv = bench_convnet()
    return {
        "benchmark": "bench_layout_tune",
        "mode": "quick" if quick else "full",
        "speedup_target": SPEEDUP_TARGET,
        "speedup_min_cores": SPEEDUP_MIN_CORES,
        "runs": [gemm, conv],
    }


def check(results: dict) -> list[str]:
    """Gate failures (empty list = pass)."""
    failures = []
    for row in results["runs"]:
        name = row["model"]
        if row.get("noiseless_sim_identical") is False:
            failures.append(
                f"{name}: heuristic and search disagree on the "
                f"noiseless simulator")
        if not row["gated"]:
            continue
        if not row["ranking_agrees"]:
            failures.append(
                f"{name}: cost model predicts {row['predicted_faster']} "
                f"faster but {row['measured_faster']} measured faster")
        if row["cpu_count"] >= results["speedup_min_cores"]:
            if row["speedup"] < results["speedup_target"]:
                failures.append(
                    f"{name}: search speedup {row['speedup']:.2f}x below "
                    f"the {results['speedup_target']:.2f}x target")
    return failures


def test_layout_tune_beats_heuristic():
    results = run(quick=True)
    assert not check(results), check(results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats for CI")
    parser.add_argument("--out", default="BENCH_layout_tune.json",
                        help="where to write the JSON results")
    args = parser.parse_args()
    results = run(quick=args.quick)
    for row in results["runs"]:
        if row["gated"]:
            ks = row["key_switches"]
            print(
                f"{row['model']:12s} N={row['poly_degree']}: key switches "
                f"{ks['heuristic']} -> {ks['search']}  heuristic "
                f"{row['heuristic_s']:.3f}s  search {row['search_s']:.3f}s  "
                f"speedup {row['speedup']:.2f}x  ranking-agrees="
                f"{row['ranking_agrees']}"
            )
        else:
            print(
                f"{row['model']:12s} plan={row['plan']}  predicted vector "
                f"speedup {row['predicted_vector_speedup']:.2f}x  "
                f"noiseless-sim identical="
                f"{row['noiseless_sim_identical']}  [not gated]"
            )
    failures = check(results)
    results["failures"] = failures
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"results written to {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"targets (noiseless-sim identity, predicted ranking, speedup >= "
        f"{SPEEDUP_TARGET:.2f}x on >= {SPEEDUP_MIN_CORES} cores): PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
