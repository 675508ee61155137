"""Benchmark of refresh fitting: placement, targets and elimination.

Bootstrapping is the most expensive operation in the system.  The
lowering fits each refresh target to its region's measured need, and
that fitted lowering is the one refresh plan; CKKS-level CSE then
removes refreshes that shared-weight branches duplicate.  This bench
checks both on real prime chains (``exact_params``), where SIHE depth
estimates are least reliable:

* **siamese-towers** (gated) — two branches sharing one encoder's
  weights (the exporter idiom for siamese/two-tower models).  The raw
  lowering refreshes each branch independently; at ``--opt-level 2``
  whole-DAG CSE merges the towers *across refresh boundaries* (the
  ``hint``/``region`` diagnostic attrs no longer poison the CSE key)
  and the optimized program keeps a single, lower-targeted refresh.
  Gates:

  - at least one ``ckks.bootstrap`` eliminated at opt 2 vs opt 0;
  - end-to-end ExactBackend speedup >= 1.2x;
  - bit-identical decrypted outputs on the noiseless simulator;
  - opt-0 and opt-2 ExactBackend outputs agree numerically.

* **residual-replan** (gated) — a residual block whose mismatched-scale
  adds cost more alignment units than the SIHE depth estimate predicts,
  so the lowering's first guess runs the chain dry and each short
  refresh is raised to its region's measured need.  Gates:

  - every refresh target equals the measured need of its region
    (``consumed_need`` on the final IR) at opt 0 and at opt 2;
  - the opt-2 program's modeled cost is at most the opt-0 program's;
  - bit-identical noiseless-simulator outputs at opt 0 vs opt 2.

Results are written to ``BENCH_level_replan.json`` (override with
``--out``).

Run:   PYTHONPATH=src python benchmarks/bench_level_replan.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from repro.ckks import CkksParameters
from repro.compiler import ACECompiler, CompileOptions
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.passes.levels import consumed_need
from repro.passes.opt import bootstrap_count, key_switch_count

BOOTSTRAPS_ELIMINATED_TARGET = 1
SPEEDUP_TARGET = 1.2

#: toy-but-real CKKS parameters that support bootstrapping (the shape
#: used by tests/test_bootstrap.py), deep enough for multi-refresh runs
def _params(num_levels: int) -> CkksParameters:
    return CkksParameters(
        poly_degree=64,
        scale_bits=25,
        first_prime_bits=26,
        num_levels=num_levels,
        num_special_primes=1,
        secret_hamming_weight=8,
    )


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _gemm(builder, rng, cur, name, features):
    w = (rng.normal(size=(features, features)) * 0.4).astype(np.float32)
    bias = (rng.normal(size=(features,)) * 0.1).astype(np.float32)
    return builder.add_node(
        "Gemm", [cur, builder.add_initializer(f"w{name}", w),
                 builder.add_initializer(f"b{name}", bias)], transB=1)


def build_siamese_model(features: int, tower_layers: int, seed: int = 0):
    """Two branches applying the *same* Gemm+ReLU encoder to one input.

    The initializers are shared (one weight set, two structurally
    duplicated node chains), so every branch op — including its
    bootstraps — is a common subexpression the optimizer can merge.
    """
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder("siamese_towers")
    builder.add_input("x", [1, features])
    weights = []
    for i in range(tower_layers):
        w = (rng.normal(size=(features, features)) * 0.4).astype(np.float32)
        bias = (rng.normal(size=(features,)) * 0.1).astype(np.float32)
        weights.append((builder.add_initializer(f"w{i}", w),
                        builder.add_initializer(f"b{i}", bias)))
    tips = []
    for _branch in range(2):
        cur = "x"
        for wn, bn in weights:
            g = builder.add_node("Gemm", [cur, wn, bn], transB=1)
            cur = builder.add_node("Relu", [g])
        tips.append(cur)
    joined = builder.add_node("Add", tips)
    wh = builder.add_initializer(
        "wh", (rng.normal(size=(features, features)) * 0.3).astype(
            np.float32))
    builder.add_node("Gemm", [joined, wh], outputs=["output"], transB=1)
    builder.add_output("output", [1, features])
    return load_model_bytes(model_to_bytes(builder.build()))


def build_residual_model(features: int, plain_layers: int, seed: int = 0):
    """A residual block followed by plain Gemm+ReLU layers.

    The residual join adds values at mismatched scales, which costs
    alignment units the SIHE depth estimate cannot see — the retry
    ladder widens the global refresh margin, over-provisioning the
    plain layers' refreshes until the replanner trims them back.
    """
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder("residual_replan")
    builder.add_input("x", [1, features])
    g1 = _gemm(builder, rng, "x", 0, features)
    r1 = builder.add_node("Relu", [g1])
    g2 = _gemm(builder, rng, r1, 1, features)
    joined = builder.add_node("Add", [g2, r1])
    cur = builder.add_node("Relu", [joined])
    for i in range(plain_layers):
        g = _gemm(builder, rng, cur, 2 + i, features)
        cur = builder.add_node(
            "Relu", [g],
            outputs=["output"] if i == plain_layers - 1 else None)
    builder.add_output("output", [1, features])
    return load_model_bytes(model_to_bytes(builder.build()))


def _compile_pair(model, params):
    return {
        level: ACECompiler(model, CompileOptions(
            exact_params=params, poly_mode="off", sign_iterations=2,
            opt_level=level)).compile()
        for level in (0, 2)
    }


def _sim_identical(model, image) -> bool:
    """Bit-identity of decrypted outputs across opt levels, checked on
    the synthetic-scheme compile of the same model."""
    outs = {}
    for level in (0, 2):
        program = ACECompiler(model, CompileOptions(
            poly_mode="off", sign_iterations=2, opt_level=level)).compile()
        backend = program.make_sim_backend(inject_noise=False, seed=0)
        outs[level] = program.run(backend, image)[0]
    return bool(np.array_equal(outs[0], outs[2]))


def bench_siamese_towers(features: int, tower_layers: int,
                         repeats: int) -> dict:
    """The gated row: refresh elimination and exact e2e speedup.

    ``num_levels=36`` leaves room for the physical bootstrap circuit
    (depth 18 at these toy parameters), so every planned refresh target
    is actually reachable by the ExactBackend's bootstrapper.
    """
    params = _params(num_levels=36)
    model = build_siamese_model(features, tower_layers)
    programs = _compile_pair(model, params)
    boots = {level: bootstrap_count(p.module)
             for level, p in programs.items()}
    rng = np.random.default_rng(1)
    image = rng.normal(size=(1, features)) * 0.5

    sim_identical = _sim_identical(model, image)
    exact_outs, times = {}, {}
    for level, program in programs.items():
        backend = program.make_exact_backend(params, seed=0)
        exact_outs[level] = program.run(backend, image,
                                        check_plan=False)[0]
        times[level] = _median_time(
            lambda: program.run(backend, image, check_plan=False), repeats)
    return {
        "model": "siamese-towers",
        "features": features,
        "tower_layers": tower_layers,
        "num_levels": params.num_levels,
        "bootstraps": {"opt0": boots[0], "opt2": boots[2]},
        "bootstraps_eliminated": boots[0] - boots[2],
        "bootstrap_targets": {
            "opt0": programs[0].bootstrap_targets,
            "opt2": programs[2].bootstrap_targets,
        },
        "key_switches": {
            "opt0": key_switch_count(programs[0].module),
            "opt2": key_switch_count(programs[2].module),
        },
        "opt0_s": times[0],
        "opt2_s": times[2],
        "speedup": times[0] / times[2],
        "noiseless_sim_identical": sim_identical,
        "exact_outputs_close": bool(
            np.allclose(exact_outs[0], exact_outs[2], atol=0.05)),
        "gated": True,
    }


def _measured_needs(program) -> list[int]:
    """``consumed_need`` of each refresh's result, in body order."""
    fn = program.module.main()
    need = consumed_need(fn, program.scheme.moduli)
    return [need.get(op.result.id, 0) for op in fn.body
            if op.opcode == "ckks.bootstrap"]


def bench_residual_replan(features: int, plain_layers: int) -> dict:
    """The fitting row: on a real prime chain every refresh targets its
    region's measured need, before and after optimization."""
    params = _params(num_levels=17)
    model = build_residual_model(features, plain_layers)
    programs = _compile_pair(model, params)
    rng = np.random.default_rng(2)
    image = rng.normal(size=(1, features)) * 0.5
    sim_identical = _sim_identical(model, image)
    key = {0: "opt0", 2: "opt2"}
    return {
        "model": "residual-replan",
        "features": features,
        "plain_layers": plain_layers,
        "num_levels": params.num_levels,
        "bootstrap_targets": {key[level]: p.bootstrap_targets
                              for level, p in programs.items()},
        "measured_needs": {key[level]: _measured_needs(p)
                           for level, p in programs.items()},
        "modeled_cost": {
            key[level]: p.stats["layout"]["predicted_seconds"]
            for level, p in programs.items()},
        "noiseless_sim_identical": sim_identical,
        "gated": True,
    }


def run(quick: bool) -> dict:
    repeats = 2 if quick else 5
    siamese = bench_siamese_towers(features=8, tower_layers=3,
                                   repeats=repeats)
    residual = bench_residual_replan(features=8, plain_layers=1)
    return {
        "benchmark": "bench_level_replan",
        "mode": "quick" if quick else "full",
        "bootstraps_eliminated_target": BOOTSTRAPS_ELIMINATED_TARGET,
        "speedup_target": SPEEDUP_TARGET,
        "runs": [siamese, residual],
    }


def check(results: dict) -> list[str]:
    """Gate failures (empty list = pass)."""
    failures = []
    for row in results["runs"]:
        name = row["model"]
        if row.get("noiseless_sim_identical") is False:
            failures.append(
                f"{name}: opt levels disagree on the noiseless simulator")
        if name == "siamese-towers":
            if (row["bootstraps_eliminated"]
                    < results["bootstraps_eliminated_target"]):
                failures.append(
                    f"{name}: only {row['bootstraps_eliminated']} refreshes "
                    f"eliminated at opt 2 (target "
                    f">= {results['bootstraps_eliminated_target']})")
            if row["speedup"] < results["speedup_target"]:
                failures.append(
                    f"{name}: exact-backend speedup {row['speedup']:.2f}x "
                    f"below the {results['speedup_target']:.2f}x target")
            if not row["exact_outputs_close"]:
                failures.append(
                    f"{name}: opt-0 and opt-2 ExactBackend outputs diverge")
        if name == "residual-replan":
            for level, targets in row["bootstrap_targets"].items():
                if targets != row["measured_needs"][level]:
                    failures.append(
                        f"{name}: {level} refresh targets {targets} are not "
                        f"the measured needs {row['measured_needs'][level]}")
            cost = row["modeled_cost"]
            if cost["opt2"] > cost["opt0"]:
                failures.append(
                    f"{name}: opt-2 modeled cost {cost['opt2']:.4g} s above "
                    f"opt 0's {cost['opt0']:.4g} s")
    return failures


def test_level_replan_eliminates_refreshes():
    results = run(quick=True)
    assert not check(results), check(results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing repeats for CI")
    parser.add_argument("--out", default="BENCH_level_replan.json",
                        help="where to write the JSON results")
    args = parser.parse_args()
    results = run(args.quick)
    failures = check(results)
    results["failures"] = failures
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    for row in results["runs"]:
        print(json.dumps(row, indent=2))
    if failures:
        print("GATE FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"all gates passed; results in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
