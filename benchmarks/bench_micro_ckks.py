"""Microbenchmarks of the RNS-CKKS evaluator hot paths (real crypto).

Times the primitive kernels the cost model is calibrated against, then
gates the hot-path optimisations of the evaluator overhaul:

* **hoisted BSGS** — a dense slot-matrix multiply applied with
  ``hoisted=True`` (one shared key-switch decomposition for all baby
  steps) vs ``hoisted=False`` (every rotation pays its own
  decomposition).  The two paths must be *bit-identical* and hoisting
  must be >= 2x faster in full mode (>= 1x, i.e. strictly faster, in
  ``--quick`` CI mode where timings are noisy).
* **bootstrap** — one full bootstrap with hoisting vs the same
  bootstrap with ``rotate_hoisted`` forced back to a per-rotation loop.

Results are written to ``BENCH_micro_ckks.json`` (override with
``--out``) so before/after numbers ride along with the run.

Run:   PYTHONPATH=src python benchmarks/bench_micro_ckks.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from repro.backend import ExactBackend
from repro.ckks import CkksContext, CkksParameters
from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.linear import LinearTransform, apply_hoisted_batch


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# primitive kernels
# ----------------------------------------------------------------------

def bench_primitives(repeats: int) -> dict[str, float]:
    params = CkksParameters(
        poly_degree=2048, scale_bits=40, first_prime_bits=50, num_levels=4
    )
    be = ExactBackend(params, rotation_steps=[1, 8], seed=0)
    x = np.linspace(-1, 1, be.config.num_slots)
    ct = be.encrypt(x)
    pt = be.encode(x, be.config.scale, be.config.max_level)
    prod = be.mul_plain(ct, pt)
    ops = {
        "encrypt": lambda: be.encrypt(x),
        "add": lambda: be.add(ct, ct),
        "mul_plain": lambda: be.mul_plain(ct, pt),
        "mul_cipher_relin": lambda: be.relinearize(be.mul(ct, ct)),
        "rotate": lambda: be.rotate(ct, 1),
        "rescale": lambda: be.rescale(prod),
    }
    out = {}
    for name, fn in ops.items():
        fn()  # warm caches (NTT tables, restricted keys)
        out[f"ckks_{name}_N2048_L4_ms"] = _median_time(fn, repeats) * 1e3
    return out


# ----------------------------------------------------------------------
# hoisted BSGS linear transform
# ----------------------------------------------------------------------

def bench_bsgs(poly_degree: int, num_levels: int, giant: int,
               repeats: int) -> dict:
    params = CkksParameters(
        poly_degree=poly_degree, scale_bits=40, first_prime_bits=50,
        num_levels=num_levels,
    )
    slots = params.num_slots
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(slots, slots)) / slots
    lt = LinearTransform(matrix, giant=giant)
    be = ExactBackend(params, rotation_steps=lt.required_rotations(), seed=0)
    ct = be.encrypt(rng.uniform(-1, 1, slots))
    lt.apply(be.ev, ct, hoisted=True)  # warm diagonal + key caches
    baseline_s = _median_time(
        lambda: lt.apply(be.ev, ct, hoisted=False), repeats
    )
    hoisted_s = _median_time(
        lambda: lt.apply(be.ev, ct, hoisted=True), repeats
    )
    base = lt.apply(be.ev, ct, hoisted=False)
    hoisted = lt.apply(be.ev, ct, hoisted=True)
    bit_identical = all(
        np.array_equal(a.residues, b.residues)
        for a, b in zip(base.parts, hoisted.parts)
    )
    expected = matrix @ be.decrypt(ct, slots)
    max_error = float(np.max(np.abs(be.decrypt(hoisted, slots) - expected)))
    return {
        "poly_degree": poly_degree,
        "num_levels": num_levels,
        "giant": lt.giant,
        "baby": lt.baby,
        "baseline_s": baseline_s,
        "hoisted_s": hoisted_s,
        "speedup": baseline_s / hoisted_s,
        "bit_identical": bit_identical,
        "max_error": max_error,
    }


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------

def _unhoisted_rotate(ev, ct, steps_list):
    """Per-rotation replacement for rotate_hoisted (bit-identical)."""
    return {step: ev.rotate(ct, step) for step in steps_list}


def bench_bootstrap() -> dict:
    """End-to-end bootstrap plus its CoeffToSlot stage in isolation.

    End-to-end bootstrap time is dominated by EvalMod (a deep polynomial
    evaluation with no rotations), so the hoisting win is diluted there;
    the CoeffToSlot stage — two BSGS transforms sharing one hoisted
    decomposition — is where rotations live, and is what the gate checks.
    """
    params = CkksParameters(
        poly_degree=128, scale_bits=25, first_prime_bits=26,
        num_levels=22, secret_hamming_weight=8,
    )
    ctx = CkksContext(params, rotation_steps=[], seed=0)
    bs = ctx.make_bootstrapper()
    ev = ctx.evaluator
    ct = ctx.encrypt(np.full(params.num_slots, 0.2), level=0)
    bs.bootstrap(ct)  # warm caches
    t0 = time.perf_counter()
    hoisted_ct = bs.bootstrap(ct)
    hoisted_s = time.perf_counter() - t0
    original = CkksEvaluator.rotate_hoisted
    CkksEvaluator.rotate_hoisted = _unhoisted_rotate
    try:
        t0 = time.perf_counter()
        baseline_ct = bs.bootstrap(ct)
        baseline_s = time.perf_counter() - t0
    finally:
        CkksEvaluator.rotate_hoisted = original
    bit_identical = all(
        np.array_equal(a.residues, b.residues)
        for a, b in zip(baseline_ct.parts, hoisted_ct.parts)
    )
    # CoeffToSlot stage: shared-decomposition batch vs per-rotation loop
    raised = bs.mod_raise(ct)
    halves = [bs._cts_low, bs._cts_high]
    apply_hoisted_batch(ev, raised, halves)  # warm
    t0 = time.perf_counter()
    cts_hoisted = apply_hoisted_batch(ev, raised, halves)
    cts_hoisted_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    cts_baseline = [lt.apply(ev, raised, hoisted=False) for lt in halves]
    cts_baseline_s = time.perf_counter() - t0
    cts_identical = all(
        np.array_equal(a.residues, b.residues)
        for x, y in zip(cts_hoisted, cts_baseline)
        for a, b in zip(x.parts, y.parts)
    )
    return {
        "poly_degree": params.poly_degree,
        "num_levels": params.num_levels,
        "target_level": bs.target_level,
        "baseline_s": baseline_s,
        "hoisted_s": hoisted_s,
        "speedup": baseline_s / hoisted_s,
        "bit_identical": bit_identical,
        "coeff_to_slot": {
            "baseline_s": cts_baseline_s,
            "hoisted_s": cts_hoisted_s,
            "speedup": cts_baseline_s / cts_hoisted_s,
            "bit_identical": cts_identical,
        },
    }


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run(quick: bool) -> dict:
    results = {
        "benchmark": "bench_micro_ckks",
        "mode": "quick" if quick else "full",
        "primitives": bench_primitives(repeats=3 if quick else 15),
    }
    if quick:
        results["bsgs"] = [bench_bsgs(1024, 3, giant=128, repeats=1)]
        results["bsgs_speedup_target"] = 1.0
    else:
        results["bsgs"] = [
            bench_bsgs(2048, 4, giant=128, repeats=3),
            bench_bsgs(2048, 4, giant=256, repeats=3),
        ]
        results["bsgs_speedup_target"] = 2.0
    results["bootstrap"] = bench_bootstrap()
    return results


def check(results: dict) -> list[str]:
    """Gate failures (empty list = pass)."""
    failures = []
    target = results["bsgs_speedup_target"]
    best = max(row["speedup"] for row in results["bsgs"])
    for row in results["bsgs"]:
        if not row["bit_identical"]:
            failures.append(
                f"BSGS giant={row['giant']}: hoisted result is not "
                f"bit-identical to the per-rotation baseline"
            )
    if best <= target:
        failures.append(
            f"hoisted BSGS speedup {best:.2f}x did not beat the "
            f"{target:.1f}x target"
        )
    boot = results["bootstrap"]
    if not boot["bit_identical"]:
        failures.append("bootstrap: hoisted result is not bit-identical")
    cts = boot["coeff_to_slot"]
    if not cts["bit_identical"]:
        failures.append(
            "bootstrap CoeffToSlot: hoisted result is not bit-identical"
        )
    if cts["speedup"] <= 1.0:
        failures.append(
            f"bootstrap CoeffToSlot: hoisting did not improve wall clock "
            f"({cts['speedup']:.2f}x)"
        )
    return failures


def test_hoisted_bsgs_faster():
    results = run(quick=True)
    assert not check(results), check(results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / fewer repeats for CI")
    parser.add_argument("--out", default="BENCH_micro_ckks.json",
                        help="where to write the JSON results")
    args = parser.parse_args()
    results = run(quick=args.quick)
    for name, ms in results["primitives"].items():
        print(f"{name:38s} {ms:10.3f} ms")
    for row in results["bsgs"]:
        print(
            f"BSGS N={row['poly_degree']} L={row['num_levels']} "
            f"giant={row['giant']:3d} baby={row['baby']:3d}: "
            f"baseline {row['baseline_s']:7.3f}s  "
            f"hoisted {row['hoisted_s']:7.3f}s  "
            f"speedup {row['speedup']:5.2f}x  "
            f"bit-identical={row['bit_identical']}  "
            f"err={row['max_error']:.2e}"
        )
    boot = results["bootstrap"]
    print(
        f"bootstrap N={boot['poly_degree']} L={boot['num_levels']}: "
        f"baseline {boot['baseline_s']:7.3f}s  "
        f"hoisted {boot['hoisted_s']:7.3f}s  "
        f"speedup {boot['speedup']:5.2f}x  "
        f"bit-identical={boot['bit_identical']}"
    )
    cts = boot["coeff_to_slot"]
    print(
        f"  CoeffToSlot stage: "
        f"baseline {cts['baseline_s']:7.3f}s  "
        f"hoisted {cts['hoisted_s']:7.3f}s  "
        f"speedup {cts['speedup']:5.2f}x  "
        f"bit-identical={cts['bit_identical']}"
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
    print(f"target (hoisted BSGS > {results['bsgs_speedup_target']:.1f}x"
          f" baseline): PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
