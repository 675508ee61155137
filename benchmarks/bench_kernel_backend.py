"""Kernel-backend benchmark: numpy vs JIT backends on the NTT/RNS hot path.

Times the same workload under every *available* kernel backend
(:mod:`repro.polymath.kernels`):

* **ntt_forward / ntt_inverse** — stacked multi-limb transforms at real
  ciphertext shapes, the single hottest loop in the evaluator.
* **mul_mod** — the elementwise Hadamard product in NTT domain.
* **bsgs_apply** — a hoisted BSGS slot-matrix multiply (the kernel mix
  an encrypted linear layer actually executes).
* **end_to_end** — compile + encrypted inference of a small Gemm model
  through the real compiler/runtime stack.

Every backend must produce **bit-identical** ciphertexts; the benchmark
cross-checks NTT outputs and end-to-end results against the numpy
reference before reporting a speedup.

Gate: with numba installed on a host with >= 2 cores, the numba NTT
microkernel must be >= 1.5x the numpy backend.  Without numba the gate
is *skipped*, not failed — single-backend hosts still get reference
numbers.

Results are written to ``BENCH_kernel_backend.json`` (override with
``--out``).

Run:   PYTHONPATH=src python benchmarks/bench_kernel_backend.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import numpy as np

from repro.polymath import kernels
from repro.polymath.ntt import stacked_tables

#: speedup the numba NTT microkernel must reach over numpy on multi-core
NTT_SPEEDUP_TARGET = 1.5


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _available_backends() -> list[str]:
    names = ["numpy"]
    if kernels.backend_available("numba"):
        names.append("numba")
    return names


# ----------------------------------------------------------------------
# microkernels: NTT + mul_mod at ciphertext shapes
# ----------------------------------------------------------------------

def bench_micro(backend_name: str, degree: int, repeats: int,
                reference: dict | None) -> dict:
    from repro.ckks import CkksParameters

    params = CkksParameters(poly_degree=degree, scale_bits=40,
                            first_prime_bits=50, num_levels=4)
    moduli = tuple(params.moduli)
    tables = stacked_tables(degree, moduli)
    rng = np.random.default_rng(0)
    stack = np.stack([rng.integers(0, q, size=degree, dtype=np.uint64)
                      for q in moduli])
    other = np.stack([rng.integers(0, q, size=degree, dtype=np.uint64)
                      for q in moduli])
    q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)

    backend = kernels.get_backend(backend_name)
    backend.warmup()

    fwd = backend.ntt_forward(stack.copy(), tables)
    inv = backend.ntt_inverse(fwd.copy(), tables)
    prod = backend.mul_mod(stack, other, q_col)
    row = {
        "degree": degree,
        "limbs": len(moduli),
        "ntt_forward_ms": _median_time(
            lambda: backend.ntt_forward(stack.copy(), tables), repeats) * 1e3,
        "ntt_inverse_ms": _median_time(
            lambda: backend.ntt_inverse(fwd.copy(), tables), repeats) * 1e3,
        "mul_mod_ms": _median_time(
            lambda: backend.mul_mod(stack, other, q_col), repeats) * 1e3,
    }
    if reference is None:
        row["bit_identical"] = True  # numpy IS the reference
        row["_check"] = (fwd, inv, prod)
    else:
        ref_fwd, ref_inv, ref_prod = reference["_check"]
        row["bit_identical"] = (np.array_equal(fwd, ref_fwd)
                                and np.array_equal(inv, ref_inv)
                                and np.array_equal(prod, ref_prod))
    return row


# ----------------------------------------------------------------------
# hoisted BSGS linear transform
# ----------------------------------------------------------------------

def bench_bsgs(backend_name: str, degree: int, repeats: int) -> dict:
    from repro.backend import ExactBackend
    from repro.ckks import CkksParameters
    from repro.ckks.linear import LinearTransform

    kernels.set_backend(backend_name)
    try:
        params = CkksParameters(poly_degree=degree, scale_bits=40,
                                first_prime_bits=50, num_levels=3)
        slots = params.num_slots
        rng = np.random.default_rng(0)
        lt = LinearTransform(rng.normal(size=(slots, slots)) / slots)
        be = ExactBackend(params, rotation_steps=lt.required_rotations(),
                          seed=0)
        ct = be.encrypt(rng.uniform(-1, 1, slots))
        lt.apply(be.ev, ct, hoisted=True)  # warm diagonal + key caches
        out = lt.apply(be.ev, ct, hoisted=True)
        return {
            "degree": degree,
            "apply_ms": _median_time(
                lambda: lt.apply(be.ev, ct, hoisted=True), repeats) * 1e3,
            "digest": int(np.bitwise_xor.reduce(
                np.concatenate([p.residues.ravel() for p in out.parts]))),
        }
    finally:
        kernels.set_backend("numpy")


# ----------------------------------------------------------------------
# end-to-end encrypted inference
# ----------------------------------------------------------------------

def _build_gemm_model(in_dim: int, out_dim: int):
    from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes

    rng = np.random.default_rng(0)
    builder = OnnxGraphBuilder("linear_infer")
    builder.add_input("image", [1, in_dim])
    builder.add_initializer(
        "fc.weight", (rng.normal(size=(out_dim, in_dim)) * 0.3)
        .astype(np.float32))
    builder.add_initializer(
        "fc.bias", rng.normal(size=(out_dim,)).astype(np.float32))
    builder.add_node("Gemm", ["image", "fc.weight", "fc.bias"],
                     outputs=["output"], transB=1)
    builder.add_output("output", [1, out_dim])
    return load_model_bytes(model_to_bytes(builder.build()))


def bench_end_to_end(backend_name: str, repeats: int) -> dict:
    from repro.ckks import CkksParameters
    from repro.compiler import ACECompiler, CompileOptions

    kernels.set_backend(backend_name)
    try:
        model = _build_gemm_model(32, 8)
        params = CkksParameters(poly_degree=256, scale_bits=30,
                                first_prime_bits=40, num_levels=4)
        program = ACECompiler(model, CompileOptions(
            exact_params=params, bootstrap_enabled=False,
            poly_mode="off")).compile()
        backend = program.make_exact_backend(params, seed=7)
        x = np.linspace(-0.5, 0.5, 32).reshape(1, 32)
        out = program.run(backend, x, check_plan=False)[0]
        return {
            "infer_ms": _median_time(
                lambda: program.run(backend, x, check_plan=False),
                repeats) * 1e3,
            "kernel_backend": program.stats["kernel_backend"],
            "digest": [round(float(v), 10)
                       for v in np.ravel(out)[:4]],
        }
    finally:
        kernels.set_backend("numpy")


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def run(quick: bool) -> dict:
    degree = 1024 if quick else 4096
    repeats = 3 if quick else 11
    backends = _available_backends()
    results: dict = {
        "benchmark": "bench_kernel_backend",
        "mode": "quick" if quick else "full",
        "cpu_count": os.cpu_count() or 1,
        "backends": backends,
        "ntt_speedup_target": NTT_SPEEDUP_TARGET,
        "micro": {},
        "bsgs": {},
        "end_to_end": {},
    }
    reference = None
    for name in backends:
        row = bench_micro(name, degree, repeats, reference)
        if reference is None:
            reference = row
        results["micro"][name] = {k: v for k, v in row.items()
                                  if not k.startswith("_")}
        results["bsgs"][name] = bench_bsgs(name, 256 if quick else 1024,
                                           repeats)
        results["end_to_end"][name] = bench_end_to_end(name, repeats)
    ref_micro = results["micro"]["numpy"]
    for name in backends:
        micro = results["micro"][name]
        micro["ntt_speedup"] = (ref_micro["ntt_forward_ms"]
                                / micro["ntt_forward_ms"])
    return results


def check(results: dict) -> list[str]:
    """Gate failures; empty list means pass (or nothing to gate)."""
    failures = []
    for name, row in results["micro"].items():
        if not row["bit_identical"]:
            failures.append(f"{name}: NTT/mul_mod outputs differ from numpy")
    digests = {row["digest"] for row in results["bsgs"].values()}
    if len(digests) > 1:
        failures.append(f"BSGS ciphertext digests differ: {digests}")
    e2e = {tuple(row["digest"]) for row in results["end_to_end"].values()}
    if len(e2e) > 1:
        failures.append(f"end-to-end outputs differ across backends: {e2e}")
    if "numba" in results["micro"] and results["cpu_count"] >= 2:
        speedup = results["micro"]["numba"]["ntt_speedup"]
        if speedup < results["ntt_speedup_target"]:
            failures.append(
                f"numba NTT speedup {speedup:.2f}x < "
                f"{results['ntt_speedup_target']:.1f}x target "
                f"({results['cpu_count']} cores)"
            )
    return failures


def test_kernel_backends_identical_and_fast():
    results = run(quick=True)
    assert not check(results), check(results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / fewer repeats for CI")
    parser.add_argument("--out", default="BENCH_kernel_backend.json",
                        help="where to write the JSON results")
    args = parser.parse_args()
    results = run(quick=args.quick)
    for name in results["backends"]:
        micro = results["micro"][name]
        print(
            f"{name:7s} N={micro['degree']} x{micro['limbs']} limbs: "
            f"ntt_fwd {micro['ntt_forward_ms']:8.3f} ms  "
            f"ntt_inv {micro['ntt_inverse_ms']:8.3f} ms  "
            f"mul_mod {micro['mul_mod_ms']:8.3f} ms  "
            f"speedup {micro['ntt_speedup']:5.2f}x  "
            f"bit-identical={micro['bit_identical']}"
        )
        print(
            f"{'':7s} bsgs apply {results['bsgs'][name]['apply_ms']:8.3f} ms"
            f"   end-to-end {results['end_to_end'][name]['infer_ms']:8.3f} ms"
        )
    if "numba" not in results["backends"]:
        print("numba   not available on this host (skipped, not failed)")
    failures = check(results)
    results["failures"] = failures
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"results written to {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    if "numba" in results["backends"] and results["cpu_count"] >= 2:
        print(f"target (numba NTT >= {NTT_SPEEDUP_TARGET:.1f}x numpy): PASS")
    else:
        print("numba speedup gate: SKIPPED (numba or multi-core host "
              "not available)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
