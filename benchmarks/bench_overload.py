"""Overload control under sustained 3x load: queue, batch, re-pack.

Two segments against the in-process serving stack:

* **soak** — ``repro.chaos.soak``: calibrate single-load capacity and
  unloaded p95 closed-loop, then offer ``3x capacity`` open-loop for a
  fixed wall-clock with a seeded fault plan installed (poisoned
  requests, executor job exceptions, backend latency spikes).  The
  bounded queue and the deadline drop are the only admission rule;
  containment means overload surfaces as typed transient rejections,
  never as wrong answers or unclassified failures.
* **repack** — a poisoned batch of size B: the chaos-attributed culprit
  fails alone and the healthy B-1 are re-executed as ONE batch whose
  payload bytes are bit-identical to directly executing those B-1
  requests — one extra execution.

Acceptance targets (the repo's bench_serve_router.py convention:
load-dependent gates are live only on hosts with >= 2 usable cores,
because on one core the open-loop load generator and the worker threads
contend for the same interpreter and the measured capacity is not
available during the soak; a 1-core box still measures and records
``load_gated: false``):

* goodput >= 70% of calibrated capacity under 3x offered load (>= 2
  cores);
* admitted requests' p95 <= 2x the unloaded p95 (>= 2 cores);
* zero non-transient client errors across the whole soak (every host);
* the repack segment recovers exactly B-1 healthy requests with at most
  one re-execution and bit-identical payloads (every host).

Results are written to ``BENCH_overload.json`` (override with ``--out``).
Run:  PYTHONPATH=src python benchmarks/bench_overload.py [--quick]
"""

import argparse
import json
import os
from dataclasses import replace

from repro import chaos
from repro.chaos.soak import SoakConfig, build_soak_registry, render, run_soak
from repro.errors import ChaosError
from repro.serve import InferenceWorker, Metrics, execute_batch
from repro.serve.batcher import PendingRequest


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def bench_repack(entry) -> dict:
    """One poisoned batch of size B through the worker's repack path."""
    import numpy as np

    batch = entry.max_batch
    rng = np.random.default_rng(9)
    cts = [entry.encryptor(entry.backend, rng.uniform(-1, 1, size=(1, 24)))
           for _ in range(batch)]
    reqs = [PendingRequest(i + 1, "bench", entry.fingerprint, entry, ct)
            for i, ct in enumerate(cts)]
    reqs[0].poisoned = True  # the attributable culprit

    metrics = Metrics()
    with InferenceWorker(metrics=metrics, num_threads=1) as worker:
        worker._execute(list(reqs))
    responses = [r.future.result(timeout=30) for r in reqs]
    counters = metrics.snapshot()["counters"]

    # the reference: directly executing the same B-1 healthy ciphertexts
    direct = execute_batch(entry, [
        PendingRequest(100 + i, "ref", entry.fingerprint, entry, ct)
        for i, ct in enumerate(cts[1:])
    ])
    healthy = responses[1:]
    return {
        "batch": batch,
        "culprit_failed_typed": (not responses[0].ok
                                 and responses[0].error
                                 == ChaosError.__name__),
        "healthy_recovered": sum(1 for r in healthy if r.ok),
        "payloads_bit_identical": all(
            r.ok and r.payload == d.payload and r.slot_offset == d.slot_offset
            for r, d in zip(healthy, direct)),
        "repacks": counters.get("serve_batch_repacks", 0),
        "re_executions": counters.get("serve_batches_total", 0),
    }


def bench(duration_s: float, calibration_requests: int) -> dict:
    registry, _ = build_soak_registry(max_batch=8)
    entry = registry.get("gemm")

    config = replace(SoakConfig(), duration_s=duration_s,
                     calibration_requests=calibration_requests)
    report = run_soak(config, entry=entry)
    print(render(report))
    print()

    # the soak leaves no injector installed (chaos.active restores), so
    # the repack segment's poisoning is the explicit flag, not chaos
    assert chaos.current() is None
    repack = bench_repack(entry)

    stats = {
        "soak": report,
        "repack": repack,
        "goodput_fraction": report["goodput_fraction_of_capacity"],
        "admitted_p95_over_unloaded": report["admitted_p95_over_unloaded"],
        "non_transient_errors": report["non_transient_errors"],
        "usable_cpus": _usable_cpus(),
    }
    stats["load_gated"] = stats["usable_cpus"] >= 2
    return stats


def check(stats) -> list:
    failures = []
    if stats["load_gated"]:
        if stats["goodput_fraction"] < 0.70:
            failures.append(
                f"goodput under 3x overload must stay >= 70% of calibrated "
                f"capacity, got {stats['goodput_fraction'] * 100:.0f}%")
        if stats["admitted_p95_over_unloaded"] > 2.0:
            failures.append(
                f"admitted requests' p95 must stay <= 2x unloaded, got "
                f"{stats['admitted_p95_over_unloaded']:.2f}x")
    if stats["non_transient_errors"] > 0:
        failures.append(
            f"soak leaked {stats['non_transient_errors']} non-transient "
            f"client error(s); overload must surface as typed transient "
            f"rejections only")
    repack = stats["repack"]
    if not repack["culprit_failed_typed"]:
        failures.append("poisoned culprit did not fail with its typed error")
    if repack["healthy_recovered"] != repack["batch"] - 1:
        failures.append(
            f"repack must recover all B-1 healthy requests, got "
            f"{repack['healthy_recovered']}/{repack['batch'] - 1}")
    if not repack["payloads_bit_identical"]:
        failures.append(
            "repacked payloads differ from directly executing the same "
            "B-1 requests")
    if repack["repacks"] != 1 or repack["re_executions"] > 1:
        failures.append(
            f"expected exactly 1 repack costing at most one re-execution, "
            f"got {repack['repacks']} repack(s), "
            f"{repack['re_executions']} re-execution(s)")
    return failures


def test_overload_contained_and_repack_recovers():
    stats = bench(duration_s=2.0, calibration_requests=24)
    failures = check(stats)
    assert not failures, "; ".join(failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workload")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="soak open-loop phase seconds")
    parser.add_argument("--out", default="BENCH_overload.json",
                        help="JSON results path")
    args = parser.parse_args()
    duration = 4.0 if args.quick else args.duration
    calibration = 32 if args.quick else 48

    stats = bench(duration, calibration)
    failures = check(stats)
    stats["pass"] = not failures

    with open(args.out, "w") as fh:
        json.dump(stats, fh, indent=2)

    gate = ("targets >= 70% goodput, <= 2.00x p95" if stats["load_gated"]
            else f"load gates off: {stats['usable_cpus']} usable core(s)")
    print(f"goodput:         {stats['goodput_fraction'] * 100:7.0f}% of "
          f"capacity  ({gate})")
    print(f"admitted p95:    {stats['admitted_p95_over_unloaded']:7.2f}x "
          f"unloaded")
    print(f"non-transient:   {stats['non_transient_errors']:7d}")
    repack = stats["repack"]
    print(f"repack:          {repack['healthy_recovered']}/"
          f"{repack['batch'] - 1} healthy recovered in "
          f"{repack['re_executions']} re-execution(s), bit-identical="
          f"{repack['payloads_bit_identical']}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"verdict:         {'PASS' if stats['pass'] else 'FAIL'}")
    raise SystemExit(0 if stats["pass"] else 1)


if __name__ == "__main__":
    main()
