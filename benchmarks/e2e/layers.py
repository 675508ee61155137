"""The traced run: per-layer numbers from spans around public calls.

Outside-in: ``onnx`` and ``compiler`` are read off one compile,
``polymath`` and ``ckks`` are timed calls to their public functions at
the workload's own ring degree and level count, ``backend`` and
``runtime`` come from :class:`spans.TimedBackend` spans under a
``program.run`` span, and ``serve`` from client-side spans plus
``Metrics.snapshot()`` deltas per traffic phase.

End-to-end metrics never come from here.  The run also repeats a few
untraced inferences so that ``trace.overhead_share`` — traced over
untraced, minus one — is measured, not assumed.  A layer a workload
never enters reports 0 (``polymath.*`` on ``resnet_compile``,
``serve.*`` on the inference workloads).
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from collections import Counter

import numpy as np

from repro.ckks import CkksContext
from repro.ckks.serialize import deserialize_ciphertext, serialize_ciphertext
from repro.onnx import load_model_bytes
from repro.polymath.poly import rotation_galois_element
from repro.polymath.rns import RnsPoly

import measure
import metrics
import serving
from spans import SpanRecorder, TimedBackend
from workloads import KEYGEN_SEED, Workload

#: seconds of calls behind each polymath / ckks micro-measurement
MICRO_SECONDS = 0.5

#: ``backend.<group>_s`` <- OpTrace op names
BUSY_GROUPS = {
    "rotate": ("rotate", "conjugate"),
    "mul": ("mul",),
    "relin": ("relin",),
    "rescale": ("rescale",),
    "mul_plain": ("mul_plain",),
    "add": ("add", "add_plain", "sub", "sub_plain", "negate"),
    "encode": ("encode",),
    "modswitch": ("modswitch", "upscale"),
    "bootstrap": ("bootstrap",),
    "encrypt": ("encrypt",),
    "decrypt": ("decrypt",),
}
COUNTED = ("rotate", "mul", "relin", "rescale", "mul_plain", "encode",
           "bootstrap")
REGIONS = {"Conv": "conv", "ReLU": "relu", "Bootstrap": "bootstrap"}


def median_call(fn, budget_s: float, scale: float = 1.0) -> float:
    """Median duration of ``fn()`` over ``budget_s`` seconds of calls."""
    fn()  # first call pays lazy tables and restricted-key caches
    durations = []
    spent = 0.0
    while spent < budget_s or len(durations) < 3:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        durations.append(elapsed)
        spent += elapsed
    return statistics.median(durations) * scale


def compiler_layers(workload: Workload, blob: bytes, out: dict):
    """One compile: parse time, per-IR-level pass time, IR shape."""
    gc.collect()
    start = time.perf_counter()
    load_model_bytes(blob)
    out["onnx.load_s"] = time.perf_counter() - start
    program = workload.compile_program(blob)
    timers = program.pass_timers
    for level in ("NN", "VECTOR", "SIHE", "CKKS", "POLY"):
        out[f"compiler.{level.lower()}_s"] = timers.get(level, 0.0)
    out["compiler.other_s"] = timers.get("Others", 0.0)
    stats = program.stats
    opt = stats.get("opt") or {}
    out["compiler.ir_ops"] = stats["ckks_ops"]
    out["compiler.opt_ops_removed"] = (opt.get("ops_before", 0)
                                       - opt.get("ops_after", 0))
    out["compiler.replan_rounds"] = (stats.get("levels") or {}).get(
        "rounds_run", 0)
    out["compiler.align_margin"] = stats.get("align_margin") or 0
    out["ir.stages"] = stats["schedule"].get("stages", 0)
    out["ir.max_width"] = stats["schedule"].get("max_width", 0)
    return program


def polymath_layers(params, budget_s: float, out: dict) -> None:
    """RnsBasis / RnsPoly calls on an (L+1) x N stack."""
    rng = np.random.default_rng(0)
    cipher_basis, key_basis = params.make_bases()
    a = RnsPoly.uniform_random(cipher_basis, rng)
    b = RnsPoly.uniform_random(cipher_basis, rng)
    wide = RnsPoly.uniform_random(key_basis, rng)
    galois = rotation_galois_element(1, params.poly_degree)
    calls = {
        "ntt_fwd": lambda: cipher_basis.ntt_forward(a.residues),
        "ntt_inv": lambda: cipher_basis.ntt_inverse(a.residues),
        "mul": lambda: a * b,
        "automorphism": lambda: a.automorphism(galois),
        "rescale": lambda: a.rescale_last(),
        "mod_down": lambda: wide.mod_down(params.num_special_primes),
    }
    for name, fn in calls.items():
        out[f"polymath.{name}_us"] = median_call(fn, budget_s, 1e6)


def ckks_layers(params, program, budget_s: float, bootstrap: bool,
                out: dict) -> None:
    """Keygen, then the evaluator's public methods at top level."""
    steps = list(program.rotation_steps)
    gc.collect()
    start = time.perf_counter()
    ctx = CkksContext(params, rotation_steps=steps, need_conjugation=True,
                      seed=KEYGEN_SEED)
    out["ckks.keygen_s"] = time.perf_counter() - start
    ev = ctx.evaluator
    values = np.linspace(-1, 1, params.num_slots)
    ct = ctx.encrypt(values)
    pt = ev.encode(values, scale=float(params.scale), level=ct.level)
    product = ev.multiply_plain(ct, pt)
    hoisted = steps[:8]
    cipher_basis, _ = params.make_bases()
    payload = serialize_ciphertext(ct)
    calls = {
        "encrypt": lambda: ctx.encrypt(values),
        "decrypt": lambda: ctx.decrypt(ct, params.num_slots),
        "encode": lambda: ev.encode(values, scale=float(params.scale),
                                    level=ct.level),
        "rotate": lambda: ev.rotate(ct, steps[0]),
        "rotate_hoisted8": lambda: ev.rotate_hoisted(ct, hoisted),
        "mul_relin": lambda: ev.relinearize(ev.multiply(ct, ct)),
        "mul_plain": lambda: ev.multiply_plain(ct, pt),
        "rescale": lambda: ev.rescale(product),
        "serialize": lambda: serialize_ciphertext(ct),
        "deserialize": lambda: deserialize_ciphertext(payload, cipher_basis),
    }
    for name, fn in calls.items():
        out[f"ckks.{name}_ms"] = median_call(fn, budget_s, 1e3)
    out["ckks.cipher_kb"] = len(payload) / 1024
    if bootstrap:
        refresher = ctx.make_bootstrapper()
        low = ctx.encrypt(np.full(params.num_slots, 0.2), level=0)
        out["ckks.bootstrap_s"] = median_call(
            lambda: refresher.bootstrap(low), 2 * budget_s)


def traced_inference(workload: Workload, program, backend, rng, reps: int,
                     recorder: SpanRecorder, tally: measure.Tally,
                     out: dict) -> list[float]:
    """``reps`` inferences through the proxy; fills backend.* / runtime.*."""
    proxy = TimedBackend(backend, recorder)
    # the encode cache is keyed by backend object, so the proxy starts
    # cold: one discarded run fills it again
    program.run(proxy, workload.make_input(rng), check_plan=False)
    exec_s, self_s, busy, regions, counts = [], [], [], [], []
    for rep in range(reps):
        x = workload.make_input(rng)
        gc.collect()
        backend.trace.clear()
        first_span = len(recorder.spans)
        with recorder.span("program.run") as run_span:
            proxy.parent = run_span
            result = program.run(proxy, x, check_plan=False)[0]
        proxy.parent = None
        tally.check_output(f"traced inference {rep}", result,
                           workload.reference(x), workload.tolerance)
        spans = recorder.spans[first_span + 1:]
        by_op, by_region = Counter(), Counter()
        seen = Counter()
        for span in spans:
            op = span.name.split(".", 1)[1]
            by_op[op] += span.seconds
            by_region[REGIONS.get(span.region, "other")] += span.seconds
            seen[op] += 1
        traced_ops = backend.trace.by_op()
        if dict(seen) != dict(traced_ops):
            tally.fail(
                f"span counts differ from backend.trace.by_op(): "
                f"{dict(seen)} != {dict(traced_ops)}")
        exec_s.append(recorder.spans[run_span].seconds)
        self_s.append(recorder.self_seconds(run_span))
        busy.append(by_op)
        regions.append(by_region)
        counts.append(seen)
    if any(c != counts[0] for c in counts):
        tally.fail("backend op counts changed between traced runs: "
                        + repr([dict(c) for c in counts]))

    def med(series, key_set):
        return statistics.median(
            sum(row[k] for k in key_set) for row in series)

    for group, ops in BUSY_GROUPS.items():
        out[f"backend.{group}_s"] = med(busy, ops)
    for op in COUNTED:
        out[f"backend.n_{op}"] = counts[0][op]
    for region in ("conv", "relu", "bootstrap", "other"):
        out[f"backend.region_{region}_s"] = med(regions, (region,))
    out["backend.rotation_fallbacks"] = getattr(
        backend, "rotation_fallbacks", 0)
    out["runtime.exec_s"] = statistics.median(exec_s)
    out["runtime.self_s"] = statistics.median(self_s)
    out["runtime.self_share"] = out["runtime.self_s"] / out["runtime.exec_s"]
    return exec_s


def untraced_inference(workload: Workload, program, backend, rng, reps: int,
                       tally: measure.Tally, jobs: int = 1) -> list[float]:
    return measure.timed_inferences(
        lambda x: program.run(backend, x, check_plan=False, jobs=jobs)[0],
        workload, rng, 0, reps, tally)


def inference_layers(workload: Workload, program, backend, first_s: float,
                     rng, reps: int, discard: int, recorder: SpanRecorder,
                     tally: measure.Tally, out: dict) -> None:
    """backend.*, runtime.* and trace.overhead_share for one program."""
    untraced_inference(workload, program, backend, rng, discard, tally)
    untraced = untraced_inference(workload, program, backend, rng, reps,
                                  tally)
    traced = traced_inference(workload, program, backend, rng, reps,
                              recorder, tally, out)
    steady = statistics.median(untraced)
    out["runtime.first_run_extra_s"] = first_s - steady
    out["trace.overhead_share"] = statistics.median(traced) / steady - 1.0
    if workload.name == "gemm_rot":
        nproc = os.cpu_count() or 1
        wide = untraced_inference(workload, program, backend, rng,
                                  max(2, reps - 1), tally, jobs=nproc)
        out["runtime.jobs_speedup"] = steady / statistics.median(wide)


def serve_layers(workload, served: serving.Served, rng, scale: float,
                 smoke: bool, tally: measure.Tally, out: dict) -> None:
    """serve.*: per-phase server counters and client-side spans."""
    out["serve.register_s"] = served.register_s
    single = served.single_requests(rng, 1 if smoke else 5)
    seconds, requests, round_trips = serving.phase_sizes(workload, scale,
                                                         smoke)
    opened = served.open_phase(rng, seconds)
    sat = served.sat_phase(rng, requests)
    wire = served.wire_phase(rng, round_trips)
    serving.open_phase_gates(opened, tally)
    batch_exec_ms = sat.mean("serve_batch_exec_s") * 1e3
    out["serve.batch_occupancy_open"] = opened.mean("serve_batch_occupancy")
    out["serve.batch_occupancy_sat"] = sat.mean("serve_batch_occupancy")
    out["serve.batches_open"] = opened.counter("serve_batches_total")
    out["serve.batches_sat"] = sat.counter("serve_batches_total")
    out["serve.batch_exec_ms"] = batch_exec_ms
    out["serve.queue_wait_ms"] = (
        opened.mean("serve_request_latency_s")
        - opened.mean("serve_batch_exec_s")) * 1e3
    out["serve.gen_late_ms"] = serving.percentile(opened.late_ms, 90)
    phases = (opened, sat, wire)
    for name, counter in (("rejected", "serve_requests_rejected_total"),
                          ("timeouts", "serve_requests_timeout_total"),
                          ("bisections", "serve_batch_bisections"),
                          ("repacks", "serve_batch_repacks")):
        out[f"serve.{name}"] = sum(p.counter(counter) for p in phases)
    out["serve.bytes_in_per_req"] = (
        wire.counter("serve_bytes_in_total") / max(1, wire.completed))
    out["serve.bytes_out_per_req"] = (
        wire.counter("serve_bytes_out_total") / max(1, wire.completed))
    out["serve.client_encrypt_ms"] = statistics.median(wire.encrypt_ms)
    out["serve.client_decrypt_ms"] = statistics.median(wire.decrypt_ms)
    rtt = statistics.median(wire.latency_ms)
    out["serve.wire_overhead_ms"] = rtt - statistics.median(single)
    out["serve.rps_sat"] = sat.completed / sat.wall_s
    out["serve.p50_open_ms"] = serving.percentile(opened.latency_ms, 50)
    out["serve.p90_open_ms"] = serving.percentile(opened.latency_ms, 90)
    out["serve.rtt_wire_ms"] = rtt


def run_child(workload: Workload, seed: int, scale: float, smoke: bool,
              trace_out: str) -> dict:
    """The whole traced run of one workload; returns per-layer values."""
    out = {name: 0.0 for name, *_ in metrics.PER_LAYER}
    tally = measure.Tally()
    recorder = SpanRecorder()
    rng = np.random.default_rng(seed)
    budget = 0.05 if smoke else MICRO_SECONDS
    reps = 1 if smoke else min(3, workload.infer + 1)
    discard = 0 if smoke else workload.infer_discard
    blob = workload.model_bytes()
    program = compiler_layers(workload, blob, out)
    if workload.params is not None:
        polymath_layers(workload.params, budget, out)
        ckks_layers(workload.params, program, budget,
                    bootstrap=program.needs_bootstrap, out=out)
    if workload.name == "serve_mix":
        served = serving.Served(workload, tally, recorder)
        program, backend = served.entry.program, served.entry.backend
    else:
        served = None
        backend = workload.make_backend(program)
    try:
        # the first inference on a new backend pays the lazy caches
        first = workload.make_input(rng)
        start = time.perf_counter()
        result = program.run(backend, first, check_plan=False)[0]
        first_s = time.perf_counter() - start
        tally.check_output("first inference", result,
                           workload.reference(first), workload.tolerance)
        if served is not None:
            serve_layers(workload, served, rng, scale, smoke, tally, out)
        inference_layers(workload, program, backend, first_s, rng, reps,
                         discard, recorder, tally, out)
    finally:
        if served is not None:
            served.stop()
    recorder.write_chrome_trace(trace_out)
    result = {"samples": {}, "values": out, "tally": tally,
              "spans": len(recorder.spans)}
    return measure.finish(result)
