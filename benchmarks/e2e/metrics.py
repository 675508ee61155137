"""Every metric the benchmark reports: name, unit, direction, bound.

``END_TO_END`` is what a user of the system sees; ``PER_LAYER`` is what
the traced run attributes to single layers.  ``BENCHMARK.json`` carries
the per-layer list and the *gated* end-to-end subset — the metrics that
every workload measures for real (see README "Which metrics are gated").

A bound is the share of the first value by which the second may be worse
before ``--selfcheck`` (or the driver) calls it a regression; an
``absolute`` bound is in the metric's own unit.  Timed metrics carry
0.25: on this shared 2-vCPU host the speed of everything drifts by
+-10 % over minutes (runs of identical code read 3.3-4.1 s ``infer_s``
on ``relu_boot`` within one hour, 1.6-3.9 % apart in a quiet quarter of
it), so a tighter bound would reject the host, not the change.
``EXACT`` is the bound of counts, which must not move at all: any change
of an integer count is a larger share than this.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = ("gemm_rot", "relu_boot", "resnet_compile", "serve_mix")
EXACT = 1e-6


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple[str, ...]
    why: str
    absolute: bool = False
    #: a timed metric whose samples must obey the sample rule; the factor
    #: converts one sample to seconds
    timed_scale: float | None = None
    #: listed in BENCHMARK.json: every workload measures it for real
    gated: bool = False

    def worse_by(self, first: float, second: float) -> float:
        """How much worse ``second`` is than ``first``, in bound units."""
        delta = second - first if self.better == "lower" else first - second
        if self.absolute or first == 0:
            return delta
        return delta / abs(first)


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "cold set-up in a fresh interpreter: compiled program in hand "
             "to first correct decrypted result (keygen + lazy caches + "
             "first inference; serve_mix: register + server start + first "
             "reply), so work moved into set-up shows",
             timed_scale=1.0, gated=True),
    EndToEnd("compile_s", "s", "lower", 0.25, ALL,
             "load_model_bytes + ACECompiler.compile(): ANT-ACE Figure 5",
             timed_scale=1.0, gated=True),
    EndToEnd("infer_s", "s", "lower", 0.25, ALL,
             "program.run(): pack, encrypt, execute at jobs=1, decrypt, "
             "unpack — ANT-ACE Figure 6's per-image time",
             timed_scale=1.0, gated=True),
    EndToEnd("serve_rps", "1/s", "higher", 0.25, ("serve_mix",),
             "sat phase: requests completed per wall second with the "
             "batch window full"),
    EndToEnd("serve_p50_ms", "ms", "lower", 0.25, ("serve_mix",),
             "open phase: median latency from each request's due time"),
    EndToEnd("serve_p90_ms", "ms", "lower", 0.25, ("serve_mix",),
             "open phase: the highest percentile with >= 10 samples "
             "beyond it at --seconds 60 (126 requests)"),
    EndToEnd("serve_slo_share", "share", "higher", 0.02, ("serve_mix",),
             "open phase: share of sent requests answered correctly "
             "inside the SLO; failed, refused and shed requests miss",
             absolute=True),
    EndToEnd("wire_rtt_ms", "ms", "lower", 0.25, ("serve_mix",),
             "wire phase: median encrypt -> infer -> decrypt round trip "
             "over loopback", timed_scale=1e-3),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05, ALL,
             "ru_maxrss of the measuring child: ANT-ACE Figure 7's memory",
             gated=True),
    EndToEnd("key_mb", "MiB", "lower", EXACT, ALL,
             "evaluation-key memory, the share Figure 7 says dominates "
             "(resnet_compile: the Figure-7 memory model over the program's "
             "rotation steps and levels, because SimBackend holds no keys)",
             gated=True),
    EndToEnd("key_switches", "count", "lower", EXACT, ALL,
             "key-switch-bearing ops in the final IR", gated=True),
    EndToEnd("rotation_keys", "count", "lower", EXACT, ALL,
             "rotation steps the final IR needs keys for",
             gated=True),
    EndToEnd("bootstraps", "count", "lower", EXACT,
             ("relu_boot", "resnet_compile"),
             "refresh ops in the final IR"),
    EndToEnd("precision_bits", "bits", "higher", 0.25, ALL,
             "mean over checked outputs of -log2(max |output - "
             "independent reference|)", gated=True),
    EndToEnd("failed_share", "share", "lower", EXACT, ALL,
             "operations that raised, timed out, were refused or missed "
             "the output tolerance, over operations attempted",
             absolute=True),
)

#: metrics whose sample list is another metric's
SAMPLES_OF = {"serve_p90_ms": "serve_p50_ms"}

#: (name, unit, better, end-to-end metric it should move and where)
PER_LAYER = (
    ("onnx.load_s", "s", "lower", "compile_s on resnet_compile"),
    ("compiler.nn_s", "s", "lower", "compile_s"),
    ("compiler.vector_s", "s", "lower", "compile_s on resnet_compile"),
    ("compiler.sihe_s", "s", "lower", "compile_s"),
    ("compiler.ckks_s", "s", "lower",
     "compile_s on resnet_compile (~66 %) and relu_boot (~70 %)"),
    ("compiler.poly_s", "s", "lower", "compile_s on resnet_compile"),
    ("compiler.other_s", "s", "lower", "compile_s"),
    ("compiler.ir_ops", "count", "lower", "infer_s through the counts"),
    ("compiler.opt_ops_removed", "count", "higher",
     "key_switches, infer_s"),
    ("compiler.replan_rounds", "count", "lower", "compile_s, bootstraps"),
    ("compiler.align_margin", "count", "lower", "bootstraps, infer_s"),
    ("ir.stages", "count", "lower", "infer_s at jobs > 1"),
    ("ir.max_width", "count", "higher", "runtime.jobs_speedup"),
    ("polymath.ntt_fwd_us", "us", "lower", "infer_s on gemm_rot"),
    ("polymath.ntt_inv_us", "us", "lower", "infer_s on gemm_rot"),
    ("polymath.mul_us", "us", "lower", "infer_s on gemm_rot"),
    ("polymath.automorphism_us", "us", "lower", "infer_s on gemm_rot"),
    ("polymath.rescale_us", "us", "lower", "infer_s on gemm_rot"),
    ("polymath.mod_down_us", "us", "lower", "infer_s on gemm_rot"),
    ("ckks.keygen_s", "s", "lower", "setup_s, key_mb"),
    ("ckks.encrypt_ms", "ms", "lower", "infer_s, wire_rtt_ms"),
    ("ckks.decrypt_ms", "ms", "lower", "infer_s, wire_rtt_ms"),
    ("ckks.encode_ms", "ms", "lower", "setup_s (first-run encodes)"),
    ("ckks.rotate_ms", "ms", "lower",
     "infer_s on gemm_rot (94 x rotate ~ the run), serve_rps"),
    ("ckks.rotate_hoisted8_ms", "ms", "lower", "infer_s on relu_boot"),
    ("ckks.mul_relin_ms", "ms", "lower", "infer_s on relu_boot"),
    ("ckks.mul_plain_ms", "ms", "lower", "infer_s on gemm_rot, serve_rps"),
    ("ckks.rescale_ms", "ms", "lower", "infer_s"),
    ("ckks.bootstrap_s", "s", "lower", "infer_s on relu_boot"),
    ("ckks.serialize_ms", "ms", "lower", "wire_rtt_ms"),
    ("ckks.deserialize_ms", "ms", "lower", "wire_rtt_ms"),
    ("ckks.cipher_kb", "KiB", "lower", "wire_rtt_ms"),
    ("backend.rotate_s", "s", "lower", "infer_s on gemm_rot"),
    ("backend.mul_s", "s", "lower", "infer_s on relu_boot"),
    ("backend.relin_s", "s", "lower", "infer_s on relu_boot"),
    ("backend.rescale_s", "s", "lower", "infer_s"),
    ("backend.mul_plain_s", "s", "lower", "infer_s"),
    ("backend.add_s", "s", "lower", "infer_s"),
    ("backend.encode_s", "s", "lower", "setup_s, infer_s"),
    ("backend.modswitch_s", "s", "lower", "infer_s"),
    ("backend.bootstrap_s", "s", "lower", "infer_s on relu_boot"),
    ("backend.encrypt_s", "s", "lower", "infer_s"),
    ("backend.decrypt_s", "s", "lower", "infer_s"),
    ("backend.n_rotate", "count", "lower", "key_switches, infer_s"),
    ("backend.n_mul", "count", "lower", "infer_s"),
    ("backend.n_relin", "count", "lower", "key_switches, infer_s"),
    ("backend.n_rescale", "count", "lower", "infer_s"),
    ("backend.n_mul_plain", "count", "lower", "infer_s"),
    ("backend.n_encode", "count", "lower", "infer_s"),
    ("backend.n_bootstrap", "count", "lower", "bootstraps, infer_s"),
    ("backend.rotation_fallbacks", "count", "lower", "infer_s"),
    ("backend.region_conv_s", "s", "lower", "infer_s (Figure 6 Conv)"),
    ("backend.region_relu_s", "s", "lower", "infer_s (Figure 6 ReLU)"),
    ("backend.region_bootstrap_s", "s", "lower",
     "infer_s (Figure 6 Bootstrap)"),
    ("backend.region_other_s", "s", "lower", "infer_s (Figure 6 Other)"),
    ("runtime.exec_s", "s", "lower", "infer_s"),
    ("runtime.self_s", "s", "lower",
     "infer_s on relu_boot and resnet_compile"),
    ("runtime.self_share", "share", "lower",
     "infer_s on relu_boot and resnet_compile"),
    ("runtime.first_run_extra_s", "s", "lower", "setup_s"),
    ("runtime.jobs_speedup", "x", "higher",
     "infer_s at jobs=nproc on gemm_rot (recorded, not gated)"),
    ("trace.overhead_share", "share", "lower", "none: cost of tracing"),
    ("serve.register_s", "s", "lower", "setup_s on serve_mix"),
    ("serve.batch_occupancy_open", "count", "higher", "serve_p50_ms"),
    ("serve.batch_occupancy_sat", "count", "higher", "serve_rps"),
    ("serve.batches_open", "count", "lower", "serve_p50_ms"),
    ("serve.batches_sat", "count", "lower", "serve_rps"),
    ("serve.batch_exec_ms", "ms", "lower",
     "serve_rps (= occupancy_sat / batch_exec), serve_p50_ms"),
    ("serve.queue_wait_ms", "ms", "lower",
     "serve_p50_ms (= batch_exec + queue_wait)"),
    ("serve.gen_late_ms", "ms", "lower", "none: validity of the open loop"),
    ("serve.rejected", "count", "lower", "serve_slo_share, failed_share"),
    ("serve.timeouts", "count", "lower", "serve_slo_share, failed_share"),
    ("serve.bisections", "count", "lower", "serve_rps"),
    ("serve.repacks", "count", "lower", "serve_rps"),
    ("serve.bytes_in_per_req", "B", "lower", "wire_rtt_ms"),
    ("serve.bytes_out_per_req", "B", "lower", "wire_rtt_ms"),
    ("serve.client_encrypt_ms", "ms", "lower", "wire_rtt_ms"),
    ("serve.client_decrypt_ms", "ms", "lower", "wire_rtt_ms"),
    ("serve.wire_overhead_ms", "ms", "lower",
     "wire_rtt_ms: what a transport change may move, a ckks one may not"),
    ("serve.rps_sat", "1/s", "higher", "serve_rps (traced-run view)"),
    ("serve.p50_open_ms", "ms", "lower", "serve_p50_ms (traced-run view)"),
    ("serve.p90_open_ms", "ms", "lower", "serve_p90_ms (traced-run view)"),
    ("serve.rtt_wire_ms", "ms", "lower", "wire_rtt_ms (traced-run view)"),
)

GATED = tuple(m for m in END_TO_END if m.gated)


def applies(metric: EndToEnd, workload: str) -> bool:
    return workload in metric.workloads
