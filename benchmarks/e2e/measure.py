"""The untraced measurement, run inside fresh child interpreters.

A run starts ``workload.children`` interpreters one after the other.
Every child takes the same samples in the same order — compile samples,
one cold ``setup_s`` sample, steady ``infer_s`` samples — and the parent
reports each metric as the median over the samples of all children.

Noise discipline (each rule with the measurement that motivated it):

* **Every metric is sampled in every child.**  On this 2-vCPU host the
  speed of one process drifts over seconds and differs between
  processes: medians of six steady ``gemm_rot`` inferences in six
  processes of identical code read 2.13-2.38 s.  A metric sampled in one
  process, or during one stretch of the run, inherits that; sampled in
  every child it sees the whole run.  It also makes a cold sample cheap:
  every child is a process that has never set up.
* **Drop and collect before every timed sample.**  The previous
  program / backend / outputs are released and ``gc.collect()`` runs
  before the clock starts: keygen swung 1.44-3.09 s with the old backend
  still alive and 1.54-1.75 s after a collect, and two live ResNet
  programs doubled ``peak_rss_mb`` (1551 MiB against ~690 MiB for one).
* **Discard the stated warm-ups.**  The first inference pays lazy caches
  (3.1 s against 2.2 s steady on ``gemm_rot``); that cost is what
  ``setup_s`` reports, so it is kept out of ``infer_s``.  The simulator
  is still warming on the run after it, which ``resnet_compile``
  discards.
* **Every sample list is kept** and printed next to its median by the
  parent, which also refuses a timed metric whose samples break the
  >= 0.1 s per sample / >= 2 s per run rule (``run.check_samples``).
* **Fixed inference counts, never "until the time is up"**: the sequence
  of operations, and with it the encryption randomness,
  ``precision_bits`` and the count metrics, is the same for the same
  seed.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

import numpy as np

from repro.passes.opt import bootstrap_count, key_switch_count

from workloads import Workload, scaled


class Tally:
    """Operations attempted and failed, with a note for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        #: -log2(max |out - reference|) of every checked output
        self.bits: list[float] = []

    def check_output(self, label: str, out, expected,
                     tolerance: float) -> bool:
        self.attempted += 1
        error = float(np.max(np.abs(np.ravel(out) - np.ravel(expected))))
        if not error <= tolerance:  # also catches NaN
            self.fail(f"{label}: max error {error:.3g} > {tolerance:g}",
                      counted=True)
            return False
        self.bits.append(-math.log2(max(error, 2.0**-60)))
        return True

    def fail(self, note: str, counted: bool = False) -> None:
        """Count a failed operation or a broken gate.

        ``counted``: the operation is already in ``attempted``.
        """
        if not counted:
            self.attempted += 1
        self.failed += 1
        self.violations.append(note)


def program_counts(program) -> dict[str, int]:
    return {
        "key_switches": key_switch_count(program.module),
        "rotation_keys": len(program.rotation_steps),
        "bootstraps": bootstrap_count(program.module),
    }


#: seconds of compile samples a run takes at least, over all its
#: children (the sample rule asks for 2 s)
COMPILE_TOTAL_S = 2.4


def timed_compiles(workload: Workload, blob: bytes, min_samples: int,
                   total_s: float, tally: Tally):
    """Timed compile samples; returns (seconds per compile, program).

    A sample is ``workload.compiles_per_sample`` back-to-back compiles
    and sampling goes on until ``min_samples`` of them total ``total_s``,
    so the run keeps the sample rule when compilation gets faster.
    Compilation draws no randomness, so the count does not disturb the
    run's determinism.  Every program must have the counts of the first.
    """
    per = workload.compiles_per_sample
    seconds: list[float] = []
    program = expect = None
    while len(seconds) < min_samples or sum(seconds) * per < total_s:
        program = None
        gc.collect()
        start = time.perf_counter()
        for _ in range(per):
            program = workload.compile_program(blob)
        seconds.append((time.perf_counter() - start) / per)
        tally.attempted += per
        counts = program_counts(program)
        if expect is None:
            expect = counts
        elif counts != expect:
            tally.fail("compile counts changed within the run: "
                       f"{counts} != {expect}")
    return seconds, program


def child_rng(seed: int, index: int) -> np.random.Generator:
    """The inputs of child ``index``: each child draws its own."""
    return np.random.default_rng([seed, index])


def compile_sizes(workload: Workload, scale: float,
                  smoke: bool) -> tuple[int, float]:
    """(samples at least, seconds at least) of one child's compiles."""
    if smoke:
        return 1, 0.0
    return (scaled(workload.compile, scale),
            COMPILE_TOTAL_S * scale / workload.children)


def infer_sizes(workload: Workload, scale: float,
                smoke: bool) -> tuple[int, int]:
    """(inferences discarded, inferences timed) of one child."""
    if smoke:
        return 0, 1
    return workload.infer_discard, scaled(workload.infer, scale)


def key_mib(workload: Workload, program, backend) -> float:
    """Resident evaluation-key MiB; Figure-7 model where no keys exist."""
    ctx = getattr(backend, "ctx", None)
    if ctx is not None:
        return ctx.keys.byte_size() / 2**20
    from repro.evalharness.fig7 import ace_rotation_levels
    from repro.evalharness.memmodel import MemoryModel

    model = MemoryModel(program.scheme)
    return model.ace_totals(ace_rotation_levels(program), 0, 0)["keys"] / 2**20


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_inferences(run, workload: Workload, rng, discard: int, reps: int,
                     tally: Tally) -> list[float]:
    """``infer_s`` samples of ``run(x)``, every output checked."""
    seconds = []
    for index in range(discard + reps):
        x = workload.make_input(rng)
        out = None
        gc.collect()
        start = time.perf_counter()
        out = run(x)
        elapsed = time.perf_counter() - start
        if index >= discard:
            seconds.append(elapsed)
        tally.check_output(f"inference {index}", out, workload.reference(x),
                           workload.tolerance)
    return seconds


def run_child(workload: Workload, seed: int, index: int, scale: float,
              smoke: bool) -> dict:
    """One child: compile samples, a cold set-up, steady inferences."""
    tally = Tally()
    rng = child_rng(seed, index)
    samples: dict[str, list[float]] = {}
    samples["compile_s"], program = timed_compiles(
        workload, workload.model_bytes(),
        *compile_sizes(workload, scale, smoke), tally)

    # setup_s: compiled program in hand -> first correct decrypted result
    first = workload.make_input(rng)
    gc.collect()
    start = time.perf_counter()
    backend = workload.make_backend(program)
    out = program.run(backend, first, check_plan=False)[0]
    samples["setup_s"] = [time.perf_counter() - start]
    tally.check_output("first inference", out, workload.reference(first),
                       workload.tolerance)

    samples["infer_s"] = timed_inferences(
        lambda x: program.run(backend, x, check_plan=False)[0], workload, rng,
        *infer_sizes(workload, scale, smoke), tally)
    fallbacks = getattr(backend, "rotation_fallbacks", 0)
    if fallbacks:
        tally.fail(f"{fallbacks} rotations ran without an exact key")
    values = {"key_mb": key_mib(workload, program, backend),
              "kernel_backend": program.stats["kernel_backend"],
              **program_counts(program)}
    return finish({"samples": samples, "values": values, "tally": tally})


def finish(result: dict) -> dict:
    """Fold the tally into the JSON-safe result a child prints."""
    tally: Tally = result.pop("tally")
    result["values"]["peak_rss_mb"] = peak_rss_mib()
    result.update(attempted=tally.attempted, failed=tally.failed,
                  violations=tally.violations, bits=tally.bits)
    return result
