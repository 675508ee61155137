"""One repeatable benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py --workload gemm_rot --seed 1
    python3 benchmarks/e2e/run.py --workload serve_mix --trace --trace-out t.json
    python3 benchmarks/e2e/run.py --selfcheck
    python3 benchmarks/e2e/run.py --smoke

Without ``--workload`` all four run.  Every workload runs in fresh child
interpreters, one after the other (``measure`` says why several), with
one thread per numeric library, ``REPRO_JOBS=1``, ``PYTHONHASHSEED=0``
and the default kernel backend, so memory and caches are per workload.
``--seed`` draws inputs, payloads and the arrival schedule only.
``--seconds`` multiplies the rep counts of ``workloads`` (given at
``workloads.BASE_SECONDS``, the driver's run length) and never drops
them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — with ``--trace 0`` the gated
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its
per-layer metrics.  The table above it lists every metric that applies
to the workload with unit, sample count and samples.  Any failed
operation or broken gate makes the exit code non-zero.

**Sample rule** (what PR 11 lacked; ``check_samples``): a timed metric is
reported only where one sample lasts >= 0.1 s and the run's samples
total >= 2 s; its value is a median of >= 3 samples, >= 5 when a sample
is shorter than 1 s; fewer than 3 are allowed only where each is a cold
sample of >= 5 s.  No metric is ever a copy of another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: where a traced run writes its spans unless told otherwise (ignored
#: by git)
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"benchmarks/e2e: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (SRC / "repro" / "__init__.py").is_file():
    fail(f"the program under test is missing: no package at {SRC}/repro")
sys.path.insert(0, str(SRC))

import metrics  # noqa: E402
import workloads  # noqa: E402


# -- children ------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", REPRO_JOBS="1", PYTHONHASHSEED="0")
    env.pop("REPRO_KERNEL", None)  # default (numpy) kernel backend
    return env


def spawn(role: str, args, index: int = 0, trace_out: str = "") -> dict:
    """Run one child to completion; returns what it printed."""
    command = [sys.executable, str(HERE / "run.py"), "--child", role,
               "--index", str(index), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    try:
        done = subprocess.run(command, env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"{role} child exceeded {CHILD_TIMEOUT_S} s"}
    if done.returncode != 0 or not done.stdout.strip():
        return {"crashed": f"{role} child exited {done.returncode}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(args) -> None:
    """Entry point inside a child interpreter: print one JSON result."""
    import layers
    import measure
    import serving

    workload = workloads.get(args.workload)
    scale = args.seconds / workloads.BASE_SECONDS
    if args.child == "trace":
        result = layers.run_child(workload, args.seed, scale, args.smoke,
                                  args.trace_out)
    else:
        runner = serving if args.workload == "serve_mix" else measure
        result = runner.run_child(workload, args.seed, args.index, scale,
                                  args.smoke)
    print(json.dumps(result, default=float))


# -- aggregation ---------------------------------------------------------

def check_samples(metric: metrics.EndToEnd, samples: list[float],
                  per_sample: int) -> str | None:
    """The sample rule; returns what is wrong, or None."""
    seconds = [s * metric.timed_scale * per_sample for s in samples]
    shortest, count = min(seconds), len(seconds)
    if shortest < 0.1:
        return f"a sample lasts {shortest:.3f} s (< 0.1 s)"
    if sum(seconds) < 2.0:
        return f"samples total {sum(seconds):.2f} s (< 2 s)"
    if count < 3 and shortest < 5.0:
        return f"{count} sample(s) of {shortest:.2f} s (< 3, not >= 5 s cold)"
    if count < 5 and shortest < 1.0:
        return f"{count} samples of {shortest:.2f} s (< 5 sub-second samples)"
    return None


def host_fingerprint(kernel_backend: str) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        sha = "none"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "numpy": numpy.__version__, "kernel_backend": kernel_backend,
            "git": sha}


#: what every child of a run must report alike
SAME_IN_EVERY_CHILD = ("key_mb", "key_switches", "rotation_keys",
                       "bootstraps", "kernel_backend")


def run_untraced(args) -> dict:
    """All children of one untraced run, folded into one report."""
    workload = workloads.get(args.workload)
    children = 1 if args.smoke else workload.children
    results = [spawn("measure", args, index) for index in range(children)]
    report = {"workload": args.workload, "seed": args.seed,
              "attempted": 0, "failed": 0, "violations": [], "rows": {}}

    def violation(note: str) -> None:
        report["attempted"] += 1
        report["failed"] += 1
        report["violations"].append(note)

    for result in results:
        if "crashed" in result:
            violation(result["crashed"])
            continue
        report["attempted"] += result["attempted"]
        report["failed"] += result["failed"]
        report["violations"] += result["violations"]
    if any("crashed" in result for result in results):
        return report
    samples: dict[str, list[float]] = {}
    values: dict = {}
    for result in results:
        for name, own in result["samples"].items():
            samples.setdefault(name, []).extend(own)
        for name, value in result["values"].items():
            if name in SAME_IN_EVERY_CHILD and values.get(name, value) != value:
                violation(f"{name} differs between the children of one "
                          f"run: {values[name]} != {value}")
            values[name] = value
    values["peak_rss_mb"] = max(r["values"]["peak_rss_mb"] for r in results)
    bits = [b for result in results for b in result["bits"]]
    values["precision_bits"] = statistics.fmean(bits) if bits else math.nan
    report["host"] = host_fingerprint(values["kernel_backend"])
    report["phases"] = results[-1].get("phases")
    report["checked"] = len(bits)
    for metric in metrics.END_TO_END:
        name = metric.name
        if not metrics.applies(metric, args.workload) or name == "failed_share":
            continue  # failed_share needs the final tally: below
        own = samples.get(metrics.SAMPLES_OF.get(name, name), [])
        value = values[name] if name in values else statistics.median(own)
        if metric.timed_scale and not args.smoke:
            per = (workload.compiles_per_sample
                   if name == "compile_s" else 1)
            wrong = check_samples(metric, own, per)
            if wrong:
                violation(f"{name} refused by the sample rule: {wrong}")
                continue
        report["rows"][name] = {
            "value": value, "unit": metric.unit,
            "samples": [] if name in metrics.SAMPLES_OF else own}
    report["rows"]["failed_share"] = {
        "value": report["failed"] / max(1, report["attempted"]),
        "unit": "share", "samples": []}
    return report


def run_traced(args) -> dict:
    out_path = args.trace_out or str(OUT / f"trace_{args.workload}.json")
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    result = spawn("trace", args, trace_out=out_path)
    report = {"workload": args.workload, "seed": args.seed,
              "attempted": 1, "failed": 1, "rows": {},
              "violations": [result.get("crashed", "")],
              "trace_out": out_path}
    if "crashed" in result:
        return report
    report.update(attempted=result["attempted"], failed=result["failed"],
                  violations=result["violations"], spans=result["spans"])
    for name, unit, _better, _moves in metrics.PER_LAYER:
        report["rows"][name] = {"value": result["values"][name],
                                "unit": unit, "samples": []}
    return report


# -- output --------------------------------------------------------------

def fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.6g}"


def print_report(report: dict, args) -> None:
    kind = "traced (per-layer)" if args.trace else "untraced (end-to-end)"
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"seconds={args.seconds}  {kind} ==")
    if "host" in report:
        print("host: " + "  ".join(f"{k}={v}"
                                   for k, v in report["host"].items()))
    moves = {name: m for name, _u, _b, m in metrics.PER_LAYER}
    entered = {name.split(".")[0] for name, row in report["rows"].items()
               if row["value"]}
    for name, row in report["rows"].items():
        if name in moves and name.split(".")[0] not in entered:
            continue  # a layer this workload never enters: all zeros
        line = f"  {name:<28}{fmt(row['value']):>14} {row['unit']:<6}"
        if row["samples"]:
            shown = " ".join(fmt(round(s, 4)) for s in row["samples"])
            line += f" n={len(row['samples'])} [{shown}]"
        elif name in metrics.SAMPLES_OF:
            line += f" (the {metrics.SAMPLES_OF[name]} samples)"
        elif name in moves and row["value"]:
            line += f" -> {moves[name]}"
        print(line)
    for phase, seen in (report.get("phases") or {}).items():
        print(f"  phase {phase}: sent={seen['sent']} "
              f"completed={seen['completed']} correct={seen['correct']} "
              f"wall={seen['wall_s']:.2f}s")
    if "trace_out" in report:
        print(f"  {report.get('spans', 0)} spans -> {report['trace_out']}")
    print(f"  attempted={report['attempted']} failed={report['failed']}")
    for note in report["violations"]:
        print(f"  VIOLATION: {note}")


def driver_line(report: dict, traced: bool) -> str:
    """The contract's result object: every listed metric, by name."""
    names = ([name for name, *_ in metrics.PER_LAYER] if traced
             else [m.name for m in metrics.GATED])
    listed = {name: {"value": report["rows"][name]["value"],
                     "unit": report["rows"][name]["unit"]}
              for name in names if name in report["rows"]}
    complete = len(listed) == len(names) and all(
        math.isfinite(row["value"]) for row in listed.values())
    return json.dumps({"correct": report["failed"] == 0 and complete,
                       "attempted": max(1, report["attempted"]),
                       "failed": report["failed"], "metrics": listed})


# -- modes ---------------------------------------------------------------

def run_one(args) -> dict:
    report = run_traced(args) if args.trace else run_untraced(args)
    print_report(report, args)
    return report


def run_suite(args) -> dict[str, dict]:
    reports = {}
    for name in workloads.NAMES:
        args.workload = name
        reports[name] = run_one(args)
    return reports


def selfcheck(args) -> int:
    """A/A: the suite twice on the same tree; gaps against the bounds."""
    first, second = run_suite(args), run_suite(args)
    print("== selfcheck: A/A gaps against each metric's bound ==")
    bad = 0
    for name in workloads.NAMES:
        a, b = first[name], second[name]
        bad += a["failed"] + b["failed"]
        for metric in metrics.END_TO_END:
            if metric.name not in a["rows"] or metric.name not in b["rows"]:
                bad += metrics.applies(metric, name)
                continue
            x = a["rows"][metric.name]["value"]
            y = b["rows"][metric.name]["value"]
            gap = max(metric.worse_by(x, y), metric.worse_by(y, x))
            over = gap > metric.bound
            bad += over
            kind = metric.unit if metric.absolute else "share"
            print(f"  {name:<15}{metric.name:<17}{fmt(x):>12}{fmt(y):>12}"
                  f"  gap {gap:.4g} / bound {metric.bound:g} {kind}"
                  + ("   EXCEEDED" if over else ""))
    print("selfcheck: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=workloads.BASE_SECONDS,
                        help="multiplies the rep counts given at "
                             "%(default)s, the driver's run length")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer run with spans on")
    parser.add_argument("--trace-out", default="",
                        help="Chrome-trace JSON path (default .bench_out/)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the suite twice and compare (A/A)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 rep, 3 s open phase, no sample rule")
    parser.add_argument("--child", choices=("measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.child:
        child_main(args)
        return 0
    if args.selfcheck:
        return selfcheck(args)
    if args.workload:
        report = run_one(args)
        print(driver_line(report, bool(args.trace)))
        return 1 if report["failed"] else 0
    reports = run_suite(args)
    return 1 if any(r["failed"] for r in reports.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
