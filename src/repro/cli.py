"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile`` — compile an ONNX model: emits the generated Python program,
  the external weights file, the client encryptor/decryptor tools and a
  compilation report (the §3.4 artifact set).
* ``run`` — compile and execute one encrypted inference on the simulation
  backend with a random (or ``.npy``) input.
* ``report`` — regenerate the paper's figures/tables
  (same as ``python -m repro.evalharness.report``).
* ``serve`` — compile a model once and serve encrypted inference over a
  local socket, with cross-request CKKS slot batching (``repro.serve``);
  ``--shard`` starts an empty router-managed shard instead.
* ``router`` — scale-out serving: spawn N shard processes and route the
  same wire protocol to them with key-memory-aware placement
  (``repro.serve.router``).
* ``client`` — connect to a running server, encrypt inputs locally, and
  run the Figure-2 protocol over the wire.
* ``soak`` — seeded long-running overload + fault-injection scenario
  against an in-process server; prints a containment report and exits
  nonzero if any client saw a non-transient error (``repro.chaos.soak``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def _add_compile_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", help="path to an .onnx file")
    parser.add_argument("--sign-iterations", type=int, default=4)
    parser.add_argument("--no-bootstrap", action="store_true")
    parser.add_argument("--batch-size", type=int, default=1)
    parser.add_argument("--gemm-strategy", default="auto",
                        choices=("auto", "dedup", "bsgs"))
    parser.add_argument("--poly-mode", default="stats",
                        choices=("off", "stats", "full"))
    parser.add_argument("--opt-level", type=int, default=2,
                        choices=(0, 1, 2),
                        help="op-reduction optimizer: 0 = raw lowering, "
                             "1 = bit-exact rewrites (CSE, dedup, folds), "
                             "2 = + rotation composition, lazy relin, "
                             "rescale sinking (default)")
    parser.add_argument("--layout-tune", default="heuristic",
                        choices=("heuristic", "search"),
                        help="packing/BSGS layout selection: 'heuristic' "
                             "keeps the fixed rules and records the "
                             "modeled cost (default), 'search' runs the "
                             "cost-model-driven per-layer autotuner")


def _options_from(args):
    from repro.compiler import CompileOptions

    return CompileOptions(
        sign_iterations=args.sign_iterations,
        bootstrap_enabled=not args.no_bootstrap,
        batch_size=args.batch_size,
        gemm_strategy=args.gemm_strategy,
        poly_mode=args.poly_mode,
        opt_level=args.opt_level,
        layout_tune=args.layout_tune,
    )


def _layout_summary_line(program) -> str | None:
    """One-line layout-autotune summary (None when nothing to report)."""
    layout = program.stats.get("layout")
    if not layout or layout.get("mode") is None:
        return None
    line = f"layout: mode {layout['mode']}"
    plan = layout.get("plan")
    if plan:
        line += f", {len(plan)} override(s)"
    speedup = layout.get("predicted_vector_speedup")
    if speedup:
        line += f", predicted vector speedup {speedup:.2f}x"
    predicted = layout.get("predicted_seconds")
    if predicted is not None:
        line += f", predicted {predicted:.3f}s"
    measured = layout.get("measured_seconds")
    if measured is not None:
        line += f", measured {measured:.3f}s"
    return line


def _refresh_text(levels: dict) -> str:
    """The final IR's refresh count and targets, from
    ``program.stats['levels']``."""
    return (f"refreshes: {levels.get('bootstraps', 0)}, targets "
            f"{levels.get('targets', [])}")


def _opt_summary_line(program) -> str:
    """One-line optimizer summary, e.g. for ``repro run`` logs."""
    opt = program.stats.get("opt", {})
    before = opt.get("key_switches_before")
    after = opt.get("key_switches_after")
    if before is None or not before:
        return (f"opt: level {opt.get('opt_level', '?')}, "
                f"no rewrites recorded")
    saved = 100.0 * (before - after) / before
    line = (f"opt: level {opt['opt_level']}, key switches "
            f"{before} -> {after} (-{saved:.1f}%), ops "
            f"{opt['ops_before']} -> {opt['ops_after']}")
    levels = program.stats.get("levels", {})
    if levels.get("bootstraps"):
        line += f"; {_refresh_text(levels)}"
    return line


def _explain_table(program) -> str:
    """Per-pass op-delta table from ``program.stats['opt']``, followed by
    the final IR's refreshes (``program.stats['levels']``)."""
    rows = program.stats.get("opt", {}).get("rows", [])
    if not rows:
        return "no optimizer passes ran (--opt-level 0)"
    header = (f"{'stage':<6} {'pass':<18} {'rewrites':>8} "
              f"{'ops':>12} {'key-switches':>14} {'levels':>10} "
              f"{'bootstraps':>12} {'visited':>8} {'seconds':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['stage']:<6} {row['pass']:<18} {row['rewrites']:>8} "
            f"{row['ops_before']:>5} -> {row['ops_after']:<4} "
            f"{row['key_switches_before']:>6} -> {row['key_switches_after']:<5} "
            f"{row['level_span_before']:>4} -> {row['level_span_after']:<3} "
            f"{row.get('bootstraps_before', 0):>5} -> "
            f"{row.get('bootstraps_after', 0):<4} "
            f"{row.get('visited', 0):>8} {row.get('seconds', 0.0):>8.3f}"
        )
    lines += ["", _refresh_text(program.stats.get("levels", {}))]
    return "\n".join(lines)


def _compile(args) -> int:
    from repro.codegen import write_python_package
    from repro.compiler import ACECompiler
    from repro.compiler.artifacts import write_client_tools
    from repro.onnx import load_model

    out_dir = Path(args.output)
    program = ACECompiler(load_model(args.model),
                          _options_from(args)).compile()
    py_path = write_python_package(program.module, out_dir, "fhe_program")
    tools_path = write_client_tools(program, out_dir)
    report = {
        "model": str(args.model),
        "selection": program.selection.table10_row(),
        "scheme": {
            "poly_degree": program.scheme.poly_degree,
            "levels": program.scheme.num_levels,
            "scale_bits": program.scheme.scale_bits,
        },
        "ckks_ops": program.stats["ckks_ops"],
        "rotation_keys": len(program.rotation_steps),
        "opt": program.stats.get("opt", {}),
        "levels": program.stats.get("levels", {}),
        "layout": program.stats.get("layout", {}),
        "compile_seconds": {
            k: round(v, 3) for k, v in program.pass_timers.items()
        },
    }
    if "poly" in program.stats:
        report["poly_ir_lines"] = program.stats["poly"].get("poly_ir_lines")
    (out_dir / "report.json").write_text(json.dumps(report, indent=2))
    print(f"generated program: {py_path}")
    print(f"client tools:      {tools_path}")
    print(f"report:            {out_dir / 'report.json'}")
    if args.explain:
        print(_explain_table(program))
    print(_opt_summary_line(program))
    layout_line = _layout_summary_line(program)
    if layout_line:
        print(layout_line)
    print(json.dumps(report["selection"]))
    return 0


def _install_chaos(args) -> None:
    """Activate fault injection from ``--chaos-seed``/``--chaos-spec``.

    The environment variable ``REPRO_CHAOS`` (handled at import time by
    :mod:`repro.chaos`) offers the same knob to uninstrumented entry
    points; the explicit flags win when both are present.
    """
    from repro import chaos

    spec = getattr(args, "chaos_spec", None)
    seed = getattr(args, "chaos_seed", None)
    if spec:
        chaos.install(chaos.ChaosPlan.from_spec(spec))
    elif seed is not None:
        chaos.install(chaos.ChaosPlan.default(seed))


def _add_chaos_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="enable the default deterministic "
                             "fault-injection plan with this seed "
                             "(repro.chaos)")
    parser.add_argument("--chaos-spec", default=None,
                        help="full chaos spec, e.g. "
                             "'seed=42;wire.reset=0.05@4' "
                             "(overrides --chaos-seed)")


def _install_kernel(args) -> None:
    """Select the NTT/RNS kernel backend from ``--kernel`` and warm it up.

    Without the flag the process keeps the lazy default
    (``$REPRO_KERNEL`` or numpy, resolved on first use).  JIT backends
    are warmed immediately so the first inference never pays
    compilation latency.
    """
    choice = getattr(args, "kernel", None)
    if choice is None:
        return
    from repro.polymath import kernels

    backend = kernels.set_backend(choice)
    seconds = kernels.warmup()
    if backend.jit:
        print(f"kernel backend: {backend.name} "
              f"(warmed up in {seconds:.2f}s)")


def _add_kernel_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", default=None,
                        choices=("numpy", "numba", "pyloops", "auto"),
                        help="NTT/RNS kernel backend (default: "
                             "$REPRO_KERNEL or numpy); 'auto' probes "
                             "numba and falls back to numpy with a "
                             "warning")


def _run(args) -> int:
    import time

    from repro.compiler import ACECompiler
    from repro.onnx import load_model

    _install_chaos(args)
    _install_kernel(args)
    program = ACECompiler(load_model(args.model),
                          _options_from(args)).compile()
    shape = program.input_layouts[0].shape
    if args.input:
        tensor = np.load(args.input)
    else:
        tensor = np.random.default_rng(args.seed).normal(size=shape) * 0.5
    print(_opt_summary_line(program))
    backend = program.make_sim_backend(seed=args.seed)
    started = time.perf_counter()
    outputs = program.run(backend, tensor, check_plan=False)
    program.note_measured_seconds(time.perf_counter() - started)
    layout_line = _layout_summary_line(program)
    if layout_line:
        print(layout_line)
    for index, out in enumerate(outputs):
        print(f"output[{index}]: {np.round(out.ravel(), 5).tolist()}")
    return 0


def _serve_params(args):
    from repro.ckks import CkksParameters

    return CkksParameters(
        poly_degree=args.poly_degree,
        scale_bits=args.scale_bits,
        first_prime_bits=args.first_prime_bits,
        num_levels=args.levels,
    )


def _serve(args) -> int:
    from repro.serve import InferenceServer, ModelRegistry, ShardServer

    _install_chaos(args)
    _install_kernel(args)
    registry = ModelRegistry()
    if not args.shard:
        if not args.model:
            print("error: a model path is required unless --shard is given",
                  file=sys.stderr)
            return 2
        model_id = args.model_id or Path(args.model).stem
        entry = registry.register(
            model_id, str(args.model), params=_serve_params(args),
            max_batch=args.batch_size, seed=args.seed,
            layout_tune=args.layout_tune,
        )
    # shard mode: an empty server whose models (and secret-free
    # evaluation keys) are pushed over the wire by a router
    server_cls = ShardServer if args.shard else InferenceServer
    server = server_cls(
        registry, host=args.host, port=args.port,
        num_threads=args.workers, queue_size=args.queue_size,
        max_wait_s=args.max_wait_ms / 1000.0,
        request_timeout_s=args.timeout_s,
    )
    if args.shard:
        print(f"shard ready on {server.host}:{server.port} "
              "(models arrive via register_model)")
    else:
        print(f"serving model {model_id!r} on {server.host}:{server.port} "
              f"(fingerprint {entry.fingerprint}, "
              f"batch up to {entry.max_batch} requests/ciphertext)")
    if args.port_file:
        Path(args.port_file).write_text(str(server.port))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _router(args) -> int:
    from repro.serve import RouterServer

    _install_chaos(args)
    _install_kernel(args)
    router = RouterServer(
        num_shards=args.shards,
        host=args.host, port=args.port,
        key_budget=args.key_budget,
        request_timeout_s=args.timeout_s,
        shard_workers=args.workers,
        shard_kernel=args.kernel,
    )
    try:
        for index, path in enumerate(args.models):
            model_id = Path(path).stem
            spec = router.add_model(
                model_id, path, params=_serve_params(args),
                max_batch=args.batch_size, seed=args.seed + index,
            )
            shard = router.placement.shard_of(model_id)
            print(f"model {model_id!r}: {spec.key_bytes} key bytes "
                  f"-> shard {shard}")
        print(f"routing {len(args.models)} model(s) across "
              f"{args.shards} shard(s) on {router.host}:{router.port}")
        if args.port_file:
            Path(args.port_file).write_text(str(router.port))
        router.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        router.stop()
    return 0


def _client(args) -> int:
    from repro.serve import RemoteModelClient

    with RemoteModelClient(args.host, args.port, args.model_id) as client:
        shape = client.in_shape
        if args.input:
            tensors = [np.load(args.input)] * args.requests
        else:
            rng = np.random.default_rng(args.seed)
            tensors = [rng.normal(size=shape) * 0.5
                       for _ in range(args.requests)]
        for index, tensor in enumerate(tensors):
            out = client.infer(tensor)
            print(f"response[{index}]: {np.round(out.ravel(), 5).tolist()}")
        if args.show_metrics:
            print(client.rpc_client.metrics()["text"], end="")
    return 0


def _report(args) -> int:
    from repro.evalharness.report import generate_report

    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    generate_report(args.output, models, args.scale, args.images)
    return 0


def _soak(args) -> int:
    from repro.chaos import soak

    _install_kernel(args)
    config = soak.SoakConfig(
        seed=args.seed,
        duration_s=args.duration_s,
        overload=args.overload,
        workers=args.workers,
        chaos_spec=args.chaos_spec,
    )
    report = soak.run_soak(config)
    print(soak.render(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2))
        print(f"report written to {args.out}")
    return 1 if report["non_transient_errors"] > 0 else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ANT-ACE reproduction: FHE compiler for ONNX models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile an ONNX model")
    _add_compile_options(p_compile)
    p_compile.add_argument("-o", "--output", default="fhe_out")
    p_compile.add_argument("--explain", action="store_true",
                           help="print the optimizer's per-pass op-delta "
                                "table (ops, key switches, levels)")
    p_compile.set_defaults(fn=_compile)

    p_run = sub.add_parser("run", help="compile and run one inference")
    _add_compile_options(p_run)
    p_run.add_argument("--input", help="optional .npy input tensor")
    p_run.add_argument("--seed", type=int, default=0)
    _add_kernel_option(p_run)
    _add_chaos_options(p_run)
    p_run.set_defaults(fn=_run)

    p_serve = sub.add_parser(
        "serve", help="serve encrypted inference over a local socket")
    p_serve.add_argument("model", nargs="?", default=None,
                         help="path to an .onnx file (optional with "
                              "--shard: models then arrive over the wire)")
    p_serve.add_argument("--shard", action="store_true",
                         help="run as a router-managed shard: start empty "
                              "and accept register_model pushes carrying "
                              "model bytes + serialized evaluation keys")
    p_serve.add_argument("--model-id", default=None,
                         help="id clients use (default: model file stem)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7707,
                         help="TCP port (0 = pick a free one)")
    p_serve.add_argument("--batch-size", type=int, default=4,
                         help="max requests packed into one ciphertext")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="worker threads popping the request queue")
    p_serve.add_argument("--queue-size", type=int, default=64)
    p_serve.add_argument("--max-wait-ms", type=float, default=5.0,
                         help="batching linger before executing a partial "
                              "batch")
    p_serve.add_argument("--timeout-s", type=float, default=30.0)
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--poly-degree", type=int, default=256)
    p_serve.add_argument("--scale-bits", type=int, default=30)
    p_serve.add_argument("--first-prime-bits", type=int, default=40)
    p_serve.add_argument("--levels", type=int, default=4)
    p_serve.add_argument("--layout-tune", default="heuristic",
                         choices=("heuristic", "search"),
                         help="layout/BSGS autotuning for the served "
                              "compile; 'search' pays extra compile time "
                              "once at startup")
    p_serve.add_argument("--port-file", default=None,
                         help="write the bound port here once listening")
    _add_kernel_option(p_serve)
    _add_chaos_options(p_serve)
    p_serve.set_defaults(fn=_serve)

    p_router = sub.add_parser(
        "router",
        help="scale-out serving: route requests across shard processes")
    p_router.add_argument("models", nargs="+",
                          help="paths to .onnx files (model id = file stem)")
    p_router.add_argument("--shards", type=int, default=2,
                          help="shard processes to spawn (default 2)")
    p_router.add_argument("--host", default="127.0.0.1")
    p_router.add_argument("--port", type=int, default=7707,
                          help="TCP port (0 = pick a free one)")
    p_router.add_argument("--batch-size", type=int, default=4)
    p_router.add_argument("--workers", type=int, default=1,
                          help="worker threads per shard")
    p_router.add_argument("--timeout-s", type=float, default=60.0)
    p_router.add_argument("--seed", type=int, default=7,
                          help="keygen seed for the first model; model i "
                               "uses seed+i")
    p_router.add_argument("--key-budget", type=int, default=None,
                          help="per-shard resident evaluation-key byte "
                               "budget; exceeding it LRU-evicts idle "
                               "models' key material")
    p_router.add_argument("--poly-degree", type=int, default=256)
    p_router.add_argument("--scale-bits", type=int, default=30)
    p_router.add_argument("--first-prime-bits", type=int, default=40)
    p_router.add_argument("--levels", type=int, default=4)
    p_router.add_argument("--port-file", default=None,
                          help="write the bound port here once listening")
    _add_kernel_option(p_router)
    _add_chaos_options(p_router)
    p_router.set_defaults(fn=_router)

    p_client = sub.add_parser(
        "client", help="run the Figure-2 protocol against a server")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7707)
    p_client.add_argument("--model-id", required=True)
    p_client.add_argument("--input", help="optional .npy input tensor")
    p_client.add_argument("--requests", type=int, default=1)
    p_client.add_argument("--seed", type=int, default=0)
    p_client.add_argument("--show-metrics", action="store_true")
    p_client.set_defaults(fn=_client)

    p_soak = sub.add_parser(
        "soak",
        help="seeded overload + fault-injection soak with a containment "
             "report (repro.chaos.soak)")
    p_soak.add_argument("--seed", type=int, default=42)
    p_soak.add_argument("--duration-s", type=float, default=8.0,
                        help="open-loop overload phase length "
                             "(calibration runs on top)")
    p_soak.add_argument("--overload", type=float, default=3.0,
                        help="offered load as a multiple of calibrated "
                             "capacity")
    p_soak.add_argument("--workers", type=int, default=2)
    p_soak.add_argument("--chaos-spec", default=None,
                        help="override the built-in soak fault plan")
    p_soak.add_argument("--out", default=None,
                        help="also write the JSON report here")
    _add_kernel_option(p_soak)
    p_soak.set_defaults(fn=_soak)

    p_report = sub.add_parser("report", help="regenerate paper artifacts")
    p_report.add_argument("-o", "--output", default="results")
    p_report.add_argument("--models", default="ResNet-20")
    p_report.add_argument("--scale", default="ci", choices=("ci", "paper"))
    p_report.add_argument("--images", type=int, default=5)
    p_report.set_defaults(fn=_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
