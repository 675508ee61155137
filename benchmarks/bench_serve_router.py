"""Scale-out serving: 2-shard router vs one single-process server.

A single Python server process is GIL-bound: two models' worth of
concurrent FHE math time-slices one interpreter no matter how many
worker threads it has.  The router runs each model in its own shard
*process* (placement by the Figure-7 key-byte cost model puts one model
per shard here), so the same 2-model workload uses two cores.

Segments:

* **single** — both models in one ``InferenceServer`` (2 worker
  threads), concurrent clients, aggregate requests/sec;
* **router** — same workload through a 2-shard ``RouterServer``;
* **failover** — the router workload again, with shard 0 hard-killed
  mid-run: every request must still succeed (transient retries only)
  and the shard must come back (respawn counter).

Acceptance targets:

* router >= 1.5x single-process aggregate requests/sec — gated only on
  hosts with >= 2 usable cores (process-level scale-out cannot beat
  one process on one core; CI's runners are multi-core so the gate is
  live there, while a single-core box records ``speedup_gated: false``
  and still measures);
* zero non-transient client errors and zero lost/duplicated responses
  across the shard kill — gated on every host.

Results are written to ``BENCH_serve_router.json`` (override with
``--out``).  Run:  PYTHONPATH=src python benchmarks/bench_serve_router.py
"""

import argparse
import json
import os
import threading
import time

import numpy as np

from repro.ckks import CkksParameters
from repro.onnx import OnnxGraphBuilder, load_model_bytes, model_to_bytes
from repro.serve import (
    InferenceServer,
    ModelRegistry,
    RemoteModelClient,
    RouterServer,
)


def build_model(name, seed):
    """A 3-layer GEMM MLP: enough FHE math per request that compute,
    not the extra router hop, dominates a request's cost."""
    rng = np.random.default_rng(seed)
    builder = OnnxGraphBuilder(name)
    builder.add_input("features", [1, 24])
    shapes = [(24, 24), (24, 24), (3, 24)]
    prev = "features"
    for i, (out_dim, in_dim) in enumerate(shapes):
        w = (rng.normal(size=(out_dim, in_dim)) * 0.3).astype(np.float32)
        b = rng.normal(size=(out_dim,)).astype(np.float32)
        builder.add_initializer(f"w{i}", w)
        builder.add_initializer(f"b{i}", b)
        out = "output" if i == len(shapes) - 1 else f"h{i}"
        builder.add_node("Gemm", [prev, f"w{i}", f"b{i}"], outputs=[out],
                         transB=1)
        prev = out
    builder.add_output("output", [1, 3])
    return builder.build()


MODELS = {"alpha": 0, "beta": 1}
SEEDS = {"alpha": 7, "beta": 8}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _weights(model):
    return {t.name: t.to_numpy() for t in model.graph.initializer}


def _reference(weights, features):
    x = features
    for i in range(len(weights) // 2):
        x = x @ weights[f"w{i}"].T + weights[f"b{i}"]
    return x.ravel()


def drive(host, port, weights, clients_per_model, requests_per_client,
          on_midpoint=None):
    """Concurrent clients across both models; returns (elapsed, n, errors).

    ``on_midpoint`` fires once from the main thread roughly half-way
    through the run (the failover segment's kill switch).
    """
    errors: list[str] = []
    done = [0]
    lock = threading.Lock()
    total = 2 * clients_per_model * requests_per_client

    def worker(model_id, seed):
        rng = np.random.default_rng(seed)
        try:
            with RemoteModelClient(host, port, model_id) as client:
                for _ in range(requests_per_client):
                    features = rng.uniform(-1, 1, size=(1, 24))
                    scores = client.infer(features)
                    expected = _reference(weights[model_id], features)
                    with lock:
                        if not np.allclose(scores.ravel(), expected,
                                           atol=2e-2):
                            errors.append(f"{model_id}: wrong result")
                        done[0] += 1
        except Exception as exc:  # noqa: BLE001 - tallied, not raised
            with lock:
                errors.append(f"{model_id}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(model_id, 100 + i))
        for i, model_id in enumerate(
            list(MODELS) * clients_per_model)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    if on_midpoint is not None:
        while True:
            with lock:
                if done[0] >= total // 2 or errors:
                    break
            time.sleep(0.01)
        on_midpoint()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    return elapsed, total, errors


def bench(clients_per_model, requests_per_client):
    # one more level than the serving default: the 3-layer MLP is 5 deep
    params = CkksParameters(poly_degree=256, scale_bits=30,
                            first_prime_bits=40, num_levels=5)
    models = {name: build_model(name, seed) for name, seed in MODELS.items()}
    weights = {name: _weights(model) for name, model in models.items()}

    # single process: both models, one GIL
    registry = ModelRegistry()
    for name, model in models.items():
        registry.register(name, load_model_bytes(model_to_bytes(model)),
                          params=params, max_batch=4, seed=SEEDS[name])
    with InferenceServer(registry, num_threads=2, max_wait_s=0.002) as srv:
        single_s, n, errors = drive(srv.host, srv.port, weights,
                                    clients_per_model, requests_per_client)
    assert not errors, errors

    stats = {
        "models": len(models),
        "clients": 2 * clients_per_model,
        "requests": n,
        "single_rps": n / single_s,
    }

    with RouterServer(num_shards=2, shard_workers=2, pool_size=2) as router:
        for name, model in models.items():
            router.add_model(name, model_to_bytes(model), params=params,
                             max_batch=4, seed=SEEDS[name])
        router_s, n, errors = drive(router.host, router.port, weights,
                                    clients_per_model, requests_per_client)
        assert not errors, errors
        stats["router_rps"] = n / router_s
        stats["placement"] = {
            str(k): v for k, v in router.placement.snapshot().items()}

        # failover: kill shard 0 half-way through the same workload
        respawns_before = router.metrics.counter(
            "router_shard_respawns_total")
        kill_s, n, errors = drive(
            router.host, router.port, weights,
            clients_per_model, requests_per_client,
            on_midpoint=lambda: router.shards[0].kill_process())
        stats["failover_rps"] = n / kill_s
        stats["failover_errors"] = errors
        stats["shard_respawns"] = (
            router.metrics.counter("router_shard_respawns_total")
            - respawns_before)
        stats["shards_alive_after"] = all(
            shard.alive() for shard in router.shards)

    stats["speedup"] = stats["router_rps"] / stats["single_rps"]
    stats["usable_cpus"] = _usable_cpus()
    stats["speedup_gated"] = stats["usable_cpus"] >= 2
    return stats


def check(stats):
    failures = []
    if stats["speedup_gated"] and stats["speedup"] < 1.5:
        failures.append(
            f"2-shard router must be >= 1.5x single-process aggregate "
            f"req/s, got {stats['speedup']:.2f}x")
    if stats["failover_errors"]:
        failures.append(
            f"shard kill leaked non-transient client errors: "
            f"{stats['failover_errors']!r}")
    if stats["shard_respawns"] < 1:
        failures.append("killed shard was never respawned")
    if not stats["shards_alive_after"]:
        failures.append("a shard is still dead after the failover run")
    return failures


def test_router_scales_out_and_survives_shard_kill():
    stats = bench(clients_per_model=2, requests_per_client=4)
    failures = check(stats)
    assert not failures, "; ".join(failures) + f" ({stats})"
    if stats["speedup_gated"]:
        assert stats["speedup"] >= 1.5


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workload")
    parser.add_argument("--clients", type=int, default=3,
                        help="concurrent clients per model")
    parser.add_argument("--requests", type=int, default=6,
                        help="requests per client")
    parser.add_argument("--out", default="BENCH_serve_router.json",
                        help="JSON results path")
    args = parser.parse_args()
    clients = 2 if args.quick else args.clients
    requests = 4 if args.quick else args.requests

    stats = bench(clients, requests)
    failures = check(stats)
    stats["pass"] = not failures

    with open(args.out, "w") as fh:
        json.dump(stats, fh, indent=2)

    print(f"workload:        {stats['clients']} clients x "
          f"{stats['requests'] // stats['clients']} requests, "
          f"{stats['models']} models")
    print(f"single process:  {stats['single_rps']:8.2f} req/s")
    print(f"2-shard router:  {stats['router_rps']:8.2f} req/s")
    gate = ("target >= 1.50x" if stats["speedup_gated"]
            else f"not gated: {stats['usable_cpus']} usable core(s)")
    print(f"speedup:         {stats['speedup']:8.2f}x  ({gate})")
    print(f"failover:        {stats['failover_rps']:8.2f} req/s with a "
          f"shard killed mid-run ({stats['shard_respawns']:.0f} respawn)")
    for failure in failures:
        print(f"FAIL: {failure}")
    print(f"verdict:         {'PASS' if stats['pass'] else 'FAIL'}")
    raise SystemExit(0 if stats["pass"] else 1)


if __name__ == "__main__":
    main()
