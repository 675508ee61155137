"""Smoke test of the benchmark itself (outside tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs once at ``--smoke`` size (1 rep, 3 s open phase, no
sample rule), untraced and traced, and must emit exactly the metric
names listed for it, all finite, and a trace file that parses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def smoke_args(workload: str, trace: int = 0, trace_out: str = ""):
    return argparse.Namespace(workload=workload, seed=run.DEFAULT_SEED,
                              seconds=workloads.BASE_SECONDS, smoke=True,
                              trace=trace, trace_out=trace_out)


def assert_finite(report: dict) -> None:
    assert report["failed"] == 0, report["violations"]
    for name, row in report["rows"].items():
        assert math.isfinite(row["value"]), name


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_untraced_emits_its_listed_metrics(workload):
    report = run.run_untraced(smoke_args(workload))
    assert_finite(report)
    listed = {m.name for m in metrics.END_TO_END
              if metrics.applies(m, workload)}
    assert set(report["rows"]) == listed
    line = json.loads(run.driver_line(report, traced=False))
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m.name for m in metrics.GATED}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_emits_every_layer_and_a_trace(workload, tmp_path):
    out = tmp_path / "trace.json"
    report = run.run_traced(smoke_args(workload, 1, str(out)))
    assert_finite(report)
    assert list(report["rows"]) == [name for name, *_ in metrics.PER_LAYER]
    events = json.loads(out.read_text())["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    runs = [e for e in events if e["name"] == "program.run"]
    assert runs, "no program.run span"
    children = [e for e in events if e["args"]["parent"] == runs[0]["args"]["id"]]
    assert children, "program.run span has no backend children"


def test_benchmark_json_matches_the_tables():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.GATED]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _moves in metrics.PER_LAYER]
    assert all(not m.absolute for m in metrics.GATED)
