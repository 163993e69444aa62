"""Smoke test: every workload path and the tracer, at a tiny size.

Run from the repository root (takes a few seconds)::

    python3 -m pytest -q -p no:hypothesispytest bench/test_smoke.py

The tests take about 3.5 s; loading the Hypothesis plugin adds about 1 s.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_traced_at_tiny_size(workload):
    result, report = run.run(workload, seed=3, seconds=0, trace=True, tiny=True)
    assert result["correct"], "\n".join(report)
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}
    assert "checks: all passed" in report
    end_to_end = {line.split()[0] for line in report if line.startswith("  ")}
    assert {name for name, _ in run.END_TO_END} <= end_to_end


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_self_time_counts_overlapping_children_once():
    import tracer

    spans = [
        {"id": 0, "parent": None, "layer": "a", "binding": "a", "thread": 1, "start": 0, "end": 100, "info": None},
        {"id": 1, "parent": 0, "layer": "b", "binding": "b", "thread": 2, "start": 10, "end": 60, "info": None},
        {"id": 2, "parent": 0, "layer": "b", "binding": "b", "thread": 3, "start": 40, "end": 90, "info": None},
    ]
    index = tracer.SpanIndex(spans)
    assert index.self_ns(spans[0]) == 20
    assert index.total_ns("b") == 100
