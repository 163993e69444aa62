"""tools/ab.py compares two trees only when they hold the same benchmark."""

import json
import shutil

import pytest

from conftest import ROOT, load_tool


@pytest.fixture
def trees(tmp_path):
    for side in ("parent", "change"):
        shutil.copytree(ROOT / "bench", tmp_path / side / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
    return tmp_path / "parent", tmp_path / "change"


def run_ab(monkeypatch, trees) -> int:
    ab = load_tool("ab")

    def stop(tree, workload, seed, trace):
        raise RuntimeError("a benchmark run was started")

    monkeypatch.setattr(ab, "run_bench", stop)
    return ab.main([str(trees[0]), str(trees[1]), "--workload", "oo_c10_serial", "--seeds", "1"])


def test_a_differing_benchmark_file_is_refused_before_any_run(monkeypatch, capsys, trees):
    run = trees[1] / "bench" / "run.py"
    run.write_text(run.read_text() + "# edited\n")
    (trees[0] / "bench" / "extra.py").write_text("")
    assert run_ab(monkeypatch, trees) == 2
    err = capsys.readouterr().err
    assert "bench/extra.py" in err and "bench/run.py" in err and "a benchmark run was started" not in err


def test_compiled_caches_are_not_compared(monkeypatch, capsys, trees):
    (trees[1] / "bench" / "__pycache__").mkdir()
    (trees[1] / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"stale")
    assert run_ab(monkeypatch, trees) == 1
    assert "a benchmark run was started" in capsys.readouterr().err


def test_every_workload_runs_by_default_and_each_metric_gets_a_verdict_per_workload(monkeypatch, capsys, trees):
    ab = load_tool("ab")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    runs = []

    def fake(tree, workload, seed, trace):
        runs.append((tree.name, workload, seed))
        return {"correct": True, "metrics": {name: {"value": 1.0} for name in metrics}}

    monkeypatch.setattr(ab, "run_bench", fake)
    assert ab.main([str(trees[0]), str(trees[1]), "--seeds", "1", "2"]) == 0
    alternation = [(1, "parent"), (1, "change"), (2, "change"), (2, "parent")]
    assert runs == [(side, w, seed) for w in workloads for seed, side in alternation]
    lines = capsys.readouterr().out.splitlines()
    # The verdict table is last: its header ends with "verdict", then one line per (metric, workload).
    header = next(i for i, line in enumerate(lines) if line.endswith(" verdict"))
    verdicts = [line.split() for line in lines[header + 1:]]
    assert [(v[0], v[1], v[-1]) for v in verdicts] == [(w, m, "held") for w in workloads for m in metrics]
    assert len(verdicts) == 18


def test_an_unknown_workload_is_refused_before_any_run(monkeypatch, capsys, trees):
    ab = load_tool("ab")
    monkeypatch.setattr(ab, "run_bench", lambda *args: pytest.fail("a benchmark run was started"))
    with pytest.raises(SystemExit) as exit:
        ab.main([str(trees[0]), str(trees[1]), "--workload", "oo_c10_serial", "no_such", "--seeds", "1"])
    assert exit.value.code == 2 and "unknown workload 'no_such'" in capsys.readouterr().err
