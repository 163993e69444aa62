"""tools/ab.py compares two trees only when they hold the same benchmark."""

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
