"""Unit tests for the command-line front-end and its CSV outputs."""

import json
import re
import threading
import warnings

import numpy as np
import pytest

from nkdiff import write_idx
from nkdiff.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    RUN_CSV_HEADER,
    config_hash,
    main,
    merge_config,
)

FAST_BLOBS = {
    "n_per_class": 40,
    "k": 3,
    "d": 4,
    "centers_scale": 2.0,
    "noise_sigma": 0.8,
    "seed": 3,
    "train_frac": 0.6,
    "val_frac": 0.2,
}


def fast_args(tmp_path, *extra):
    config = {"blobs": FAST_BLOBS, "rounds": 3, "seeds": 2, "n": 4, "c": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["run", "--config", str(path), "--out", str(tmp_path / "out"), *extra]


def write_idx_files(tmp_path):
    """Write small random IDX train/test pairs; return the config's path keys."""
    rng = np.random.default_rng(0)
    paths = {}
    for part, n in (("train", 80), ("test", 30)):
        img = tmp_path / f"{part}_images.idx"
        lab = tmp_path / f"{part}_labels.idx"
        write_idx(
            img,
            lab,
            rng.integers(0, 256, size=(n, 3, 3), dtype=np.uint8),
            rng.integers(0, 10, size=n).astype(np.uint8),
        )
        paths[f"{part}_images"] = str(img)
        paths[f"{part}_labels"] = str(lab)
    return paths


class TestRun:
    def test_output_shape(self, tmp_path):
        assert main(fast_args(tmp_path, "--seeds", "5", "--rounds", "10")) == EXIT_OK
        out = tmp_path / "out"
        run_files = sorted(out.glob("run_*.csv"))
        assert len(run_files) == 5
        for path in run_files:
            lines = path.read_text().splitlines()
            assert lines[0] == RUN_CSV_HEADER
            assert len(lines) == 11  # header + 10 data rows
        agg_lines = (out / "agg.csv").read_text().splitlines()
        assert len(agg_lines) == 11
        assert agg_lines[0].startswith("round,oracle_sessions_mean,oracle_sessions_ci95,")
        assert (out / "manifest.json").exists()

    def test_pom_with_capacity_five_rejected(self, tmp_path, capsys):
        code = main(fast_args(tmp_path, "--policy", "pom", "--c", "5"))
        assert code == EXIT_CONFIG
        assert "pairwise" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        args = fast_args(tmp_path)
        assert main(args) == EXIT_OK
        first = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
        assert main(args) == EXIT_OK
        second = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
        assert first == second

    def test_thread_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        args = fast_args(tmp_path, "--policy", "pom")
        monkeypatch.setenv("NKDIFF_THREADS", "1")
        assert main(args) == EXIT_OK
        serial = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
        monkeypatch.setenv("NKDIFF_THREADS", "4")
        assert main(args) == EXIT_OK
        threaded = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
        assert serial == threaded

    def test_runs_without_starting_threads(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise RuntimeError("sessions must not start threads")

        monkeypatch.setenv("NKDIFF_THREADS", "4")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(fast_args(tmp_path)) == EXIT_OK

    def test_bad_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"policy": }')
        code = main(["run", "--config", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "broken.json:1:" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"polciy": "btb"}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "polciy" in capsys.readouterr().err

    def test_bad_hyperparam_value_is_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"noise": 1.5, "blobs": FAST_BLOBS}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "bad",
        [
            {"pretrain": "false"},
            {"shuffle": "no"},
            {"n": 10.9},
            {"rounds": True},
            {"noise": "0.4"},
            {"learning_rate": "0.01"},
        ],
        ids=[
            "pretrain_string",
            "shuffle_string",
            "n_float",
            "rounds_bool",
            "noise_string",
            "learning_rate_string",
        ],
    )
    def test_wrong_json_type_is_config_error_without_output(self, tmp_path, capsys, bad):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"blobs": FAST_BLOBS, "seeds": 1, **bad}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and next(iter(bad)) in err
        assert not out.exists()

    def test_bad_dataset_size_is_config_error_without_output(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"blobs": {**FAST_BLOBS, "n_per_class": 0}, "seeds": 1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "per class" in err
        assert not out.exists()

    def test_truncated_idx_is_io_error_without_output(self, tmp_path, capsys):
        paths = write_idx_files(tmp_path)
        images = tmp_path / "train_images.idx"
        images.write_bytes(images.read_bytes()[:-5])
        config = {"dataset": "idx", "idx": {**paths, "val_frac": 0.2, "seed": 1}, "seeds": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "train_images.idx" in err
        assert not out.exists()

    def test_diverging_learning_rate_is_numeric_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 1e6, "rounds": 3, "seeds": 2}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric error: learner ")
        assert "1e+06" in err

    def test_overflow_in_evaluation_is_numeric_error(self, tmp_path, capsys):
        # Parameters stay finite here while evaluation overflows; that must
        # end the run with one line, not with warnings and NaN scores.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 100, "rounds": 10, "seeds": 2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric error: learner ")
        assert re.search(r"\(seed \d+, round \d+\)$", err.strip())

    def test_unwritable_out_dir_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(fast_args(tmp_path)[:-1] + [str(blocker / "sub")])
        assert code == EXIT_IO

    def test_idx_dataset_end_to_end(self, tmp_path):
        paths = write_idx_files(tmp_path)
        config = {
            "dataset": "idx",
            "idx": {**paths, "val_frac": 0.2, "seed": 1},
            "rounds": 2,
            "seeds": 2,
            "n": 4,
            "c": 2,
            "batch_size": 16,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = (out / "run_0.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_idx_dataset_without_paths_rejected(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": "idx"}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "idx" in capsys.readouterr().err

    def test_manifest_reproduces(self, tmp_path):
        assert main(fast_args(tmp_path)) == EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        first = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
        # re-running straight from the manifest's config snapshot reproduces bytes
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "out2"
        assert main(["run", "--config", str(snapshot), "--out", str(out2)]) == EXIT_OK
        second = {p.name: p.read_bytes() for p in out2.glob("*.csv")}
        assert first == second
        assert manifest["config_hash"] == config_hash(manifest["config"])


class TestConfigHash:
    def test_only_semantic_fields_matter(self):
        base = merge_config({"policy": "btb", "c": 2, "out": "a"})
        assert config_hash(base) == config_hash(merge_config(base, {"out": "b"}))
        assert config_hash(base) != config_hash(merge_config(base, {"c": 5}))
        assert config_hash(base) != config_hash(merge_config(base, {"master_seed": 1}))


class TestSweep:
    def sweep_config(self, tmp_path, axes):
        config = {
            "blobs": FAST_BLOBS,
            "rounds": 2,
            "seeds": 2,
            "n": 10,
            **axes,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        return path

    def test_policy_by_capacity_grid_skips_pom_times_five(self, tmp_path, capsys):
        path = self.sweep_config(
            tmp_path,
            {"policies": ["oo", "pom", "rgbt", "btb", "eq"], "capacities": [2, 5]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 9  # header + 9 valid cells
        assert "skipping cell pom_c5" in capsys.readouterr().err
        cell_dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(cell_dirs) == 9
        for cell in cell_dirs:
            assert (cell / "agg.csv").exists()
            assert len(list(cell.glob("run_*.csv"))) == 2

    def test_empty_axis_rejected(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, {"policies": []})
        assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
        assert "empty" in capsys.readouterr().err

    def test_non_boolean_pretraining_axis_rejected(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, {"pretraining": [False, "false"]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "pretrain must be true or false" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_noise_level_rejected(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, {"noise_levels": [0.0, "abc"]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "noise must be a number" in err
        assert not out.exists()

    def test_bad_dataset_writes_nothing(self, tmp_path, capsys):
        path = self.sweep_config(
            tmp_path, {"blobs": {**FAST_BLOBS, "n_per_class": 0}, "policies": ["oo", "btb"]}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "per class" in capsys.readouterr().err
        assert not out.exists()

    def test_all_cells_skipped_writes_nothing(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, {"policies": ["pom"], "capacities": [5]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "no valid cells" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_row_count_matches_valid_cells(self, tmp_path):
        path = self.sweep_config(
            tmp_path, {"policies": ["btb"], "capacities": [2, 5], "noise_levels": [0.0, 0.4]}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 4
