"""Unit tests for the command-line front-end and its CSV outputs."""

import contextlib
import csv
import io
import itertools
import json
import os
import re
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nkdiff import (
    BlobsSpec,
    CorruptionSpec,
    ExperimentConfig,
    IdxSpec,
    MetricsRecord,
    NonFiniteError,
    TrainHyperparams,
    cli,
    data,
    engine,
    run_experiment,
    write_idx,
)
from nkdiff.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    RUN_CSV_HEADER,
    DEFAULT_CONFIG,
    SCHEMA,
    SWEEP_AXES,
    build_experiments,
    check_config,
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

    def test_oo_capacity_need_not_divide_population(self, tmp_path):
        config = {"blobs": FAST_BLOBS, "rounds": 3, "seeds": 1, "policy": "oo", "c": 3}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "run_0.csv").read_text().splitlines()]
        column = rows[0].index("oracle_sessions")
        assert [float(row[column]) for row in rows[1:]] == [2.0, 4.0, 6.0]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = fast_args(tmp_path)
        assert main(args) == EXIT_OK
        first = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
        assert main(args) == EXIT_OK
        second = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
        assert first == second

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask_022", "umask_077"])
    def test_outputs_take_their_mode_from_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            assert main(fast_args(tmp_path, "--rounds", "1", "--seeds", "1")) == EXIT_OK
        finally:
            os.umask(previous)
        written = {p.name: p.stat().st_mode & 0o777 for p in (tmp_path / "out").iterdir()}
        assert written == {"run_0.csv": mode, "agg.csv": mode, "manifest.json": mode}

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

    def test_batch_larger_than_training_split_is_config_error_without_output(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"blobs": FAST_BLOBS, "seeds": 1, "batch_size": 10000}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "batch_size 10000 exceeds" in err
        assert not out.exists()

    def test_unallocatable_data_is_one_line_without_output(self, tmp_path, monkeypatch, capsys):
        # gen_blobs raises as numpy would; nothing asks the host for the memory.
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 21.8 TiB for an array with shape (3000000000000,)")

        monkeypatch.setattr(data, "gen_blobs", unallocatable)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"blobs": {**FAST_BLOBS, "n_per_class": 10**12}, "seeds": 1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("memory error: Unable to allocate")
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

    @pytest.mark.parametrize(
        "shapes, message",
        [
            ({"test": (0, 3, 3)}, "test split is empty: 0 rows of 9 features"),
            ({"train": (80, 0, 0), "test": (30, 0, 0)}, "train split is empty: 64 rows of 0 features"),
            ({"test": (30, 4, 4)}, "test split has 16 features, the train split 9"),
        ],
        ids=["no_test_images", "zero_pixel_images", "test_images_of_another_size"],
    )
    def test_unusable_idx_split_is_config_error_without_output(self, tmp_path, capsys, shapes, message):
        paths = write_idx_files(tmp_path)
        for part, shape in shapes.items():
            labels = np.zeros(shape[0], dtype=np.uint8)
            write_idx(paths[f"{part}_images"], paths[f"{part}_labels"], np.zeros(shape, dtype=np.uint8), labels)
        config = {"dataset": "idx", "idx": {**paths, "val_frac": 0.2, "seed": 1}, "seeds": 1, "batch_size": 8}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_diverging_learning_rate_is_numeric_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 1e6, "rounds": 3, "seeds": 2}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric error: learner ")
        assert "1e+06" in err

    @pytest.mark.parametrize("earlier", [True, False], ids=["over_an_earlier_run", "fresh_out"])
    def test_a_failed_run_leaves_its_out_dir_as_it_was(self, tmp_path, monkeypatch, capsys, earlier):
        out = tmp_path / "out"
        if earlier:
            assert main(fast_args(tmp_path)) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()} if earlier else None
        run, seeds = cli.run_experiment, []

        def second_seed_diverges(cfg, data):
            seeds.append(cfg.master_seed)
            if len(seeds) == 2:
                raise NonFiniteError(f"learner 0 diverged (seed {cfg.master_seed}, round 1)")
            return run(cfg, data=data)

        monkeypatch.setattr(cli, "run_experiment", second_seed_diverges)
        # Fewer rounds: each file the failed run wrote would differ from the earlier run's.
        assert main(fast_args(tmp_path, "--rounds", "2")) == EXIT_NUMERIC
        assert seeds == [0, 1] and capsys.readouterr().err.startswith("numeric error: learner 0")
        if earlier:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert not out.exists()

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

    @pytest.mark.parametrize("key", ["centers_scale", "noise_sigma"])
    def test_non_finite_features_are_config_error_without_output(self, tmp_path, capsys, key):
        # The blobs overflow to inf or NaN: the data is refused, not a learner blamed.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"blobs": {key: 1e308}, "seeds": 1, "rounds": 1}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: blobs features hold NaN or infinite values\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["out_is_a_file", "out_below_a_file"])
    def test_unwritable_out_dir_is_io_error(self, tmp_path, monkeypatch, capsys, command, below):
        def no_seed_may_train(cfg, data):
            raise AssertionError(f"seed {cfg.master_seed} trained before out was checked")

        monkeypatch.setattr(cli, "run_experiment", no_seed_may_train)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        out = blocker / "sub" if below else blocker
        assert main([command, *fast_args(tmp_path)[1:-1], str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"i/o error: output directory {out} cannot be made: {blocker} is not a directory\n"
        assert blocker.read_text() == "a file, not a directory"

    @pytest.mark.parametrize("name", ["run_0.csv", "run_1.csv", "agg.csv", "manifest.json"])
    def test_an_output_file_that_is_a_directory_is_io_error(self, tmp_path, monkeypatch, capsys, name):
        out = tmp_path / "out"
        assert main(fast_args(tmp_path)) == EXIT_OK
        (out / name).unlink()
        (out / name).mkdir()
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}

        def no_seed_may_train(cfg, data):
            raise AssertionError(f"seed {cfg.master_seed} trained before out was checked")

        monkeypatch.setattr(cli, "run_experiment", no_seed_may_train)
        assert main([*fast_args(tmp_path), "--rounds", "2"]) == EXIT_IO
        assert capsys.readouterr().err == f"i/o error: output file {out / name} is a directory\n"
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

    def test_a_symlink_to_a_directory_is_replaced_by_its_output_file(self, tmp_path):
        out, target = tmp_path / "out", tmp_path / "target"
        target.mkdir()
        out.mkdir()
        (out / "agg.csv").symlink_to(target, target_is_directory=True)
        assert main(fast_args(tmp_path)) == EXIT_OK
        assert not (out / "agg.csv").is_symlink() and (out / "agg.csv").read_text().startswith("round,")
        assert target.is_dir() and not any(target.iterdir())

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

    def test_dataset_built_once_and_cells_match_single_runs(self, tmp_path, monkeypatch):
        builds = []
        real_build = data.build_datasets

        def counting_build(spec):
            builds.append(spec)
            return real_build(spec)

        for module in (cli, engine):
            monkeypatch.setattr(module, "build_datasets", counting_build)
        path = self.sweep_config(tmp_path, {"policies": ["btb", "oo"], "noise_levels": [0.0, 0.3]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert len(builds) == 1
        for policy, noise in itertools.product(["btb", "oo"], [0.0, 0.3]):
            cell = out / f"{policy}_c2_preoff_noise{noise:g}"
            single = tmp_path / f"single_{cell.name}"
            run_path = self.sweep_config(tmp_path, {"policy": policy, "noise": noise})
            assert main(["run", "--config", str(run_path), "--out", str(single)]) == EXIT_OK
            csvs = sorted(p.name for p in cell.glob("*.csv"))
            assert csvs == ["agg.csv", "run_0.csv", "run_1.csv"]
            for name in csvs:
                assert (cell / name).read_bytes() == (single / name).read_bytes()
            cell_manifest, single_manifest = (json.loads((d / "manifest.json").read_text()) for d in (cell, single))
            assert cell_manifest["out_dir"] == str(cell)
            for key in ("config_hash", "seeds", "config"):
                assert cell_manifest[key] == single_manifest[key]

    @pytest.mark.parametrize(
        "flag, value, axis, values",
        [
            ("--policy", "oo", "policies", ["btb", "oo"]),
            ("--c", "3", "capacities", [2, 5]),
            ("--pretrain", "on", "pretraining", [False, True]),
            ("--noise", "0.3", "noise_levels", [0.0, 0.3]),
        ],
        ids=["policy", "c", "pretrain", "noise"],
    )
    def test_flag_and_axis_of_one_key_are_rejected(self, tmp_path, capsys, flag, value, axis, values):
        path = self.sweep_config(tmp_path, {axis: values})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out), flag, value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and flag in err and axis in err
        assert not out.exists()

    def test_cells_with_one_directory_name_are_rejected(self, tmp_path, capsys):
        # Both noise levels print as noise0.1, so the second cell would overwrite the first.
        path = self.sweep_config(tmp_path, {"noise_levels": [0.1, 0.1000001]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "btb_c2_preoff_noise0.1" in err
        assert "'noise': 0.1}" in err and "'noise': 0.1000001}" in err
        assert not out.exists()

    def test_oo_runs_at_every_capacity_within_population(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, {"policies": ["oo", "btb"], "capacities": [2, 3]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        skipped = [line for line in capsys.readouterr().err.splitlines() if line.startswith("skipping cell ")]
        assert len(skipped) == 1 and skipped[0].startswith("skipping cell btb_c3_")
        cells = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert cells == ["btb_c2_preoff_noise0", "oo_c2_preoff_noise0", "oo_c3_preoff_noise0"]

    def test_summary_reads_the_agg_csv_means(self, tmp_path, monkeypatch):
        # 16 seeds whose last-round mean prints 0.600001 when summed pairwise
        # (np.mean of a list) and 0.600000 when summed in order (agg.csv).
        last = [0.61, 0.57, 0.58, 0.55, 0.54, 0.63, 0.63, 0.66, 0.56, 0.68, 0.59, 0.68, 0.58, 0.56, 0.61, 0.570008]

        def crafted_run(cfg, data):
            return [
                MetricsRecord(round=r, alacc_test=v, ensacc_test=v, alacc_train=v, ensacc_val=v,
                              oracle_sessions=r, forward_ops=r, per_learner_acc=np.zeros(1))
                for r, v in ((1, 0.5), (2, last[cfg.master_seed]))
            ]

        monkeypatch.setattr(cli, "run_experiment", crafted_run)
        path = self.sweep_config(tmp_path, {"seeds": 16, "policies": ["btb", "oo"]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        with open(out / "summary.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        for row in rows:
            with open(out / row["cell"] / "agg.csv") as f:
                final = list(csv.DictReader(f))[-1]
            assert row["final_round"] == final["round"] == "2"
            for metric in ("alacc_test", "ensacc_test"):
                assert row[f"final_{metric}"] == final[f"{metric}_mean"] == "0.600000"
                assert float(row[f"final_{metric}"]) <= float(row[f"best_{metric}"])

    def test_a_failed_sweep_leaves_its_out_dir_as_it_was(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        path = self.sweep_config(tmp_path, {"rounds": 3, "seeds": 1, "policies": ["oo", "btb"]})
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
        run = cli.run_experiment

        def btb_diverges(cfg, data):
            if cfg.policy == "btb":
                raise NonFiniteError(f"learner 0 diverged (seed {cfg.master_seed}, round 1)")
            return run(cfg, data=data)

        monkeypatch.setattr(cli, "run_experiment", btb_diverges)
        # A new first cell, and fewer rounds: each file the failed sweep wrote would differ.
        path = self.sweep_config(tmp_path, {"rounds": 2, "seeds": 1, "policies": ["eq", "oo", "btb"]})
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric error: learner 0 diverged")
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

    @pytest.mark.parametrize("pattern", ["summary.csv", "oo_*/run_0.csv", "btb_*/agg.csv", "btb_*/manifest.json"])
    def test_an_output_file_that_is_a_directory_is_io_error(self, tmp_path, monkeypatch, capsys, pattern):
        out = tmp_path / "out"
        path = self.sweep_config(tmp_path, {"rounds": 3, "seeds": 1, "policies": ["oo", "btb"]})
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        [blocked] = out.glob(pattern)
        blocked.unlink()
        blocked.mkdir()
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}

        def no_seed_may_train(cfg, data):
            raise AssertionError(f"seed {cfg.master_seed} trained before out was checked")

        monkeypatch.setattr(cli, "run_experiment", no_seed_may_train)
        # Fewer rounds: each file a sweep that went ahead wrote would differ.
        path = self.sweep_config(tmp_path, {"rounds": 2, "seeds": 1, "policies": ["oo", "btb"]})
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == f"i/o error: output file {blocked} is a directory\n"
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

    def test_summary_row_count_matches_valid_cells(self, tmp_path):
        path = self.sweep_config(
            tmp_path, {"policies": ["btb"], "capacities": [2, 5], "noise_levels": [0.0, 0.4]}
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 4


INT_IDX_PATHS = {"train_images": 1, "train_labels": 2, "test_images": 3, "test_labels": 4}
STR_IDX_PATHS = {key: f"{key}.idx" for key in INT_IDX_PATHS}


class TestFlags:
    def test_policy_flag_ignores_case(self, tmp_path):
        csvs = {}
        for policy in ("btb", "BTB"):
            out = tmp_path / policy
            assert main(fast_args(tmp_path, "--policy", policy, "--out", str(out))) == EXIT_OK
            csvs[policy] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert len(csvs["btb"]) == 3 and csvs["BTB"] == csvs["btb"]

    def test_policy_case_in_a_config_file_leaves_the_manifest_alone(self, tmp_path):
        out = tmp_path / "out"
        manifests = []
        for policy in ("BTB", "btb"):
            path = tmp_path / f"{policy}.json"
            path.write_text(json.dumps({"blobs": FAST_BLOBS, "rounds": 2, "seeds": 1, "n": 4, "policy": policy}))
            assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["config"]["policy"] == "btb"

    def test_pretrain_flag_matches_and_overrides_the_config_key(self, tmp_path):
        def csvs(name, extra, *flags):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"blobs": FAST_BLOBS, "rounds": 2, "seeds": 1, "n": 4, **extra}))
            out = tmp_path / name
            assert main(["run", "--config", str(path), "--out", str(out), *flags]) == EXIT_OK
            return {p.name: p.read_bytes() for p in out.glob("*.csv")}

        on, off = csvs("key_on", {"pretrain": True}), csvs("key_off", {})
        assert len(on) == 2 and on != off
        assert csvs("flag_on", {}, "--pretrain", "on") == on
        assert csvs("flag_off", {"pretrain": True}, "--pretrain", "off") == off

    def test_random_labels_run_and_sweep_cell_match_the_library(self, tmp_path):
        config = {"blobs": FAST_BLOBS, "rounds": 3, "seeds": 1, "n": 4, "random_labels": True}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == EXIT_OK
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == EXIT_OK
        experiment = ExperimentConfig(
            policy="btb", n_models=4, rounds=3, dataset=BlobsSpec(**FAST_BLOBS),
            corruption=CorruptionSpec(fraction=1.0, mode="full_random"),
        )
        expected = cli.format_run_csv(run_experiment(experiment)).encode()
        assert (tmp_path / "run" / "run_0.csv").read_bytes() == expected
        assert (tmp_path / "sweep" / "btb_c2_preoff_randomlabels" / "run_0.csv").read_bytes() == expected

    @pytest.mark.parametrize(
        "flags, corruption",
        [([], None), (["--noise", "0.3"], CorruptionSpec(fraction=0.3))],
        ids=["defaults", "noise"],
    )
    def test_default_run_matches_the_library_defaults(self, tmp_path, flags, corruption):
        out = tmp_path / "out"
        assert main(["run", "--seeds", "1", "--rounds", "3", *flags, "--out", str(out)]) == EXIT_OK
        experiment = ExperimentConfig(policy="btb", rounds=3, corruption=corruption)
        assert (out / "run_0.csv").read_text() == cli.format_run_csv(run_experiment(experiment))

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--rounds", "x"],
            ["run", "--bogus", "1"],
            ["sweep", "--policy", "boost"],
            ["run", "--pretrain", "maybe"],
            ["run", "--noise"],
            ["train"],
            [],
        ],
        ids=["int_not_a_number", "unknown_flag", "unknown_policy", "bad_choice", "missing_value", "unknown_command", "no_command"],
    )
    def test_bad_flag_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nkdiff run")


class TestBadInputs:
    """Each bad config exits 2 with one line naming the key, and writes nothing."""

    @pytest.mark.parametrize(
        "command, bad, named",
        [
            ("run", {"blobs": {"n_per_class": 3.5}}, "blobs.n_per_class"),
            ("run", {"blobs": {"seed": "x"}}, "blobs.seed"),
            ("run", {"blobs": {"train_frac": "0.5"}}, "blobs.train_frac"),
            ("run", {"blobs": {"noise_sigma": None}}, "blobs.noise_sigma"),
            ("run", {"out": 5}, "out"),
            ("sweep", {"capacities": 2}, "capacities"),
            ("sweep", {"noise_levels": 0.1}, "noise_levels"),
            ("sweep", {"policies": "btb"}, "policies"),
            ("sweep", {"pretraining": "yes"}, "pretraining"),
            ("run", {"noise": -0.1}, "-0.1"),
            ("run", {"hidden_widths": [0]}, "hidden widths"),
            ("run", {"dataset": "idx", "idx": INT_IDX_PATHS}, "idx.train_images"),
            ("run", {"dataset": "idx", "idx": {"train_images": "a.idx"}}, "test_labels"),
            ("run", {"policies": ["btb"]}, "policies"),
            ("run", {"capacities": [2]}, "capacities"),
            ("run", {"pretraining": [True]}, "pretraining"),
            ("run", {"noise_levels": [0.0]}, "noise_levels"),
            ("sweep", {"policies": ["btb", "BTB"]}, "policies"),
            ("sweep", {"capacities": [2, 2]}, "capacities"),
            ("run", {"blobs": {"sigma": 1.0}}, "sigma"),
            ("run", {"learning_rate": float("inf")}, "learning_rate"),
            ("run", {"learning_rate": 10**400}, "learning_rate"),
            ("run", {"blobs": {"n_per_class": 10**20}}, "blobs.n_per_class"),
            ("run", {"rundos": None}, "unknown config keys: ['rundos']"),
            ("sweep", {"rundos": None}, "unknown config keys: ['rundos']"),
            ("run", {"idx": STR_IDX_PATHS}, "idx section"),
            ("sweep", {"idx": STR_IDX_PATHS, "policies": ["btb", "oo"]}, "idx section"),
            ("run", {"noise": 0.2, "noise_seed": -1}, "seed"),
            ("run", {"master_seed": 2**63 - 1, "seeds": 2},
             "master_seed + seeds - 1 must be at most 2**63 - 1, got 9223372036854775807 + 2 - 1"),
            ("run", {"master_seed": -1}, "master_seed must be a non-negative 64-bit integer, got -1"),
        ],
        ids=[
            "blobs_n_per_class_float",
            "blobs_seed_string",
            "blobs_train_frac_string",
            "blobs_noise_sigma_null",
            "out_integer",
            "capacities_scalar",
            "noise_levels_scalar",
            "policies_string",
            "pretraining_string",
            "noise_negative",
            "hidden_width_zero",
            "idx_paths_integer",
            "idx_paths_missing",
            "run_policies_axis",
            "run_capacities_axis",
            "run_pretraining_axis",
            "run_noise_levels_axis",
            "policies_repeat_ignoring_case",
            "capacities_repeat",
            "blobs_unknown_key",
            "learning_rate_infinite",
            "learning_rate_integer_beyond_float",
            "blobs_n_per_class_beyond_int64",
            "run_unknown_key_null",
            "sweep_unknown_key_null",
            "run_idx_section_for_blobs",
            "sweep_idx_section_for_blobs",
            "noise_seed_negative",
            "second_master_seed_beyond_int64",
            "master_seed_negative",
        ],
    )
    def test_exits_2_with_one_line_and_no_output(self, tmp_path, monkeypatch, capsys, command, bad, named):
        # No --out: the run would write to ./out, so every file it left would show.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"blobs": FAST_BLOBS, "rounds": 1, "seeds": 1, "n": 4, **bad}))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ") and named in err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("via", ["flag", "key"])
    def test_an_empty_out_is_refused(self, tmp_path, monkeypatch, capsys, command, via):
        # An unset out writes to ./out, so an empty one falling back there could overwrite an earlier run.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        config = {"blobs": FAST_BLOBS, "rounds": 1, "seeds": 1, "n": 4}
        if command == "sweep":
            # The c=5 cells are skipped, which would print a line if the cells were planned first.
            config.update(policies=["btb", "oo"], capacities=[2, 5])
        path.write_text(json.dumps({**config, "out": ""} if via == "key" else config))
        argv = [command, "--config", str(path), *(["--out", ""] if via == "flag" else [])]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: out must name a directory, got ''\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_integer_idx_paths_leave_stdout_open(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": "idx", "idx": INT_IDX_PATHS, "seeds": 1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        os.fstat(1)
        assert not out.exists()


# Any JSON value, small enough that a well-typed one keeps a run tiny.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(-2.0, 2.0),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
POLICY_NAMES = st.sampled_from(["oo", "pom", "rgbt", "btb", "eq", "BTB", "bogus"])
IDX_PATHS = st.sampled_from(["missing.idx", ""])


def _either(well_typed):
    return st.one_of(well_typed, JSON_VALUES)


def _section(required, optional):
    return st.fixed_dictionaries(required, optional={k: _either(v) for k, v in optional.items()})


FUZZ_KEYS = {
    "policy": POLICY_NAMES,
    "n": st.integers(-1, 6),
    "c": st.integers(-1, 6),
    "rounds": st.integers(0, 1),
    "seeds": st.integers(0, 1),
    "master_seed": st.integers(-1, 3),
    "pretrain": st.booleans(),
    "noise": st.floats(-0.5, 1.5),
    "random_labels": st.booleans(),
    "noise_seed": st.integers(-1, 3),
    "dataset": st.sampled_from(["blobs", "idx", "csv"]),
    "blobs": _section(
        {},
        {
            "n_per_class": st.integers(0, 12),
            "k": st.integers(1, 4),
            "d": st.integers(0, 4),
            "centers_scale": st.floats(-3.0, 3.0),
            "noise_sigma": st.floats(-1.0, 2.0),
            "seed": st.integers(-1, 9),
            "train_frac": st.floats(0.0, 1.0),
            "val_frac": st.floats(0.0, 1.0),
        }
    ),
    "idx": _section(
        {
            "train_images": IDX_PATHS,
            "train_labels": IDX_PATHS,
            "test_images": IDX_PATHS,
            "test_labels": IDX_PATHS,
        },
        {"val_frac": st.floats(0.0, 1.0), "seed": st.integers(-1, 3)},
    ),
    "hidden_widths": st.lists(st.integers(0, 5), max_size=2),
    "learning_rate": st.floats(-0.1, 1e6),
    "batch_size": st.integers(0, 20),
    "shuffle": st.booleans(),
    "out": st.text(max_size=3),
    "policies": st.lists(POLICY_NAMES, min_size=0, max_size=2),
    "capacities": st.lists(st.integers(1, 4), max_size=2),
    "pretraining": st.lists(st.booleans(), max_size=2),
    "noise_levels": st.lists(st.floats(-0.2, 1.2), max_size=2),
}
TINY_BLOBS = {**FAST_BLOBS, "n_per_class": 10}


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(command=st.sampled_from(["run", "sweep"]), data=st.data())
    def test_any_config_ends_with_a_known_exit_code(self, command, data):
        assert set(FUZZ_KEYS) == set(SCHEMA) | set(SWEEP_AXES)
        keys = data.draw(st.lists(st.sampled_from(sorted(FUZZ_KEYS)), max_size=4, unique=True))
        fuzzed = {key: data.draw(_either(FUZZ_KEYS[key]), label=key) for key in keys}
        config = {"blobs": TINY_BLOBS, "rounds": 1, "seeds": 1, "n": 4, "batch_size": 8, **fuzzed}
        if isinstance(fuzzed.get("blobs"), dict):
            config["blobs"] = {**TINY_BLOBS, **fuzzed["blobs"]}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as f:
                json.dump(config, f)
            argv = [command, "--config", path, "--out", os.path.join(tmp, "out")]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC)


def _top(key):
    return lambda config, value: config.update({key: value})


def _section(section, key):
    return lambda config, value: config[section].update({key: value})


# Each CLI key that sets one library field: how it sets the config, and the
# library type built from that field alone, with every other field at its default.
AGREEING_KEYS = {
    "n": (_top("n"), lambda v: ExperimentConfig(policy="btb", n_models=v)),
    "c": (_top("c"), lambda v: ExperimentConfig(policy="btb", capacity=v)),
    "rounds": (_top("rounds"), lambda v: ExperimentConfig(policy="btb", rounds=v)),
    "master_seed": (_top("master_seed"), lambda v: ExperimentConfig(policy="btb", master_seed=v)),
    "pretrain": (_top("pretrain"), lambda v: ExperimentConfig(policy="btb", pretrain=v)),
    # The CLI folds policy names to lower case before it builds the config.
    "policy": (_top("policy"), lambda v: ExperimentConfig(policy=v.lower() if isinstance(v, str) else v)),
    "learning_rate": (_top("learning_rate"), lambda v: TrainHyperparams(learning_rate=v)),
    "batch_size": (_top("batch_size"), lambda v: TrainHyperparams(batch_size=v)),
    "shuffle": (_top("shuffle"), lambda v: TrainHyperparams(shuffle=v)),
    **{f"blobs.{key}": (_section("blobs", key), lambda v, key=key: BlobsSpec(**{key: v})) for key in FAST_BLOBS},
    **{
        f"idx.{key}": (_section("idx", key), lambda v, key=key: IdxSpec(**STR_IDX_PATHS, **{key: v}))
        for key in ("val_frac", "seed")
    },
}
# Every JSON shape, with the edges of the int64 and float ranges drawn often.
ANY_JSON_SCALAR = st.one_of(
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, -1, 0, 10**400, float("inf"), float("nan")]),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)


def _rejects(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


class TestLibraryAgreement:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(key=st.sampled_from(sorted(AGREEING_KEYS)), value=ANY_JSON_SCALAR)
    def test_the_cli_rejects_a_value_exactly_when_the_library_does(self, key, value):
        # A top-level null leaves its key at the default, so it sets no library field.
        assume(value is not None or "." in key)
        set_key, build_library = AGREEING_KEYS[key]
        config = merge_config(DEFAULT_CONFIG, {"seeds": 1})
        if key.startswith("idx."):
            config.update(dataset="idx", idx=dict(STR_IDX_PATHS))
        set_key(config, value)

        def build_cli():
            check_config(config, sweep=False)
            build_experiments(config)

        assert _rejects(build_cli) == _rejects(lambda: build_library(value))
