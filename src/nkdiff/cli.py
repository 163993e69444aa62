"""Batch front-end: config parsing, multi-seed runs, sweeps, CSV emission.

Configs are flat JSON documents (see README for the schema). A run writes
one ``run_<seed>.csv`` per seed plus ``agg.csv`` and ``manifest.json``; a
sweep writes one such directory per grid cell plus ``summary.csv``.
Numeric CSV fields use fixed 6-decimal formatting so byte-identity of
outputs is meaningful, and files are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import BlobsSpec, CorruptionSpec, IdxFormatError, IdxSpec
from .engine import ExperimentConfig, prepare_data, run_experiment
from .metrics import AGG_FIELDS, MetricsRecord, aggregate_seeds
from .nn import NonFiniteError, TrainHyperparams
from .policies import ConfigurationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

RUN_CSV_HEADER = "round,oracle_sessions,forward_ops,alacc_test,ensacc_test,alacc_train,ensacc_val"

DEFAULT_CONFIG: dict = {
    "policy": "btb",
    "n": 10,
    "c": 2,
    "rounds": 10,
    "seeds": 5,
    "master_seed": 0,
    "pretrain": False,
    "noise": 0.0,
    "random_labels": False,
    "noise_seed": 97,
    "dataset": "blobs",
    "blobs": {
        "n_per_class": 334,
        "k": 3,
        "d": 10,
        "centers_scale": 1.0,
        "noise_sigma": 1.5,
        "seed": 7,
        "train_frac": 0.6,
        "val_frac": 0.2,
    },
    "idx": None,
    "hidden_widths": [16],
    "learning_rate": 0.005,
    "batch_size": 32,
    "shuffle": True,
}

SWEEP_AXES = ("policies", "capacities", "pretraining", "noise_levels")

# Keys whose values must be JSON booleans, integers or numbers; a boolean is never a number.
BOOL_KEYS = ("pretrain", "random_labels", "shuffle")
INT_KEYS = ("n", "c", "rounds", "seeds", "master_seed", "noise_seed", "batch_size")
FLOAT_KEYS = ("noise", "learning_rate")


@dataclass
class RunManifest:
    """Record of what a run directory contains and how to reproduce it."""

    config: dict
    config_hash: str
    seeds: list[int]
    out_dir: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "config_hash": self.config_hash,
                "seeds": self.seeds,
                "out_dir": self.out_dir,
            },
            indent=2,
            sort_keys=True,
        )


def config_hash(config: dict) -> str:
    """Content hash over the semantically meaningful config fields.

    The output directory does not change results, so it is excluded.
    """
    semantic = {k: v for k, v in config.items() if k != "out"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(loaded, dict):
        raise ConfigurationError(f"{path}: top level must be an object")
    return loaded


def merge_config(base: dict, *layers: dict) -> dict:
    """Later layers win; nested dataset/hyperparam dicts merge key-wise."""
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for layer in layers:
        for key, value in layer.items():
            if value is None:
                continue
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                merged[key].update(value)
            else:
                merged[key] = value
    return merged


def _check_keys(config: dict, allowed: set[str], context: str) -> None:
    unknown = set(config) - allowed
    if unknown:
        raise ConfigurationError(f"unknown {context} keys: {sorted(unknown)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_types(config: dict) -> None:
    """Require JSON booleans, integers and numbers where Python would coerce silently."""
    for key in BOOL_KEYS:
        if not isinstance(config[key], bool):
            raise ConfigurationError(f"{key} must be true or false, got {config[key]!r}")
    for key in INT_KEYS:
        if not _is_int(config[key]):
            raise ConfigurationError(f"{key} must be an integer, got {config[key]!r}")
    for key in FLOAT_KEYS:
        if not (_is_int(config[key]) or isinstance(config[key], float)):
            raise ConfigurationError(f"{key} must be a number, got {config[key]!r}")
    widths = config["hidden_widths"]
    if not isinstance(widths, (list, tuple)) or not all(_is_int(w) for w in widths):
        raise ConfigurationError(f"hidden_widths must be a list of integers, got {widths!r}")


def build_experiment_config(config: dict, master_seed: int) -> ExperimentConfig:
    """Translate one resolved config dict into an ExperimentConfig."""
    _check_keys(config, set(DEFAULT_CONFIG) | set(SWEEP_AXES) | {"out"}, "config")
    _check_types(config)
    try:
        noise = float(config["noise"])
        random_labels = config["random_labels"]
        if noise and random_labels:
            raise ConfigurationError("noise and random_labels are mutually exclusive")
        corruption = None
        if random_labels:
            corruption = CorruptionSpec(fraction=1.0, mode="full_random", seed=config["noise_seed"])
        elif noise > 0.0:
            corruption = CorruptionSpec(fraction=noise, mode="uniform_replace", seed=config["noise_seed"])

        if config["dataset"] == "blobs":
            dataset = BlobsSpec(**config["blobs"])
        elif config["dataset"] == "idx":
            if not config.get("idx"):
                raise ConfigurationError("dataset 'idx' needs an 'idx' section with file paths")
            dataset = IdxSpec(**config["idx"])
        else:
            raise ConfigurationError(f"unknown dataset {config['dataset']!r}, expected blobs or idx")

        return ExperimentConfig(
            policy=str(config["policy"]).lower(),
            n_models=config["n"],
            capacity=config["c"],
            rounds=config["rounds"],
            pretrain=config["pretrain"],
            hidden_widths=tuple(config["hidden_widths"]),
            hyperparams=TrainHyperparams(
                learning_rate=float(config["learning_rate"]),
                batch_size=config["batch_size"],
                shuffle=config["shuffle"],
            ),
            dataset=dataset,
            corruption=corruption,
            master_seed=master_seed,
        )
    except ConfigurationError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(str(exc)) from exc


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_run_csv(records: list[MetricsRecord]) -> str:
    lines = [RUN_CSV_HEADER]
    for rec in records:
        lines.append(
            f"{rec.round},{rec.oracle_sessions},{rec.forward_ops},"
            f"{rec.alacc_test:.6f},{rec.ensacc_test:.6f},"
            f"{rec.alacc_train:.6f},{rec.ensacc_val:.6f}"
        )
    return "\n".join(lines) + "\n"


def format_agg_csv(runs: list[list[MetricsRecord]]) -> str:
    header = ["round"]
    for name in AGG_FIELDS:
        header += [f"{name}_mean", f"{name}_ci95"]
    lines = [",".join(header)]
    if len(runs) >= 2:
        agg = aggregate_seeds(runs)
        means, cis, rounds = agg.mean, agg.ci95, agg.rounds
    else:
        rounds = np.array([rec.round for rec in runs[0]])
        means = {
            name: np.array([getattr(rec, name) for rec in runs[0]], dtype=np.float64)
            for name in AGG_FIELDS
        }
        cis = {name: np.zeros(len(rounds)) for name in AGG_FIELDS}
    for i, rnd in enumerate(rounds):
        cells = [str(int(rnd))]
        for name in AGG_FIELDS:
            cells += [f"{means[name][i]:.6f}", f"{cis[name][i]:.6f}"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def execute_run(config: dict, out_dir: Path) -> list[list[MetricsRecord]]:
    """Run every seed of a resolved config and write its output directory."""
    _check_types(config)
    if config["seeds"] < 1:
        raise ConfigurationError("seeds must be at least 1")
    seeds = [config["master_seed"] + i for i in range(config["seeds"])]
    # Validate before any training or I/O.
    experiment_cfgs = [build_experiment_config(config, seed) for seed in seeds]

    try:
        data = prepare_data(experiment_cfgs[0])
    except IdxFormatError:
        raise
    except ValueError as exc:
        raise ConfigurationError(f"dataset: {exc}") from exc

    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for seed, cfg in zip(seeds, experiment_cfgs):
        records = run_experiment(cfg, data=data)
        _write_atomic(out_dir / f"run_{seed}.csv", format_run_csv(records))
        runs.append(records)
    _write_atomic(out_dir / "agg.csv", format_agg_csv(runs))
    manifest = RunManifest(
        config={k: v for k, v in config.items() if k != "out"},
        config_hash=config_hash(config),
        seeds=seeds,
        out_dir=str(out_dir),
    )
    _write_atomic(out_dir / "manifest.json", manifest.to_json() + "\n")
    return runs


def cmd_run(config: dict) -> int:
    out_dir = Path(config.get("out") or "out")
    execute_run(config, out_dir)
    print(f"wrote {out_dir}/run_<seed>.csv, agg.csv, manifest.json")
    return EXIT_OK


def _cell_name(policy: str, c: int, pretrain: bool, noise: float, random_labels: bool) -> str:
    tag = f"{policy}_c{c}_pre{'on' if pretrain else 'off'}"
    if random_labels:
        return tag + "_randomlabels"
    return tag + f"_noise{noise:g}"


def cmd_sweep(config: dict) -> int:
    for axis in SWEEP_AXES:
        if axis in config and not config[axis]:
            raise ConfigurationError(f"sweep axis {axis!r} is empty")
    policies = [str(p).lower() for p in config.get("policies") or [config["policy"]]]
    capacities = config.get("capacities") or [config["c"]]
    pretraining = config.get("pretraining") or [config["pretrain"]]
    noise_levels = config.get("noise_levels") or [config["noise"]]
    for c, pretrain, noise in itertools.product(capacities, pretraining, noise_levels):
        _check_types({**config, "c": c, "pretrain": pretrain, "noise": noise})
    noise_levels = [float(x) for x in noise_levels]

    # The first cell's execute_run creates out_dir after building its data,
    # so a sweep that fails on bad data or skips every cell writes nothing.
    out_dir = Path(config.get("out") or "out")
    summary_rows = []
    for policy, c, pretrain, noise in itertools.product(
        policies, capacities, pretraining, noise_levels
    ):
        cell = merge_config(
            config, {"policy": policy, "c": c, "pretrain": pretrain, "noise": noise}
        )
        for axis in SWEEP_AXES:
            cell.pop(axis, None)
        name = _cell_name(policy, c, pretrain, noise, bool(cell["random_labels"]))
        try:
            build_experiment_config(cell, cell["master_seed"])
        except ConfigurationError as exc:
            print(f"skipping cell {name}: {exc}", file=sys.stderr)
            continue
        runs = execute_run(cell, out_dir / name)
        final = [run[-1] for run in runs]
        alacc = np.array([[rec.alacc_test for rec in run] for run in runs]).mean(axis=0)
        ensacc = np.array([[rec.ensacc_test for rec in run] for run in runs]).mean(axis=0)
        summary_rows.append(
            {
                "cell": name,
                "policy": policy,
                "c": c,
                "pretrain": int(pretrain),
                "noise": noise,
                "final_round": final[0].round,
                "final_alacc_test": float(np.mean([r.alacc_test for r in final])),
                "final_ensacc_test": float(np.mean([r.ensacc_test for r in final])),
                "best_alacc_test": float(alacc.max()),
                "best_ensacc_test": float(ensacc.max()),
            }
        )
    if not summary_rows:
        raise ConfigurationError("sweep produced no valid cells")
    header = list(summary_rows[0])
    lines = [",".join(header)]
    for row in summary_rows:
        cells = []
        for key in header:
            value = row[key]
            cells.append(f"{value:.6f}" if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    _write_atomic(out_dir / "summary.csv", "\n".join(lines) + "\n")
    print(f"wrote {out_dir}/summary.csv with {len(summary_rows)} cells")
    return EXIT_OK


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.policy is not None:
        overrides["policy"] = args.policy
    if args.n is not None:
        overrides["n"] = args.n
    if args.c is not None:
        overrides["c"] = args.c
    if args.rounds is not None:
        overrides["rounds"] = args.rounds
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.pretrain is not None:
        overrides["pretrain"] = args.pretrain == "on"
    if args.noise is not None:
        overrides["noise"] = args.noise
    if args.random_labels:
        overrides["random_labels"] = True
    if args.dataset is not None:
        overrides["dataset"] = args.dataset
    if args.master_seed is not None:
        overrides["master_seed"] = args.master_seed
    if args.out is not None:
        overrides["out"] = args.out
    return overrides


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--policy", choices=("oo", "pom", "rgbt", "btb", "eq"))
    parser.add_argument("--n", type=int, help="population size")
    parser.add_argument("--c", type=int, help="capacity bound (max group size)")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--seeds", type=int, help="number of repeated experiments")
    parser.add_argument("--master-seed", type=int)
    parser.add_argument("--pretrain", choices=("on", "off"))
    parser.add_argument("--noise", type=float, help="label corruption fraction")
    parser.add_argument("--random-labels", action="store_true", help="replace all training labels with random ones")
    parser.add_argument("--dataset", choices=("blobs", "idx"))
    parser.add_argument("--out", help="output directory")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nkdiff",
        description="Peer-teaching population training simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one configuration over several seeds")
    _add_common_flags(run_parser)
    sweep_parser = sub.add_parser("sweep", help="run a policy/capacity/noise grid")
    _add_common_flags(sweep_parser)

    args = parser.parse_args(argv)
    try:
        layers = [DEFAULT_CONFIG]
        if args.config:
            layers.append(load_config_file(args.config))
        layers.append(_overrides_from_args(args))
        config = merge_config(*layers)
        if args.command == "run":
            return cmd_run(config)
        return cmd_sweep(config)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IdxFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
