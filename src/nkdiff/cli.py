"""Batch front-end: config parsing, multi-seed runs, sweeps, CSV emission.

Configs are flat JSON documents (see README for the schema). A run writes
one ``run_<seed>.csv`` per seed plus ``agg.csv`` and ``manifest.json``; a
sweep writes one such directory per grid cell plus ``summary.csv``, whose
final and best columns are read from the seed aggregate behind ``agg.csv``.
One CSV writer prints every float with 6 fixed decimals, so byte-identity
of outputs is meaningful, and files are written atomically.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import tempfile
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path

from .data import KINDS, BlobsSpec, CorruptionSpec, Dataset, IdxFormatError, IdxSpec, build_datasets
from .engine import ExperimentConfig, prepare_data, run_experiment
from .metrics import AGG_FIELDS, AggregateSeries, MetricsRecord, aggregate_seeds
from .nn import NonFiniteError, TrainHyperparams
from .policies import POLICIES, ConfigurationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

RUN_CSV_COLUMNS = ("round", *AGG_FIELDS)
RUN_CSV_HEADER = ",".join(RUN_CSV_COLUMNS)
# One row per sweep cell: its axes, then test means from the cell's seed aggregate.
SUMMARY_CSV_COLUMNS = ("cell", "policy", "c", "pretrain", "noise", "final_round", "final_alacc_test",
                       "final_ensacc_test", "best_alacc_test", "best_ensacc_test")

# Every config key with its kind and its default. A kind is a scalar kind of
# data.KINDS (the library types check their fields by it too), [kind] a list
# of that kind, or a dataclass: a nested section kinded by its fields. A None
# default leaves the key unset; a key that sets a library field takes that field's default.
_DEFAULT = ExperimentConfig(policy="btb")
SCHEMA: dict = {
    "policy": ("str", _DEFAULT.policy),
    "n": ("int", _DEFAULT.n_models),
    "c": ("int", _DEFAULT.capacity),
    "rounds": ("int", _DEFAULT.rounds),
    "seeds": ("int", 5),
    "master_seed": ("Seed", _DEFAULT.master_seed),
    "pretrain": ("bool", _DEFAULT.pretrain),
    "noise": ("float", 0.0),
    "random_labels": ("bool", False),
    "noise_seed": ("Seed", CorruptionSpec(fraction=0.0).seed),
    "dataset": ("str", "blobs"),
    "blobs": (BlobsSpec, asdict(BlobsSpec())),
    "idx": (IdxSpec, None),
    "hidden_widths": (["int"], list(_DEFAULT.hidden_widths)),
    "learning_rate": ("float", _DEFAULT.hyperparams.learning_rate),
    "batch_size": ("int", _DEFAULT.hyperparams.batch_size),
    "shuffle": ("bool", _DEFAULT.hyperparams.shuffle),
    "out": ("str", None),
}
DEFAULT_CONFIG = {key: default for key, (_, default) in SCHEMA.items()}

# Sweep axis -> the config key each of its entries sets, in grid order.
SWEEP_AXES = {"policies": "policy", "capacities": "c", "pretraining": "pretrain", "noise_levels": "noise"}


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
    """Later layers win; the nested ``blobs`` and ``idx`` sections merge key-wise.
    A None leaves a known key as it was, and an unknown key keeps it for check_config."""
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in base.items()}
    for layer in layers:
        for key, value in layer.items():
            if value is None and (key in SCHEMA or key in SWEEP_AXES):
                continue
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                merged[key].update(value)
            else:
                merged[key] = value
    return merged


def _check(value, kind, path: str) -> None:
    """Raise ConfigurationError naming ``path`` unless ``value`` is of the SCHEMA kind ``kind``."""
    if is_dataclass(kind):
        kind = {f.name: f.type for f in fields(kind)}
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{path} must be an object, got {value!r}")
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ConfigurationError(f"unknown {path or 'config'} keys: {unknown}")
        for key, item in value.items():
            _check(item, kind[key], f"{path}.{key}" if path else key)
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigurationError(f"{path} must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check(item, kind[0], f"{path}[{i}]")
    elif not KINDS[kind][0](value):
        raise ConfigurationError(f"{path} must be {KINDS[kind][1]}, got {value!r}")


def check_config(config: dict, sweep: bool) -> None:
    """Check every key of a resolved config against SCHEMA, once; fold policy names to lower case.

    Only a sweep may carry axes; each is a non-empty list of distinct values
    of its key's type. Ranges are left to the classes the values configure.
    """
    axes = [axis for axis in SWEEP_AXES if axis in config]
    if axes and not sweep:
        raise ConfigurationError(f"sweep axes {axes} are only read by nkdiff sweep")
    # None marks an unset key: merge_config sets one from a layer only for an unknown key.
    given = {k: v for k, v in config.items() if k not in SWEEP_AXES and (v is not None or k not in SCHEMA)}
    _check(given, {key: kind for key, (kind, _) in SCHEMA.items()}, "")
    if config["idx"] is not None and config["dataset"] != "idx":
        raise ConfigurationError(f"an idx section is read only with dataset 'idx', not {config['dataset']!r}")
    # Policy names are case-insensitive; the manifest and its hash see one spelling.
    config["policy"] = config["policy"].lower()
    for axis in axes:
        values, key = config[axis], SWEEP_AXES[axis]
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"sweep axis {axis} must be a non-empty list, got {values!r}")
        for value in values:
            _check(value, SCHEMA[key][0], f"{axis}: {key}")
        if key == "policy":
            config[axis] = values = [v.lower() for v in values]
        if len(set(values)) < len(values):
            raise ConfigurationError(f"sweep axis {axis} repeats an entry: {values!r}")


def build_experiments(config: dict) -> list[ExperimentConfig]:
    """One ExperimentConfig per seed of a checked config dict.

    The classes it builds raise ValueError for values out of range.
    """
    if config["seeds"] < 1:
        raise ConfigurationError("seeds must be at least 1")
    noise, random_labels = config["noise"], config["random_labels"]
    if noise and random_labels:
        raise ConfigurationError("noise and random_labels are mutually exclusive")
    corruption = None
    if random_labels:
        corruption = CorruptionSpec(fraction=1.0, mode="full_random", seed=config["noise_seed"])
    elif noise:
        corruption = CorruptionSpec(fraction=noise, mode="uniform_replace", seed=config["noise_seed"])

    if config["dataset"] == "blobs":
        dataset = BlobsSpec(**config["blobs"])
    elif config["dataset"] == "idx":
        section = config["idx"] or {}
        missing = [f.name for f in fields(IdxSpec) if f.default is MISSING and f.name not in section]
        if missing:
            raise ConfigurationError(f"dataset 'idx' needs {missing} in its 'idx' section")
        dataset = IdxSpec(**section)
    else:
        raise ConfigurationError(f"unknown dataset {config['dataset']!r}, expected blobs or idx")

    hyperparams = TrainHyperparams(
        learning_rate=config["learning_rate"],
        batch_size=config["batch_size"],
        shuffle=config["shuffle"],
    )
    return [
        ExperimentConfig(
            policy=config["policy"],
            n_models=config["n"],
            capacity=config["c"],
            rounds=config["rounds"],
            pretrain=config["pretrain"],
            hidden_widths=tuple(config["hidden_widths"]),
            hyperparams=hyperparams,
            dataset=dataset,
            corruption=corruption,
            master_seed=config["master_seed"] + i,
        )
        for i in range(config["seeds"])
    ]


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


def _csv(header, rows) -> str:
    """CSV text of a header and rows: floats with 6 decimals, everything else with str."""
    lines = [header, *([f"{v:.6f}" if isinstance(v, float) else str(v) for v in row] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def format_run_csv(records: list[MetricsRecord]) -> str:
    return _csv(RUN_CSV_COLUMNS, [[getattr(rec, name) for name in RUN_CSV_COLUMNS] for rec in records])


def format_agg_csv(agg: AggregateSeries) -> str:
    header = ["round", *(f"{name}_{stat}" for name in AGG_FIELDS for stat in ("mean", "ci95"))]
    stats = (agg.mean, agg.ci95)
    rows = [[int(rnd), *(stat[name][i] for name in AGG_FIELDS for stat in stats)] for i, rnd in enumerate(agg.rounds)]
    return _csv(header, rows)


def execute_run(
    config: dict,
    out_dir: Path,
    experiments: list[ExperimentConfig],
    datasets: tuple[Dataset, Dataset, Dataset] | None = None,
) -> AggregateSeries:
    """Run the per-seed experiments of a checked config, write its output directory
    and return the seed aggregate that ``agg.csv`` holds.

    ``datasets`` may give the config's (train, val, test) already built and
    not yet corrupted. The data is ready and checked before out_dir exists.
    """
    data = prepare_data(experiments[0], datasets)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for cfg in experiments:
        records = run_experiment(cfg, data=data)
        _write_atomic(out_dir / f"run_{cfg.master_seed}.csv", format_run_csv(records))
        runs.append(records)
    agg = aggregate_seeds(runs)
    _write_atomic(out_dir / "agg.csv", format_agg_csv(agg))
    manifest = {
        "config": {k: v for k, v in config.items() if k != "out"},
        "config_hash": config_hash(config),
        "seeds": [cfg.master_seed for cfg in experiments],
        "out_dir": str(out_dir),
    }
    _write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return agg


def cmd_run(config: dict) -> int:
    out_dir = Path(config.get("out") or "out")
    execute_run(config, out_dir, build_experiments(config))
    print(f"wrote {out_dir}/run_<seed>.csv, agg.csv, manifest.json")
    return EXIT_OK


def _cell_name(policy: str, c: int, pretrain: bool, noise: float, random_labels: bool) -> str:
    tag = f"{policy}_c{c}_pre{'on' if pretrain else 'off'}"
    if random_labels:
        return tag + "_randomlabels"
    return tag + f"_noise{noise:g}"


def cmd_sweep(config: dict) -> int:
    base = {k: v for k, v in config.items() if k not in SWEEP_AXES}
    grid = [config.get(axis, [config[key]]) for axis, key in SWEEP_AXES.items()]
    # Every cell is validated, and named apart, before the first one runs and writes.
    planned, named = [], {}
    for policy, c, pretrain, noise in itertools.product(*grid):
        values = {"policy": policy, "c": c, "pretrain": pretrain, "noise": noise}
        cell = merge_config(base, values)
        name = _cell_name(cell["policy"], c, pretrain, noise, cell["random_labels"])
        try:
            planned.append((name, cell, build_experiments(cell)))
        except ValueError as exc:
            print(f"skipping cell {name}: {exc}", file=sys.stderr)
            continue
        if name in named:
            raise ConfigurationError(f"sweep cells {named[name]} and {values} share the directory name {name}")
        named[name] = values
    if not planned:
        raise ConfigurationError("sweep produced no valid cells")

    # No axis changes the dataset, so it is built once, before anything is
    # written; each cell applies its own label corruption to it.
    datasets = build_datasets(planned[0][2][0].dataset)
    out_dir = Path(config.get("out") or "out")
    rows = []
    for name, cell, experiments in planned:
        agg = execute_run(cell, out_dir / name, experiments, datasets)
        alacc, ensacc = agg.mean["alacc_test"], agg.mean["ensacc_test"]
        rows.append([name, cell["policy"], cell["c"], int(cell["pretrain"]), float(cell["noise"]),
                     int(agg.rounds[-1]), alacc[-1], ensacc[-1], alacc.max(), ensacc.max()])
    _write_atomic(out_dir / "summary.csv", _csv(SUMMARY_CSV_COLUMNS, rows))
    print(f"wrote {out_dir}/summary.csv with {len(rows)} cells")
    return EXIT_OK


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The config keys set by flags; an absent flag is None, which merge_config skips."""
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.pretrain is not None:
        overrides["pretrain"] = args.pretrain == "on"
    return overrides


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a flag error as a ConfigurationError, reported in one line."""

    def error(self, message):
        raise ConfigurationError(message)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    # Policy names are case-insensitive, as in a config file.
    parser.add_argument("--policy", type=str.lower, choices=POLICIES)
    parser.add_argument("--n", type=int, help="population size")
    parser.add_argument("--c", type=int, help="capacity bound (max group size)")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--seeds", type=int, help="number of repeated experiments")
    parser.add_argument("--master-seed", type=int)
    parser.add_argument("--pretrain", choices=("on", "off"))
    parser.add_argument("--noise", type=float, help="label corruption fraction")
    parser.add_argument("--random-labels", action="store_true", default=None, help="replace all training labels with random ones")
    parser.add_argument("--dataset", choices=("blobs", "idx"))
    parser.add_argument("--out", help="output directory")


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="nkdiff",
        description="Peer-teaching population training simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one configuration over several seeds")
    _add_common_flags(run_parser)
    sweep_parser = sub.add_parser("sweep", help="run a policy/capacity/noise grid")
    _add_common_flags(sweep_parser)

    try:
        args = parser.parse_args(argv)
        file_config = load_config_file(args.config) if args.config else {}
        flags = _overrides_from_args(args)
        for axis, key in SWEEP_AXES.items():
            if file_config.get(axis) is not None and flags[key] is not None:
                raise ConfigurationError(f"flag --{key} and sweep axis {axis} both set {key}")
        config = merge_config(DEFAULT_CONFIG, file_config, flags)
        check_config(config, sweep=args.command == "sweep")
        if args.command == "run":
            return cmd_run(config)
        return cmd_sweep(config)
    except (IdxFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # A well-typed config can still ask for more data than memory holds.
        print(f"memory error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # ConfigurationError, and the range checks of the classes a config builds.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
