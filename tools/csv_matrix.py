"""Byte-identity matrix: run a fixed grid of nkdiff configs, print CSV digests.

Usage, from the root of a source checkout::

    python3 tools/csv_matrix.py OUT > digests.txt
    python3 tools/csv_matrix.py OUT --check tools/csv_matrix.sha256

OUT must not exist yet. The script imports nkdiff from ``src/`` of the
checkout it sits in, writes a small IDX task into ``OUT/idx_data``, runs 34
``nkdiff run`` commands and three ``nkdiff sweep`` commands into OUT and prints
a ``#`` header naming the Python and numpy versions and numpy's BLAS, then
one ``sha256  path`` line per CSV written (159 in all), with paths relative
to OUT, sorted.

``tools/csv_matrix.sha256`` is that listing, committed: the digests every
output float must keep. With ``--check FILE`` the script prints nothing of
the listing; it compares the digests with FILE's (``#`` lines are ignored),
prints each path whose digest differs, is missing or is new, and exits 1 if
there is any. The digests depend on the numpy and BLAS build, so when
FILE's header differs from this environment's, the script says so on
stderr; compare two checkouts on one machine with ``diff`` instead. A
change that moves output floats on purpose regenerates the file with the
first command above. The grid:

- a default ``nkdiff run`` (``btb``, C=2, 10 rounds, 5 seeds);
- the three configs of acceptance criterion 3 (``btb`` and ``pom`` at C=2,
  ``oo`` at C=5 with warm-up; 4 rounds, 2 seeds, a small blobs task);
- 15-round, 2-seed runs of the 5 policies x warm-up off/on x hidden widths
  [16] and [12, 8], at C=2 on the default task;
- 10-round, 2-seed runs on blobs tasks with more classes, where numpy sums
  a row of probabilities in 8 partial sums (K=10: ``btb`` at C=2 and ``eq``
  at C=5 with warm-up) or in halves (K=130: ``rgbt`` at C=2);
- a 5-round, 2-seed ``btb`` run at C=2 with a population of 20, so each
  ensemble vote sums 19 members;
- a 5-round, 2-seed ``oo`` run at C=3, a capacity that does not divide the
  population of 10;
- 5-round, 2-seed ``btb`` runs at C=2 with ``"shuffle": false``, warm-up off
  and on, so batches follow row order and no shuffle stream is read;
- a 5-round, 1-seed ``btb`` run at C=2, whose ``agg.csv`` holds the run's own
  values with zero-width intervals;
- a 3-round, 2-seed ``eq`` run at C=5 with warm-up (learning rate 0.05) on
  an IDX task of 8x8 images that ``nkdiff.write_idx`` writes from a fixed
  seed, so the files are read by ``load_idx`` and validation is carved out
  of the training files;
- a 5-round, 2-seed ``btb`` run at C=2 with ``"random_labels": true``, so
  every training label is redrawn from the noise seed;
- a sweep of ``btb`` and ``oo`` x label noise 0 and 0.3 (3 rounds, 2 seeds,
  default task): its ``summary.csv`` and each cell's three CSVs;
- a sweep of ``btb`` and ``pom`` at C=2 over 16 seeds (3 rounds, the small
  task of criterion 3), where ``summary.csv`` reads means of 8 or more seeds;
- a random-labels sweep of ``btb`` and ``oo`` at C=2 (3 rounds, 2 seeds,
  default task), whose cells are named ``..._randomlabels``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import platform
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nkdiff import write_idx  # noqa: E402
from nkdiff.cli import main as cli_main  # noqa: E402

CRITERION_3_BLOBS = {
    "n_per_class": 60,
    "k": 3,
    "d": 4,
    "centers_scale": 2.0,
    "noise_sigma": 0.8,
    "seed": 3,
    "train_frac": 0.6,
    "val_frac": 0.2,
}

SWEEPS = {
    "sweep": {"policies": ["btb", "oo"], "noise_levels": [0.0, 0.3], "rounds": 3, "seeds": 2},
    "sweep_16seeds": {"policies": ["btb", "pom"], "rounds": 3, "seeds": 16, "blobs": CRITERION_3_BLOBS},
    "sweep_randomlabels": {"policies": ["btb", "oo"], "c": 2, "rounds": 3, "seeds": 2, "random_labels": True},
}


def write_idx_task(directory: Path) -> dict:
    """Write 8x8 IDX train (150 images) and test (50) files; return their ``idx`` config section."""
    directory.mkdir()
    rng = np.random.default_rng(11)
    templates = rng.integers(0, 256, size=(10, 8, 8))
    section = {"val_frac": 0.2, "seed": 3}
    for part, n in (("train", 150), ("test", 50)):
        labels = rng.integers(0, 10, size=n)
        noise = rng.normal(0.0, 60.0, size=(n, 8, 8))
        images = np.clip(templates[labels] + noise, 0, 255).astype(np.uint8)
        section[f"{part}_images"] = str(directory / f"{part}_images.idx")
        section[f"{part}_labels"] = str(directory / f"{part}_labels.idx")
        write_idx(section[f"{part}_images"], section[f"{part}_labels"], images, labels)
    return section


def grid(idx: dict) -> list[tuple[str, dict]]:
    """(directory name, config) for every ``nkdiff run`` of the matrix; ``idx`` is the IDX task's section."""
    runs: list[tuple[str, dict]] = [("default", {})]
    small = {"n": 10, "rounds": 4, "seeds": 2, "blobs": CRITERION_3_BLOBS}
    runs += [
        ("c3_btb", {**small, "policy": "btb", "c": 2}),
        ("c3_pom", {**small, "policy": "pom", "c": 2}),
        ("c3_oo", {**small, "policy": "oo", "c": 5, "pretrain": True}),
    ]
    policies = ("oo", "pom", "rgbt", "btb", "eq")
    for policy, pretrain, hidden in itertools.product(policies, (False, True), ([16], [12, 8])):
        name = f"{policy}_pre{'on' if pretrain else 'off'}_h{'x'.join(map(str, hidden))}"
        config = {"policy": policy, "c": 2, "rounds": 15, "seeds": 2,
                  "pretrain": pretrain, "hidden_widths": hidden}
        runs.append((name, config))
    k10 = {"n_per_class": 40, "k": 10, "d": 10, "centers_scale": 2.0, "noise_sigma": 1.0, "seed": 5}
    k130 = {"n_per_class": 5, "k": 130, "d": 10, "centers_scale": 3.0, "noise_sigma": 1.0, "seed": 6}
    many = {"rounds": 10, "seeds": 2}
    runs += [
        ("k10_btb", {**many, "blobs": k10, "policy": "btb", "c": 2}),
        ("k10_eq_preon", {**many, "blobs": k10, "policy": "eq", "c": 5, "pretrain": True}),
        ("k130_rgbt", {**many, "blobs": k130, "policy": "rgbt", "c": 2,
                       "learning_rate": 0.05, "batch_size": 16}),
        ("n20_btb", {"n": 20, "rounds": 5, "seeds": 2, "policy": "btb", "c": 2}),
        ("oo_c3", {"rounds": 5, "seeds": 2, "policy": "oo", "c": 3}),
    ]
    for pretrain in (False, True):
        runs.append((f"noshuffle_btb_pre{'on' if pretrain else 'off'}",
                     {"rounds": 5, "seeds": 2, "policy": "btb", "c": 2,
                      "shuffle": False, "pretrain": pretrain}))
    runs += [
        ("one_seed_btb", {"rounds": 5, "seeds": 1, "policy": "btb", "c": 2}),
        ("idx_eq_preon", {"dataset": "idx", "idx": idx, "rounds": 3, "seeds": 2, "policy": "eq",
                          "c": 5, "pretrain": True, "batch_size": 16, "learning_rate": 0.05}),
        ("randomlabels_btb", {"rounds": 5, "seeds": 2, "policy": "btb", "c": 2, "random_labels": True}),
    ]
    return runs


def environment() -> list[str]:
    """The ``#`` header lines naming what the digests depend on: Python, numpy and numpy's BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', 'no configuration')})"
    except (TypeError, KeyError):
        blas = "unknown"
    return [f"# python {platform.python_version()}, numpy {np.__version__}", f"# blas {blas}"]


def by_path(lines) -> dict[str, str]:
    """``sha256  path`` lines as a path -> digest mapping."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def check(listing: list[str], path: Path) -> int:
    """Compare ``sha256  path`` lines with the file at ``path``; print every difference, return 1 if any."""
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    if header != environment():
        print(f"note: {path} was recorded under\n  " + "\n  ".join(header)
              + "\nand this is\n  " + "\n  ".join(environment()), file=sys.stderr)
    expected = by_path(line for line in lines if line and not line.startswith("#"))
    found = by_path(listing)
    problems = [f"differs: {name}" for name in sorted(expected.keys() & found.keys()) if expected[name] != found[name]]
    problems += [f"missing: {name}" for name in sorted(expected.keys() - found.keys())]
    problems += [f"new: {name}" for name in sorted(found.keys() - expected.keys())]
    print("\n".join(problems) or f"all {len(found)} digests match {path}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory; must not exist")
    parser.add_argument("--check", type=Path, metavar="FILE", help="compare the digests with a listing instead of printing it")
    args = parser.parse_args(argv)
    if args.check is not None and not args.check.is_file():
        parser.error(f"{args.check} is not a file")
    if args.out.exists():
        parser.error(f"{args.out} already exists")
    args.out.mkdir(parents=True)
    idx = write_idx_task(args.out / "idx_data")
    for command, name, config in [*(("run", *run) for run in grid(idx)), *(("sweep", *s) for s in SWEEPS.items())]:
        path = args.out / f"{name}.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([command, "--config", str(path), "--out", str(args.out / name)])
        if code != 0:
            print(f"{command} {name} exited {code}", file=sys.stderr)
            return 1
    listing = [f"{hashlib.sha256(csv.read_bytes()).hexdigest()}  {csv.relative_to(args.out)}"
               for csv in sorted(args.out.rglob("*.csv"))]
    if args.check is not None:
        return check(listing, args.check)
    print("\n".join(environment() + listing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
