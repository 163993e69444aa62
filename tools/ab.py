"""A/B benchmark: run workloads on two source trees, alternating, and compare.

Usage, from anywhere::

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --seeds 1 2 3 4 5
    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload btb_c2_cli oo_c10_serial --seeds 6 7 --trace

Before the first run it compares ``BENCHMARK.json`` and every file under
``bench/`` (``__pycache__`` aside) in the two trees, by sha256; if any
differs, it prints the differing paths and exits with code 2, since the
two sides must run identical benchmark code.

``--workload`` names one or more workloads of CHANGE_DIR's
``BENCHMARK.json``, and defaults to all of them; they run one after the
other. For each workload and seed, in turn, the script runs
``bench/run.py --workload W --seed S --seconds 35 --trace 0`` in both trees,
one after the other; the first pair starts with the parent, the next with
the change, and so on, so drift in the machine's load falls on both sides
alike. It reads the JSON object on the last line each run prints, and stops
with exit code 1 as soon as a run exits non-zero or reports ``"correct":
false``. After each workload it prints, for each end-to-end metric in
CHANGE_DIR's ``BENCHMARK.json``, the median and quartiles on each side, and
in how many pairs the change was better (by the metric's ``better``
direction) and in how many exactly equal. After the table it says, for each
metric, whether the change meets the claim rule: it won at least 9 of every
10 pairs (ties count for neither side), and its median is better than the
parent's by more than the parent's Q3 - Q1. After the last workload it gives
each (metric, workload) one no-regression verdict, reading the metric's
``bound`` in BENCHMARK.json as a fraction of the parent's median:
``regressed`` if the change's median is worse than the parent's by more than
the bound; else ``unresolved`` if the parent's Q3 - Q1 exceeds the bound,
unless every change run beats every parent run; else ``held``.

With ``--trace``, each run is ``bench/run.py --trace 1`` instead, with the
same alternation, and the tables cover every per-layer metric in
CHANGE_DIR's ``BENCHMARK.json``. It applies no claim rule and gives no
verdict, because a per-layer number is not a claim: it shows where a
change's time went. It uses only the standard library and edits nothing in
either tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Each run's timed seconds: the run length BENCHMARK.json sets.
SECONDS = 35
YES_NO = {True: "yes", False: "no"}


def run_bench(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    """The last-line JSON of one ``bench/run.py`` run in ``tree``; raises RuntimeError if not correct."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SECONDS), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if done.returncode != 0 or result.get("correct") is not True:
        tail = (done.stdout + done.stderr).strip().splitlines()[-5:]
        raise RuntimeError(f"{tree} seed {seed}: exit {done.returncode}, not correct\n  " + "\n  ".join(tail))
    return result


def benchmark_digests(tree: Path) -> dict[str, str]:
    """sha256 of ``BENCHMARK.json`` and of each file under ``bench/`` but ``__pycache__``, by path in ``tree``."""
    files = [tree / "BENCHMARK.json", *(tree / "bench").rglob("*")]
    return {str(f.relative_to(tree)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files if f.is_file() and "__pycache__" not in f.relative_to(tree).parts}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", nargs="+", help="workloads to run (default: every one in BENCHMARK.json)")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true",
                        help="run traced and compare the per-layer metrics, with no claim rule")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py in {tree}")
    digests = [benchmark_digests(tree) for tree in trees.values()]
    differ = sorted(name for name in digests[0].keys() | digests[1].keys() if digests[0].get(name) != digests[1].get(name))
    if differ:
        print("error: the two trees run different benchmark code:\n  " + "\n  ".join(differ), file=sys.stderr)
        return 2
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; BENCHMARK.json has {', '.join(names)}")
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    width = max(len(m["name"]) for m in metrics)

    rules = []
    for workload in workloads:
        values: dict[str, dict[str, list[float]]] = {side: {m["name"]: [] for m in metrics} for side in SIDES}
        for pair, seed in enumerate(args.seeds):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                try:
                    result = run_bench(trees[side], workload, seed, args.trace)
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{workload} pair {pair + 1}/{len(args.seeds)} seed {seed}: {side} done", file=sys.stderr, flush=True)
        rules += [(workload, *rule) for rule in compare(workload, metrics, values, args.seeds, args.trace, width)]
    if args.trace:
        return 0
    print("no-regression rule: regressed if the change's median is worse than the parent's by more than")
    print("the bound (its BENCHMARK.json fraction of the parent's median); unresolved if the parent's")
    print("Q3 - Q1 exceeds the bound, unless every change run beats every parent run; otherwise held")
    tag = max(len(w) for w in workloads)
    print(f"{'workload':<{tag}} {'metric':<{width}} {'bound':>12} {'median loss':>12} {'parent IQR':>12}  verdict")
    for workload, m, _, gap, iqr, scale, beats_all in rules:
        bound = m["bound"] * scale
        print(f"{workload:<{tag}} {m['name']:<{width}} {bound:>12.4g} {-gap:>12.4g} {iqr:>12.4g}  "
              f"{verdict(-gap, iqr, bound, beats_all)}")
    return 0


def compare(workload: str, metrics: list[dict], values: dict, seeds: list[int], trace: bool, width: int) -> list[tuple]:
    """Print one workload's table, and its claim rule unless ``trace``; return, per metric,
    (metric, pairs the change won, median gap, parent IQR, |parent median|, change beats all)."""
    n = len(seeds)
    print(f"workload {workload}, {n} pairs, seeds {seeds}" + (", traced" if trace else ""))
    print(f"{'metric':<{width}} {'parent q1/median/q3':>32} {'change q1/median/q3':>32}  change better  equal")
    rule = []
    for m in metrics:
        name = m["name"]
        parent, change = values["parent"][name], values["change"][name]
        sign = 1 if m["better"] == "higher" else -1
        better = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        equal = sum(c == p for p, c in zip(parent, change))
        cells = ["/".join(f"{v:.4g}" for v in quartiles(side)) for side in (parent, change)]
        print(f"{name:<{width}} {cells[0]:>32} {cells[1]:>32}  {better:>6}/{n:<6} {equal:>2}/{n}")
        (q1, median, q3), change_median = quartiles(parent), quartiles(change)[1]
        gap = change_median - median if sign > 0 else median - change_median
        beats_all = all(sign * (c - p) > 0 for p in parent for c in change)
        rule.append((m, better, gap, q3 - q1, abs(median), beats_all))
    if trace:
        print("per-layer metrics: no claim rule applies")
        return rule
    print("claim rule: the change wins at least 9/10 of the pairs, and its median is better")
    print("than the parent's by more than the parent's Q3 - Q1")
    print(f"{'metric':<{width}} {'pairs won':>13} {'median gap':>12} {'parent IQR':>12} {'gap > IQR':>10}  met")
    for m, better, gap, iqr, *_ in rule:
        won, beyond = 10 * better >= 9 * n, gap > iqr
        print(f"{m['name']:<{width}} {better:>6}/{n:<3} {YES_NO[won]:>3} {gap:>12.4g} {iqr:>12.4g} {YES_NO[beyond]:>10}  "
              f"{YES_NO[won and beyond]}")
    return rule


def verdict(loss: float, iqr: float, bound: float, beats_all: bool) -> str:
    """``regressed``, ``unresolved`` or ``held``. ``loss`` is how much worse the change's median is
    than the parent's, ``iqr`` the parent's Q3 - Q1 and ``bound`` the loss allowed, all in the
    metric's unit; ``beats_all`` says whether every change run is better than every parent run."""
    if loss > bound:
        return "regressed"
    if iqr > bound and not beats_all:
        return "unresolved"
    return "held"


if __name__ == "__main__":
    sys.exit(main())
