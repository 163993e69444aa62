"""A/B benchmark: run one workload on two source trees, alternating, and compare.

Usage, from anywhere::

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload btb_c2_cli --seeds 1 2 3 4 5
    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload oo_c10_serial --seeds 6 7 --trace

For each seed, in turn, the script runs ``bench/run.py --workload W --seed S
--seconds 35 --trace 0`` in both trees, one after the other; the first pair
starts with the parent, the next with the change, and so on, so drift in the
machine's load falls on both sides alike. It reads the JSON object on the
last line each run prints, and stops with exit code 1 as soon as a run exits
non-zero or reports ``"correct": false``. Then it prints, for each
end-to-end metric in CHANGE_DIR's ``BENCHMARK.json``, the median and
quartiles on each side, and in how many pairs the change was better (by the
metric's ``better`` direction) and in how many exactly equal. After the
table it says, for each metric, whether the change meets the claim rule:
it won at least 9 of every 10 pairs (ties count for neither side), and its
median is better than the parent's by more than the parent's Q3 - Q1.

With ``--trace``, each run is ``bench/run.py --trace 1`` instead, with the
same alternation, and the table covers every per-layer metric in
CHANGE_DIR's ``BENCHMARK.json``. It applies no claim rule, because a
per-layer number is not a claim: it shows where a change's time went. It
uses only the standard library and edits nothing in either tree.
"""

from __future__ import annotations

import argparse
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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", action="store_true",
                        help="run traced and compare the per-layer metrics, with no claim rule")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py in {tree}")
    metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    values: dict[str, dict[str, list[float]]] = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    for pair, seed in enumerate(args.seeds):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            try:
                result = run_bench(trees[side], args.workload, seed, args.trace)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"pair {pair + 1}/{len(args.seeds)} seed {seed}: {side} done", file=sys.stderr, flush=True)

    n = len(args.seeds)
    print(f"workload {args.workload}, {n} pairs, seeds {args.seeds}" + (", traced" if args.trace else ""))
    width = max(len(m["name"]) for m in metrics)
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
        rule.append((name, better, gap, q3 - q1))
    if args.trace:
        print("per-layer metrics: no claim rule applies")
        return 0
    print("claim rule: the change wins at least 9/10 of the pairs, and its median is better")
    print("than the parent's by more than the parent's Q3 - Q1")
    print(f"{'metric':<{width}} {'pairs won':>13} {'median gap':>12} {'parent IQR':>12} {'gap > IQR':>10}  met")
    for name, better, gap, iqr in rule:
        won, beyond = 10 * better >= 9 * n, gap > iqr
        print(f"{name:<{width}} {better:>6}/{n:<3} {YES_NO[won]:>3} {gap:>12.4g} {iqr:>12.4g} {YES_NO[beyond]:>10}  "
              f"{YES_NO[won and beyond]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
