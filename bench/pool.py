"""Pool saved benchmark outputs: per-metric spread and pooled call percentiles.

Usage::

    python3 bench/run.py --workload W --seed N --seconds 25 > out_N.txt   # repeat
    python3 bench/pool.py out_*.txt

For every metric of the final JSON lines it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median. From the ``call_samples_s`` report lines it prints the
pooled call-time p50 and p90 with the sample count; the p90 only when at
least ten samples lie beyond it. Samples in seconds and in reference-kernel
units are pooled separately.
"""

import json
import statistics
import sys

from run import quantile_p90


def main(paths: list[str]) -> int:
    metrics: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    samples: dict[str, list[float]] = {}
    for path in paths:
        with open(path) as f:
            lines = f.read().splitlines()
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for line in lines:
            if line.startswith("call_samples_"):
                kind, values = line.split(": ", 1)
                samples.setdefault(kind, []).extend(json.loads(values))
    print(f"{len(paths)} runs")
    for name, values in metrics.items():
        if len(values) < 2:
            print(f"{name:<40} {values[0]:.6g} {units[name]}")
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        print(
            f"{name:<40} median {median:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
        )
    for kind, values in samples.items():
        p90 = quantile_p90(values)
        print(
            f"{kind} pooled: {len(values)} samples, p50 {statistics.median(values):.6g}, "
            + (f"p90 {p90:.6g}" if p90 is not None else "p90 n/a (needs >= 100 samples)")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
