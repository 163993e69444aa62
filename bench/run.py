"""nkdiff benchmark: one command for every workload, metric and check.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload oo_c10_serial --seed 1 --seconds 35 --trace 0

This process makes the workload's inputs from ``--seed``, then starts fresh
child processes (``child.py``), one repetition each, until ``--seconds``
have passed. Only calls into public nkdiff functions are timed. After the
timed loop, outside any timer, it checks every output: the per-round ledger
identities, that every accuracy is finite and in [0, 1], that CSVs are
byte-identical across repetitions and to one ``NKDIFF_THREADS=1`` re-run.

With ``--trace 1`` the repetitions alternate between untraced children and
traced ones (``tracer.py``); the traced spans give the per-layer metrics and
are reconciled exactly with the ledger. The report goes to standard output;
its last line is one JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``). The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))
# This process imports nkdiff only to write the IDX inputs.
sys.path.insert(0, str(SRC))

import tracer  # noqa: E402

# Whole run, set-up to report, must stay below this many seconds.
DEADLINE_S = 170

# Call timings in the JSON line are in units of the reference kernel
# (child.reference_kernel) timed on either side of each call: raw wall time
# on a 2-vCPU KVM guest swung about 1.7x with load from outside the VM, and
# the ratio cancels most of it. Raw seconds are printed in the report.
END_TO_END = (
    ("setup_s", "s"),
    ("forward_ops_per_ref", "examples/ref"),
    ("call_ref_p50", "ref"),
    ("peak_rss_mb", "MB"),
    ("final_alacc_test", "fraction"),
    ("final_ensacc_test", "fraction"),
)
# Printed in the report only. A p90 needs >= 100 calls so that ten lie
# beyond it, which takes several runs pooled (pool.py); failed_frac is 0 on
# a correct build, so the JSON line carries it as attempted and failed.
REPORT_ONLY_END_TO_END = (
    ("call_s_p50", "s"),
    ("forward_ops_per_s", "examples/s"),
    ("reference_kernel_s_p50", "s"),
    ("call_s_p90", "s"),
    ("failed_frac", "ratio"),
)

# Per-layer metrics defined on every workload; these go in the JSON line.
PER_LAYER = (
    ("nn.loss_and_gradient.calls_per_round", "calls/round"),
    ("nn.loss_and_gradient.us_per_call", "us"),
    ("nn.loss_and_gradient.share", "fraction"),
    ("nn.train_epoch.self_share", "fraction"),
    ("nn.train_epoch.us_per_example", "us"),
    ("nn.train.gflops_computed", "GFLOP/s"),
    ("nn.forward_batch.calls_per_round", "calls/round"),
    ("nn.forward_batch.rows_per_round", "rows/round"),
    ("nn.forward_batch.share", "fraction"),
    ("nn.forward_batch.unique_frac", "fraction"),
    ("nn.pseudolabels.calls_per_round", "calls/round"),
    ("policies.plan.us_per_round", "us"),
    ("engine.run_round.self_share", "fraction"),
    ("engine.run_round.session_overlap", "ratio"),
    ("metrics.accuracy.calls_per_round", "calls/round"),
    ("metrics.eval.share", "fraction"),
    ("trace.overhead_frac", "ratio"),
)
# Per-layer metrics that exist only on some workloads: report only.
REPORT_ONLY_PER_LAYER = (
    ("population.evaluate_validation.share", "fraction"),
    ("population.pretrain_population.s", "s"),
    ("data.build_datasets.s", "s"),
    ("data.load_idx.mb_per_s", "MB/s"),
    ("cli.execute_run.self_share", "fraction"),
    ("cli.bytes_written", "bytes"),
)

# The ROADMAP's measured range for a 100-round run at threads=1.
ROADMAP_BASELINE_S = (1.9, 2.5)

ACCURACY_COLUMNS = ("alacc_test", "ensacc_test", "alacc_train", "ensacc_val")

# Bindings a traced child must see fire on every workload.
COMMON_BINDINGS = (
    "nkdiff.engine.run_round",
    "nkdiff.engine.run_session",
    "nkdiff.engine.train_epoch",
    "nkdiff.nn.loss_and_gradient",
    "nkdiff.nn.forward_batch",
    "nkdiff.metrics.forward_batch",
    "nkdiff.metrics.predict",
    "nkdiff.metrics.accuracy",
    "nkdiff.metrics.ensemble_predict",
    "nkdiff.engine.accuracy",
    "nkdiff.engine.average_learner_accuracy",
    "nkdiff.engine.pseudolabels",
    "nkdiff.engine.validate_plan",
)
# Teachers other than the oracle answer through nn.predict.
CLI_BINDINGS = (
    "nkdiff.nn.predict",
    "nkdiff.cli.main",
    "nkdiff.cli.execute_run",
    "nkdiff.cli.prepare_data",
    "nkdiff.cli.run_experiment",
    "nkdiff.engine.build_datasets",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policy: str
    n: int
    c: int
    pretrain: bool
    widths: tuple[int, ...]
    expect: tuple[str, ...]

    @property
    def sessions_per_round(self) -> int:
        if self.policy == "oo":
            return self.c - 1
        if self.policy == "pom":
            return self.n - 1
        return self.n - self.n // self.c

    @property
    def oracle_per_round(self) -> int:
        return 1 if self.policy == "pom" else self.c - 1

    @property
    def pretrain_sessions(self) -> int:
        return self.n * (self.n - 1) // 2 if self.pretrain else 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oo_c10_serial",
            "single-threaded oo C=10 run_experiment: nn training dominates, no validation or peer labels",
            "oo", 10, 10, False, (10, 16, 3),
            COMMON_BINDINGS + ("nkdiff.run_experiment", "nkdiff.engine.group_oo", "nkdiff.gen_blobs"),
        ),
        Workload(
            "btb_c2_cli",
            "default nkdiff run (btb C=2, thread pool on): ranking, peer labels, pool and CSV writing",
            "btb", 10, 2, False, (10, 16, 3),
            COMMON_BINDINGS + CLI_BINDINGS + (
                "nkdiff.engine.evaluate_validation",
                "nkdiff.engine.rank_models",
                "nkdiff.engine.group_btb",
                "nkdiff.population.accuracy",
                "nkdiff.build_datasets",
            ),
        ),
        Workload(
            "idx_eq_c5_cli",
            "MNIST-shaped IDX input with warm-up, eq C=5, hidden 32: kernel-bound training and IDX loading",
            "eq", 10, 5, True, (784, 32, 10),
            COMMON_BINDINGS + CLI_BINDINGS + (
                "nkdiff.engine.evaluate_validation",
                "nkdiff.engine.rank_models",
                "nkdiff.engine.group_eq",
                "nkdiff.engine.pretrain_population",
                "nkdiff.population.train_epoch",
                "nkdiff.population.pseudolabels",
                "nkdiff.data.load_idx",
                "nkdiff.build_datasets",
            ),
        ),
    )
}


# --------------------------------------------------------------------------
# Inputs


IDX_TEMPLATE_SEED = 7


def write_idx_inputs(directory: Path, seed: int, n_train: int, n_test: int) -> dict:
    """Seeded MNIST-shaped IDX files: class templates under heavy noise.

    Each of the 10 classes is a sum of four Gaussian strokes on a 28x28
    grid. The templates are fixed, like the blobs task of the other
    workloads, so every seed poses a task of the same difficulty. ``seed``
    draws the labels, the N(0, 0.75^2) pixel noise and the shifts of up to
    one pixel; the noise is heavy enough that one epoch does not solve the
    task. Files are written with the public ``nkdiff.write_idx``.
    """
    import nkdiff

    template_rng = np.random.default_rng(IDX_TEMPLATE_SEED)
    yy, xx = np.mgrid[0:28, 0:28]
    templates = np.zeros((10, 28, 28))
    for k in range(10):
        for _ in range(4):
            cy, cx = template_rng.uniform(6, 22, 2)
            sy, sx = template_rng.uniform(1.5, 4.0, 2)
            templates[k] += np.exp(-((yy - cy) ** 2 / (2 * sy**2) + (xx - cx) ** 2 / (2 * sx**2)))
        templates[k] /= templates[k].max()
    rng = np.random.default_rng(np.random.SeedSequence((seed, IDX_TEMPLATE_SEED)))
    n = n_train + n_test
    labels = rng.integers(0, 10, n)
    images = templates[labels] + 0.75 * rng.standard_normal((n, 28, 28))
    shifts = rng.integers(-1, 2, (n, 2))
    for i, (dy, dx) in enumerate(shifts):
        images[i] = np.roll(images[i], (dy, dx), axis=(0, 1))
    pixels = np.clip(np.round(128 * images + 32), 0, 255).astype(np.uint8)
    paths = {
        key: str(directory / key)
        for key in ("train_images", "train_labels", "test_images", "test_labels")
    }
    nkdiff.write_idx(paths["train_images"], paths["train_labels"], pixels[:n_train], labels[:n_train])
    nkdiff.write_idx(paths["test_images"], paths["test_labels"], pixels[n_train:], labels[n_train:])
    return paths


def make_job(w: Workload, seed: int, work: Path, tiny: bool) -> dict:
    """The child job for one repetition; identical for every repetition."""
    job = {"src": str(SRC), "trace": False, "reference_reps": 3 if tiny else 150}
    if w.name == "oo_c10_serial":
        job.update(
            kind="experiment",
            setup={"dataset": "reference"},
            config={"policy": w.policy, "n": w.n, "c": w.c, "rounds": 2 if tiny else 100,
                    "learning_rate": 0.005, "batch_size": 32},
            master_seeds=[seed] if tiny else [2 * seed, 2 * seed + 1],
            rounds=2 if tiny else 100,
        )
        return job
    if w.name == "btb_c2_cli":
        rounds, seeds = (1, 2) if tiny else (20, 10)
        argv = ["run", "--rounds", str(rounds), "--seeds", str(seeds), "--master-seed", str(seeds * seed)]
        job.update(kind="cli", setup={"dataset": "blobs"}, argv=[argv], rounds=rounds)
        return job
    rounds, seeds = (1, 1) if tiny else (5, 1)
    inputs = work / "idx"
    inputs.mkdir()
    paths = write_idx_inputs(inputs, seed, *((60, 20) if tiny else (2200, 500)))
    config = {
        "policy": w.policy, "c": w.c, "pretrain": True, "rounds": rounds, "seeds": seeds,
        "master_seed": seeds * seed, "dataset": "idx", "idx": paths,
        "hidden_widths": list(w.widths[1:-1]), "learning_rate": 0.01,
    }
    config_path = inputs / "config.json"
    config_path.write_text(json.dumps(config))
    job.update(
        kind="cli",
        setup={"dataset": "idx", "idx": paths},
        argv=[["run", "--config", str(config_path)]],
        rounds=rounds,
    )
    return job


# --------------------------------------------------------------------------
# Children


class Runner:
    """Starts children and collects their results."""

    def __init__(self, job: dict, work: Path, deadline: float):
        self.job = job
        self.work = work
        self.deadline = deadline
        self.count = 0

    def run(self, trace: bool = False, threads_env: str | None = None) -> dict:
        self.count += 1
        rep = self.work / f"rep{self.count}"
        rep.mkdir()
        job = dict(self.job, trace=trace, work=str(rep))
        job_path, result_path = rep / "job.json", rep / "result.json"
        job_path.write_text(json.dumps(job))
        env = {k: v for k, v in os.environ.items() if k not in ("NKDIFF_THREADS", "PYTHONPATH")}
        if threads_env is not None:
            env["NKDIFF_THREADS"] = threads_env
        timeout = max(1.0, self.deadline - time.monotonic())
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(job_path), str(result_path)],
                env=env, cwd=rep, capture_output=True, text=True, timeout=timeout,
            )
            error = None if proc.returncode == 0 else f"child exit {proc.returncode}: {proc.stderr[-2000:]}"
        except subprocess.TimeoutExpired:
            error = f"child exceeded {timeout:.0f} s"
        if error is None:
            result = json.loads(result_path.read_text())
            result["setup_s"] = result["setup_done"] - started
        else:
            result = {"calls": [], "error": error}
        result["trace"] = trace
        result["dir"] = rep
        return result


# --------------------------------------------------------------------------
# Checks


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, (float(x) for x in line.split(",")))) for line in lines[1:]]


def check_call(w: Workload, call: dict, rounds: int, n_train: int) -> tuple[list[str], dict]:
    """Problems in one call's outputs, and its ledger and accuracy summary."""
    if call["error"] is not None:
        return [call["error"].strip().splitlines()[-1]], {}
    if call["exit"] != 0:
        return [f"exit code {call['exit']}"], {}
    out = Path(call["out"])
    problems: list[str] = []
    runs = sorted(out.glob("run_*.csv"))
    if not runs:
        return ["no run_*.csv written"], {}
    summary = {"forward_ops": 0, "oracle_sessions": 0, "alacc": [], "ensacc": []}
    for path in runs:
        try:
            rows = read_csv(path)
        except (ValueError, IndexError):
            problems.append(f"{path.name}: not a numeric CSV")
            continue
        if [int(r["round"]) for r in rows] != list(range(1, rounds + 1)):
            problems.append(f"{path.name}: rounds are not 1..{rounds}")
            continue
        oracle, ops = w.pretrain_sessions, w.pretrain_sessions * n_train
        for r in rows:
            oracle += w.oracle_per_round
            ops += n_train * w.sessions_per_round
            if (r["oracle_sessions"], r["forward_ops"]) != (oracle, ops):
                problems.append(
                    f"{path.name} round {int(r['round'])}: ledger ({r['oracle_sessions']:.0f}, "
                    f"{r['forward_ops']:.0f}) != expected ({oracle}, {ops})"
                )
                break
            for col in ACCURACY_COLUMNS:
                if not (math.isfinite(r[col]) and 0.0 <= r[col] <= 1.0):
                    problems.append(f"{path.name} round {int(r['round'])}: {col}={r[col]}")
        summary["forward_ops"] += int(rows[-1]["forward_ops"])
        summary["oracle_sessions"] += int(rows[-1]["oracle_sessions"])
        summary["alacc"].append(rows[-1]["alacc_test"])
        summary["ensacc"].append(rows[-1]["ensacc_test"])
    agg = out / "agg.csv"
    if agg.exists():
        for r in read_csv(agg):
            for col in ACCURACY_COLUMNS:
                value = r[f"{col}_mean"]
                if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                    problems.append(f"agg.csv round {int(r['round'])}: {col}_mean={value}")
    return problems, summary


def csv_digest(call: dict) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(call["out"]).glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Report


def machine_record() -> dict:
    try:
        from numpy import show_config

        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_"))},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def kernel_counts(w: Workload, n_train: int, batch_size: int = 32) -> dict:
    """Computed matmul flops and bytes of one round's training, by formula."""
    flops = nbytes = 0
    for start in range(0, n_train, batch_size):
        f, b = tracer.matmul_cost(w.widths, min(batch_size, n_train - start))
        flops += f
        nbytes += b
    return {
        "train_flops_per_round": flops * w.sessions_per_round,
        "train_bytes_per_round": nbytes * w.sessions_per_round,
    }


def quantile_p90(samples: list[float]) -> float | None:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(samples) < 100:
        return None
    return statistics.quantiles(samples, n=10)[-1]


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# --------------------------------------------------------------------------
# One benchmark run


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one benchmark; return the result object and the report lines."""
    w = WORKLOADS[workload]
    deadline = time.monotonic() + DEADLINE_S
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work"))
    try:
        return _run(w, seed, seconds, trace, tiny, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(w, seed, seconds, trace, tiny, work, deadline):
    job = make_job(w, seed, work, tiny)
    runner = Runner(job, work, deadline)
    children = []
    start = time.monotonic()
    iterations = 0
    # Start another iteration only if one more is expected to fit.
    while not iterations or (time.monotonic() - start) * (1 + 1 / iterations) < seconds:
        children.append(runner.run())
        if trace:
            children.append(runner.run(trace=True))
        iterations += 1
    rerun = runner.run(threads_env="1") if job["kind"] == "cli" else None

    report: list[str] = []
    problems: list[str] = []
    expected_calls = len(job.get("master_seeds") or job["argv"])
    attempted = failed = 0
    digests: dict[int, list[str]] = {}
    for child in children + ([rerun] if rerun else []):
        if child.get("error"):
            problems.append(f"{child['dir'].name}: {child['error']}")
        missing = [{"error": "call never ran", "exit": None, "wall_ns": None}] * (expected_calls - len(child["calls"]))
        child["calls"] = child["calls"][:expected_calls] + missing
        for i, call in enumerate(child["calls"]):
            call_problems, call["summary"] = check_call(w, call, job["rounds"], child.get("n_train"))
            if child is not rerun:
                attempted += 1
                failed += bool(call_problems)
            problems += [f"{child['dir'].name} call {i}: {p}" for p in call_problems]
            if not call_problems:
                digests.setdefault(i, []).append(csv_digest(call))
    for i, values in digests.items():
        if len(set(values)) != 1:
            problems.append(f"call {i}: CSVs differ across {len(values)} repetitions (traced and NKDIFF_THREADS=1 included)")

    timed = [c for c in children if not c["trace"] and not c.get("error")]
    ok_calls = [call for c in timed for call in c["calls"] if call["summary"]]
    call_s = [call["wall_ns"] / 1e9 for call in ok_calls]
    call_ref = [call["wall_ns"] / call["ref_ns"] for call in ok_calls]
    ref_s = [call["ref_ns"] / 1e9 for call in ok_calls]
    alacc = [a for call in ok_calls for a in call["summary"]["alacc"]]
    ensacc = [a for call in ok_calls for a in call["summary"]["ensacc"]]
    e2e = {
        "setup_s": median([c["setup_s"] for c in timed]),
        "forward_ops_per_ref": median([c["summary"]["forward_ops"] / r for c, r in zip(ok_calls, call_ref)]),
        "call_ref_p50": median(call_ref),
        "call_s_p50": median(call_s),
        "forward_ops_per_s": median([c["summary"]["forward_ops"] / s for c, s in zip(ok_calls, call_s)]),
        "reference_kernel_s_p50": median(ref_s),
        "call_s_p90": quantile_p90(call_s),
        "peak_rss_mb": median([c["maxrss_kb"] / 1024 for c in timed]),
        "final_alacc_test": statistics.mean(alacc) if alacc else None,
        "final_ensacc_test": statistics.mean(ensacc) if ensacc else None,
        "failed_frac": failed / attempted if attempted else None,
    }

    layers = {}
    if trace:
        per_child, traced_call_ref = [], []
        for child in children:
            if not child["trace"] or child.get("error") or child["spans"] is None:
                continue
            spans = tracer.load(child["spans"])
            walls = [call["wall_ns"] for call in child["calls"] if call["summary"]]
            traced_call_ref += [c["wall_ns"] / c["ref_ns"] for c in child["calls"] if c["summary"]]
            summaries = [call["summary"] for call in child["calls"] if call["summary"]]
            ledger = {
                "forward_ops": sum(s["forward_ops"] for s in summaries),
                "oracle_sessions": sum(s["oracle_sessions"] for s in summaries),
                "n_train": child["n_train"],
            }
            problems += [f"trace {child['dir'].name}: {p}" for p in tracer.reconcile(spans, list(w.expect), ledger)]
            metrics = tracer.layer_metrics(spans, sum(walls))
            metrics["cli.bytes_written"] = (
                statistics.mean(
                    sum(p.stat().st_size for p in Path(call["out"]).iterdir())
                    for call in child["calls"]
                    if call["summary"]
                )
                if job["kind"] == "cli"
                else None
            )
            per_child.append(metrics)
        if per_child:
            layers = tracer.median_metrics(per_child)
            layers["trace.overhead_frac"] = (
                median(traced_call_ref) / e2e["call_ref_p50"] - 1 if traced_call_ref and e2e["call_ref_p50"] else None
            )
        else:
            problems.append("no traced child succeeded")

    correct = not problems and attempted > 0
    names = PER_LAYER if trace else END_TO_END
    values = layers if trace else e2e
    missing = [name for name, _ in names if values.get(name) is None]
    if missing:
        correct = False
        problems.append(f"metrics not measured: {missing}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in names if values.get(name) is not None
        },
    }

    n_train = next((c["n_train"] for c in children if "n_train" in c), 0)
    report.append(f"nkdiff benchmark: workload={w.name} seed={seed} seconds={seconds} trace={int(trace)}")
    report.append(f"why: {w.why}")
    report.append("machine: " + json.dumps(machine_record(), sort_keys=True))
    report.append(
        f"children: {len(timed)} timed, {sum(c['trace'] for c in children)} traced, "
        f"{'1 NKDIFF_THREADS=1 re-run' if rerun else 'no re-run (threads=1 already)'}; "
        f"calls attempted {attempted}, failed {failed}"
    )
    report.append("kernel (computed from widths and rows): " + json.dumps(kernel_counts(w, n_train) if n_train else {}))
    report.append("end_to_end:")
    for name, unit in END_TO_END + REPORT_ONLY_END_TO_END:
        note = ""
        if name == "call_s_p90":
            note = f"  ({len(call_s)} samples; needs >= 100 so that 10 lie beyond it; pool runs with bench/pool.py)"
        report.append(f"  {name:<40} {fmt(e2e[name]):>14} {unit}{note}")
    if w.name == "oo_c10_serial" and not tiny and e2e["call_s_p50"]:
        p50 = e2e["call_s_p50"]
        lo, hi = ROADMAP_BASELINE_S
        gap = "within it" if lo <= p50 <= hi else f"{p50 / (lo if p50 < lo else hi) - 1:+.0%} outside it"
        report.append(
            f"  baseline: one 100-round oo C=10 run_experiment at threads=1 took {p50:.3f} s "
            f"(median of {len(call_s)}); the ROADMAP's 100-round baseline is {lo}-{hi} s: {gap}"
        )
    report.append("call_samples_s: " + json.dumps([round(s, 6) for s in call_s]))
    report.append("call_samples_ref: " + json.dumps([round(r, 4) for r in call_ref]))
    if trace:
        report.append("per_layer (median over traced children):")
        for name, unit in PER_LAYER + REPORT_ONLY_PER_LAYER:
            report.append(f"  {name:<40} {fmt(layers.get(name)):>14} {unit}")
        if layers.get("nn.forward_batch.rows_per_round"):
            widths = list(zip(w.widths[:-1], w.widths[1:]))
            flops = layers["nn.forward_batch.rows_per_round"] * sum(2 * wi * wo for wi, wo in widths)
            report.append(f"kernel (computed from traced row counts): forward_flops_per_round {flops:.0f}")
    report.append("checks: " + ("all passed" if not problems else f"{len(problems)} failed"))
    report += [f"  FAIL {p}" for p in problems[:20]]
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nkdiff" / "__init__.py").is_file():
        print(f"error: no nkdiff source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
