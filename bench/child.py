"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: ``python3 child.py JOB.json RESULT.json``

The job names the source tree to import, the data set-up and the calls to
time. Set-up (import plus building or loading the data) ends with a
``time.monotonic()`` stamp; the parent (``run.py``) subtracts the moment it
started this process. Each call is timed alone, and the fixed reference kernel is timed
before the first call and after every call, so each call has a reference
time measured on either side of it. Writing CSVs of ``run_experiment``
records happens after the timers stop. With ``"trace": true`` the tracer is
installed before set-up and its spans are written out at the end.

The child runs on one CPU, pinned before numpy loads so that its BLAS sizes
its thread pool to that CPU. On a 2-vCPU KVM guest each vCPU switched
between two speeds about 1.7x apart, for spans of under a second to over
25 s, and a call spread over both vCPUs by the session pool varied by up to
20% in ways no reference kernel tracked.
On one CPU the call and its reference kernel see the same speed.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def reference_kernel(reps: int) -> int:
    """Time, in ns, of a fixed mix of work shaped like nkdiff's own.

    Dividing a call's wall time by this kernel's time, taken on the same CPU
    just before and after the call, cancels most of the machine's changes of
    speed. Each rep runs 20 forward/backward passes of a 32-row 10-16-3 MLP
    (Python-overhead bound) and one of a 32-row 784-32 layer (BLAS bound).
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x, w1, w2 = rng.standard_normal((32, 10)), rng.standard_normal((10, 16)), rng.standard_normal((16, 3))
    wide_x, wide_w = rng.standard_normal((32, 784)), rng.standard_normal((784, 32))
    start = time.perf_counter_ns()
    for _ in range(reps):
        for _ in range(20):
            h = np.maximum(x @ w1, 0.0)
            z = h @ w2
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            grad2 = h.T @ p
            grad1 = x.T @ ((p @ w2.T) * (h > 0.0))
        wide_h = np.maximum(wide_x @ wide_w, 0.0)
        wide_grad = wide_x.T @ wide_h
        wide_back = wide_h @ wide_w.T
    del grad1, grad2, wide_grad, wide_back
    return time.perf_counter_ns() - start


def _setup(job):
    import numpy as np

    import nkdiff

    setup = job["setup"]
    if setup["dataset"] == "reference":
        # The acceptance suite's reference task: 600/200/200 rows cut in
        # order from one 3-class blobs pool.
        pool = nkdiff.gen_blobs(n_per_class=334, K=3, d=10, centers_scale=1.0, noise_sigma=1.5, seed=7)
        return (
            pool.take(np.arange(0, 600), "train"),
            pool.take(np.arange(600, 800), "validation"),
            pool.take(np.arange(800, 1000), "test"),
        )
    if setup["dataset"] == "idx":
        return nkdiff.build_datasets(nkdiff.IdxSpec(**setup["idx"]))
    return nkdiff.build_datasets(nkdiff.BlobsSpec())


def _call(job, data, i, out):
    """Run and time call ``i``; return its wall ns, exit code and the CSV
    files it still has to write, by name."""
    import nkdiff
    from nkdiff import cli

    if job["kind"] == "experiment":
        cfg, master_seed = job["config"], job["master_seeds"][i]
        config = nkdiff.ExperimentConfig(
            policy=cfg["policy"],
            n_models=cfg["n"],
            capacity=cfg["c"],
            rounds=cfg["rounds"],
            hyperparams=nkdiff.TrainHyperparams(
                learning_rate=cfg["learning_rate"], batch_size=cfg["batch_size"]
            ),
            master_seed=master_seed,
        )
        start = time.perf_counter_ns()
        records = nkdiff.run_experiment(config, data=data, threads=1)
        wall = time.perf_counter_ns() - start
        return wall, 0, {f"run_{master_seed}.csv": cli.format_run_csv(records)}
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter_ns()
        code = cli.main([*job["argv"][i], "--out", str(out)])
        wall = time.perf_counter_ns() - start
    return wall, code, {}


def main(job_path: str, result_path: str) -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import nkdiff

    if not nkdiff.__file__.startswith(job["src"] + os.sep):
        raise ImportError(f"nkdiff imported from {nkdiff.__file__}, not from {job['src']}")
    data = _setup(job)
    setup_done = time.monotonic()

    calls = []
    before = reference_kernel(job["reference_reps"])
    for i in range(len(job.get("master_seeds") or job["argv"])):
        out = Path(job["work"]) / f"call{i}"
        try:
            wall, code, files = _call(job, data, i, out)
        except Exception:
            calls.append({"wall_ns": None, "exit": None, "out": None, "error": traceback.format_exc()})
            break
        after = reference_kernel(job["reference_reps"])
        for name, text in files.items():
            out.mkdir(exist_ok=True)
            (out / name).write_text(text)
        calls.append({"wall_ns": wall, "ref_ns": (before + after) / 2, "exit": code, "out": str(out), "error": None})
        before = after
    result = {
        "setup_done": setup_done,
        "n_train": len(data[0]),
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": None,
    }
    if tracer is not None:
        result["spans"] = str(Path(job["work"]) / "spans.json")
        tracer.dump(result["spans"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
