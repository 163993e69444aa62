"""Span tracer for the benchmark's traced runs, and the analysis of its spans.

``install`` wraps public nkdiff functions from outside the package: each
function is replaced at every module that binds it (``train_epoch`` lives in
``nkdiff.nn`` but is also bound in ``nkdiff.engine`` and
``nkdiff.population``), so internal calls through any binding are seen.
Every call becomes one span ``(id, parent, layer, binding, thread, start_ns,
end_ns, info)`` kept in memory and written out with ``Tracer.dump`` when the
run ends.

A span opened on a thread with an empty stack that is not the main thread
(a session-pool worker) takes as parent the innermost open span of the main
thread, which is the ``run_round`` that is waiting on the pool. Self time is
a span's duration minus the union of its children's intervals, so children
overlapping on pool threads are not subtracted twice.

This module imports nothing from nkdiff at import time; its analysis half
runs in ``run.py``, after the children have exited.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

# Public functions traced, by the module that defines them.
TRACED = {
    "nkdiff.nn": ("loss_and_gradient", "train_epoch", "forward_batch", "predict", "pseudolabels"),
    "nkdiff.population": ("evaluate_validation", "rank_models", "pretrain_population"),
    "nkdiff.policies": ("group_oo", "group_pom", "group_rgbt", "group_btb", "group_eq", "validate_plan"),
    "nkdiff.engine": ("run_experiment", "run_round", "run_session", "prepare_data"),
    "nkdiff.metrics": ("accuracy", "average_learner_accuracy", "ensemble_predict"),
    "nkdiff.data": ("gen_blobs", "build_datasets", "load_idx"),
    "nkdiff.cli": ("main", "execute_run"),
}

# Every module whose namespace may bind a traced function.
BINDING_MODULES = ("nkdiff",) + tuple(TRACED)

PLAN_LAYERS = (
    "policies.group_oo",
    "policies.group_pom",
    "policies.group_rgbt",
    "policies.group_btb",
    "policies.group_eq",
    "population.rank_models",
    "policies.validate_plan",
)

SPAN_FIELDS = ("id", "parent", "layer", "binding", "thread", "start", "end", "info")


def matmul_cost(widths, rows: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one ``loss_and_gradient`` call.

    Per layer (w_in, w_out) over n rows: the forward product, the weight
    gradient and, above the first layer, the back-propagated delta are each
    2*n*w_in*w_out flops; each reads and writes its three float64 operands
    once (cache effects ignored).
    """
    flops = nbytes = 0
    for layer, (wi, wo) in enumerate(zip(widths[:-1], widths[1:])):
        products = 2 if layer == 0 else 3
        flops += products * 2 * rows * wi * wo
        nbytes += products * 8 * (rows * wi + wi * wo + rows * wo)
    return flops, nbytes


def _loss_and_gradient_info(args, kwargs):
    spec, X = args[0], args[2]
    return matmul_cost(spec.layer_widths, len(X))


def _train_epoch_info(args, kwargs):
    return len(args[1])


def _forward_batch_info(args, kwargs):
    learner, X = args[0], args[1]
    digest = hashlib.blake2b(learner.params.tobytes(), digest_size=16).hexdigest()
    pointer = X.__array_interface__["data"][0]
    return [len(X), f"{digest}:{pointer}:{X.shape}"]


def _run_session_info(args, kwargs):
    teacher, learner = args[0], args[1]
    return int(teacher.is_oracle and not learner.is_oracle)


def _load_idx_info(args, kwargs):
    return sum(os.path.getsize(path) for path in args[:2])


INFO = {
    "nn.loss_and_gradient": _loss_and_gradient_info,
    "nn.train_epoch": _train_epoch_info,
    "nn.forward_batch": _forward_batch_info,
    "engine.run_session": _run_session_info,
    "data.load_idx": _load_idx_info,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def wrap(self, fn, layer: str, binding: str):
        info_of = INFO.get(layer)
        spans, stacks, ids, main = self.spans, self._stacks, self._ids, self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main) if thread != main else None
                parent = main_stack[-1] if main_stack else None
            span_id = next(ids)
            info = info_of(args, kwargs) if info_of else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, layer, binding, thread, start, end, info))

        return traced

    def install(self) -> None:
        """Wrap every traced function at each module that binds it."""
        modules = [importlib.import_module(name) for name in BINDING_MODULES]
        for home, names in TRACED.items():
            home_module = importlib.import_module(home)
            for name in names:
                fn = getattr(home_module, name)
                layer = f"{home.rsplit('.', 1)[1]}.{name}"
                for module in modules:
                    if module.__dict__.get(name) is fn:
                        setattr(module, name, self.wrap(fn, layer, f"{module.__name__}.{name}"))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [dict(zip(SPAN_FIELDS, row)) for row in json.load(f)]


def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Spans grouped by layer, with parents, children and self times."""

    def __init__(self, spans: list[dict]):
        self.by_id = {s["id"]: s for s in spans}
        self.by_layer: dict[str, list[dict]] = defaultdict(list)
        children: dict[int, list[dict]] = defaultdict(list)
        for s in spans:
            self.by_layer[s["layer"]].append(s)
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        self.children = children
        self.fired = {s["binding"] for s in spans}

    def count(self, layer: str) -> int:
        return len(self.by_layer.get(layer, ()))

    def total_ns(self, layer: str) -> int:
        return sum(s["end"] - s["start"] for s in self.by_layer.get(layer, ()))

    def self_ns(self, span: dict) -> int:
        covered = _union_ns(
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in self.children.get(span["id"], ())
            if c["end"] > span["start"] and c["start"] < span["end"]
        )
        return span["end"] - span["start"] - covered

    def total_self_ns(self, layer: str) -> int:
        return sum(self.self_ns(s) for s in self.by_layer.get(layer, ()))

    def has_ancestor(self, span: dict, layer: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            node = self.by_id[parent]
            if node["layer"] == layer:
                return True
            parent = node["parent"]
        return False

    def parent_layer(self, span: dict) -> str | None:
        parent = span["parent"]
        return None if parent is None else self.by_id[parent]["layer"]


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(spans: list[dict], call_wall_ns: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced child; None marks a layer never called.

    Shares divide summed span time by the summed wall time of the timed
    calls, so spans overlapping on pool threads can push a share above 1.
    """
    ix = SpanIndex(spans)
    rounds = ix.count("engine.run_round")
    lg = ix.by_layer.get("nn.loss_and_gradient", [])
    lg_ns = ix.total_ns("nn.loss_and_gradient")
    epochs = ix.by_layer.get("nn.train_epoch", [])
    epoch_rows = sum(s["info"] for s in epochs)
    fwd = ix.by_layer.get("nn.forward_batch", [])
    in_rounds = [s for s in epochs if ix.has_ancestor(s, "engine.run_round")]
    idx_spans = ix.by_layer.get("data.load_idx", [])
    eval_ns = sum(
        s["end"] - s["start"]
        for layer, group in ix.by_layer.items()
        if layer.startswith("metrics.")
        for s in group
        if ix.parent_layer(s) == "engine.run_experiment"
    )
    plan_ns = sum(ix.total_ns(layer) for layer in PLAN_LAYERS)
    pretrain = ix.count("population.pretrain_population")
    builds = ix.count("data.build_datasets")
    return {
        "nn.loss_and_gradient.calls_per_round": _ratio(len(lg), rounds),
        "nn.loss_and_gradient.us_per_call": _ratio(lg_ns / 1e3, len(lg)),
        "nn.loss_and_gradient.share": _ratio(lg_ns, call_wall_ns),
        "nn.train_epoch.self_share": _ratio(
            ix.total_self_ns("nn.train_epoch"), ix.total_ns("nn.train_epoch")
        ),
        "nn.train_epoch.us_per_example": _ratio(ix.total_ns("nn.train_epoch") / 1e3, epoch_rows),
        "nn.train.gflops_computed": _ratio(sum(s["info"][0] for s in lg), lg_ns),
        "nn.forward_batch.calls_per_round": _ratio(len(fwd), rounds),
        "nn.forward_batch.rows_per_round": _ratio(sum(s["info"][0] for s in fwd), rounds),
        "nn.forward_batch.share": _ratio(ix.total_ns("nn.forward_batch"), call_wall_ns),
        "nn.forward_batch.unique_frac": _ratio(len({s["info"][1] for s in fwd}), len(fwd)),
        "nn.pseudolabels.calls_per_round": _ratio(ix.count("nn.pseudolabels"), rounds),
        "population.evaluate_validation.share": _ratio(
            ix.total_ns("population.evaluate_validation"), call_wall_ns
        ),
        "population.pretrain_population.s": (
            ix.total_ns("population.pretrain_population") / 1e9 / pretrain if pretrain else None
        ),
        "policies.plan.us_per_round": _ratio(plan_ns / 1e3, rounds),
        "engine.run_round.self_share": _ratio(
            ix.total_self_ns("engine.run_round"), ix.total_ns("engine.run_round")
        ),
        "engine.run_round.session_overlap": _ratio(
            sum(s["end"] - s["start"] for s in in_rounds), ix.total_ns("engine.run_round")
        ),
        "metrics.accuracy.calls_per_round": _ratio(ix.count("metrics.accuracy"), rounds),
        "metrics.eval.share": _ratio(eval_ns, call_wall_ns),
        "data.build_datasets.s": (
            ix.total_ns("data.build_datasets") / 1e9 / builds if builds else None
        ),
        "data.load_idx.mb_per_s": (
            _ratio(sum(s["info"] for s in idx_spans) / 1e6, ix.total_ns("data.load_idx") / 1e9)
            if idx_spans
            else None
        ),
        "cli.execute_run.self_share": _ratio(
            ix.total_self_ns("cli.execute_run"), ix.total_ns("cli.execute_run")
        ),
    }


def reconcile(spans: list[dict], expect: list[str], ledger: dict) -> list[str]:
    """Problems found when checking a traced child against the ledger.

    ``ledger`` holds the summed final-round ``forward_ops`` and
    ``oracle_sessions`` of every experiment the child ran, and the training
    set size. Training spans are compared with it exactly, and every binding
    in ``expect`` must have fired.
    """
    ix = SpanIndex(spans)
    problems = [f"wrapper {b} never fired" for b in expect if b not in ix.fired]
    epochs = ix.by_layer.get("nn.train_epoch", [])
    rows = sum(s["info"] for s in epochs)
    if rows != ledger["forward_ops"]:
        problems.append(f"train_epoch spans cover {rows} rows, ledger forward_ops {ledger['forward_ops']}")
    sessions, rest = divmod(ledger["forward_ops"], ledger["n_train"])
    if rest or len(epochs) != sessions:
        problems.append(f"{len(epochs)} train_epoch spans, ledger implies {ledger['forward_ops'] / ledger['n_train']} sessions")
    oracle = sum(s["info"] for s in ix.by_layer.get("engine.run_session", [])) + sum(
        1 for s in epochs if ix.parent_layer(s) == "population.pretrain_population"
    )
    if oracle != ledger["oracle_sessions"]:
        problems.append(f"{oracle} oracle-taught spans, ledger oracle_sessions {ledger['oracle_sessions']}")
    return problems


def median_metrics(per_child: list[dict]) -> dict[str, float | None]:
    """Median of each per-layer metric across traced children."""
    out = {}
    for name in per_child[0]:
        values = [m[name] for m in per_child if m[name] is not None]
        out[name] = statistics.median(values) if values else None
    return out
