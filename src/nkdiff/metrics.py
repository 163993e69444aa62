"""Evaluation: accuracies, log-domain ensemble voting, disagreement counts,
and multi-seed aggregation with normal-approximation confidence intervals.

All metrics are ratios of exact integer counts, so they are reproducible
regardless of evaluation order. The oracle is a label store, not a
classifier: it is excluded from every ensemble and every average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset
from .nn import PROB_FLOOR, Learner, forward_batch, predict

# Scalar fields carried into CSVs and multi-seed aggregation, in column order.
AGG_FIELDS = (
    "oracle_sessions",
    "forward_ops",
    "alacc_test",
    "ensacc_test",
    "alacc_train",
    "ensacc_val",
)

CI95_Z = 1.96


@dataclass
class MetricsRecord:
    """Per-round population metrics plus the resource ledger snapshot."""

    round: int
    alacc_test: float
    ensacc_test: float
    alacc_train: float
    ensacc_val: float
    oracle_sessions: int
    forward_ops: int
    per_learner_acc: np.ndarray


@dataclass
class AggregateSeries:
    """Per-round mean and 95% CI half-width across repeated experiments."""

    rounds: np.ndarray
    mean: dict[str, np.ndarray]
    ci95: dict[str, np.ndarray]


def ensemble_classify(distributions: np.ndarray) -> np.ndarray:
    """Class with the highest floored log-probability summed over axis 0, in
    member order, of a (members, ..., K) array; ties -> lowest index. So a
    scalar for (members, K), and one label per row for (members, n, K)."""
    dists = np.asarray(distributions, dtype=np.float64)
    if dists.ndim < 2 or len(dists) == 0:
        raise ValueError("need a nonempty (members, ..., classes) array")
    return np.argmax(np.add.reduce(np.log(np.maximum(dists, PROB_FLOOR)), axis=0), axis=-1)


def ensemble_predict(learners: Sequence[Learner], X: np.ndarray) -> np.ndarray:
    """:func:`ensemble_classify` vote of the given learners over every row of X."""
    if len(learners) == 0:
        raise ValueError("ensemble needs at least one member")
    return ensemble_classify(np.stack([forward_batch(learner, X) for learner in learners]))


def accuracy(model_or_ensemble, ds: Dataset) -> float:
    """Exact fraction of ds classified correctly.

    Accepts a single learner or a sequence of learners (voted as an
    ensemble).
    """
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    if isinstance(model_or_ensemble, Learner):
        preds = predict(model_or_ensemble, ds.X)
    else:
        preds = ensemble_predict(list(model_or_ensemble), ds.X)
    return int(np.count_nonzero(preds == ds.y)) / len(ds)


def average_learner_accuracy(pop, ds: Dataset) -> float:
    """Arithmetic mean of the trainees' individual accuracies."""
    accs = [accuracy(learner, ds) for learner in pop.trainees]
    return float(np.mean(accs))


def disagreement_stats(model_a: Learner, model_b: Learner, test: Dataset) -> tuple[int, int]:
    """(both correct, at least one correct) counts over the test set."""
    if len(test) == 0:
        raise ValueError("dataset is empty")
    correct_a = predict(model_a, test.X) == test.y
    correct_b = predict(model_b, test.X) == test.y
    both = int(np.sum(correct_a & correct_b))
    at_least_one = int(np.sum(correct_a | correct_b))
    return both, at_least_one


def aggregate_seeds(runs: Sequence[Sequence[MetricsRecord]]) -> AggregateSeries:
    """Mean and 95% CI half-width per round across one or more repeated experiments.

    Half-width is z * s / sqrt(R) with the sample standard deviation s
    (ddof=1) and z = 1.96. Means sum the runs in order, one round at a time.
    One run gives its own values as means, with zero-width intervals.
    """
    if not runs:
        raise ValueError("need at least 1 run to aggregate")
    lengths = {len(run) for run in runs}
    if len(lengths) != 1:
        raise ValueError(f"runs have unequal lengths {sorted(lengths)}")
    rounds = np.array([rec.round for rec in runs[0]], dtype=np.int64)
    for run in runs[1:]:
        if any(rec.round != r for rec, r in zip(run, rounds)):
            raise ValueError("runs disagree on round numbering")
    mean: dict[str, np.ndarray] = {}
    ci95: dict[str, np.ndarray] = {}
    n_runs = len(runs)
    for name in AGG_FIELDS:
        values = np.array([[getattr(rec, name) for rec in run] for run in runs], dtype=np.float64)
        mean[name] = values.mean(axis=0)
        # One run has no spread: ddof=0 makes its deviation exactly 0, with no warning.
        ci95[name] = CI95_Z * values.std(axis=0, ddof=min(1, n_runs - 1)) / np.sqrt(n_runs)
    return AggregateSeries(rounds=rounds, mean=mean, ci95=ci95)
