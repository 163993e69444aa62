"""The N-model population: one oracle plus N-1 trainees.

Owns validation scoring, the ascending rank order used by coordinated
policies, and the staggered warm-up scheme that gives trainee t exactly
t+1 epochs on the oracle's labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, check_labels, stream
from .metrics import accuracy
from .nn import Learner, ModelSpec, Oracle, TrainHyperparams, init_learner, pseudolabels, train_epoch

ORACLE_SCORE = 1.0


@dataclass
class Population:
    """Members with ids 0..N-1: learners, then the oracle last."""

    learners: list[Learner | Oracle]

    def __post_init__(self):
        if [l.id for l in self.learners] != list(range(len(self.learners))):
            raise ValueError("learner ids must be 0..N-1 in order")
        oracles = [l.id for l in self.learners if l.is_oracle]
        if oracles != [len(self.learners) - 1]:
            raise ValueError(f"expected exactly one oracle, the last learner; got oracle ids {oracles}")

    @property
    def n(self) -> int:
        return len(self.learners)

    @property
    def oracle(self) -> Oracle:
        return self.learners[-1]

    @property
    def trainees(self) -> list[Learner]:
        return self.learners[:-1]


def init_population(spec: ModelSpec, n_models: int, oracle_labels: np.ndarray) -> Population:
    """Fresh population: trainees 0..N-2 plus the oracle at id N-1, holding the checked labels."""
    if n_models < 2:
        raise ValueError("population needs at least one trainee and the oracle")
    oracle = Oracle(n_models - 1, check_labels(oracle_labels, spec.n_classes))
    return Population([init_learner(spec, i) for i in range(n_models - 1)] + [oracle])


def evaluate_validation(pop: Population, val: Dataset) -> np.ndarray:
    """Validation accuracy of every learner by id; the oracle scores 1.0 by convention."""
    return np.array([accuracy(l, val) for l in pop.trainees] + [ORACLE_SCORE])


def rank_models(scores: np.ndarray) -> np.ndarray:
    """Ids in ascending score order, as int64; the last id is the oracle's.

    Ties break toward the lower id; the oracle is always ranked last,
    even if a trainee also scores 1.0.
    """
    oracle_id = len(scores) - 1
    ids = sorted(range(oracle_id), key=lambda i: (scores[i], i))
    return np.array(ids + [oracle_id], dtype=np.int64)


def pretrain_population(pop: Population, train: Dataset, hp: TrainHyperparams) -> int:
    """Warm-up: trainee t runs t+1 epochs on the oracle's labels.

    The weakest trainee gets 1 epoch, the strongest N-1, giving the
    population a spread of prior exposure. Every epoch is an oracle
    session; their count is returned. Each trainee draws its shuffles from
    one stream keyed by (spec.seed, warm-up tag, id), so the outcome is
    independent of the order trainees are processed in.
    """
    labels = pseudolabels(pop.oracle, train.X)
    sessions = 0
    for learner in pop.trainees:
        rng = stream("warmup", learner.spec.seed, learner.id)
        for _ in range(learner.id + 1):
            train_epoch(learner, train.X, labels, hp, rng)
            sessions += 1
    return sessions
