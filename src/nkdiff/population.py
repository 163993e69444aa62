"""The N-model population: one oracle plus N-1 trainees.

Owns validation scoring, the ascending rank order used by coordinated
policies, and the staggered warm-up scheme that gives trainee t exactly
t+1 epochs on the oracle's labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .metrics import accuracy
from .nn import Learner, ModelSpec, TrainHyperparams, init_learner, pseudolabels, train_epoch

ORACLE_SCORE = 1.0


@dataclass
class Population:
    """Learners with ids 0..N-1; the last one is the oracle."""

    learners: list[Learner]
    oracle_id: int

    def __post_init__(self):
        oracles = [l.id for l in self.learners if l.is_oracle]
        if oracles != [self.oracle_id]:
            raise ValueError(f"expected exactly one oracle with id {self.oracle_id}, got {oracles}")
        if [l.id for l in self.learners] != list(range(len(self.learners))):
            raise ValueError("learner ids must be 0..N-1 in order")

    @property
    def n(self) -> int:
        return len(self.learners)

    @property
    def oracle(self) -> Learner:
        return self.learners[self.oracle_id]

    @property
    def trainees(self) -> list[Learner]:
        return [l for l in self.learners if not l.is_oracle]


@dataclass
class ValidationScores:
    """Per-learner validation accuracy; the oracle's slot is fixed at 1.0."""

    scores: np.ndarray
    oracle_id: int


@dataclass
class RankedList:
    """Ids in ascending score order; position i holds the (i+1)-th lowest."""

    order: np.ndarray
    oracle_id: int


def init_population(spec: ModelSpec, n_models: int, oracle_labels: np.ndarray) -> Population:
    """Fresh population: trainees 0..N-2 plus the oracle at id N-1."""
    if n_models < 2:
        raise ValueError("population needs at least one trainee and the oracle")
    learners = [init_learner(spec, i) for i in range(n_models - 1)]
    learners.append(
        init_learner(spec, n_models - 1, is_oracle=True, held_labels=oracle_labels)
    )
    return Population(learners=learners, oracle_id=n_models - 1)


def evaluate_validation(pop: Population, val: Dataset) -> ValidationScores:
    """Validation accuracy of every trainee; the oracle scores 1.0 by convention."""
    if len(val) == 0:
        raise ValueError("validation set is empty")
    scores = np.empty(pop.n, dtype=np.float64)
    for learner in pop.learners:
        scores[learner.id] = ORACLE_SCORE if learner.is_oracle else accuracy(learner, val)
    return ValidationScores(scores=scores, oracle_id=pop.oracle_id)


def rank_models(v: ValidationScores) -> RankedList:
    """Stable ascending sort of ids by score.

    Ties break toward the lower id; the oracle is always ranked last,
    even if a trainee also scores 1.0.
    """
    ids = sorted(range(len(v.scores)), key=lambda i: (v.scores[i], i))
    ids = [i for i in ids if i != v.oracle_id] + [v.oracle_id]
    return RankedList(order=np.array(ids, dtype=np.int64), oracle_id=v.oracle_id)


def pretrain_population(pop: Population, train: Dataset, hp: TrainHyperparams) -> int:
    """Warm-up: trainee t runs t+1 epochs on the oracle's labels.

    The weakest trainee gets 1 epoch, the strongest N-1, giving the
    population a spread of prior exposure. Every epoch is an oracle
    session; their count is returned. Each learner draws shuffles from its
    own stream, so the outcome is independent of the order trainees are
    processed in.
    """
    labels = pseudolabels(pop.oracle, train.X)
    sessions = 0
    for learner in pop.trainees:
        for _ in range(learner.id + 1):
            train_epoch(learner, train.X, labels, hp)
            sessions += 1
    return sessions
