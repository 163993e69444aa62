"""Grouping policies: map (scores, capacity, randomness) to a round plan.

Five policies, ordered by how much coordination they assume:

* ``oo``   - Oracle-Only baseline: C-1 random trainees learn from the oracle.
* ``pom``  - decentralized pairwise exchange; the oracle hides as a peer.
* ``rgbt`` - random groups, each taught by its best-scoring member.
* ``btb``  - the k best models teach; better students go to better teachers.
* ``eq``   - the k best models teach; students are dealt round-robin so each
             group spans the ability range.

``btb`` and ``eq`` are pure functions of the rank order; only ``oo``,
``pom`` and ``rgbt`` consume randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .population import RankedList, ValidationScores

POLICIES = ("oo", "pom", "rgbt", "btb", "eq")


class ConfigurationError(ValueError):
    """Policy, capacity and population size do not fit together."""


@dataclass
class RoundPlan:
    """(teacher id, learner ids) tuples for one round."""

    groups: list[tuple[int, tuple[int, ...]]]
    policy_tag: str


@dataclass(frozen=True)
class PolicyConfig:
    policy: str
    capacity: int

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if self.capacity < 2:
            raise ConfigurationError("capacity must be at least 2")

    def validate_for(self, n_models: int) -> None:
        if self.policy == "pom":
            if self.capacity != 2:
                raise ConfigurationError(
                    "pom admits only pairwise interaction: capacity must be 2"
                )
            if n_models % 2 != 0:
                raise ConfigurationError(f"pom needs an even population, got {n_models}")
            return
        if n_models % self.capacity != 0:
            raise ConfigurationError(
                f"population {n_models} is not divisible into groups of {self.capacity}"
            )


def group_oo(n_models: int, capacity: int, rng: np.random.Generator) -> RoundPlan:
    """One group: the oracle teaches C-1 trainees sampled without replacement."""
    if capacity - 1 > n_models - 1:
        raise ConfigurationError(f"capacity {capacity} exceeds population {n_models}")
    oracle_id = n_models - 1
    chosen = rng.choice(n_models - 1, size=capacity - 1, replace=False)
    return RoundPlan(groups=[(oracle_id, tuple(int(i) for i in chosen))], policy_tag="oo")


def group_pom(n_models: int, rng: np.random.Generator) -> RoundPlan:
    """Uniform random perfect matching; each pair exchanges two sessions.

    The session where the oracle would be the learner is still planned
    (its partner spends the round teaching it) but the engine skips it.
    """
    if n_models % 2 != 0:
        raise ConfigurationError(f"pom needs an even population, got {n_models}")
    perm = rng.permutation(n_models)
    groups: list[tuple[int, tuple[int, ...]]] = []
    for i in range(0, n_models, 2):
        a, b = int(perm[i]), int(perm[i + 1])
        groups.append((a, (b,)))
        groups.append((b, (a,)))
    return RoundPlan(groups=groups, policy_tag="pom")


def group_rgbt(v: ValidationScores, capacity: int, rng: np.random.Generator) -> RoundPlan:
    """Random partition into groups of C; each group's best member teaches.

    Teacher ties break toward the lower id. The oracle's fixed score of
    1.0 makes it the teacher of whichever group it lands in.
    """
    n_models = len(v.scores)
    if n_models % capacity != 0:
        raise ConfigurationError(
            f"population {n_models} is not divisible into groups of {capacity}"
        )
    perm = rng.permutation(n_models)
    groups = []
    for start in range(0, n_models, capacity):
        members = [int(i) for i in perm[start : start + capacity]]
        # highest score teaches; the oracle outranks a trainee that also
        # scores 1.0; remaining ties go to the lower id
        teacher = min(members, key=lambda i: (-v.scores[i], i != v.oracle_id, i))
        groups.append((teacher, tuple(i for i in members if i != teacher)))
    return RoundPlan(groups=groups, policy_tag="rgbt")


def _teachers_and_students(ranked: RankedList, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    n_models = len(ranked.order)
    if n_models % capacity != 0:
        raise ConfigurationError(
            f"population {n_models} is not divisible into groups of {capacity}"
        )
    k = n_models // capacity
    descending = ranked.order[::-1]
    return descending[:k], descending[k:]


def group_btb(ranked: RankedList, capacity: int) -> RoundPlan:
    """Top-k models teach; the remainder splits best-first into contiguous
    buckets of C-1, best bucket to best teacher. Deterministic."""
    teachers, students = _teachers_and_students(ranked, capacity)
    buckets = students.reshape(len(teachers), capacity - 1)
    groups = [
        (int(teacher), tuple(int(s) for s in bucket))
        for teacher, bucket in zip(teachers, buckets)
    ]
    return RoundPlan(groups=groups, policy_tag="btb")


def group_eq(ranked: RankedList, capacity: int) -> RoundPlan:
    """Top-k models teach; students are dealt round-robin from best to
    worst, so every group spans the accuracy range. Deterministic."""
    teachers, students = _teachers_and_students(ranked, capacity)
    k = len(teachers)
    groups = [
        (int(teacher), tuple(int(s) for s in students[j::k]))
        for j, teacher in enumerate(teachers)
    ]
    return RoundPlan(groups=groups, policy_tag="eq")


def validate_plan(plan: RoundPlan, n_models: int, capacity: int | None = None) -> None:
    """Check the structural invariants a plan must satisfy.

    Pairwise plans: every model appears exactly once as teacher and once
    as learner. Group plans: no id appears twice anywhere, no teacher
    teaches itself, and no group exceeds C-1 learners.
    """
    all_ids = set(range(n_models))
    for teacher, learners in plan.groups:
        if teacher not in all_ids:
            raise ValueError(f"teacher id {teacher} out of range")
        if any(l not in all_ids for l in learners):
            raise ValueError(f"learner ids {learners} out of range")
        if teacher in learners:
            raise ValueError(f"model {teacher} assigned to teach itself")
        if capacity is not None and len(learners) > capacity - 1:
            raise ValueError(
                f"group of teacher {teacher} has {len(learners)} learners, "
                f"capacity allows {capacity - 1}"
            )
    if plan.policy_tag == "pom":
        teachers = [t for t, _ in plan.groups]
        learners = [l for _, ls in plan.groups for l in ls]
        if sorted(teachers) != list(range(n_models)) or sorted(learners) != list(range(n_models)):
            raise ValueError("pairwise plan must use every model once as teacher and once as learner")
        return
    seen: set[int] = set()
    for teacher, learners in plan.groups:
        for member in (teacher, *learners):
            if member in seen:
                raise ValueError(f"model {member} appears twice in one round")
            seen.add(member)
