"""Grouping policies: map (scores, capacity, randomness) to a round plan.

Five policies, ordered by how much coordination they assume:

* ``oo``   - Oracle-Only baseline: C-1 random trainees learn from the oracle.
* ``pom``  - decentralized pairwise exchange; the oracle hides as a peer.
* ``rgbt`` - random groups, each taught by its best-scoring member.
* ``btb``  - the k best models teach; better students go to better teachers.
* ``eq``   - the k best models teach; students are dealt round-robin so each
             group spans the ability range.

Planners take plain arrays (scores by id, or ids in ascending score order)
and the oracle is always the last id. ``btb`` and ``eq`` are pure functions
of the rank order; only ``oo``, ``pom`` and ``rgbt`` consume randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POLICIES = ("oo", "pom", "rgbt", "btb", "eq")


class ConfigurationError(ValueError):
    """Policy, capacity and population size do not fit together."""


@dataclass
class RoundPlan:
    """(teacher id, learner ids) tuples for one round."""

    groups: list[tuple[int, tuple[int, ...]]]
    policy_tag: str


def check_policy(policy: str, capacity: int, n_models: int) -> None:
    """Raise ConfigurationError unless ``policy`` can plan rounds of
    ``n_models`` models in groups of ``capacity``; ``oo``'s one group needs
    only C <= N, the others split every model into groups of C."""
    if policy not in POLICIES:
        raise ConfigurationError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    if capacity < 2:
        raise ConfigurationError("capacity must be at least 2")
    if policy == "oo":
        if capacity > n_models:
            raise ConfigurationError(f"capacity {capacity} exceeds population {n_models}")
    elif policy == "pom":
        if capacity != 2:
            raise ConfigurationError("pom admits only pairwise interaction: capacity must be 2")
        if n_models % 2 != 0:
            raise ConfigurationError(f"pom needs an even population, got {n_models}")
    elif n_models % capacity != 0:
        raise ConfigurationError(
            f"population {n_models} is not divisible into groups of {capacity}"
        )


def group_oo(n_models: int, capacity: int, rng: np.random.Generator) -> RoundPlan:
    """One group: the oracle teaches C-1 trainees sampled without replacement."""
    check_policy("oo", capacity, n_models)
    chosen = rng.choice(n_models - 1, size=capacity - 1, replace=False)
    return RoundPlan(groups=[(n_models - 1, tuple(int(i) for i in chosen))], policy_tag="oo")


def group_pom(n_models: int, rng: np.random.Generator) -> RoundPlan:
    """Uniform random perfect matching; each pair exchanges two sessions.

    The session where the oracle would be the learner is still planned
    (its partner spends the round teaching it) but the engine skips it.
    """
    check_policy("pom", 2, n_models)
    perm = rng.permutation(n_models)
    groups: list[tuple[int, tuple[int, ...]]] = []
    for i in range(0, n_models, 2):
        a, b = int(perm[i]), int(perm[i + 1])
        groups.append((a, (b,)))
        groups.append((b, (a,)))
    return RoundPlan(groups=groups, policy_tag="pom")


def group_rgbt(scores: np.ndarray, capacity: int, rng: np.random.Generator) -> RoundPlan:
    """Random partition into groups of C; each group's best member teaches.

    Teacher ties break toward the lower id. The oracle's fixed score of
    1.0 makes it the teacher of whichever group it lands in.
    """
    n_models = len(scores)
    check_policy("rgbt", capacity, n_models)
    perm = rng.permutation(n_models)
    groups = []
    for start in range(0, n_models, capacity):
        members = [int(i) for i in perm[start : start + capacity]]
        # highest score teaches; the oracle (id N-1) outranks a trainee that
        # also scores 1.0; remaining ties go to the lower id
        teacher = min(members, key=lambda i: (-scores[i], i != n_models - 1, i))
        groups.append((teacher, tuple(i for i in members if i != teacher)))
    return RoundPlan(groups=groups, policy_tag="rgbt")


def _teachers_and_students(order: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    # btb and eq share one grouping rule; either name checks it.
    check_policy("btb", capacity, len(order))
    k = len(order) // capacity
    descending = order[::-1]
    return descending[:k], descending[k:]


def group_btb(order: np.ndarray, capacity: int) -> RoundPlan:
    """Top-k models teach; the remainder splits best-first into contiguous
    buckets of C-1, best bucket to best teacher. Deterministic."""
    teachers, students = _teachers_and_students(order, capacity)
    buckets = students.reshape(len(teachers), capacity - 1)
    groups = [
        (int(teacher), tuple(int(s) for s in bucket))
        for teacher, bucket in zip(teachers, buckets)
    ]
    return RoundPlan(groups=groups, policy_tag="btb")


def group_eq(order: np.ndarray, capacity: int) -> RoundPlan:
    """Top-k models teach; students are dealt round-robin from best to
    worst, so every group spans the accuracy range. Deterministic."""
    teachers, students = _teachers_and_students(order, capacity)
    k = len(teachers)
    groups = [
        (int(teacher), tuple(int(s) for s in students[j::k]))
        for j, teacher in enumerate(teachers)
    ]
    return RoundPlan(groups=groups, policy_tag="eq")


def validate_plan(plan: RoundPlan, n_models: int, capacity: int) -> None:
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
        if len(learners) > capacity - 1:
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
