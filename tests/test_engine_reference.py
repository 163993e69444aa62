"""The round contract of nkdiff.engine, restated as a reference engine of per-learner calls.

The reference builds a run from ``init_learner``, ``train_epoch``,
``forward_batch``, ``stream``, the ``group_*`` planners, ``rank_models`` and
``ensemble_classify`` alone. It evaluates on writable copies of each split's
X, so the forward memo never serves it, and it uses no ``Population``,
``run_round``, ``forward_stack`` or ``accuracy``. It spells out what the
engine's docstring promises: teachers frozen within a round, one shuffle
stream per (seed, round, learner), the oracle's planned sessions skipped and
uncharged, and the ledger's two counters. ``run_experiment`` must return the
same records, field for field and bit for bit.
"""

import itertools
from dataclasses import fields

import numpy as np
import pytest

from nkdiff import (
    BlobsSpec,
    CorruptionSpec,
    ExperimentConfig,
    MetricsRecord,
    ModelSpec,
    build_datasets,
    corrupt_labels,
    ensemble_classify,
    forward_batch,
    group_btb,
    group_eq,
    group_oo,
    group_pom,
    group_rgbt,
    init_learner,
    rank_models,
    run_experiment,
    stream,
    train_epoch,
)

TASK = BlobsSpec(n_per_class=40, k=3, d=4, centers_scale=2.0, noise_sigma=1.0, seed=3)
ROUNDS = 6


def reference_run(cfg: ExperimentConfig) -> list[MetricsRecord]:
    train, val, test = build_datasets(cfg.dataset)
    y = train.y if cfg.corruption is None else corrupt_labels(train.y, cfg.corruption, train.K)
    X_train, X_val, X_test = (ds.X.copy() for ds in (train, val, test))
    hp, seed, oracle = cfg.hyperparams, cfg.master_seed, cfg.n_models - 1
    spec = ModelSpec(layer_widths=(train.n_features, *cfg.hidden_widths, train.K), seed=seed)
    trainees = [init_learner(spec, i) for i in range(oracle)]

    def acc(preds, labels):
        return int(np.count_nonzero(preds == labels)) / len(labels)

    oracle_sessions = forward_ops = 0
    if cfg.pretrain:
        # Trainee i runs i + 1 epochs on the oracle's labels, from its own warm-up stream.
        for learner in trainees:
            rng = stream("warmup", seed, learner.id)
            for _ in range(learner.id + 1):
                train_epoch(learner, X_train, y, hp, rng)
                oracle_sessions += 1
                forward_ops += len(y)

    records = []
    for t in range(1, cfg.rounds + 1):
        if cfg.policy == "oo":
            plan = group_oo(cfg.n_models, cfg.capacity, stream("policy", seed, t))
        elif cfg.policy == "pom":
            plan = group_pom(cfg.n_models, stream("policy", seed, t))
        else:
            scores = np.array([acc(forward_batch(l, X_val).argmax(axis=1), val.y) for l in trainees] + [1.0])
            if cfg.policy == "rgbt":
                plan = group_rgbt(scores, cfg.capacity, stream("policy", seed, t))
            elif cfg.policy == "btb":
                plan = group_btb(rank_models(scores), cfg.capacity)
            else:
                plan = group_eq(rank_models(scores), cfg.capacity)

        # The oracle never learns; every teacher's labels come from its start-of-round parameters.
        sessions = [(teacher, lid) for teacher, lids in plan.groups for lid in lids if lid != oracle]
        labels = {
            teacher: y if teacher == oracle else forward_batch(trainees[teacher], X_train).argmax(axis=1)
            for teacher, _ in sessions
        }
        for teacher, lid in sessions:
            train_epoch(trainees[lid], X_train, labels[teacher], hp, stream("session", seed, t, lid))
        oracle_sessions += sum(teacher == oracle for teacher, _ in sessions)
        forward_ops += len(y) * len(sessions)

        test_dists = np.stack([forward_batch(l, X_test) for l in trainees])
        val_dists = np.stack([forward_batch(l, X_val) for l in trainees])
        per_learner = np.array([acc(d.argmax(axis=1), test.y) for d in test_dists])
        records.append(
            MetricsRecord(
                round=t,
                alacc_test=float(per_learner.mean()),
                ensacc_test=acc(ensemble_classify(test_dists), test.y),
                alacc_train=float(np.mean([acc(forward_batch(l, X_train).argmax(axis=1), y) for l in trainees])),
                ensacc_val=acc(ensemble_classify(val_dists), val.y),
                oracle_sessions=oracle_sessions,
                forward_ops=forward_ops,
                per_learner_acc=per_learner,
            )
        )
    return records


POLICY_CAPACITIES = [(p, c) for p in ("oo", "rgbt", "btb", "eq") for c in (2, 5)] + [("pom", 2)]
CONFIGS = [
    pytest.param(policy, capacity, pretrain, noise, seed, id=f"{policy}-c{capacity}-pre{int(pretrain)}-noise{noise}-s{seed}")
    for (policy, capacity), pretrain, noise, seed in itertools.product(
        POLICY_CAPACITIES, (False, True), (0.0, 0.3), (0, 1)
    )
]


class TestReferenceEngine:
    @pytest.mark.parametrize("policy, capacity, pretrain, noise, seed", CONFIGS)
    def test_run_experiment_equals_the_reference(self, policy, capacity, pretrain, noise, seed):
        cfg = ExperimentConfig(
            policy=policy,
            capacity=capacity,
            rounds=ROUNDS,
            pretrain=pretrain,
            dataset=TASK,
            corruption=CorruptionSpec(fraction=noise) if noise else None,
            master_seed=seed,
        )
        expected, actual = reference_run(cfg), run_experiment(cfg)
        assert len(actual) == len(expected) == ROUNDS
        for want, got in zip(expected, actual):
            for f in fields(MetricsRecord):
                a, b = getattr(want, f.name), getattr(got, f.name)
                if f.name == "per_learner_acc":
                    assert np.array_equal(a, b), (f.name, want.round)
                else:
                    assert a == b and type(a) is type(b), (f.name, want.round, a, b)
