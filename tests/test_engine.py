"""Unit tests for round execution, accounting and experiment determinism."""

import copy
import os

import numpy as np
import pytest

from nkdiff import (
    BlobsSpec,
    ConfigurationError,
    ExperimentConfig,
    ModelSpec,
    ResourceLedger,
    RoundPlan,
    TrainHyperparams,
    accuracy,
    average_learner_accuracy,
    init_learner,
    init_population,
    prepare_data,
    resolve_threads,
    run_experiment,
    run_round,
    run_session,
    session_stream,
    train_epoch,
)

SMALL_BLOBS = BlobsSpec(n_per_class=60, k=3, d=4, centers_scale=2.0, noise_sigma=0.8, seed=3)


@pytest.fixture
def task():
    cfg = ExperimentConfig(policy="btb", dataset=SMALL_BLOBS)
    return prepare_data(cfg)


def make_population(train, n_models=10, seed=0):
    spec = ModelSpec(layer_widths=(train.n_features, 6, train.K), seed=seed)
    return init_population(spec, n_models, oracle_labels=train.y)


class TestRunSession:
    def test_oracle_teacher_trains_on_true_labels(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        learner = pop.learners[0]
        twin = copy.deepcopy(learner)
        hp = TrainHyperparams(0.1, 16)
        run_session(pop.oracle, learner, train.X, hp)
        train_epoch(twin, train.X, train.y, hp)
        assert np.array_equal(learner.params, twin.params)

    def test_teacher_params_frozen(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        teacher, learner = pop.learners[1], pop.learners[0]
        snapshot = teacher.params.copy()
        run_session(teacher, learner, train.X, TrainHyperparams(0.1, 16))
        assert np.array_equal(teacher.params, snapshot)

    def test_oracle_learner_is_noop(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        snapshot = pop.oracle.params.copy()
        stats = run_session(pop.learners[0], pop.oracle, train.X, TrainHyperparams(0.1, 16))
        assert stats is None
        assert np.array_equal(pop.oracle.params, snapshot)

    def test_self_teaching_rejected(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        with pytest.raises(ValueError):
            run_session(pop.learners[0], pop.learners[0], train.X, TrainHyperparams(0.1, 16))


class TestRunRoundAccounting:
    def test_btb_split_in_two(self, task):
        train, val, _ = task
        pop = make_population(train)
        from nkdiff import evaluate_validation, group_btb, rank_models

        plan = group_btb(rank_models(evaluate_validation(pop, val)), 5)
        ledger = ResourceLedger()
        stats = run_round(pop, plan, train, TrainHyperparams(0.1, 16), ledger, capacity=5)
        assert stats.executed_sessions == 8
        assert stats.oracle_sessions == 4
        assert ledger.oracle_sessions == 4
        assert ledger.forward_ops == 8 * len(train)
        assert ledger.rounds_completed == 1

    def test_oo_full_capacity(self, task):
        train, _, _ = task
        pop = make_population(train)
        from nkdiff import group_oo

        plan = group_oo(10, 10, np.random.default_rng(0))
        ledger = ResourceLedger()
        stats = run_round(pop, plan, train, TrainHyperparams(0.1, 16), ledger, capacity=10)
        assert stats.oracle_sessions == 9
        assert stats.executed_sessions == 9

    def test_pom_skips_oracle_learning(self, task):
        train, _, _ = task
        pop = make_population(train)
        from nkdiff import group_pom

        plan = group_pom(10, np.random.default_rng(0))
        assert len(plan.groups) == 10  # planned sessions incl. oracle's own
        ledger = ResourceLedger()
        stats = run_round(pop, plan, train, TrainHyperparams(0.1, 16), ledger, capacity=2)
        assert stats.executed_sessions == 9
        assert stats.oracle_sessions == 1
        assert ledger.forward_ops == 9 * len(train)

    def test_capacity_enforced_at_execution(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        plan = RoundPlan(groups=[(3, (0, 1, 2))], policy_tag="oo")
        with pytest.raises(ValueError):
            run_round(pop, plan, train, TrainHyperparams(0.1, 16), ResourceLedger(), capacity=2)

    def test_duplicate_learner_rejected(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        plan = RoundPlan(groups=[(3, (0,)), (1, (0,))], policy_tag="btb")
        with pytest.raises(ValueError):
            run_round(pop, plan, train, TrainHyperparams(0.1, 16), ResourceLedger())

    def test_teacher_frozen_within_round(self, task):
        # the second learner of a teacher sees the same labels as the first
        train, _, _ = task
        pop_a = make_population(train, n_models=4, seed=1)
        pop_b = make_population(train, n_models=4, seed=1)
        hp = TrainHyperparams(0.1, 16)
        plan = RoundPlan(groups=[(3, (0, 1, 2))], policy_tag="oo")
        run_round(pop_a, plan, train, hp, ResourceLedger(), master_seed=5, round_index=1)
        # reversed learner order must give identical parameters
        plan_rev = RoundPlan(groups=[(3, (2, 1, 0))], policy_tag="oo")
        run_round(pop_b, plan_rev, train, hp, ResourceLedger(), master_seed=5, round_index=1)
        for a, b in zip(pop_a.learners, pop_b.learners):
            assert np.array_equal(a.params, b.params)

    def test_mutual_teaching_uses_pre_round_labels(self, task):
        # in pairwise exchange every teacher is also a learner; labels must
        # come from start-of-round parameters, so group order cannot matter
        train, _, _ = task
        from nkdiff import group_pom

        plan = group_pom(10, np.random.default_rng(2))
        reversed_plan = RoundPlan(groups=plan.groups[::-1], policy_tag="pom")
        hp = TrainHyperparams(0.1, 16)
        pop_a = make_population(train, seed=4)
        pop_b = make_population(train, seed=4)
        run_round(pop_a, plan, train, hp, ResourceLedger(), master_seed=9, round_index=1)
        run_round(pop_b, reversed_plan, train, hp, ResourceLedger(), master_seed=9, round_index=1)
        for a, b in zip(pop_a.learners, pop_b.learners):
            assert np.array_equal(a.params, b.params)


class TestExperimentConfig:
    def test_pom_capacity_five_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(policy="pom", capacity=5)

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(policy="btb", n_models=10, capacity=3)

    def test_rounds_positive(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(policy="btb", rounds=0)

    def test_batch_size_checked_before_training(self):
        cfg = ExperimentConfig(
            policy="btb",
            dataset=SMALL_BLOBS,
            hyperparams=TrainHyperparams(0.1, 10_000),
        )
        with pytest.raises(ConfigurationError):
            run_experiment(cfg, threads=1)


class TestResolveThreads:
    def test_default_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("NKDIFF_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_threads() == 1

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("NKDIFF_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert resolve_threads() == 3

    def test_explicit_and_env_override_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv("NKDIFF_THREADS", "2")
        assert resolve_threads() == 2
        assert resolve_threads(3) == 3


class TestRunExperiment:
    def test_zero_learning_rate_keeps_initial_metrics(self, task):
        cfg = ExperimentConfig(
            policy="btb",
            rounds=1,
            dataset=SMALL_BLOBS,
            hyperparams=TrainHyperparams(0.0, 16),
            master_seed=2,
        )
        records = run_experiment(cfg, data=task, threads=1)
        train, val, test = task
        spec = ModelSpec(layer_widths=(train.n_features, 16, train.K), seed=2)
        pop = init_population(spec, 10, oracle_labels=train.y)
        assert records[0].alacc_test == average_learner_accuracy(pop, test)
        assert records[0].ensacc_test == accuracy(pop.trainees, test)

    def test_identical_configs_identical_records(self, task):
        cfg = ExperimentConfig(policy="rgbt", rounds=3, dataset=SMALL_BLOBS, master_seed=4)
        a = run_experiment(cfg, data=task, threads=1)
        b = run_experiment(cfg, data=task, threads=1)
        for ra, rb in zip(a, b):
            assert ra.alacc_test == rb.alacc_test
            assert ra.ensacc_test == rb.ensacc_test
            assert np.array_equal(ra.per_learner_acc, rb.per_learner_acc)

    def test_thread_count_does_not_change_results(self, task):
        cfg = ExperimentConfig(policy="pom", rounds=3, dataset=SMALL_BLOBS, master_seed=6)
        serial = run_experiment(cfg, data=task, threads=1)
        threaded = run_experiment(cfg, data=task, threads=4)
        for ra, rb in zip(serial, threaded):
            assert ra.alacc_test == rb.alacc_test
            assert np.array_equal(ra.per_learner_acc, rb.per_learner_acc)

    def test_oo_full_capacity_equals_independent_training(self, task):
        train, val, test = task
        cfg = ExperimentConfig(
            policy="oo",
            capacity=10,
            rounds=4,
            dataset=SMALL_BLOBS,
            master_seed=8,
        )
        records = run_experiment(cfg, data=task, threads=1)

        # independent pipeline: each trainee trains alone on the true labels,
        # with the same per-round session streams
        spec = ModelSpec(layer_widths=(train.n_features, 16, train.K), seed=8)
        hp = cfg.hyperparams
        final_params = []
        for i in range(9):
            learner = init_learner(spec, i)
            for t in range(1, 5):
                learner.rng = session_stream(8, t, i)
                train_epoch(learner, train.X, train.y, hp)
            final_params.append(learner.params)

        assert records[-1].oracle_sessions == 4 * 9
        # rerun engine to recover its population state
        from nkdiff import group_oo, policy_stream

        engine_pop = init_population(spec, 10, oracle_labels=train.y)
        ledger = ResourceLedger()
        for t in range(1, 5):
            plan = group_oo(10, 10, policy_stream(8, t))
            run_round(engine_pop, plan, train, hp, ledger, capacity=10, master_seed=8, round_index=t)
        for i in range(9):
            assert np.array_equal(engine_pop.learners[i].params, final_params[i])

    def test_pretraining_charged_to_ledger(self, task):
        cfg = ExperimentConfig(
            policy="btb", rounds=1, pretrain=True, dataset=SMALL_BLOBS, master_seed=3
        )
        records = run_experiment(cfg, data=task, threads=1)
        train = task[0]
        assert records[0].oracle_sessions == 45 + 1
        assert records[0].forward_ops == (45 + 5) * len(train)

    def test_oracle_params_invariant_end_to_end(self, task):
        train, val, test = task
        cfg = ExperimentConfig(policy="eq", rounds=3, pretrain=True, dataset=SMALL_BLOBS, master_seed=5)
        spec = ModelSpec(layer_widths=(train.n_features, 16, train.K), seed=5)
        expected_oracle = init_learner(spec, 9, is_oracle=True, held_labels=train.y)
        run_experiment(cfg, data=task, threads=1)
        fresh_oracle = init_learner(spec, 9, is_oracle=True, held_labels=train.y)
        assert np.array_equal(expected_oracle.params, fresh_oracle.params)


class TestCorruptionPlumbing:
    def test_random_labels_reach_the_oracle(self):
        from nkdiff import CorruptionSpec

        cfg = ExperimentConfig(
            policy="pom",
            rounds=1,
            dataset=SMALL_BLOBS,
            corruption=CorruptionSpec(fraction=1.0, mode="full_random", seed=1),
        )
        train, val, test = prepare_data(cfg)
        clean_train, _, _ = prepare_data(ExperimentConfig(policy="pom", rounds=1, dataset=SMALL_BLOBS))
        assert not np.array_equal(train.y, clean_train.y)
        assert np.array_equal(train.X, clean_train.X)
        # validation and test labels stay clean
        _, clean_val, clean_test = prepare_data(ExperimentConfig(policy="pom", rounds=1, dataset=SMALL_BLOBS))
        assert np.array_equal(val.y, clean_val.y)
        assert np.array_equal(test.y, clean_test.y)
