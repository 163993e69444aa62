"""Unit tests for round execution, accounting and experiment determinism."""

import copy

import numpy as np
import pytest

import nkdiff.engine as engine
import nkdiff.nn as nn
from nkdiff import (
    BlobsSpec,
    ConfigurationError,
    ExperimentConfig,
    ModelSpec,
    NonFiniteError,
    ResourceLedger,
    RoundPlan,
    TrainHyperparams,
    accuracy,
    average_learner_accuracy,
    init_learner,
    init_population,
    prepare_data,
    pseudolabels,
    run_experiment,
    run_round,
    run_session,
    stream,
    train_epoch,
)

from conftest import warmup_stream

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
        run_session(pop.oracle, learner, train.X, hp, pseudolabels(pop.oracle, train.X), warmup_stream(learner.spec, 0))
        train_epoch(twin, train.X, train.y, hp, warmup_stream(learner.spec, 0))
        assert np.array_equal(learner.params, twin.params)

    def test_teacher_params_frozen(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        teacher, learner = pop.learners[1], pop.learners[0]
        snapshot = teacher.params.copy()
        rng = warmup_stream(learner.spec, 0)
        run_session(teacher, learner, train.X, TrainHyperparams(0.1, 16), pseudolabels(teacher, train.X), rng)
        assert np.array_equal(teacher.params, snapshot)

    def test_self_teaching_rejected(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        with pytest.raises(ValueError):
            rng = warmup_stream(pop.learners[0].spec, 0)
            run_session(pop.learners[0], pop.learners[0], train.X, TrainHyperparams(0.1, 16), train.y, rng)


class TestRunRoundAccounting:
    def test_btb_split_in_two(self, task):
        train, val, _ = task
        pop = make_population(train)
        from nkdiff import evaluate_validation, group_btb, rank_models

        plan = group_btb(rank_models(evaluate_validation(pop, val)), 5)
        ledger = ResourceLedger()
        assert run_round(pop, plan, train, TrainHyperparams(0.1, 16), ledger, capacity=5, master_seed=0, round_index=1) is None
        assert ledger.oracle_sessions == 4
        assert ledger.forward_ops == 8 * len(train)

    def test_oo_full_capacity(self, task):
        train, _, _ = task
        pop = make_population(train)
        from nkdiff import group_oo

        plan = group_oo(10, 10, np.random.default_rng(0))
        ledger = ResourceLedger()
        run_round(pop, plan, train, TrainHyperparams(0.1, 16), ledger, capacity=10, master_seed=0, round_index=1)
        assert ledger.oracle_sessions == 9
        assert ledger.forward_ops == 9 * len(train)

    def test_pom_skips_oracle_learning(self, task):
        train, _, _ = task
        pop = make_population(train)
        from nkdiff import group_pom

        plan = group_pom(10, np.random.default_rng(0))
        assert len(plan.groups) == 10  # planned sessions incl. oracle's own
        ledger = ResourceLedger()
        run_round(pop, plan, train, TrainHyperparams(0.1, 16), ledger, capacity=2, master_seed=0, round_index=1)
        assert ledger.oracle_sessions == 1
        assert ledger.forward_ops == 9 * len(train)

    def test_round_rebinds_no_learner_attribute_but_params_and_memo(self, task):
        # A learner is its parameters: sessions get their shuffle streams passed in.
        train, _, _ = task
        pop = make_population(train)
        from nkdiff import group_oo

        before = [dict(vars(learner)) for learner in pop.learners]
        plan = group_oo(10, 10, np.random.default_rng(0))
        run_round(pop, plan, train, TrainHyperparams(0.1, 16), ResourceLedger(), capacity=10, master_seed=0, round_index=1)
        for learner, attributes in zip(pop.learners, before):
            assert vars(learner).keys() == attributes.keys()
            for name, value in attributes.items():
                if name not in ("params", "_memo"):
                    assert vars(learner)[name] is value, name

    def test_capacity_enforced_at_execution(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        plan = RoundPlan(groups=[(3, (0, 1, 2))], policy_tag="oo")
        with pytest.raises(ValueError):
            run_round(pop, plan, train, TrainHyperparams(0.1, 16), ResourceLedger(), capacity=2, master_seed=0, round_index=1)

    def test_duplicate_learner_rejected(self, task):
        train, _, _ = task
        pop = make_population(train, n_models=4)
        plan = RoundPlan(groups=[(3, (0,)), (1, (0,))], policy_tag="btb")
        with pytest.raises(ValueError):
            run_round(pop, plan, train, TrainHyperparams(0.1, 16), ResourceLedger(), capacity=4, master_seed=0, round_index=1)

    def test_teacher_frozen_within_round(self, task):
        # the second learner of a teacher sees the same labels as the first
        train, _, _ = task
        pop_a = make_population(train, n_models=4, seed=1)
        pop_b = make_population(train, n_models=4, seed=1)
        hp = TrainHyperparams(0.1, 16)
        plan = RoundPlan(groups=[(3, (0, 1, 2))], policy_tag="oo")
        run_round(pop_a, plan, train, hp, ResourceLedger(), capacity=4, master_seed=5, round_index=1)
        # reversed learner order must give identical parameters
        plan_rev = RoundPlan(groups=[(3, (2, 1, 0))], policy_tag="oo")
        run_round(pop_b, plan_rev, train, hp, ResourceLedger(), capacity=4, master_seed=5, round_index=1)
        for a, b in zip(pop_a.trainees, pop_b.trainees):
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
        run_round(pop_a, plan, train, hp, ResourceLedger(), capacity=2, master_seed=9, round_index=1)
        run_round(pop_b, reversed_plan, train, hp, ResourceLedger(), capacity=2, master_seed=9, round_index=1)
        for a, b in zip(pop_a.trainees, pop_b.trainees):
            assert np.array_equal(a.params, b.params)


def reversed_plan(plan):
    """The same sessions, every group and every group's learners in reverse order."""
    return RoundPlan(groups=[(t, ls[::-1]) for t, ls in plan.groups[::-1]], policy_tag=plan.policy_tag)


class TestSessionOrder:
    """Sessions run in plan order, but any other order gives the same bits."""

    def test_one_round_in_reverse_gives_identical_parameters(self, task):
        train, val, _ = task
        from nkdiff import evaluate_validation, group_eq, rank_models

        hp = TrainHyperparams(0.1, 16)
        pop_a = make_population(train, seed=7)
        pop_b = make_population(train, seed=7)
        plan = group_eq(rank_models(evaluate_validation(pop_a, val)), 5)
        assert len(plan.groups) == 2 and all(len(ls) == 4 for _, ls in plan.groups)
        for pop, order in ((pop_a, plan), (pop_b, reversed_plan(plan))):
            run_round(pop, order, train, hp, ResourceLedger(), capacity=5, master_seed=3, round_index=1)
        for a, b in zip(pop_a.trainees, pop_b.trainees):
            assert np.array_equal(a.params, b.params)

    @pytest.mark.parametrize("policy, capacity", [("btb", 2), ("eq", 5), ("pom", 2)])
    def test_run_in_reverse_session_order_writes_identical_csv(self, task, monkeypatch, policy, capacity):
        from nkdiff.cli import format_run_csv

        cfg = ExperimentConfig(policy=policy, capacity=capacity, rounds=4, dataset=SMALL_BLOBS, master_seed=8)
        in_order = format_run_csv(run_experiment(cfg, data=task))
        real_run_round = engine.run_round

        def reversing_run_round(pop, plan, *args, **kwargs):
            return real_run_round(pop, reversed_plan(plan), *args, **kwargs)

        monkeypatch.setattr(engine, "run_round", reversing_run_round)
        assert format_run_csv(run_experiment(cfg, data=task)) == in_order


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("policy", 5),
            ("n_models", True),
            ("n_models", 10.0),
            ("capacity", 2.0),
            ("rounds", 2.5),
            ("master_seed", 1.5),
            ("master_seed", False),
            ("pretrain", "no"),
            ("pretrain", 1),
            ("hidden_widths", (16.0,)),
            ("hidden_widths", (True,)),
            ("hidden_widths", 16),
        ],
    )
    def test_field_of_the_wrong_type_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig(**{"policy": "btb", field: value})

    def test_hidden_widths_list_and_tuple_give_equal_hashable_configs(self):
        listed = ExperimentConfig(policy="btb", hidden_widths=[16, np.int64(8)])
        tupled = ExperimentConfig(policy="btb", hidden_widths=(16, 8))
        assert listed.hidden_widths == (16, 8)
        assert listed == tupled and hash(listed) == hash(tupled)

    def test_numpy_integers_are_integers(self):
        cfg = ExperimentConfig(policy="btb", n_models=np.int64(10), capacity=np.int32(2), hidden_widths=(np.int64(8),))
        assert cfg.n_models == 10

    def test_batch_size_checked_before_training(self):
        cfg = ExperimentConfig(
            policy="btb",
            dataset=SMALL_BLOBS,
            hyperparams=TrainHyperparams(0.1, 10_000),
        )
        with pytest.raises(ConfigurationError):
            run_experiment(cfg, threads=1)


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
                train_epoch(learner, train.X, train.y, hp, stream("session", 8, t, i))
            final_params.append(learner.params)

        assert records[-1].oracle_sessions == 4 * 9
        # rerun engine to recover its population state
        from nkdiff import group_oo

        engine_pop = init_population(spec, 10, oracle_labels=train.y)
        ledger = ResourceLedger()
        for t in range(1, 5):
            plan = group_oo(10, 10, stream("policy", 8, t))
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

    @pytest.mark.parametrize("pretrain, phase", [(False, "round 1"), (True, "warm-up")])
    def test_numeric_error_names_seed_and_phase(self, task, pretrain, phase):
        cfg = ExperimentConfig(
            policy="btb",
            rounds=2,
            pretrain=pretrain,
            dataset=SMALL_BLOBS,
            hyperparams=TrainHyperparams(1e100, 16),
            master_seed=12,
        )
        with pytest.raises(NonFiniteError, match=rf"^learner \d+ .*\(seed 12, {phase}\)$"):
            run_experiment(cfg, data=task)

    def test_each_learner_evaluated_once_per_parameter_state(self, task, monkeypatch):
        # From round 2 on, a learner's test, train and validation outputs are
        # recomputed only after it trains: 3 forward passes per session.
        splits = [ds.X for ds in task]
        computed = [0]
        real_distributions = nn._distributions

        def counting_distributions(learners, X):
            computed[0] += len(learners) * any(X is s for s in splits)
            return real_distributions(learners, X)

        round_starts, sessions = [], []
        real_make_plan, real_run_round = engine._make_plan, engine.run_round

        def marking_make_plan(*args, **kwargs):
            round_starts.append(computed[0])
            return real_make_plan(*args, **kwargs)

        def recording_run_round(pop, plan, train, hp, ledger, **kwargs):
            before = ledger.forward_ops
            real_run_round(pop, plan, train, hp, ledger, **kwargs)
            sessions.append((ledger.forward_ops - before) // len(train))

        monkeypatch.setattr(nn, "_distributions", counting_distributions)
        monkeypatch.setattr(engine, "_make_plan", marking_make_plan)
        monkeypatch.setattr(engine, "run_round", recording_run_round)
        cfg = ExperimentConfig(policy="btb", capacity=2, rounds=5, dataset=SMALL_BLOBS, master_seed=1)
        run_experiment(cfg, data=task, threads=1)
        per_round = np.diff(round_starts + [computed[0]])
        assert len(per_round) == 5
        assert list(per_round[1:]) == [3 * n for n in sessions[1:]]

    @pytest.mark.parametrize("policy", ["btb", "eq", "oo", "pom", "rgbt"])
    def test_only_oo_pom_and_rgbt_draw_the_policy_stream(self, task, monkeypatch, policy):
        drawn = []
        real_stream = engine.stream

        def recording_stream(name, *key):
            drawn.append((name, *key))
            return real_stream(name, *key)

        monkeypatch.setattr(engine, "stream", recording_stream)
        run_experiment(ExperimentConfig(policy=policy, rounds=3, dataset=SMALL_BLOBS, master_seed=5), data=task)
        policy_draws = [key for key in drawn if key[0] == "policy"]
        assert policy_draws == ([] if policy in ("btb", "eq") else [("policy", 5, t) for t in (1, 2, 3)])
        assert any(key[0] == "session" for key in drawn)


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
