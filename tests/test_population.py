"""Unit tests for population ownership, validation ranking, and warm-up."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nkdiff import (
    Learner,
    ModelSpec,
    Oracle,
    Population,
    TrainHyperparams,
    evaluate_validation,
    gen_blobs,
    init_learner,
    init_population,
    predict,
    pretrain_population,
    rank_models,
)
from conftest import balanced_dataset, zeroed


@pytest.fixture
def blob_task():
    ds = gen_blobs(n_per_class=60, K=3, d=4, centers_scale=2.0, noise_sigma=0.6, seed=2)
    train = ds.take(np.arange(0, 120), "train")
    val = ds.take(np.arange(120, 180), "validation")
    return train, val


def make_population(train, n_models=4, seed=0):
    spec = ModelSpec(layer_widths=(train.n_features, 6, train.K), seed=seed)
    return init_population(spec, n_models, oracle_labels=train.y)


class TestInitPopulation:
    def test_structure(self, blob_task):
        train, _ = blob_task
        pop = make_population(train, n_models=5)
        assert pop.n == 5
        assert pop.oracle.id == 4
        assert [l.id for l in pop.trainees] == [0, 1, 2, 3]
        assert pop.oracle.is_oracle
        assert np.array_equal(pop.oracle.labels, train.y)

    def test_oracle_holds_a_read_only_copy_of_its_labels(self, blob_task):
        train, _ = blob_task
        y = np.array(train.y)
        spec = ModelSpec(layer_widths=(train.n_features, 6, train.K), seed=0)
        oracle = init_population(spec, 4, oracle_labels=y).oracle
        y[0] = (y[0] + 1) % 3
        assert np.array_equal(oracle.labels, train.y)
        assert not oracle.labels.flags.writeable
        with pytest.raises(ValueError):
            oracle.labels[0] = 0
        with pytest.raises(FrozenInstanceError):
            oracle.labels = y

    def test_is_oracle_is_a_class_constant(self):
        assert Oracle.is_oracle is True and Learner.is_oracle is False

    def test_too_small(self, blob_task):
        train, _ = blob_task
        with pytest.raises(ValueError):
            make_population(train, n_models=1)

    def test_oracle_must_be_the_last_learner(self, blob_task):
        train, _ = blob_task
        spec = ModelSpec(layer_widths=(train.n_features, 6, train.K), seed=0)
        learners = [Oracle(0, train.y), init_learner(spec, 1)]
        with pytest.raises(ValueError, match="the last learner"):
            Population(learners)
        learners.append(Oracle(2, train.y))
        with pytest.raises(ValueError, match="the last learner"):
            Population(learners)
        with pytest.raises(ValueError, match="the last learner"):
            Population([init_learner(spec, 0), init_learner(spec, 1)])

    def test_the_learner_holding_labels_is_the_oracle(self, blob_task):
        train, _ = blob_task
        spec = ModelSpec(layer_widths=(train.n_features, 6, train.K), seed=0)
        oracle = Oracle(9, train.y)
        pop = Population([init_learner(spec, i) for i in range(9)] + [oracle])
        assert pop.oracle is oracle and oracle.is_oracle
        assert not any(learner.is_oracle for learner in pop.trainees)
        with pytest.raises(AttributeError):
            oracle.is_oracle = False


class TestEvaluateValidation:
    def test_zero_param_learner_scores_exactly_one_over_k(self):
        val = balanced_dataset(K=4, per_class=25, d=3)
        spec = ModelSpec(layer_widths=(3, 4), seed=0)
        pop = init_population(spec, 3, oracle_labels=val.y)
        zeroed(pop.learners[0])
        scores = evaluate_validation(pop, val)
        # every prediction is class 0; the balanced set holds exactly n/K zeros
        assert scores[0] == 1.0 / 4.0

    def test_oracle_scores_top_by_convention(self, blob_task):
        train, val = blob_task
        pop = make_population(train)
        scores = evaluate_validation(pop, val)
        assert scores[pop.oracle.id] == 1.0
        assert scores[pop.oracle.id] >= scores.max()

    def test_perfect_classifier_scores_one(self, blob_task):
        train, val = blob_task
        pop = make_population(train)
        learner = pop.learners[0]
        rigged = val.with_labels(predict(learner, val.X))
        scores = evaluate_validation(pop, rigged)
        assert scores[0] == 1.0

    def test_read_only_on_population(self, blob_task):
        train, val = blob_task
        pop = make_population(train)
        before = [l.params.copy() for l in pop.trainees]
        evaluate_validation(pop, val)
        for learner, snapshot in zip(pop.trainees, before):
            assert np.array_equal(learner.params, snapshot)


class TestRankModels:
    def test_manual_example_with_oracle_last(self):
        assert rank_models(np.array([0.3, 0.1, 0.2])).tolist() == [1, 0, 2]

    def test_tie_breaks_toward_lower_id(self):
        assert rank_models(np.array([0.5, 0.5, 1.0])).tolist() == [0, 1, 2]

    def test_trainee_at_one_still_ranks_below_oracle(self):
        assert rank_models(np.array([1.0, 0.4, 1.0])).tolist() == [1, 0, 2]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12)
    )
    def test_order_is_ascending_permutation(self, trainee_scores):
        scores = np.array(trainee_scores + [1.0])
        oracle_id = len(scores) - 1
        ranked = rank_models(scores)
        assert ranked.dtype == np.int64
        assert sorted(ranked.tolist()) == list(range(len(scores)))
        assert ranked[-1] == oracle_id
        trainee_part = ranked[:-1]
        assert all(
            scores[a] <= scores[b] for a, b in zip(trainee_part, trainee_part[1:])
        )


class TestPretrain:
    def test_epoch_ladder_and_resource_charge(self, blob_task):
        train, _ = blob_task
        pop = make_population(train, n_models=10)
        hp = TrainHyperparams(0.05, 16)
        assert pretrain_population(pop, train, hp) == sum(range(1, 10))  # 45

    def test_deterministic(self, blob_task):
        train, _ = blob_task
        hp = TrainHyperparams(0.05, 16)
        pop_a = make_population(train, n_models=6, seed=3)
        pop_b = make_population(train, n_models=6, seed=3)
        pretrain_population(pop_a, train, hp)
        pretrain_population(pop_b, train, hp)
        for a, b in zip(pop_a.trainees, pop_b.trainees):
            assert np.array_equal(a.params, b.params)

    def test_trainees_actually_learn_in_id_order(self, blob_task):
        # more epochs should not leave the strongest trainee at init
        train, _ = blob_task
        pop = make_population(train, n_models=4)
        init_params = [l.params.copy() for l in pop.trainees]
        pretrain_population(pop, train, TrainHyperparams(0.05, 16))
        for learner, before in zip(pop.trainees, init_params):
            assert not np.array_equal(learner.params, before)
