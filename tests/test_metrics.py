"""Unit tests for accuracies, ensemble voting, disagreement, aggregation."""

import math
import warnings

import numpy as np
import pytest

from nkdiff import (
    MetricsRecord,
    ModelSpec,
    accuracy,
    aggregate_seeds,
    average_learner_accuracy,
    disagreement_stats,
    ensemble_classify,
    ensemble_predict,
    gen_blobs,
    init_learner,
    init_population,
    predict,
    unpack_params,
)
from nkdiff.metrics import AGG_FIELDS
from conftest import balanced_dataset, zeroed


@pytest.fixture
def blobs():
    return gen_blobs(n_per_class=40, K=3, d=4, centers_scale=2.0, noise_sigma=0.5, seed=1)


def make_learner(seed=0, widths=(4, 6, 3), id=0):
    return init_learner(ModelSpec(layer_widths=widths, seed=seed), id)


class TestAccuracy:
    def test_perfect_predictions(self, blobs):
        learner = make_learner()
        rigged = blobs.with_labels(predict(learner, blobs.X))
        assert accuracy(learner, rigged) == 1.0

    def test_zero_params_on_balanced_set(self):
        ds = balanced_dataset(K=5, per_class=20, d=4)
        learner = zeroed(make_learner(widths=(4, 5)))
        assert accuracy(learner, ds) == 1.0 / 5.0

    def test_complement(self, blobs):
        learner = make_learner(seed=3)
        acc = accuracy(learner, blobs)
        preds = predict(learner, blobs.X)
        error_rate = int(np.sum(preds != blobs.y)) / len(blobs)
        assert acc + error_rate == 1.0

    def test_empty_dataset_rejected(self, blobs):
        learner = make_learner()
        empty = blobs.take(np.array([], dtype=int), "test")
        with pytest.raises(ValueError):
            accuracy(learner, empty)


class TestAverageLearnerAccuracy:
    def test_mean_of_two(self, blobs):
        spec = ModelSpec(layer_widths=(4, 6, 3), seed=5)
        pop = init_population(spec, 3, oracle_labels=blobs.y)
        a0 = accuracy(pop.learners[0], blobs)
        a1 = accuracy(pop.learners[1], blobs)
        assert average_learner_accuracy(pop, blobs) == pytest.approx((a0 + a1) / 2)

    def test_identical_trainees_collapse_to_individual(self, blobs):
        spec = ModelSpec(layer_widths=(4, 6, 3), seed=5)
        pop = init_population(spec, 4, oracle_labels=blobs.y)
        for learner in pop.trainees[1:]:
            learner.params[:] = pop.trainees[0].params
        assert average_learner_accuracy(pop, blobs) == accuracy(pop.trainees[0], blobs)

    def test_bounded_by_extremes(self, blobs):
        spec = ModelSpec(layer_widths=(4, 6, 3), seed=5)
        pop = init_population(spec, 5, oracle_labels=blobs.y)
        accs = [accuracy(l, blobs) for l in pop.trainees]
        alacc = average_learner_accuracy(pop, blobs)
        assert min(accs) <= alacc <= max(accs)


class TestEnsembleClassify:
    def test_single_member_is_argmax(self):
        assert ensemble_classify(np.array([[0.1, 0.7, 0.2]])) == 1

    def test_two_member_log_vote(self):
        # log 0.5 + log 0.9 > log 0.5 + log 0.1
        members = np.array([[0.5, 0.5], [0.9, 0.1]])
        assert ensemble_classify(members) == 0
        direct = np.log(members).sum(axis=0)
        assert direct[0] > direct[1]

    def test_uniform_members_tie_break_to_zero(self):
        members = np.full((4, 3), 1.0 / 3.0)
        assert ensemble_classify(members) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_classify(np.empty((0, 3)))

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(0)
        members = rng.dirichlet(np.ones(4), size=5)
        assert ensemble_classify(members) == ensemble_classify(members)


class TestEnsemblePredict:
    def test_single_member_matches_accuracy(self, blobs):
        learner = make_learner(seed=7)
        assert accuracy([learner], blobs) == accuracy(learner, blobs)
        assert np.array_equal(ensemble_predict([learner], blobs.X), predict(learner, blobs.X))

    def test_ensemble_of_identical_members_matches_one(self, blobs):
        learner = make_learner(seed=7)
        assert accuracy([learner, learner, learner], blobs) == accuracy(learner, blobs)


def cyclic_label_shift(learner):
    """A twin whose argmax is always one class off the original's."""
    import copy

    twin = copy.deepcopy(learner)
    w, b = unpack_params(twin.spec, twin.params)[-1]
    w[...] = np.roll(w, 1, axis=1)
    b[...] = np.roll(b, 1)
    return twin


class TestDisagreement:
    def test_identical_models(self, blobs):
        learner = make_learner()
        both, either = disagreement_stats(learner, learner, blobs)
        assert both == either

    def test_inclusion_bounds(self, blobs):
        a = make_learner(seed=1)
        b = make_learner(seed=2)
        both, either = disagreement_stats(a, b, blobs)
        correct_a = int(np.sum(predict(a, blobs.X) == blobs.y))
        correct_b = int(np.sum(predict(b, blobs.X) == blobs.y))
        assert both <= min(correct_a, correct_b)
        assert either >= max(correct_a, correct_b)
        assert both <= either <= len(blobs)

    def test_perfect_versus_always_wrong(self, blobs):
        a = make_learner(seed=4)
        rigged = blobs.with_labels(predict(a, blobs.X))
        b = cyclic_label_shift(a)
        # the shifted twin never agrees with a's argmax, so never with y
        both, either = disagreement_stats(a, b, rigged)
        assert both == 0
        assert either == len(rigged)


def record(round, value):
    return MetricsRecord(
        round=round,
        alacc_test=value,
        ensacc_test=value,
        alacc_train=value,
        ensacc_val=value,
        oracle_sessions=round,
        forward_ops=round * 100,
        per_learner_acc=np.array([value]),
    )


class TestAggregateSeeds:
    def test_identical_runs_zero_halfwidth(self):
        runs = [[record(1, 0.5), record(2, 0.6)] for _ in range(4)]
        agg = aggregate_seeds(runs)
        assert np.all(agg.ci95["alacc_test"] == 0.0)
        assert np.allclose(agg.mean["alacc_test"], [0.5, 0.6])

    def test_two_run_hand_arithmetic(self):
        runs = [[record(1, 0.4)], [record(1, 0.6)]]
        agg = aggregate_seeds(runs)
        assert agg.mean["ensacc_test"][0] == pytest.approx(0.5)
        expected = 1.96 * np.std([0.4, 0.6], ddof=1) / math.sqrt(2)
        assert agg.ci95["ensacc_test"][0] == pytest.approx(expected)
        assert agg.ci95["ensacc_test"][0] == pytest.approx(0.196, abs=5e-4)

    def test_permutation_invariant(self):
        runs = [[record(1, v)] for v in (0.2, 0.5, 0.8)]
        a = aggregate_seeds(runs)
        b = aggregate_seeds(runs[::-1])
        assert a.mean["alacc_train"][0] == b.mean["alacc_train"][0]

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            aggregate_seeds([[record(1, 0.5)], [record(1, 0.5), record(2, 0.5)]])

    def test_single_run_is_its_own_mean(self):
        run = [record(1, 0.3), record(2, 0.7)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            agg = aggregate_seeds([run])
        assert list(agg.rounds) == [1, 2]
        for name in AGG_FIELDS:
            assert list(agg.mean[name]) == [float(getattr(rec, name)) for rec in run]
            assert list(agg.ci95[name]) == [0.0, 0.0]

    def test_no_runs_rejected(self):
        with pytest.raises(ValueError, match="at least 1 run"):
            aggregate_seeds([])

    def test_accuracy_means_stay_in_unit_interval(self):
        rng = np.random.default_rng(0)
        runs = [
            [record(r, float(rng.uniform())) for r in range(1, 6)] for _ in range(8)
        ]
        agg = aggregate_seeds(runs)
        for name in ("alacc_test", "ensacc_test", "alacc_train", "ensacc_val"):
            assert np.all(agg.mean[name] >= 0.0) and np.all(agg.mean[name] <= 1.0)
            assert np.all(agg.ci95[name] >= 0.0)
