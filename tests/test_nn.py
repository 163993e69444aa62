"""Unit tests for the dense classifier: init, forward, pseudolabels, SGD."""

import copy
import math
import warnings

import numpy as np
import pytest

import nkdiff.nn as nn
from nkdiff import (
    Dataset,
    ModelSpec,
    NonFiniteError,
    OracleUpdateError,
    PROB_FLOOR,
    TrainHyperparams,
    forward,
    forward_batch,
    gen_blobs,
    init_learner,
    loss_and_gradient,
    param_count,
    pseudolabels,
    train_epoch,
    unpack_params,
)


class TestModelSpec:
    def test_rejects_single_layer(self):
        with pytest.raises(ValueError):
            ModelSpec(layer_widths=(4,))

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            ModelSpec(layer_widths=(4, 0, 3))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            ModelSpec(layer_widths=(4, 1))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            ModelSpec(layer_widths=(4, 3), activation="tanh")

    def test_param_count_small(self):
        assert param_count(ModelSpec(layer_widths=(2, 3))) == 2 * 3 + 3

    @pytest.mark.parametrize("widths", [(2, 3), (4, 5, 3), (10, 16, 3), (7, 4, 4, 2)])
    def test_param_count_formula(self, widths):
        spec = ModelSpec(layer_widths=widths)
        expected = sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
        assert param_count(spec) == expected
        assert init_learner(spec, 0).params.shape == (expected,)


class TestInitLearner:
    def test_same_spec_and_id_is_bit_identical(self, small_spec):
        a = init_learner(small_spec, 3)
        b = init_learner(small_spec, 3)
        assert np.array_equal(a.params, b.params)

    def test_different_ids_differ(self, small_spec):
        a = init_learner(small_spec, 0)
        b = init_learner(small_spec, 1)
        assert not np.array_equal(a.params, b.params)

    def test_different_seeds_differ(self):
        a = init_learner(ModelSpec((4, 5, 3), seed=1), 0)
        b = init_learner(ModelSpec((4, 5, 3), seed=2), 0)
        assert not np.array_equal(a.params, b.params)

    def test_init_is_bounded_by_layer_scale(self, small_spec):
        learner = init_learner(small_spec, 0)
        for w, b in unpack_params(small_spec, learner.params):
            scale = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.all(np.abs(w) <= scale)
            assert np.all(np.abs(b) <= scale)


def naive_forward(widths, params, x):
    """Independent scalar-arithmetic re-implementation of the forward pass."""
    idx = 0
    a = [float(v) for v in x]
    n_layers = len(widths) - 1
    for layer, (wi, wo) in enumerate(zip(widths[:-1], widths[1:])):
        rows = [[params[idx + r * wo + c] for c in range(wo)] for r in range(wi)]
        idx += wi * wo
        bias = [params[idx + c] for c in range(wo)]
        idx += wo
        z = [sum(a[r] * rows[r][c] for r in range(wi)) + bias[c] for c in range(wo)]
        a = [max(v, 0.0) for v in z] if layer < n_layers - 1 else z
    m = max(a)
    exps = [math.exp(v - m) for v in a]
    total = sum(exps)
    probs = [v / total for v in exps]
    probs = [max(v, PROB_FLOOR) for v in probs]
    total = sum(probs)
    return [v / total for v in probs]


class TestForward:
    def test_probs_sum_to_one(self, small_spec):
        rng = np.random.default_rng(0)
        for i in range(20):
            learner = init_learner(small_spec, i)
            p = forward(learner, rng.normal(size=4))
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p >= PROB_FLOOR)

    def test_zero_params_is_uniform(self, zero_learner):
        p = forward(zero_learner, np.ones(4))
        assert np.allclose(p, np.full(3, 1.0 / 3.0), atol=0, rtol=0)

    def test_dimension_mismatch(self, small_spec):
        learner = init_learner(small_spec, 0)
        with pytest.raises(ValueError):
            forward(learner, np.ones(5))
        with pytest.raises(ValueError):
            forward_batch(learner, np.ones((3, 7)))

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            widths = (4, 5, 3) if trial % 2 else (3, 4, 4, 2)
            spec = ModelSpec(layer_widths=widths, seed=trial)
            learner = init_learner(spec, trial)
            x = rng.normal(size=widths[0])
            expected = naive_forward(widths, learner.params, x)
            got = forward(learner, x)
            assert np.max(np.abs(got - np.array(expected))) < 1e-12

    def test_extreme_inputs_stay_valid(self, small_spec):
        learner = init_learner(small_spec, 0)
        for x in (np.full(4, 1e8), np.full(4, -1e8), np.array([1e8, -1e8, 0.0, 1.0])):
            p = forward(learner, x)
            assert np.all(np.isfinite(p))
            assert np.all(p >= PROB_FLOOR)
            assert abs(p.sum() - 1.0) <= 1e-9


@pytest.fixture
def count_forwards(monkeypatch):
    """Records the id of the input of every real forward computation."""
    calls = []
    real = nn._activations

    def counting(layers, X):
        calls.append(id(X))
        return real(layers, X)

    monkeypatch.setattr(nn, "_activations", counting)
    return calls


class TestForwardMemo:
    def test_dataset_arrays_are_read_only(self, small_blobs):
        assert not small_blobs.X.flags.writeable
        assert not small_blobs.y.flags.writeable
        with pytest.raises(ValueError):
            small_blobs.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            small_blobs.y[0] = 0

    def test_repeat_returns_fresh_equal_copies(self, small_spec, small_blobs, count_forwards):
        learner = init_learner(small_spec, 0)
        first = forward_batch(learner, small_blobs.X)
        expected = first.tobytes()
        first[:] = 0.5
        second = forward_batch(learner, small_blobs.X)
        assert second.tobytes() == expected
        second[:] = 0.25
        third = forward_batch(learner, small_blobs.X)
        assert third.tobytes() == expected
        assert third is not second and not np.shares_memory(second, third)
        assert count_forwards == [id(small_blobs.X)]

    def test_training_invalidates(self, small_spec, small_blobs, hp):
        learner = init_learner(small_spec, 0)
        before = forward_batch(learner, small_blobs.X)
        train_epoch(learner, small_blobs.X, small_blobs.y, hp)
        fresh = init_learner(small_spec, 1)
        fresh.params[:] = learner.params
        after = forward_batch(learner, small_blobs.X)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, forward_batch(fresh, small_blobs.X.copy()))

    def test_in_place_param_edit_invalidates(self, small_spec, small_blobs):
        learner = init_learner(small_spec, 0)
        other = init_learner(small_spec, 1)
        forward_batch(learner, small_blobs.X)
        learner.params[:] = other.params
        assert np.array_equal(
            forward_batch(learner, small_blobs.X), forward_batch(other, small_blobs.X.copy())
        )

    def test_new_spec_object_recomputes(self, small_spec, small_blobs, count_forwards):
        learner = init_learner(small_spec, 0)
        forward_batch(learner, small_blobs.X)
        learner.spec = ModelSpec(layer_widths=small_spec.layer_widths, seed=small_spec.seed)
        forward_batch(learner, small_blobs.X)
        assert len(count_forwards) == 2

    def test_writeable_and_view_inputs_are_not_memoized(self, small_spec, small_blobs, count_forwards):
        learner = init_learner(small_spec, 0)
        writeable = small_blobs.X.copy()
        for X in (writeable, writeable, small_blobs.X[:17], small_blobs.X[:17]):
            forward_batch(learner, X)
        assert learner._memo == {}
        assert len(count_forwards) == 4

    def test_nan_params_never_hit(self, small_spec, small_blobs, count_forwards):
        learner = init_learner(small_spec, 0)
        learner.params[0] = np.nan
        for _ in range(3):
            forward_batch(learner, small_blobs.X)
        assert len(count_forwards) == 3

    def test_memo_keeps_one_entry_per_dataset_array(self, small_spec, count_forwards):
        ds = Dataset(X=np.ones((5, 4)), y=np.zeros(5), K=3)
        learner = init_learner(small_spec, 0)
        for _ in range(3):
            forward_batch(learner, ds.X)
            pseudolabels(learner, ds.X)
        assert len(count_forwards) == 1
        assert [k for k in learner._memo if k not in ("spec", "params")] == [id(ds.X)]


class TestPseudolabels:
    def test_oracle_returns_held_labels(self, small_spec, small_blobs):
        oracle = init_learner(small_spec, 9, is_oracle=True, held_labels=small_blobs.y)
        got = pseudolabels(oracle, small_blobs.X)
        assert np.array_equal(got, small_blobs.y)
        got[0] = (got[0] + 1) % 3  # caller owns the copy
        assert np.array_equal(oracle.held_labels, small_blobs.y)

    def test_oracle_row_count_mismatch(self, small_spec, small_blobs):
        oracle = init_learner(small_spec, 9, is_oracle=True, held_labels=small_blobs.y[:10])
        with pytest.raises(ValueError):
            pseudolabels(oracle, small_blobs.X)

    def test_zero_param_teacher_says_class_zero(self, zero_learner, small_blobs):
        labels = pseudolabels(zero_learner, small_blobs.X)
        assert np.all(labels == 0)

    def test_labels_in_range(self, small_spec, small_blobs):
        for i in range(5):
            labels = pseudolabels(init_learner(small_spec, i), small_blobs.X)
            assert labels.min() >= 0 and labels.max() < 3

    def test_empty_input_rejected(self, small_spec):
        with pytest.raises(ValueError):
            pseudolabels(init_learner(small_spec, 0), np.empty((0, 4)))


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_params(self, small_spec, small_blobs):
        learner = init_learner(small_spec, 0)
        before = learner.params.copy()
        stats = train_epoch(
            learner, small_blobs.X, small_blobs.y, TrainHyperparams(0.0, 16)
        )
        assert np.array_equal(learner.params, before)
        assert math.isfinite(stats.mean_loss)
        assert stats.forward_ops == len(small_blobs)

    def test_loss_descends_on_separable_blobs(self):
        ds = gen_blobs(n_per_class=60, K=2, d=2, centers_scale=4.0, noise_sigma=0.3, seed=1)
        spec = ModelSpec(layer_widths=(2, 8, 2), seed=0)
        learner = init_learner(spec, 0)
        hp = TrainHyperparams(0.1, 16)
        first = train_epoch(learner, ds.X, ds.y, hp).mean_loss
        second = train_epoch(learner, ds.X, ds.y, hp).mean_loss
        assert second < first

    def test_deterministic_given_state(self, small_spec, small_blobs, hp):
        learner = init_learner(small_spec, 0)
        twin = copy.deepcopy(learner)
        train_epoch(learner, small_blobs.X, small_blobs.y, hp)
        train_epoch(twin, small_blobs.X, small_blobs.y, hp)
        assert np.array_equal(learner.params, twin.params)

    def test_oracle_refuses_training(self, small_spec, small_blobs, hp):
        oracle = init_learner(small_spec, 9, is_oracle=True, held_labels=small_blobs.y)
        with pytest.raises(OracleUpdateError):
            train_epoch(oracle, small_blobs.X, small_blobs.y, hp)

    def test_batch_size_cannot_exceed_n(self, small_spec, small_blobs):
        learner = init_learner(small_spec, 0)
        with pytest.raises(ValueError):
            train_epoch(learner, small_blobs.X, small_blobs.y, TrainHyperparams(0.1, 1000))

    @pytest.mark.parametrize(
        "relabel", [lambda y: -1 - y, lambda y: y + 3], ids=["negative", "at_least_K"]
    )
    def test_labels_outside_class_range_rejected(self, small_spec, small_blobs, hp, relabel):
        learner = init_learner(small_spec, 0)
        before = learner.params.copy()
        labels = relabel(small_blobs.y)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            train_epoch(learner, small_blobs.X, labels, hp)
        assert np.array_equal(learner.params, before)

    def test_divergence_raises_naming_learner_and_rate(self, small_spec, small_blobs):
        learner = init_learner(small_spec, 6)
        # Divergence is reported by the exception alone, not by numpy warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"learner 6 .* 1e\+100"):
                train_epoch(learner, small_blobs.X, small_blobs.y, TrainHyperparams(1e100, 16))

    def test_only_target_learner_mutates(self, small_spec, small_blobs, hp):
        a = init_learner(small_spec, 0)
        b = init_learner(small_spec, 1)
        b_before = b.params.copy()
        train_epoch(a, small_blobs.X, small_blobs.y, hp)
        assert np.array_equal(b.params, b_before)


def central_difference_gradient(spec, params, X, y, h=1e-5):
    grad = np.empty_like(params)
    for i in range(len(params)):
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        grad[i] = (
            loss_and_gradient(spec, plus, X, y)[0]
            - loss_and_gradient(spec, minus, X, y)[0]
        ) / (2 * h)
    return grad


class TestGradient:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for trial in range(10):
            depth = rng.integers(1, 3)
            widths = tuple(int(w) for w in rng.integers(2, 6, size=depth + 1)) + (
                int(rng.integers(2, 5)),
            )
            spec = ModelSpec(layer_widths=widths, seed=trial)
            learner = init_learner(spec, trial)
            X = rng.normal(size=(int(rng.integers(1, 6)), widths[0]))
            y = rng.integers(0, widths[-1], size=len(X))
            _, analytic = loss_and_gradient(spec, learner.params, X, y)
            numeric = central_difference_gradient(spec, learner.params, X, y)
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_gradient_descent_step_reduces_loss(self, small_spec, small_blobs):
        learner = init_learner(small_spec, 0)
        loss, grad = loss_and_gradient(small_spec, learner.params, small_blobs.X, small_blobs.y)
        stepped = learner.params - 0.05 * grad
        after, _ = loss_and_gradient(small_spec, stepped, small_blobs.X, small_blobs.y)
        assert after < loss
