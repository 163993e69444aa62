"""Unit tests for the dense classifier: init, forward, pseudolabels, SGD."""

import contextlib
import copy
import gc
import math
import pickle
import re
import sys
import threading
import warnings
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import nkdiff.nn as nn
from nkdiff import (
    Dataset,
    ModelSpec,
    NonFiniteError,
    Oracle,
    PROB_FLOOR,
    TrainHyperparams,
    forward_batch,
    gen_blobs,
    init_learner,
    loss_and_gradient,
    param_count,
    pseudolabels,
    train_epoch,
    unpack_params,
)

from conftest import warmup_stream


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

    @pytest.mark.parametrize("widths", [(10.7, 16, 3), (10, 16.0, 3), (True, 16, 3), (10, 16, np.True_)])
    def test_rejects_a_width_that_is_not_an_integer(self, widths):
        with pytest.raises(ValueError, match="layer widths must be integers"):
            ModelSpec(layer_widths=widths)

    @pytest.mark.parametrize("seed", [1.5, True, "3", None, -1])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative 64-bit integer"):
            ModelSpec(layer_widths=(4, 5, 3), seed=seed)

    def test_numpy_integer_widths_become_ints(self):
        widths = ModelSpec(layer_widths=(np.int64(10), 16, np.int32(3))).layer_widths
        assert widths == (10, 16, 3) and all(type(w) is int for w in widths)

    def test_param_count_small(self):
        assert param_count(ModelSpec(layer_widths=(2, 3))) == 2 * 3 + 3

    @pytest.mark.parametrize("widths", [(2, 3), (4, 5, 3), (10, 16, 3), (7, 4, 4, 2)])
    def test_param_count_formula(self, widths):
        spec = ModelSpec(layer_widths=widths)
        expected = sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
        assert param_count(spec) == expected
        assert init_learner(spec, 0).params.shape == (expected,)


class TestTrainHyperparams:
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: TrainHyperparams(shuffle="no"), ValueError),
            (lambda: TrainHyperparams(batch_size=2.5), ValueError),
            (lambda: TrainHyperparams(batch_size=True), ValueError),
            (lambda: TrainHyperparams(learning_rate=True), ValueError),
            (lambda: TrainHyperparams(learning_rate="0.1"), ValueError),
            (lambda: TrainHyperparams(learning_rate=np.True_), ValueError),
            (lambda: setattr(TrainHyperparams(), "batch_size", 0), FrozenInstanceError),
            (lambda: setattr(TrainHyperparams(), "shuffle", False), FrozenInstanceError),
            (lambda: setattr(TrainHyperparams(), "learning_rate", 1.0), FrozenInstanceError),
        ],
        ids=["shuffle_text", "fractional_batch", "bool_batch", "bool_rate", "text_rate", "numpy_bool_rate", "set_batch",
             "set_shuffle", "set_rate"],
    )
    def test_no_value_runs_a_different_experiment(self, build, error):
        with pytest.raises(error):
            build()


class TestInitLearner:
    def test_same_spec_and_id_is_bit_identical(self, small_spec):
        a = init_learner(small_spec, 3)
        b = init_learner(small_spec, 3)
        assert np.array_equal(a.params, b.params)

    def test_equality_is_identity(self, small_spec):
        a = init_learner(small_spec, 0)
        b = init_learner(small_spec, 0)
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert [b, a].index(a) == 1 and len({a, b}) == 2

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
            p = forward_batch(learner, rng.normal(size=4)[None])[0]
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p >= PROB_FLOOR)

    def test_zero_params_is_uniform(self, zero_learner):
        p = forward_batch(zero_learner, np.ones((1, 4)))[0]
        assert np.allclose(p, np.full(3, 1.0 / 3.0), atol=0, rtol=0)

    def test_dimension_mismatch(self, small_spec):
        learner = init_learner(small_spec, 0)
        with pytest.raises(ValueError):
            forward_batch(learner, np.ones((1, 5)))
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
            got = forward_batch(learner, x[None])[0]
            assert np.max(np.abs(got - np.array(expected))) < 1e-12

    def test_extreme_inputs_stay_valid(self, small_spec):
        learner = init_learner(small_spec, 0)
        for x in (np.full(4, 1e8), np.full(4, -1e8), np.array([1e8, -1e8, 0.0, 1.0])):
            p = forward_batch(learner, x[None])[0]
            assert np.all(np.isfinite(p))
            assert np.all(p >= PROB_FLOOR)
            assert abs(p.sum() - 1.0) <= 1e-9

    def test_overflowing_logits_raise_naming_learner(self, small_spec, small_blobs):
        learner = init_learner(small_spec, 3)
        learner.params[:] *= 1e200
        # Overflow is reported by the exception alone, not by numpy warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"^learner 3 "):
                forward_batch(learner, small_blobs.X)
            with pytest.raises(NonFiniteError, match=r"^learner 3 "):
                pseudolabels(learner, small_blobs.X.copy())


@pytest.fixture
def count_forwards(monkeypatch):
    """Records the id of the input once per learner of every real forward computation."""
    calls = []
    real = nn._distributions

    def counting(learners, X):
        calls.extend(id(X) for _ in learners)
        return real(learners, X)

    monkeypatch.setattr(nn, "_distributions", counting)
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
        train_epoch(learner, small_blobs.X, small_blobs.y, hp, warmup_stream(small_spec, 0))
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

    @pytest.mark.parametrize("field", ["id", "spec", "params"])
    def test_learner_fields_cannot_be_rebound(self, small_spec, field):
        # So the memo's parameter bytes, and a session's id-keyed streams and labels, stay the learner's own.
        learner = init_learner(small_spec, 0)
        with pytest.raises(FrozenInstanceError):
            setattr(learner, field, getattr(init_learner(small_spec, 1), field))

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
            with pytest.raises(NonFiniteError):
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

    def test_a_sign_flipped_zero_recomputes(self, small_spec, small_blobs, count_forwards):
        # The memo is keyed on parameter bytes: -0.0 equals 0.0 by value, not by bits.
        learner = init_learner(small_spec, 0)
        learner.params[0] = 0.0
        forward_batch(learner, small_blobs.X)
        learner.params[0] = -0.0
        forward_batch(learner, small_blobs.X)
        assert len(count_forwards) == 2


class TestPseudolabels:
    def test_oracle_returns_held_labels(self, small_blobs):
        oracle = Oracle(9, small_blobs.y)
        got = pseudolabels(oracle, small_blobs.X)
        assert np.array_equal(got, small_blobs.y)
        assert got.flags.writeable and not np.shares_memory(got, oracle.labels)
        got[0] = (got[0] + 1) % 3  # caller owns the copy
        assert np.array_equal(oracle.labels, small_blobs.y)

    def test_oracle_row_count_mismatch(self, small_blobs):
        oracle = Oracle(9, small_blobs.y[:10])
        with pytest.raises(ValueError, match=f"{len(small_blobs)} rows but the oracle holds 10 labels"):
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
        loss = train_epoch(
            learner, small_blobs.X, small_blobs.y, TrainHyperparams(0.0, 16), warmup_stream(small_spec, 0)
        )
        assert np.array_equal(learner.params, before)
        assert isinstance(loss, float) and math.isfinite(loss)

    def test_loss_descends_on_separable_blobs(self):
        ds = gen_blobs(n_per_class=60, K=2, d=2, centers_scale=4.0, noise_sigma=0.3, seed=1)
        spec = ModelSpec(layer_widths=(2, 8, 2), seed=0)
        learner = init_learner(spec, 0)
        hp = TrainHyperparams(0.1, 16)
        rng = warmup_stream(spec, 0)
        first = train_epoch(learner, ds.X, ds.y, hp, rng)
        second = train_epoch(learner, ds.X, ds.y, hp, rng)
        assert second < first

    def test_deterministic_given_state(self, small_spec, small_blobs, hp):
        learner = init_learner(small_spec, 0)
        twin, other = copy.deepcopy(learner), copy.deepcopy(learner)
        loss = train_epoch(learner, small_blobs.X, small_blobs.y, hp, np.random.default_rng(5))
        assert train_epoch(twin, small_blobs.X, small_blobs.y, hp, np.random.default_rng(5)) == loss
        assert np.array_equal(learner.params, twin.params)
        # The shuffle comes from the stream passed in, not from the learner.
        train_epoch(other, small_blobs.X, small_blobs.y, hp, np.random.default_rng(6))
        assert not np.array_equal(learner.params, other.params)

    def test_batch_size_cannot_exceed_n(self, small_spec, small_blobs):
        learner = init_learner(small_spec, 0)
        with pytest.raises(ValueError):
            train_epoch(learner, small_blobs.X, small_blobs.y, TrainHyperparams(0.1, 1000), warmup_stream(small_spec, 0))

    @pytest.mark.parametrize(
        "relabel", [lambda y: -1 - y, lambda y: y + 3], ids=["negative", "at_least_K"]
    )
    def test_labels_outside_class_range_rejected(self, small_spec, small_blobs, hp, relabel):
        learner = init_learner(small_spec, 0)
        before = learner.params.copy()
        labels = relabel(small_blobs.y)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            train_epoch(learner, small_blobs.X, labels, hp, warmup_stream(small_spec, 0))
        assert np.array_equal(learner.params, before)

    @pytest.mark.parametrize("shape", [(120, 7), (120,), (120, 4, 1)], ids=["wide_rows", "vector", "cube"])
    def test_rows_of_the_wrong_shape_are_rejected(self, small_spec, small_blobs, hp, shape):
        learner = init_learner(small_spec, 0)
        before = learner.params.copy()
        message = rf"^expected rows of width 4, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            train_epoch(learner, np.ones(shape), small_blobs.y, hp, warmup_stream(small_spec, 0))
        assert np.array_equal(learner.params, before)

    def test_divergence_raises_naming_learner_and_rate(self, small_spec, small_blobs):
        learner = init_learner(small_spec, 6)
        # Divergence is reported by the exception alone, not by numpy warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"learner 6 .* 1e\+100"):
                train_epoch(
                    learner, small_blobs.X, small_blobs.y, TrainHyperparams(1e100, 16), warmup_stream(small_spec, 6)
                )

    def test_only_target_learner_mutates(self, small_spec, small_blobs, hp):
        a = init_learner(small_spec, 0)
        b = init_learner(small_spec, 1)
        b_before = b.params.copy()
        train_epoch(a, small_blobs.X, small_blobs.y, hp, warmup_stream(small_spec, 0))
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


class TestSgdStep:
    """train_epoch passes one private step per epoch to loss_and_gradient as ``out``; only that step
    skips the checks, and it builds its own buffers and keeps none past its epoch or call."""

    @staticmethod
    def step(spec, params, out, blobs):
        return loss_and_gradient(spec, params, blobs.X[:20], blobs.y[:20], out=out)

    def test_in_place_param_edit_shows_in_next_call(self, small_spec, small_blobs):
        params = init_learner(small_spec, 0).params
        out = np.empty_like(params)
        self.step(small_spec, params, out, small_blobs)
        params[:] = init_learner(small_spec, 1).params
        loss, grad = self.step(small_spec, params, out, small_blobs)
        fresh_loss, fresh_grad = self.step(small_spec, params.copy(), None, small_blobs)
        assert loss == fresh_loss and np.array_equal(grad, fresh_grad)

    def test_new_out_buffer_gets_fresh_views(self, small_spec, small_blobs):
        params = init_learner(small_spec, 0).params
        self.step(small_spec, params, np.empty_like(params), small_blobs)
        out = np.full_like(params, np.nan)
        _, grad = self.step(small_spec, params, out, small_blobs)
        assert grad is out
        assert np.array_equal(out, self.step(small_spec, params, None, small_blobs)[1])

    def test_no_out_gets_a_fresh_gradient(self, small_spec, small_blobs):
        params = init_learner(small_spec, 0).params
        out = np.empty_like(params)
        loss, grad = self.step(small_spec, params, out, small_blobs)
        fresh = [self.step(small_spec, params, None, small_blobs) for _ in range(2)]
        assert not np.shares_memory(fresh[0][1], fresh[1][1]) and fresh[1][1] is not out
        for fresh_loss, fresh_grad in fresh:
            assert fresh_loss == loss and np.array_equal(fresh_grad, grad)

    @pytest.mark.parametrize(
        "strided",
        [lambda p: np.repeat(p, 2)[::2], lambda p: np.asfortranarray(np.stack([p, p]))[0]],
        ids=["every_other_entry", "fortran_row"],
    )
    def test_non_contiguous_params_are_bound_as_views(self, small_spec, small_blobs, strided):
        n = param_count(small_spec)
        params = strided(init_learner(small_spec, 0).params)
        assert not params.flags.c_contiguous
        out = np.empty(n)
        assert all(np.shares_memory(w, params) for w, _ in nn._Step(small_spec, params, out).layers)
        expected = self.step(small_spec, params.copy(), None, small_blobs)
        for _ in range(2):
            loss, grad = self.step(small_spec, params, out, small_blobs)
            assert loss == expected[0] and np.array_equal(grad, expected[1])
        # An edit through the strided view shows in the next call.
        params[:] = init_learner(small_spec, 1).params
        _, grad = self.step(small_spec, params, out, small_blobs)
        assert np.array_equal(grad, self.step(small_spec, params.copy(), None, small_blobs)[1])

    def test_other_spec_with_same_param_count_gets_its_own_views(self, small_spec, small_blobs):
        other = ModelSpec(layer_widths=(6, 4, 3), seed=small_spec.seed)
        assert param_count(other) == param_count(small_spec)
        params = init_learner(small_spec, 0).params
        out = np.empty_like(params)
        self.step(small_spec, params, out, small_blobs)
        X = np.random.default_rng(0).normal(size=(9, 6))
        y = np.arange(9) % 3
        loss, grad = loss_and_gradient(other, params, X, y, out=out)
        assert nn._Step(other, params, out).layers[0][0].shape == (6, 4)
        fresh_loss, fresh_grad = loss_and_gradient(other, params.copy(), X, y)
        assert loss == fresh_loss and np.array_equal(grad, fresh_grad)

    def test_every_batch_size_matches_a_fresh_gradient(self, small_spec, small_blobs):
        params = init_learner(small_spec, 0).params
        out = np.empty_like(params)
        for rows in range(1, 11):
            loss, grad = loss_and_gradient(small_spec, params, small_blobs.X[:rows], small_blobs.y[:rows], out=out)
            fresh_loss, fresh_grad = loss_and_gradient(small_spec, params, small_blobs.X[:rows], small_blobs.y[:rows])
            assert loss == fresh_loss and np.array_equal(grad, fresh_grad)

    def test_every_layer_layout_matches_a_fresh_gradient(self, small_blobs):
        X, y = small_blobs.X[:20], small_blobs.y[:20]
        for hidden in range(1, 11):
            spec = ModelSpec(layer_widths=(4, hidden, 3))
            params = init_learner(spec, 0).params
            loss, grad = loss_and_gradient(spec, params, X, y, out=np.empty_like(params))
            fresh_loss, fresh_grad = loss_and_gradient(spec, params, X, y)
            assert loss == fresh_loss and np.array_equal(grad, fresh_grad)

    def test_an_epoch_binds_its_parameters_once(self, small_spec, monkeypatch):
        # 600 rows at batch 32: 18 full batches and a tail of 24 rows.
        ds = gen_blobs(n_per_class=200, K=3, d=4, centers_scale=2.0, noise_sigma=0.5, seed=5)
        learner, binds, checks, steps = init_learner(small_spec, 0), [], [], []
        bind, check, step = nn._Step.__init__, nn.check_labels, nn.loss_and_gradient
        monkeypatch.setattr(nn._Step, "__init__", lambda *args: binds.append(args[2]) or bind(*args))
        monkeypatch.setattr(nn, "check_labels", lambda *args: checks.append(args) or check(*args))

        def spy(*args, **kwargs):
            result = step(*args, **kwargs)
            steps.append((kwargs["out"], kwargs["out"].n))
            return result

        monkeypatch.setattr(nn, "loss_and_gradient", spy)
        train_epoch(learner, ds.X, ds.y, TrainHyperparams(0.1, 32), warmup_stream(small_spec, 0))
        assert [n for _, n in steps] == [32] * 18 + [24]
        assert isinstance(steps[0][0], nn._Step) and all(out is steps[0][0] for out, _ in steps)
        assert len(binds) == 1 and binds[0] is learner.params and len(checks) == 1

    def test_no_buffers_outlive_their_epoch_or_call(self, small_spec, small_blobs, monkeypatch):
        built, use = [], nn._Step.use

        def tracked(step, n):
            built.append((n, weakref.ref(step)))
            use(step, n)

        monkeypatch.setattr(nn._Step, "use", tracked)
        learner = init_learner(small_spec, 0)
        # 600 rows at batch 32: the epoch's step sizes its buffers for 32 rows, then for the 24-row last batch.
        ds = gen_blobs(n_per_class=200, K=3, d=4, centers_scale=2.0, noise_sigma=0.5, seed=5)
        train_epoch(learner, ds.X, ds.y, TrainHyperparams(0.1, 32), warmup_stream(small_spec, 0))
        loss_and_gradient(small_spec, learner.params, ds.X[:20], ds.y[:20], out=np.empty_like(learner.params))
        gc.collect()
        assert [n for n, _ in built] == [32, 24, 20]
        assert all(ref() is None for _, ref in built)

    @pytest.mark.parametrize("raises", [False, True], ids=["returned", "raised"])
    def test_an_epochs_buffer_is_checked_once_the_epoch_ends(self, small_spec, small_blobs, hp, monkeypatch, raises):
        learner, outs, step = init_learner(small_spec, 0), [], nn.loss_and_gradient

        def spy(*args, out, **kwargs):
            outs.append(out)
            if raises and len(outs) == 2:
                raise RuntimeError("stopped mid-epoch")
            return step(*args, out=out, **kwargs)

        monkeypatch.setattr(nn, "loss_and_gradient", spy)
        with pytest.raises(RuntimeError, match="mid-epoch") if raises else contextlib.nullcontext():
            train_epoch(learner, small_blobs.X, small_blobs.y, hp, warmup_stream(small_spec, 0))
        X = small_blobs.X[: hp.batch_size]
        for labels in ([3] * len(X), [-1] * len(X), [1], 1, [0.5] * len(X)):
            with pytest.raises(ValueError, match="labels"):
                step(small_spec, learner.params, X, labels, out=outs[-1].out)

    @pytest.mark.parametrize("label", [-1, 3, 0.5, None], ids=["minus_one", "three", "half", "single"])
    def test_an_epochs_buffer_is_checked_mid_epoch(self, small_spec, small_blobs, hp, monkeypatch, label):
        learner, twin, step = init_learner(small_spec, 0), init_learner(small_spec, 0), nn.loss_and_gradient
        X = small_blobs.X[: hp.batch_size]
        labels = [1] if label is None else [label] * len(X)

        def spy(*args, **kwargs):
            loss, grad = step(*args, **kwargs)
            with pytest.raises(ValueError, match="labels"):
                step(small_spec, learner.params, X, labels, out=grad)
            return loss, grad

        expected = train_epoch(twin, small_blobs.X, small_blobs.y, hp, warmup_stream(small_spec, 0))
        monkeypatch.setattr(nn, "loss_and_gradient", spy)
        # The refused calls write nothing: the epoch ends as it does without them.
        assert train_epoch(learner, small_blobs.X, small_blobs.y, hp, warmup_stream(small_spec, 0)) == expected
        assert np.array_equal(learner.params, twin.params)

    def test_wrong_shape_still_raises(self, small_spec, small_blobs):
        params = init_learner(small_spec, 0).params
        out = np.empty_like(params)
        self.step(small_spec, params, out, small_blobs)
        with pytest.raises(ValueError, match="flat vector"):
            self.step(small_spec, params, np.empty(len(params) + 1), small_blobs)
        with pytest.raises(ValueError, match="flat vector"):
            self.step(small_spec, np.append(params, 0.0), out, small_blobs)
        # The remembered array itself, reshaped in place, is rejected too.
        params.shape = (1, len(out))
        with pytest.raises(ValueError, match="flat vector"):
            self.step(small_spec, params, out, small_blobs)

    @pytest.mark.parametrize(
        "make_out",
        [
            lambda n: np.empty(2 * n)[::2],
            lambda n: np.empty(n, dtype=np.float32),
            lambda n: np.empty((1, n)),
        ],
        ids=["strided", "float32", "row_matrix"],
    )
    def test_unfit_out_buffer_is_rejected_naming_out(self, small_spec, small_blobs, make_out):
        params = init_learner(small_spec, 0).params
        with pytest.raises(ValueError, match=r"^out must be a C-contiguous float64 flat vector"):
            self.step(small_spec, params, make_out(len(params)), small_blobs)

    def test_copies_of_a_trained_spec_carry_no_arrays(self, small_spec, small_blobs, hp):
        learner = init_learner(small_spec, 0)
        train_epoch(learner, small_blobs.X, small_blobs.y, hp, warmup_stream(small_spec, 0))
        for spec in (small_spec, copy.deepcopy(small_spec), pickle.loads(pickle.dumps(small_spec))):
            assert spec == small_spec
            assert set(vars(spec)) == {"layer_widths", "seed", "_layout", "_n_params"}
            assert not any(isinstance(v, np.ndarray) for v in vars(spec).values())

    def test_threads_training_learners_of_one_spec_match_serial_training(self, small_spec, small_blobs, hp):
        def train(learner, rng):
            for _ in range(20):
                train_epoch(learner, small_blobs.X, small_blobs.y, hp, rng)

        serial = [init_learner(small_spec, i) for i in range(2)]
        for learner in serial:
            train(learner, warmup_stream(small_spec, learner.id))
        threaded = [init_learner(small_spec, i) for i in range(2)]
        threads = [
            threading.Thread(target=train, args=(learner, warmup_stream(small_spec, learner.id)))
            for learner in threaded
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.params, b.params)


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

    # Each case is a batch of X shaped as given, for the width-4 small_spec.
    @pytest.mark.parametrize(
        "shape, labels, message",
        [
            ((4, 4), [3, 0, 1, 2], r"must lie in \[0, 3\)"),
            ((4, 4), [-1, 0, 1, 2], r"must lie in \[0, 3\)"),
            ((4, 4), [0.5, 0, 1, 2], r"must be whole numbers, found 0.5"),
            ((4, 4), [1], "4 rows but labels of shape"),
            ((4, 4), 1, "4 rows but labels of shape"),
            ((0, 4), [], r"^a batch needs at least one row, got shape \(0, 4\)$"),
            ((2, 7), [0, 1], r"^expected rows of width 4, got shape \(2, 7\)$"),
            ((4,), [1], r"^expected rows of width 4, got shape \(4,\)$"),
        ],
        ids=["above_K", "negative", "fractional", "one_label", "scalar", "empty_batch", "wide_rows", "one_vector"],
    )
    @pytest.mark.parametrize("with_out", ["fresh", "out", "repeated_out"])
    def test_bad_labels_are_rejected(self, small_spec, shape, labels, message, with_out):
        params = init_learner(small_spec, 0).params
        out = None if with_out == "fresh" else np.empty_like(params)
        if with_out == "repeated_out":
            # A good call on the same arrays first: the next one must not skip its checks.
            loss_and_gradient(small_spec, params, np.ones((4, 4)), [0, 1, 2, 0], out=out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                loss_and_gradient(small_spec, params, np.ones(shape), labels, out=out)
