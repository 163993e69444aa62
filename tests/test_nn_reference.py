"""Bit-for-bit agreement of the nn hot path with a frozen reference.

The reference below is the straightforward implementation the package
shipped with: one forward pass per function, a fresh temporary for every
step and views rebuilt on every call. The package's own path performs the
same floating-point operations in the same order, so parameters after
training and output distributions must be equal to the last bit, not
merely close.
"""

import copy

import numpy as np
import pytest

from nkdiff import (
    PROB_FLOOR,
    ModelSpec,
    TrainHyperparams,
    forward_batch,
    gen_blobs,
    init_learner,
    loss_and_gradient,
    train_epoch,
    unpack_params,
)


def ref_unpack_params(spec, params):
    views = []
    offset = 0
    widths = spec.layer_widths
    for wi, wo in zip(widths[:-1], widths[1:]):
        w = params[offset : offset + wi * wo].reshape(wi, wo)
        offset += wi * wo
        b = params[offset : offset + wo]
        offset += wo
        views.append((w, b))
    return views


def ref_forward_batch(learner, X):
    a = np.asarray(X, dtype=np.float64)
    views = ref_unpack_params(learner.spec, learner.params)
    last = len(views) - 1
    for i, (w, b) in enumerate(views):
        z = a @ w + b
        a = np.maximum(z, 0.0) if i < last else z
    z = a - a.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    p = np.maximum(p, PROB_FLOOR)
    p /= p.sum(axis=1, keepdims=True)
    return np.maximum(p, PROB_FLOOR)


def ref_loss_and_gradient(spec, params, X, labels):
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    views = ref_unpack_params(spec, params)
    last = len(views) - 1

    activations = [X]
    pre = []
    a = X
    for i, (w, b) in enumerate(views):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < last else z
        activations.append(a)

    logits = activations[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    n = len(X)
    rows = np.arange(n)
    loss = float(-log_probs[rows, labels].mean())

    delta = np.exp(log_probs)
    delta[rows, labels] -= 1.0
    delta /= n

    grad = np.empty_like(params)
    grad_views = ref_unpack_params(spec, grad)
    for i in range(last, -1, -1):
        w, _ = views[i]
        gw, gb = grad_views[i]
        gw[...] = activations[i].T @ delta
        gb[...] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ w.T) * (pre[i - 1] > 0.0)
    return loss, grad


def ref_train_epoch(learner, X, labels, hp):
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(X)
    order = learner.rng.permutation(n) if hp.shuffle else np.arange(n)
    total = 0.0
    for start in range(0, n, hp.batch_size):
        idx = order[start : start + hp.batch_size]
        loss, grad = ref_loss_and_gradient(learner.spec, learner.params, X[idx], labels[idx])
        learner.params -= hp.learning_rate * grad
        total += loss * len(idx)
    return total / n


# At K >= 8 numpy sums the class axis pairwise, not left to right.
WIDTHS = [(4, 5, 3), (10, 16, 3), (6, 8, 8, 4), (12, 16, 10)]


def blobs_for(widths, seed):
    return gen_blobs(
        n_per_class=25, K=widths[-1], d=widths[0], centers_scale=1.5, noise_sigma=1.0, seed=seed
    )


@pytest.mark.parametrize("widths", WIDTHS)
@pytest.mark.parametrize("shuffle", [True, False])
def test_three_epochs_match_reference_bit_for_bit(widths, shuffle):
    ds = blobs_for(widths, seed=len(widths))
    # 32 does not divide the 75 or 100 rows, so every epoch ends on a short batch.
    assert len(ds) % 32
    hp = TrainHyperparams(learning_rate=0.05, batch_size=32, shuffle=shuffle)
    learner = init_learner(ModelSpec(layer_widths=widths, seed=3), 1)
    twin = copy.deepcopy(learner)
    for _ in range(3):
        stats = train_epoch(learner, ds.X, ds.y, hp)
        assert stats.mean_loss == ref_train_epoch(twin, ds.X, ds.y, hp)
    assert np.array_equal(learner.params, twin.params)
    assert not np.array_equal(learner.params, init_learner(learner.spec, 1).params)


@pytest.mark.parametrize("widths", WIDTHS)
def test_loss_and_gradient_match_reference_bit_for_bit(widths):
    ds = blobs_for(widths, seed=11)
    spec = ModelSpec(layer_widths=widths, seed=5)
    params = init_learner(spec, 2).params
    loss, grad = loss_and_gradient(spec, params, ds.X[:17], ds.y[:17])
    ref_loss, ref_grad = ref_loss_and_gradient(spec, params, ds.X[:17], ds.y[:17])
    assert loss == ref_loss
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("widths", WIDTHS)
def test_forward_batch_matches_reference_bit_for_bit(widths):
    ds = blobs_for(widths, seed=13)
    learner = init_learner(ModelSpec(layer_widths=widths, seed=7), 4)
    train_epoch(learner, ds.X, ds.y, TrainHyperparams(0.05, 32))
    X = np.vstack([ds.X, np.full((1, widths[0]), 1e8), np.full((1, widths[0]), -1e8)])
    assert np.array_equal(forward_batch(learner, X), ref_forward_batch(learner, X))
    # A read-only X is memoized: the first call and the memo hit both match.
    X.setflags(write=False)
    expected = ref_forward_batch(learner, X)
    assert np.array_equal(forward_batch(learner, X), expected)
    assert id(X) in learner._memo
    assert np.array_equal(forward_batch(learner, X), expected)


@pytest.mark.parametrize("widths", WIDTHS)
def test_loss_and_gradient_out_buffer_is_overwritten_and_returned(widths):
    ds = blobs_for(widths, seed=17)
    spec = ModelSpec(layer_widths=widths, seed=5)
    params = init_learner(spec, 2).params
    buf = np.full_like(params, np.nan)
    loss, grad = loss_and_gradient(spec, params, ds.X[:17], ds.y[:17], out=buf)
    fresh_loss, fresh_grad = loss_and_gradient(spec, params, ds.X[:17], ds.y[:17])
    assert grad is buf
    assert loss == fresh_loss
    assert np.array_equal(buf, fresh_grad)


@pytest.mark.parametrize("widths", WIDTHS)
def test_forward_batch_with_equal_logits_matches_reference(widths):
    ds = blobs_for(widths, seed=19)
    learner = init_learner(ModelSpec(layer_widths=widths, seed=7), 4)
    w, b = unpack_params(learner.spec, learner.params)[-1]
    w[...] = 0.0
    b[...] = 0.5
    # Every row's logits are all equal, so each row's max is tied K ways.
    p = forward_batch(learner, ds.X)
    assert np.array_equal(p, ref_forward_batch(learner, ds.X))
    assert np.all(p == p[:, :1])
