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
    NonFiniteError,
    TrainHyperparams,
    ensemble_classify,
    ensemble_predict,
    forward_batch,
    forward_stack,
    gen_blobs,
    init_learner,
    loss_and_gradient,
    train_epoch,
    unpack_params,
)

from conftest import warmup_stream


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


def ref_train_epoch(learner, X, labels, hp, rng):
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(X)
    order = rng.permutation(n) if hp.shuffle else np.arange(n)
    total = 0.0
    for start in range(0, n, hp.batch_size):
        idx = order[start : start + hp.batch_size]
        loss, grad = ref_loss_and_gradient(learner.spec, learner.params, X[idx], labels[idx])
        learner.params[:] -= hp.learning_rate * grad
        total += loss * len(idx)
    return total / n


def ref_ensemble_predict(learners, X):
    total = None
    for learner in learners:
        logp = np.log(ref_forward_batch(learner, X))
        total = logp if total is None else total + logp
    return np.argmax(total, axis=1)


# At K >= 8 numpy sums the class axis pairwise, not left to right.
# (4, 3) and (10, 4, 3) are shapes where a strided X makes numpy pick another
# gemm kernel for the first layer's weight gradient.
WIDTHS = [(4, 5, 3), (10, 16, 3), (6, 8, 8, 4), (12, 16, 10), (4, 3), (10, 4, 3)]


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
    rng, twin_rng = warmup_stream(learner.spec, 1), warmup_stream(learner.spec, 1)
    for _ in range(3):
        assert train_epoch(learner, ds.X, ds.y, hp, rng) == ref_train_epoch(twin, ds.X, ds.y, hp, twin_rng)
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
    train_epoch(learner, ds.X, ds.y, TrainHyperparams(0.05, 32), warmup_stream(learner.spec, 4))
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


@pytest.mark.parametrize("widths", WIDTHS)
def test_one_out_buffer_across_sgd_steps_matches_reference(widths):
    # One out buffer across steps that update params in place.
    ds = blobs_for(widths, seed=23)
    spec = ModelSpec(layer_widths=widths, seed=5)
    params = init_learner(spec, 2).params
    twin = params.copy()
    buf = np.empty_like(params)
    for start in range(0, len(ds), 16):
        X, y = ds.X[start : start + 16], ds.y[start : start + 16]
        loss, grad = loss_and_gradient(spec, params, X, y, out=buf)
        ref_loss, ref_grad = ref_loss_and_gradient(spec, twin, X, y)
        assert grad is buf and loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        params -= 0.05 * grad
        twin -= 0.05 * ref_grad
    assert np.array_equal(params, twin)


@pytest.mark.parametrize("widths", WIDTHS)
def test_changing_batch_sizes_with_one_out_buffer_match_reference(widths):
    # Each batch size has its own buffers; switching back reuses the first ones.
    ds = blobs_for(widths, seed=29)
    spec = ModelSpec(layer_widths=widths, seed=5)
    params = init_learner(spec, 2).params
    twin = params.copy()
    buf = np.empty_like(params)
    start = 0
    for size in (32, 24, 32, 1, 17):
        rows = np.arange(start, start + size) % len(ds)
        start += size
        X, y = ds.X[rows], ds.y[rows]
        loss, grad = loss_and_gradient(spec, params, X, y, out=buf)
        ref_loss, ref_grad = ref_loss_and_gradient(spec, twin, X, y)
        assert grad is buf and loss == ref_loss
        assert np.array_equal(grad, ref_grad)
        params -= 0.05 * grad
        twin -= 0.05 * ref_grad
    assert np.array_equal(params, twin)


@pytest.mark.parametrize("widths", WIDTHS)
@pytest.mark.parametrize(
    "make_batch",
    [
        lambda X: X.astype(np.float32),
        lambda X: X.astype(np.longdouble),
        lambda X: np.repeat(X, 2, axis=0)[::2],
        lambda X: np.repeat(X, 2, axis=1)[:, ::2],
        lambda X: X.tolist(),
    ],
    ids=["float32", "longdouble", "every_other_row", "every_other_column", "nested_list"],
)
def test_a_batch_that_is_not_a_contiguous_float64_array_after_a_remembered_call_matches_reference(widths, make_batch):
    # The first call remembers (spec, params, out) at 17 rows; the second passes 17 rows again.
    ds = blobs_for(widths, seed=31)
    spec = ModelSpec(layer_widths=widths, seed=5)
    params = init_learner(spec, 2).params
    buf = np.empty_like(params)
    loss_and_gradient(spec, params, ds.X[17:34], ds.y[17:34], out=buf)
    batch = make_batch(ds.X[:17])
    loss, grad = loss_and_gradient(spec, params, batch, ds.y[:17], out=buf)
    ref_loss, ref_grad = ref_loss_and_gradient(spec, params, batch, ds.y[:17])
    assert grad is buf and loss == ref_loss
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("widths", WIDTHS)
@pytest.mark.parametrize(
    "layout",
    [
        lambda X: np.repeat(X, 2, axis=0)[::2],
        lambda X: np.repeat(X, 2, axis=1)[:, ::2],
        np.asfortranarray,
    ],
    ids=["row_strided", "column_strided", "fortran"],
)
def test_loss_and_gradient_do_not_depend_on_the_batch_layout(widths, layout):
    ds = blobs_for(widths, seed=37)
    spec = ModelSpec(layer_widths=widths, seed=5)
    params = init_learner(spec, 2).params
    batch = layout(ds.X[:17])
    assert not batch.flags.c_contiguous
    loss, grad = loss_and_gradient(spec, params, batch, ds.y[:17])
    expected_loss, expected_grad = loss_and_gradient(spec, params, np.ascontiguousarray(batch), ds.y[:17])
    assert loss == expected_loss
    assert np.array_equal(grad, expected_grad)


@pytest.mark.parametrize("n_learners", [1, 9])
@pytest.mark.parametrize("K", [2, 3, 7, 8, 10, 16, 128, 129, 130, 256, 257])
@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_forward_stack_matches_reference_bit_for_bit(n_learners, K, tied):
    # K spans numpy's three summation orders: in sequence, 8 partial sums, halves;
    # 128 is the last single block, 129 and 256 halve once, 257 twice.
    spec = ModelSpec(layer_widths=(6, 12, K), seed=K)
    learners = [init_learner(spec, i) for i in range(n_learners)]
    for learner in learners:
        learner.params[:] *= 3.0
    if tied:
        # The middle learner's logits are all equal on every row.
        w, b = unpack_params(spec, learners[n_learners // 2].params)[-1]
        w[...] = 0.0
        b[...] = 0.5
    rng = np.random.default_rng(K)
    X = np.vstack([rng.standard_normal((37, 6)) * 2.0, np.full((1, 6), 1e8), np.full((1, 6), -1e8)])
    expected = [ref_forward_batch(learner, X) for learner in learners]
    for p, ref in zip(forward_stack(learners, X), expected):
        assert np.array_equal(p, ref)
    # A read-only X is memoized: the stacked pass fills every memo, then each hits.
    X.setflags(write=False)
    for p, ref in zip(forward_stack(learners, X), expected):
        assert np.array_equal(p, ref)
    for learner, ref in zip(learners, expected):
        assert id(X) in learner._memo
        assert np.array_equal(forward_batch(learner, X), ref)


def test_forward_stack_names_the_first_non_finite_learner():
    spec = ModelSpec(layer_widths=(6, 12, 3), seed=1)
    learners = [init_learner(spec, i) for i in range(9)]
    learners[4].params[0] = np.nan
    learners[6].params[:] *= 1e300
    X = np.random.default_rng(0).standard_normal((20, 6))
    with pytest.raises(NonFiniteError, match=r"^learner 4 "):
        forward_stack(learners, X)
    with pytest.raises(NonFiniteError, match=r"^learner 6 "):
        forward_stack(learners[:4] + learners[5:], X)


@pytest.mark.parametrize("n_members", [1, 2, 8, 9, 17])
@pytest.mark.parametrize("K", [2, 3, 10])
@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_ensemble_predict_matches_sequential_vote_bit_for_bit(n_members, K, tied):
    spec = ModelSpec(layer_widths=(6, 12, K), seed=K)
    learners = [init_learner(spec, i) for i in range(n_members)]
    for learner in learners:
        # Near-uniform outputs make close votes, where the summation order shows.
        learner.params[:] *= 0.1
    if tied:
        # Each odd member repeats the one before it; the last has equal logits on every row.
        for first, second in zip(learners[::2], learners[1::2]):
            second.params[:] = first.params
        w, b = unpack_params(spec, learners[-1].params)[-1]
        w[...] = 0.0
        b[...] = 0.5
    X = np.random.default_rng(n_members).standard_normal((200, 6))
    assert np.array_equal(ensemble_predict(learners, X), ref_ensemble_predict(learners, X))


@pytest.mark.parametrize("n_members", [3, 8, 9, 17])
def test_ensemble_predict_sums_mirrored_members_in_member_order(n_members):
    # At K=2, swapping a learner's output columns swaps its distribution exactly.
    # Member L-1-j mirrors member j (a middle member has equal logits), so the
    # two class totals add the same terms in opposite orders: only rounding
    # separates them, and only the sequential order in member order
    # reproduces the reference's votes.
    spec = ModelSpec(layer_widths=(6, 12, 2), seed=4)
    learners = [init_learner(spec, i) for i in range(n_members)]
    for j in range(n_members // 2):
        w, b = unpack_params(spec, learners[j].params)[-1]
        mirror_w, mirror_b = unpack_params(spec, learners[-1 - j].params)[-1]
        learners[-1 - j].params[:] = learners[j].params
        mirror_w[...] = w[:, ::-1]
        mirror_b[...] = b[::-1]
    if n_members % 2:
        w, b = unpack_params(spec, learners[n_members // 2].params)[-1]
        w[...] = 0.0
        b[...] = 0.5
    X = np.random.default_rng(n_members).standard_normal((400, 6))
    expected = ref_ensemble_predict(learners, X)
    assert 0 < expected.sum() < len(X)
    assert np.array_equal(ensemble_predict(learners, X), expected)


@pytest.mark.parametrize("n_members", [1, 2, 9])
def test_ensemble_classify_of_a_stack_equals_row_by_row_votes(n_members):
    rng = np.random.default_rng(n_members)
    dists = rng.dirichlet(np.ones(4), size=(n_members, 30))
    dists[:, :4] = 0.25  # tied rows
    dists[0, 4:8, 1:] = 0.0  # entries below the floor
    votes = ensemble_classify(dists)
    assert votes.shape == (30,)
    assert np.array_equal(votes, [ensemble_classify(dists[:, i]) for i in range(30)])
