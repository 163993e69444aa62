"""Dense feed-forward classifiers, and the oracle that holds the true labels.

Every trainee in a population shares one :class:`ModelSpec` (an MLP with ReLU
hidden layers and a softmax head). Parameters live in a single flat float64
vector so learners can be hashed, copied and compared bit-for-bit. Training
is plain mini-batch SGD on cross-entropy with analytic backprop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .data import Seed, check_labels, check_types, int_tuple, stream

# Positivity floor applied to output distributions; keeps log-domain
# ensemble voting defined when a softmax underflows to 0.
PROB_FLOOR = 1e-12


class NonFiniteError(ArithmeticError):
    """A learner's parameters or logits became NaN or infinite."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture shared by a whole population.

    ``layer_widths`` is (input dim, hidden dims..., class count). ``seed``
    keys parameter initialization: identical (spec, learner id) pairs yield
    bit-identical parameter vectors. Besides its fields a spec holds only
    its derived flat-vector layout; no function keeps state on it.
    """

    layer_widths: tuple[int, ...]
    seed: Seed = 0

    def __post_init__(self):
        check_types(self)
        widths = int_tuple(self.layer_widths, "layer widths")
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("layer_widths needs at least an input and an output width")
        if any(w <= 0 for w in widths):
            raise ValueError(f"layer widths must be positive, got {widths}")
        if widths[-1] < 2:
            raise ValueError("output layer needs at least 2 classes")
        # Per layer: (W start, b start, b end, W shape) in the flat vector.
        layout, start = [], 0
        for wi, wo in zip(widths[:-1], widths[1:]):
            layout.append((start, start + wi * wo, start + wi * wo + wo, (wi, wo)))
            start += wi * wo + wo
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "_n_params", start)

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def n_classes(self) -> int:
        return self.layer_widths[-1]


@dataclass(frozen=True)
class TrainHyperparams:
    learning_rate: float = 0.005
    batch_size: int = 32
    shuffle: bool = True

    def __post_init__(self):
        check_types(self)
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be non-negative, got {self.learning_rate!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size!r}")


@dataclass(frozen=True, eq=False)
class Learner:
    """One trainee: a classifier that learns from its teachers' labels.

    Training updates ``params`` in place. Two learners are equal only if they are the same object.
    """

    is_oracle: ClassVar[bool] = False

    id: int
    spec: ModelSpec
    params: np.ndarray
    # forward_stack outputs for one parameter state; see forward_stack.
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        check_types(self)


@dataclass(frozen=True, eq=False)
class Oracle:
    """The member holding a read-only copy of the training labels; it never trains."""

    is_oracle: ClassVar[bool] = True

    id: int
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_types(self)
        object.__setattr__(self, "labels", np.array(self.labels))
        self.labels.setflags(write=False)


def param_count(spec: ModelSpec) -> int:
    """Total parameters: sum of w_in * w_out + w_out over layers."""
    return spec._n_params


def unpack_params(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of a flat parameter vector as per-layer (W, b) pairs.

    Views share memory with ``params``; layer l holds W of shape
    (w_l, w_{l+1}) in row-major order, then b of shape (w_{l+1},).
    """
    if params.shape != (spec._n_params,):
        raise ValueError(
            f"expected flat vector of {spec._n_params} parameters, got shape {params.shape}"
        )
    return [
        (params[w_start:b_start].reshape(shape), params[b_start:b_end])
        for w_start, b_start, b_end, shape in spec._layout
    ]


def init_learner(spec: ModelSpec, id: int) -> Learner:
    """Create a learner with scaled-uniform initial parameters.

    Each layer's entries are drawn from U[-s, s] with
    s = sqrt(6 / (fan_in + fan_out)), from a stream keyed by
    (spec.seed, learner id), so re-initialization is reproducible and
    distinct ids get distinct draws.
    """
    init_rng = stream("params", spec.seed, id)
    params = np.empty(param_count(spec), dtype=np.float64)
    views = unpack_params(spec, params)
    for w, b in views:
        scale = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = init_rng.uniform(-scale, scale, size=w.shape)
        b[...] = init_rng.uniform(-scale, scale, size=b.shape)
    return Learner(id=id, spec=spec, params=params)


def _logits(layers: list[tuple[np.ndarray, np.ndarray]], X: np.ndarray) -> np.ndarray:
    """Forward pass of learners stacked over L: logits of shape (L, n, K).

    ``layers`` holds (L, w_in, w_out) weights and (L, 1, w_out) biases;
    ``np.matmul`` makes one gemm call per learner. ReLU runs in place.
    """
    a = X
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        a = np.matmul(a, w)
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a


def _class_sum(p: np.ndarray) -> np.ndarray:
    """Column sums of a class-major (K, M) array, added in numpy's row order.

    Below 8 classes numpy adds each row of the (M, K) transpose in sequence,
    as a reduction over axis 0 does; from 8 on it adds them pairwise, so
    numpy itself reduces a row-major copy of the transpose.
    """
    if len(p) < 8:
        return np.add.reduce(p, axis=0)
    return np.add.reduce(p.T.copy(), axis=1)


def _distributions(learners: Sequence[Learner], X: np.ndarray) -> np.ndarray:
    """Class distributions of learners sharing one spec, shape (L, n, K).

    One stacked pass: parameters are stacked to (L, P) and each layer is one
    ``np.matmul``. The softmax tail runs once on a class-major (K, L*n) copy
    of the logits, so the class max, and below 8 classes each class sum, is
    K-1 elementwise operations on long rows rather than L*n short reductions.
    """
    spec, n = learners[0].spec, len(X)
    params = np.stack([learner.params for learner in learners])
    layers = [
        (params[:, w_start:b_start].reshape(-1, *shape), params[:, None, b_start:b_end])
        for w_start, b_start, b_end, shape in spec._layout
    ]
    # Overflow is reported once, by the NonFiniteError below, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _logits(layers, X)
        # Copied first: the transposed view alone reshapes to rows of stride K,
        # and the reductions over axis 0 below would then run column by column.
        p = logits.transpose(2, 0, 1).copy().reshape(spec.n_classes, -1)
        finite = np.isfinite(p)
        if not finite.all():
            first = np.argmin(finite.reshape(len(p), len(learners), n).all(axis=(0, 2)))
            raise NonFiniteError(f"learner {learners[first].id} has non-finite logits in evaluation")
        p -= np.maximum.reduce(p, axis=0)
        np.exp(p, out=p)
        p /= _class_sum(p)
        np.maximum(p, PROB_FLOOR, out=p)
        p /= _class_sum(p)
        # Renormalization can nudge a floored entry below the floor again;
        # the final clamp restores it while moving the row sum by < K*floor.
        np.maximum(p, PROB_FLOOR, out=p)
    return p.reshape(len(p), len(learners), n).transpose(1, 2, 0).copy()


def _check_rows(X: np.ndarray, width: int) -> None:
    """Raise ValueError unless X is a matrix of rows of ``width`` features."""
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"expected rows of width {width}, got shape {X.shape}")


def forward_stack(learners: Sequence[Learner], X: np.ndarray) -> list[np.ndarray]:
    """Class distributions of each learner for every row of X, shape (n, K) each.

    Softmax of the final-layer logits, floored at PROB_FLOOR and
    renormalized, so every row is a valid distribution even when a
    logit gap underflows the softmax. The learners must share one layer
    layout; each result is bit-identical to evaluating its learner alone.

    A read-only X that owns its memory (a Dataset's X) is memoized per
    learner: a learner whose memo holds this X object, for the same
    parameter bytes, gets a copy of the remembered output. The other
    learners are computed in one stacked pass. Bytes, not values, key the
    memo: comparing them is an order of magnitude cheaper than
    ``np.array_equal`` on a small vector, and a vector equal by value but
    not by bits (a 0.0 turned -0.0) merely recomputes.

    Raises NonFiniteError naming the first computed learner, in list order,
    whose logits are NaN or infinite; its distributions would be scored as
    if valid.
    """
    X = np.asarray(X, dtype=np.float64)
    out: list = [None] * len(learners)
    if not learners:
        return out
    spec = learners[0].spec
    _check_rows(X, spec.input_dim)
    if any(learner.spec is not spec and learner.spec.layer_widths != spec.layer_widths for learner in learners):
        raise ValueError("stacked learners must share their layer widths")
    memoize = X.base is None and not X.flags.writeable
    stale = []
    for i, learner in enumerate(learners):
        if memoize:
            memo, key = learner._memo, learner.params.tobytes()
            if memo.get("params") != key:
                memo.clear()
                memo["params"] = key
            elif memo.get(id(X), (None,))[0] is X:
                out[i] = memo[id(X)][1].copy()
                continue
        stale.append(i)
    if stale:
        for i, p in zip(stale, _distributions([learners[i] for i in stale], X)):
            if memoize:
                learners[i]._memo[id(X)] = (X, p.copy())
            out[i] = p
    return out


def forward_batch(learner: Learner, X: np.ndarray) -> np.ndarray:
    """Class distributions for every row of X, shape (n, K).

    The one-learner case of :func:`forward_stack`, memo included: a repeated
    call with the same read-only X returns a copy of the remembered output.
    Raises NonFiniteError, naming the learner, if a logit is NaN or infinite.
    """
    return forward_stack([learner], X)[0]


def predict(learner: Learner, X: np.ndarray) -> np.ndarray:
    """Hard argmax labels for every row of X (ties -> lowest class index)."""
    return forward_batch(learner, X).argmax(axis=1)


def pseudolabels(teacher: Learner | Oracle, X: np.ndarray) -> np.ndarray:
    """The label vector this teacher supplies for the inputs X.

    A learner answers with its argmax predictions; the oracle with a
    writable copy of its labels, which must line up row-for-row with X.
    """
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        raise ValueError("pseudolabels need at least one input row")
    if teacher.is_oracle:
        if len(teacher.labels) != len(X):
            raise ValueError(f"{len(X)} rows but the oracle holds {len(teacher.labels)} labels")
        return teacher.labels.copy()
    return predict(teacher, X)


class _Step:
    """One SGD step over ``n`` rows of one layer layout: its buffers and views.

    Every intermediate has its own exactly sized buffer. ``bind`` points the
    step at one spec's (params, out) pair: the (W, b) views of each layer,
    their gradient views in ``out`` and the transposed weights.
    """

    def __init__(self, widths: tuple[int, ...], n: int):
        K = widths[-1]
        self.n = n
        # The divisor as a float64 scalar: numpy divides by it with less dispatch than by an int.
        self.rows = np.float64(n)
        self.hidden = [np.empty((n, w)) for w in widths[1:-1]]
        self.logits = np.empty((n, K))
        self.flat = self.logits.reshape(-1)
        self.class_major = np.empty((K, n))
        self.row_max = np.empty(n)
        self.row_max_column = self.row_max[:, None]
        self.exp = np.empty((n, K))
        self.sums = np.empty((n, 1))
        self.offsets = np.arange(0, n * K, K)
        self.picks = np.empty(n, dtype=np.int64)
        self.deltas = [np.empty((n, w)) for w in widths[1:-1]]
        self.signs = [np.empty((n, w)) for w in widths[1:-1]]

    def bind(self, spec: ModelSpec, params: np.ndarray, out: np.ndarray) -> None:
        layers, grads = unpack_params(spec, params), unpack_params(spec, out)
        self.spec, self.params, self.out, self.layers, self.grads = spec, params, out, layers, grads
        self.forward = [(w, b, z) for (w, b), z in zip(layers, self.hidden)]
        self.head = layers[-1]
        # Layers L-1 down to 1: their input activations (transposed for the
        # weight gradient), gradient views, transposed weights, and the delta
        # and ReLU-sign buffers of the layer below. Layer 0's input is X.
        self.backward = [
            (self.hidden[i - 1].T, *grads[i], layers[i][0].T, self.deltas[i - 1], self.signs[i - 1], self.hidden[i - 1])
            for i in range(len(layers) - 1, 0, -1)
        ]
        self.first = grads[0]


class _Scratch(threading.local):
    """One thread's SGD steps: ``steps`` by (layer widths, rows), and the ``last`` one run."""

    def __init__(self):
        self.steps: dict[tuple[tuple[int, ...], int], _Step] = {}
        self.last: _Step | None = None


_scratch = _Scratch()
# Steps a thread keeps; past this it drops them all, so a caller cycling
# through many batch sizes rebuilds buffers instead of growing without bound.
_MAX_STEPS = 8


def loss_and_gradient(
    spec: ModelSpec,
    params: np.ndarray,
    X: np.ndarray,
    labels: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. params.

    The gradient is exact backprop; the loss uses a numerically stable
    log-softmax so finite-difference checks agree to high precision.

    ``out``, if given, must be a C-contiguous float64 vector shaped like
    ``params`` (ValueError otherwise); the gradient is written into it,
    overwriting every entry, and it is returned in place of a fresh array.

    Every intermediate is written into a buffer sized for the batch. The
    calling thread keeps those buffers, one set per (layer widths, batch
    rows), and with each set the layer views of the last (spec, params, out)
    it ran, so a loop that passes the same arrays allocates nothing and
    reuses them across batches, epochs and learners. Each thread has its own
    buffers, so threads may train at once, even learners of one spec, as long
    as no two of them pass the same ``params`` or ``out``.

    ``X`` must be a matrix of at least one row of ``spec.input_dim`` columns,
    and ``labels`` are checked by ``check_labels`` (one per row of X, in
    [0, K)); both raise ValueError otherwise. They are checked whenever the
    call is not the thread's last (spec, params, out, rows): on every call
    without ``out``, and with it on the first call with a new pair or batch
    size, so once per ``train_epoch`` epoch, twice if its last batch is short
    (``train_epoch`` checks all of its rows and labels itself). Later calls
    with a remembered pair must pass such an X and an int64 label vector,
    which are not checked.
    """
    X = np.asarray(X, dtype=np.float64)
    step = _scratch.last
    if (
        step is None
        or out is not step.out
        or params is not step.params
        or spec is not step.spec
        or len(X) != step.n
        # An in-place reshape keeps the size, so a 1-D vector is still the right one.
        or params.ndim != 1
        or out.ndim != 1
    ):
        _check_rows(X, spec.input_dim)
        if not len(X):
            raise ValueError(f"a batch needs at least one row, got shape {X.shape}")
        if out is None:
            out = np.empty(spec._n_params)
        elif not (out.dtype == np.float64 and out.shape == (spec._n_params,) and out.flags.c_contiguous):
            raise ValueError(
                f"out must be a C-contiguous float64 flat vector of {spec._n_params} "
                f"parameters, got {out.dtype} of shape {out.shape}"
            )
        labels = check_labels(labels, spec.n_classes, len(X))
        key = (spec.layer_widths, len(X))
        steps = _scratch.steps
        step = steps.get(key)
        if step is None:
            if len(steps) >= _MAX_STEPS:
                steps.clear()
            step = steps[key] = _Step(*key)
        step.bind(spec, params, out)
        _scratch.last = step

    a = X
    for w, b, z in step.forward:
        np.dot(a, w, out=z)
        z += b
        # ReLU in place: backprop needs only where z > 0, and relu(z) > 0 there.
        np.maximum(z, 0.0, out=z)
        a = z
    w, b = step.head
    log_probs = step.logits
    np.dot(a, w, out=log_probs)
    log_probs += b

    # Stable log-softmax, computed in place over the logits. The row maxima
    # reduce a class-major copy along its first axis, which numpy vectorizes
    # across rows; a max is exact, so the order does not matter.
    step.class_major[...] = log_probs.T
    np.maximum.reduce(step.class_major, axis=0, out=step.row_max)
    log_probs -= step.row_max_column
    np.exp(log_probs, out=step.exp)
    np.add.reduce(step.exp, axis=1, keepdims=True, out=step.sums)
    np.log(step.sums, out=step.sums)
    log_probs -= step.sums
    # Each row's label as a flat position: 1-D take and subtract, not 2-D fancy indexing.
    picks, flat = step.picks, step.flat
    np.add(step.offsets, labels, out=picks)
    loss = float(-(np.add.reduce(flat.take(picks)) / step.rows))

    delta = np.exp(log_probs, out=log_probs)
    flat[picks] -= 1.0
    delta /= step.rows

    for a_t, gw, gb, w_t, below, sign, a in step.backward:
        np.dot(a_t, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        np.dot(delta, w_t, out=below)
        # Post-ReLU activations have sign exactly 0.0 or 1.0.
        np.sign(a, out=sign)
        below *= sign
        delta = below
    gw, gb = step.first
    np.dot(X.T, delta, out=gw)
    np.add.reduce(delta, axis=0, out=gb)
    return loss, step.out


def train_epoch(
    learner: Learner, X: np.ndarray, labels: np.ndarray, hp: TrainHyperparams, rng: np.random.Generator
) -> float:
    """One SGD epoch over (X, labels); mutates the learner's parameters.

    Returns the mean loss over the epoch's examples. When shuffling, batch
    order is one ``rng.permutation(n)`` draw; unshuffled, ``rng`` is not
    read. Raises NonFiniteError if the epoch leaves any parameter NaN or
    infinite (the learning rate diverged).
    """
    X = np.asarray(X, dtype=np.float64)
    _check_rows(X, learner.spec.input_dim)
    n = len(X)
    if n == 0:
        raise ValueError("training set is empty")
    labels = check_labels(labels, learner.spec.n_classes, n)
    if hp.batch_size > n:
        raise ValueError(f"batch_size {hp.batch_size} exceeds training-set size {n}")

    order = rng.permutation(n) if hp.shuffle else np.arange(n)
    # Rows of X are gathered per batch: a shuffled copy of all of X per
    # epoch would cost a full-size buffer on wide inputs.
    labels = labels[order]
    params, grad = learner.params, np.empty_like(learner.params)
    # A float64 scalar: numpy multiplies by it with less dispatch than by a Python float.
    rate = np.float64(hp.learning_rate)
    total = 0.0
    # Divergence is reported once, by the check below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, hp.batch_size):
            stop = start + hp.batch_size
            batch = X.take(order[start:stop], axis=0)
            loss, _ = loss_and_gradient(
                learner.spec, params, batch, labels[start:stop], out=grad
            )
            grad *= rate
            params -= grad
            total += loss * len(batch)
    if not np.isfinite(params).all():
        raise NonFiniteError(
            f"learner {learner.id} has non-finite parameters after training "
            f"at learning rate {hp.learning_rate:g}"
        )
    return total / n
