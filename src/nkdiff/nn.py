"""Dense feed-forward classifiers: the population members.

Every model in a population shares one :class:`ModelSpec` (an MLP with ReLU
hidden layers and a softmax head). Parameters live in a single flat float64
vector so learners can be hashed, copied and compared bit-for-bit. Training
is plain mini-batch SGD on cross-entropy with analytic backprop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Positivity floor applied to output distributions; keeps log-domain
# ensemble voting defined when a softmax underflows to 0.
PROB_FLOOR = 1e-12

# Sub-stream tags so parameter draws and shuffle draws never collide.
_PARAMS_STREAM = 0
_TRAIN_STREAM = 1


class OracleUpdateError(RuntimeError):
    """A training operation targeted the label-holding oracle."""


class NonFiniteError(ArithmeticError):
    """Training left a learner with NaN or infinite parameters."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture shared by a whole population.

    ``layer_widths`` is (input dim, hidden dims..., class count). ``seed``
    keys parameter initialization: identical (spec, learner id) pairs yield
    bit-identical parameter vectors.
    """

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("layer_widths needs at least an input and an output width")
        if any(w <= 0 for w in widths):
            raise ValueError(f"layer widths must be positive, got {widths}")
        if widths[-1] < 2:
            raise ValueError("output layer needs at least 2 classes")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
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


@dataclass
class TrainHyperparams:
    learning_rate: float
    batch_size: int
    shuffle: bool = True

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be a non-negative real")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")


@dataclass
class SessionStats:
    """What one training epoch cost and achieved."""

    mean_loss: float
    forward_ops: int


@dataclass
class Learner:
    """One classifier in the population.

    The oracle variant never trains; it answers label queries from
    ``held_labels`` (the label vector it owns for the training inputs)
    instead of running its network.
    """

    id: int
    spec: ModelSpec
    params: np.ndarray
    rng: np.random.Generator
    is_oracle: bool = False
    held_labels: np.ndarray | None = field(default=None, repr=False)
    # forward_batch outputs for one (spec, params) state; see forward_batch.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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


def init_learner(
    spec: ModelSpec,
    id: int,
    is_oracle: bool = False,
    held_labels: np.ndarray | None = None,
) -> Learner:
    """Create a learner with scaled-uniform initial parameters.

    Each layer's entries are drawn from U[-s, s] with
    s = sqrt(6 / (fan_in + fan_out)), from a stream keyed by
    (spec.seed, learner id), so re-initialization is reproducible and
    distinct ids get distinct draws.
    """
    init_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _PARAMS_STREAM, id)))
    params = np.empty(param_count(spec), dtype=np.float64)
    views = unpack_params(spec, params)
    for w, b in views:
        scale = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = init_rng.uniform(-scale, scale, size=w.shape)
        b[...] = init_rng.uniform(-scale, scale, size=b.shape)
    train_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _TRAIN_STREAM, id)))
    labels = None
    if held_labels is not None:
        labels = np.asarray(held_labels, dtype=np.int64).copy()
    return Learner(
        id=id,
        spec=spec,
        params=params,
        rng=train_rng,
        is_oracle=is_oracle,
        held_labels=labels,
    )


def _activations(layers: list[tuple[np.ndarray, np.ndarray]], X: np.ndarray) -> list[np.ndarray]:
    """Forward pass: [X, hidden activations..., logits], all but X fresh arrays.

    ReLU runs in place: backprop needs only where z > 0, and relu(z) > 0 there.
    Products use ``np.dot``: the same gemm as ``@`` with less dispatch.
    """
    acts = [X]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        a = np.dot(acts[-1], w)
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def _row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-D array as an (n, 1) column.

    Reduces a contiguous transposed copy along its first axis, which numpy
    vectorizes across rows; a max is exact, so the order does not matter.
    """
    return np.maximum.reduce(a.T.copy(), axis=0)[:, None]


def forward_batch(learner: Learner, X: np.ndarray) -> np.ndarray:
    """Class distributions for every row of X, shape (n, K).

    Softmax of the final-layer logits, floored at PROB_FLOOR and
    renormalized, so every row is a valid distribution even when a
    logit gap underflows the softmax.

    A read-only X that owns its memory (a Dataset's X) is memoized: a repeated
    call with the same X object, the same spec object and parameters equal
    by ``np.array_equal`` returns a copy of the remembered output.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != learner.spec.input_dim:
        raise ValueError(
            f"expected rows of width {learner.spec.input_dim}, got shape {X.shape}"
        )
    memo = learner._memo if X.base is None and not X.flags.writeable else None
    if memo is not None:
        if memo.get("spec") is not learner.spec or not np.array_equal(memo["params"], learner.params):
            learner._memo = memo = {"spec": learner.spec, "params": learner.params.copy()}
        elif memo.get(id(X), (None,))[0] is X:
            return memo[id(X)][1].copy()
    p = _activations(unpack_params(learner.spec, learner.params), X)[-1]
    p -= _row_max(p)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=1, keepdims=True)
    np.maximum(p, PROB_FLOOR, out=p)
    p /= np.add.reduce(p, axis=1, keepdims=True)
    # Renormalization can nudge a floored entry below the floor again;
    # the final clamp restores it while moving the row sum by < K*floor.
    np.maximum(p, PROB_FLOOR, out=p)
    if memo is not None:
        memo[id(X)] = (X, p.copy())
    return p


def forward(learner: Learner, x: np.ndarray) -> np.ndarray:
    """Class distribution for a single feature vector, shape (K,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (learner.spec.input_dim,):
        raise ValueError(
            f"expected a vector of width {learner.spec.input_dim}, got shape {x.shape}"
        )
    return forward_batch(learner, x[None, :])[0]


def predict(learner: Learner, X: np.ndarray) -> np.ndarray:
    """Hard argmax labels for every row of X (ties -> lowest class index)."""
    return np.argmax(forward_batch(learner, X), axis=1)


def pseudolabels(teacher: Learner, X: np.ndarray) -> np.ndarray:
    """The label vector this teacher supplies for the inputs X.

    A regular teacher answers with its argmax predictions; the oracle
    answers from its held label vector, which must line up row-for-row
    with X.
    """
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        raise ValueError("pseudolabels need at least one input row")
    if teacher.is_oracle:
        if teacher.held_labels is None:
            raise ValueError("oracle has no label store attached")
        if len(teacher.held_labels) != len(X):
            raise ValueError(
                f"oracle holds {len(teacher.held_labels)} labels "
                f"but was queried with {len(X)} rows"
            )
        return teacher.held_labels.copy()
    return predict(teacher, X)


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

    ``out``, if given, is a float64 vector shaped like ``params``; the
    gradient is written into it, overwriting every entry, and it is returned
    in place of a fresh array. Labels must lie in [0, K).
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    layers = unpack_params(spec, params)
    acts = _activations(layers, X)

    # Stable log-softmax, computed in place over the logits.
    log_probs = acts.pop()
    log_probs -= _row_max(log_probs)
    log_probs -= np.log(np.add.reduce(np.exp(log_probs), axis=1, keepdims=True))
    n = len(X)
    rows = np.arange(n)
    loss = float(-(np.add.reduce(log_probs[rows, labels]) / n))

    delta = np.exp(log_probs, out=log_probs)
    delta[rows, labels] -= 1.0
    delta /= n

    grad = np.empty_like(params) if out is None else out
    grads = unpack_params(spec, grad)
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.dot(acts[i].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            delta = np.dot(delta, layers[i][0].T)
            delta *= acts[i] > 0.0
    return loss, grad


def train_epoch(
    learner: Learner, X: np.ndarray, labels: np.ndarray, hp: TrainHyperparams
) -> SessionStats:
    """One SGD epoch over (X, labels); mutates the learner's parameters.

    Batch order comes from the learner's own rng stream when shuffling,
    so sessions on distinct learners are order-independent. Forward-op
    count is one unit per training example. Raises NonFiniteError if the
    epoch leaves any parameter NaN or infinite (the learning rate diverged).
    """
    if learner.is_oracle:
        raise OracleUpdateError("the oracle never updates its parameters")
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(X)
    if n == 0:
        raise ValueError("training set is empty")
    if len(labels) != n:
        raise ValueError(f"{n} rows but {len(labels)} labels")
    if hp.batch_size > n:
        raise ValueError(f"batch_size {hp.batch_size} exceeds training-set size {n}")
    if labels.min() < 0 or labels.max() >= learner.spec.n_classes:
        raise ValueError(f"labels must lie in [0, {learner.spec.n_classes})")

    order = learner.rng.permutation(n) if hp.shuffle else np.arange(n)
    # Rows of X are gathered per batch: a shuffled copy of all of X per
    # epoch would cost a full-size buffer on wide inputs.
    labels = labels[order]
    grad = np.empty_like(learner.params)
    total = 0.0
    # Divergence is reported once, by the check below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, hp.batch_size):
            stop = start + hp.batch_size
            batch = X.take(order[start:stop], axis=0)
            loss, _ = loss_and_gradient(
                learner.spec, learner.params, batch, labels[start:stop], out=grad
            )
            grad *= hp.learning_rate
            learner.params -= grad
            total += loss * len(batch)
    if not np.isfinite(learner.params).all():
        raise NonFiniteError(
            f"learner {learner.id} has non-finite parameters after training "
            f"at learning rate {hp.learning_rate:g}"
        )
    return SessionStats(mean_loss=total / n, forward_ops=n)
