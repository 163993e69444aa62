"""Training data: synthetic Gaussian blobs, IDX file I/O, label corruption.

All generators are pure functions of their seeds. Datasets are immutable once
built: their fields cannot be reassigned and their X and y arrays are made
read-only in place, so evaluated outputs can be memoized against them.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IDX_CLASSES = 10

CORRUPTION_MODES = ("uniform_replace", "full_random")

# Every named random stream and its tag: stream(name, seed, *key) keys its
# generator by (seed, tag, *key), so two names never replay each other.
# gen_blobs and _split are not named streams: they draw from a plain
# default_rng(seed).
STREAMS = {"params": 0, "warmup": 1, "session": 2, "policy": 3, "select": 10, "replace": 11, "redraw": 12}


def stream(name: str, seed: int, *key: int) -> np.random.Generator:
    """The generator of the named stream ``name`` keyed by ``seed`` and ``key``."""
    return np.random.default_rng(np.random.SeedSequence((seed, STREAMS[name], *key)))


Seed = int  # the annotation of every seed field: an int that must not be negative


def _is_int(value) -> bool:
    """Whether ``value`` is an integer an int64 holds, numpy's included, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool) and -(2**63) <= int(value) < 2**63


def _is_number(value) -> bool:
    """Whether ``value`` is a finite real number, numpy's included, and not a bool."""
    try:  # finiteness, not a comparison with the float range: np.float32 overflows in that
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# Each scalar kind a field annotation may name: its test and its name in an
# error. The library types check their fields by it, and the CLI its JSON values.
KINDS = {
    "int": (_is_int, "a 64-bit integer"),
    "Seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "float": (_is_number, "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def check_types(obj) -> None:
    """Raise ValueError naming the first field of the dataclass ``obj`` whose value is not of the
    KINDS kind its annotation names; fields of other annotations are left to their class."""
    # Every module here postpones annotations, so ``f.type`` is their text: none is resolved per call.
    for f in fields(obj):
        if f.type in KINDS and not KINDS[f.type][0](getattr(obj, f.name)):
            raise ValueError(f"{f.name} must be {KINDS[f.type][1]}, got {getattr(obj, f.name)!r}")


def int_tuple(value, name: str) -> tuple[int, ...]:
    """``value``, a tuple or list of 64-bit integers, as a tuple of ints; ValueError naming ``name`` otherwise."""
    if not isinstance(value, (tuple, list)) or not all(_is_int(v) for v in value):
        raise ValueError(f"{name} must be integers in a tuple or list, got {value!r}")
    return tuple(int(v) for v in value)


class IdxFormatError(ValueError):
    """Base class for IDX parse failures."""


class IdxMagicError(IdxFormatError):
    """File does not start with the expected magic number."""


class IdxTruncatedError(IdxFormatError):
    """File ended before the declared payload was read."""


class IdxCountMismatchError(IdxFormatError):
    """Image count and label count disagree."""


def check_labels(y, K: int, n: int | None = None) -> np.ndarray:
    """``y`` as an int64 vector of class labels in [0, K), not copied if it is one.

    Integer and boolean labels are accepted, floats only if all are whole
    numbers: nothing is truncated. Raises ValueError for a fractional, NaN or
    infinite value, another dtype, a shape other than (n,) (any vector when
    ``n`` is None), or a label outside [0, K).
    """
    y = np.asarray(y)
    if n is not None and y.shape != (n,):
        raise ValueError(f"{n} rows but labels of shape {y.shape}")
    if y.ndim != 1:
        raise ValueError(f"labels must be a vector, got shape {y.shape}")
    if y.dtype.kind == "f":
        fractional = ~(np.isfinite(y) & (np.floor(y) == y))
        if fractional.any():
            raise ValueError(f"labels must be whole numbers, found {y[fractional][0]}")
    elif y.dtype.kind not in "biu":
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    if len(y):
        low, high = y.min(), y.max()
        if low < 0 or high >= K:
            raise ValueError(f"labels must lie in [0, {K}), found {low if low < 0 else high}")
    return y.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X with integer labels y in [0, K)."""

    X: np.ndarray
    y: np.ndarray
    K: int
    split: str = "train"

    def __post_init__(self):
        check_types(self)
        object.__setattr__(self, "X", np.asarray(self.X, dtype=np.float64))
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        if self.K < 2:
            raise ValueError("need at least 2 classes")
        # The extremes are NaN or infinite exactly when some entry is; no mask is allocated.
        if self.X.size and not (np.isfinite(self.X.min()) and np.isfinite(self.X.max())):
            raise ValueError(f"{self.split} features hold NaN or infinite values")
        object.__setattr__(self, "y", check_labels(self.y, self.K, len(self.X)))
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def take(self, indices: np.ndarray, split: str) -> "Dataset":
        return Dataset(X=self.X[indices], y=self.y[indices], K=self.K, split=split)

    def with_labels(self, y: np.ndarray) -> "Dataset":
        return Dataset(X=self.X, y=y, K=self.K, split=self.split)


@dataclass(frozen=True)
class CorruptionSpec:
    """How to damage a label vector: replace a fraction, or redraw all (fraction 1.0)."""

    fraction: float
    mode: str = "uniform_replace"
    seed: Seed = 97

    def __post_init__(self):
        check_types(self)
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")
        if self.mode not in CORRUPTION_MODES:
            raise ValueError(f"mode must be one of {CORRUPTION_MODES}, got {self.mode!r}")
        if self.mode == "full_random" and self.fraction != 1.0:
            raise ValueError(f"mode 'full_random' redraws every label; fraction must be 1.0, got {self.fraction}")


def gen_blobs(
    n_per_class: int, K: int, d: int, centers_scale: float, noise_sigma: float, seed: int
) -> Dataset:
    """Isotropic Gaussian blobs: K classes, n_per_class points each.

    Centers are standard normal scaled by ``centers_scale``; points add
    N(0, noise_sigma^2 I) around their center. Rows come back shuffled,
    deterministically in ``seed``.
    """
    if K < 2:
        raise ValueError("need at least 2 classes")
    if d < 1:
        raise ValueError("need at least 1 feature dimension")
    if n_per_class < 1:
        raise ValueError("need at least 1 point per class")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(K, dtype=np.int64), n_per_class)
    # A huge scale overflows to inf (or NaN) silently here; Dataset rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        centers = centers_scale * rng.standard_normal((K, d))
        X = centers[y] + noise_sigma * rng.standard_normal((K * n_per_class, d))
    order = rng.permutation(len(y))
    return Dataset(X=X[order], y=y[order], K=K, split="blobs")


def _split(ds: Dataset, seed: int, **sizes: int) -> list[Dataset]:
    """Consecutive named slices of ``default_rng(seed).permutation(len(ds))``, none empty."""
    if min(sizes.values()) < 1:
        named = ", ".join(f"{name} {size}" for name, size in sizes.items())
        raise ValueError(f"degenerate split of {len(ds)} rows: {named}")
    order = np.random.default_rng(seed).permutation(len(ds))
    ends = np.cumsum(list(sizes.values()))[:-1]
    return [ds.take(part, name) for name, part in zip(sizes, np.split(order, ends))]


def split_dataset(
    ds: Dataset, train_frac: float, val_frac: float, seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint train/validation/test partition covering every row."""
    if train_frac <= 0 or val_frac <= 0:
        raise ValueError("split fractions must be positive")
    if train_frac + val_frac >= 1.0:
        raise ValueError("train_frac + val_frac must leave room for a test split")
    n = len(ds)
    n_train = round(n * train_frac)
    n_val = round(n * val_frac)
    return tuple(_split(ds, seed, train=n_train, validation=n_val, test=n - n_train - n_val))


def corruption_indices(n: int, fraction: float, seed: int) -> np.ndarray:
    """The exact floor(fraction * n) row indices selected for replacement."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    m = int(np.floor(fraction * n))
    return stream("select", seed).choice(n, size=m, replace=False)


def corrupt_labels(y: np.ndarray, spec: CorruptionSpec, K: int) -> np.ndarray:
    """Return a damaged copy of y; the input vector is never modified.

    ``uniform_replace`` redraws exactly floor(fraction * n) positions
    uniformly over all K classes (symmetric noise: a redraw may coincide
    with the original label). ``full_random`` redraws every position.
    """
    y = check_labels(y, K)
    if spec.mode == "full_random":
        return stream("redraw", spec.seed).integers(0, K, size=len(y), dtype=np.int64)
    idx = corruption_indices(len(y), spec.fraction, spec.seed)
    out = y.copy()
    out[idx] = stream("replace", spec.seed).integers(0, K, size=len(idx), dtype=np.int64)
    return out


def _read_idx(path, magic: int) -> tuple[tuple[int, ...], bytes]:
    """The dimensions and payload bytes of the IDX file at ``path``.

    The file must start with ``magic``, whose low byte is the number of u32
    dimensions that follow; the payload is their product of bytes, and any
    bytes after it are ignored.
    """
    ndim = magic & 0xFF
    with open(path, "rb") as f:
        header = f.read(4 + 4 * ndim)
        if len(header) < 4:
            raise IdxTruncatedError(f"{path}: no room for a magic number")
        (found,) = struct.unpack(">I", header[:4])
        if found != magic:
            raise IdxMagicError(f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}")
        if len(header) < 4 + 4 * ndim:
            raise IdxTruncatedError(f"{path}: truncated header")
        dims = struct.unpack(f">{ndim}I", header[4:])
        payload = f.read()
    # Python integers: three u32 dimensions can overflow an int64 product.
    size = math.prod(dims)
    if len(payload) < size:
        unit = "pixel" if magic == IDX_IMAGES_MAGIC else "label"
        raise IdxTruncatedError(f"{path}: expected {size} {unit} bytes, found {len(payload)}")
    return dims, payload[:size]


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label file pair into a flat-feature Dataset.

    Pixels are scaled to [0, 1]; labels are taken verbatim with K = 10.
    """
    return Dataset(*_idx_arrays(images_path, labels_path), K=IDX_CLASSES)


def _idx_arrays(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """The (features, labels) arrays :func:`load_idx` builds its Dataset from."""
    (n_images, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC)
    (n_labels,), label_bytes = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if n_images != n_labels:
        raise IdxCountMismatchError(f"{n_images} images but {n_labels} labels")
    try:
        labels = check_labels(np.frombuffer(label_bytes, dtype=np.uint8), IDX_CLASSES)
    except ValueError as exc:
        raise IdxFormatError(f"{labels_path}: {exc}") from None
    X = np.frombuffer(pixels, dtype=np.uint8).reshape(n_images, rows * cols).astype(np.float64)
    X /= 255.0
    return X, labels


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write uint8 images of shape (n, rows, cols) and labels as IDX files."""
    images = np.asarray(images)
    if images.ndim != 3 or images.dtype != np.uint8:
        raise ValueError(f"images must be uint8 of shape (n, rows, cols), got {images.dtype} {images.shape}")
    labels = check_labels(labels, IDX_CLASSES, len(images)).astype(np.uint8)
    files = ((images_path, IDX_IMAGES_MAGIC, images), (labels_path, IDX_LABELS_MAGIC, labels))
    for path, magic, a in files:
        with open(path, "wb") as f:
            f.write(struct.pack(f">{1 + a.ndim}I", magic, *a.shape))
            f.write(a.tobytes())


@dataclass(frozen=True)
class BlobsSpec:
    """Config for a blobs-backed experiment dataset."""

    n_per_class: int = 334
    k: int = 3
    d: int = 10
    centers_scale: float = 1.0
    noise_sigma: float = 1.5
    seed: Seed = 7
    train_frac: float = 0.6
    val_frac: float = 0.2

    def __post_init__(self):
        check_types(self)


@dataclass(frozen=True)
class IdxSpec:
    """Config for an IDX-backed experiment dataset.

    Validation is carved out of the training files; the test files are
    used as-is. A path given as an ``os.PathLike`` is stored as its string.
    """

    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    val_frac: float = 0.1
    seed: Seed = 7

    def __post_init__(self):
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            if isinstance(getattr(self, name), os.PathLike):
                object.__setattr__(self, name, os.fspath(getattr(self, name)))
        check_types(self)


def build_datasets(spec) -> tuple[Dataset, Dataset, Dataset]:
    """Materialize (train, validation, test) from a dataset config."""
    if isinstance(spec, BlobsSpec):
        pool = gen_blobs(
            n_per_class=spec.n_per_class,
            K=spec.k,
            d=spec.d,
            centers_scale=spec.centers_scale,
            noise_sigma=spec.noise_sigma,
            seed=spec.seed,
        )
        return split_dataset(pool, spec.train_frac, spec.val_frac, seed=spec.seed)
    if isinstance(spec, IdxSpec):
        full_train = load_idx(spec.train_images, spec.train_labels)
        test = Dataset(*_idx_arrays(spec.test_images, spec.test_labels), K=IDX_CLASSES, split="test")
        n_val = round(len(full_train) * spec.val_frac)
        val, train = _split(full_train, spec.seed, validation=n_val, train=len(full_train) - n_val)
        return train, val, test
    raise TypeError(f"unknown dataset spec {type(spec).__name__}")
