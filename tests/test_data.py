"""Unit tests for data generation, splitting, corruption and IDX I/O."""

from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from nkdiff import (
    STREAMS,
    BlobsSpec,
    CorruptionSpec,
    Dataset,
    IdxCountMismatchError,
    IdxFormatError,
    IdxMagicError,
    IdxSpec,
    IdxTruncatedError,
    Learner,
    ModelSpec,
    Oracle,
    TrainHyperparams,
    build_datasets,
    corrupt_labels,
    corruption_indices,
    gen_blobs,
    init_learner,
    init_population,
    load_idx,
    loss_and_gradient,
    pseudolabels,
    split_dataset,
    stream,
    train_epoch,
    write_idx,
)

from conftest import warmup_stream


# The tag each named stream's draws, and so every output byte, depend on, with
# a key of the shape its call site passes. Written out rather than read from
# STREAMS, so an edit of the table that moves a draw fails here.
PINNED_STREAMS = {
    "params": (0, (3,)),
    "warmup": (1, (3,)),
    "session": (2, (4, 3)),
    "policy": (3, (4,)),
    "select": (10, ()),
    "replace": (11, ()),
    "redraw": (12, ()),
}


class TestStreams:
    @pytest.mark.parametrize("name", sorted(STREAMS))
    @pytest.mark.parametrize("seed", [0, 97, 2**40])
    def test_each_named_stream_draws_from_its_pinned_tag(self, name, seed):
        tag, key = PINNED_STREAMS[name]
        expected = np.random.default_rng(np.random.SeedSequence((seed, tag, *key)))
        assert np.array_equal(stream(name, seed, *key).integers(0, 2**62, 16), expected.integers(0, 2**62, 16))

    def test_every_stream_is_pinned_and_no_two_tags_collide(self):
        assert set(STREAMS) == set(PINNED_STREAMS)
        assert len(set(STREAMS.values())) == len(STREAMS)


class TestDataset:
    def test_row_label_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(2, dtype=int), K=2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((3, 2)), y=np.array([0, 1, 2]), K=2)

    def test_features_that_are_not_a_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"^X must be 2-D, got shape \(3,\)$"):
            Dataset(X=np.zeros(3), y=np.array([0, 1, 0]), K=2)

    def test_one_class_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 classes$"):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(3, dtype=int), K=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.zeros((3, 2))
        X[1, 1] = bad
        with pytest.raises(ValueError, match="validation features hold NaN or infinite values"):
            Dataset(X=X, y=np.array([0, 1, 0]), K=2, split="validation")

    @pytest.mark.parametrize(
        "field, value", [("X", np.full((1, 2), np.nan)), ("y", np.array([7, -1, 0])), ("K", 1), ("split", "test")]
    )
    def test_fields_cannot_be_reassigned(self, field, value):
        ds = Dataset(X=np.zeros((3, 2)), y=np.array([0, 1, 0]), K=2)
        with pytest.raises(FrozenInstanceError):
            setattr(ds, field, value)


IDX_NAMES = {"train_images": "a", "train_labels": "b", "test_images": "c", "test_labels": "d"}
# Each spec field with a value of the wrong type: every one is a ValueError
# naming the field at construction, not a wrong experiment or a late TypeError.
SPEC_TYPE_FAULTS = [
    (CorruptionSpec, {"fraction": True}, "fraction"),
    (CorruptionSpec, {"fraction": "0.5"}, "fraction"),
    (CorruptionSpec, {"fraction": 0.5, "seed": 1.5}, "seed"),
    (CorruptionSpec, {"fraction": 0.5, "seed": np.True_}, "seed"),
    (BlobsSpec, {"n_per_class": 2.5}, "n_per_class"),
    (BlobsSpec, {"k": True}, "k"),
    (BlobsSpec, {"d": 4.0}, "d"),
    (BlobsSpec, {"seed": "7"}, "seed"),
    (BlobsSpec, {"centers_scale": False}, "centers_scale"),
    (BlobsSpec, {"noise_sigma": "1.5"}, "noise_sigma"),
    (BlobsSpec, {"train_frac": None}, "train_frac"),
    (BlobsSpec, {"val_frac": True}, "val_frac"),
    (IdxSpec, {**IDX_NAMES, "val_frac": "0.1"}, "val_frac"),
    (IdxSpec, {**IDX_NAMES, "seed": 7.0}, "seed"),
    (IdxSpec, {**IDX_NAMES, "test_labels": 3}, "test_labels"),
    (CorruptionSpec, {"fraction": 0.5, "seed": -3}, "seed"),
    (BlobsSpec, {"seed": -1}, "seed"),
    (IdxSpec, {**IDX_NAMES, "seed": -1}, "seed"),
    (BlobsSpec, {"n_per_class": 2**70}, "n_per_class"),
    (BlobsSpec, {"centers_scale": float("inf")}, "centers_scale"),
    (IdxSpec, {**IDX_NAMES, "val_frac": float("nan")}, "val_frac"),
    (TrainHyperparams, {"learning_rate": float("inf")}, "learning_rate"),
    (TrainHyperparams, {"batch_size": 2**63}, "batch_size"),
    (Dataset, {"X": np.zeros((3, 2)), "y": np.array([0, 1, 0]), "K": 3.0}, "K"),
    (Dataset, {"X": np.zeros((3, 2)), "y": np.array([0, 1, 0]), "K": 3, "split": 1}, "split"),
    (Oracle, {"id": 1.5, "labels": np.array([0, 1, 0])}, "id"),
    (Learner, {"id": 1.0, "spec": ModelSpec((4, 5, 3)), "params": np.zeros(43)}, "id"),
]


class TestSpecTypes:
    @pytest.mark.parametrize("spec, kwargs, field", SPEC_TYPE_FAULTS)
    def test_a_field_of_the_wrong_type_is_named(self, spec, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            spec(**kwargs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numpy_numbers_and_paths_are_accepted(self):
        assert BlobsSpec(n_per_class=np.int64(5), k=np.int32(3), centers_scale=np.float32(2), noise_sigma=1).k == 3
        assert CorruptionSpec(fraction=np.float64(0.5), seed=np.uint8(3)).seed == 3
        assert TrainHyperparams(learning_rate=np.float32(0.5), batch_size=np.int32(4)).batch_size == 4
        assert Dataset(X=np.zeros((3, 2)), y=np.array([0, 1, 0]), K=np.int64(2)).K == 2
        spec = IdxSpec(**{name: Path(f) for name, f in IDX_NAMES.items()}, val_frac=0, seed=np.int64(1))
        assert spec.seed == 1
        # Paths are stored as strings, as their str annotation says.
        assert [getattr(spec, name) for name in IDX_NAMES] == list(IDX_NAMES.values())

    def test_an_unknown_dataset_spec_is_a_type_error(self):
        with pytest.raises(TypeError, match="^unknown dataset spec object$"):
            build_datasets(object())


LABEL_X = np.random.default_rng(0).standard_normal((4, 3))
LABEL_SPEC = ModelSpec(layer_widths=(3, 5, 3), seed=2)


def _write_idx_labels(tmp_path, y):
    images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx(images, labels, np.zeros((4, 2, 2), dtype=np.uint8), y)
    return labels.read_bytes()


def _train_epoch(tmp_path, y):
    learner = init_learner(LABEL_SPEC, 0)
    loss = train_epoch(learner, LABEL_X, y, TrainHyperparams(0.1, 2), warmup_stream(LABEL_SPEC, 0))
    return loss, learner.params


# Every public entry point that takes a label vector for 4 rows at K=3 (K=10
# for IDX files), and what it makes of the labels.
LABEL_ENTRY_POINTS = {
    "Dataset": lambda tmp_path, y: Dataset(X=LABEL_X, y=y, K=3).y,
    "corrupt_labels": lambda tmp_path, y: corrupt_labels(y, CorruptionSpec(fraction=0.5, seed=1), K=3),
    "write_idx": _write_idx_labels,
    "train_epoch": _train_epoch,
    "loss_and_gradient": lambda tmp_path, y: loss_and_gradient(LABEL_SPEC, init_learner(LABEL_SPEC, 0).params, LABEL_X, y),
    "oracle": lambda tmp_path, y: pseudolabels(init_population(LABEL_SPEC, 2, y).oracle, LABEL_X),
}
GOOD_LABELS = np.array([0, 2, 1, 2], dtype=np.int64)
# 10 lies outside [0, K) for both K=3 and K=10.
BAD_LABELS = {
    "fractional": np.array([0.5, 2.0, 1.0, 2.0]),
    "nan": np.array([np.nan, 2.0, 1.0, 2.0]),
    "inf": np.array([np.inf, 2.0, 1.0, 2.0]),
    "wrong_length": np.array([0, 2, 1]),
    "matrix": np.array([[0, 2], [1, 2]]),
    "out_of_range": np.array([10, 2, 1, 2]),
    "negative": np.array([-1, 2, 1, 2]),
    "text": np.array(["0", "2", "1", "2"]),
}


def _identical(a, b) -> bool:
    """Equal bit for bit: arrays in dtype and values, tuples item by item."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_identical(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


class TestLabelContract:
    """One label check behind every entry point: no label is truncated or wrapped."""

    @pytest.mark.parametrize(
        "entry, bad",
        [(e, b) for e in LABEL_ENTRY_POINTS for b in BAD_LABELS if (e, b) != ("corrupt_labels", "wrong_length")],
    )
    def test_bad_labels_raise(self, tmp_path, entry, bad):
        with pytest.raises(ValueError):
            LABEL_ENTRY_POINTS[entry](tmp_path, BAD_LABELS[bad])

    @pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.uint8])
    def test_whole_floats_and_narrow_ints_match_int64(self, tmp_path, entry, dtype):
        expected = LABEL_ENTRY_POINTS[entry](tmp_path, GOOD_LABELS)
        got = LABEL_ENTRY_POINTS[entry](tmp_path, GOOD_LABELS.astype(dtype))
        assert _identical(got, expected)

    def test_idx_label_file_out_of_range_is_a_format_error(self, tmp_path):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        images.write_bytes(encode_images(2, 1, 1, [0, 0]))
        labels.write_bytes(encode_labels(2, [3, 12]))
        with pytest.raises(IdxFormatError, match=r"lab\.idx: labels must lie in \[0, 10\), found 12"):
            load_idx(images, labels)


class TestGenBlobs:
    def test_zero_noise_points_sit_on_centers(self):
        ds = gen_blobs(n_per_class=50, K=3, d=5, centers_scale=2.0, noise_sigma=0.0, seed=9)
        centers = {}
        for label in range(3):
            rows = ds.X[ds.y == label]
            assert np.all(rows == rows[0])
            centers[label] = rows[0]
        # nearest-center classification is exact
        stack = np.array([centers[k] for k in range(3)])
        for x, label in zip(ds.X, ds.y):
            nearest = np.argmin(np.sum((stack - x) ** 2, axis=1))
            assert nearest == label

    def test_deterministic_in_seed(self):
        a = gen_blobs(20, 3, 4, 1.0, 1.0, seed=3)
        b = gen_blobs(20, 3, 4, 1.0, 1.0, seed=3)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = gen_blobs(20, 3, 4, 1.0, 1.0, seed=4)
        assert not np.array_equal(a.X, c.X)

    def test_exact_class_counts(self):
        ds = gen_blobs(n_per_class=100, K=3, d=2, centers_scale=1.0, noise_sigma=1.0, seed=0)
        assert len(ds) == 300
        assert np.array_equal(np.bincount(ds.y), [100, 100, 100])

    def test_pool_is_named_blobs(self):
        # The pool is not a split yet; split_dataset names the splits it takes.
        assert gen_blobs(5, 2, 3, 1.0, 1.0, seed=0).split == "blobs"

    @pytest.mark.parametrize("kwargs", [
        {"n_per_class": 0, "K": 3, "d": 2},
        {"n_per_class": 10, "K": 1, "d": 2},
        {"n_per_class": 10, "K": 3, "d": 0},
        {"n_per_class": 10, "K": 3, "d": 2, "noise_sigma": -1.0},
    ])
    def test_invalid_sizes(self, kwargs):
        with pytest.raises(ValueError):
            gen_blobs(**{"centers_scale": 1.0, "noise_sigma": 1.0, **kwargs}, seed=0)


class TestSplitDataset:
    def test_sixty_twenty_twenty(self):
        ds = gen_blobs(50, 2, 3, 1.0, 1.0, seed=1)  # 100 rows
        train, val, test = split_dataset(ds, 0.6, 0.2, seed=0)
        assert (len(train), len(val), len(test)) == (60, 20, 20)
        assert (train.split, val.split, test.split) == ("train", "validation", "test")

    def test_partition_covers_all_rows(self):
        ds = gen_blobs(41, 3, 4, 1.0, 1.0, seed=2)
        train, val, test = split_dataset(ds, 0.5, 0.25, seed=5)
        combined = np.vstack([train.X, val.X, test.X])
        assert combined.shape == ds.X.shape
        # every original row appears exactly once
        order_orig = np.lexsort(ds.X.T)
        order_comb = np.lexsort(combined.T)
        assert np.array_equal(ds.X[order_orig], combined[order_comb])

    def test_deterministic(self):
        ds = gen_blobs(30, 2, 3, 1.0, 1.0, seed=8)
        a = split_dataset(ds, 0.6, 0.2, seed=1)
        b = split_dataset(ds, 0.6, 0.2, seed=1)
        for x, y in zip(a, b):
            assert np.array_equal(x.X, y.X)

    def test_degenerate_split_rejected(self):
        ds = gen_blobs(2, 2, 3, 1.0, 1.0, seed=0)  # 4 rows
        with pytest.raises(ValueError):
            split_dataset(ds, 0.8, 0.1, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, 0.5, 0.5, seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, -0.1, 0.5, seed=0)


class TestIdxCarveOut:
    @staticmethod
    def spec(tmp_path, n, val_frac, seed=3):
        # Every pixel of row i is i, so each row of X identifies its file row.
        paths = {}
        for part, rows in (("train", n), ("test", 4)):
            paths[f"{part}_images"] = str(tmp_path / f"{part}_images.idx")
            paths[f"{part}_labels"] = str(tmp_path / f"{part}_labels.idx")
            images = np.repeat(np.arange(rows, dtype=np.uint8), 4).reshape(rows, 2, 2)
            write_idx(paths[f"{part}_images"], paths[f"{part}_labels"], images, np.arange(rows) % 10)
        return IdxSpec(**paths, val_frac=val_frac, seed=seed)

    def test_validation_is_the_head_of_the_permutation(self, tmp_path):
        spec = self.spec(tmp_path, n=20, val_frac=0.25)
        full = load_idx(spec.train_images, spec.train_labels)
        train, val, test = build_datasets(spec)
        perm = np.random.default_rng(spec.seed).permutation(20)
        assert np.array_equal(val.X, full.X[perm[:5]]) and np.array_equal(val.y, full.y[perm[:5]])
        assert np.array_equal(train.X, full.X[perm[5:]]) and np.array_equal(train.y, full.y[perm[5:]])
        assert np.array_equal(test.X, load_idx(spec.test_images, spec.test_labels).X)
        assert (train.split, val.split, test.split) == ("train", "validation", "test")

    def test_each_split_is_built_once(self, tmp_path, monkeypatch):
        # Two files read and two splits carved out: the test set is named, not rebuilt.
        spec = self.spec(tmp_path, n=20, val_frac=0.25)
        built = []
        post_init = Dataset.__post_init__

        def counting(ds):
            built.append(ds)
            post_init(ds)

        monkeypatch.setattr(Dataset, "__post_init__", counting)
        train, val, test = build_datasets(spec)
        assert len(built) == 4
        assert (train.split, val.split, test.split) == ("train", "validation", "test")

    @pytest.mark.parametrize(
        "val_frac, sizes",
        [(0.01, "validation 0, train 20"), (0.99, "validation 20, train 0")],
        ids=["empty_validation", "empty_train"],
    )
    def test_empty_split_rejected_naming_both_sizes(self, tmp_path, val_frac, sizes):
        with pytest.raises(ValueError, match=f"20 rows: {sizes}$"):
            build_datasets(self.spec(tmp_path, n=20, val_frac=val_frac))


class TestCorruptLabels:
    def test_fraction_zero_is_identity(self):
        y = np.random.default_rng(0).integers(0, 5, size=200)
        out = corrupt_labels(y, CorruptionSpec(fraction=0.0, seed=1), K=5)
        assert np.array_equal(out, y)
        assert out is not y

    def test_selected_set_size_is_exact(self):
        idx = corruption_indices(1000, 0.4, seed=3)
        assert len(idx) == 400
        assert len(set(idx.tolist())) == 400

    def test_changes_confined_to_selected_set(self):
        y = np.random.default_rng(1).integers(0, 4, size=1000)
        spec = CorruptionSpec(fraction=0.4, seed=3)
        out = corrupt_labels(y, spec, K=4)
        assert np.array_equal(y, np.asarray(y))  # input untouched
        selected = set(corruption_indices(1000, 0.4, seed=3).tolist())
        changed = set(np.flatnonzero(out != y).tolist())
        assert changed <= selected
        assert len(changed) <= 400

    def test_full_random_agreement_near_chance(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 10, size=10000)
        rates = []
        for seed in range(25):
            out = corrupt_labels(y, CorruptionSpec(fraction=1.0, mode="full_random", seed=seed), K=10)
            rates.append(np.mean(out == y))
        assert abs(np.mean(rates) - 0.1) < 0.01

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            CorruptionSpec(fraction=1.5)
        with pytest.raises(ValueError):
            CorruptionSpec(fraction=-0.1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match=r"^mode must be one of \('uniform_replace', 'full_random'\), got 'swap'$"):
            CorruptionSpec(fraction=0.5, mode="swap")

    def test_index_fraction_out_of_range(self):
        with pytest.raises(ValueError, match=r"^fraction must lie in \[0, 1\], got 1.5$"):
            corruption_indices(10, 1.5, 0)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.999])
    def test_full_random_needs_fraction_one(self, fraction):
        # full_random ignores fraction and redraws every label; anything but 1.0 is a misuse.
        with pytest.raises(ValueError, match=r"'full_random'.*fraction must be 1\.0"):
            CorruptionSpec(fraction=fraction, mode="full_random")

    def test_invalid_labels_rejected(self):
        with pytest.raises(ValueError):
            corrupt_labels(np.array([0, 5]), CorruptionSpec(fraction=0.5, seed=0), K=3)

    def test_deterministic_in_seed(self):
        y = np.random.default_rng(2).integers(0, 3, size=500)
        spec = CorruptionSpec(fraction=0.3, seed=11)
        assert np.array_equal(corrupt_labels(y, spec, 3), corrupt_labels(y, spec, 3))


# How each fault damages a well-formed IDX file, and the error it raises.
IDX_FAULTS = {
    "no_magic": (lambda good: good[:3], IdxTruncatedError, "no room for a magic number"),
    "wrong_magic": (lambda good: b"\x00\x00\x08\x02" + good[4:], IdxMagicError, "magic 0x00000802"),
    "truncated_header": (lambda good: good[:6], IdxTruncatedError, "truncated header"),
    "truncated_payload": (lambda good: good[:-1], IdxTruncatedError, "bytes, found"),
}


def encode_images(n, rows, cols, pixels, magic=0x00000803):
    import struct

    return struct.pack(">IIII", magic, n, rows, cols) + bytes(pixels)


def encode_labels(n, labels, magic=0x00000801):
    import struct

    return struct.pack(">II", magic, n) + bytes(labels)


class TestIdx:
    def test_hand_encoded_pair(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(encode_images(2, 2, 2, [0, 51, 102, 153, 204, 255, 10, 20]))
        labels.write_bytes(encode_labels(2, [7, 3]))
        ds = load_idx(images, labels)
        assert ds.X.shape == (2, 4)
        assert ds.K == 10
        assert np.array_equal(ds.y, [7, 3])
        assert np.array_equal(ds.X[0], np.array([0, 51, 102, 153]) / 255.0)
        assert ds.X.max() <= 1.0

    def test_bad_image_magic(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(encode_images(1, 1, 1, [0], magic=0x00000804))
        labels.write_bytes(encode_labels(1, [0]))
        with pytest.raises(IdxMagicError):
            load_idx(images, labels)

    def test_bad_label_magic(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(encode_images(1, 1, 1, [0]))
        labels.write_bytes(encode_labels(1, [0], magic=0x00000803))
        with pytest.raises(IdxMagicError):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(encode_images(2, 1, 1, [0, 1]))
        labels.write_bytes(encode_labels(1, [0]))
        with pytest.raises(IdxCountMismatchError):
            load_idx(images, labels)

    def test_truncated_payload(self, tmp_path):
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(encode_images(3, 2, 2, [0] * 5))  # needs 12 bytes
        labels.write_bytes(encode_labels(3, [0, 1, 2]))
        with pytest.raises(IdxTruncatedError):
            load_idx(images, labels)

    @pytest.mark.parametrize("fault", IDX_FAULTS)
    @pytest.mark.parametrize("faulty", ["images", "labels"])
    def test_each_fault_names_its_file(self, tmp_path, faulty, fault):
        paths = {"images": tmp_path / "img.idx", "labels": tmp_path / "lab.idx"}
        paths["images"].write_bytes(encode_images(2, 2, 2, range(8)))
        paths["labels"].write_bytes(encode_labels(2, [7, 3]))
        damage, error, message = IDX_FAULTS[fault]
        paths[faulty].write_bytes(damage(paths[faulty].read_bytes()))
        with pytest.raises(error, match=message) as info:
            load_idx(paths["images"], paths["labels"])
        assert str(info.value).startswith(f"{paths[faulty]}: ")
        if fault == "truncated_payload":
            assert {"images": "pixel", "labels": "label"}[faulty] in str(info.value)

    def test_huge_declared_size_is_truncation(self, tmp_path):
        # 2**96 pixel bytes: an int64 product of the three u32 dimensions would wrap.
        images = tmp_path / "img.idx"
        labels = tmp_path / "lab.idx"
        images.write_bytes(encode_images(2**32 - 1, 2**32 - 1, 2**32 - 1, [0] * 8))
        labels.write_bytes(encode_labels(1, [0]))
        with pytest.raises(IdxTruncatedError, match=f"expected {(2**32 - 1) ** 3} pixel bytes, found 8"):
            load_idx(images, labels)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, size=(100, 3, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=100).astype(np.uint8)
        images_path = tmp_path / "img.idx"
        labels_path = tmp_path / "lab.idx"
        write_idx(images_path, labels_path, pixels, labels)
        ds = load_idx(images_path, labels_path)
        expected = pixels.reshape(100, 15).astype(np.float64) / 255.0
        assert np.array_equal(ds.X, expected)
        assert np.array_equal(ds.y, labels)

    def test_write_refuses_images_that_are_not_uint8(self, tmp_path):
        message = r"^images must be uint8 of shape \(n, rows, cols\), got float64 \(2, 3, 3\)$"
        with pytest.raises(ValueError, match=message):
            write_idx(tmp_path / "img.idx", tmp_path / "lab.idx", np.zeros((2, 3, 3)), np.array([0, 1]))
        assert not any(tmp_path.iterdir())
