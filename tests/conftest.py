"""Shared fixtures: small deterministic datasets and learners."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nkdiff import Dataset, ModelSpec, TrainHyperparams, gen_blobs, init_learner, stream


@pytest.fixture
def small_spec():
    return ModelSpec(layer_widths=(4, 5, 3), seed=11)


@pytest.fixture
def small_blobs():
    return gen_blobs(n_per_class=40, K=3, d=4, centers_scale=2.0, noise_sigma=0.5, seed=5)


@pytest.fixture
def hp():
    return TrainHyperparams(learning_rate=0.1, batch_size=16)


def balanced_dataset(K: int, per_class: int, d: int, seed: int = 0) -> Dataset:
    """Labels 0..K-1 each appearing per_class times, random features."""
    rng = np.random.default_rng(seed)
    y = np.tile(np.arange(K), per_class)
    X = rng.normal(size=(len(y), d))
    return Dataset(X=X, y=y, K=K)


def warmup_stream(spec: ModelSpec, id: int) -> np.random.Generator:
    """A fresh "warmup" stream keyed (spec.seed, id), as warm-up keys trainee id's."""
    return stream("warmup", spec.seed, id)


def zeroed(learner):
    learner.params[:] = 0.0
    return learner


@pytest.fixture
def zero_learner(small_spec):
    return zeroed(init_learner(small_spec, 0))


ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    """The script ``tools/<name>.py`` of this checkout, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
