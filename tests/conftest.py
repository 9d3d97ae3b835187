from __future__ import annotations

import os
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from poolal.core import ClassPools, DatasetBundle, Split
from poolal.datafiles import read_dataset
from poolal.errors import ConfigurationError


def make_split(labels, prefix="s", feature_dim=2, rng=None):
    """A split with the given labels, ids ``{prefix}{row}``; features are small random vectors."""
    gen = rng or np.random.default_rng(0)
    return Split(
        gen.standard_normal((len(labels), feature_dim)), labels, [f"{prefix}{i}" for i in range(len(labels))]
    )


def record_payload(record):
    """A run record as its file holds it: ``asdict`` of every field but the terminal model."""
    payload = asdict(replace(record, terminal_model=None))
    del payload["terminal_model"]
    return payload


def outcome(data_dir: Path):
    """What ``read_dataset`` gives: the dataset hash and every split's columns, or the error's text."""
    try:
        bundle, dataset_hash, _ = read_dataset(data_dir)
    except ConfigurationError as e:
        return str(e)
    splits = (bundle.train, bundle.validation, bundle.test)
    return dataset_hash, [(s.X.tobytes(), s.y.tolist(), str(s.ids.dtype), s.ids.tolist()) for s in splits]


def pools_of(split, num_classes):
    """Pools holding every row of ``split``, each class's rows in split order."""
    return ClassPools(split, [np.flatnonzero(split.y == c) for c in range(num_classes)])


def assert_reaped(pids):
    """Each child in ``pids`` has been waited for: ``waitpid`` no longer knows it."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture()
def forked(monkeypatch):
    """The pids of the children ``os.fork`` starts during the test, in order."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def make_bundle(train_labels, val_labels, test_labels, num_classes, feature_dim=2, seed=0):
    gen = np.random.default_rng(seed)
    return DatasetBundle.build(
        [f"class_{i}" for i in range(num_classes)],
        make_split(train_labels, "tr", feature_dim, gen),
        make_split(val_labels, "va", feature_dim, gen),
        make_split(test_labels, "te", feature_dim, gen),
        feature_dim,
    )


@pytest.fixture(scope="session")
def cohort_scale_train():
    """A train collection with the reference cohort's per-class tile counts.

    346016 rows across 5 classes, labels in class order, zero features.
    """
    counts = [35105, 65920, 67007, 86978, 91006]
    total = sum(counts)
    labels = np.repeat(np.arange(len(counts)), counts)
    return Split(np.zeros((total, 1)), labels, np.char.mod("c%d", np.arange(total))), counts
