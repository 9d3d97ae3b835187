"""Domain types, dataset handling, pool mechanics, seeded randomness, and :func:`fork_map`.

Data is columnar: each :class:`Split` is a read-only ``n x d`` float64
feature matrix ``X``, int64 labels ``y`` and ``ids``, row ``i`` being one
sample. The growing training set and the per-class pools of not-yet-drawn
samples are int64 row-index arrays into ``bundle.train``; the learner gathers
the rows it trains on. The types here own that bookkeeping and the
determinism guarantees the sweep runner relies on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import warnings
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, PoolalError

__all__ = [
    "Split",
    "DatasetBundle",
    "ClassPools",
    "TrainingSet",
    "RandomSource",
    "split_initial",
    "class_balance",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Split:
    """One split as columns: row ``i`` is sample ``ids[i]`` with features ``X[i]`` and label ``y[i]``.

    The arrays are coerced to C-contiguous float64 / int64 / str and exposed read-only.
    No id holds a NUL: the str coercion would drop a trailing one.
    """

    X: np.ndarray
    y: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        ids = self.ids.tolist() if isinstance(self.ids, np.ndarray) else self.ids
        if "\x00" in "".join(ids):
            bad = next(i for i in ids if "\x00" in i)
            raise ConfigurationError(f"sample id {bad!r} holds a NUL character")
        object.__setattr__(self, "X", _read_only(np.ascontiguousarray(self.X, dtype=np.float64)))
        object.__setattr__(self, "y", _read_only(np.asarray(self.y, dtype=np.int64)))
        object.__setattr__(self, "ids", _read_only(np.asarray(self.ids, dtype=str)))

    def __len__(self) -> int:
        return len(self.y)

    def id_of(self, row: int) -> str:
        return str(self.ids[row])


@dataclass(frozen=True)
class DatasetBundle:
    """Immutable train/validation/test splits plus the class names.

    Label ``i`` is class ``class_names[i]``. Splits are disjoint by sample id;
    every label is a registered class; validation and test are non-empty.
    No sample id or class name holds a line break (``\n`` or ``\r``): the
    dataset CSVs hold one row per line.
    Safe to share read-only across concurrently executing runs.
    """

    class_names: tuple[str, ...]
    train: Split
    validation: Split
    test: Split
    feature_dim: int

    @classmethod
    def build(
        cls,
        class_names: Sequence[str],
        train: Split,
        validation: Split,
        test: Split,
        feature_dim: int,
    ) -> "DatasetBundle":
        """Validate and assemble a bundle; raises ConfigurationError on bad input."""
        class_names = tuple(class_names)
        if len(class_names) < 2:
            raise ConfigurationError(f"need at least 2 classes, got {len(class_names)}")
        if len(set(class_names)) < len(class_names):
            raise ConfigurationError(f"class names must be distinct, got {list(class_names)}")
        for name in class_names:
            if "\n" in name or "\r" in name:
                raise ConfigurationError(f"class name {name!r} holds a line break")
        if feature_dim < 1:
            raise ConfigurationError(f"feature_dim must be >= 1, got {feature_dim}")

        splits = (("train", train), ("validation", validation), ("test", test))
        for split_name, split in splits:
            X, y = split.X, split.y
            if X.ndim != 2 or X.shape[1] != feature_dim or not len(X) == len(y) == len(split.ids):
                raise ConfigurationError(f"{split_name}: {X.shape} features, {len(y)} labels, {len(split.ids)} ids")
            nonfinite = ~np.isfinite(X).all(axis=1)
            if nonfinite.any():
                row = int(np.argmax(nonfinite))
                raise ConfigurationError(f"{split_name}: sample {split.id_of(row)!r} has non-finite features")
            unregistered = (y < 0) | (y >= len(class_names))
            if unregistered.any():
                row = int(np.argmax(unregistered))
                raise ConfigurationError(f"{split_name}: sample {split.id_of(row)!r} has unregistered label {y[row]}")
            line_break = (np.char.find(split.ids, "\n") >= 0) | (np.char.find(split.ids, "\r") >= 0)
            if line_break.any():
                row = int(np.argmax(line_break))
                raise ConfigurationError(f"{split_name}: sample id {split.id_of(row)!r} holds a line break")

        ids = np.concatenate([split.ids for _, split in splits])
        _, first = np.unique(ids, return_index=True)
        if len(first) < len(ids):
            repeat = np.ones(len(ids), dtype=bool)
            repeat[first] = False
            k = int(np.argmax(repeat))
            j = int(np.argmax(ids == ids[k]))
            owner = np.repeat([name for name, _ in splits], [len(split) for _, split in splits])
            raise ConfigurationError(f"sample id {str(ids[k])!r} appears in both {owner[j]} and {owner[k]}")
        if not (len(validation) and len(test)):
            raise ConfigurationError("the validation and test splits must not be empty")
        return cls(class_names=class_names, train=train, validation=validation, test=test, feature_dim=feature_dim)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def split_counts(self, split: Split) -> list[int]:
        """Per-class sample counts of one split."""
        return np.bincount(split.y, minlength=self.num_classes).tolist()


def _key_to_int(key: int | str) -> int:
    """Map a derivation key to a stable 64-bit integer (platform independent)."""
    if isinstance(key, int):
        return key
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class RandomSource:
    """Seeded, derivable randomness.

    Wraps numpy's PCG64 behind a (seed, key-path) pair so that identical
    seeds give identical draw streams across runs and platforms, and so the
    engine can hand each iteration an independent stream derived from
    (seed, iteration) without perturbing the others.
    """

    seed: int
    key: tuple[int, ...] = ()

    def derive(self, *subkeys: int | str) -> "RandomSource":
        """Child source for a sub-task; same (seed, path) always yields the same stream."""
        return RandomSource(self.seed, self.key + tuple(_key_to_int(k) for k in subkeys))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this source's stream."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.key))


class ClassPools:
    """Per-class reservoirs of ``split`` rows not yet in the training set.

    Each pool is an int64 row-index array. Pool order is randomized once when
    the pools are built (see :func:`split_initial`); draws take the front of
    the array, so consecutive draws are uniform without replacement.
    """

    def __init__(self, split: Split, per_class: Sequence[Sequence[int]]):
        self.split = split
        self._pools: list[np.ndarray] = [np.asarray(p, dtype=np.int64) for p in per_class]
        for i, pool in enumerate(self._pools):
            stray = split.y[pool] != i
            if stray.any():
                row = int(pool[np.argmax(stray)])
                raise ConfigurationError(f"pool {i} contains sample {split.id_of(row)!r} with label {split.y[row]}")

    @property
    def num_classes(self) -> int:
        return len(self._pools)

    def remaining_counts(self) -> list[int]:
        return [len(p) for p in self._pools]

    def rows(self) -> np.ndarray:
        """Every pooled row, class by class, each pool front to back."""
        return np.concatenate(self._pools)

    def draw(self, class_index: int, n: int) -> np.ndarray:
        """Remove and return up to ``n`` rows from the front of one class pool.

        Returns fewer than ``n`` when the pool runs short.
        """
        if not 0 <= class_index < len(self._pools):
            raise ConfigurationError(f"unknown class index {class_index} (have {len(self._pools)} pools)")
        if n < 0:
            raise ConfigurationError(f"draw count must be >= 0, got {n}")
        pool = self._pools[class_index]
        self._pools[class_index] = pool[n:]
        return pool[:n]

    def give_back(self, rows: Iterable[int]) -> None:
        """Append previously drawn rows to the back of their class pools, in the order given."""
        rows = np.asarray(rows, dtype=np.int64)
        labels = self.split.y[rows]
        for i, pool in enumerate(self._pools):
            self._pools[i] = np.concatenate([pool, rows[labels == i]])


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """The ``split`` rows the learner trains on at iteration ``iteration``, in append order."""

    split: Split
    rows: np.ndarray
    counts: list[int]
    iteration: int

    @classmethod
    def from_rows(cls, split: Split, rows: Sequence[int], num_classes: int, iteration: int = 0) -> "TrainingSet":
        """Training set of the given rows, none repeated: ``engine._check_append`` vouches for each append."""
        rows = _read_only(np.asarray(rows, dtype=np.int64))
        counts = np.bincount(split.y[rows], minlength=num_classes).tolist()
        return cls(split=split, rows=rows, counts=counts, iteration=iteration)

    @property
    def size(self) -> int:
        return len(self.rows)

    def extended(self, new_rows: Sequence[int]) -> "TrainingSet":
        """``new_rows`` appended, the iteration bumped; ``engine._check_append`` refuses a repeated row first."""
        rows = np.concatenate([self.rows, np.asarray(new_rows, dtype=np.int64)])
        return TrainingSet.from_rows(self.split, rows, len(self.counts), self.iteration + 1)


def split_initial(
    train: Split,
    num_classes: int,
    per_class_initial: int,
    rng: RandomSource,
) -> tuple[TrainingSet, ClassPools]:
    """Split the train collection into an initial subset and per-class pools.

    Takes ``min(per_class_initial, available)`` uniformly-random rows per
    class into the initial training set; everything else lands in that
    class's pool, pre-shuffled so later front-of-pool draws stay uniform.
    Classes with fewer than ``per_class_initial`` rows contribute all they
    have (a warning is emitted).
    """
    if not len(train):
        raise ConfigurationError("cannot split an empty train collection")

    gen = rng.generator()
    initial: list[np.ndarray] = []
    pools: list[np.ndarray] = []
    for i in range(num_classes):
        group = np.flatnonzero(train.y == i)
        if 0 < len(group) < per_class_initial:
            warnings.warn(
                f"class {i} has only {len(group)} train samples, fewer than "
                f"per_class_initial={per_class_initial}; taking all of them",
                stacklevel=2,
            )
        shuffled = group[gen.permutation(len(group))]
        initial.append(shuffled[:per_class_initial])
        pools.append(shuffled[per_class_initial:])

    return TrainingSet.from_rows(train, np.concatenate(initial), num_classes), ClassPools(train, pools)


def class_balance(ts: TrainingSet) -> np.ndarray:
    """Relative class balance of a non-empty training set: fraction per class, sums to 1."""
    return np.asarray(ts.counts, dtype=float) / ts.size


def fork_map(fn: Callable, tasks: Sequence, died: Callable[[Any, str], Exception]) -> list:
    """``[fn(task) for task in tasks]`` for one or more tasks, each but the last run in a forked child.

    A child shares this process's memory, so no task is pickled; it pickles
    its result into a pipe and leaves through ``os._exit``, flushing no buffer
    it inherited. Its ``PoolalError`` is raised here as is, an ``OSError`` as a
    ``ChildProcessError`` and any other failure as a ``RuntimeError``, and its
    end without a result as ``died(task, why)``. The first failure in task
    order is raised once every child is reaped; an interrupt kills them first.
    POSIX only; Python 3.12 and later warn on ``fork`` when BLAS threads are live.
    """
    outcomes: list = [None] * len(tasks)  # (True, result) or (False, the exception to raise), in task order
    children: dict[int, BinaryIO] = {}  # pid -> the read end of its pipe, for each child not yet reaped
    try:
        for task in tasks[:-1]:
            read_end, write_end = os.pipe()
            if (pid := os.fork()) == 0:  # the child never returns from here
                try:
                    try:
                        reply = pickle.dumps((True, fn(task)))
                    except PoolalError as e:
                        reply = pickle.dumps((False, e))
                    except OSError as e:
                        reply = pickle.dumps((False, ChildProcessError(str(e))))
                    except Exception as e:  # a fault, an unpicklable result among them: exit 1, as in this process
                        reply = pickle.dumps((False, RuntimeError(f"{type(e).__name__}: {e}")))
                    with os.fdopen(write_end, "wb") as pipe:
                        pipe.write(reply)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            children[pid] = os.fdopen(read_end, "rb")
        try:
            outcomes[-1] = (True, fn(tasks[-1]))
        except Exception as e:
            outcomes[-1] = (False, e)
        for i, (pid, pipe) in enumerate(list(children.items())):
            with pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            why = f"its process ended with exit code {code} and sent no result"
            outcomes[i] = pickle.loads(reply) if code == 0 and reply else (False, died(tasks[i], why))
    finally:
        for pid, pipe in children.items():  # left only by an interrupt or a failed fork
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]
