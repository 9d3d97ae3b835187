"""Query strategies deciding which samples to pull from the pools next.

Three active arms, a single-round arm and one baseline sampler:

* FNR-proportional allocation: each class's share of the acquisition budget
  is its validation false-negative rate divided by the FNR sum, so the
  classes the model misses most get the most new data.
* Entropy top-k: candidates drawn from the pools proportionally to the full
  train-set class distribution, then the highest-predictive-entropy subset
  is kept; the rest go back to the pools.
* Proportional-random allocation: budget split by a supplied class balance,
  the no-signal control.
* ``none``: the learner trains once on the initial set and nothing is requested.
* Stratified fraction sampling for the supervised-fraction baseline arms.

Each arm is a :class:`Strategy`, so the engine never asks which arm it runs.
Its methods call the functions below by their module-global names, so code
that swaps those names (tracing, tests) sees every call.

Fractional shares are integerized with largest-remainder (Hamilton)
rounding, so budgets are conserved exactly and bigger shares never receive
smaller counts. Remainders are compared as floats: ascending class index
breaks a tie only between bit-equal float remainders (see
:func:`largest_remainder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

import numpy as np

from .core import ClassPools, RandomSource, Split
from .errors import ConfigurationError
from .learner import TrainedModel, predict_proba, samples_to_arrays

if TYPE_CHECKING:
    from .engine import IterationRecord

__all__ = [
    "Strategy",
    "FnrProportional",
    "ProportionalRandom",
    "EntropyTopK",
    "parse_strategy",
    "largest_remainder",
    "allocate_fnr",
    "allocate_proportional",
    "entropy_of",
    "row_entropies",
    "select_entropy_topk",
    "sample_fraction",
    "subset_size",
]


def largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integerize ``total * weights / weights.sum()`` conserving the total.

    Hamilton rounding: floor every quota, then hand the leftover units to the
    largest fractional remainders. The remainders are the float values
    ``quotas - floor(quotas)``, and ascending index breaks ties only between
    bit-equal ones. Remainders that are equal as exact rationals can differ
    in their last bits, and then the larger float wins whatever its index:
    weights 30, 23, 9, 68, 10 (/250) with total 2000 tie classes 0-2 at 4/7,
    yet give [428, 329, 129, 971, 143], not [429, 329, 128, 971, 143].
    Requires a strictly positive weight sum.
    """
    weights = np.asarray(weights, dtype=float)
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    wsum = weights.sum()
    if wsum <= 0:
        raise ConfigurationError("largest_remainder needs a positive weight sum")
    quotas = weights * (total / wsum)
    counts = np.floor(quotas).astype(np.int64)
    leftover = total - int(counts.sum())
    if leftover > 0:
        remainders = quotas - counts
        order = np.lexsort((np.arange(len(weights)), -remainders))
        counts[order[:leftover]] += 1
    return counts


def allocate_fnr(fnr: Sequence[float], budget: int, pools: ClassPools) -> np.ndarray:
    """Split the acquisition budget across classes proportionally to their FNR.

    When every FNR is zero (perfect validation performance) the budget falls
    back to a uniform split over classes that still have pool stock. Counts
    are not clipped to pool sizes here; shortfall is the caller's concern.
    The rates come from :func:`poolal.metrics.report`: one per class, each in [0, 1].
    """
    fnr = np.asarray(fnr, dtype=float)
    if fnr.sum() > 0:
        return largest_remainder(fnr, budget)
    nonempty = np.array([1.0 if r > 0 else 0.0 for r in pools.remaining_counts()])
    if nonempty.sum() == 0:
        return np.zeros(pools.num_classes, dtype=np.int64)
    return largest_remainder(nonempty, budget)


def allocate_proportional(delta: Sequence[float], budget: int) -> np.ndarray:
    """Split the budget proportionally to a class-balance vector (control arm)."""
    return largest_remainder(delta, budget)


def entropy_of(proba: Sequence[float]) -> float:
    """Shannon entropy (natural log) of a probability vector; 0*ln(0) is 0."""
    p = np.asarray(proba, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ConfigurationError("probability vector has non-finite entries")
    if np.any(p < 0):
        raise ConfigurationError("probability vector has negative entries")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ConfigurationError(f"probability vector sums to {p.sum()}, not 1")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def row_entropies(probas: np.ndarray) -> np.ndarray:
    """Unchecked :func:`entropy_of` of every row of a softmax output matrix.

    Bit-identical below 8 classes, where numpy sums in order and a 0*ln(0)
    term adds exactly 0; from 8 classes numpy's pairwise summation may group
    terms differently, so the last bits can differ. The softmax that makes
    ``probas`` sums the classes of a block of rows in index order instead
    (see :mod:`poolal.learner`), which has the same bits below 8 classes.
    """
    return -(probas * np.log(np.where(probas > 0, probas, 1.0))).sum(axis=1)


def candidate_targets(delta: Sequence[float], candidate_count: int, pools: ClassPools) -> np.ndarray:
    """Per-class candidate draw counts: delta shares clipped to pool stock.

    A class whose pool cannot cover its share leaves a deficit, which is
    redistributed proportionally (by delta) over classes with stock left, so
    the full candidate count is drawn whenever total stock allows.
    """
    delta = np.asarray(delta, dtype=float)
    remaining = np.asarray(pools.remaining_counts(), dtype=np.int64)
    take = np.minimum(largest_remainder(delta, candidate_count), remaining)
    while True:
        deficit = candidate_count - int(take.sum())
        open_classes = take < remaining
        if deficit <= 0 or not open_classes.any():
            break
        weights = np.where(open_classes, delta, 0.0)
        if weights.sum() <= 0:
            weights = open_classes.astype(float)
        extra = largest_remainder(weights, deficit)
        take = np.minimum(take + extra, remaining)
    return take


def select_entropy_topk(
    model: TrainedModel,
    pools: ClassPools,
    full_train_delta: Sequence[float],
    candidate_count: int,
    select_count: int,
    rng: RandomSource,
) -> np.ndarray:
    """Draw candidates by class distribution, keep the highest-entropy subset.

    Candidates are drawn without replacement from the pools in per-class
    counts proportional to ``full_train_delta``; the ``select_count`` rows with
    the highest predictive entropy are returned in draw order, and every
    unselected candidate goes back to its pool in rng-shuffled order so the
    pool tail stays unordered. Rows tied at the cut are kept by ascending
    sample id, and a NaN entropy ranks below every number: the kept set is
    the first ``select_count`` of the candidates sorted by (-entropy, id). It
    is found in linear time: ``np.partition`` finds the cut, and only the
    rows tied at it are sorted, by id. The draw is empty only when every
    pool is (:func:`candidate_targets` moves a short class's share onto
    classes with stock); that empty int64 array returns unscored.
    """
    targets = candidate_targets(full_train_delta, candidate_count, pools)
    candidates = np.concatenate([pools.draw(i, int(t)) for i, t in enumerate(targets)])
    if not len(candidates):
        return candidates

    X, _ = samples_to_arrays(candidates, pools.split)
    entropies = row_entropies(predict_proba(model, X))
    key = np.where(np.isnan(entropies), np.inf, -entropies)
    k = min(select_count, len(candidates))
    chosen = np.zeros(len(candidates), dtype=bool)
    if k:
        cut = np.partition(key, k - 1)[k - 1]
        np.less(key, cut, out=chosen)
        tied = np.flatnonzero(key == cut)
        by_id = np.argsort(pools.split.ids[candidates[tied]], kind="stable")
        chosen[tied[by_id[: k - np.count_nonzero(chosen)]]] = True
    rejected = candidates[~chosen]
    gen = rng.generator()
    pools.give_back(rejected[gen.permutation(len(rejected))])
    return candidates[chosen]


def subset_size(n: int, fraction: float) -> int:
    """Rows a ``fraction`` of ``n`` rows keeps: ``n * fraction`` rounded half up."""
    return int(np.floor(n * fraction + 0.5))


def sample_fraction(train: Split, fraction: float, rng: RandomSource) -> np.ndarray:
    """Stratified subsample preserving the natural class distribution; ``fraction`` is in (0, 1].

    Returns :func:`subset_size` row indices in total, split
    across classes by largest-remainder on the class counts, each class
    sampled uniformly without replacement.
    """
    if fraction == 1.0:
        return np.arange(len(train))

    counts = np.bincount(train.y)
    targets = largest_remainder(counts, subset_size(len(train), fraction))

    gen = rng.generator()
    out = []
    for label, t in enumerate(targets):
        if t == 0 or counts[label] == 0:
            continue
        group = np.flatnonzero(train.y == label)
        out.append(group[np.sort(gen.choice(len(group), size=int(t), replace=False))])
    return np.concatenate(out) if out else np.arange(0)


def _full_train_delta(pools: ClassPools) -> np.ndarray:
    return np.bincount(pools.split.y, minlength=pools.num_classes) / len(pools.split)


@dataclass(frozen=True)
class Strategy:
    """The ``none`` arm, and the interface of every arm.

    After each round the engine takes :meth:`request`'s counts, has
    :meth:`acquire` take rows for them, and caps the append at :meth:`round_cap`.
    ``none`` requests nothing, so its run ends after one round. An empty draw
    ends the run, with ``exhausted`` as its reason; the engine, not the
    strategy, records each class's shortfall (see ``IterationRecord``).
    """

    name: ClassVar[str] = "none"
    exhausted: ClassVar[str] = "nothing left to append"

    def request(self, rec: IterationRecord, pools: ClassPools, budget: int) -> np.ndarray | None:
        """Per-class counts wanted after round ``rec`` (int64), or None to stop."""
        return None

    def acquire(
        self, model: TrainedModel, pools: ClassPools, requested: np.ndarray, rng: RandomSource
    ) -> tuple[np.ndarray, list[int]]:
        """Draw what each pool has of its class's request: ``(rows, allocation)``, where allocation is the request."""
        drawn = [pools.draw(i, int(n)) for i, n in enumerate(requested)]
        return np.concatenate(drawn), requested.tolist()

    def round_cap(self, budget: int) -> int:
        """The most rows one append may add; 0 means no cap."""
        return budget


@dataclass(frozen=True)
class FnrProportional(Strategy):
    """The budget split by this round's validation FNR."""

    name: ClassVar[str] = "fnr_proportional"

    def request(self, rec: IterationRecord, pools: ClassPools, budget: int) -> np.ndarray:
        return allocate_fnr(rec.val_fnr, budget, pools)


@dataclass(frozen=True)
class ProportionalRandom(Strategy):
    """The budget split by the training set's class balance: the no-signal control."""

    name: ClassVar[str] = "proportional_random"

    def request(self, rec: IterationRecord, pools: ClassPools, budget: int) -> np.ndarray:
        return allocate_proportional(rec.delta, budget)


@dataclass(frozen=True)
class EntropyTopK(Strategy):
    """Draw ``candidate_count`` candidates by the full train balance, keep ``select_count``."""

    name: ClassVar[str] = "entropy_topk"
    exhausted: ClassVar[str] = "no entropy candidates available"
    candidate_count: int
    select_count: int

    def __post_init__(self) -> None:
        if self.candidate_count < 1 or self.select_count < 1:
            raise ConfigurationError("entropy_topk counts must be >= 1")
        if self.select_count > self.candidate_count:
            raise ConfigurationError(
                f"select_count ({self.select_count}) must be <= candidate_count ({self.candidate_count})"
            )

    def request(self, rec: IterationRecord, pools: ClassPools, budget: int) -> np.ndarray:
        """Each class's candidate share; the budget plays no part."""
        return largest_remainder(_full_train_delta(pools), self.candidate_count)

    def acquire(
        self, model: TrainedModel, pools: ClassPools, requested: np.ndarray, rng: RandomSource
    ) -> tuple[np.ndarray, list[int]]:
        """Keep the top-entropy candidates; ``allocation`` counts the kept rows per class."""
        rows = select_entropy_topk(model, pools, _full_train_delta(pools), self.candidate_count, self.select_count, rng)
        return rows, np.bincount(pools.split.y[rows], minlength=pools.num_classes).tolist()

    def round_cap(self, budget: int) -> int:
        return self.select_count


_STRATEGIES = {cls.name: cls for cls in (FnrProportional, EntropyTopK, ProportionalRandom, Strategy)}


def parse_strategy(name: str, candidate_count: int | None = None, select_count: int | None = None) -> Strategy:
    """The strategy called ``name``; only ``entropy_topk`` reads the candidate sizes."""
    cls = _STRATEGIES.get(name)
    if cls is None:
        raise ConfigurationError(f"unknown strategy {name!r}; expected one of {tuple(_STRATEGIES)}")
    if cls is EntropyTopK:
        if candidate_count is None or select_count is None:
            raise ConfigurationError("entropy_topk requires candidate_count and select_count")
        return EntropyTopK(candidate_count, select_count)
    return cls()
