"""Query strategies deciding which samples to pull from the pools next.

Three active arms and one baseline sampler:

* FNR-proportional allocation: each class's share of the acquisition budget
  is its validation false-negative rate divided by the FNR sum, so the
  classes the model misses most get the most new data.
* Entropy top-k: candidates drawn from the pools proportionally to the full
  train-set class distribution, then the highest-predictive-entropy subset
  is kept; the rest go back to the pools.
* Proportional-random allocation: budget split by a supplied class balance,
  the no-signal control.
* Stratified fraction sampling for the supervised-fraction baseline arms.

Fractional shares are integerized with largest-remainder (Hamilton)
rounding, so budgets are conserved exactly and bigger shares never receive
smaller counts. Remainders are compared as floats: ascending class index
breaks a tie only between bit-equal float remainders (see
:func:`largest_remainder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ClassPools, RandomSource, Split
from .errors import ConfigurationError, PoolsExhaustedError
from .learner import TrainedModel, predict_proba, samples_to_arrays

__all__ = [
    "AllocationRequest",
    "StrategyKind",
    "largest_remainder",
    "allocate_fnr",
    "allocate_proportional",
    "entropy_of",
    "row_entropies",
    "select_entropy_topk",
    "sample_fraction",
]

STRATEGY_NAMES = ("fnr_proportional", "entropy_topk", "proportional_random", "none")


@dataclass(frozen=True)
class AllocationRequest:
    """Per-class counts requested from the pools for one iteration."""

    counts: tuple[int, ...]
    iteration: int

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class StrategyKind:
    """Which query strategy to run, plus the entropy arm's candidate sizes."""

    name: str
    candidate_count: int | None = None
    select_count: int | None = None

    def __post_init__(self) -> None:
        if self.name not in STRATEGY_NAMES:
            raise ConfigurationError(f"unknown strategy {self.name!r}; expected one of {STRATEGY_NAMES}")
        if self.name == "entropy_topk":
            if self.candidate_count is None or self.select_count is None:
                raise ConfigurationError("entropy_topk requires candidate_count and select_count")
            if self.candidate_count < 1 or self.select_count < 1:
                raise ConfigurationError("entropy_topk counts must be >= 1")
            if self.select_count > self.candidate_count:
                raise ConfigurationError(
                    f"select_count ({self.select_count}) must be <= candidate_count ({self.candidate_count})"
                )
        elif self.candidate_count is not None or self.select_count is not None:
            raise ConfigurationError(f"candidate/select counts only apply to entropy_topk, not {self.name!r}")


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


def _validate_rates(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{name} entries must be finite")
    if np.any(values < 0) or np.any(values > 1):
        raise ConfigurationError(f"{name} entries must lie in [0, 1]")


def allocate_fnr(fnr: Sequence[float], budget: int, pools: ClassPools, iteration: int = 0) -> AllocationRequest:
    """Split the acquisition budget across classes proportionally to their FNR.

    When every FNR is zero (perfect validation performance) the budget falls
    back to a uniform split over classes that still have pool stock. Counts
    are not clipped to pool sizes here; shortfall is the caller's concern.
    """
    fnr = np.asarray(fnr, dtype=float)
    if budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    if len(fnr) != pools.num_classes:
        raise ConfigurationError(f"fnr length {len(fnr)} != number of classes {pools.num_classes}")
    _validate_rates("fnr", fnr)

    if fnr.sum() > 0:
        counts = largest_remainder(fnr, budget)
    else:
        nonempty = np.array([1.0 if r > 0 else 0.0 for r in pools.remaining_counts()])
        if nonempty.sum() == 0:
            counts = np.zeros(pools.num_classes, dtype=np.int64)
        else:
            counts = largest_remainder(nonempty, budget)
    return AllocationRequest(counts=tuple(int(c) for c in counts), iteration=iteration)


def allocate_proportional(
    delta: Sequence[float], budget: int, pools: ClassPools, iteration: int = 0
) -> AllocationRequest:
    """Split the budget proportionally to a class-balance vector (control arm)."""
    delta = np.asarray(delta, dtype=float)
    if budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    if len(delta) != pools.num_classes:
        raise ConfigurationError(f"delta length {len(delta)} != number of classes {pools.num_classes}")
    _validate_rates("delta", delta)
    if delta.sum() <= 0:
        raise ConfigurationError("delta must have a positive sum")
    counts = largest_remainder(delta, budget)
    return AllocationRequest(counts=tuple(int(c) for c in counts), iteration=iteration)


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
    terms differently, so the last bits can differ.
    """
    return -(probas * np.log(np.where(probas > 0, probas, 1.0))).sum(axis=1)


def candidate_targets(delta: Sequence[float], candidate_count: int, pools: ClassPools) -> np.ndarray:
    """Per-class candidate draw counts: delta shares clipped to pool stock.

    A class whose pool cannot cover its share leaves a deficit, which is
    redistributed proportionally (by delta) over classes with stock left, so
    the full candidate count is drawn whenever total stock allows.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.sum() <= 0:
        raise ConfigurationError("delta must have a positive sum")
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
    the highest predictive entropy are returned (entropy ties broken by sample
    id), and every unselected candidate goes back to its pool in
    rng-shuffled order so the pool tail stays unordered.
    """
    if select_count > candidate_count:
        raise ConfigurationError(f"select_count ({select_count}) must be <= candidate_count ({candidate_count})")
    if pools.total_remaining() == 0:
        raise PoolsExhaustedError("all class pools are empty")

    targets = candidate_targets(full_train_delta, candidate_count, pools)
    candidates = np.concatenate([pools.draw(i, int(t)) for i, t in enumerate(targets)])
    if not len(candidates):
        raise PoolsExhaustedError("pools could not provide any entropy candidates")

    X, _ = samples_to_arrays(candidates, pools.split)
    entropies = row_entropies(predict_proba(model, X))
    chosen = np.zeros(len(candidates), dtype=bool)
    chosen[np.lexsort((pools.split.ids[candidates], -entropies))[:select_count]] = True
    rejected = candidates[~chosen]
    gen = rng.generator()
    pools.give_back(rejected[gen.permutation(len(rejected))])
    return candidates[chosen]


def sample_fraction(train: Split, fraction: float, rng: RandomSource) -> np.ndarray:
    """Stratified subsample preserving the natural class distribution.

    Returns ``round(len(train) * fraction)`` row indices in total, split
    across classes by largest-remainder on the class counts, each class
    sampled uniformly without replacement.
    """
    if not 0 < fraction <= 1:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    if not len(train):
        raise ConfigurationError("cannot sample from an empty collection")
    if fraction == 1.0:
        return np.arange(len(train))

    counts = np.bincount(train.y)
    total_target = int(np.floor(len(train) * fraction + 0.5))
    targets = largest_remainder(counts, total_target)

    gen = rng.generator()
    out = []
    for label, t in enumerate(targets):
        if t == 0 or counts[label] == 0:
            continue
        group = np.flatnonzero(train.y == label)
        out.append(group[np.sort(gen.choice(len(group), size=int(t), replace=False))])
    return np.concatenate(out) if out else np.arange(0)
