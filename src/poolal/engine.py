"""The active-learning loop: train, evaluate, allocate, append, repeat.

One run owns its training set and pools and advances them single-threaded;
every per-iteration quantity (class balance, validation FNR, the allocation
it produced, shortfalls) lands in an :class:`IterationRecord` so trajectories
are auditable after the fact. Sweeps execute independent seeds against the
same immutable dataset bundle.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .core import ClassPools, DatasetBundle, RandomSource, Split, TrainingSet, class_balance, split_initial
from .errors import ConfigurationError, PoolsExhaustedError, RunError, TrainingError
from .learner import TrainedModel, predict_batch, train
from .metrics import MetricsReport, confusion, report
from .strategy import sample_fraction, subset_size

__all__ = [
    "IterationRecord",
    "RunRecord",
    "evaluate_model",
    "run_active_learning",
    "run_supervised",
    "run_sweep",
]


@dataclass
class IterationRecord:
    """Everything one loop iteration produced.

    ``allocation`` and ``shortfall`` describe the append that follows this
    round; both stay at their defaults (None and zeros) on the terminal
    iteration. For the allocating arms (``fnr_proportional``,
    ``proportional_random``) ``allocation`` is the per-class request and
    ``shortfall`` the part of it the pools could not provide. For
    ``entropy_topk``, ``allocation`` counts the kept rows per class and
    ``shortfall`` is each class's candidate share minus its pool stock before
    the draw, not a gap in the kept rows.
    """

    iteration: int
    train_counts: list[int]
    delta: list[float]
    val_fnr: list[float]
    val_metrics: MetricsReport
    learner_stopped_epoch: int
    allocation: list[int] | None = None
    shortfall: list[int] = field(default_factory=list)


@dataclass
class RunRecord:
    """One complete run: config snapshot, per-iteration trail, final test metrics.

    ``terminal_model`` rides along for checkpointing but is not part of the
    persisted record (see :func:`poolal.datafiles.save_run_record`).
    """

    config: dict
    config_hash: str
    dataset_hash: str
    seed: int
    arm_label: str
    class_names: list[str]
    iterations: list[IterationRecord]
    final_test_metrics: MetricsReport
    total_labeled: int
    labeled_fraction_of_train: float
    append_count: int
    stop_reason: str
    schema_version: int = 1
    terminal_model: TrainedModel | None = field(default=None, repr=False, compare=False)


def evaluate_model(model: TrainedModel, split: Split, num_classes: int) -> MetricsReport:
    """Confusion-matrix report of the model's predictions over one split."""
    return report(confusion(split.y, predict_batch(model, split.X), num_classes))


def _check_append(ts: TrainingSet, new_rows: np.ndarray, pools: ClassPools, budget: int) -> None:
    """Loop invariants at one append; a breach is a program fault, not bad input.

    The append fits the budget, and the training set, the appended rows and the
    pools hold every train row exactly once: disjointness plus per-class conservation.
    """
    if budget and len(new_rows) > budget:
        raise RunError("appended more samples than the per-iteration budget")
    times_held = np.bincount(np.concatenate([ts.rows, new_rows, pools.rows()]), minlength=len(ts.split))
    if (times_held != 1).any():
        row = int(np.argmax(times_held != 1))
        raise RunError(f"loop invariant broken: sample {ts.split.id_of(row)!r} is held {times_held[row]} times, not once")


def _round_record(bundle: DatasetBundle, ts: TrainingSet, model: TrainedModel) -> IterationRecord:
    """The record of one training round, before any append."""
    val_metrics = evaluate_model(model, bundle.validation, bundle.num_classes)
    return IterationRecord(
        iteration=ts.iteration,
        train_counts=list(ts.counts),
        delta=[float(x) for x in class_balance(ts)],
        val_fnr=[float(x) for x in val_metrics.fnr_vector()],
        val_metrics=val_metrics,
        learner_stopped_epoch=model.stopped_epoch,
        shortfall=[0] * bundle.num_classes,
    )


def _terminal_record(
    bundle: DatasetBundle,
    config: ExperimentConfig,
    seed: int,
    dataset_hash: str,
    iterations: list[IterationRecord],
    model: TrainedModel,
    ts: TrainingSet,
    append_count: int,
    stop_reason: str,
) -> RunRecord:
    return RunRecord(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        dataset_hash=dataset_hash,
        seed=seed,
        arm_label=config.arm_label(),
        class_names=list(bundle.class_names),
        iterations=iterations,
        final_test_metrics=evaluate_model(model, bundle.test, bundle.num_classes),
        total_labeled=ts.size,
        labeled_fraction_of_train=ts.size / len(bundle.train),
        append_count=append_count,
        stop_reason=stop_reason,
        terminal_model=model,
    )


def run_active_learning(
    bundle: DatasetBundle,
    config: ExperimentConfig,
    seed: int,
    dataset_hash: str = "",
) -> RunRecord:
    """Execute one active-learning run to its stopping criterion.

    All randomness derives from ``(seed, iteration)``, so two runs with the
    same config and seed produce identical training-set trajectories, and a
    change in iteration count leaves earlier iterations' draws untouched.
    """
    if config.arm != "al" or config.strategy is None:
        raise ConfigurationError("run_active_learning needs an 'al' config with a strategy")
    strategy = config.strategy

    rng = RandomSource(seed)
    ts, pools = split_initial(bundle.train, bundle.num_classes, config.per_class_initial, rng.derive("split"))

    iterations: list[IterationRecord] = []
    model: TrainedModel | None = None
    append_count = 0

    while True:
        j = ts.iteration
        try:
            model = train(
                config.learner,
                ts,
                bundle.validation,
                rng.derive("train", j),
                initial=model if config.learner.warm_start else None,
            )
        except TrainingError as e:
            raise TrainingError(f"iteration {j}: {e}") from e
        rec = _round_record(bundle, ts, model)
        iterations.append(rec)

        if config.max_iterations is not None and append_count >= config.max_iterations:
            stop_reason = f"max_iterations ({config.max_iterations}) reached"
            break
        requested = strategy.request(rec, pools, config.budget)
        if requested is None:
            stop_reason = "single_round"
            break

        remaining = np.asarray(pools.remaining_counts(), dtype=np.int64)
        if config.stop_on_exhaustion and bool(np.any(requested > remaining)):
            short = int(np.argmax(requested - remaining))
            stop_reason = (
                f"pool exhausted: class {bundle.class_names[short]!r} requested "
                f"{int(requested[short])} with {int(remaining[short])} remaining"
            )
            break

        try:
            # keyed ("entropy", j): entropy top-k is the one arm that draws from this stream
            new_rows, allocation, shortfall = strategy.acquire(model, pools, requested, rng.derive("entropy", j))
        except PoolsExhaustedError as e:
            stop_reason = f"pools exhausted: {e}"
            break
        if not len(new_rows):
            stop_reason = "pools exhausted: nothing left to append"
            break
        rec.allocation, rec.shortfall = allocation, shortfall
        _check_append(ts, new_rows, pools, strategy.round_cap(config.budget))
        ts = ts.extended(new_rows)
        append_count += 1

    assert model is not None
    return _terminal_record(
        bundle, config, seed, dataset_hash, iterations, model, ts, append_count, stop_reason
    )


def run_supervised(
    bundle: DatasetBundle,
    fraction: float,
    config: ExperimentConfig,
    seed: int,
    dataset_hash: str = "",
) -> RunRecord:
    """One supervised round on a stratified fraction of the train split."""
    rng = RandomSource(seed)
    subset = sample_fraction(bundle.train, fraction, rng.derive("sl_sample"))
    ts = TrainingSet.from_rows(bundle.train, subset, bundle.num_classes)
    model = train(config.learner, ts, bundle.validation, rng.derive("train", 0))
    rec = _round_record(bundle, ts, model)
    return _terminal_record(
        bundle, config, seed, dataset_hash, [rec], model, ts, 0, f"supervised fraction {fraction:g}"
    )


def run_one(bundle: DatasetBundle, config: ExperimentConfig, seed: int, dataset_hash: str = "") -> RunRecord:
    """Dispatch a single seed to the configured arm."""
    if config.arm == "sl":
        assert config.sl_fraction is not None
        return run_supervised(bundle, config.sl_fraction, config, seed, dataset_hash)
    return run_active_learning(bundle, config, seed, dataset_hash)


def _run_one_star(args: tuple[DatasetBundle, ExperimentConfig, int, str]) -> RunRecord:
    return run_one(*args)


def run_sweep(
    bundle: DatasetBundle,
    config: ExperimentConfig,
    seeds: Sequence[int],
    dataset_hash: str = "",
    jobs: int = 1,
) -> list[RunRecord]:
    """Run every seed independently; results come back in seed order.

    Seeds share only the immutable bundle, so ``jobs > 1`` fans them out to
    worker processes without changing any result.
    """
    if not seeds:
        raise ConfigurationError("run_sweep needs at least one seed")
    if min(seeds) < 0:
        raise ConfigurationError(f"seeds must be >= 0, got {min(seeds)}")
    if config.arm == "sl" and subset_size(len(bundle.train), config.sl_fraction) == 0:
        raise ConfigurationError(
            f"sl_fraction must select at least one of the {len(bundle.train)} train rows, got {config.sl_fraction!r}"
        )
    tasks = [(bundle, config, int(s), dataset_hash) for s in seeds]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            futures = [(task[2], pool.submit(_run_one_star, task)) for task in tasks]
            out = []
            for seed, fut in futures:
                try:
                    out.append(fut.result())
                except Exception as e:
                    raise RunError(f"seed {seed} failed: {e}") from e
            return out
    out = []
    for task in tasks:
        try:
            out.append(_run_one_star(task))
        except Exception as e:
            raise RunError(f"seed {task[2]} failed: {e}") from e
    return out
