"""The active-learning loop: train, evaluate, allocate, append, repeat.

One run owns its training set and pools and advances them single-threaded;
every per-iteration quantity (class balance, validation FNR, the allocation
it produced, shortfalls) lands in an :class:`IterationRecord` so trajectories
are auditable after the fact.

A run is a generator: each round yields its training job (training set,
random source, warm-start model), is sent the trained model back, and the
generator returns the :class:`RunRecord`. :func:`run_sweep` advances a
sweep's seeds in lockstep stacks, every stack but the last in a forked child;
the public ``run_*`` functions drive a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Sequence

import numpy as np

from .config import ExperimentConfig
from .core import ClassPools, DatasetBundle, RandomSource, Split, TrainingSet, class_balance, fork_map, split_initial
from .errors import ConfigurationError, RunError, TrainingError
from .learner import LearnerConfig, TrainedModel, TrainJob, predict_batch, train_stack
from .metrics import MetricsReport, confusion, report
from .strategy import Strategy, sample_fraction, subset_size

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
    iteration. On every arm ``shortfall`` is each class's request minus its
    pool stock before the draw, floored at 0. For the allocating arms
    (``fnr_proportional``, ``proportional_random``) ``allocation`` is the
    per-class request. For ``entropy_topk`` the request is each class's
    candidate share and ``allocation`` counts the kept rows per class, so
    the shortfall is not a gap in the kept rows.
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

    ``terminal_model`` rides along for checkpointing; its field metadata
    keeps it out of the record file (:func:`poolal.config.persisted`).
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
    terminal_model: TrainedModel | None = field(default=None, repr=False, compare=False, metadata={"persisted": False})


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


def _rounds(
    bundle: DatasetBundle, config: ExperimentConfig, seed: int, dataset_hash: str
) -> Generator[TrainJob, TrainedModel, RunRecord]:
    """One run of either arm: yields each round's training job, is sent its model, returns the record.

    The arm picks only the first training set and how a one-round run stops.
    An ``al`` run starts from ``per_class_initial`` rows per class and keeps
    the rest in pools; an ``sl`` run has no pools, and its ``none`` strategy
    ends it after one round on a stratified ``sl_fraction`` of the train split.
    """
    rng = RandomSource(seed)
    if config.arm == "sl":
        subset = sample_fraction(bundle.train, config.sl_fraction, rng.derive("sl_sample"))
        ts, pools = TrainingSet.from_rows(bundle.train, subset, bundle.num_classes), None
        strategy, one_round_stop = Strategy(), f"supervised fraction {config.sl_fraction:g}"
    else:
        ts, pools = split_initial(bundle.train, bundle.num_classes, config.per_class_initial, rng.derive("split"))
        strategy, one_round_stop = config.acquisition(), "single_round"

    iterations: list[IterationRecord] = []
    model: TrainedModel | None = None
    while True:
        j = ts.iteration
        try:
            model = yield ts, rng.derive("train", j), model if config.learner.warm_start else None
        except TrainingError as e:
            raise TrainingError(f"iteration {j}: {e}") from e
        rec = _round_record(bundle, ts, model)
        iterations.append(rec)

        if config.max_iterations is not None and j >= config.max_iterations:
            stop_reason = f"max_iterations ({config.max_iterations}) reached"
            break
        requested = strategy.request(rec, pools, config.budget)
        if requested is None:
            stop_reason = one_round_stop
            break

        remaining = np.asarray(pools.remaining_counts(), dtype=np.int64)
        if config.stop_on_exhaustion and bool(np.any(requested > remaining)):
            short = int(np.argmax(requested - remaining))
            stop_reason = (
                f"pool exhausted: class {bundle.class_names[short]!r} requested "
                f"{int(requested[short])} with {int(remaining[short])} remaining"
            )
            break

        # keyed ("entropy", j): entropy top-k is the one arm that draws from this stream
        new_rows, allocation = strategy.acquire(model, pools, requested, rng.derive("entropy", j))
        if not len(new_rows):
            stop_reason = f"pools exhausted: {strategy.exhausted}"
            break
        rec.allocation, rec.shortfall = allocation, np.maximum(requested - remaining, 0).tolist()
        _check_append(ts, new_rows, pools, strategy.round_cap(config.budget))
        ts = ts.extended(new_rows)

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
        append_count=ts.iteration,
        stop_reason=stop_reason,
        terminal_model=model,
    )


def _run_stack(
    learner: LearnerConfig, validation: Split, runs: Sequence[Generator[TrainJob, TrainedModel, RunRecord]]
) -> list[RunRecord | Exception | None]:
    """Advance runs round by round, training each round's models with one :func:`train_stack` call.

    Each slot holds its run's record, or the exception that ended it. A
    failure also drops the runs after it, whose slots stay None: a sweep
    reports its first failing seed, as if the seeds had run one by one.
    """
    out: list = [None] * len(runs)
    replies: list = [None] * len(runs)  # None starts a run; then it is sent its model or its training error
    live = range(len(runs))
    while live:
        jobs = {}
        for i in live:
            reply = replies[i]
            try:
                jobs[i] = runs[i].throw(reply) if isinstance(reply, Exception) else runs[i].send(reply)
            except StopIteration as stop:
                out[i] = stop.value
            except Exception as e:
                out[i] = e
                break
        live = list(jobs)
        for i, reply in zip(live, train_stack(learner, list(jobs.values()), validation)):
            replies[i] = reply
    return out


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
    if config.arm != "al":
        raise ConfigurationError("run_active_learning needs an 'al' config with a strategy")
    return run_one(bundle, config, seed, dataset_hash)


def run_supervised(bundle: DatasetBundle, config: ExperimentConfig, seed: int, dataset_hash: str = "") -> RunRecord:
    """One supervised round on a stratified ``config.sl_fraction`` of the train split."""
    if config.arm != "sl":
        raise ConfigurationError("run_supervised needs an 'sl' config with an sl_fraction")
    return run_one(bundle, config, seed, dataset_hash)


def run_one(bundle: DatasetBundle, config: ExperimentConfig, seed: int, dataset_hash: str = "") -> RunRecord:
    """Run a single seed of the configured arm as a stack of one; its failure is raised as is."""
    (result,) = _run_stack(config.learner, bundle.validation, [_rounds(bundle, config, seed, dataset_hash)])
    if isinstance(result, Exception):
        raise result
    return result


def _run_one_star(args: tuple[DatasetBundle, ExperimentConfig, Sequence[int], str]) -> list[RunRecord]:
    """Run a stack of seeds in lockstep; a failing seed raises a RunError that names it."""
    bundle, config, seeds, dataset_hash = args
    runs = [_rounds(bundle, config, seed, dataset_hash) for seed in seeds]
    results = _run_stack(config.learner, bundle.validation, runs)
    for seed, result in zip(seeds, results):
        if isinstance(result, Exception):
            raise RunError(f"seed {seed} failed: {result}") from result
    return results


def run_sweep(
    bundle: DatasetBundle,
    config: ExperimentConfig,
    seeds: Sequence[int],
    dataset_hash: str = "",
    jobs: int = 1,
) -> list[RunRecord]:
    """Run every seed independently; results come back in seed order.

    The seeds are cut into ``min(jobs, len(seeds))`` contiguous stacks, and
    each stack runs in lockstep: its seeds advance round by round and train
    as one stack (:func:`poolal.learner.train_stack`). Strategies, random
    streams and records stay per seed, and seeds share only the immutable
    bundle, so neither ``jobs`` nor the stacking changes any result. Each
    stack but the last runs in a forked child (:func:`~poolal.core.fork_map`).
    ``jobs`` must be at least 1.
    """
    if not seeds:
        raise ConfigurationError("seeds must contain at least one seed")
    if min(seeds) < 0:
        raise ConfigurationError(f"seeds must be >= 0, got {min(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise ConfigurationError(f"seeds must be distinct, got {list(seeds)}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if config.arm == "sl" and subset_size(len(bundle.train), config.sl_fraction) == 0:
        raise ConfigurationError(
            f"sl_fraction must select at least one of the {len(bundle.train)} train rows, got {config.sl_fraction!r}"
        )
    stacks = np.array_split(np.arange(len(seeds)), min(jobs, len(seeds)))  # the longer stacks first
    tasks = [(bundle, config, [int(seeds[i]) for i in stack], dataset_hash) for stack in stacks]
    records = fork_map(_run_one_star, tasks, lambda task, why: RunError(f"seeds {task[2]} failed: {why}"))
    return [record for stack in records for record in stack]
