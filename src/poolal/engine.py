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
from .strategy import (
    allocate_fnr,
    allocate_proportional,
    largest_remainder,
    sample_fraction,
    select_entropy_topk,
)

__all__ = [
    "StoppingRule",
    "IterationRecord",
    "RunRecord",
    "evaluate_model",
    "run_active_learning",
    "run_supervised",
    "run_sweep",
]


@dataclass(frozen=True)
class StoppingRule:
    """When the loop ends: an iteration cap, pool exhaustion, or both."""

    max_iterations: int | None = None
    stop_on_exhaustion: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations is None and not self.stop_on_exhaustion:
            raise ConfigurationError("at least one stopping criterion must be enabled")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1 or None, got {self.max_iterations}")


@dataclass
class IterationRecord:
    """Everything one loop iteration produced.

    ``allocation`` is the per-class request computed from this iteration's
    validation FNR (it feeds the next training set); it stays None on the
    terminal iteration. ``shortfall`` is the per-class gap between what was
    requested and what the pools could provide.
    """

    iteration: int
    train_counts: list[int]
    delta: list[float]
    val_fnr: list[float]
    val_metrics: MetricsReport
    learner_stopped_epoch: int
    allocation: list[int] | None = None
    shortfall: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "train_counts": self.train_counts,
            "delta": self.delta,
            "val_fnr": self.val_fnr,
            "val_metrics": self.val_metrics.to_dict(),
            "learner_stopped_epoch": self.learner_stopped_epoch,
            "allocation": self.allocation,
            "shortfall": self.shortfall,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IterationRecord":
        return cls(
            iteration=d["iteration"],
            train_counts=list(d["train_counts"]),
            delta=list(d["delta"]),
            val_fnr=list(d["val_fnr"]),
            val_metrics=MetricsReport.from_dict(d["val_metrics"]),
            learner_stopped_epoch=d["learner_stopped_epoch"],
            allocation=None if d.get("allocation") is None else list(d["allocation"]),
            shortfall=list(d.get("shortfall") or []),
        )


@dataclass
class RunRecord:
    """One complete run: config snapshot, per-iteration trail, final test metrics.

    ``terminal_model`` rides along for checkpointing but is not part of the
    persisted record.
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

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "config_hash": self.config_hash,
            "dataset_hash": self.dataset_hash,
            "seed": self.seed,
            "arm_label": self.arm_label,
            "class_names": self.class_names,
            "iterations": [r.to_dict() for r in self.iterations],
            "final_test_metrics": self.final_test_metrics.to_dict(),
            "total_labeled": self.total_labeled,
            "labeled_fraction_of_train": self.labeled_fraction_of_train,
            "append_count": self.append_count,
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        if d.get("schema_version") != 1:
            raise ConfigurationError(f"unsupported run record schema_version {d.get('schema_version')!r}")
        return cls(
            config=d["config"],
            config_hash=d["config_hash"],
            dataset_hash=d["dataset_hash"],
            seed=d["seed"],
            arm_label=d["arm_label"],
            class_names=list(d["class_names"]),
            iterations=[IterationRecord.from_dict(r) for r in d["iterations"]],
            final_test_metrics=MetricsReport.from_dict(d["final_test_metrics"]),
            total_labeled=d["total_labeled"],
            labeled_fraction_of_train=d["labeled_fraction_of_train"],
            append_count=d["append_count"],
            stop_reason=d["stop_reason"],
        )


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
        class_names=bundle.class_names(),
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
    stopping = (
        StoppingRule(config.max_iterations, config.stop_on_exhaustion)
        if strategy.name != "none"
        else StoppingRule(max_iterations=1)
    )

    rng = RandomSource(seed)
    ts, pools = split_initial(bundle.train, bundle.num_classes, config.per_class_initial, rng.derive("split"))

    full_train_delta = np.asarray(bundle.split_counts(bundle.train), dtype=float) / len(bundle.train)
    iterations: list[IterationRecord] = []
    model: TrainedModel | None = None
    append_count = 0
    stop_reason = ""

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
        val_metrics = evaluate_model(model, bundle.validation, bundle.num_classes)
        rec = IterationRecord(
            iteration=j,
            train_counts=list(ts.counts),
            delta=[float(x) for x in class_balance(ts)],
            val_fnr=[float(x) for x in val_metrics.fnr_vector()],
            val_metrics=val_metrics,
            learner_stopped_epoch=model.stopped_epoch,
            allocation=None,
            shortfall=[0] * bundle.num_classes,
        )
        iterations.append(rec)

        if strategy.name == "none":
            stop_reason = "single_round"
            break
        if stopping.max_iterations is not None and append_count >= stopping.max_iterations:
            stop_reason = f"max_iterations ({stopping.max_iterations}) reached"
            break

        if strategy.name == "entropy_topk":
            requested = largest_remainder(full_train_delta, strategy.candidate_count)
            budget_total = strategy.select_count
        elif strategy.name == "fnr_proportional":
            request = allocate_fnr(rec.val_fnr, config.budget, pools, iteration=j)
            requested = np.asarray(request.counts, dtype=np.int64)
            budget_total = config.budget
        else:
            request = allocate_proportional(rec.delta, config.budget, pools, iteration=j)
            requested = np.asarray(request.counts, dtype=np.int64)
            budget_total = config.budget

        remaining = np.asarray(pools.remaining_counts(), dtype=np.int64)
        if stopping.stop_on_exhaustion and bool(np.any(requested > remaining)):
            short = int(np.argmax(requested - remaining))
            stop_reason = (
                f"pool exhausted: class {bundle.classes[short].name!r} requested "
                f"{int(requested[short])} with {int(remaining[short])} remaining"
            )
            break

        if strategy.name == "entropy_topk":
            try:
                new_rows = select_entropy_topk(
                    model,
                    pools,
                    full_train_delta,
                    strategy.candidate_count,
                    strategy.select_count,
                    rng.derive("entropy", j),
                )
            except PoolsExhaustedError:
                stop_reason = "pools exhausted: no entropy candidates available"
                break
            rec.allocation = np.bincount(bundle.train.y[new_rows], minlength=bundle.num_classes).tolist()
            rec.shortfall = [int(max(0, r - a)) for r, a in zip(requested, remaining)]
        else:
            drawn = [pools.draw(i, int(n)) for i, n in enumerate(requested)]
            new_rows = np.concatenate(drawn)
            rec.allocation = [int(n) for n in requested]
            rec.shortfall = [int(n) - len(got) for n, got in zip(requested, drawn)]

        if not len(new_rows):
            stop_reason = "pools exhausted: nothing left to append"
            rec.allocation = None
            rec.shortfall = [0] * bundle.num_classes
            break
        _check_append(ts, new_rows, pools, budget_total)
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
    val_metrics = evaluate_model(model, bundle.validation, bundle.num_classes)
    rec = IterationRecord(
        iteration=0,
        train_counts=list(ts.counts),
        delta=[float(x) for x in class_balance(ts)],
        val_fnr=[float(x) for x in val_metrics.fnr_vector()],
        val_metrics=val_metrics,
        learner_stopped_epoch=model.stopped_epoch,
        allocation=None,
        shortfall=[0] * bundle.num_classes,
    )
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
