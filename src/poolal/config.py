"""Experiment configuration: parsing, validation, canonical hashing.

Configs arrive as flat YAML mappings (one optional nested ``learner`` block)
and validate into a frozen :class:`ExperimentConfig`. The canonical hash of
the config travels with every run record so reports can group records by
the exact experiment that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from .errors import ConfigurationError
from .learner import LearnerConfig
from .strategy import StrategyKind

__all__ = ["ExperimentConfig", "canonical_hash"]

_TOP_KEYS = {
    "dataset",
    "arm",
    "strategy",
    "candidate_count",
    "select_count",
    "per_class_initial",
    "budget",
    "max_iterations",
    "stop_on_exhaustion",
    "sl_fraction",
    "seeds",
    "output_dir",
    "learner",
}


def canonical_hash(payload: dict) -> str:
    """Stable 12-hex digest of a JSON-serializable mapping."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _int_field(raw: dict[str, Any], key: str, default: int | None) -> int | None:
    """``raw[key]`` if it is an integer (``default`` if absent or null); errors name the key."""
    value = raw.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment arm: dataset, strategy or fraction, budgets, learner, seeds."""

    dataset: str
    arm: str
    strategy: StrategyKind | None
    per_class_initial: int
    budget: int
    max_iterations: int | None
    stop_on_exhaustion: bool
    sl_fraction: float | None
    learner: LearnerConfig
    seeds: tuple[int, ...]
    output_dir: str

    def __post_init__(self) -> None:
        if self.arm not in ("al", "sl"):
            raise ConfigurationError(f"arm must be 'al' or 'sl', got {self.arm!r}")
        if self.arm == "sl":
            if self.sl_fraction is None:
                raise ConfigurationError("arm 'sl' requires sl_fraction")
            if self.strategy is not None:
                raise ConfigurationError(
                    "conflicting fields: 'strategy' cannot be set together with arm 'sl' / 'sl_fraction'"
                )
            if not 0 < self.sl_fraction <= 1:
                raise ConfigurationError(f"sl_fraction must be in (0, 1], got {self.sl_fraction}")
        else:
            if self.sl_fraction is not None:
                raise ConfigurationError(
                    "conflicting fields: 'sl_fraction' cannot be set together with arm 'al' / 'strategy'"
                )
            if self.strategy is None:
                raise ConfigurationError(
                    "arm 'al' requires a strategy (use strategy 'none' for an explicit single training round)"
                )
            if self.strategy.name != "none":
                if self.max_iterations is None and not self.stop_on_exhaustion:
                    raise ConfigurationError(
                        "enable at least one stopping criterion: max_iterations or stop_on_exhaustion"
                    )
                if self.budget < 1 and self.strategy.name != "entropy_topk":
                    raise ConfigurationError(f"budget must be >= 1, got {self.budget}")
            if self.per_class_initial < 1:
                raise ConfigurationError(
                    f"arm 'al' needs a non-empty initial training set: per_class_initial must be >= 1, "
                    f"got {self.per_class_initial}"
                )
        if self.per_class_initial < 0:
            raise ConfigurationError(f"per_class_initial must be >= 0, got {self.per_class_initial}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1 or omitted/null to disable, got {self.max_iterations}"
            )
        if not self.seeds:
            raise ConfigurationError("seeds must contain at least one seed")
        if not self.dataset:
            raise ConfigurationError("dataset source is required")

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config must be a mapping, got {type(raw).__name__}")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")

        arm = raw.get("arm", "al")
        strategy_name = raw.get("strategy")
        strategy = None
        if strategy_name is not None:
            strategy = StrategyKind(
                name=str(strategy_name),
                candidate_count=raw.get("candidate_count"),
                select_count=raw.get("select_count"),
            )
        elif raw.get("candidate_count") is not None or raw.get("select_count") is not None:
            raise ConfigurationError("candidate_count/select_count require strategy 'entropy_topk'")

        learner_raw = raw.get("learner") or {}
        if not isinstance(learner_raw, dict):
            raise ConfigurationError("'learner' must be a mapping of learner options")
        try:
            learner = LearnerConfig(**learner_raw)
        except TypeError as e:
            raise ConfigurationError(f"invalid learner options: {e}") from e

        seeds_raw = raw.get("seeds", [0])
        if isinstance(seeds_raw, int):
            seeds_raw = [seeds_raw]
        try:
            seeds = tuple(int(s) for s in seeds_raw)
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"seeds must be integers: {e}") from e

        return cls(
            dataset=str(raw.get("dataset", "")),
            arm=str(arm),
            strategy=strategy,
            per_class_initial=_int_field(raw, "per_class_initial", 0),
            budget=_int_field(raw, "budget", 0),
            max_iterations=_int_field(raw, "max_iterations", None),
            stop_on_exhaustion=bool(raw.get("stop_on_exhaustion", False)),
            sl_fraction=None if raw.get("sl_fraction") is None else float(raw["sl_fraction"]),
            learner=learner,
            seeds=seeds,
            output_dir=str(raw.get("output_dir", "out")),
        )

    def to_dict(self) -> dict:
        d: dict[str, Any] = {
            "dataset": self.dataset,
            "arm": self.arm,
            "strategy": None if self.strategy is None else self.strategy.name,
            "per_class_initial": self.per_class_initial,
            "budget": self.budget,
            "max_iterations": self.max_iterations,
            "stop_on_exhaustion": self.stop_on_exhaustion,
            "sl_fraction": self.sl_fraction,
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
            "learner": self.learner.to_dict(),
        }
        if self.strategy is not None and self.strategy.name == "entropy_topk":
            d["candidate_count"] = self.strategy.candidate_count
            d["select_count"] = self.strategy.select_count
        return d

    def config_hash(self) -> str:
        """Hash of the experiment arm's identity.

        Seeds, the output directory, and the dataset path are excluded: the
        same arm run under a different seed list or against a relocated copy
        of the same data hashes identically. Dataset identity travels
        separately as the dataset hash on every run record.
        """
        d = self.to_dict()
        d.pop("seeds")
        d.pop("output_dir")
        d.pop("dataset")
        return canonical_hash(d)

    def arm_label(self) -> str:
        if self.arm == "sl":
            return f"sl({self.sl_fraction:g})"
        assert self.strategy is not None
        return f"al:{self.strategy.name}"
