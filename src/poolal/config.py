"""Experiment configuration: parsing, validation, canonical hashing.

Configs arrive as flat YAML mappings (one optional nested ``learner`` block)
and validate into a frozen :class:`ExperimentConfig`. The canonical hash of
the config travels with every run record so reports can group records by
the exact experiment that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any

from .errors import ConfigurationError
from .learner import LearnerConfig, is_finite_number
from .strategy import Strategy, parse_strategy

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


def _as_int(key: str, value: Any) -> int:
    """``value`` if it is an integer, unconverted; the error names ``key``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


def _int_field(raw: dict[str, Any], key: str, default: int | None) -> int | None:
    """``raw[key]`` if it is an integer up to 2**53 (``default`` if absent or null); errors name the key.

    Above 2**53 a count has no exact float, and ``largest_remainder`` splits
    budgets and candidate counts by float quotas.
    """
    value = raw.get(key)
    if value is None:
        return default
    if _as_int(key, value) > 2**53:
        raise ConfigurationError(f"{key} must be <= 2**53, got {value}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment arm: dataset, strategy or fraction, budgets, learner, seeds."""

    dataset: str
    arm: str
    strategy: Strategy | None
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
        candidate_count = _int_field(raw, "candidate_count", None)
        select_count = _int_field(raw, "select_count", None)
        strategy = None
        if strategy_name is not None:
            strategy = parse_strategy(str(strategy_name), candidate_count, select_count)
        elif candidate_count is not None or select_count is not None:
            raise ConfigurationError("candidate_count/select_count require strategy 'entropy_topk'")

        stop_on_exhaustion = raw.get("stop_on_exhaustion")
        if stop_on_exhaustion is not None and not isinstance(stop_on_exhaustion, bool):
            raise ConfigurationError(f"stop_on_exhaustion must be true or false, got {stop_on_exhaustion!r}")
        sl_fraction = raw.get("sl_fraction")
        if sl_fraction is not None:
            if not is_finite_number(sl_fraction):
                raise ConfigurationError(f"sl_fraction must be a finite number, got {sl_fraction!r}")
            sl_fraction = float(sl_fraction)

        learner_raw = raw.get("learner") or {}
        if not isinstance(learner_raw, dict):
            raise ConfigurationError("'learner' must be a mapping of learner options")
        try:
            learner = LearnerConfig(**learner_raw)
        except TypeError as e:
            raise ConfigurationError(f"invalid learner options: {e}") from e

        seeds_raw = raw.get("seeds", [0])
        if not isinstance(seeds_raw, (list, tuple)):
            seeds_raw = [seeds_raw]
        seeds = tuple(_as_int("seeds", s) for s in seeds_raw)

        return cls(
            dataset=str(raw.get("dataset", "")),
            arm=str(arm),
            strategy=strategy,
            per_class_initial=_int_field(raw, "per_class_initial", 0),
            budget=_int_field(raw, "budget", 0),
            max_iterations=_int_field(raw, "max_iterations", None),
            stop_on_exhaustion=bool(stop_on_exhaustion),
            sl_fraction=sl_fraction,
            learner=learner,
            seeds=seeds,
            output_dir=str(raw.get("output_dir", "out")),
        )

    def to_dict(self) -> dict:
        d = asdict(self)
        d.update(strategy=None, seeds=list(self.seeds))
        if self.strategy is not None:
            d.update(strategy=self.strategy.name, **asdict(self.strategy))
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
