"""Experiment configuration: parsing, validation, canonical hashing, and the typed decoder.

Configs arrive as flat YAML mappings (one optional nested ``learner`` block)
and validate into a frozen :class:`ExperimentConfig`. The canonical hash of
the config travels with every run record so reports can group records by
the exact experiment that produced them.

:func:`decode` is the one type check of every input. Configs, generator
specs, dataset manifests, run records and checkpoints are rebuilt from field
annotations by :func:`_decode`, which refuses a missing or unknown key, or a
value of the wrong type, by name. A ``__post_init__`` keeps only value and
cross-field rules.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, Field, asdict, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from .errors import ConfigurationError
from .learner import LearnerConfig
from .strategy import Strategy, parse_strategy

__all__ = ["ExperimentConfig", "canonical_hash", "decode"]

# The type of each config key. A key left out takes its default in
# ``ExperimentConfig.from_dict``; a ``| None`` key may also be null, which
# means the same.
_TOP_KEYS = {
    "dataset": str,
    "arm": str,
    "strategy": str | None,
    "candidate_count": int | None,
    "select_count": int | None,
    "per_class_initial": int | None,
    "budget": int | None,
    "max_iterations": int | None,
    "stop_on_exhaustion": bool | None,
    "sl_fraction": float | None,
    "seeds": list[int],
    "output_dir": str,
    "learner": LearnerConfig | None,
}

# Above 2**53 a count has no exact float, and ``largest_remainder`` splits
# budgets and candidate counts by float quotas.
_COUNT_KEYS = ("candidate_count", "select_count", "per_class_initial", "budget", "max_iterations")


def canonical_hash(payload: dict) -> str:
    """Stable 12-hex digest of a JSON-serializable mapping."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _as_int(key: str, value: Any) -> int:
    """``value`` if it is an integer, unconverted; the error names ``key``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


def _as_float(key: str, value: Any) -> float:
    """``value`` as a float if it is an int or float (not a bool) finite as a float; the error names ``key``."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise ConfigurationError(f"{key} must be a finite number, got {value!r}")


def persisted(f: Field) -> bool:
    """Whether a file holds dataclass field ``f``; ``field(metadata={"persisted": False})`` leaves it out."""
    return f.metadata.get("persisted", True)


@cache
def _schema(cls: type) -> tuple[dict[str, Any], frozenset[str]]:
    """The annotation of each persisted field of ``cls``, and the fields without a default."""
    persisted_fields = [f for f in fields(cls) if persisted(f)]
    hints = get_type_hints(cls)
    required = frozenset(f.name for f in persisted_fields if f.default is MISSING and f.default_factory is MISSING)
    return {f.name: hints[f.name] for f in persisted_fields}, required


def _at(where: str, key: object) -> str:
    name = str(key)
    if not name.isprintable():  # a key with a line break must not break the one-line error
        name = repr(name)
    return f"{where}.{name}" if where else name


def _decode(tp: Any, value: Any, where: str) -> Any:
    """``value`` rebuilt as annotation ``tp``; anything else is a ConfigurationError naming ``where``.

    ``tp`` is a type annotation, a dataclass, or a table of key -> annotation
    (every key optional). Integers are taken without conversion; a float field
    takes any finite number and stores it as a float. A dataclass or table
    refuses an unknown key, and a dataclass a missing field without a default.
    """
    if tp is int:
        return _as_int(where, value)
    if tp is float:
        return _as_float(where, value)
    if tp is bool or tp is str:
        if not isinstance(value, tp):
            raise ConfigurationError(f"{where} must be {'true or false' if tp is bool else 'a string'}, got {value!r}")
        return value
    origin, args = get_origin(tp), get_args(tp)
    table = isinstance(tp, dict)
    if tp is dict or origin is dict or table or is_dataclass(tp):
        if not isinstance(value, dict):
            if not where:
                raise ConfigurationError(f"the file must be a JSON object, not {type(value).__name__}")
            raise ConfigurationError(f"{where} must be a mapping, got {value!r}")
        if tp is dict:
            return value
        if origin is dict:  # dict[str, X]: JSON keys are strings
            return {k: _decode(args[1], v, _at(where, k)) for k, v in value.items()}
        types, required = (tp, frozenset()) if table else _schema(tp)
        for problem, keys in (("missing", required - value.keys()), ("unknown", value.keys() - types.keys())):
            if keys:
                raise ConfigurationError(f"{problem} keys {sorted(_at(where, k) for k in keys)}")
        decoded = {k: _decode(types[k], v, _at(where, k)) for k, v in value.items()}
        return decoded if table else tp(**decoded)
    if origin is UnionType:  # X | None
        if value is None and type(None) in args:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _decode(tp, value, where)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where} must be a list, got {value!r}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ConfigurationError(f"{where} must have {len(args)} entries, got {len(value)}")
            item_types = args
        else:
            item_types = args[:1] * len(value)
        items = [_decode(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(item_types, value))]
        return items if origin is list else tuple(items)
    raise TypeError(f"no decoder for annotation {tp!r}")


def decode(cls: type, payload: Any, source: Path | str) -> Any:
    """``payload`` rebuilt as dataclass ``cls``, field by field; errors name ``source`` and the field."""
    try:
        return _decode(cls, payload, "")
    except ConfigurationError as e:
        raise ConfigurationError(f"{source}: {e}") from None


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
        """The config in mapping ``raw``, each key decoded by its ``_TOP_KEYS`` type, then the cross-field rules."""
        d = _decode(_TOP_KEYS, raw, "")
        for key in _COUNT_KEYS:
            if (d.get(key) or 0) > 2**53:
                raise ConfigurationError(f"{key} must be <= 2**53, got {d[key]}")
        name, counts = d.get("strategy"), (d.get("candidate_count"), d.get("select_count"))
        if name is None and counts != (None, None):
            raise ConfigurationError("candidate_count/select_count require strategy 'entropy_topk'")
        return cls(
            dataset=d.get("dataset", ""),
            arm=d.get("arm", "al"),
            strategy=None if name is None else parse_strategy(name, *counts),
            per_class_initial=d.get("per_class_initial") or 0,
            budget=d.get("budget") or 0,
            max_iterations=d.get("max_iterations"),
            stop_on_exhaustion=d.get("stop_on_exhaustion") or False,
            sl_fraction=d.get("sl_fraction"),
            learner=d.get("learner") or LearnerConfig(),
            seeds=tuple(d.get("seeds", [0])),
            output_dir=d.get("output_dir", "out"),
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
