"""Experiment configuration: parsing, validation, canonical hashing, and the typed decoder.

Configs arrive as flat YAML mappings (one optional nested ``learner`` block)
and decode field for field into a frozen :class:`ExperimentConfig`. The hash of
the config travels with every run record so reports can group records by
the exact experiment that produced them.

:func:`decode` is the one type check of every input. Configs, generator
specs, dataset manifests, run records and checkpoints are rebuilt from field
annotations by :func:`_decode`, which refuses a missing or unknown key, or a
value of the wrong type, by name. A ``__post_init__`` keeps only value and
cross-field rules.

Each rule on a value has one home, and code downstream of that home trusts
the value: config values in the ``__post_init__`` of ``ExperimentConfig``,
``EntropyTopK`` and ``LearnerConfig``; generator spec values, its size
included, in ``GeneratorSpec.__post_init__``; dataset contents in
``DatasetBundle.build``; seeds, from the config or a CLI override, in
``run_sweep``; loop invariants in ``engine._check_append``; weight sums in
``largest_remainder``; a set of run records in ``group_and_aggregate``; a
run's output path in ``cli.cmd_run``.
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

    ``tp`` is a type annotation or a dataclass. Integers are taken without
    conversion; a float field takes any finite number and stores it as a float.
    A dataclass refuses an unknown key, and a missing field without a default.
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
    if tp is dict or origin is dict or is_dataclass(tp):
        if not isinstance(value, dict):
            if not where:
                raise ConfigurationError(f"the file must be a JSON object, not {type(value).__name__}")
            raise ConfigurationError(f"{where} must be a mapping, got {value!r}")
        if tp is dict:
            return value
        if origin is dict:  # dict[str, X]: JSON keys are strings
            return {k: _decode(args[1], v, _at(where, k)) for k, v in value.items()}
        types, required = _schema(tp)
        for problem, keys in (("missing", required - value.keys()), ("unknown", value.keys() - types.keys())):
            if keys:
                raise ConfigurationError(f"{problem} keys {sorted(_at(where, k) for k in keys)}")
        return tp(**{k: _decode(types[k], v, _at(where, k)) for k, v in value.items()})
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
    """One experiment arm, field for field its config file: dataset, strategy or fraction, budgets, learner, seeds.

    A key left out takes its default, and so does a null one.
    """

    dataset: str = ""
    arm: str = "al"
    strategy: str | None = None
    candidate_count: int | None = None
    select_count: int | None = None
    per_class_initial: int | None = 0
    budget: int | None = 0
    max_iterations: int | None = None
    stop_on_exhaustion: bool | None = False
    sl_fraction: float | None = None
    learner: LearnerConfig | None = LearnerConfig()
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for f in fields(self):  # null means left out
            if getattr(self, f.name) is None:
                object.__setattr__(self, f.name, f.default)
        for key in _COUNT_KEYS:
            if (getattr(self, key) or 0) > 2**53:
                raise ConfigurationError(f"{key} must be <= 2**53, got {getattr(self, key)}")
        if self.strategy != "entropy_topk" and (self.candidate_count, self.select_count) != (None, None):
            raise ConfigurationError("candidate_count/select_count require strategy 'entropy_topk'")
        if self.strategy is not None:
            self.acquisition()  # the strategy's own checks
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
            if self.strategy != "none":
                if self.max_iterations is None and not self.stop_on_exhaustion:
                    raise ConfigurationError(
                        "enable at least one stopping criterion: max_iterations or stop_on_exhaustion"
                    )
                if self.budget < 1 and self.strategy != "entropy_topk":
                    raise ConfigurationError(f"budget must be >= 1, got {self.budget}")
            if self.per_class_initial < 1:
                raise ConfigurationError(
                    f"arm 'al' needs a non-empty initial training set: per_class_initial must be >= 1, "
                    f"got {self.per_class_initial}"
                )
        if self.per_class_initial < 0:
            raise ConfigurationError(f"per_class_initial must be >= 0, got {self.per_class_initial}")
        if self.budget < 0:
            raise ConfigurationError(f"budget must be >= 0, got {self.budget}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1 or omitted/null to disable, got {self.max_iterations}"
            )
        if not self.dataset:
            raise ConfigurationError("dataset source is required")

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        """The config in mapping ``raw``, decoded field by field."""
        return _decode(cls, raw, "")

    def to_dict(self) -> dict:
        """The config as its file's mapping; the candidate sizes only for ``entropy_topk``."""
        d = dict(asdict(self), seeds=list(self.seeds))
        if self.strategy != "entropy_topk":
            del d["candidate_count"], d["select_count"]
        return d

    def acquisition(self) -> Strategy:
        """The ``al`` arm's strategy object."""
        return parse_strategy(self.strategy, self.candidate_count, self.select_count)

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
        return f"sl({self.sl_fraction:g})" if self.arm == "sl" else f"al:{self.strategy}"
