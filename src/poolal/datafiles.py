"""File formats: dataset CSVs + manifest, run records, model checkpoints.

Dataset layout is one directory holding ``train.csv``, ``val.csv``,
``test.csv`` and ``manifest.json``. Each CSV row is
``id,label,f0..f{d-1}`` with the label as a class name and features printed
with full round-trip precision, so generate -> ingest -> re-emit is
value-identical. The manifest carries class names, feature dimension,
per-split class counts (checked on load), the generator spec for synthetic
data, and a digest of the CSV bytes that run records embed and reports compare.

This is the one module that knows a file format. Every JSON file is written by
:func:`_write_json`; run records and generator specs are read back by
:func:`decode`, which rebuilds the dataclass from its field annotations and
refuses a missing or unknown key or a value of the wrong type by name.
"""

from __future__ import annotations

import csv
import hashlib
import json
from array import array
from dataclasses import MISSING, asdict, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .config import _as_int, canonical_hash
from .core import ClassId, DatasetBundle, Split
from .engine import RunRecord
from .errors import ConfigurationError
from .learner import TrainedModel, is_finite_number
from .synthgen import PRESETS, GeneratorSpec, generate

__all__ = [
    "write_dataset",
    "read_dataset",
    "resolve_dataset",
    "save_run_record",
    "load_run_record",
    "write_trajectory_csv",
    "save_model",
    "load_model",
    "decode",
]

SPLIT_FILES = (("train", "train.csv"), ("validation", "val.csv"), ("test", "test.csv"))


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_split_csv(path: Path, split: Split, class_names: list[str], feature_dim: int) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(feature_dim)])
        for sample_id, label, features in zip(split.ids.tolist(), split.y.tolist(), split.X.tolist()):
            writer.writerow([sample_id, class_names[label], *map(repr, features)])


def _json_object(path: Path | str, value: object, what: str = "the file") -> dict:
    """``value`` if it is a JSON object; the error names ``path``."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: {what} must be a JSON object, not {type(value).__name__}")
    return value


def _read_json_object(path: Path | str) -> dict:
    """The JSON object in ``path``; anything else is a ConfigurationError naming the path."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"{path}: not valid JSON: {e}") from None
    return _json_object(path, payload)


def _write_json(path: Path | str, payload: dict) -> None:
    """Indented, key-sorted JSON with a final newline: equal payloads give equal bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@cache
def _schema(cls: type) -> tuple[dict[str, Any], frozenset[str]]:
    """The annotation of each persisted field of ``cls``, and the fields without a default.

    ``RunRecord.terminal_model`` is not persisted: it is saved as a checkpoint.
    """
    persisted = [f for f in fields(cls) if f.name != "terminal_model"]
    hints = get_type_hints(cls)
    required = frozenset(f.name for f in persisted if f.default is MISSING and f.default_factory is MISSING)
    return {f.name: hints[f.name] for f in persisted}, required


def _at(where: str, key: object) -> str:
    return f"{where}.{key}" if where else str(key)


def _decode(tp: Any, value: Any, where: str) -> Any:
    """``value`` rebuilt as annotation ``tp``; anything else is a ConfigurationError naming ``where``.

    Integers follow the config's no-conversion rule; a float field takes any
    finite number and stores it as a float.
    """
    if tp is float:
        if not is_finite_number(value):
            raise ConfigurationError(f"{where} must be a finite number, got {value!r}")
        return float(value)
    if tp is int:
        return _as_int(where, value)
    if tp is str or tp is dict:
        if not isinstance(value, tp):
            raise ConfigurationError(f"{where} must be a {'string' if tp is str else 'mapping'}, got {value!r}")
        return value
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{where or 'the file'} must be a JSON object, not {type(value).__name__}")
        types, required = _schema(tp)
        for problem, keys in (("missing", required - value.keys()), ("unknown", value.keys() - types.keys())):
            if keys:
                raise ConfigurationError(f"{problem} keys {sorted(_at(where, k) for k in keys)}")
        return tp(**{k: _decode(types[k], v, _at(where, k)) for k, v in value.items()})
    origin, args = get_origin(tp), get_args(tp)
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


def _hash_csv_files(out_dir: Path) -> str:
    h = hashlib.sha256()
    for _, fname in SPLIT_FILES:
        h.update((out_dir / fname).read_bytes())
    return h.hexdigest()[:12]


def write_dataset(bundle: DatasetBundle, out_dir: str | Path, generator_spec: GeneratorSpec | None = None) -> str:
    """Write the three split CSVs and the manifest; returns the dataset hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = bundle.class_names()
    for split_name, fname in SPLIT_FILES:
        _write_split_csv(out / fname, getattr(bundle, split_name), names, bundle.feature_dim)
    dataset_hash = _hash_csv_files(out)
    manifest = {
        "schema_version": 1,
        "classes": names,
        "feature_dim": bundle.feature_dim,
        "counts": {
            split_name: bundle.split_counts(getattr(bundle, split_name))
            for split_name, _ in SPLIT_FILES
        },
        "generator": None if generator_spec is None else asdict(generator_spec),
        "dataset_hash": dataset_hash,
    }
    _write_json(out / "manifest.json", manifest)
    return dataset_hash


def _read_split_csv(path: Path, name_to_index: dict[str, int], feature_dim: int) -> Split:
    ids: list[str] = []
    labels = array("q")
    features = array("d")
    with path.open("r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        expected = ["id", "label"] + [f"f{i}" for i in range(feature_dim)]
        if header != expected:
            raise ConfigurationError(f"{path}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2 + feature_dim:
                raise ConfigurationError(f"{path}:{lineno}: expected {2 + feature_dim} columns, got {len(row)}")
            label = name_to_index.get(row[1])
            if label is None:
                raise ConfigurationError(f"{path}:{lineno}: unknown class name {row[1]!r}")
            try:
                features.extend(map(float, row[2:]))
            except ValueError as e:
                raise ConfigurationError(f"{path}:{lineno}: {e}") from None
            ids.append(row[0])
            labels.append(label)
    X = np.frombuffer(features, dtype=np.float64).reshape(len(ids), feature_dim)
    return Split(X, np.frombuffer(labels, dtype=np.int64), ids)


def read_dataset(data_dir: str | Path) -> tuple[DatasetBundle, str, dict]:
    """Load a dataset directory, checking it against its manifest; returns (bundle, dataset_hash, manifest)."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigurationError(f"no manifest.json in {data_dir}")
    manifest = _read_json_object(manifest_path)
    if manifest.get("schema_version") != 1:
        raise ConfigurationError(f"unsupported manifest schema_version {manifest.get('schema_version')!r}")
    try:
        names = list(manifest["classes"])
        feature_dim = _as_int(f"{manifest_path}: feature_dim", manifest["feature_dim"])
        manifest_counts = {split_name: manifest["counts"][split_name] for split_name, _ in SPLIT_FILES}
    except KeyError as e:
        raise ConfigurationError(f"{manifest_path}: missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigurationError(f"{manifest_path}: malformed manifest: {e}") from None

    name_to_index = {n: i for i, n in enumerate(names)}
    splits = {}
    for split_name, fname in SPLIT_FILES:
        path = data_dir / fname
        if not path.is_file():
            raise ConfigurationError(f"missing split file {path}")
        split = _read_split_csv(path, name_to_index, feature_dim)
        counts, declared = np.bincount(split.y, minlength=len(names)).tolist(), manifest_counts[split_name]
        if counts != declared:
            raise ConfigurationError(f"{path}: class counts {counts} differ from the manifest's {declared}")
        splits[split_name] = split

    dataset_hash = _hash_csv_files(data_dir)
    declared = manifest.get("dataset_hash")
    if declared is not None and declared != dataset_hash:
        raise ConfigurationError(
            f"dataset files do not match the manifest hash (declared {declared}, actual {dataset_hash})"
        )

    classes = [ClassId(index=i, name=n) for i, n in enumerate(names)]
    bundle = DatasetBundle.build(
        classes, splits["train"], splits["validation"], splits["test"], feature_dim
    )
    return bundle, dataset_hash, manifest


def resolve_dataset(source: str) -> tuple[DatasetBundle, str]:
    """Resolve a config dataset source: a directory path or ``preset:<name>[@seed]``."""
    if source.startswith("preset:"):
        spec_id = source[len("preset:") :]
        seed = None
        if "@" in spec_id:
            spec_id, seed_str = spec_id.split("@", 1)
            try:
                seed = int(seed_str)
            except ValueError:
                raise ConfigurationError(f"bad preset seed {seed_str!r} in {source!r}") from None
        preset = PRESETS.get(spec_id)
        if preset is None:
            raise ConfigurationError(f"unknown preset {spec_id!r}; available: {sorted(PRESETS)}")
        spec = preset() if seed is None else preset(seed=seed)
        return generate(spec), canonical_hash(asdict(spec))
    return read_dataset(source)[:2]


def save_run_record(record: RunRecord, path: str | Path) -> None:
    """Every field but the terminal model, as JSON; byte-identical for identical runs."""
    payload = asdict(replace(record, terminal_model=None))
    del payload["terminal_model"]
    _write_json(path, payload)


def load_run_record(path: str | Path) -> RunRecord:
    """A schema v1 run record, checked field by field."""
    payload = _read_json_object(path)
    if payload.get("schema_version") != 1:
        raise ConfigurationError(f"{path}: unsupported run record schema_version {payload.get('schema_version')!r}")
    record = decode(RunRecord, payload, path)
    per_class, names = record.final_test_metrics.per_class, record.class_names
    if len(per_class) != len(names):
        raise ConfigurationError(
            f"{path}: final_test_metrics.per_class must have one entry per class name ({len(names)}), got {len(per_class)}"
        )
    return record


def write_trajectory_csv(record: RunRecord, path: str | Path) -> None:
    """Per-iteration trajectory (counts, balance, FNR, allocation, shortfall, F1s).

    The leading '#' line carries the config hash and seed; read with
    ``comment='#'`` in plotting tools.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = record.class_names
    with path.open("w", newline="", encoding="utf-8") as f:
        f.write(f"# config_hash={record.config_hash} seed={record.seed} dataset_hash={record.dataset_hash}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["iteration"]
            + [f"count_{n}" for n in names]
            + [f"delta_{n}" for n in names]
            + [f"fnr_{n}" for n in names]
            + [f"alloc_{n}" for n in names]
            + [f"shortfall_{n}" for n in names]
            + ["val_micro_f1", "val_macro_f1", "val_accuracy", "learner_stopped_epoch"]
        )
        for it in record.iterations:
            alloc = it.allocation if it.allocation is not None else [""] * len(names)
            writer.writerow(
                [it.iteration]
                + list(it.train_counts)
                + [_fmt(x) for x in it.delta]
                + [_fmt(x) for x in it.val_fnr]
                + list(alloc)
                + list(it.shortfall)
                + [
                    _fmt(it.val_metrics.micro_f1),
                    _fmt(it.val_metrics.macro_f1),
                    _fmt(it.val_metrics.accuracy),
                    it.learner_stopped_epoch,
                ]
            )


def save_model(model: TrainedModel, path: str | Path, config_hash: str | None = None) -> None:
    """Checkpoint (schema v1): parameter tensors plus shape metadata; the training log is dropped."""
    _write_json(
        path,
        {
            "schema_version": 1,
            "kind": model.kind,
            "feature_dim": model.feature_dim,
            "num_classes": model.num_classes,
            "config_hash": config_hash,
            "best_epoch": model.best_epoch,
            "stopped_epoch": model.stopped_epoch,
            "params": {k: v.tolist() for k, v in model.params.items()},
        },
    )


def load_model(path: str | Path) -> TrainedModel:
    """Rebuild a model from a checkpoint; exact float round-trip."""
    payload = _read_json_object(path)
    params = _json_object(path, payload.get("params"), "'params'")
    if payload.get("schema_version") != 1:
        raise ConfigurationError(f"{path}: unsupported checkpoint schema_version {payload.get('schema_version')!r}")
    try:
        return TrainedModel(
            kind=payload["kind"],
            feature_dim=payload["feature_dim"],
            num_classes=payload["num_classes"],
            params={k: np.asarray(v, dtype=float) for k, v in params.items()},
            stopped_epoch=payload.get("stopped_epoch", 0),
            best_epoch=payload.get("best_epoch", 0),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigurationError(f"{path}: malformed checkpoint ({e})") from e
