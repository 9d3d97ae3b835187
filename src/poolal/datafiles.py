"""File formats: dataset CSVs + manifest, run records, model checkpoints.

Dataset layout is one directory holding ``train.csv``, ``val.csv``,
``test.csv`` and ``manifest.json``. Each CSV row is
``id,label,f0..f{d-1}`` with the label as a class name and features printed
with full round-trip precision, so generate -> ingest -> re-emit is
value-identical. The manifest carries class names, feature dimension,
per-split class counts (checked on load), the generator spec for synthetic
data, and a digest of the CSV bytes that run records embed and reports compare.
"""

from __future__ import annotations

import csv
import hashlib
import json
from array import array
from pathlib import Path

import numpy as np

from .config import canonical_hash
from .core import ClassId, DatasetBundle, Split
from .engine import RunRecord
from .errors import ConfigurationError
from .learner import TrainedModel, model_from_dict, model_to_dict
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
        "generator": None if generator_spec is None else generator_spec.to_dict(),
        "dataset_hash": dataset_hash,
    }
    with (out / "manifest.json").open("w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
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
        feature_dim = int(manifest["feature_dim"])
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
        return generate(spec), canonical_hash(spec.to_dict())
    return read_dataset(source)[:2]


def save_run_record(record: RunRecord, path: str | Path) -> None:
    """Pretty-printed, key-sorted JSON; byte-identical for identical runs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        json.dump(record.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def load_run_record(path: str | Path) -> RunRecord:
    payload = _read_json_object(path)
    try:
        return RunRecord.from_dict(payload)
    except (KeyError, TypeError) as e:
        raise ConfigurationError(f"{path}: malformed run record ({e})") from e


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        json.dump(model_to_dict(model, config_hash), f, indent=2, sort_keys=True)
        f.write("\n")


def load_model(path: str | Path) -> TrainedModel:
    payload = _read_json_object(path)
    _json_object(path, payload.get("params"), "'params'")
    try:
        return model_from_dict(payload)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigurationError(f"{path}: malformed checkpoint ({e})") from e
