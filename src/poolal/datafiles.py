"""File formats: dataset CSVs + manifest, run records, model checkpoints.

Dataset layout is one directory holding ``train.csv``, ``val.csv``,
``test.csv`` and ``manifest.json``. Each CSV row is
``id,label,f0..f{d-1}`` with the label as a class name and features printed
with full round-trip precision, so generate -> ingest -> re-emit is
value-identical. The manifest carries class names, feature dimension,
per-split class counts (checked on load), the generator spec for synthetic
data, and a digest of the CSV bytes that run records embed and reports compare.

This is the one module that knows a file format. Every JSON file is written by
:func:`_write_json` and read back by :func:`_read_json` as a dataclass
(:class:`Manifest`, :class:`Checkpoint` or the run record) through
:func:`~poolal.config.decode`, which refuses a missing or unknown key or a
value of the wrong type by name.
"""

from __future__ import annotations

import csv
import hashlib
import json
from array import array
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .config import _decode, canonical_hash, decode
from .core import DatasetBundle, Split
from .engine import RunRecord
from .errors import ConfigurationError
from .learner import KINDS, PARAM_AXES, TrainedModel
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
    "Manifest",
    "Checkpoint",
]

SPLIT_FILES = (("train", "train.csv"), ("validation", "val.csv"), ("test", "test.csv"))


@dataclass(frozen=True)
class Manifest:
    """A dataset directory's ``manifest.json`` (schema v1).

    ``counts`` maps ``train``, ``validation`` and ``test`` to the split's
    per-class row counts; ``generator`` is the synthetic data's generator
    spec, or null for data from elsewhere. With ``dataset_hash`` left out,
    the hash is computed on load.
    """

    schema_version: int
    classes: list[str]
    feature_dim: int
    counts: dict[str, list[int]]
    generator: dict | None = None
    dataset_hash: str | None = None


@dataclass(frozen=True)
class Checkpoint:
    """A model checkpoint file (schema v1); :func:`load_model` checks ``params`` against the kind's shapes."""

    schema_version: int
    kind: str
    feature_dim: int
    num_classes: int
    params: dict
    config_hash: str | None = None
    best_epoch: int = 0
    stopped_epoch: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"kind must be one of {KINDS}, got {self.kind!r}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_split_csv(path: Path, split: Split, class_names: tuple[str, ...], feature_dim: int) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(feature_dim)])
        for sample_id, label, features in zip(split.ids.tolist(), split.y.tolist(), split.X.tolist()):
            writer.writerow([sample_id, class_names[label], *map(repr, features)])


def _read_json(cls: type, path: Path | str, what: str) -> Any:
    """The schema v1 ``what`` in JSON file ``path``, decoded as dataclass ``cls``; errors name the path."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"{path}: not valid JSON: {e}") from None
    if isinstance(payload, dict) and payload.get("schema_version") != 1:
        raise ConfigurationError(f"{path}: unsupported {what} schema_version {payload.get('schema_version')!r}")
    return decode(cls, payload, path)


def _write_json(path: Path | str, payload: dict) -> None:
    """Indented, key-sorted JSON with a final newline: equal payloads give equal bytes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _hash_csv_files(out_dir: Path) -> str:
    h = hashlib.sha256()
    for _, fname in SPLIT_FILES:
        h.update((out_dir / fname).read_bytes())
    return h.hexdigest()[:12]


def write_dataset(bundle: DatasetBundle, out_dir: str | Path, generator_spec: GeneratorSpec | None = None) -> str:
    """Write the three split CSVs and the manifest; returns the dataset hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split_name, fname in SPLIT_FILES:
        _write_split_csv(out / fname, getattr(bundle, split_name), bundle.class_names, bundle.feature_dim)
    dataset_hash = _hash_csv_files(out)
    manifest = Manifest(
        schema_version=1,
        classes=list(bundle.class_names),
        feature_dim=bundle.feature_dim,
        counts={split_name: bundle.split_counts(getattr(bundle, split_name)) for split_name, _ in SPLIT_FILES},
        generator=None if generator_spec is None else asdict(generator_spec),
        dataset_hash=dataset_hash,
    )
    _write_json(out / "manifest.json", asdict(manifest))
    return dataset_hash


def _read_split_csv(path: Path, name_to_index: dict[str, int], feature_dim: int) -> Split:
    ids: list[str] = []
    labels = array("q")
    features = array("d")
    with path.open("r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None) or []
        # the length first: a huge manifest feature_dim must not build its column names
        if len(header) != 2 + feature_dim or header != ["id", "label"] + [f"f{i}" for i in range(feature_dim)]:
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


def read_dataset(data_dir: str | Path) -> tuple[DatasetBundle, str, Manifest]:
    """Load a dataset directory, checking it against its manifest; returns (bundle, dataset_hash, manifest)."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigurationError(f"no manifest.json in {data_dir}")
    manifest = _read_json(Manifest, manifest_path, "manifest")

    name_to_index = {n: i for i, n in enumerate(manifest.classes)}
    splits = {}
    for split_name, fname in SPLIT_FILES:
        path = data_dir / fname
        if not path.is_file():
            raise ConfigurationError(f"missing split file {path}")
        split = _read_split_csv(path, name_to_index, manifest.feature_dim)
        counts = np.bincount(split.y, minlength=len(manifest.classes)).tolist()
        declared = manifest.counts.get(split_name)
        if counts != declared:
            raise ConfigurationError(f"{path}: class counts {counts} differ from the manifest's {declared}")
        splits[split_name] = split

    dataset_hash = _hash_csv_files(data_dir)
    declared = manifest.dataset_hash
    if declared is not None and declared != dataset_hash:
        raise ConfigurationError(
            f"dataset files do not match the manifest hash (declared {declared}, actual {dataset_hash})"
        )

    bundle = DatasetBundle.build(
        manifest.classes, splits["train"], splits["validation"], splits["test"], manifest.feature_dim
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
    record = _read_json(RunRecord, path, "run record")
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
    checkpoint = Checkpoint(
        schema_version=1,
        kind=model.kind,
        feature_dim=model.feature_dim,
        num_classes=model.num_classes,
        params={k: v.tolist() for k, v in model.params.items()},
        config_hash=config_hash,
        best_epoch=model.best_epoch,
        stopped_epoch=model.stopped_epoch,
    )
    _write_json(path, asdict(checkpoint))


def load_model(path: str | Path) -> TrainedModel:
    """Rebuild a model from a checkpoint, checking each field and each parameter's name and shape.

    Floats round-trip exactly.
    """
    checkpoint = _read_json(Checkpoint, path, "checkpoint")
    axes = PARAM_AXES[checkpoint.kind]
    if sorted(checkpoint.params) != sorted(axes):
        raise ConfigurationError(
            f"{path}: {checkpoint.kind} params must be {sorted(axes)}, got {sorted(checkpoint.params)}"
        )
    dims = {"d": checkpoint.feature_dim, "I": checkpoint.num_classes}
    params = {}
    for name, axis_names in axes.items():
        where = f"{path}: params.{name}"
        if len(axis_names) == 2:
            rows = _decode(list[list[float]], checkpoint.params[name], where)
            shape = (len(rows), *{len(row) for row in rows})  # a ragged matrix gets more than two
        else:
            rows = _decode(list[float], checkpoint.params[name], where)
            shape = (len(rows),)
        if name == "W1":  # H, the hidden width, is read from W1's columns
            dims["H"] = shape[-1]
        expected = tuple(dims[a] for a in axis_names)
        if shape != expected:
            raise ConfigurationError(f"{where} must have shape {expected}, got {shape}")
        params[name] = np.array(rows)
    return TrainedModel(
        kind=checkpoint.kind,
        feature_dim=checkpoint.feature_dim,
        num_classes=checkpoint.num_classes,
        params=params,
        stopped_epoch=checkpoint.stopped_epoch,
        best_epoch=checkpoint.best_epoch,
    )
