"""File formats: dataset CSVs + manifest, run records, model checkpoints.

Dataset layout is one directory holding ``train.csv``, ``val.csv``,
``test.csv`` and ``manifest.json``. Each CSV row is
``id,label,f0..f{d-1}`` with the label as a class name and features printed
with full round-trip precision, so generate -> ingest -> re-emit is
value-identical. The manifest carries class names, feature dimension,
per-split class counts (checked on load), the generator spec for synthetic
data, and a digest of the CSV bytes that run records embed and reports compare.

:func:`write_dataset`, which ``poolal generate`` calls, also writes
``columns.bin``: the parsed columns, so that each later ``run`` or ``sweep``
loads them instead of parsing the CSVs again. It is derived data, safe to
delete, and no reader writes it. Its head holds a magic, the three id widths
and one SHA-256 over the CSVs' digest, the class names its labels index, the
widths and the body: raw little-endian columns in the manifest's shapes, each
split's ``X`` (``<f8``) and ``y`` (``<i8``), then each split's ids as UCS-4.
:func:`read_dataset` loads it only when its size fits the manifest and the
widths and that digest matches; anything else, a dataset from elsewhere or an
older layout included, is read by the one CSV reader, :func:`_read_split_csv`.
Either way the same checks follow.

This module reads and writes every input file and the per-seed outputs; the
aggregate tables are the one exception, written by ``cli._write_tables`` and
:func:`poolal.reporting.write_report_csv`. Configs and generator specs are
YAML, read by :func:`load_yaml`. Every JSON file is written by
:func:`_write_json` and read back by :func:`_read_json` as a dataclass
(:class:`Manifest`, :class:`Checkpoint` or the run record) through
:func:`~poolal.config.decode`, which refuses a missing or unknown key or a
value of the wrong type by name.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
from array import array
from dataclasses import asdict, dataclass, fields, replace
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np
import yaml

from .config import _decode, canonical_hash, decode, persisted
from .core import DatasetBundle, Split, fork_map
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
    "load_yaml",
    "Manifest",
    "Checkpoint",
]

SPLIT_FILES = (("train", "train.csv"), ("validation", "val.csv"), ("test", "test.csv"))
COLUMNS_FILE = "columns.bin"
_COLUMNS_MAGIC = b"poolal columns 2"
_COLUMNS_HEAD = struct.Struct("<16s3Q32s")  # the magic, each split's id width in characters, the digest


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

    def __post_init__(self) -> None:
        splits = [split_name for split_name, _ in SPLIT_FILES]
        if sorted(self.counts) != sorted(splits):
            raise ConfigurationError(f"counts must have the keys {splits}, got {sorted(self.counts)}")


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


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell: quoted, inner quotes doubled, when it holds a comma, a quote or a line break.

    For every id and class name a bundle admits, that is how :mod:`csv` quotes it.
    """
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_split_csv(path: Path, split: Split, class_names: tuple[str, ...], feature_dim: int) -> None:
    """Columns formatted apart, then streamed one line at a time: ``repr`` round-trips every float."""
    names = [_csv_cell(n) for n in class_names]
    columns = [map(repr, column) for column in split.X.T.tolist()]
    cells = zip(map(_csv_cell, split.ids.tolist()), map(names.__getitem__, split.y.tolist()), *columns)
    with path.open("w", newline="", encoding="utf-8") as f:
        f.write(",".join(["id", "label"] + [f"f{i}" for i in range(feature_dim)]) + "\n")
        f.writelines(",".join(row) + "\n" for row in cells)


def _parse_text(path: Path | str, parse: Callable[[str], Any]) -> Any:
    """``parse`` of the text of file ``path``, which must be UTF-8 and not nest past the recursion limit."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"{path}: not UTF-8 text: {e}") from None
    except RecursionError:  # a YAML or JSON value nested thousands deep
        raise ConfigurationError(f"{path}: nested too deeply to read") from None


def load_yaml(path: Path) -> dict:
    """The mapping in YAML file ``path``; a YAML error is one line naming the path, and its line and column."""
    try:
        raw = _parse_text(path, yaml.safe_load)
    except yaml.MarkedYAMLError as e:
        mark = e.problem_mark
        raise ConfigurationError(f"{path}:{mark.line + 1}:{mark.column + 1}: bad YAML: {e.problem}") from None
    except yaml.reader.ReaderError as e:  # a character YAML refuses: a position, no mark
        raise ConfigurationError(f"{path}: bad YAML: {str(e).splitlines()[0]} at position {e.position}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: expected a mapping at top level")
    return raw


def _read_json(cls: type, path: Path | str, what: str) -> Any:
    """The schema v1 ``what`` in JSON file ``path``, decoded as dataclass ``cls``; errors name the path."""
    try:
        payload = _parse_text(path, json.loads)
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


def _csv_digest(data_dir: Path) -> bytes:
    """The SHA-256 of the three split CSVs' bytes, in split order; its first 12 hex digits are the dataset hash."""
    h = hashlib.sha256()
    for _, fname in SPLIT_FILES:
        with (data_dir / fname).open("rb") as f:
            while piece := f.read(1 << 16):  # small pieces: a freed file-sized buffer leaves a hole in the heap
                h.update(piece)
    return h.digest()


def _columns_digest(csv_digest: bytes, class_names: Iterable[str], widths: Iterable[int], body: Iterable) -> bytes:
    """The SHA-256 in a columns file's head: of the CSVs' digest, the class names' digest, the id widths, the body."""
    names = hashlib.sha256(json.dumps(list(class_names)).encode("utf-8")).digest()
    h = hashlib.sha256(csv_digest + names + struct.pack("<3Q", *widths))
    for piece in body:
        h.update(piece)
    return h.digest()


def _read_columns(path: Path, csv_digest: bytes, manifest: Manifest) -> dict[str, tuple] | None:
    """Each split's ``(X, y, ids)``, read-only views of the file ``path``, or None where it may not stand for the CSVs.

    The file must open with the magic and be as long as the head and the body
    the manifest's counts and ``feature_dim`` and the head's id widths imply,
    checked before the body is read; then the head's digest must be that of
    the body, the CSVs and the manifest's class names. A missing file gives None too.
    """
    rows, d = [sum(manifest.counts[split_name]) for split_name, _ in SPLIT_FILES], manifest.feature_dim
    try:
        with path.open("rb", buffering=0) as f:  # unbuffered: the body is read in one call, into one buffer
            magic, *widths, digest = _COLUMNS_HEAD.unpack(f.read(_COLUMNS_HEAD.size))
            # (dtype, items, bytes) of each block in file order; the numeric blocks first keeps them 8-byte aligned
            blocks = [block for n in rows for block in (("<f8", n * d, 8 * n * d), ("<i8", n, 8 * n))]
            blocks += [(f"<U{w}", n, 4 * w * n) for n, w in zip(rows, widths)]
            size = os.fstat(f.fileno()).st_size - _COLUMNS_HEAD.size
            if magic != _COLUMNS_MAGIC or d < 1 or min(rows) < 0 or min(widths) < 1 or size != sum(b[2] for b in blocks):
                return None
            body = f.read()
    except (OSError, struct.error):  # struct.error: a file shorter than the head
        return None
    if _columns_digest(csv_digest, manifest.classes, widths, [body]) != digest:
        return None
    offsets = accumulate((b[2] for b in blocks), initial=0)
    views = [np.frombuffer(body, dtype, items, offset) for (dtype, items, _), offset in zip(blocks, offsets)]
    X, y, ids = views[0:6:2], views[1:6:2], views[6:]
    return {split_name: (X[i].reshape(rows[i], d), y[i], ids[i]) for i, (split_name, _) in enumerate(SPLIT_FILES)}


def write_dataset(bundle: DatasetBundle, out_dir: str | Path, generator_spec: GeneratorSpec | None = None) -> str:
    """Write the split CSVs (``train.csv`` in a forked child), the columns file and the manifest; returns the hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write_csvs(files: tuple[tuple[str, str], ...]) -> None:
        for split_name, fname in files:
            _write_split_csv(out / fname, getattr(bundle, split_name), bundle.class_names, bundle.feature_dim)

    fork_map(write_csvs, [SPLIT_FILES[:1], SPLIT_FILES[1:]], lambda files, why: OSError(f"{out / files[0][1]}: {why}"))
    csv_digest = _csv_digest(out)
    splits = [getattr(bundle, split_name) for split_name, _ in SPLIT_FILES]
    # each id column as wide as its longest id, as the CSV parse makes it
    ids = [np.ascontiguousarray(s.ids, f"<U{np.char.str_len(s.ids).max(initial=1)}") for s in splits]
    body = [np.ascontiguousarray(a, dtype) for s in splits for a, dtype in ((s.X, "<f8"), (s.y, "<i8"))] + ids
    widths = [column.itemsize // 4 for column in ids]
    digest = _columns_digest(csv_digest, bundle.class_names, widths, body)
    with (out / COLUMNS_FILE).open("wb") as f:
        f.write(_COLUMNS_HEAD.pack(_COLUMNS_MAGIC, *widths, digest))
        f.writelines(body)
    dataset_hash = csv_digest.hex()[:12]
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


def _read_split_csv(path: Path, name_to_index: dict[str, int], feature_dim: int) -> tuple[np.ndarray, array, list[str]]:
    """One split CSV's ``(X, y, ids)``, read row by row with :mod:`csv` and ``float``.

    A wrong header or the first faulty row raises, naming the path and the
    row's line; a byte that is not UTF-8, anywhere in the file, raises naming the path.
    """
    ids: list[str] = []
    labels = array("q")
    features = array("d")
    try:
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
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"{path}: not UTF-8 text: {e}") from None
    except csv.Error as e:  # such as a field over csv's size limit
        raise ConfigurationError(f"{path}:{reader.line_num}: {e}") from None
    return np.frombuffer(features, dtype=np.float64).reshape(len(ids), feature_dim), labels, ids


def read_dataset(data_dir: str | Path) -> tuple[DatasetBundle, str, Manifest]:
    """Load a dataset directory, checking it against its manifest; returns (bundle, dataset_hash, manifest)."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigurationError(f"no manifest.json in {data_dir}")
    manifest = _read_json(Manifest, manifest_path, "manifest")

    paths = {split_name: data_dir / fname for split_name, fname in SPLIT_FILES}
    # with a split file missing, the loop below names it where the CSV reader always did
    csv_digest = _csv_digest(data_dir) if all(path.is_file() for path in paths.values()) else None
    stored = None if csv_digest is None else _read_columns(data_dir / COLUMNS_FILE, csv_digest, manifest)
    name_to_index = {n: i for i, n in enumerate(manifest.classes)}
    splits = {}
    for split_name, path in paths.items():
        if not path.is_file():
            raise ConfigurationError(f"missing split file {path}")
        columns = stored[split_name] if stored else _read_split_csv(path, name_to_index, manifest.feature_dim)
        try:
            splits[split_name] = Split(*columns)
        except ConfigurationError as e:
            raise ConfigurationError(f"{path}: {e}") from None

    dataset_hash = csv_digest.hex()[:12]
    declared = manifest.dataset_hash
    if declared is not None and declared != dataset_hash:
        raise ConfigurationError(
            f"dataset files do not match the manifest hash (declared {declared}, actual {dataset_hash})"
        )

    bundle = DatasetBundle.build(manifest.classes, *splits.values(), manifest.feature_dim)
    for split_name, path in paths.items():  # after the build, which refuses a label out of range
        counts, declared = bundle.split_counts(splits[split_name]), manifest.counts[split_name]
        if counts != declared:
            raise ConfigurationError(f"{path}: class counts {counts} differ from the manifest's {declared}")
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
    """Every persisted field (:func:`poolal.config.persisted`), as JSON; byte-identical for identical runs."""
    dropped = {f.name: None for f in fields(record) if not persisted(f)}
    payload = asdict(replace(record, **dropped))
    for name in dropped:
        del payload[name]
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
