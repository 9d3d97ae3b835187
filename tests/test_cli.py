from __future__ import annotations

import copy
import gc
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_reaped
from oracles import reference_read_split_csv
from test_golden import ARMS
from poolal.cli import main
from poolal.config import ExperimentConfig
from poolal.datafiles import (
    COLUMNS_FILE,
    SPLIT_FILES,
    _write_split_csv,
    load_model,
    load_run_record,
    read_dataset,
    save_model,
    save_run_record,
    write_dataset,
)
from poolal.engine import _run_one_star
from poolal.errors import ConfigurationError
from poolal.learner import LearnerConfig

GEN_SPEC = {
    "num_classes": 3,
    "feature_dim": 4,
    "per_class_train_counts": [60, 90, 120],
    "per_class_val_counts": [30, 30, 30],
    "per_class_test_counts": [30, 30, 30],
    "class_sigmas": [1.0, 1.0, 1.0],
    "auto_scale": 3.0,
    "overlap_pairs": [[2, 1, 0.3]],
    "seed": 5,
}

RUN_CFG = {
    "arm": "al",
    "strategy": "fnr_proportional",
    "per_class_initial": 15,
    "budget": 20,
    "max_iterations": 2,
    "seeds": [0, 1],
    "learner": {
        "kind": "softmax_linear",
        "learning_rate": 0.1,
        "batch_size": 32,
        "max_epochs": 20,
        "patience": 3,
    },
}


CONFIG_FILES = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))
TOP_FIELDS = sorted({f.name for f in fields(ExperimentConfig)} | {"candidate_count", "select_count"})
LEARNER_FIELDS = sorted(f.name for f in fields(LearnerConfig))
FIELD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=2),
    max_leaves=4,
)


def _slots(tree):
    """Every (container, key) pair below the root of a JSON tree."""
    keys = tree.keys() if isinstance(tree, dict) else range(len(tree)) if isinstance(tree, list) else ()
    for key in list(keys):
        yield tree, key
        yield from _slots(tree[key])


# Values small enough to run: an unbounded max_epochs or patience never ends, and
# an unbounded hidden_units or feature_dim exhausts memory.
BOUNDED_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats(-1000, 1000) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=2),
    max_leaves=4,
)


def mutate(data, tree: dict, values=FIELD_VALUES) -> None:
    """Drop a key, add a key, or give a value another type, somewhere in ``tree``."""
    op = data.draw(st.sampled_from(["drop", "add", "swap"]))
    slots = list(_slots(tree))
    if op == "add":
        node = data.draw(st.sampled_from([tree] + [c[k] for c, k in slots if isinstance(c[k], dict)]))
        node[data.draw(st.text(max_size=6))] = data.draw(values)
    elif op == "drop":
        container, key = data.draw(st.sampled_from([(c, k) for c, k in slots if isinstance(c, dict)]))
        del container[key]
    else:
        container, key = data.draw(st.sampled_from(slots))
        container[key] = data.draw(values.filter(lambda v: type(v) is not type(container[key])))


def assert_exit_0_or_one_error_line(capsys, argv: list[str]) -> None:
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def write_yaml(path: Path, payload: dict) -> Path:
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


@pytest.fixture()
def dataset_dir(tmp_path):
    spec_file = write_yaml(tmp_path / "genspec.yaml", GEN_SPEC)
    out = tmp_path / "data"
    assert main(["generate", "--spec", str(spec_file), "--out", str(out)]) == 0
    return out


@pytest.fixture()
def run_cfg_file(tmp_path, dataset_dir):
    cfg = dict(RUN_CFG, dataset=str(dataset_dir), output_dir=str(tmp_path / "out"))
    return write_yaml(tmp_path / "cfg.yaml", cfg)


class TestExperimentConfig:
    def base(self, **overrides):
        d = dict(RUN_CFG, dataset="preset:paper-shape")
        d.update(overrides)
        return d

    def test_valid_config_parses(self):
        cfg = ExperimentConfig.from_dict(self.base())
        assert cfg.strategy == "fnr_proportional"
        assert cfg.seeds == (0, 1)

    def test_conflicting_sl_fraction_and_strategy(self):
        with pytest.raises(ConfigurationError, match="conflicting fields"):
            ExperimentConfig.from_dict(self.base(arm="sl", sl_fraction=0.5))
        with pytest.raises(ConfigurationError, match="conflicting fields"):
            ExperimentConfig.from_dict(self.base(sl_fraction=0.5))

    def test_sl_requires_fraction(self):
        d = self.base(arm="sl")
        d.pop("strategy")
        with pytest.raises(ConfigurationError, match="requires sl_fraction"):
            ExperimentConfig.from_dict(d)

    def test_al_requires_stopping_criterion(self):
        with pytest.raises(ConfigurationError, match="stopping criterion"):
            ExperimentConfig.from_dict(self.base(max_iterations=None, stop_on_exhaustion=False))

    def test_needs_at_least_one_criterion(self):
        d = self.base()
        d.pop("max_iterations")
        with pytest.raises(ConfigurationError, match="at least one stopping criterion"):
            ExperimentConfig.from_dict(d)

    def test_iteration_cap_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            ExperimentConfig.from_dict(self.base(max_iterations=0))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match=re.escape("unknown keys ['bogus']")):
            ExperimentConfig.from_dict(self.base(bogus=1))

    def test_entropy_reference_scale_expressible(self):
        cfg = ExperimentConfig.from_dict(
            self.base(strategy="entropy_topk", candidate_count=30000, select_count=20000)
        )
        assert cfg.candidate_count == 30000
        assert cfg.select_count == 20000

    def test_entropy_counts_without_entropy_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(self.base(candidate_count=10, select_count=5))

    def test_config_hash_ignores_seeds_output_and_data_location(self):
        a = ExperimentConfig.from_dict(self.base(seeds=[0, 1], output_dir="x"))
        b = ExperimentConfig.from_dict(self.base(seeds=[5], output_dir="y", dataset="elsewhere/data"))
        c = ExperimentConfig.from_dict(self.base(budget=21))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_learner_floats_stored_as_floats(self):
        learner = RUN_CFG["learner"]
        ints = ExperimentConfig.from_dict(self.base(learner=dict(learner, learning_rate=0, init_scale=1)))
        floats = ExperimentConfig.from_dict(self.base(learner=dict(learner, learning_rate=0.0, init_scale=1.0)))
        assert type(ints.learner.learning_rate) is float and type(ints.learner.init_scale) is float
        assert ints.config_hash() == floats.config_hash()

    def test_null_optional_key_means_left_out(self):
        given = {"dataset": "d", "arm": "sl", "sl_fraction": 0.5}
        nulls = dict.fromkeys(["strategy", "candidate_count", "select_count", "per_class_initial", "budget"])
        nulls.update(max_iterations=None, stop_on_exhaustion=None, learner=None)
        assert ExperimentConfig.from_dict(dict(given, **nulls)) == ExperimentConfig.from_dict(given)

    @pytest.mark.parametrize(
        "given, message",
        [
            (dict(RUN_CFG, arm="xl"), "arm must be 'al' or 'sl', got 'xl'"),
            (dict(RUN_CFG, budget=0), "budget must be >= 1, got 0"),
            ({"arm": "sl", "sl_fraction": 0.5, "per_class_initial": -1}, "per_class_initial must be >= 0, got -1"),
            pytest.param(
                dict(RUN_CFG, strategy="entropy_topk", candidate_count=40, select_count=20, budget=-7),
                "budget must be >= 0, got -7",
                id="negative-budget-entropy_topk",
            ),
            pytest.param(dict(RUN_CFG, strategy="none", budget=-7), "budget must be >= 0, got -7", id="negative-budget-none"),
            pytest.param(
                {"arm": "sl", "sl_fraction": 0.5, "budget": -7}, "budget must be >= 0, got -7", id="negative-budget-sl"
            ),
            ({"arm": "sl", "sl_fraction": 0}, "sl_fraction must be in (0, 1], got 0.0"),
            (
                {"arm": "sl", "sl_fraction": 0.5, "candidate_count": 10},
                "candidate_count/select_count require strategy 'entropy_topk'",
            ),
            pytest.param(
                dict(RUN_CFG, candidate_count=10),
                "candidate_count/select_count require strategy 'entropy_topk'",
                id="counts-fnr_proportional",
            ),
            pytest.param(
                dict(RUN_CFG, strategy="entropy_topk", candidate_count=20, select_count=30),
                "select_count (30) must be <= candidate_count (20)",
                id="select-above-candidates",
            ),
            ({"arm": "sl", "sl_fraction": 1.5}, "sl_fraction must be in (0, 1], got 1.5"),
        ],
    )
    def test_refusal_is_the_whole_error(self, given, message):
        with pytest.raises(ConfigurationError) as e:
            ExperimentConfig.from_dict(dict(given, dataset="d"))
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "given",
        [
            *(pytest.param(yaml.safe_load(p.read_text(encoding="utf-8")), id=p.name) for p in CONFIG_FILES),
            *(pytest.param(dict(arm, dataset="data"), id=f"golden-{name}") for name, arm in ARMS.items()),
        ],
    )
    def test_config_round_trips_through_its_dict(self, given):
        cfg = ExperimentConfig.from_dict(given)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.sampled_from(["fnr", "entropy", "sl"]),
        top=st.dictionaries(st.sampled_from(TOP_FIELDS), FIELD_VALUES, max_size=3),
        learner=st.dictionaries(st.sampled_from(LEARNER_FIELDS), FIELD_VALUES, max_size=2),
    )
    def test_mutated_fields_give_a_config_or_a_configuration_error(self, base, top, learner):
        d = {
            "fnr": self.base(),
            "entropy": self.base(strategy="entropy_topk", budget=0, candidate_count=40, select_count=20),
            "sl": {"dataset": "data", "arm": "sl", "sl_fraction": 0.5, "learner": RUN_CFG["learner"]},
        }[base]
        d = dict(d, learner=dict(d["learner"], **learner))
        d.update(top)
        try:
            assert isinstance(ExperimentConfig.from_dict(d), ExperimentConfig)
        except ConfigurationError:
            pass


class TestGenerateVerb:
    def test_writes_all_files_with_matching_manifest(self, dataset_dir):
        for fname in ("train.csv", "val.csv", "test.csv", "manifest.json"):
            assert (dataset_dir / fname).is_file()
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["counts"]["train"] == [60, 90, 120]
        assert manifest["generator"]["seed"] == 5

    def test_regeneration_is_checksum_equal(self, tmp_path):
        spec_file = write_yaml(tmp_path / "g.yaml", GEN_SPEC)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["generate", "--spec", str(spec_file), "--out", str(out1)]) == 0
        assert main(["generate", "--spec", str(spec_file), "--out", str(out2)]) == 0
        files = ["train.csv", "val.csv", "test.csv", "manifest.json", COLUMNS_FILE]
        for fname in files:
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
        # another seed into the same directory replaces each file, the columns file too
        assert main(["generate", "--spec", str(spec_file), "--seed", "99", "--out", str(out1)]) == 0
        assert sorted(p.name for p in out1.iterdir()) == sorted(files)
        assert (out1 / COLUMNS_FILE).read_bytes() != (out2 / COLUMNS_FILE).read_bytes()
        with mock.patch("poolal.datafiles._read_split_csv", side_effect=AssertionError("parsed a CSV")):
            read_dataset(out1)  # the new columns file stands for the new CSVs

    def test_preset_generate(self, tmp_path):
        out = tmp_path / "preset-data"
        assert main(["generate", "--preset", "paper-shape", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["classes"] == ["blood", "damaged", "muscle", "stroma", "urothelium"]
        assert sum(manifest["counts"]["train"]) == 34603

    def test_seed_override_changes_data(self, tmp_path):
        spec_file = write_yaml(tmp_path / "g.yaml", GEN_SPEC)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        main(["generate", "--spec", str(spec_file), "--out", str(out1)])
        main(["generate", "--spec", str(spec_file), "--seed", "99", "--out", str(out2)])
        assert (out1 / "train.csv").read_bytes() != (out2 / "train.csv").read_bytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("seed"), "missing keys ['seed']"),
            (lambda d: d.update(bogus=1), "unknown keys ['bogus']"),
            (lambda d: d.update(class_sigmas=["a", 1, 1]), "class_sigmas[0] must be a finite number, got 'a'"),
            (lambda d: d.update(per_class_train_counts=[5.5, 5, 5]), "per_class_train_counts[0] must be an integer"),
            (lambda d: d.update(overlap_pairs=[[2, 1]]), "overlap_pairs[0] must have 3 entries, got 2"),
            (lambda d: d.update(seed=-1), "seed must be >= 0, got -1"),
        ],
    )
    def test_malformed_spec_exits_2_naming_the_field(self, tmp_path, capsys, edit, message):
        spec = copy.deepcopy(GEN_SPEC)
        edit(spec)
        spec_file = write_yaml(tmp_path / "g.yaml", spec)
        assert main(["generate", "--spec", str(spec_file), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{spec_file}: {message}" in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("source", ["--preset", "--spec"])
    def test_negative_seed_override_exits_2(self, tmp_path, capsys, source):
        spec = ["paper-shape"] if source == "--preset" else [str(write_yaml(tmp_path / "g.yaml", GEN_SPEC))]
        assert main(["generate", source, *spec, "--seed", "-1", "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed must be >= 0, got -1" in err

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_spec_exits_0_or_2(self, tmp_path, capsys, data):
        spec = copy.deepcopy(GEN_SPEC)
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data, spec)
        spec_file = write_yaml(tmp_path / "g.yaml", spec)
        assert_exit_0_or_one_error_line(capsys, ["generate", "--spec", str(spec_file), "--out", str(tmp_path / "d")])

    def test_unwritable_out_path_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["generate", "--preset", "paper-shape", "--out", str(blocker / "sub")])
        assert rc == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_a_split_file_that_cannot_be_written_is_one_error_line(self, tmp_path, capsys, forked):
        """``train.csv`` is written in a forked child; its failure reads as one written here."""
        spec_file = write_yaml(tmp_path / "g.yaml", GEN_SPEC)
        out = tmp_path / "d"
        (out / "train.csv").mkdir(parents=True)
        assert main(["generate", "--spec", str(spec_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out / 'train.csv'}'\n"
        assert_reaped(forked)

    def test_a_writer_child_that_dies_is_one_error_line_naming_train_csv(self, tmp_path, capsys, monkeypatch, forked):
        parent = os.getpid()

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(9)
            return _write_split_csv(*args)

        monkeypatch.setattr("poolal.datafiles._write_split_csv", die_in_child)
        spec_file = write_yaml(tmp_path / "g.yaml", GEN_SPEC)
        out = tmp_path / "d"
        assert main(["generate", "--spec", str(spec_file), "--out", str(out)]) == 2
        expected = f"error: {out / 'train.csv'}: its process ended with exit code 9 and sent no result\n"
        assert capsys.readouterr().err == expected
        assert len(forked) == 1
        assert_reaped(forked)


class TestDatasetRoundTrip:
    def test_read_back_values_identical(self, dataset_dir, tmp_path):
        bundle, dataset_hash, manifest = read_dataset(dataset_dir)
        assert manifest.dataset_hash == dataset_hash
        re_emitted = tmp_path / "re"
        write_dataset(bundle, re_emitted)
        for fname in ("train.csv", "val.csv", "test.csv"):
            assert (re_emitted / fname).read_bytes() == (dataset_dir / fname).read_bytes()

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="manifest"):
            read_dataset(tmp_path)

    def test_tampered_files_rejected(self, dataset_dir):
        path = dataset_dir / "train.csv"
        content = path.read_text().replace("train-000000", "train-0000XX", 1)
        path.write_text(content)
        with pytest.raises(ConfigurationError, match="manifest hash"):
            read_dataset(dataset_dir)

    def test_unknown_class_name_rejected(self, dataset_dir):
        manifest_path = dataset_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["classes"] = ["a", "b", "c"]  # no longer matches rows
        manifest.pop("dataset_hash")
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="unknown class name"):
            read_dataset(dataset_dir)


def _edit_manifest(dataset_dir, edit):
    path = dataset_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestIngestFaults:
    """Malformed dataset input makes ``run`` exit 2 with exactly one ``error:`` line."""

    def _run_fails(self, run_cfg_file, capsys, expected):
        assert main(["run", "--config", str(run_cfg_file)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert expected in err

    def test_non_numeric_cell_names_path_and_line(self, run_cfg_file, dataset_dir, capsys):
        path = dataset_dir / "train.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[3].split(",")
        cells[2] = "abc"
        lines[3] = ",".join(cells)
        path.write_text("".join(lines))
        self._run_fails(run_cfg_file, capsys, f"{path}:4: could not convert string to float: 'abc'")

    def test_non_utf8_file_names_path(self, run_cfg_file, dataset_dir, capsys):
        path = dataset_dir / "train.csv"
        text = path.read_bytes()
        last_row = text.rindex(b"\ntrain-") + 1
        assert last_row > 8192  # past the first chunk the text decoder reads
        for row in (text.index(b"train-000003"), last_row):  # the byte on line 4, then on the last line
            path.write_bytes(text[: row + 6] + b"\xff" + text[row + 7 :])
            self._run_fails(run_cfg_file, capsys, f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")

    def test_malformed_manifest_json(self, run_cfg_file, dataset_dir, capsys):
        (dataset_dir / "manifest.json").write_text("{not json")
        self._run_fails(run_cfg_file, capsys, "manifest.json: not valid JSON")

    def test_manifest_without_classes(self, run_cfg_file, dataset_dir, capsys):
        _edit_manifest(dataset_dir, lambda m: m.pop("classes"))
        self._run_fails(run_cfg_file, capsys, "manifest.json: missing keys ['classes']")

    def test_manifest_classes_must_be_a_list(self, run_cfg_file, dataset_dir, capsys):
        _edit_manifest(dataset_dir, lambda m: m.update(classes="".join(m["classes"])))
        self._run_fails(run_cfg_file, capsys, "manifest.json: classes must be a list, got '")

    def test_a_key_with_a_line_break_stays_on_the_error_line(self, run_cfg_file, dataset_dir, capsys):
        _edit_manifest(dataset_dir, lambda m: m["counts"].update({"\n": None}))
        self._run_fails(run_cfg_file, capsys, "manifest.json: counts.'\\n' must be a list, got None")

    def test_manifest_feature_dim_must_be_an_integer(self, run_cfg_file, dataset_dir, capsys):
        _edit_manifest(dataset_dir, lambda m: m.update(feature_dim=4.7))
        self._run_fails(run_cfg_file, capsys, "manifest.json: feature_dim must be an integer, got 4.7")

    def test_huge_manifest_feature_dim_refused_by_the_header_length(self, run_cfg_file, dataset_dir, capsys):
        _edit_manifest(dataset_dir, lambda m: m.update(feature_dim=10**12))
        self._run_fails(run_cfg_file, capsys, "train.csv: unexpected header ['id', 'label', 'f0', 'f1', 'f2', 'f3']")

    def test_unknown_manifest_key_refused(self, run_cfg_file, dataset_dir, capsys):
        _edit_manifest(dataset_dir, lambda m: m.update(source="scanner"))
        self._run_fails(run_cfg_file, capsys, "manifest.json: unknown keys ['source']")

    @pytest.mark.parametrize(
        "edit, keys",
        [
            (lambda counts: counts.update(bogus=[1, 2]), "['bogus', 'test', 'train', 'validation']"),
            (lambda counts: counts.pop("validation"), "['test', 'train']"),
        ],
        ids=["unknown-split", "missing-split"],
    )
    def test_manifest_counts_must_name_the_three_splits(self, run_cfg_file, dataset_dir, capsys, edit, keys):
        _edit_manifest(dataset_dir, lambda m: edit(m["counts"]))
        self._run_fails(
            run_cfg_file,
            capsys,
            f"{dataset_dir / 'manifest.json'}: counts must have the keys ['train', 'validation', 'test'], got {keys}",
        )

    def test_manifest_counts_must_match_the_csv(self, run_cfg_file, dataset_dir, capsys):
        def shift_one(manifest):
            manifest["counts"]["validation"][0] += 1
            manifest["counts"]["validation"][1] -= 1

        _edit_manifest(dataset_dir, shift_one)
        self._run_fails(
            run_cfg_file, capsys, "val.csv: class counts [30, 30, 30] differ from the manifest's [31, 29, 30]"
        )


def _edit_row(cells_edit):
    """An edit of ``train.csv``'s line 4, given as a function of its cells."""

    def edit(dataset_dir):
        path = dataset_dir / "train.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = ",".join(cells_edit(lines[3].rstrip("\n").split(","))) + "\n"
        path.write_text("".join(lines), encoding="utf-8")

    return edit


def _blank_line(dataset_dir):
    path = dataset_dir / "train.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_bytes("".join(lines[:3] + ["\n"] + lines[3:]).encode("utf-8"))


def _crlf(dataset_dir):
    for fname in ("train.csv", "val.csv", "test.csv"):
        path = dataset_dir / fname
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


def _cr_only(dataset_dir):
    for fname in ("train.csv", "val.csv", "test.csv"):
        path = dataset_dir / fname
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))


def _header_only_val(dataset_dir):
    path = dataset_dir / "val.csv"
    path.write_text(path.read_text(encoding="utf-8").splitlines(keepends=True)[0], encoding="utf-8")
    _edit_manifest(dataset_dir, lambda m: m["counts"].update(validation=[0, 0, 0]))


class TestIngestEdgeCases:
    """Each edited dataset either loads as the reference reader reads it, or ``run`` exits 2 with one ``error:`` line.

    The manifest's hash is dropped first, so the edit reaches the CSV reader.
    ``expected`` is None for a dataset that loads, or the error, where
    ``{path}`` is the edited ``train.csv``.
    """

    @pytest.mark.filterwarnings("error")  # no numpy warning may reach the user
    @pytest.mark.parametrize(
        "edit, expected",
        [
            pytest.param(_blank_line, "{path}:4: expected 6 columns, got 0", id="blank-line"),
            pytest.param(_edit_row(lambda c: c + ["0.5"]), "{path}:4: expected 6 columns, got 7", id="extra-column"),
            pytest.param(_edit_row(lambda c: c[:-1]), "{path}:4: expected 6 columns, got 5", id="missing-column"),
            pytest.param(
                _edit_row(lambda c: c[:1] + ["bogus"] + c[2:]), "{path}:4: unknown class name 'bogus'", id="unknown-class"
            ),
            # float() reads "1_0" as 10.0, and so does the reader
            pytest.param(_edit_row(lambda c: c[:2] + ["1_0"] + c[3:]), None, id="underscore-digits"),
            pytest.param(_edit_row(lambda c: c[:2] + [f" {c[2]} "] + c[3:]), None, id="spaced-number"),
            pytest.param(_edit_row(lambda c: ['"x,""y"" #z"'] + c[1:]), None, id="quoted-id"),
            pytest.param(_crlf, None, id="crlf"),
            pytest.param(_cr_only, None, id="cr-only"),
            pytest.param(
                _edit_row(lambda c: ['"x\ny"'] + c[1:]), "train: sample id 'x\\ny' holds a line break", id="line-break-id"
            ),
            # a str array of the ids would drop this trailing NUL without a word
            pytest.param(
                _edit_row(lambda c: [c[0] + "\x00"] + c[1:]),
                "{path}: sample id 'train-000002\\x00' holds a NUL character",
                id="nul-id",
            ),
            pytest.param(_header_only_val, "the validation and test splits must not be empty", id="header-only-val"),
        ],
    )
    def test_loads_as_the_reference_or_exits_2(self, run_cfg_file, dataset_dir, capsys, edit, expected):
        _edit_manifest(dataset_dir, lambda m: m.pop("dataset_hash"))
        edit(dataset_dir)
        rc = main(["run", "--config", str(run_cfg_file)])
        err = capsys.readouterr().err
        if expected is not None:
            assert rc == 2 and err == f"error: {expected.format(path=dataset_dir / 'train.csv')}\n", err
            return
        assert rc == 0, err
        bundle, _, manifest = read_dataset(dataset_dir)
        for split_name, fname in SPLIT_FILES:
            X, y, ids = reference_read_split_csv(dataset_dir / fname, manifest.classes, manifest.feature_dim)
            split = getattr(bundle, split_name)
            assert np.array_equal(split.X.view(np.int64), X.view(np.int64)) and np.array_equal(split.y, y)
            assert split.ids.dtype == ids.dtype and split.ids.tolist() == ids.tolist()

    @pytest.mark.parametrize(
        "cells_edit, message",
        [
            # the class name with a NUL or a space added is another name
            (lambda c: c[:1] + ["class_1\x00"] + c[2:], "unknown class name 'class_1\\x00'"),
            (lambda c: c[:1] + ["class_1 "] + c[2:], "unknown class name 'class_1 '"),
        ],
    )
    def test_errors_match_the_reference_reader(self, dataset_dir, cells_edit, message):
        """The reader's ``path:line`` errors are the reference reader's, word for word."""
        path = dataset_dir / "train.csv"
        _edit_row(cells_edit)(dataset_dir)
        with pytest.raises(ValueError) as reference:
            reference_read_split_csv(path, json.loads((dataset_dir / "manifest.json").read_text())["classes"], 4)
        with pytest.raises(ConfigurationError) as got:
            read_dataset(dataset_dir)
        assert str(got.value) == str(reference.value) == f"{path}:4: {message}"


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A 3-class, 3-feature dataset of 24 train rows, and its pristine manifest text."""
    tmp = tmp_path_factory.mktemp("tiny")
    spec = dict(GEN_SPEC, feature_dim=3, per_class_train_counts=[8, 8, 8], per_class_val_counts=[4, 4, 4])
    spec_file = write_yaml(tmp / "genspec.yaml", dict(spec, per_class_test_counts=[4, 4, 4]))
    assert main(["generate", "--spec", str(spec_file), "--out", str(tmp / "data")]) == 0
    return tmp / "data", (tmp / "data" / "manifest.json").read_text()


class TestRunInputs:
    """``run`` on a config and a manifest with mutated fields exits 0, or 2 with one ``error:`` line."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_config_and_manifest_exit_0_or_2(self, tmp_path, capsys, tiny_dataset, data):
        data_dir, manifest_text = tiny_dataset
        manifest = json.loads(manifest_text)
        cfg = dict(copy.deepcopy(RUN_CFG), dataset=str(data_dir), per_class_initial=4, budget=4, seeds=[0])
        cfg["learner"]["max_epochs"] = 1
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data, data.draw(st.sampled_from([cfg, manifest])), BOUNDED_VALUES)
        (data_dir / "manifest.json").write_text(json.dumps(manifest))
        cfg_file = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert_exit_0_or_one_error_line(capsys, ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")])


class TestRunVerb:
    def test_end_to_end_outputs(self, run_cfg_file, tmp_path, capsys):
        assert main(["run", "--config", str(run_cfg_file)]) == 0
        out = tmp_path / "out"
        records = sorted(out.glob("run-*.json"))
        trajectories = sorted(out.glob("trajectory-*.csv"))
        aggregates = sorted(out.glob("aggregate-*"))
        assert len(records) == 2 and len(trajectories) == 2
        assert len(aggregates) == 2  # .txt and .csv
        record = load_run_record(records[0])
        assert record.config_hash in records[0].name
        assert record.append_count == 2
        table = capsys.readouterr().out
        assert "Total (micro)" in table and "Total (macro)" in table

    def test_seed_override_single_run(self, run_cfg_file, tmp_path):
        assert main(["run", "--config", str(run_cfg_file), "--seed", "7"]) == 0
        records = list((tmp_path / "out").glob("run-*seed7.json"))
        assert len(records) == 1

    def test_save_models_round_trip(self, run_cfg_file, tmp_path):
        assert main(["run", "--config", str(run_cfg_file), "--seed", "0", "--save-models"]) == 0
        model_files = list((tmp_path / "out").glob("model-*seed0.json"))
        assert len(model_files) == 1
        model = load_model(model_files[0])
        assert model.kind == "softmax_linear"
        assert model.params["W"].shape == (4, 3)

    def test_byte_identical_reruns(self, run_cfg_file, tmp_path):
        main(["run", "--config", str(run_cfg_file), "--out", str(tmp_path / "o1")])
        main(["run", "--config", str(run_cfg_file), "--out", str(tmp_path / "o2")])
        f1 = sorted((tmp_path / "o1").glob("run-*.json"))
        f2 = sorted((tmp_path / "o2").glob("run-*.json"))
        assert [p.name for p in f1] == [p.name for p in f2]
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes()

    def test_sweep_verb_with_jobs_matches_run(self, run_cfg_file, tmp_path):
        main(["run", "--config", str(run_cfg_file), "--out", str(tmp_path / "seq")])
        main(["sweep", "--config", str(run_cfg_file), "--jobs", "2", "--out", str(tmp_path / "par")])
        for a, b in zip(
            sorted((tmp_path / "seq").glob("run-*.json")), sorted((tmp_path / "par").glob("run-*.json"))
        ):
            assert a.read_bytes() == b.read_bytes()

    def test_a_stack_whose_child_dies_is_one_error_line_naming_its_seeds(
        self, run_cfg_file, tmp_path, capsys, monkeypatch, forked
    ):
        parent = os.getpid()

        def die_in_child(task):
            if os.getpid() != parent:
                os._exit(9)
            return _run_one_star(task)

        monkeypatch.setattr("poolal.engine._run_one_star", die_in_child)
        argv = ["sweep", "--config", str(run_cfg_file), "--seeds", "0,1,2", "--jobs", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert errors == ["error: seeds [0, 1] failed: its process ended with exit code 9 and sent no result"]
        assert len(forked) == 1
        assert_reaped(forked)
        assert not list((tmp_path / "o").glob("run-*.json"))

    def test_invalid_config_exits_2(self, tmp_path, dataset_dir, capsys):
        cfg = dict(RUN_CFG, dataset=str(dataset_dir), sl_fraction=0.5)
        path = write_yaml(tmp_path / "bad.yaml", cfg)
        assert main(["run", "--config", str(path)]) == 2
        assert "conflicting fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "top, learner_line, field",
        [
            ("", "batch_size: 64.5", "batch_size"),
            ("", "max_epochs: 2.5", "max_epochs"),
            ("", "max_epochs: true", "max_epochs"),
            ("", "hidden_units: 8.5", "hidden_units"),
            ("", "learning_rate: 1e6", "learning_rate"),
            ("", "learning_rate: .nan", "learning_rate"),
            ("", "learning_rate: .inf", "learning_rate"),
            ("", 'warm_start: "no"', "warm_start"),
            ("per_class_initial: abc", "", "per_class_initial"),
            ("per_class_initial: 0", "", "per_class_initial"),
            ("budget: '30'", "", "budget"),
            ("max_iterations: two", "", "max_iterations"),
            ('stop_on_exhaustion: "no"', "", "stop_on_exhaustion"),
            ("sl_fraction: abc", "", "sl_fraction"),
            ("sl_fraction: true", "", "sl_fraction"),
            ('candidate_count: "10"', "", "candidate_count"),
            ("candidate_count: 10.5", "", "candidate_count"),
            ("candidate_count: true", "", "candidate_count"),
            ("seeds: [1.5]", "", "seeds"),
            ("seeds: 3", "", "seeds"),
            pytest.param("", f"learning_rate: {10**400}", "learning_rate", id="learning_rate-beyond-float"),
            pytest.param(f"budget: {10**29}", "", "budget", id="budget-beyond-2**53"),
            pytest.param(f"candidate_count: {10**23}", "", "candidate_count", id="candidate_count-beyond-2**53"),
        ],
    )
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, top, learner_line, field):
        base = {k: v for k, v in RUN_CFG.items() if k not in ("learner", field)}
        text = yaml.safe_dump(dict(base, dataset="data", output_dir=str(tmp_path / "o")))
        text += f"{top}\nlearner:\n  kind: softmax_linear\n  {learner_line}\n"
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(rf"\b{field}(\[\d+\])? must be", err), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "top, learner_line, message",
        [
            ("bogus: 1", "", "unknown keys ['bogus']"),
            ("", "batch_size: 64.5", "learner.batch_size must be an integer, got 64.5"),
            ("sl_fraction: 0.5", "", "conflicting fields"),
        ],
    )
    def test_config_error_names_the_config_file(self, tmp_path, capsys, top, learner_line, message):
        base = {k: v for k, v in RUN_CFG.items() if k != "learner"}
        text = yaml.safe_dump(dict(base, dataset="data", output_dir=str(tmp_path / "o")))
        text += f"{top}\nlearner:\n  kind: softmax_linear\n  {learner_line}\n"
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        assert message in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_preset_dataset_source(self, tmp_path):
        cfg = dict(
            RUN_CFG,
            dataset="preset:paper-shape",
            output_dir=str(tmp_path / "o"),
            per_class_initial=100,
            budget=50,
            max_iterations=1,
            seeds=[0],
        )
        path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["run", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (dict(RUN_CFG, dataset="preset:paper-shape@-1"), "seed must be >= 0, got -1"),
            (
                {"dataset": "preset:paper-shape", "arm": "sl", "sl_fraction": 0.00001, "seeds": [0, 1]},
                "sl_fraction must select at least one of the 34603 train rows, got 1e-05",
            ),
            (dict(RUN_CFG, dataset="preset:nope"), "unknown preset 'nope'; available: ['paper-shape']"),
            (dict(RUN_CFG, dataset="preset:paper-shape@x"), "bad preset seed 'x' in 'preset:paper-shape@x'"),
        ],
    )
    def test_dataset_dependent_config_error_exits_2(self, tmp_path, capsys, cfg, message):
        path = write_yaml(tmp_path / "cfg.yaml", dict(cfg, output_dir=str(tmp_path / "o")))
        assert main(["run", "--config", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: {message}"]
        assert not list((tmp_path / "o").glob("run-*.json"))

    def test_both_seed_flags_rejected(self, run_cfg_file, capsys):
        assert main(["run", "--config", str(run_cfg_file), "--seed", "1", "--seeds", "1,2"]) == 2

    def test_seeds_flag_overrides_the_config(self, tmp_path, dataset_dir):
        cfg = dict(RUN_CFG, dataset=str(dataset_dir), seeds=[5], output_dir=str(tmp_path / "o"))
        assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", cfg)), "--seeds", "0,1"]) == 0
        assert sorted(p.name.rsplit("-", 1)[1] for p in (tmp_path / "o").glob("run-*.json")) == [
            "seed0.json",
            "seed1.json",
        ]

    def test_bad_seeds_list_exits_2(self, run_cfg_file, capsys):
        assert main(["run", "--config", str(run_cfg_file), "--seeds", "0,x"]) == 2
        assert capsys.readouterr().err == "error: bad --seeds list '0,x'\n"

    @pytest.mark.parametrize("seeds, flags", [([1, 1], []), ([0], ["--seeds", "1,1"])])
    def test_duplicate_seeds_exit_2(self, tmp_path, dataset_dir, capsys, seeds, flags):
        cfg = dict(RUN_CFG, dataset=str(dataset_dir), seeds=seeds, output_dir=str(tmp_path / "o"))
        assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", cfg)), *flags]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert errors == ["error: seeds must be distinct, got [1, 1]"]
        assert not list((tmp_path / "o").glob("run-*.json"))

    def test_a_refused_run_leaves_no_output_directory(self, tmp_path, dataset_dir, capsys):
        cfg = dict(RUN_CFG, dataset=str(dataset_dir), seeds=[0, 0], output_dir=str(tmp_path / "o"))
        assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", cfg))]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert errors == ["error: seeds must be distinct, got [0, 0]"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, rc", [([], 2), (["--seed", "3"], 0)])
    def test_empty_config_seeds_need_a_seed_flag(self, tmp_path, dataset_dir, capsys, flags, rc):
        cfg = dict(RUN_CFG, dataset=str(dataset_dir), seeds=[], output_dir=str(tmp_path / "o"))
        assert main(["run", "--config", str(write_yaml(tmp_path / "cfg.yaml", cfg)), *flags]) == rc
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert errors == ([] if rc == 0 else ["error: seeds must contain at least one seed"])
        written = [p.name.rsplit("-", 1)[1] for p in (tmp_path / "o").glob("run-*.json")]
        assert written == (["seed3.json"] if rc == 0 else [])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, run_cfg_file, tmp_path, capsys, jobs):
        assert main(["sweep", "--config", str(run_cfg_file), "--jobs", jobs, "--out", str(tmp_path / "o")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: jobs must be >= 1, got {jobs}"]
        assert not list((tmp_path / "o").glob("run-*.json"))

    def test_an_out_path_that_is_a_file_is_refused_before_the_sweep(self, run_cfg_file, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory\n")
        sweep = mock.Mock(return_value=[])
        monkeypatch.setattr("poolal.cli.run_sweep", sweep)
        assert main(["run", "--config", str(run_cfg_file), "--out", str(taken)]) == 2
        assert capsys.readouterr().err == f"error: output path {taken} exists and is not a directory\n"
        assert taken.read_bytes() == b"not a directory\n"
        assert not sweep.called

    def test_an_out_path_under_a_file_is_refused_before_the_sweep(self, run_cfg_file, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory\n")
        sweep = mock.Mock(return_value=[])
        monkeypatch.setattr("poolal.cli.run_sweep", sweep)
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", "--config", str(run_cfg_file), "--out", str(taken / "sub")]) == 2
        err = f"error: output path {taken / 'sub'} is under {taken}, which is not a directory\n"
        assert capsys.readouterr().err == err
        assert taken.read_bytes() == b"not a directory\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert not sweep.called


class TestReportVerb:
    def test_single_record_std_zero(self, run_cfg_file, tmp_path, capsys):
        main(["run", "--config", str(run_cfg_file), "--seed", "0"])
        record = next((tmp_path / "out").glob("run-*.json"))
        assert main(["report", str(record)]) == 0
        out = capsys.readouterr().out
        assert "(0.00)" in out

    def test_mean_std_formatting(self, run_cfg_file, tmp_path, capsys):
        import re

        main(["run", "--config", str(run_cfg_file)])
        records = [str(p) for p in (tmp_path / "out").glob("run-*.json")]
        main(["report", *records])
        out = capsys.readouterr().out
        assert re.search(r"\d+\.\d{2}\(\d+\.\d{2}\)", out)

    def test_mixed_configs_make_two_columns(self, run_cfg_file, tmp_path, dataset_dir, capsys):
        main(["run", "--config", str(run_cfg_file), "--seed", "0"])
        sl_cfg = {
            "dataset": str(dataset_dir),
            "arm": "sl",
            "sl_fraction": 1.0,
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
            "learner": RUN_CFG["learner"],
        }
        path = write_yaml(tmp_path / "sl.yaml", sl_cfg)
        main(["run", "--config", str(path)])
        records = [str(p) for p in (tmp_path / "out").glob("run-*.json")]
        assert len(records) == 2
        assert main(["report", *records, "--out", str(tmp_path / "rep")]) == 0
        out = capsys.readouterr().out
        assert "al:fnr_proportional" in out and "sl(1)" in out
        report_csv = (tmp_path / "rep" / "report.csv").read_text()
        assert "Total (macro)" in report_csv

    def test_sl_fraction_sweep_gives_one_column_per_fraction(self, tmp_path, dataset_dir, capsys):
        out = tmp_path / "out"
        for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
            cfg = {
                "dataset": str(dataset_dir),
                "arm": "sl",
                "sl_fraction": fraction,
                "seeds": [0],
                "output_dir": str(out),
                "learner": RUN_CFG["learner"],
            }
            path = write_yaml(tmp_path / f"sl{fraction}.yaml", cfg)
            assert main(["run", "--config", str(path)]) == 0
        records = [str(p) for p in out.glob("run-*.json")]
        assert len(records) == 5
        assert main(["report", *records]) == 0
        table = capsys.readouterr().out
        for label in ("sl(0.2)", "sl(0.4)", "sl(0.6)", "sl(0.8)", "sl(1)"):
            assert label in table

    def test_report_idempotent(self, run_cfg_file, tmp_path):
        main(["run", "--config", str(run_cfg_file), "--seed", "0"])
        record = str(next((tmp_path / "out").glob("run-*.json")))
        main(["report", record, "--out", str(tmp_path / "r1")])
        main(["report", record, "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "report.txt").read_bytes() == (tmp_path / "r2" / "report.txt").read_bytes()
        assert (tmp_path / "r1" / "report.csv").read_bytes() == (tmp_path / "r2" / "report.csv").read_bytes()

    def test_mismatched_datasets_refused(self, run_cfg_file, tmp_path, capsys):
        main(["run", "--config", str(run_cfg_file), "--seed", "0"])
        record_path = next((tmp_path / "out").glob("run-*.json"))
        payload = json.loads(record_path.read_text())
        payload["dataset_hash"] = "deadbeef0000"
        clone = tmp_path / "out" / "run-clone.json"
        clone.write_text(json.dumps(payload))
        assert main(["report", str(record_path), str(clone)]) == 2
        assert "mismatched datasets" in capsys.readouterr().err

    @pytest.mark.parametrize("copy", [False, True], ids=["same-file", "copied-file"])
    def test_repeated_seed_exits_2(self, run_cfg_file, tmp_path, capsys, copy):
        main(["run", "--config", str(run_cfg_file), "--seed", "1"])
        record = next((tmp_path / "out").glob("run-*.json"))
        again = tmp_path / "again.json" if copy else record
        if copy:
            again.write_bytes(record.read_bytes())
        capsys.readouterr()
        assert main(["report", str(record), str(again), "--out", str(tmp_path / "rep")]) == 2
        config_hash = json.loads(record.read_text())["config_hash"]
        assert capsys.readouterr().err == f"error: run records repeat seed 1 of config {config_hash}\n"
        assert not (tmp_path / "rep").exists()

    def test_malformed_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 2

    def test_non_object_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "rec.json"
        bad.write_text("[1, 2]")
        assert main(["report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{bad}: the file must be a JSON object, not list" in err


class TestTextInputs:
    """A text file that is not UTF-8, or YAML that does not parse, exits 2 with one ``error:`` line naming it."""

    @pytest.mark.parametrize("verb", ["run", "generate"])
    @pytest.mark.parametrize(
        "content, message",
        [
            pytest.param(
                b"dataset: d\xff\n",
                ": not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
                id="not-utf8",
            ),
            pytest.param(
                b"strategy: [fnr\n", ":2:1: bad YAML: expected ',' or ']', but got '<stream end>'", id="open-list"
            ),
            pytest.param(b"dataset: a: b\n", ":1:11: bad YAML: mapping values are not allowed here", id="colon"),
            pytest.param(
                b"seeds: [0]\n\x07",
                ": bad YAML: unacceptable character #x0007: special characters are not allowed at position 11",
                id="control-character",
            ),
        ],
    )
    def test_yaml_file(self, tmp_path, capsys, verb, content, message):
        path = tmp_path / "in.yaml"
        path.write_bytes(content)
        flag = "--config" if verb == "run" else "--spec"
        extra = [] if verb == "run" else ["--out", str(tmp_path / "d")]
        assert main([verb, flag, str(path), *extra]) == 2
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    def test_manifest_not_utf8(self, run_cfg_file, dataset_dir, capsys):
        path = dataset_dir / "manifest.json"
        path.write_bytes(path.read_bytes().replace(b"class_0", b"class_\xff", 1))
        assert main(["run", "--config", str(run_cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text: ") and err.count("\n") == 1, err

    def test_record_not_utf8(self, tmp_path, capsys, record_text):
        path = tmp_path / "run.json"
        path.write_bytes(record_text.encode("utf-8").replace(b"fnr_proportional", b"fnr\xff", 1))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text: ") and err.count("\n") == 1, err

    def test_checkpoint_not_utf8(self, tmp_path):
        from poolal.learner import TrainedModel

        path = tmp_path / "model.json"
        save_model(TrainedModel("softmax_linear", 1, 2, {"W": np.zeros((1, 2)), "b": np.zeros(2)}), path)
        path.write_bytes(path.read_bytes().replace(b"softmax_linear", b"softmax\xff", 1))
        with pytest.raises(ConfigurationError, match="^" + re.escape(f"{path}: not UTF-8 text: ")):
            load_model(path)


@pytest.fixture(scope="module")
def record_text(tmp_path_factory):
    """The text of one real run record: seed 0 of RUN_CFG on the GEN_SPEC dataset."""
    tmp = tmp_path_factory.mktemp("record")
    spec_file = write_yaml(tmp / "genspec.yaml", GEN_SPEC)
    assert main(["generate", "--spec", str(spec_file), "--out", str(tmp / "data")]) == 0
    cfg = write_yaml(tmp / "cfg.yaml", dict(RUN_CFG, dataset=str(tmp / "data"), output_dir=str(tmp / "out")))
    assert main(["run", "--config", str(cfg), "--seed", "0"]) == 0
    return next((tmp / "out").glob("run-*.json")).read_text()


class TestRecordFields:
    """``report`` checks a run record field by field; a bad one exits 2 naming the field."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["final_test_metrics"].update(macro_f1="abc"), "final_test_metrics.macro_f1 must be a finite number"),
            (lambda d: d.update(config_hash=["x"]), "config_hash must be a string, got ['x']"),
            (lambda d: d.update(seed="zero"), "seed must be an integer, got 'zero'"),
            (lambda d: d["iterations"][1].pop("delta"), "missing keys ['iterations[1].delta']"),
            (lambda d: d.update(bogus=1), "unknown keys ['bogus']"),
            (lambda d: d.update(schema_version=2), "unsupported run record schema_version 2"),
            (
                lambda d: d["final_test_metrics"]["per_class"].pop(),
                "final_test_metrics.per_class must have one entry per class name (3), got 2",
            ),
        ],
    )
    def test_malformed_record_exits_2_naming_the_field(self, tmp_path, capsys, record_text, edit, message):
        payload = json.loads(record_text)
        edit(payload)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path}: {message}" in err

    def test_record_file_round_trips_to_the_byte(self, tmp_path, record_text):
        path = tmp_path / "run.json"
        path.write_text(record_text)
        save_run_record(load_run_record(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == record_text

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_record_exits_0_or_2(self, tmp_path, capsys, record_text, data):
        payload = json.loads(record_text)
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data, payload)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        assert_exit_0_or_one_error_line(capsys, ["report", str(path)])


class TestTrajectoryCsv:
    def test_header_and_row_count(self, run_cfg_file, tmp_path):
        main(["run", "--config", str(run_cfg_file), "--seed", "0"])
        out = tmp_path / "out"
        traj = next(out.glob("trajectory-*seed0.csv"))
        lines = traj.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        header = lines[1].split(",")
        assert header[0] == "iteration"
        assert "fnr_class_2" in header and "delta_class_0" in header and "val_macro_f1" in header
        record = load_run_record(next(out.glob("run-*seed0.json")))
        assert len(lines) - 2 == len(record.iterations)


class TestCheckpointFile:
    def test_save_load_exact(self, tmp_path):
        from poolal.learner import TrainedModel

        model = TrainedModel(
            kind="softmax_linear",
            feature_dim=3,
            num_classes=2,
            params={"W": np.array([[0.1, -0.2], [1e-17, 3.0], [2.5, -0.125]]), "b": np.array([0.5, -0.5])},
        )
        path = tmp_path / "model.json"
        save_model(model, path, config_hash="abc123")
        loaded = load_model(path)
        assert np.array_equal(loaded.params["W"], model.params["W"])
        assert np.array_equal(loaded.params["b"], model.params["b"])
        assert json.loads(path.read_text())["config_hash"] == "abc123"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("[1]", "the file must be a JSON object, not list"),
            (
                '{"schema_version": 1, "params": [1], "kind": "mlp", "feature_dim": 1, "num_classes": 2}',
                "params must be a mapping, got [1]",
            ),
            ('{"schema_version": 1, "params": {}}', "missing keys ['feature_dim', 'kind', 'num_classes']"),
            ('{"schema_version": 2, "params": {}}', "unsupported checkpoint schema_version 2"),
            ("{not json", "not valid JSON"),
        ],
    )
    def test_malformed_checkpoint_rejected(self, tmp_path, payload, message):
        path = tmp_path / "model.json"
        path.write_text(payload)
        with pytest.raises(ConfigurationError, match="^" + re.escape(f"{path}: {message}")):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("feature_dim", "x"),
            ("num_classes", [2]),
            ("best_epoch", 1.5),
            ("stopped_epoch", True),
            ("kind", 3),
            ("kind", "cnn"),
        ],
    )
    def test_mistyped_checkpoint_field_rejected(self, tmp_path, field, value):
        from poolal.learner import TrainedModel

        path = tmp_path / "model.json"
        save_model(TrainedModel("softmax_linear", 1, 2, {"W": np.zeros((1, 2)), "b": np.zeros(2)}), path)
        checkpoint = json.loads(path.read_text())
        checkpoint[field] = value
        path.write_text(json.dumps(checkpoint))
        with pytest.raises(ConfigurationError, match="^" + re.escape(f"{path}: {field} must be ")):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c.update(feature_dim=3), "params.W must have shape (3, 2), got (1, 2)"),
            (lambda c: c.update(params={"W1": [[1.0]]}), "softmax_linear params must be ['W', 'b'], got ['W1']"),
            (
                lambda c: c["params"].update(W1=[[1.0]]),
                "softmax_linear params must be ['W', 'b'], got ['W', 'W1', 'b']",
            ),
            (lambda c: c["params"].update(W=[[1.0], [2.0, 3.0]]), "params.W must have shape (1, 2), got (2, 1, 2)"),
            (lambda c: c["params"].update(b=[[0.0, 0.0]]), "params.b[0] must be a finite number, got [0.0, 0.0]"),
            (
                lambda c: c.update(kind="mlp", params={"W1": [[1.0]], "b1": [0.0], "W2": [[1.0, 2.0, 3.0]], "b2": [0.0]}),
                "params.W2 must have shape (1, 2), got (1, 3)",
            ),
        ],
    )
    def test_parameter_names_and_shapes_checked(self, tmp_path, edit, message):
        from poolal.learner import TrainedModel

        path = tmp_path / "model.json"
        save_model(TrainedModel("softmax_linear", 1, 2, {"W": np.zeros((1, 2)), "b": np.zeros(2)}), path)
        checkpoint = json.loads(path.read_text())
        edit(checkpoint)
        path.write_text(json.dumps(checkpoint))
        with pytest.raises(ConfigurationError, match="^" + re.escape(f"{path}: {message}")):
            load_model(path)

    def test_mlp_round_trip(self, tmp_path):
        from poolal.learner import TrainedModel

        gen = np.random.default_rng(0)
        shapes = {"W1": (3, 4), "b1": (4,), "W2": (4, 2), "b2": (2,)}
        model = TrainedModel("mlp", 3, 2, {k: gen.standard_normal(shape) for k, shape in shapes.items()}, best_epoch=2)
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.best_epoch == 2
        assert all(np.array_equal(loaded.params[k], v) for k, v in model.params.items())


def test_cli_import_leaves_the_process_pool_out():
    """No command uses the process pool: sweep stacks are forked by hand, so importing the CLI must not pull it in."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    probe = "import sys, poolal.cli; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_the_module_entry_writes_what_main_writes(tmp_path, monkeypatch, capsys):
    """``python -m poolal.cli`` exits through ``entry``; each command writes the bytes and stdout of in-process ``main``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    spec = dict(GEN_SPEC, per_class_train_counts=[20, 20, 20], per_class_val_counts=[6, 6, 6], per_class_test_counts=[6, 6, 6])
    cfg = dict(RUN_CFG, dataset="data", output_dir="out", per_class_initial=5, budget=6)
    sides = {"child": tmp_path / "child", "main": tmp_path / "main"}
    for side in sides.values():
        side.mkdir()
        write_yaml(side / "spec.yaml", spec)
        write_yaml(side / "cfg.yaml", cfg)
    monkeypatch.chdir(sides["main"])
    frozen = gc.get_freeze_count()
    commands = [["generate", "--spec", "spec.yaml", "--out", "data"], ["run", "--config", "cfg.yaml", "--save-models"]]
    for argv in commands + [None]:
        if argv is None:  # the report reads the records the run wrote
            argv = ["report", "--out", "rep", *sorted(str(p) for p in Path("out").glob("run-*.json"))]
        child = subprocess.run(
            [sys.executable, "-m", "poolal.cli", *argv], cwd=sides["child"], env=env, capture_output=True, text=True
        )
        capsys.readouterr()
        assert (child.returncode, main(argv)) == (0, 0), child.stderr
        assert child.stdout == capsys.readouterr().out
    assert gc.get_freeze_count() == frozen

    files = {name: {p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()} for name, d in sides.items()}
    assert any(p.name.startswith("model-") for p in files["main"]) and any(p.parts[0] == "rep" for p in files["main"])
    assert files["child"] == files["main"]


def test_the_console_script_exits_through_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {"poolal": "poolal.cli:entry"}
