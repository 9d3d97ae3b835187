from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from poolal.cli import main
from poolal.config import ExperimentConfig
from poolal.datafiles import (
    load_model,
    load_run_record,
    read_dataset,
    save_model,
    write_dataset,
)
from poolal.errors import ConfigurationError

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
        assert cfg.strategy.name == "fnr_proportional"
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

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentConfig.from_dict(self.base(bogus=1))

    def test_entropy_reference_scale_expressible(self):
        cfg = ExperimentConfig.from_dict(
            self.base(strategy="entropy_topk", candidate_count=30000, select_count=20000)
        )
        assert cfg.strategy.candidate_count == 30000
        assert cfg.strategy.select_count == 20000

    def test_entropy_counts_without_entropy_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(self.base(candidate_count=10, select_count=5))

    def test_config_hash_ignores_seeds_output_and_data_location(self):
        a = ExperimentConfig.from_dict(self.base(seeds=[0, 1], output_dir="x"))
        b = ExperimentConfig.from_dict(self.base(seeds=[5], output_dir="y", dataset="elsewhere/data"))
        c = ExperimentConfig.from_dict(self.base(budget=21))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


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
        for fname in ("train.csv", "val.csv", "test.csv", "manifest.json"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

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

    def test_unwritable_out_path_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["generate", "--preset", "paper-shape", "--out", str(blocker / "sub")])
        assert rc == 2
        assert "error" in capsys.readouterr().err.lower()


class TestDatasetRoundTrip:
    def test_read_back_values_identical(self, dataset_dir, tmp_path):
        bundle, dataset_hash, manifest = read_dataset(dataset_dir)
        assert manifest["dataset_hash"] == dataset_hash
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

    def test_malformed_manifest_json(self, run_cfg_file, dataset_dir, capsys):
        (dataset_dir / "manifest.json").write_text("{not json")
        self._run_fails(run_cfg_file, capsys, "manifest.json: not valid JSON")

    def test_manifest_without_classes(self, run_cfg_file, dataset_dir, capsys):
        _edit_manifest(dataset_dir, lambda m: m.pop("classes"))
        self._run_fails(run_cfg_file, capsys, "missing key 'classes'")

    def test_manifest_counts_must_match_the_csv(self, run_cfg_file, dataset_dir, capsys):
        def shift_one(manifest):
            manifest["counts"]["validation"][0] += 1
            manifest["counts"]["validation"][1] -= 1

        _edit_manifest(dataset_dir, shift_one)
        self._run_fails(
            run_cfg_file, capsys, "val.csv: class counts [30, 30, 30] differ from the manifest's [31, 29, 30]"
        )


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
        assert field in err
        assert not (tmp_path / "o").exists()

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

    def test_both_seed_flags_rejected(self, run_cfg_file, capsys):
        assert main(["run", "--config", str(run_cfg_file), "--seed", "1", "--seeds", "1,2"]) == 2


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

    def test_malformed_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 2


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
