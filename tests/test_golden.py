"""Golden digests: the built-in preset's dataset hash and four run records, pinned to the byte.

The records cover every arm on the preset written by ``generate`` and read back
through CSV ingest, so a change anywhere from the generator to the record
writer that moves a single draw, float or key shows up here. Learners train
for a few epochs only, to keep the module fast. A digest is re-pinned only
with a reason recorded in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from poolal.cli import main
from poolal.config import ExperimentConfig
from poolal.datafiles import read_dataset, save_run_record
from poolal.engine import run_one

PRESET_DATASET_HASH = "66a5a8454a1a"

LEARNER = {"kind": "softmax_linear", "learning_rate": 0.1, "batch_size": 64, "max_epochs": 3, "patience": 3}
AL = {"arm": "al", "per_class_initial": 500, "budget": 400, "max_iterations": 2, "learner": LEARNER}
ARMS = {
    "fnr_proportional": dict(AL, strategy="fnr_proportional"),
    "entropy_topk": dict(
        AL, strategy="entropy_topk", per_class_initial=200, budget=0, candidate_count=4000, select_count=400
    ),
    "proportional_random": dict(AL, strategy="proportional_random"),
    "sl": {"arm": "sl", "sl_fraction": 0.2, "learner": dict(LEARNER, kind="mlp", hidden_units=16)},
}
RECORD_SHA256 = {
    "fnr_proportional": "9c88f267dbaee52c32e4c7649b73e04a79f027b2a9347a186f2a26c633a0c6b3",
    "entropy_topk": "fddd72edc306eabb827b2f789a77239e31e16c20a84a84525833c3e3d6d6d7fb",
    "proportional_random": "56e3c2a803f50a70d2c15301a0b5eb7a17f019655a73c12a92b542c823707457",
    "sl": "e6c441ad2aa06871bbbf8adfd1812dbdeabd75e88e0c2ae3052fe5a28ab7a5e0",
}


@pytest.fixture(scope="module")
def preset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("preset")
    assert main(["generate", "--preset", "paper-shape", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def preset_bundle(preset_dir):
    bundle, dataset_hash, _ = read_dataset(preset_dir)
    return bundle, dataset_hash


def test_preset_dataset_hash(preset_dir):
    manifest = json.loads((preset_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["dataset_hash"] == PRESET_DATASET_HASH


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_run_record_digest(arm, preset_bundle, tmp_path):
    bundle, dataset_hash = preset_bundle
    config = ExperimentConfig.from_dict(dict(ARMS[arm], dataset="data", seeds=[0]))
    path = tmp_path / "record.json"
    save_run_record(run_one(bundle, config, 0, dataset_hash), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORD_SHA256[arm]
