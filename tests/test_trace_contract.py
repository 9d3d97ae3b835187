"""The benchmark's calls into the program must keep working.

``perfbench/traced_poolal.py`` looks each traced attribute up with
``owner.__dict__[attr]``, so a rename or a move to a base class makes
``perfbench/run.py --trace 1`` die with a KeyError.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "traced_poolal.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("traced_poolal", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in module.TRACED
        if attr not in owner.__dict__
    ]
    assert module.TRACED
    assert missing == []


# ``perfbench/run.py --trace 1`` also calls the program outside the tracer: ``task_payload``
# decodes a config and unpacks ``read_dataset`` to size a pickled sweep task; forked stacks send none.
TASK_PAYLOAD = """
import json, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import run
round_dir = Path(sys.argv[1])
config = json.loads((round_dir / "fnr.yaml").read_text(encoding="utf-8"))
workload = run.Workload("contract", {"fnr.yaml": config}, "sweep", 2, 2)
print(json.dumps(run.task_payload(round_dir, workload, [0, 1])))
"""


def test_task_payload_pickles_the_worker_task(tmp_path):
    from poolal.cli import main

    spec = {
        "num_classes": 3,
        "feature_dim": 3,
        "per_class_train_counts": [20, 20, 20],
        "per_class_val_counts": [5, 5, 5],
        "per_class_test_counts": [5, 5, 5],
        "class_sigmas": [1.0, 1.0, 1.0],
        "seed": 1,
    }
    (tmp_path / "spec.yaml").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["generate", "--spec", str(tmp_path / "spec.yaml"), "--out", str(tmp_path / "data")]) == 0
    config = {"dataset": "data", "strategy": "fnr_proportional", "per_class_initial": 5, "budget": 5, "max_iterations": 1}
    (tmp_path / "fnr.yaml").write_text(json.dumps(config), encoding="utf-8")
    # a child process: importing run.py pins the BLAS thread variables for the whole process
    result = subprocess.run(
        [sys.executable, "-c", TASK_PAYLOAD, str(tmp_path)], cwd=ROOT, capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout.splitlines()[-1])["engine.task_pickle_bytes"] > 0


def test_sweep_workers_flush_their_spans(tmp_path):
    """A worker leaves through ``os._exit``; the tracer writes its spans after each ``engine._run_one_star`` task."""
    from poolal.cli import main

    spec = {
        "num_classes": 2,
        "feature_dim": 2,
        "per_class_train_counts": [20, 20],
        "per_class_val_counts": [5, 5],
        "per_class_test_counts": [5, 5],
        "class_sigmas": [1.0, 1.0],
        "seed": 1,
    }
    (tmp_path / "spec.yaml").write_text(json.dumps(spec), encoding="utf-8")
    assert main(["generate", "--spec", str(tmp_path / "spec.yaml"), "--out", str(tmp_path / "data")]) == 0
    config = {
        "dataset": "data",
        "strategy": "fnr_proportional",
        "per_class_initial": 5,
        "budget": 4,
        "max_iterations": 1,
        "learner": {"max_epochs": 2},
    }
    (tmp_path / "fnr.yaml").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "trace").mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = ["sweep", "--config", "fnr.yaml", "--seeds", "0,1", "--jobs", "2", "--out", "out"]
    subprocess.run([sys.executable, str(TRACER), str(tmp_path / "trace" / "cmd"), *argv], cwd=tmp_path, env=env, check=True)

    payloads = [json.loads(p.read_text(encoding="utf-8")) for p in (tmp_path / "trace").glob("cmd-*.json")]
    assert len({p["pid"] for p in payloads}) > 1
    workers = [p for p in payloads if p["import_s"] is None]  # the main process flushes with its import time
    assert workers and all(any(s["name"] == "engine.task" for s in p["spans"]) for p in workers)
