"""Self-test of the output checker: it passes real output and fails tampered output.

usage: python3 perfbench/selftest.py   (from the root of a poolal source tree)

Runs one round of the ``fnr-serial`` workload, checks it, then checks three
copies of its output, each with one fault planted: an allocation count
altered in a run record, a perturbed weight matrix in a saved model, and a
tampered cell in the report CSV. Exits 0 only if the real output passes and
each planted fault is reported as a failed check.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

from check import Checks
from run import WORK, WORKLOADS, check_round0, derive_seeds, run_round


def alter_allocation(d: Path) -> None:
    path = sorted((d / "out").glob("run-*.json"))[0]
    rec = json.loads(path.read_text(encoding="utf-8"))
    rec["iterations"][0]["allocation"][1] += 1
    path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def perturb_weights(d: Path) -> None:
    path = sorted((d / "out").glob("model-*.json"))[0]
    model = json.loads(path.read_text(encoding="utf-8"))
    for row in model["params"]["W"]:
        row[0] += 0.5
    path.write_text(json.dumps(model, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def tamper_aggregate(d: Path) -> None:
    path = d / "report" / "report.csv"
    with path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    for row in rows:
        if row[4] == "Total (macro)":
            row[5] = repr(float(row[5]) + 1e-4)
    with path.open("w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


PLANTED = {
    "altered allocation count": (alter_allocation, "allocation"),
    "perturbed weight matrix": (perturb_weights, "re-scored"),
    "tampered aggregate cell": (tamper_aggregate, "report.csv"),
}


def main() -> int:
    w = WORKLOADS["fnr-serial"]
    dataset_seed, run_seeds = derive_seeds(0, w.seeds)
    base = WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    clean = base / "clean"
    commands = run_round(clean, w, dataset_seed, run_seeds, traced=False)
    if any(c.returncode != 0 for c in commands):
        print("selftest: a poolal command failed; nothing to check", file=sys.stderr)
        return 1
    c = Checks()
    check_round0(c, clean, w, run_seeds)
    ok = not c.failures
    print(f"clean output: {c.attempted} checks, {len(c.failures)} failed {c.failures[:3]}")
    for what, (plant, marker) in PLANTED.items():
        d = base / what.replace(" ", "-")
        shutil.copytree(clean, d)
        plant(d)
        c = Checks()
        check_round0(c, d, w, run_seeds)
        caught = [f for f in c.failures if marker in f]
        ok &= bool(caught)
        print(f"{what}: {'caught' if caught else 'MISSED'} ({len(c.failures)} failed checks) {caught[:1]}")
    shutil.rmtree(base, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
