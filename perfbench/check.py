"""Output checker for the poolal benchmark; it imports nothing from ``poolal``.

Every expectation is computed here from the files a workload leaves behind:
the dataset CSVs and manifest, the run records, the saved terminal models and
the aggregate tables. Nothing is compared against a stored copy of earlier
output. The checks are:

* re-scoring: each terminal model is re-run on the test split with this
  file's own forward pass and confusion tally, and per-class F1 and macro F1
  must equal ``final_test_metrics``;
* metric identities: micro F1 equals accuracy, FNR equals 1 - recall, and the
  supports sum to the split size;
* the per-class ledger of every run, and the FNR allocation against this
  file's own largest-remainder split of ``val_fnr``;
* a quality floor: every seed's test macro F1 clears the nearest-class-mean
  classifier built from the generator means, minus ``NCM_MARGIN``;
* aggregate ``mean(std)`` cells recomputed from the records.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# Test macro F1 of every seed must be at least (nearest-class-mean macro F1 -
# NCM_MARGIN). FNR-proportional runs trade macro F1 for recall on the hard
# classes and sit about 0.05 below the nearest-mean rule on the paper-shape
# preset; a broken learner or a scrambled model falls far below.
NCM_MARGIN = 0.10

# Two logits closer than this (relative) may argmax differently once the
# program takes a softmax first; such rows are counted, not failed.
NEAR_TIE = 1e-9


@dataclass
class Checks:
    """Pass/fail tally of named checks, with the failures spelled out."""

    passed: int = 0
    failures: list[str] = field(default_factory=list)
    near_ties: int = 0  # test rows whose top two logits nearly tie
    tie_orders: int = 0  # allocations that broke an exact remainder tie against the index order

    @property
    def attempted(self) -> int:
        return self.passed + len(self.failures)

    def expect(self, ok: bool, what: str) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return ok


@dataclass
class Split:
    X: np.ndarray
    y: np.ndarray


def read_manifest(data_dir: Path) -> dict:
    return json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))


def read_split(path: Path, class_names: list[str]) -> Split:
    """Parse an ``id,label,f0..`` CSV into a feature matrix and label indices."""
    index = {name: i for i, name in enumerate(class_names)}
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    y = np.array([index[r[1]] for r in rows], dtype=np.int64)
    X = np.array([r[2:] for r in rows], dtype=float)
    return Split(X=X, y=y)


def class_means(manifest: dict) -> np.ndarray:
    """Generator class means, auto-placed at ``auto_scale * e_i`` when not given."""
    gen = manifest["generator"]
    if gen["class_means"] is not None:
        return np.asarray(gen["class_means"], dtype=float)
    means = np.zeros((gen["num_classes"], gen["feature_dim"]))
    for i in range(gen["num_classes"]):
        means[i, i] = gen["auto_scale"]
    return means


def tally(y: np.ndarray, pred: np.ndarray, num_classes: int) -> tuple[list[float], float, float]:
    """(per-class F1, macro F1, accuracy) from true and predicted labels."""
    f1 = []
    for i in range(num_classes):
        tp = int(np.sum((y == i) & (pred == i)))
        fp = int(np.sum((y != i) & (pred == i)))
        fn = int(np.sum((y == i) & (pred != i)))
        f1.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return f1, sum(f1) / num_classes, float(np.mean(y == pred))


def nearest_mean_macro_f1(manifest: dict, test: Split) -> float:
    means = class_means(manifest)
    d = ((test.X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return tally(test.y, d.argmin(axis=1), len(means))[1]


def logits(model: dict, X: np.ndarray) -> np.ndarray:
    p = {k: np.asarray(v, dtype=float) for k, v in model["params"].items()}
    if model["kind"] == "softmax_linear":
        return X @ p["W"] + p["b"]
    return np.tanh(X @ p["W1"] + p["b1"]) @ p["W2"] + p["b2"]


def hamilton(weights: list, total: int) -> tuple[list[int], set[int]]:
    """Largest-remainder split in exact rationals; ties go to the lower index.

    Also returns the classes whose remainder equals the last one served: the
    leftover units could go to any of them under another tie-break order.
    """
    w = [Fraction(x) for x in weights]
    quotas = [x * total / sum(w) for x in w]
    counts = [math.floor(q) for q in quotas]
    remainder = [q - n for q, n in zip(quotas, counts)]
    served = sorted(range(len(w)), key=lambda i: (-remainder[i], i))[: total - sum(counts)]
    for i in served:
        counts[i] += 1
    tied = {i for i in range(len(w)) if served and remainder[i] == remainder[served[-1]]}
    return counts, tied


def check_identities(c: Checks, m: dict, split_size: int, where: str) -> None:
    c.expect(m["micro_f1"] == m["accuracy"], f"{where}: micro F1 != accuracy")
    c.expect(
        all(abs(k["fnr"] - (1.0 - k["recall"])) <= 1e-12 for k in m["per_class"] if k["support"]),
        f"{where}: fnr != 1 - recall",
    )
    c.expect(sum(k["support"] for k in m["per_class"]) == split_size, f"{where}: supports do not sum to {split_size}")


def check_rescore(c: Checks, rec: dict, model: dict, test: Split, where: str) -> None:
    """Own forward pass and tally on the test split against ``final_test_metrics``."""
    z = logits(model, test.X)
    top2 = np.sort(z, axis=1)[:, -2:]
    ties = int(np.sum(top2[:, 1] - top2[:, 0] <= NEAR_TIE * np.maximum(1.0, np.abs(top2[:, 1]))))
    c.near_ties += ties
    f1, macro, _ = tally(test.y, z.argmax(axis=1), len(rec["class_names"]))
    final = rec["final_test_metrics"]
    # A near-tie row can move one prediction, changing a class F1 by at most
    # about 2 / support; without ties the floats must agree exactly.
    slack = [2.0 * ties / max(1, k["support"]) for k in final["per_class"]]
    for i, k in enumerate(final["per_class"]):
        c.expect(abs(f1[i] - k["f1"]) <= slack[i], f"{where}: re-scored F1 of class {i} {f1[i]!r} != {k['f1']!r}")
    c.expect(
        abs(macro - final["macro_f1"]) <= sum(slack) / len(slack),
        f"{where}: re-scored macro F1 {macro!r} != {final['macro_f1']!r}",
    )


def check_ledger(c: Checks, rec: dict, train_counts: list[int], where: str) -> None:
    cfg = rec["config"]
    its = rec["iterations"]
    c.expect(
        all(0 <= n <= cap for it in its for n, cap in zip(it["train_counts"], train_counts)),
        f"{where}: a labeled count exceeds the manifest's train count",
    )
    c.expect(rec["total_labeled"] == sum(its[-1]["train_counts"]), f"{where}: total_labeled != final train counts")
    if cfg["arm"] == "sl":
        want, _ = hamilton(train_counts, math.floor(sum(train_counts) * cfg["sl_fraction"] + 0.5))
        c.expect(its[0]["train_counts"] == want, f"{where}: supervised subset {its[0]['train_counts']} != {want}")
        return
    initial = [min(cfg["per_class_initial"], n) for n in train_counts]
    c.expect(its[0]["train_counts"] == initial, f"{where}: initial counts {its[0]['train_counts']} != {initial}")
    c.expect(its[-1]["allocation"] is None, f"{where}: terminal iteration carries an allocation")
    for prev, nxt in zip(its, its[1:]):
        j = prev["iteration"]
        have, alloc = prev["train_counts"], prev["allocation"]
        if alloc is None:
            c.expect(False, f"{where}: iteration {j} has no allocation but a successor")
            continue
        if cfg["strategy"] == "entropy_topk":
            # allocation is what was appended; shortfall is measured against the candidate request
            want = [h + a for h, a in zip(have, alloc)]
            if sum(train_counts) - sum(have) >= cfg["select_count"]:
                c.expect(sum(alloc) == cfg["select_count"], f"{where}: iteration {j} appended {sum(alloc)} != select_count")
        else:
            want = [h + a - s for h, a, s in zip(have, alloc, prev["shortfall"])]
            remaining = [cap - h for cap, h in zip(train_counts, have)]
            want_short = [max(0, a - r) for a, r in zip(alloc, remaining)]
            c.expect(prev["shortfall"] == want_short, f"{where}: iteration {j} shortfall {prev['shortfall']} != {want_short}")
        c.expect(nxt["train_counts"] == want, f"{where}: ledger broken after iteration {j}: {nxt['train_counts']} != {want}")
        if cfg["strategy"] == "fnr_proportional":
            check_fnr_allocation(c, prev, cfg["budget"], [cap > h for cap, h in zip(train_counts, have)], where)


def check_fnr_allocation(c: Checks, it: dict, budget: int, stocked: list[bool], where: str) -> None:
    """The allocation is the largest-remainder split of the validation FNR.

    FNR is fn / support, so the exact rational is recovered from the float and
    the class support. Units handed to another class of an exactly tied
    remainder are counted in ``tie_orders``, not failed.
    """
    support = [k["support"] for k in it["val_metrics"]["per_class"]]
    fnr = [Fraction(round(x * n), n) if n else Fraction(0) for x, n in zip(it["val_fnr"], support)]
    weights = fnr if sum(fnr) > 0 else [Fraction(int(s)) for s in stocked]
    oracle, tied = hamilton(weights, budget)
    alloc = it["allocation"]
    if alloc != oracle and sum(alloc) == budget and all(
        a == o or (i in tied and abs(a - o) == 1) for i, (a, o) in enumerate(zip(alloc, oracle))
    ):
        c.tie_orders += 1
        oracle = alloc
    c.expect(alloc == oracle, f"{where}: iteration {it['iteration']} allocation {alloc} != largest-remainder {oracle}")


def check_records(c: Checks, data_dir: Path, out_dir: Path) -> list[dict]:
    """Check every run record in ``out_dir`` against the dataset in ``data_dir``; returns the records."""
    manifest = read_manifest(data_dir)
    names = manifest["classes"]
    counts = manifest["counts"]
    test = read_split(data_dir / "test.csv", names)
    val_size = sum(1 for _ in (data_dir / "val.csv").open(encoding="utf-8")) - 1
    c.expect(val_size == sum(counts["validation"]), f"{data_dir}: val.csv rows != manifest counts")
    c.expect(len(test.y) == sum(counts["test"]), f"{data_dir}: test.csv rows != manifest counts")
    floor = nearest_mean_macro_f1(manifest, test) - NCM_MARGIN

    records = []
    paths = sorted(out_dir.glob("run-*.json"))
    c.expect(bool(paths), f"{out_dir}: no run records")
    for path in paths:
        rec = json.loads(path.read_text(encoding="utf-8"))
        records.append(rec)
        where = path.name
        c.expect(rec["class_names"] == names, f"{where}: class names differ from the manifest")
        c.expect(rec["dataset_hash"] == manifest["dataset_hash"], f"{where}: dataset hash differs from the manifest")
        for it in rec["iterations"]:
            check_identities(c, it["val_metrics"], val_size, f"{where} iteration {it['iteration']}")
        check_identities(c, rec["final_test_metrics"], len(test.y), f"{where} test")
        check_ledger(c, rec, counts["train"], where)
        model_path = out_dir / path.name.replace("run-", "model-", 1)
        if c.expect(model_path.is_file(), f"{where}: no saved terminal model"):
            check_rescore(c, rec, json.loads(model_path.read_text(encoding="utf-8")), test, where)
        macro = rec["final_test_metrics"]["macro_f1"]
        c.expect(macro >= floor, f"{where}: test macro F1 {macro:.4f} below the nearest-mean floor {floor:.4f}")
    return records


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = math.fsum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))


def _expected_cells(records: list[dict]) -> dict[tuple[str, str], tuple[float, float]]:
    """(config hash, row label) -> recomputed (mean, std) over seeds."""
    groups: dict[str, list[dict]] = {}
    for r in records:
        groups.setdefault(r["config_hash"], []).append(r)
    cells = {}
    for chash, recs in groups.items():
        finals = [r["final_test_metrics"] for r in recs]
        rows = {name: [f["per_class"][i]["f1"] for f in finals] for i, name in enumerate(recs[0]["class_names"])}
        rows["Total (micro)"] = [f["micro_f1"] for f in finals]
        rows["Total (macro)"] = [f["macro_f1"] for f in finals]
        rows["Accuracy"] = [f["accuracy"] for f in finals]
        rows["Labeled fraction"] = [r["labeled_fraction_of_train"] for r in recs]
        for label, values in rows.items():
            cells[(chash, label)] = _mean_std(values)
    return cells


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def check_aggregate(c: Checks, records: list[dict], csv_path: Path, txt_path: Path) -> None:
    """The aggregate CSV and text table against mean(std) recomputed from ``records``."""
    want = _expected_cells(records)
    with csv_path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    got = {(r["config_hash"], r["metric"]): (float(r["mean"]), float(r["std"])) for r in rows}
    c.expect(set(got) == set(want), f"{csv_path.name}: rows {sorted(got)} != {sorted(want)}")
    for key, (mean, std) in want.items():
        if key in got:
            g = got[key]
            c.expect(_close(g[0], mean) and _close(g[1], std), f"{csv_path.name}: {key} = {g} != ({mean!r}, {std!r})")
    # the table prints percent with two decimals; allow the rounding of the last digit
    table = txt_path.read_text(encoding="utf-8").splitlines()
    hashes = re.findall(r"\[([0-9a-f]{12})\]", table[0])
    labels = {label for _, label in want}
    c.expect(set(hashes) == {chash for chash, _ in want}, f"{txt_path.name}: columns {hashes}")
    rows = 0
    for line in table[2:]:
        cells = re.findall(r"(-?\d+\.\d\d)\((\d+\.\d\d)\)", line)
        if not cells:
            break
        rows += 1
        label = line[: line.find(cells[0][0])].strip()
        c.expect(label in labels and len(cells) == len(hashes), f"{txt_path.name}: malformed row {line!r}")
        for chash, (m, s) in zip(hashes, cells):
            mean, std = want.get((chash, label), (math.nan, math.nan))
            c.expect(
                abs(float(m) - 100 * mean) <= 0.005 + 1e-9 and abs(float(s) - 100 * std) <= 0.005 + 1e-9,
                f"{txt_path.name}: cell {label!r} [{chash}] {m}({s}) != {100 * mean:.4f}({100 * std:.4f})",
            )
    c.expect(rows == len(labels), f"{txt_path.name}: {rows} table rows, expected {len(labels)}")


def check_identical(c: Checks, a_dir: Path, b_dir: Path, pattern: str, what: str) -> None:
    """Files matching ``pattern`` exist under the same names in both dirs with the same bytes."""
    a = {p.name: p for p in a_dir.glob(pattern)}
    b = {p.name: p for p in b_dir.glob(pattern)}
    if not c.expect(bool(a) and set(a) == set(b), f"{what}: file sets differ ({sorted(a)} vs {sorted(b)})"):
        return
    for name in sorted(a):
        c.expect(a[name].read_bytes() == b[name].read_bytes(), f"{what}: {name} differs")
