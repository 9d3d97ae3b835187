"""Acceptance gate: every release-blocking criterion, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines. The multi-seed comparison tests share module-scoped sweeps
of the built-in benchmark preset, so the whole module stays within its
runtime budgets.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from conftest import make_split
from oracles import brute_force_allocation, brute_force_metrics, gradient_check
from poolal.cli import main
from poolal.config import ExperimentConfig
from poolal.core import ClassPools, RandomSource, Split
from poolal.engine import run_active_learning, run_sweep
from poolal.learner import LearnerConfig, predict_proba
from poolal.metrics import confusion, report
from poolal.strategy import allocate_fnr, entropy_of, select_entropy_topk
from poolal.synthgen import GeneratorSpec, generate, tissue_benchmark_preset

SEEDS = list(range(10))
ACCEPTANCE_LEARNER = {
    "kind": "softmax_linear",
    "learning_rate": 0.1,
    "batch_size": 64,
    "max_epochs": 100,
    "patience": 5,
}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def preset_config(**overrides):
    base = {
        "dataset": "preset:paper-shape",
        "arm": "al",
        "strategy": "fnr_proportional",
        "per_class_initial": 2500,
        "budget": 2000,
        "max_iterations": 5,
        "stop_on_exhaustion": False,
        "seeds": SEEDS,
        "learner": dict(ACCEPTANCE_LEARNER),
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


@pytest.fixture(scope="module")
def preset_bundle():
    return generate(tissue_benchmark_preset())


@pytest.fixture(scope="module")
def fnr_sweep(preset_bundle):
    t0 = time.monotonic()
    records = run_sweep(preset_bundle, preset_config(), SEEDS)
    return records, time.monotonic() - t0


def test_criterion_1_allocation_oracle():
    with criterion(1, "allocate_fnr matches the brute-force allocator on 1000 random instances"):
        gen = np.random.default_rng(1001)
        no_rows = make_split([])
        pools = ClassPools(no_rows, [[] for _ in range(8)])
        t0 = time.monotonic()
        for _ in range(1000):
            k = int(gen.integers(2, 9))
            fnr = gen.random(k)
            fnr[gen.random(k) < 0.15] = 0.0
            budget = int(gen.integers(0, 100001))
            sub_pools = ClassPools(no_rows, [[] for _ in range(k)])
            got = allocate_fnr(fnr.tolist(), budget, sub_pools)
            if fnr.sum() > 0:
                assert got.tolist() == brute_force_allocation(fnr.tolist(), budget)
                assert int(got.sum()) == budget
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"allocation oracle took {elapsed:.1f}s"
        assert pools.num_classes == 8


def test_criterion_2_metric_identities():
    with criterion(2, "report matches the brute-force metric oracle on 1000 random label sets"):
        gen = np.random.default_rng(2002)
        t0 = time.monotonic()
        for _ in range(1000):
            num_classes = int(gen.integers(2, 6))
            n = int(gen.integers(1, 201))
            true = gen.integers(0, num_classes, size=n).tolist()
            pred = gen.integers(0, num_classes, size=n).tolist()
            rep = report(confusion(true, pred, num_classes))
            oracle = brute_force_metrics(true, pred, num_classes)
            assert rep.micro_f1 == rep.accuracy  # exact
            assert rep.micro_f1 == pytest.approx(oracle["micro_f1"], abs=1e-12)
            assert rep.macro_f1 == pytest.approx(oracle["macro_f1"], abs=1e-12)
            for m, om in zip(rep.per_class, oracle["per_class"]):
                assert m.f1 == pytest.approx(om["f1"], abs=1e-12)
                assert m.fnr == pytest.approx(om["fnr"], abs=1e-12)
                if m.support > 0:
                    assert abs(m.fnr - (1.0 - m.recall)) <= 1e-12
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"metric identities took {elapsed:.1f}s"


def test_criterion_3_gradient_correctness():
    with criterion(3, "analytic gradients match finite differences on 100 random configurations"):
        gen = np.random.default_rng(3003)
        t0 = time.monotonic()
        for i in range(100):
            d = int(gen.integers(2, 7))
            num_classes = int(gen.integers(2, 5))
            n = int(gen.integers(2, 11))
            features, labels = [], []
            for _ in range(n):
                features.append(gen.standard_normal(d))
                labels.append(int(gen.integers(0, num_classes)))
            batch = Split(features, labels, [f"g{i}-{j}" for j in range(n)])
            if i % 2 == 0:
                cfg = LearnerConfig(kind="softmax_linear")
                bound = 1e-5
            else:
                cfg = LearnerConfig(kind="mlp", hidden_units=int(gen.integers(2, 9)))
                bound = 1e-4
            err = gradient_check(cfg, batch, RandomSource(int(gen.integers(1 << 30))), num_classes=num_classes)
            assert err < bound, f"config {i} ({cfg.kind}): rel err {err:.2e} >= {bound}"
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_4_loop_conservation(preset_bundle):
    with criterion(4, "preset run satisfies the budget ledger and conservation invariants in < 60 s"):
        t0 = time.monotonic()
        record = run_active_learning(preset_bundle, preset_config(), seed=0)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"run took {elapsed:.1f}s"

        train_totals = preset_bundle.split_counts(preset_bundle.train)
        assert record.append_count == 5
        assert len(record.iterations) == 6
        for prev, nxt in zip(record.iterations, record.iterations[1:]):
            for c in range(preset_bundle.num_classes):
                appended = prev.allocation[c] - prev.shortfall[c]
                assert appended >= 0
                assert nxt.train_counts[c] - prev.train_counts[c] == appended
                # conservation: nothing created or destroyed per class
                assert nxt.train_counts[c] <= train_totals[c]
            assert sum(prev.allocation) == 2000
            assert sum(nxt.train_counts) - sum(prev.train_counts) <= 2000
        assert record.total_labeled == sum(record.iterations[-1].train_counts)
        assert record.total_labeled <= 5 * 2500 + 5 * 2000


def test_criterion_5_hard_class_dominates_allocation(preset_bundle, fnr_sweep):
    with criterion(5, "the overlap-hardened class receives the largest cumulative allocation in >= 8/10 seeds"):
        records, _ = fnr_sweep
        stroma = preset_bundle.class_names.index("stroma")
        wins = 0
        for record in records:
            cumulative = np.sum(
                [it.allocation for it in record.iterations if it.allocation is not None], axis=0
            )
            if all(cumulative[stroma] > cumulative[c] for c in range(5) if c != stroma):
                wins += 1
        assert wins >= 8, f"hard class dominated in only {wins}/10 seeds"
        print(f"  (hard-class dominance: {wins}/10 seeds)")


def test_criterion_6_strategy_comparison(preset_bundle, fnr_sweep):
    with criterion(6, "FNR beats proportional-random on macro F1 and tracks SL(100%) within 1 point at <= 70% of the data"):
        fnr_records, fnr_seconds = fnr_sweep
        t0 = time.monotonic()
        prop_records = run_sweep(
            preset_bundle, preset_config(strategy="proportional_random"), SEEDS
        )
        sl_records = run_sweep(
            preset_bundle,
            preset_config(
                arm="sl", sl_fraction=1.0, strategy=None, max_iterations=None, budget=0
            ),
            SEEDS,
        )
        elapsed = fnr_seconds + (time.monotonic() - t0)
        assert elapsed < 900.0, f"full sweep took {elapsed:.0f}s"

        macro = lambda rs: float(np.mean([r.final_test_metrics.macro_f1 for r in rs]))
        fnr_macro, prop_macro, sl_macro = macro(fnr_records), macro(prop_records), macro(sl_records)
        diff = fnr_macro - prop_macro
        print(
            f"  (macro F1: fnr {100 * fnr_macro:.2f}, proportional {100 * prop_macro:.2f}, "
            f"sl(1.0) {100 * sl_macro:.2f}; fnr-prop diff {100 * diff:+.2f} pts; "
            f"sweep wall time {elapsed:.0f}s)"
        )
        assert diff >= 0.0, f"FNR mean macro F1 below proportional-random by {-100 * diff:.2f} pts"

        assert fnr_macro >= sl_macro - 0.01, (
            f"FNR macro {100 * fnr_macro:.2f} more than 1 point below SL(100%) {100 * sl_macro:.2f}"
        )
        fractions = [r.labeled_fraction_of_train for r in fnr_records]
        assert max(fractions) <= 0.70, f"FNR used {100 * max(fractions):.1f}% of the train split"
        print(f"  (FNR labeled fraction: mean {100 * float(np.mean(fractions)):.1f}%, max {100 * max(fractions):.1f}%)")


def test_criterion_7_entropy_baseline_conformance():
    with criterion(7, "entropy top-k never rejects a higher-entropy candidate; reference-scale config validates"):
        gen = np.random.default_rng(7007)
        model_params = {"W": np.array([[2.0, 0.0]]), "b": np.zeros(2)}
        from poolal.learner import TrainedModel

        model = TrainedModel(kind="softmax_linear", feature_dim=1, num_classes=2, params=model_params)
        for case in range(1000):
            n = int(gen.integers(2, 13))
            values = gen.standard_normal(n)
            split = Split(values[:, None], [0] * n, [f"c{case}-{j}" for j in range(n)])
            pools = ClassPools(split, [np.arange(n), []])
            k = int(gen.integers(1, n + 1))
            selected = select_entropy_topk(
                model, pools, [1.0, 0.0], candidate_count=n, select_count=k, rng=RandomSource(case)
            )
            rejected = pools.draw(0, n)
            hs = [entropy_of(predict_proba(model, split.X[r])) for r in selected]
            hr = [entropy_of(predict_proba(model, split.X[r])) for r in rejected]
            assert len(selected) == k
            if hr:
                assert min(hs) >= max(hr) - 1e-12

        cfg = preset_config(
            strategy="entropy_topk", candidate_count=30000, select_count=20000, budget=0
        )
        assert cfg.candidate_count == 30000
        assert cfg.select_count == 20000


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "identical configs and seeds give byte-identical run records and mean(std) tables"):
        spec = {
            "num_classes": 3,
            "feature_dim": 4,
            "per_class_train_counts": [80, 100, 120],
            "per_class_val_counts": [40, 40, 40],
            "per_class_test_counts": [40, 40, 40],
            "class_sigmas": [1.0, 1.0, 1.0],
            "auto_scale": 3.0,
            "overlap_pairs": [[2, 1, 0.3]],
            "seed": 13,
        }
        (tmp_path / "spec.yaml").write_text(yaml.safe_dump(spec))
        assert main(["generate", "--spec", str(tmp_path / "spec.yaml"), "--out", str(tmp_path / "data")]) == 0
        cfg = {
            "dataset": str(tmp_path / "data"),
            "arm": "al",
            "strategy": "fnr_proportional",
            "per_class_initial": 20,
            "budget": 30,
            "max_iterations": 2,
            "seeds": [0, 1, 2],
            "learner": dict(ACCEPTANCE_LEARNER, max_epochs=20),
        }
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.yaml"), "--out", str(tmp_path / "o1")]) == 0
        assert main(["sweep", "--config", str(tmp_path / "cfg.yaml"), "--out", str(tmp_path / "o2")]) == 0

        f1 = sorted((tmp_path / "o1").glob("run-*.json"))
        f2 = sorted((tmp_path / "o2").glob("run-*.json"))
        assert len(f1) == 3 and [p.name for p in f1] == [p.name for p in f2]
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between identical sweeps"

        table = next((tmp_path / "o1").glob("aggregate-*.txt")).read_text()
        cells = re.findall(r"\d+\.\d{2}\(\d+\.\d{2}\)", table)
        assert len(cells) >= 5, f"expected mean(std) cells in the table, got: {table}"
        record = json.loads(f1[0].read_text())
        assert record["config_hash"] in f1[0].name


def test_criterion_9_stopping_semantics():
    with criterion(9, "ITER stops after exactly J appends, OOD stops at the first unsatisfiable request, shortfalls continue"):
        def bundle_from(train_counts, overlap=()):
            k = len(train_counts)
            return generate(
                GeneratorSpec(
                    num_classes=k,
                    feature_dim=4,
                    per_class_train_counts=tuple(train_counts),
                    per_class_val_counts=(50,) * k,
                    per_class_test_counts=(50,) * k,
                    class_sigmas=(1.0,) * k,
                    auto_scale=3.0,
                    overlap_pairs=tuple(overlap),
                    seed=99,
                )
            )

        fast = dict(ACCEPTANCE_LEARNER, max_epochs=20)

        # (a) ITER: ample pools, exactly J appends then stop
        iter_cfg = preset_config(per_class_initial=20, budget=20, max_iterations=3, learner=fast)
        record = run_active_learning(bundle_from((300, 300, 300), ((2, 1, 0.3),)), iter_cfg, seed=0)
        assert record.append_count == 3
        assert len(record.iterations) == 4
        assert record.iterations[-1].allocation is None
        assert "max_iterations" in record.stop_reason

        # (b) OOD: pools [3, 3] cannot satisfy any split of 10
        ood_cfg = preset_config(
            per_class_initial=2, budget=10, max_iterations=None, stop_on_exhaustion=True, learner=fast
        )
        record = run_active_learning(bundle_from((5, 5)), ood_cfg, seed=0)
        assert record.append_count == 0
        assert len(record.iterations) == 1
        assert record.iterations[0].allocation is None
        assert "pool exhausted" in record.stop_reason

        # (c) shortfall-continue: requests above the pool remainder draw what exists
        short_cfg = preset_config(
            strategy="proportional_random",
            per_class_initial=10,
            budget=10,
            max_iterations=2,
            stop_on_exhaustion=False,
            learner=fast,
        )
        record = run_active_learning(bundle_from((13, 110)), short_cfg, seed=0)
        assert record.append_count == 2
        assert record.iterations[0].allocation == [5, 5]
        assert record.iterations[0].shortfall == [2, 0]
        assert record.iterations[1].shortfall == [5, 0]
        assert record.total_labeled == 33
