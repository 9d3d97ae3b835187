from __future__ import annotations

import numpy as np
import pytest

from dataclasses import asdict, replace

from conftest import assert_reaped, make_split, record_payload
from poolal import engine
from poolal.config import ExperimentConfig, decode
from poolal.core import ClassPools, RandomSource, split_initial
from poolal.engine import (
    IterationRecord,
    RunRecord,
    evaluate_model,
    run_active_learning,
    run_one,
    run_supervised,
    run_sweep,
)
from poolal.errors import ConfigurationError, RunError, TrainingError
from poolal.reporting import aggregate_records
from poolal.strategy import allocate_fnr
from poolal.synthgen import GeneratorSpec, generate

FAST_LEARNER = {
    "kind": "softmax_linear",
    "learning_rate": 0.1,
    "batch_size": 32,
    "max_epochs": 30,
    "patience": 3,
}


def small_bundle(train_counts=(200, 300, 400), seed=1, overlap=((2, 1, 0.3),)):
    k = len(train_counts)
    spec = GeneratorSpec(
        num_classes=k,
        feature_dim=4,
        per_class_train_counts=tuple(train_counts),
        per_class_val_counts=(60,) * k,
        per_class_test_counts=(60,) * k,
        class_sigmas=(1.0,) * k,
        auto_scale=3.0,
        overlap_pairs=tuple(overlap),
        seed=seed,
    )
    return generate(spec)


def al_config(**overrides):
    base = {
        "dataset": "preset:paper-shape",
        "arm": "al",
        "strategy": "fnr_proportional",
        "per_class_initial": 20,
        "budget": 30,
        "max_iterations": 3,
        "seeds": [0],
        "learner": dict(FAST_LEARNER),
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestIterStopping:
    def test_exactly_j_appends_with_ample_pools(self):
        bundle = small_bundle()
        record = run_active_learning(bundle, al_config(max_iterations=3), seed=0)
        assert record.append_count == 3
        assert len(record.iterations) == 4  # round on the initial set + one per append
        assert "max_iterations" in record.stop_reason
        sizes = [sum(it.train_counts) for it in record.iterations]
        assert sizes[0] == 60
        assert record.iterations[-1].allocation is None
        # every appended round grows by exactly budget minus shortfall
        for prev, nxt in zip(record.iterations, record.iterations[1:]):
            appended = sum(prev.allocation) - sum(prev.shortfall)
            assert sum(nxt.train_counts) - sum(prev.train_counts) == appended
            assert appended <= 30

    def test_budget_ledger_and_conservation(self):
        bundle = small_bundle()
        record = run_active_learning(bundle, al_config(max_iterations=4), seed=1)
        for it in record.iterations[:-1]:
            assert sum(it.allocation) == 30
            assert all(s >= 0 for s in it.shortfall)
        assert record.total_labeled == sum(record.iterations[-1].train_counts)
        assert record.total_labeled <= 60 + 4 * 30
        assert record.labeled_fraction_of_train == record.total_labeled / 900

    def test_delta_consistent_with_counts(self):
        record = run_active_learning(small_bundle(), al_config(), seed=3)
        for it in record.iterations:
            total = sum(it.train_counts)
            assert it.delta == pytest.approx([c / total for c in it.train_counts], abs=1e-12)
            assert sum(it.delta) == pytest.approx(1.0, abs=1e-12)


class TestOodStopping:
    def test_stops_at_first_unsatisfiable_request(self):
        # pools are [3, 3]; any split of 10 must exceed one of them
        bundle = small_bundle(train_counts=(5, 5), overlap=())
        cfg = al_config(
            per_class_initial=2, budget=10, max_iterations=None, stop_on_exhaustion=True
        )
        record = run_active_learning(bundle, cfg, seed=0)
        assert len(record.iterations) == 1
        assert record.append_count == 0
        assert record.iterations[0].allocation is None
        assert "pool exhausted" in record.stop_reason

    def test_satisfiable_requests_keep_running_until_exhaustion(self):
        bundle = small_bundle(train_counts=(60, 60), overlap=())
        cfg = al_config(
            strategy="proportional_random",
            per_class_initial=20,
            budget=20,
            max_iterations=None,
            stop_on_exhaustion=True,
        )
        record = run_active_learning(bundle, cfg, seed=0)
        # delta stays [0.5, 0.5]: each round draws [10, 10] from pools of 40 -> 4 appends
        assert record.append_count == 4
        assert "pool exhausted" in record.stop_reason
        assert record.iterations[-1].allocation is None


class TestShortfallContinue:
    def test_records_shortfall_without_halting(self):
        # class 0 pool is 3, class 1 pool is 100; proportional allocation wants 5 of each
        bundle = small_bundle(train_counts=(13, 110), overlap=())
        cfg = al_config(
            strategy="proportional_random",
            per_class_initial=10,
            budget=10,
            max_iterations=2,
            stop_on_exhaustion=False,
        )
        record = run_active_learning(bundle, cfg, seed=0)
        assert record.append_count == 2
        it0, it1 = record.iterations[0], record.iterations[1]
        assert it0.allocation == [5, 5]
        assert it0.shortfall == [2, 0]
        assert it1.train_counts == [13, 15]
        assert it1.allocation == [5, 5]
        assert it1.shortfall == [5, 0]
        assert record.iterations[2].train_counts == [13, 20]
        assert record.total_labeled == 33

    def test_pools_running_dry_end_the_run_at_the_empty_draw(self):
        # pools start at [20, 30]; appends of 20 empty them with stop_on_exhaustion off
        bundle = small_bundle(train_counts=(30, 40), overlap=())
        cfg = al_config(per_class_initial=10, budget=20, max_iterations=20, stop_on_exhaustion=False)
        record = run_active_learning(bundle, cfg, seed=0)
        assert record.stop_reason == "pools exhausted: nothing left to append"
        last = record.iterations[-1]
        assert last.allocation is None and last.shortfall == [0, 0]
        for it in record.iterations[:-1]:
            stock = [total - held for total, held in zip((30, 40), it.train_counts)]
            assert it.shortfall == [max(want - have, 0) for want, have in zip(it.allocation, stock)]
        assert any(any(it.shortfall) for it in record.iterations)

    def test_entropy_shortfall_is_the_share_beyond_the_stock(self):
        # pools start at [5, 45]; the full train balance [0.25, 0.75] shares 40 candidates as [10, 30]
        bundle = small_bundle(train_counts=(20, 60), overlap=())
        cfg = al_config(
            strategy="entropy_topk", candidate_count=40, select_count=10, budget=0, per_class_initial=15, max_iterations=1
        )
        record = run_active_learning(bundle, cfg, seed=0)
        assert record.iterations[0].shortfall == [max(10 - 5, 0), max(30 - 45, 0)] == [5, 0]
        assert sum(record.iterations[0].allocation) == 10


class TestSingleRound:
    def test_strategy_none_is_one_round_with_no_allocation(self):
        bundle = small_bundle()
        cfg = al_config(strategy="none", max_iterations=None, budget=0)
        record = run_active_learning(bundle, cfg, seed=0)
        assert len(record.iterations) == 1
        assert record.iterations[0].allocation is None
        assert record.stop_reason == "single_round"
        assert record.total_labeled == 60


class TestLoopInvariants:
    """A pool that hands out wrong rows is a program fault: RunError, not a configuration error."""

    @pytest.mark.parametrize(
        "fault, message", [("repeat", "held 2 times"), ("lose", "held 0 times"), ("overdraw", "budget")]
    )
    def test_faulty_draw_is_a_run_error(self, fault, message, monkeypatch):
        bundle, cfg = small_bundle(), al_config()
        initial, _ = split_initial(
            bundle.train, bundle.num_classes, cfg.per_class_initial, RandomSource(0).derive("split")
        )
        draw = ClassPools.draw
        faulty = {
            "repeat": lambda self, i, n: initial.rows[i : i + 1],  # a row already in the training set
            "lose": lambda self, i, n: draw(self, i, n)[1:],  # one drawn row goes missing
            "overdraw": lambda self, i, n: draw(self, i, n + 1),
        }[fault]
        monkeypatch.setattr(ClassPools, "draw", faulty)
        with pytest.raises(RunError, match=message):
            run_active_learning(bundle, cfg, seed=0)


class TestFnrCoupling:
    def test_stored_allocation_recomputable_from_stored_fnr(self):
        bundle = small_bundle()
        record = run_active_learning(bundle, al_config(max_iterations=4), seed=5)
        dummy_pools = ClassPools(make_split([]), [[], [], []])
        checked = 0
        for it in record.iterations:
            if it.allocation is None or sum(it.val_fnr) == 0:
                continue
            recomputed = allocate_fnr(it.val_fnr, 30, dummy_pools)
            assert recomputed.tolist() == it.allocation
            checked += 1
        assert checked >= 1

    def test_cumulative_attention_toward_persistently_worst_class(self):
        # class 2 keeps an FNR floor from its 30% overlap onto class 1
        bundle = small_bundle()
        record = run_active_learning(bundle, al_config(max_iterations=4, budget=60), seed=2)
        worst_every_round = all(
            np.argmax(it.val_fnr) == 2 for it in record.iterations if it.allocation is not None
        )
        if worst_every_round:
            cumulative = np.sum([it.allocation for it in record.iterations if it.allocation], axis=0)
            assert np.argmax(cumulative) == 2


class TestEntropyArm:
    def test_runs_and_records_realized_allocation(self):
        bundle = small_bundle()
        cfg = al_config(
            strategy="entropy_topk",
            candidate_count=40,
            select_count=20,
            budget=0,
            max_iterations=2,
        )
        record = run_active_learning(bundle, cfg, seed=0)
        assert record.append_count == 2
        for it in record.iterations[:-1]:
            assert sum(it.allocation) == 20
        assert record.total_labeled == 60 + 40

    def test_exhaustion_stop(self):
        bundle = small_bundle(train_counts=(30, 30), overlap=())
        cfg = al_config(
            strategy="entropy_topk",
            candidate_count=30,
            select_count=10,
            budget=0,
            per_class_initial=10,
            max_iterations=None,
            stop_on_exhaustion=True,
        )
        record = run_active_learning(bundle, cfg, seed=0)
        # pools start at [20, 20]; candidate share of 15 per class exhausts within two appends
        assert "pool exhausted" in record.stop_reason or "pools exhausted" in record.stop_reason

    def test_no_candidates_left_stops_the_run(self):
        # pools start at [5, 5, 5]; each round draws 10 candidates, keeps 5 and gives 5 back
        bundle = small_bundle(train_counts=(20, 20, 20), overlap=())
        cfg = al_config(
            strategy="entropy_topk", candidate_count=10, select_count=5, budget=0, per_class_initial=15, max_iterations=10
        )
        record = run_active_learning(bundle, cfg, seed=0)
        assert record.stop_reason == "pools exhausted: no entropy candidates available"
        assert record.append_count == 3
        assert record.total_labeled == 60


class TestDeterminism:
    def test_same_seed_identical_records(self):
        bundle = small_bundle()
        cfg = al_config()
        r1 = run_active_learning(bundle, cfg, seed=7, dataset_hash="h")
        r2 = run_active_learning(bundle, cfg, seed=7, dataset_hash="h")
        assert record_payload(r1) == record_payload(r2)

    def test_different_seeds_differ(self):
        bundle = small_bundle()
        cfg = al_config()
        r1 = run_active_learning(bundle, cfg, seed=0)
        r2 = run_active_learning(bundle, cfg, seed=1)
        assert record_payload(r1) != record_payload(r2)

    def test_warm_start_runs(self):
        bundle = small_bundle()
        cfg = al_config(learner=dict(FAST_LEARNER, warm_start=True))
        record = run_active_learning(bundle, cfg, seed=0)
        assert record.append_count == 3


class TestSupervised:
    def sl_config(self, fraction, **overrides):
        return ExperimentConfig.from_dict(
            {
                "dataset": "preset:paper-shape",
                "arm": "sl",
                "sl_fraction": fraction,
                "seeds": [0],
                "learner": dict(FAST_LEARNER),
                **overrides,
            }
        )

    def test_full_fraction_trains_on_everything(self):
        bundle = small_bundle()
        record = run_supervised(bundle, self.sl_config(1.0), seed=0)
        assert record.total_labeled == 900
        assert record.labeled_fraction_of_train == 1.0
        assert len(record.iterations) == 1

    def test_partial_fraction(self):
        bundle = small_bundle()
        record = run_supervised(bundle, self.sl_config(0.2), seed=0)
        assert record.total_labeled == 180

    def test_same_seed_identical_metrics(self):
        bundle = small_bundle()
        cfg = self.sl_config(1.0)
        r1 = run_supervised(bundle, cfg, seed=3)
        r2 = run_supervised(bundle, cfg, seed=3)
        assert r1.final_test_metrics == r2.final_test_metrics

    def test_al_stopping_keys_leave_a_supervised_run_unchanged(self):
        bundle = small_bundle()
        plain = self.sl_config(0.5)
        loaded = self.sl_config(
            0.5, max_iterations=3, stop_on_exhaustion=True, learner=dict(FAST_LEARNER, warm_start=True)
        )
        r1, r2 = run_one(bundle, plain, seed=2), run_one(bundle, loaded, seed=2)
        assert [asdict(it) for it in r2.iterations] == [asdict(it) for it in r1.iterations]
        assert r2.final_test_metrics == r1.final_test_metrics
        assert r2.stop_reason == r1.stop_reason == "supervised fraction 0.5"
        assert r2.total_labeled == r1.total_labeled == 450

    def test_each_arm_function_refuses_the_other_arm(self):
        bundle = small_bundle()
        with pytest.raises(ConfigurationError, match="run_supervised needs an 'sl' config"):
            run_supervised(bundle, al_config(), seed=0)
        with pytest.raises(ConfigurationError, match="run_active_learning needs an 'al' config"):
            run_active_learning(bundle, self.sl_config(0.5), seed=0)

    def test_a_fraction_that_keeps_no_row_is_refused_before_any_round(self):
        bundle = small_bundle(train_counts=(40, 40, 40))
        message = r"^sl_fraction must select at least one of the 120 train rows, got 0\.001$"
        with pytest.raises(ConfigurationError, match=message):
            run_supervised(bundle, self.sl_config(0.001), seed=0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_supervised_seed_names_its_round(self):
        bundle = small_bundle(train_counts=(5, 5), overlap=())
        diverging = {**FAST_LEARNER, "learning_rate": 1e308, "init_scale": 1e200}
        message = r"^seed 4 failed: iteration 0: non-finite loss at epoch \d+ \(training diverged\)$"
        with pytest.raises(RunError, match=message):
            run_sweep(bundle, self.sl_config(1.0, learner=diverging), [4])


class TestSweep:
    def test_records_in_seed_order_and_aggregates(self):
        bundle = small_bundle()
        cfg = al_config(seeds=[3, 1, 2])
        records = run_sweep(bundle, cfg, [3, 1, 2], dataset_hash="h")
        assert [r.seed for r in records] == [3, 1, 2]
        agg = aggregate_records(records)
        assert agg.seeds == (3, 1, 2)
        assert dict(agg.rows)["Total (macro)"].std >= 0

    def test_single_seed_std_zero(self):
        bundle = small_bundle()
        records = run_sweep(bundle, al_config(), [0], dataset_hash="h")
        agg = aggregate_records(records)
        assert dict(agg.rows)["Total (macro)"].std == 0.0

    def test_repeated_seed_std_exactly_zero(self):
        bundle = small_bundle()
        records = [run_one(bundle, al_config(), 5, dataset_hash="h") for _ in range(3)]
        with pytest.raises(ConfigurationError, match=f"^run records repeat seed 5 of config {records[0].config_hash}$"):
            aggregate_records(records)
        # three runs of one seed are identical records; under distinct seed labels their std is exactly 0
        agg = aggregate_records([replace(r, seed=s) for r, s in zip(records, (5, 6, 7))])
        assert dict(agg.rows)["Total (macro)"].std == 0.0
        assert dict(agg.rows)["Total (micro)"].std == 0.0

    def test_three_jobs_fork_two_children_and_reap_them(self, forked):
        """The main process runs the last of the three stacks itself."""
        records = run_sweep(small_bundle(), al_config(), [0, 1, 2, 3, 4], dataset_hash="h", jobs=3)
        assert [r.seed for r in records] == [0, 1, 2, 3, 4]
        assert len(forked) == 2
        assert_reaped(forked)

    def test_parallel_equals_sequential(self):
        bundle = small_bundle()
        cfg = al_config()
        seq = run_sweep(bundle, cfg, [0, 1], dataset_hash="h", jobs=1)
        par = run_sweep(bundle, cfg, [0, 1], dataset_hash="h", jobs=2)
        assert [record_payload(r) for r in seq] == [record_payload(r) for r in par]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_seed_identified(self):
        bundle = small_bundle(train_counts=(5, 5), overlap=())
        diverging = {**FAST_LEARNER, "learning_rate": 1e308, "init_scale": 1e200}
        cfg = al_config(per_class_initial=5, budget=5, max_iterations=2, learner=diverging)
        with pytest.raises(RunError, match="seed 9"):
            run_sweep(bundle, cfg, [9])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diverging_seed_in_a_stack_names_seed_iteration_and_epoch(self, jobs):
        bundle = small_bundle(train_counts=(5, 5), overlap=())
        diverging = {**FAST_LEARNER, "learning_rate": 1e308, "init_scale": 1e200}
        cfg = al_config(per_class_initial=5, budget=5, max_iterations=2, learner=diverging)
        with pytest.raises(RunError, match=r"^seed 4 failed: iteration 0: non-finite loss at epoch \d+ \(training diverged\)$"):
            run_sweep(bundle, cfg, [4, 9, 11], jobs=jobs)

    def test_a_stack_reports_its_first_failing_seed_in_seed_order(self, monkeypatch):
        # seed 9 fails first in time (round 0), seed 4 later (round 2); run one by one, seed 4 fails first
        train_stack = engine.train_stack

        def failing(config, jobs, validation):
            models = train_stack(config, jobs, validation)
            failures = {(9, 0), (4, 2)}
            return [
                TrainingError("injected") if (rng.seed, ts.iteration) in failures else model
                for (ts, rng, _), model in zip(jobs, models)
            ]

        monkeypatch.setattr(engine, "train_stack", failing)
        with pytest.raises(RunError, match=r"^seed 4 failed: iteration 2: injected$"):
            run_sweep(small_bundle(), al_config(max_iterations=3), [4, 9])

    @pytest.mark.parametrize("kind", ["softmax_linear", "mlp"])
    def test_stacks_give_the_records_of_seeds_run_alone(self, kind):
        # short pools make the training sets of the seeds ragged; patience 3 stops them at different epochs
        bundle = small_bundle(train_counts=(26, 60, 200))
        learner = {**FAST_LEARNER, "kind": kind, "hidden_units": 6, "warm_start": True}
        cfg = al_config(per_class_initial=20, budget=30, max_iterations=4, learner=learner)
        seeds = [0, 1, 2, 3, 4]
        one_stack = run_sweep(bundle, cfg, seeds, dataset_hash="h", jobs=1)
        two_stacks = run_sweep(bundle, cfg, seeds, dataset_hash="h", jobs=2)  # stacks of 3 and 2
        alone = [run_one(bundle, cfg, seed, dataset_hash="h") for seed in seeds]
        payloads = [record_payload(r) for r in alone]
        assert [record_payload(r) for r in one_stack] == payloads
        assert [record_payload(r) for r in two_stacks] == payloads
        assert len({r.total_labeled for r in alone}) > 1
        assert len({it.learner_stopped_epoch for r in alone for it in r.iterations}) > 1

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            run_sweep(small_bundle(), al_config(), [])

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds must be >= 0, got -1"):
            run_sweep(small_bundle(), al_config(), [0, -1])
        with pytest.raises(ConfigurationError, match=r"^seeds must be >= 0, got -1$"):
            run_one(small_bundle(), al_config(), seed=-1)


class TestRunRecordRoundTrip:
    def test_dict_round_trip(self):
        record = run_one(small_bundle(), al_config(), seed=0, dataset_hash="abc")
        clone = decode(RunRecord, record_payload(record), "record")
        assert record_payload(clone) == record_payload(record)

    def test_iteration_record_round_trip(self):
        record = run_one(small_bundle(), al_config(), seed=0)
        it = record.iterations[0]
        assert asdict(decode(IterationRecord, asdict(it), "iteration")) == asdict(it)


class TestEvaluateModel:
    def test_matches_manual_confusion(self):
        bundle = small_bundle()
        record = run_one(bundle, al_config(), seed=0)
        model = record.terminal_model
        rep = evaluate_model(model, bundle.test, bundle.num_classes)
        assert rep == record.final_test_metrics
