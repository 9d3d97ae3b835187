from __future__ import annotations

import os
import re
import sys
import time

import numpy as np
import pytest

from conftest import assert_reaped, make_split, pools_of
from poolal.core import (
    DatasetBundle,
    RandomSource,
    Split,
    TrainingSet,
    class_balance,
    fork_map,
    split_initial,
)
from poolal.errors import ConfigurationError, RunError


def whole(labels, num_classes):
    """A training set holding every row of a fresh split with the given labels."""
    return TrainingSet.from_rows(make_split(labels), np.arange(len(labels)), num_classes)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(42).generator().integers(0, 1000, size=20)
        b = RandomSource(42).generator().integers(0, 1000, size=20)
        assert np.array_equal(a, b)

    def test_derive_is_deterministic_and_distinct(self):
        r = RandomSource(7)
        d1 = r.derive("train", 3).generator().integers(0, 10**9)
        d2 = r.derive("train", 3).generator().integers(0, 10**9)
        d3 = r.derive("train", 4).generator().integers(0, 10**9)
        assert d1 == d2
        assert d1 != d3

    def test_string_keys_stable(self):
        # sha256-based key mapping must not depend on interpreter hash state
        assert RandomSource(1).derive("split").key == RandomSource(1).derive("split").key


class TestSplit:
    @pytest.mark.parametrize("bad_id", ["val-000000\x00", "x\x00y", "\x00"])
    def test_nul_in_an_id_rejected_naming_the_id(self, bad_id):
        # as a str array, "val-000000\x00" would become "val-000000" and collide with the first id
        with pytest.raises(ConfigurationError, match=re.escape(f"sample id {bad_id!r} holds a NUL character")):
            Split(np.zeros((2, 2)), [0, 1], ["val-000000", bad_id])


class TestSplitInitial:
    def test_cohort_scale_split_sizes(self, cohort_scale_train):
        train, counts = cohort_scale_train
        ts, pools = split_initial(train, 5, 25000, RandomSource(0))
        assert ts.size == 125000
        assert sum(pools.remaining_counts()) == 346016 - 125000 == 221016
        assert ts.counts == [25000] * 5
        assert pools.remaining_counts() == [c - 25000 for c in counts]

    def test_zero_initial_everything_pooled(self):
        train = make_split([0, 0, 1, 1, 1])
        ts, pools = split_initial(train, 2, 0, RandomSource(3))
        assert ts.size == 0
        assert pools.remaining_counts() == [2, 3]

    def test_seeded_membership_reproducible(self):
        train = make_split([0] * 10 + [1] * 10 + [2] * 10)
        ts1, pools1 = split_initial(train, 3, 4, RandomSource(11))
        ts2, pools2 = split_initial(train, 3, 4, RandomSource(11))
        assert ts1.counts == [4, 4, 4]
        assert pools1.remaining_counts() == [6, 6, 6]
        assert set(ts1.rows.tolist()) == set(ts2.rows.tolist())
        assert set(pools1.draw(0, 6).tolist()) == set(pools2.draw(0, 6).tolist())

    def test_different_seed_different_membership(self):
        train = make_split([0] * 30 + [1] * 30)
        ts1, _ = split_initial(train, 2, 10, RandomSource(1))
        ts2, _ = split_initial(train, 2, 10, RandomSource(2))
        assert set(ts1.rows.tolist()) != set(ts2.rows.tolist())

    def test_union_is_input_and_disjoint(self):
        train = make_split([0] * 7 + [1] * 9 + [2] * 6)
        ts, pools = split_initial(train, 3, 5, RandomSource(5))
        pool_rows = set()
        for i in range(3):
            pool_rows |= set(pools.draw(i, 100).tolist())
        ts_rows = set(ts.rows.tolist())
        assert ts_rows | pool_rows == set(range(len(train)))
        assert not (ts_rows & pool_rows)

    def test_short_class_takes_all_and_warns(self):
        train = make_split([0] * 3 + [1] * 10)
        with pytest.warns(UserWarning, match="class 0 has only 3"):
            ts, pools = split_initial(train, 2, 5, RandomSource(0))
        assert ts.counts == [3, 5]
        assert pools.remaining_counts() == [0, 5]

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            split_initial(make_split([]), 2, 5, RandomSource(0))


class TestPools:
    def _pools(self, counts):
        split = make_split([i for i, c in enumerate(counts) for _ in range(c)])
        return pools_of(split, len(counts))

    def test_draw_counts(self):
        pools = self._pools([6, 2])
        got = pools.draw(0, 4)
        assert len(got) == 4
        assert 4 - len(got) == 0  # no shortfall
        assert pools.remaining_counts()[0] == 2

    def test_draw_zero_is_identity(self):
        pools = self._pools([6])
        got = pools.draw(0, 0)
        assert len(got) == 0
        assert pools.remaining_counts()[0] == 6

    def test_draw_shortfall_empties_pool(self):
        pools = self._pools([3])
        got = pools.draw(0, 5)
        assert len(got) == 3
        assert 5 - len(got) == 2  # shortfall
        assert pools.remaining_counts()[0] == 0

    def test_unknown_class_rejected(self):
        pools = self._pools([3])
        with pytest.raises(ConfigurationError, match="unknown class"):
            pools.draw(1, 1)
        with pytest.raises(ConfigurationError, match="unknown class"):
            pools.draw(-1, 1)

    def test_negative_draw_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            self._pools([3]).draw(0, -1)

    def test_give_back_returns_to_owning_class(self):
        pools = self._pools([4, 4])
        taken = pools.draw(0, 3)
        pools.give_back(taken[:0:-1])
        assert pools.remaining_counts()[0] == 3
        assert pools.remaining_counts()[1] == 4
        # returned rows go to the back of their own pool, in the order given
        assert pools.draw(0, 3)[1:].tolist() == [taken[2], taken[1]]

    def test_conservation_under_random_ops(self):
        gen = np.random.default_rng(9)
        train = make_split(gen.integers(0, 3, size=60).tolist())
        ts, pools = split_initial(train, 3, 5, RandomSource(1))
        for _ in range(20):
            cls = int(gen.integers(0, 3))
            drawn = pools.draw(cls, int(gen.integers(0, 4)))
            ts = ts.extended(drawn)
            assert ts.size + sum(pools.remaining_counts()) == 60
            assert len(set(ts.rows.tolist())) == ts.size


class TestTrainingSet:
    def test_counts_sum_to_size(self):
        ts = whole([0, 1, 1, 2], 3)
        assert sum(ts.counts) == ts.size == 4
        assert ts.counts == [1, 2, 1]

    def test_extend_bumps_iteration(self):
        split = make_split([0, 1, 1])
        ts = TrainingSet.from_rows(split, [0, 1], 2)
        ts2 = ts.extended([2])
        assert ts2.iteration == 1
        assert ts2.size == 3
        assert ts.size == 2  # original untouched


class TestClassBalance:
    def test_uniform_initial(self):
        ts = whole([0, 1, 2, 3, 4] * 10, 5)
        assert np.allclose(class_balance(ts), [0.2] * 5)

    def test_simple_ratio(self):
        ts = whole([0] * 10 + [1] * 30, 2)
        assert np.allclose(class_balance(ts), [0.25, 0.75])

    def test_degenerate_single_class(self):
        ts = whole([0], 3)
        assert class_balance(ts).tolist() == [1.0, 0.0, 0.0]

    def test_sums_to_one_random(self):
        gen = np.random.default_rng(4)
        for _ in range(50):
            labels = gen.integers(0, 4, size=int(gen.integers(1, 40))).tolist()
            delta = class_balance(whole(labels, 4))
            assert abs(delta.sum() - 1.0) < 1e-12
            assert np.all(delta >= 0) and np.all(delta <= 1)


class TestDatasetBundle:
    def test_duplicate_ids_across_splits_rejected(self):
        classes = ["a", "b"]
        tr = make_split([0, 1], prefix="x")
        va = make_split([0], prefix="x")  # same ids as train
        with pytest.raises(ConfigurationError, match="sample id 'x0' appears in both train and validation"):
            DatasetBundle.build(classes, tr, va, make_split([]), 2)

    def test_unregistered_label_rejected(self):
        classes = ["a", "b"]
        with pytest.raises(ConfigurationError, match="train: sample 's1' has unregistered label 2"):
            DatasetBundle.build(classes, make_split([0, 2]), make_split([]), make_split([]), 2)

    def test_nonfinite_features_rejected(self):
        classes = ["a", "b"]
        bad = Split(np.array([[np.nan, 0.0]]), [0], ["z"])
        with pytest.raises(ConfigurationError, match="train: sample 'z' has non-finite"):
            DatasetBundle.build(classes, bad, make_split([]), make_split([]), 2)

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ConfigurationError, match=re.escape("class names must be distinct, got ['a', 'b', 'a']")):
            DatasetBundle.build(["a", "b", "a"], make_split([0, 1], "tr"), make_split([0], "va"), make_split([1], "te"), 2)

    def test_needs_two_classes(self):
        empty = make_split([])
        with pytest.raises(ConfigurationError, match="at least 2"):
            DatasetBundle.build(["only"], empty, empty, empty, 2)

    @pytest.mark.parametrize("line_break", ["\n", "\r", "\r\n"])
    def test_line_break_in_an_id_rejected_naming_split_and_id(self, line_break):
        bad_id = f"x{line_break}y"
        bad = Split(np.zeros((2, 2)), [0, 1], ["ok", bad_id])
        with pytest.raises(ConfigurationError, match=re.escape(f"validation: sample id {bad_id!r} holds a line break")):
            DatasetBundle.build(["a", "b"], make_split([0], "tr"), bad, make_split([1], "te"), 2)

    @pytest.mark.parametrize("name", ["a\nb", "a\r"])
    def test_line_break_in_a_class_name_rejected(self, name):
        with pytest.raises(ConfigurationError, match=re.escape(f"class name {name!r} holds a line break")):
            DatasetBundle.build([name, "b"], make_split([0], "tr"), make_split([0], "va"), make_split([1], "te"), 2)


def died(task, why):
    return RunError(f"task {task} died: {why}")


class TestForkMap:
    """``fork_map`` runs each task but the last in a forked child and leaves no child behind."""

    def test_results_come_back_in_task_order(self, forked):
        parent = os.getpid()
        results = fork_map(lambda task: (task * 10, os.getpid()), [1, 2, 3, 4], died)
        assert [value for value, _ in results] == [10, 20, 30, 40]
        assert [pid for _, pid in results] == [*forked, parent]  # each task but the last ran in its own child
        assert_reaped(forked)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_k_tasks_fork_k_minus_1_children(self, forked, k):
        assert fork_map(str, list(range(k)), died) == [str(i) for i in range(k)]
        assert len(forked) == k - 1
        assert_reaped(forked)

    def test_a_childs_poolal_error_is_raised_as_is(self, forked):
        def fail_first(task):
            if task == 0:
                raise RunError("seed 4 failed: iteration 0: diverged")
            return task

        with pytest.raises(RunError, match=r"^seed 4 failed: iteration 0: diverged$"):
            fork_map(fail_first, [0, 1], died)
        assert len(forked) == 1
        assert_reaped(forked)

    def test_any_other_child_failure_is_a_child_process_error_with_its_message(self, forked):
        def fail_first(task):
            if task == 0:
                raise ValueError("bad value")
            return task

        with pytest.raises(ChildProcessError, match=r"^bad value$") as caught:
            fork_map(fail_first, [0, 1], died)
        assert isinstance(caught.value, OSError)
        assert_reaped(forked)

    def test_a_result_that_cannot_be_pickled_is_a_child_process_error(self, forked):
        with pytest.raises(ChildProcessError, match="pickle"):
            fork_map(lambda task: (lambda: task), [0, 1], died)
        assert_reaped(forked)

    def test_a_failure_here_is_raised_as_is_after_the_children_finish(self, forked, tmp_path):
        def fail_last(task):
            if task == 2:
                raise KeyError("here")
            time.sleep(0.2)
            (tmp_path / f"done-{task}").touch()
            return task

        with pytest.raises(KeyError, match="here"):
            fork_map(fail_last, [0, 1, 2], died)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["done-0", "done-1"]  # waited for, not killed
        assert_reaped(forked)

    def test_the_first_failure_in_task_order_wins(self, forked):
        def fail(task):
            if task == 0:
                time.sleep(0.2)  # fails last in time, first in task order
            raise RunError(f"task {task} failed")

        with pytest.raises(RunError, match=r"^task 0 failed$"):
            fork_map(fail, [0, 1, 2], died)
        assert_reaped(forked)

    @pytest.mark.parametrize(
        "end, code", [(lambda: os._exit(9), 9), (lambda: os.kill(os.getpid(), 9), -9)], ids=["exit-9", "sigkill"]
    )
    def test_a_child_that_ends_without_a_result_is_named_by_died(self, forked, end, code):
        def end_first(task):
            if task == 0:
                end()
            return task

        with pytest.raises(RunError, match=rf"^task 0 died: its process ended with exit code {code} and sent no result$"):
            fork_map(end_first, [0, 1], died)
        assert_reaped(forked)

    def test_an_interrupt_kills_and_reaps_the_children(self, forked):
        def interrupt_last(task):
            if task == 2:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fork_map(interrupt_last, [0, 1, 2], died)
        assert time.monotonic() - start < 30
        assert len(forked) == 2
        assert_reaped(forked)

    def test_buffered_output_is_written_once(self, tmp_path, monkeypatch, forked):
        """A child leaves through ``os._exit``, which flushes no buffer it inherited."""
        stdout = (tmp_path / "stdout.txt").open("w", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        print("buffered on stdout")
        assert fork_map(str, [0, 1, 2], died) == ["0", "1", "2"]
        stdout.close()
        assert (tmp_path / "stdout.txt").read_text(encoding="utf-8") == "buffered on stdout\n"
        assert_reaped(forked)
