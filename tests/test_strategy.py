from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import make_split, pools_of
from oracles import brute_force_allocation
from poolal.core import ClassPools, RandomSource, Split
from poolal.errors import ConfigurationError, PoolsExhaustedError
from poolal.learner import TrainedModel
from poolal.strategy import (
    StrategyKind,
    allocate_fnr,
    allocate_proportional,
    candidate_targets,
    entropy_of,
    largest_remainder,
    row_entropies,
    sample_fraction,
    select_entropy_topk,
)


def pools_with(counts, feature_dim=2, prefix="p"):
    split = make_split([i for i, c in enumerate(counts) for _ in range(c)], prefix=prefix, feature_dim=feature_dim)
    return pools_of(split, len(counts))


class TestLargestRemainder:
    def test_equal_weights_tie_break_by_index(self):
        assert largest_remainder(np.array([1.0, 1.0, 1.0]), 10).tolist() == [4, 3, 3]

    def test_index_breaks_only_bit_equal_float_ties(self):
        # Classes 0-2 tie at remainder 4/7 as rationals, and two of the three
        # leftover units go among them. The float remainders differ in their
        # last bits, so classes 1 and 2 get them, not 0 and 1 by index.
        fnr = np.array([30, 23, 9, 68, 10]) / 250
        assert largest_remainder(fnr, 2000).tolist() == [428, 329, 129, 971, 143]

    def test_exact_shares_untouched(self):
        assert largest_remainder(np.array([0.2, 0.1, 0.1, 0.1, 0.0]), 20000 * 1).tolist() == [
            8000,
            4000,
            4000,
            4000,
            0,
        ]

    def test_conserves_total_randomized(self):
        gen = np.random.default_rng(0)
        for _ in range(200):
            k = int(gen.integers(1, 8))
            w = gen.random(k) * gen.integers(1, 100)
            w[int(gen.integers(0, k))] += 1e-9  # ensure positive sum
            total = int(gen.integers(0, 10000))
            counts = largest_remainder(w, total)
            assert counts.sum() == total
            assert np.all(counts >= 0)

    def test_order_preserving(self):
        gen = np.random.default_rng(1)
        for _ in range(200):
            w = gen.random(6)
            counts = largest_remainder(w, int(gen.integers(1, 500)))
            for a in range(6):
                for b in range(6):
                    if w[a] > w[b]:
                        assert counts[a] >= counts[b]
                    elif w[a] == w[b]:
                        assert abs(int(counts[a]) - int(counts[b])) <= 1

    def test_zero_sum_rejected(self):
        with pytest.raises(ConfigurationError, match="positive weight sum"):
            largest_remainder(np.zeros(3), 5)


class TestAllocateFnr:
    def test_hand_evaluated_shares(self):
        pools = pools_with([1, 1, 1, 1, 1])
        req = allocate_fnr([0.2, 0.1, 0.1, 0.1, 0.0], 20000, pools)
        assert req.counts == (8000, 4000, 4000, 4000, 0)
        assert req.total == 20000

    def test_uniform_fnr_uniform_split(self):
        req = allocate_fnr([0.1] * 5, 20000, pools_with([1] * 5))
        assert req.counts == (4000,) * 5

    def test_rounding_tie_break(self):
        req = allocate_fnr([1.0, 1.0, 1.0], 10, pools_with([1, 1, 1]))
        assert req.counts == (4, 3, 3)

    def test_zero_fnr_uniform_over_nonempty_pools(self):
        req = allocate_fnr([0.0, 0.0, 0.0], 9, pools_with([5, 5, 5]))
        assert req.counts == (3, 3, 3)
        req = allocate_fnr([0.0, 0.0, 0.0], 9, pools_with([5, 0, 5]))
        assert req.counts == (5, 0, 4)

    def test_zero_fnr_all_pools_empty_allocates_nothing(self):
        req = allocate_fnr([0.0, 0.0], 9, pools_with([0, 0]))
        assert req.counts == (0, 0)

    def test_not_clipped_to_pool_size(self):
        req = allocate_fnr([1.0, 0.0], 100, pools_with([3, 3]))
        assert req.counts == (100, 0)

    def test_scale_invariance(self):
        gen = np.random.default_rng(2)
        pools = pools_with([2, 2, 2, 2])
        for _ in range(50):
            fnr = gen.random(4) * 0.5
            if fnr.sum() == 0:
                continue
            a = allocate_fnr(fnr, 777, pools)
            b = allocate_fnr(fnr * 1.7, 777, pools)  # stays within [0, 1]
            assert a.counts == b.counts

    def test_matches_brute_force(self):
        gen = np.random.default_rng(3)
        pools = pools_with([1] * 6)
        for _ in range(100):
            fnr = gen.random(6)
            budget = int(gen.integers(0, 5000))
            got = allocate_fnr(fnr.tolist(), budget, pools)
            assert list(got.counts) == brute_force_allocation(fnr.tolist(), budget)

    def test_invalid_inputs_rejected(self):
        pools = pools_with([1, 1])
        with pytest.raises(ConfigurationError, match=">= 0"):
            allocate_fnr([0.1, 0.1], -1, pools)
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            allocate_fnr([0.5, 1.5], 10, pools)
        with pytest.raises(ConfigurationError, match="length"):
            allocate_fnr([0.5], 10, pools)


class TestAllocateProportional:
    def test_uniform(self):
        assert allocate_proportional([0.2] * 5, 20000, pools_with([1] * 5)).counts == (4000,) * 5

    def test_hand_arithmetic(self):
        assert allocate_proportional([0.25, 0.75], 8, pools_with([1, 1])).counts == (2, 6)

    def test_degenerate_distribution(self):
        assert allocate_proportional([1.0, 0.0], 7, pools_with([1, 1])).counts == (7, 0)

    def test_zero_sum_rejected(self):
        with pytest.raises(ConfigurationError, match="positive sum"):
            allocate_proportional([0.0, 0.0], 5, pools_with([1, 1]))


class TestEntropy:
    def test_deterministic_prediction(self):
        assert entropy_of([1.0, 0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log_k(self):
        assert entropy_of([0.2] * 5) == pytest.approx(math.log(5), abs=1e-12)

    def test_half_half(self):
        assert entropy_of([0.5, 0.5, 0.0, 0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_malformed_rejected(self):
        with pytest.raises(ConfigurationError, match="negative"):
            entropy_of([1.2, -0.2])
        with pytest.raises(ConfigurationError, match="sums to"):
            entropy_of([0.7, 0.7])
        with pytest.raises(ConfigurationError, match="non-finite"):
            entropy_of([float("nan"), 1.0])

    def test_row_entropies_match_entropy_of(self):
        # bit for bit below 8 classes, exact zeros included; within 1e-15 from 8 classes up
        gen = np.random.default_rng(8)
        for k in (2, 3, 5, 7, 8, 12):
            P = gen.random((2000, k)) ** 3
            P[gen.random(P.shape) < 0.2] = 0.0
            P[P.sum(axis=1) == 0, 0] = 1.0
            P /= P.sum(axis=1, keepdims=True)
            expected = np.array([entropy_of(p) for p in P])
            if k < 8:
                assert np.array_equal(row_entropies(P), expected)
            else:
                assert np.allclose(row_entropies(P), expected, rtol=0, atol=1e-15)

    def test_nan_rates_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            allocate_fnr([float("nan"), 0.5], 10, pools_with([1, 1]))


def margin_model():
    """1-d, 2-class model: entropy strictly decreases with |feature|."""
    return TrainedModel(
        kind="softmax_linear",
        feature_dim=1,
        num_classes=2,
        params={"W": np.array([[2.0, 0.0]]), "b": np.zeros(2)},
    )


def one_class_pools(feature_values, prefix="e"):
    """Class 0 holds one row per feature value (ids prefix0, prefix1, ...); class 1 one row at 9.0."""
    n = len(feature_values)
    split = Split(
        np.array([*feature_values, 9.0])[:, None],
        [0] * n + [1],
        [f"{prefix}{i}" for i in range(n)] + [f"{prefix}-other"],
    )
    return ClassPools(split, [np.arange(n), [n]]), split


class TestSelectEntropyTopK:
    def test_select_all_when_counts_equal(self):
        pools, split = one_class_pools([0.0, 1.0, 2.0])
        selected = select_entropy_topk(
            margin_model(), pools, [0.75, 0.25], candidate_count=4, select_count=4, rng=RandomSource(0)
        )
        assert set(split.ids[selected].tolist()) == {"e0", "e1", "e2"} | {"e-other"}
        assert pools.total_remaining() == 0

    def test_top_entropy_selected_and_rest_returned(self):
        # |feature| 0 and 0.5 give the two highest entropies; 2.0 and 3.0 are confident
        pools, split = one_class_pools([2.0, 0.0, 3.0, 0.5])
        selected = select_entropy_topk(
            margin_model(), pools, [1.0, 0.0], candidate_count=4, select_count=2, rng=RandomSource(0)
        )
        assert sorted(split.ids[selected].tolist()) == ["e1", "e3"]
        assert pools.remaining(0) == 2  # rejected candidates are back
        assert pools.remaining(1) == 1  # untouched class

    def test_entropy_tie_broken_by_sample_id(self):
        pools, split = one_class_pools([1.0, 1.0, 1.0])
        selected = select_entropy_topk(
            margin_model(), pools, [1.0, 0.0], candidate_count=3, select_count=2, rng=RandomSource(0)
        )
        assert sorted(split.ids[selected].tolist()) == ["e0", "e1"]

    def test_min_selected_geq_max_rejected(self):
        gen = np.random.default_rng(5)
        from poolal.learner import predict_proba
        from poolal.strategy import entropy_of as H

        for _ in range(100):
            values = gen.standard_normal(int(gen.integers(3, 12))).tolist()
            pools, split = one_class_pools(values, prefix=f"r{_}")
            k = int(gen.integers(1, len(values) + 1))
            model = margin_model()
            selected = select_entropy_topk(
                model, pools, [1.0, 0.0], candidate_count=len(values), select_count=k, rng=RandomSource(1)
            )
            rest = pools.draw(0, 100)
            hs = [H(predict_proba(model, split.X[r])) for r in selected]
            hr = [H(predict_proba(model, split.X[r])) for r in rest]
            if hs and hr:
                assert min(hs) >= max(hr) - 1e-12

    def test_exhausted_pools_signal(self):
        pools = ClassPools(make_split([]), [[], []])
        with pytest.raises(PoolsExhaustedError):
            select_entropy_topk(margin_model(), pools, [0.5, 0.5], 4, 2, RandomSource(0))

    def test_candidate_shortfall_redistributed(self):
        # class 0 can only supply 1 of its 3-candidate share; class 1 covers the rest
        pools = pools_with([1, 10], feature_dim=1)
        targets = candidate_targets([0.75, 0.25], 4, pools)
        assert targets.tolist() == [1, 3]

    def test_reference_scale_selection_over_cohort_pools(self, cohort_scale_train):
        # 30000 candidates drawn by the cohort's class distribution, top 20000 kept
        train, counts = cohort_scale_train
        pools = pools_of(train, 5)
        delta = np.asarray(counts, dtype=float) / sum(counts)
        model = TrainedModel(
            kind="softmax_linear",
            feature_dim=1,
            num_classes=5,
            params={"W": np.zeros((1, 5)), "b": np.zeros(5)},
        )
        expected_targets = largest_remainder(delta, 30000)
        selected = select_entropy_topk(
            model, pools, delta, candidate_count=30000, select_count=20000, rng=RandomSource(0)
        )
        assert len(selected) == 20000
        assert pools.total_remaining() == sum(counts) - 20000
        drawn_per_class = np.array(counts) - np.array(pools.remaining_counts())
        selected_per_class = np.bincount(train.y[selected], minlength=5)
        assert np.array_equal(drawn_per_class, selected_per_class)
        assert np.all(selected_per_class <= expected_targets)

    def test_strategy_kind_validation(self):
        with pytest.raises(ConfigurationError, match="select_count"):
            StrategyKind("entropy_topk", candidate_count=10, select_count=20)
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            StrategyKind("magic")
        with pytest.raises(ConfigurationError, match="only apply"):
            StrategyKind("fnr_proportional", candidate_count=5, select_count=5)
        kind = StrategyKind("entropy_topk", candidate_count=30000, select_count=20000)
        assert kind.candidate_count == 30000


class TestSampleFraction:
    def test_full_fraction_is_identity(self):
        samples = make_split([0, 0, 1, 1, 1])
        assert np.array_equal(sample_fraction(samples, 1.0, RandomSource(0)), np.arange(5))

    def test_cohort_scale_fifth(self, cohort_scale_train):
        train, _ = cohort_scale_train
        subset = sample_fraction(train, 0.2, RandomSource(0))
        assert len(subset) == 69203  # round(346016 * 0.2)

    def test_natural_ratio_preserved(self):
        samples = make_split([0] * 10 + [1] * 30)
        subset = sample_fraction(samples, 0.5, RandomSource(1))
        counts = np.bincount(samples.y[subset], minlength=2).tolist()
        assert counts == [5, 15]

    def test_per_class_quota_deviation_below_one(self):
        gen = np.random.default_rng(6)
        for _ in range(50):
            counts = gen.integers(1, 60, size=3)
            samples = make_split([i for i, c in enumerate(counts) for _ in range(c)])
            fraction = float(gen.uniform(0.05, 1.0))
            subset = sample_fraction(samples, fraction, RandomSource(int(gen.integers(1e6))))
            got = np.bincount(samples.y[subset], minlength=3)
            quota = counts * (len(subset) / counts.sum())
            assert np.all(np.abs(got - quota) < 1.0)

    def test_no_duplicates_and_deterministic(self):
        samples = make_split([0] * 20 + [1] * 20)
        a = sample_fraction(samples, 0.4, RandomSource(9))
        b = sample_fraction(samples, 0.4, RandomSource(9))
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == len(a)

    def test_fraction_out_of_range_rejected(self):
        samples = make_split([0, 1])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError, match="fraction"):
                sample_fraction(samples, bad, RandomSource(0))
