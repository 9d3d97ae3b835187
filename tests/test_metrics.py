from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from oracles import brute_force_metrics
from poolal.errors import EvaluationError
from poolal.metrics import confusion, report


class TestConfusion:
    def test_hand_tally(self):
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_perfect_prediction_is_diagonal(self):
        cm = confusion([0, 1, 1, 2], [0, 1, 1, 2], 3)
        assert cm.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]

    def test_single_sample(self):
        cm = confusion([0], [1], 2)
        assert cm.dtype == np.int64 and cm.tolist() == [[0, 1], [0, 0]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="length"):
            confusion([0, 1], [0], 2)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError, match="empty"):
            confusion([], [], 2)

    def test_unknown_labels_rejected(self):
        with pytest.raises(EvaluationError, match="unregistered"):
            confusion([0, 2], [0, 0], 2)
        with pytest.raises(EvaluationError, match="unregistered"):
            confusion([0, 0], [0, -1], 2)


class TestReport:
    def test_hand_computed_example(self):
        rep = report(confusion([0, 0, 1, 1], [0, 1, 1, 1], 2))
        a, b = rep.per_class
        assert a.f1 == pytest.approx(2 / 3, abs=1e-15)
        assert b.f1 == pytest.approx(0.8, abs=1e-15)
        assert rep.macro_f1 == pytest.approx((2 / 3 + 0.8) / 2, abs=1e-15)
        assert rep.micro_f1 == 0.75
        assert rep.accuracy == 0.75
        assert a.fnr == 0.5
        assert a.precision == 1.0 and a.recall == 0.5
        assert a.support == 2 and b.support == 2

    def test_perfect_prediction(self):
        rep = report(confusion([0, 1, 2, 2], [0, 1, 2, 2], 3))
        assert all(m.f1 == 1.0 and m.fnr == 0.0 for m in rep.per_class)
        assert rep.micro_f1 == 1.0 and rep.macro_f1 == 1.0

    def test_zero_support_class_counts_in_macro(self):
        # class 2 never occurs and is never predicted: f1 0 by convention
        rep = report(confusion([0, 1], [0, 1], 3))
        assert rep.per_class[2].f1 == 0.0
        assert rep.per_class[2].support == 0
        assert rep.macro_f1 == pytest.approx(2 / 3, abs=1e-15)

    def test_permutation_invariance(self):
        gen = np.random.default_rng(0)
        true = gen.integers(0, 3, size=40).tolist()
        pred = gen.integers(0, 3, size=40).tolist()
        rep1 = report(confusion(true, pred, 3))
        perm = gen.permutation(40)
        rep2 = report(confusion([true[i] for i in perm], [pred[i] for i in perm], 3))
        assert rep1 == rep2

    def test_matches_brute_force_oracle_on_random_instances(self):
        gen = np.random.default_rng(123)
        for _ in range(300):
            num_classes = int(gen.integers(2, 4))
            n = int(gen.integers(1, 9))
            true = gen.integers(0, num_classes, size=n).tolist()
            pred = gen.integers(0, num_classes, size=n).tolist()
            rep = report(confusion(true, pred, num_classes))
            oracle = brute_force_metrics(true, pred, num_classes)
            assert rep.micro_f1 == pytest.approx(oracle["micro_f1"], abs=1e-12)
            assert rep.macro_f1 == pytest.approx(oracle["macro_f1"], abs=1e-12)
            assert rep.accuracy == pytest.approx(oracle["accuracy"], abs=1e-12)
            for m, om in zip(rep.per_class, oracle["per_class"]):
                assert m.precision == pytest.approx(om["precision"], abs=1e-12)
                assert m.recall == pytest.approx(om["recall"], abs=1e-12)
                assert m.f1 == pytest.approx(om["f1"], abs=1e-12)
                assert m.fnr == pytest.approx(om["fnr"], abs=1e-12)

    def test_micro_equals_accuracy_and_fnr_identity(self):
        gen = np.random.default_rng(7)
        for _ in range(200):
            num_classes = int(gen.integers(2, 6))
            n = int(gen.integers(1, 50))
            true = gen.integers(0, num_classes, size=n).tolist()
            pred = gen.integers(0, num_classes, size=n).tolist()
            rep = report(confusion(true, pred, num_classes))
            assert rep.micro_f1 == rep.accuracy
            for m in rep.per_class:
                if m.support > 0:
                    assert abs(m.fnr - (1.0 - m.recall)) <= 1e-12

    def test_round_trip_dict(self):
        rep = report(confusion([0, 1, 1], [0, 0, 1], 2))
        from poolal.config import decode
        from poolal.metrics import MetricsReport

        assert decode(MetricsReport, asdict(rep), "report") == rep
