from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from oracles import nearest_mean_predictions
from poolal.config import decode
from poolal.errors import ConfigurationError
from poolal.synthgen import GeneratorSpec, generate, tissue_benchmark_preset


def spec_3class(**overrides):
    base = dict(
        num_classes=3,
        feature_dim=5,
        per_class_train_counts=(50, 80, 120),
        per_class_val_counts=(20, 20, 20),
        per_class_test_counts=(30, 30, 30),
        class_sigmas=(1.0, 1.0, 1.0),
        auto_scale=10.0,
        seed=21,
    )
    base.update(overrides)
    return GeneratorSpec(**base)


class TestGenerate:
    def test_counts_match_spec_exactly(self):
        bundle = generate(spec_3class())
        assert bundle.split_counts(bundle.train) == [50, 80, 120]
        assert bundle.split_counts(bundle.validation) == [20, 20, 20]
        assert bundle.split_counts(bundle.test) == [30, 30, 30]

    def test_same_seed_byte_identical(self):
        b1 = generate(spec_3class())
        b2 = generate(spec_3class())
        for split in ("train", "validation", "test"):
            s1, s2 = getattr(b1, split), getattr(b2, split)
            assert np.array_equal(s1.ids, s2.ids)
            assert np.array_equal(s1.y, s2.y)
            assert np.array_equal(s1.X, s2.X)

    def test_different_seed_differs(self):
        X1 = generate(spec_3class(seed=1)).train.X
        X2 = generate(spec_3class(seed=2)).train.X
        assert not np.array_equal(X1, X2)

    def test_ids_are_split_stamped_and_unique(self):
        bundle = generate(spec_3class())
        ids = [i for split in ("train", "validation", "test") for i in getattr(bundle, split).ids.tolist()]
        assert len(set(ids)) == len(ids)
        assert all(i.startswith("train-") for i in bundle.train.ids.tolist())
        assert all(i.startswith("val-") for i in bundle.validation.ids.tolist())

    def test_well_separated_clusters_nearest_mean_accuracy(self):
        # separation / sigma = 20: nearest-mean must be essentially perfect
        spec = spec_3class(auto_scale=20.0, class_sigmas=(1.0, 1.0, 1.0))
        bundle = generate(spec)
        X, y = bundle.test.X, bundle.test.y
        preds = nearest_mean_predictions(X, spec.resolved_means())
        assert np.mean(preds == y) >= 0.999

    def test_well_separated_clusters_learnable_to_99_percent(self):
        # separation/sigma = 100: a softmax-linear learner should be near-perfect
        from poolal.config import ExperimentConfig
        from poolal.engine import run_supervised

        spec = spec_3class(auto_scale=10.0, class_sigmas=(0.1, 0.1, 0.1))
        bundle = generate(spec)
        X, y = bundle.test.X, bundle.test.y
        assert np.mean(nearest_mean_predictions(X, spec.resolved_means()) == y) == 1.0

        cfg = ExperimentConfig.from_dict(
            {
                "dataset": "preset:paper-shape",
                "arm": "sl",
                "sl_fraction": 1.0,
                "seeds": [0],
                "learner": {"learning_rate": 0.1, "max_epochs": 30, "patience": 3},
            }
        )
        record = run_supervised(bundle, 1.0, cfg, seed=0)
        assert record.final_test_metrics.accuracy >= 0.99

    def test_overlap_caps_bayes_recall(self):
        # 30% of class 2 is generated around class 1's mean: nearest-mean
        # recall for class 2 lands at 0.7 (the overlap count is exact)
        spec = spec_3class(
            auto_scale=20.0,
            per_class_train_counts=(100, 100, 1000),
            overlap_pairs=((2, 1, 0.3),),
        )
        bundle = generate(spec)
        X, y = bundle.train.X, bundle.train.y
        preds = nearest_mean_predictions(X, spec.resolved_means())
        mask = y == 2
        recall = np.mean(preds[mask] == 2)
        assert recall == pytest.approx(0.7, abs=0.005)
        # the relocated samples are claimed by the overlap target
        assert np.mean(preds[mask] == 1) == pytest.approx(0.3, abs=0.005)

    def test_zero_count_class_absent_everywhere(self):
        spec = spec_3class(
            per_class_train_counts=(50, 0, 120),
            per_class_val_counts=(20, 0, 20),
            per_class_test_counts=(30, 0, 30),
        )
        bundle = generate(spec)
        assert bundle.split_counts(bundle.train)[1] == 0
        assert bundle.split_counts(bundle.validation)[1] == 0
        assert bundle.num_classes == 3

    def test_explicit_means_respected(self):
        means = ((0.0, 0.0), (100.0, 0.0))
        spec = GeneratorSpec(
            num_classes=2,
            feature_dim=2,
            per_class_train_counts=(40, 40),
            per_class_val_counts=(5, 5),
            per_class_test_counts=(5, 5),
            class_sigmas=(0.5, 0.5),
            class_means=means,
            seed=3,
        )
        bundle = generate(spec)
        X, y = bundle.train.X, bundle.train.y
        assert np.linalg.norm(X[y == 0].mean(axis=0) - [0, 0]) < 0.5
        assert np.linalg.norm(X[y == 1].mean(axis=0) - [100, 0]) < 0.5


class TestSpecValidation:
    def test_bad_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="entries"):
            spec_3class(per_class_train_counts=(1, 2))
        with pytest.raises(ConfigurationError, match=">= 0"):
            spec_3class(per_class_val_counts=(1, -1, 1))
        with pytest.raises(ConfigurationError, match="> 0"):
            spec_3class(class_sigmas=(1.0, 0.0, 1.0))
        with pytest.raises(ConfigurationError, match="distinct"):
            spec_3class(overlap_pairs=((1, 1, 0.5),))
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            spec_3class(overlap_pairs=((0, 1, 1.5),))
        with pytest.raises(ConfigurationError, match="sum to <= 1"):
            spec_3class(overlap_pairs=((0, 1, 0.6), (0, 2, 0.6)))
        with pytest.raises(ConfigurationError, match="feature_dim >= num_classes"):
            spec_3class(feature_dim=2)

    def test_dict_round_trip(self):
        spec = spec_3class(overlap_pairs=((2, 1, 0.25),))
        clone = decode(GeneratorSpec, asdict(spec), "spec")
        assert asdict(clone) == asdict(spec)
        assert np.array_equal(
            generate(clone).train.X,
            generate(spec).train.X,
        )


class TestPreset:
    def test_shape_of_the_built_in_benchmark(self):
        spec = tissue_benchmark_preset()
        assert spec.num_classes == 5
        assert sum(spec.per_class_train_counts) == pytest.approx(34600, abs=10)
        assert spec.per_class_val_counts == (250,) * 5
        assert sum(spec.per_class_val_counts) == 1250
        blood = spec.class_names.index("blood")
        assert spec.per_class_test_counts[blood] == min(spec.per_class_test_counts)
        assert spec.per_class_test_counts[blood] == pytest.approx(411, abs=1)
        # one pair hardens the stroma-like class, one confuses blood with stroma
        stroma = spec.class_names.index("stroma")
        sources = {a for a, _, _ in spec.overlap_pairs}
        assert sources == {stroma, blood}

    def test_preset_seed_override(self):
        assert tissue_benchmark_preset(seed=3).seed == 3
