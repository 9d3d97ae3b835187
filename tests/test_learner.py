from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from conftest import make_split
from oracles import loss_and_gradient, reference_sgd
from poolal import learner
from poolal.config import decode
from poolal.core import RandomSource, Split, TrainingSet
from poolal.errors import ConfigurationError, TrainingError
from poolal.learner import (
    LearnerConfig,
    TrainedModel,
    gradient_check,
    predict,
    predict_batch,
    predict_proba,
    train,
    train_stack,
)


def linear_model(W, b):
    W = np.asarray(W, dtype=float)
    return TrainedModel(
        kind="softmax_linear",
        feature_dim=W.shape[0],
        num_classes=W.shape[1],
        params={"W": W, "b": np.asarray(b, dtype=float)},
    )


def blob_samples(n_per_class, sigma=0.1, seed=0):
    """Two 2-d blobs at (2, 2) and (-2, -2), as one split."""
    gen = np.random.default_rng(seed)
    centers = ((2.0, 2.0), (-2.0, -2.0))
    X = np.concatenate([np.asarray(c) + sigma * gen.standard_normal((n_per_class, 2)) for c in centers])
    ids = [f"blob{label}-{i}" for label in range(2) for i in range(n_per_class)]
    return Split(X, np.repeat([0, 1], n_per_class), ids)


def every_row(split, num_classes=2):
    return TrainingSet.from_rows(split, np.arange(len(split)), num_classes)


class TestLearnerConfig:
    def test_defaults(self):
        cfg = LearnerConfig()
        assert cfg.kind == "softmax_linear"
        assert cfg.learning_rate == 1.5e-4
        assert cfg.batch_size == 64
        assert cfg.patience == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bogus"},
            {"learning_rate": -0.1},
            {"batch_size": 0},
            {"max_epochs": 0},
            {"patience": 0},
            {"hidden_units": 0},
            {"init_scale": -1.0},
            {"batch_size": 64.5},
            {"max_epochs": 2.5},
            {"hidden_units": 8.5},
            {"patience": "5"},
            {"max_epochs": True},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": "1e6"},
            {"learning_rate": True},
            {"init_scale": float("inf")},
            {"warm_start": "no"},
            {"warm_start": 1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigurationError, match=field):
            decode(LearnerConfig, kwargs, "learner")

    def test_values_kept_as_given(self):
        cfg = LearnerConfig(learning_rate=0, init_scale=1)
        assert asdict(cfg)["learning_rate"] == 0 and type(cfg.learning_rate) is int
        assert type(cfg.init_scale) is int


class TestPredict:
    def test_zero_parameters_uniform_over_five(self):
        model = linear_model(np.zeros((3, 5)), np.zeros(5))
        p = predict_proba(model, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(p, 0.2, atol=1e-15)

    def test_shift_invariance(self):
        model = linear_model([[1.0, 2.0], [0.5, -1.0]], [0.0, 0.0])
        shifted = linear_model([[1.0, 2.0], [0.5, -1.0]], [7.0, 7.0])
        x = np.array([0.3, -1.2])
        assert np.allclose(predict_proba(model, x), predict_proba(shifted, x), atol=1e-12)

    def test_closed_form_softmax(self):
        # logits [ln 2, 0] -> probabilities [2/3, 1/3]
        model = linear_model([[math.log(2.0), 0.0]], [0.0, 0.0])
        p = predict_proba(model, np.array([1.0]))
        assert p == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_probabilities_sum_to_one_with_huge_logits(self):
        model = linear_model([[1000.0, -1000.0, 0.0]], [0.0, 0.0, 0.0])
        p = predict_proba(model, np.array([1.0]))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(np.isfinite(p))

    def test_argmax_and_tie_break(self):
        model = linear_model([[0.0, 1.0, 0.5]], [0.0, 0.0, 0.0])
        assert predict(model, np.array([1.0])) == 1
        tie = linear_model([[0.0, 0.0]], [0.0, 0.0])
        assert predict(tie, np.array([3.0])) == 0  # exact tie -> lowest index

    def test_zero_model_always_class_zero(self):
        model = linear_model(np.zeros((2, 4)), np.zeros(4))
        gen = np.random.default_rng(1)
        X = gen.standard_normal((20, 2))
        assert np.all(predict_batch(model, X) == 0)

    def test_dimension_mismatch_rejected(self):
        model = linear_model(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ConfigurationError, match="feature dim"):
            predict_proba(model, np.array([1.0, 2.0]))


class TestTrain:
    def test_separable_blobs_reach_perfect_training_accuracy(self):
        samples = blob_samples(40)
        # closed-form separator check: the fixture really is linearly separable
        X, y = samples.X, samples.y
        margin = X @ np.array([1.0, 1.0])
        assert np.all((margin > 0) == (y == 0))

        ts = every_row(samples)
        cfg = LearnerConfig(learning_rate=0.1)
        model = train(cfg, ts, blob_samples(10, seed=5), RandomSource(0))
        assert np.mean(predict_batch(model, X) == y) == 1.0

    def test_max_epochs_one_gives_one_log_entry(self):
        ts = every_row(blob_samples(10))
        model = train(LearnerConfig(max_epochs=1), ts, blob_samples(4, seed=9), RandomSource(0))
        assert len(model.training_log) == 1
        assert model.stopped_epoch == 1

    def test_constant_val_loss_stops_after_patience_plus_one(self):
        ts = every_row(blob_samples(10))
        val = blob_samples(4, seed=9)
        model = train(
            LearnerConfig(learning_rate=0.0, max_epochs=50, patience=5), ts, val, RandomSource(0)
        )
        assert model.stopped_epoch == 6  # first epoch sets the best, then 5 non-improving
        model = train(
            LearnerConfig(learning_rate=0.0, max_epochs=3, patience=5), ts, val, RandomSource(0)
        )
        assert model.stopped_epoch == 3  # the cap dominates

    def test_best_epoch_parameters_returned(self):
        ts = every_row(blob_samples(30, sigma=1.5))
        val = blob_samples(30, sigma=1.5, seed=2)
        model = train(LearnerConfig(learning_rate=0.3, max_epochs=40), ts, val, RandomSource(3))
        assert model.best_epoch == int(np.argmin(model.training_log)) + 1

    def test_bit_identical_training_logs_for_same_seed(self):
        ts = every_row(blob_samples(20, sigma=0.8))
        val = blob_samples(8, seed=4)
        cfg = LearnerConfig(learning_rate=0.05, max_epochs=15)
        m1 = train(cfg, ts, val, RandomSource(42))
        m2 = train(cfg, ts, val, RandomSource(42))
        assert m1.training_log == m2.training_log
        assert all(np.array_equal(m1.params[k], m2.params[k]) for k in m1.params)

    def test_warm_start_shape_mismatch_rejected(self):
        ts = every_row(blob_samples(10))
        val = blob_samples(4, seed=9)
        wrong = linear_model(np.zeros((5, 2)), np.zeros(2))
        with pytest.raises(ConfigurationError, match="does not"):
            train(LearnerConfig(), ts, val, RandomSource(0), initial=wrong)

    def test_warm_start_continues_from_initial(self):
        ts = every_row(blob_samples(20))
        val = blob_samples(8, seed=4)
        first = train(LearnerConfig(learning_rate=0.1, max_epochs=5), ts, val, RandomSource(0))
        second = train(
            LearnerConfig(learning_rate=0.0, max_epochs=1), ts, val, RandomSource(1), initial=first
        )
        assert np.array_equal(second.params["W"], first.params["W"])

    def test_empty_sets_rejected(self):
        ts = every_row(blob_samples(5))
        with pytest.raises(TrainingError, match="validation"):
            train(LearnerConfig(), ts, blob_samples(0), RandomSource(0))
        with pytest.raises(TrainingError, match="empty"):
            train(LearnerConfig(), every_row(blob_samples(0)), blob_samples(2), RandomSource(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_epoch(self):
        gen = np.random.default_rng(0)
        features = [gen.standard_normal(2) * 1e200 for _ in range(8)]
        samples = Split(features, [i % 2 for i in range(8)], [f"d{i}" for i in range(8)])
        ts = every_row(samples)
        cfg = LearnerConfig(learning_rate=1e308, max_epochs=10, init_scale=1e200)
        with pytest.raises(TrainingError, match="epoch"):
            train(cfg, ts, Split(samples.X[:2], samples.y[:2], samples.ids[:2]), RandomSource(0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mlp_divergence_names_the_epoch(self):
        # The validation loss is the only loss train computes; it must still catch divergence.
        gen = np.random.default_rng(0)
        features = [gen.standard_normal(2) * 1e200 for _ in range(8)]
        samples = Split(features, [i % 2 for i in range(8)], [f"d{i}" for i in range(8)])
        ts = every_row(samples)
        cfg = LearnerConfig(kind="mlp", hidden_units=4, learning_rate=1e308, max_epochs=10, init_scale=1e200)
        with pytest.raises(TrainingError, match=r"non-finite loss at epoch 1 \(training diverged\)"):
            train(cfg, ts, Split(samples.X[:2], samples.y[:2], samples.ids[:2]), RandomSource(0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "softmax_linear", "learning_rate": 2.0, "max_epochs": 40, "patience": 2},
            {"kind": "mlp", "hidden_units": 6, "learning_rate": 0.1, "max_epochs": 7, "patience": 7},
        ],
    )
    def test_loss_computed_once_per_epoch_on_validation_only(self, kwargs, monkeypatch):
        calls, mean_cross_entropy = [], learner._mean_cross_entropy

        def counting(kind, params, X, y):
            calls.append((X, y))
            return mean_cross_entropy(kind, params, X, y)

        monkeypatch.setattr(learner, "_mean_cross_entropy", counting)
        val = noisy_blobs(60, seed=2)
        cfg = LearnerConfig(batch_size=16, **kwargs)
        model = train(cfg, every_row(noisy_blobs(101, seed=1), 3), val, RandomSource(7))
        assert len(calls) == model.stopped_epoch == len(model.training_log)
        assert all(X is val.X and y is val.y for X, y in calls)

    def test_mlp_learns_blobs(self):
        samples = blob_samples(40)
        ts = every_row(samples)
        cfg = LearnerConfig(kind="mlp", hidden_units=8, learning_rate=0.2, max_epochs=100)
        model = train(cfg, ts, blob_samples(10, seed=5), RandomSource(0))
        X, y = samples.X, samples.y
        assert np.mean(predict_batch(model, X) == y) == 1.0


class TestGradients:
    def test_linear_gradient_check_tight(self):
        batch = make_split([0, 1, 2, 0, 1, 2, 0, 1], feature_dim=4)
        err = gradient_check(LearnerConfig(kind="softmax_linear"), batch, RandomSource(1), num_classes=3)
        assert err < 1e-5

    def test_mlp_gradient_check(self):
        batch = make_split([0, 1, 2, 0, 1, 2, 0, 1], feature_dim=4)
        err = gradient_check(
            LearnerConfig(kind="mlp", hidden_units=8), batch, RandomSource(2), num_classes=3
        )
        assert err < 1e-4

    def test_saturated_correct_prediction_has_vanishing_gradient(self):
        # single sample whose label logit dominates by more than 30
        X = np.array([[1.0, 0.0]])
        y = np.array([0])
        params = {"W": np.array([[40.0, 0.0], [0.0, 0.0]]), "b": np.zeros(2)}
        oracle_grads = loss_and_gradient("softmax_linear", params, X, y)[1]
        for grads in (oracle_grads, learner._gradients("softmax_linear", params, X, y)):
            norm = math.sqrt(sum(float((g**2).sum()) for g in grads.values()))
            assert norm < 1e-9

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            gradient_check(LearnerConfig(), make_split([]), RandomSource(0))


def noisy_blobs(n, seed):
    """Three overlapping 4-d classes, so validation loss turns and early stopping can fire."""
    gen = np.random.default_rng(seed)
    y = np.arange(n) % 3
    X = gen.standard_normal((n, 4)) + np.eye(3, 4)[y]
    return Split(X, y, [f"nb{seed}-{i}" for i in range(n)])


class TestTrainMatchesReference:
    """``train`` steps with gradients only; it must stay bit-identical to the loss-and-gradient loop."""

    @pytest.mark.parametrize(
        "kwargs, early_stop",
        [
            ({"kind": "softmax_linear", "learning_rate": 0.05, "batch_size": 16, "max_epochs": 25, "patience": 25}, False),
            ({"kind": "softmax_linear", "learning_rate": 2.0, "batch_size": 16, "max_epochs": 40, "patience": 2}, True),
            ({"kind": "mlp", "hidden_units": 6, "learning_rate": 0.1, "batch_size": 16, "max_epochs": 25, "patience": 25, "init_scale": 0.5}, False),
            ({"kind": "mlp", "hidden_units": 6, "learning_rate": 3.0, "batch_size": 16, "max_epochs": 40, "patience": 2, "init_scale": 0.5}, True),
        ],
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_bit_identical_to_reference(self, kwargs, early_stop, warm):
        train_split, val = noisy_blobs(101, seed=1), noisy_blobs(60, seed=2)
        cfg = LearnerConfig(**kwargs, warm_start=warm)
        initial = train(cfg, every_row(train_split, 3), val, RandomSource(5)) if warm else None
        model = train(cfg, every_row(train_split, 3), val, RandomSource(7), initial=initial)

        params, log, best_epoch, stopped_epoch = reference_sgd(
            cfg.kind, train_split.X, train_split.y, val.X, val.y, RandomSource(7).generator(),
            learning_rate=cfg.learning_rate, batch_size=cfg.batch_size, max_epochs=cfg.max_epochs,
            patience=cfg.patience, num_classes=3, hidden_units=cfg.hidden_units, init_scale=cfg.init_scale,
            initial=None if initial is None else initial.params,
        )
        assert len(train_split) % cfg.batch_size != 0
        assert (stopped_epoch < cfg.max_epochs) == early_stop
        assert (model.best_epoch, model.stopped_epoch) == (best_epoch, stopped_epoch)
        assert model.training_log == log
        assert sorted(model.params) == sorted(params)
        for k in params:
            assert model.params[k].tobytes() == params[k].tobytes()


def assert_same_model(a, b):
    assert (a.best_epoch, a.stopped_epoch) == (b.best_epoch, b.stopped_epoch)
    assert a.training_log == b.training_log
    assert sorted(a.params) == sorted(b.params)
    for k in a.params:
        assert a.params[k].tobytes() == b.params[k].tobytes()


class TestTrainStack:
    """``train_stack`` trains its jobs together; each model must be the one ``train`` gives alone."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "softmax_linear", "learning_rate": 2.0, "batch_size": 16, "max_epochs": 40, "patience": 2},
            {"kind": "mlp", "hidden_units": 6, "learning_rate": 3.0, "batch_size": 16, "max_epochs": 40, "patience": 2, "init_scale": 0.5},
        ],
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_equals_per_job_train(self, kwargs, warm):
        cfg = LearnerConfig(**kwargs, warm_start=warm)
        val = noisy_blobs(60, seed=2)
        # ragged sizes: 101 and 70 rows share 4 full batches, 9 rows are less than one batch
        sets = [every_row(noisy_blobs(n, seed=s), 3) for n, s in ((101, 1), (70, 3), (9, 4))]
        initials = [train(cfg, ts, val, RandomSource(50 + i)) if warm else None for i, ts in enumerate(sets)]
        jobs = [(ts, RandomSource(10 + i), initial) for i, (ts, initial) in enumerate(zip(sets, initials))]

        stacked = train_stack(cfg, jobs, val)
        alone = [train(cfg, ts, val, rng, initial=initial) for ts, rng, initial in jobs]
        for a, b in zip(alone, stacked):
            assert_same_model(a, b)
        assert len({m.stopped_epoch for m in alone}) > 1  # the jobs left the stack at different epochs
        assert all(m.stopped_epoch < cfg.max_epochs for m in alone)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_jobs_hold_their_error_and_the_others_train_on(self):
        cfg = LearnerConfig(learning_rate=0.1, batch_size=16, max_epochs=5)
        val = noisy_blobs(30, seed=2)
        gen = np.random.default_rng(0)
        huge = Split(gen.standard_normal((40, 4)) * 1e200, np.arange(40) % 3, [f"h{i}" for i in range(40)])
        fine = (every_row(noisy_blobs(40, seed=1), 3), RandomSource(1), None)
        empty = (TrainingSet.from_rows(huge, np.arange(0), 3), RandomSource(2), None)
        diverging = (every_row(huge, 3), RandomSource(3), None)

        kept, no_rows, diverged = train_stack(cfg, [fine, empty, diverging], val)
        assert_same_model(kept, train(cfg, fine[0], val, fine[1]))
        assert isinstance(no_rows, TrainingError) and str(no_rows) == "training set is empty"
        assert isinstance(diverged, TrainingError)
        assert str(diverged) == "non-finite loss at epoch 1 (training diverged)"
