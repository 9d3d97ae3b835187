"""Desk-scale classifiers behind the training contract the learning loop uses.

Two native learners share one parameter/gradient layer: a softmax-linear
model and a one-hidden-layer tanh MLP, both trained with mini-batch SGD on
mean cross-entropy and patience-based early stopping. An SGD step is
gradient-only; the loss is computed once per epoch, on the validation set
alone, for early stopping. :func:`gradient_check` verifies the step's
analytic gradients against central finite differences.

:func:`train_stack` trains several jobs (one per seed of a sweep) as one
stack: the parameters carry a leading stack axis, and each numpy call of an
SGD step serves every job whose full batches line up. :func:`train` is its
one-job case, so there is one implementation of the loop.

All math is float64; training is single-threaded and bit-reproducible for
a fixed :class:`~poolal.core.RandomSource`, stacked or alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import RandomSource, Split, TrainingSet
from .errors import ConfigurationError, TrainingError

__all__ = [
    "LearnerConfig",
    "TrainedModel",
    "TrainJob",
    "train",
    "train_stack",
    "predict_proba",
    "predict",
    "predict_batch",
    "gradient_check",
    "samples_to_arrays",
]

KINDS = ("softmax_linear", "mlp")

# Each kind's parameters and their axes: d features, I classes, H hidden units.
PARAM_AXES = {"softmax_linear": {"W": "dI", "b": "I"}, "mlp": {"W1": "dH", "b1": "H", "W2": "HI", "b2": "I"}}


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters for the native learners.

    ``learning_rate`` may be 0 (frozen parameters), which is occasionally
    useful to probe the early-stopping rule; negative rates are rejected.
    A config's ``learner`` block reaches here through the typed decoder
    (:func:`poolal.config.decode`), which checks each field's type.
    """

    kind: str = "softmax_linear"
    learning_rate: float = 1.5e-4
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 5
    hidden_units: int = 32
    init_scale: float = 0.01
    warm_start: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown learner kind {self.kind!r}; expected one of {KINDS}")
        for name in ("batch_size", "max_epochs", "patience", "hidden_units"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("learning_rate", "init_scale"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class TrainedModel:
    """Parameters plus the validation trace that produced them.

    ``params`` holds the best-validation-loss epoch's parameters, not the
    last epoch's; ``training_log`` holds every epoch's validation loss.
    Immutable by convention after ``train`` returns.
    """

    kind: str
    feature_dim: int
    num_classes: int
    params: dict[str, np.ndarray]
    training_log: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


def samples_to_arrays(rows: np.ndarray, split: Split) -> tuple[np.ndarray, np.ndarray]:
    """Gather the given rows of a split into (features matrix, label vector)."""
    return split.X[rows], split.y[rows]


def _init_params(config: LearnerConfig, feature_dim: int, num_classes: int, gen: np.random.Generator) -> dict[str, np.ndarray]:
    """Zero-mean uniform weights in [-init_scale, init_scale] drawn in ``PARAM_AXES`` order, zero biases."""
    dims = {"d": feature_dim, "I": num_classes, "H": config.hidden_units}
    params = {}
    for name, axes in PARAM_AXES[config.kind].items():
        shape = tuple(dims[a] for a in axes)
        params[name] = np.zeros(shape) if len(axes) == 1 else gen.uniform(-config.init_scale, config.init_scale, shape)
    return params


def _forward(kind: str, params: dict[str, np.ndarray], X: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Hidden activations (None for the linear model) and logits, built in place.

    Leading axes stack independent models: ``(S, B, d)`` rows against
    ``(S, d, I)`` weights and ``(S, I)`` biases give ``(S, B, I)`` logits.
    """
    if kind == "softmax_linear":
        z = X @ params["W"]
        z += params["b"][..., None, :]
        return None, z
    if kind != "mlp":
        raise ConfigurationError(f"unknown learner kind {kind!r}")
    h = X @ params["W1"]
    h += params["b1"][..., None, :]
    np.tanh(h, out=h)
    z = h @ params["W2"]
    z += params["b2"][..., None, :]
    return h, z


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _mean_cross_entropy(kind: str, params: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray) -> float:
    _, z = _forward(kind, params, X)
    zmax = z.max(axis=1)
    e = z - zmax[:, None]
    np.exp(e, out=e)
    lse = zmax + np.log(e.sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def _gradients(kind: str, params: dict[str, np.ndarray], X: np.ndarray, Y: np.ndarray) -> dict[str, np.ndarray]:
    """Mean cross-entropy gradient over (X, Y), formed in place in the logits; no loss.

    ``Y`` holds one-hot targets shaped like the logits, or class labels.
    Leading axes stack independent problems, as in :func:`_forward`.
    """
    h, g = _forward(kind, params, X)
    if Y.ndim < g.ndim:
        Y = np.eye(g.shape[-1])[Y]
    g -= g.max(axis=-1, keepdims=True)
    np.exp(g, out=g)
    g /= g.sum(axis=-1, keepdims=True)
    g -= Y
    g /= X.shape[-2]
    Xt = X.swapaxes(-1, -2)
    if h is None:
        return {"W": Xt @ g, "b": g.sum(axis=-2)}
    gh = g @ params["W2"].swapaxes(-1, -2)
    gh *= 1.0 - h * h
    return {"W1": Xt @ gh, "b1": gh.sum(axis=-2), "W2": h.swapaxes(-1, -2) @ g, "b2": g.sum(axis=-2)}


def _sgd_step(kind: str, params: dict[str, np.ndarray], X: np.ndarray, Y: np.ndarray, lr: float) -> None:
    grads = _gradients(kind, params, X, Y)
    for k in params:
        params[k] -= lr * grads[k]


def _check_initial(initial: TrainedModel, config: LearnerConfig, feature_dim: int, num_classes: int) -> None:
    if initial.kind != config.kind:
        raise ConfigurationError(f"warm-start model kind {initial.kind!r} does not match config {config.kind!r}")
    if initial.feature_dim != feature_dim or initial.num_classes != num_classes:
        raise ConfigurationError(
            f"warm-start model shape (d={initial.feature_dim}, I={initial.num_classes}) does not "
            f"match data (d={feature_dim}, I={num_classes})"
        )
    if config.kind == "mlp" and initial.params["W1"].shape[1] != config.hidden_units:
        raise ConfigurationError(
            f"warm-start model has {initial.params['W1'].shape[1]} hidden units, config wants {config.hidden_units}"
        )


# One training job: the training set, its random source and the warm-start model or None.
TrainJob = tuple[TrainingSet, RandomSource, TrainedModel | None]


@dataclass
class _Fit:
    """One job of a stack while it trains."""

    job: int
    rows: np.ndarray
    split: Split
    num_classes: int
    gen: np.random.Generator
    params: dict[str, np.ndarray]
    log: list[float] = field(default_factory=list)
    best_val: float = np.inf
    best_params: dict[str, np.ndarray] = field(default_factory=dict)
    best_epoch: int = 0
    bad_epochs: int = 0


def _start_fit(config: LearnerConfig, job: int, train_job: TrainJob, validation: Split) -> _Fit:
    train_set, rng, initial = train_job
    if train_set.size == 0:
        raise TrainingError("training set is empty")
    if not len(validation):
        raise TrainingError("validation set is empty")
    feature_dim = train_set.split.X.shape[1]
    num_classes = len(train_set.counts)
    if validation.X.shape[1] != feature_dim:
        raise TrainingError(f"validation feature dim {validation.X.shape[1]} != train feature dim {feature_dim}")
    gen = rng.generator()
    if initial is not None:
        _check_initial(initial, config, feature_dim, num_classes)
        params = initial.params
    else:
        params = _init_params(config, feature_dim, num_classes, gen)
    return _Fit(job, train_set.rows, train_set.split, num_classes, gen, params)


def train_stack(
    config: LearnerConfig, jobs: Sequence[TrainJob], validation: Split
) -> list[TrainedModel | TrainingError | ConfigurationError]:
    """Train one model per job, with each numpy call of an SGD step serving the whole stack.

    Each job's model is bit-identical to what :func:`train` gives it alone:
    the job draws its own permutation each epoch from its random source and
    keeps its own validation loss, patience and best parameters. The jobs
    must share the feature and class dimensions.

    Each epoch, every job's shuffled rows and one-hot labels are gathered
    straight from its split into ``(S, n_max, d)`` and ``(S, n_max, I)``
    buffers, so a job's rows are held once. The full batches that
    every job has step as one ``(S, B, ·)`` batch; each job's remaining full
    batches and its ragged tail then step alone, on its slice of the stacked
    parameters. A job that stops early or fails leaves the stack; a failed
    job's slot holds its error in place of a model.
    """
    out: list = [None] * len(jobs)
    fits: list[_Fit] = []
    for j, job in enumerate(jobs):
        try:
            fits.append(_start_fit(config, j, job, validation))
        except (TrainingError, ConfigurationError) as e:
            out[j] = e
    if not fits:
        return out

    kind, lr, B = config.kind, config.learning_rate, config.batch_size
    Xv, yv = validation.X, validation.y
    num_classes, feature_dim = fits[0].num_classes, fits[0].split.X.shape[1]
    n_max = max(len(f.rows) for f in fits)
    Xs = np.empty((len(fits), n_max, feature_dim))
    Ys = np.empty((len(fits), n_max, num_classes))
    eye = np.eye(num_classes)
    P = {k: np.stack([f.params[k] for f in fits]) for k in PARAM_AXES[kind]}
    done: list[_Fit] = []

    for epoch in range(1, config.max_epochs + 1):
        for s, f in enumerate(fits):
            n = len(f.rows)
            rows = f.rows[f.gen.permutation(n)]
            np.take(f.split.X, rows, axis=0, out=Xs[s, :n], mode="clip")
            np.take(eye, f.split.y[rows], axis=0, out=Ys[s, :n], mode="clip")
        S = len(fits)
        shared = min(len(f.rows) for f in fits) // B * B
        for a in range(0, shared, B):
            _sgd_step(kind, P, Xs[:S, a : a + B], Ys[:S, a : a + B], lr)

        keep = []
        for s, f in enumerate(fits):
            n = len(f.rows)
            params = {k: v[s] for k, v in P.items()}
            for a in range(shared, n, B):
                _sgd_step(kind, params, Xs[s, a : min(a + B, n)], Ys[s, a : min(a + B, n)], lr)

            val_loss = _mean_cross_entropy(kind, params, Xv, yv)
            if not np.isfinite(val_loss):
                out[f.job] = TrainingError(f"non-finite loss at epoch {epoch} (training diverged)")
                continue
            f.log.append(val_loss)
            if val_loss < f.best_val:
                f.best_val, f.best_epoch, f.bad_epochs = val_loss, epoch, 0
                f.best_params = {k: v.copy() for k, v in params.items()}
            else:
                f.bad_epochs += 1
                if f.bad_epochs >= config.patience:
                    done.append(f)
                    continue
            keep.append(s)
        if len(keep) < S:
            fits = [fits[s] for s in keep]
            P = {k: v[keep] for k, v in P.items()}
            if not fits:
                break

    for f in done + fits:
        out[f.job] = TrainedModel(
            kind=config.kind,
            feature_dim=feature_dim,
            num_classes=num_classes,
            params=f.best_params,
            training_log=f.log,
            stopped_epoch=len(f.log),
            best_epoch=f.best_epoch,
        )
    return out


def train(
    config: LearnerConfig,
    train_set: TrainingSet,
    validation: Split,
    rng: RandomSource,
    initial: TrainedModel | None = None,
) -> TrainedModel:
    """Mini-batch SGD on mean cross-entropy with patience-based early stopping.

    Each epoch shuffles the training set with ``rng``'s stream; training
    stops at ``max_epochs`` or after ``patience`` consecutive epochs without
    a strict validation-loss improvement. The returned parameters are those
    of the best-validation-loss epoch. This is :func:`train_stack` with one job.
    """
    (model,) = train_stack(config, [(train_set, rng, initial)], validation)
    if isinstance(model, Exception):
        raise model
    return model


def _check_features(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != model.feature_dim:
        raise ConfigurationError(
            f"feature dim {features.shape[-1]} does not match model dim {model.feature_dim}"
        )
    return features


def predict_proba(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Class-probability vector for one feature vector (softmax of the logits)."""
    features = _check_features(model, features)
    squeeze = features.ndim == 1
    _, z = _forward(model.kind, model.params, np.atleast_2d(features))
    p = _softmax(z)
    return p[0] if squeeze else p


def predict_batch(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Predicted class indices for a feature matrix; ties go to the lowest index."""
    X = _check_features(model, np.atleast_2d(np.asarray(X, dtype=float)))
    return np.argmax(_softmax(_forward(model.kind, model.params, X)[1]), axis=1)


def predict(model: TrainedModel, features: np.ndarray) -> int:
    """Most probable class for one feature vector; ties go to the lowest index."""
    return int(np.argmax(predict_proba(model, features)))


def gradient_check(
    config: LearnerConfig,
    batch: Split,
    rng: RandomSource,
    num_classes: int | None = None,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-finite-difference gradients.

    Evaluates the mean cross-entropy gradient at a random parameter point
    drawn from ``rng`` and perturbs every parameter by ``±step``.
    """
    if not len(batch):
        raise ConfigurationError("gradient check needs a non-empty batch")
    X, y = batch.X, batch.y
    if num_classes is None:
        num_classes = int(y.max()) + 1

    gen = rng.generator()
    params = _init_params(config, X.shape[1], num_classes, gen)
    for k in params:
        params[k] = gen.uniform(-0.5, 0.5, size=params[k].shape)

    grads = _gradients(config.kind, params, X, y)

    max_rel = 0.0
    for name in sorted(params):
        arr = params[name]
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = _mean_cross_entropy(config.kind, params, X, y)
            flat[i] = orig - step
            down = _mean_cross_entropy(config.kind, params, X, y)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            an = grads[name].ravel()[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel
