"""Desk-scale classifiers behind the training contract the learning loop uses.

Two native learners share one parameter/gradient layer: a softmax-linear
model and a one-hidden-layer tanh MLP, both trained with mini-batch SGD on
mean cross-entropy and patience-based early stopping. An SGD step is
gradient-only; the loss is computed on the validation set once per epoch,
for early stopping, and on the training rows once per fit, to catch a
divergence the validation loss misses.

:func:`train_stack` trains several jobs (one per seed of a sweep) as one
stack, longest first: each numpy call of an SGD step serves a slot range of
the jobs with equal batch rows at a batch position. :func:`train` is its
one-job case, so there is one implementation of the loop.

All math is float64; training is single-threaded and bit-reproducible for
a fixed :class:`~poolal.core.RandomSource`, stacked or alone, on one BLAS
kernel: another (``OPENBLAS_CORETYPE=Nehalem``) gives other model bits.

Every forward pass runs in one kernel (:func:`_kernel`): the SGD step, the
per-epoch validation loss, the final training-loss check and the
predictions. A stack keeps its parameters in one flat float64 buffer ``P``
of shape ``(S, p)`` and its gradients in ``G``; each parameter is a view of
``P`` in ``PARAM_AXES`` order. A kernel is built for one ``(S, B)`` shape
and allocates its buffers once; every numpy call of a step writes into them,
or into views of ``G`` and ``P``, so a step allocates no buffer. A step's
numpy calls cost about 1 µs each, so its Python work shows too: the kernel
binds its ufuncs and reductions as locals and passes ``out`` positionally,
``step`` calls ``forward`` itself, and :func:`train_stack` builds every
``(step, X, Y, Xᵀ)`` of an epoch once per stack shape, on one kernel per
``(lo, hi, rows)``. The softmax and the log-sum-exp reduce over the class
axis of a C-order class-major copy of the logits, one elementwise pass per
class; the bias add is made while making that copy.

``tests/oracles.py`` holds the plain row-major formulas (``mean_loss``,
``loss_and_gradient``, ``reference_sgd``) that the tests hold the kernel
to. Below 8 classes the kernel gives their bits, since numpy sums fewer
than 8 elements of a row in index order. From 8 classes on, a block of two
or more rows sums its classes in index order, where numpy would sum a row
pairwise, so the last bits may differ; a lone row is one contiguous run and
is still summed pairwise. :func:`poolal.strategy.row_entropies` still sums
each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import groupby
from typing import Callable, NamedTuple, Sequence

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
    "predict_batch",
    "samples_to_arrays",
]

KINDS = ("softmax_linear", "mlp")

# Each kind's parameters and their axes: d features, I classes, H hidden units.
PARAM_AXES = {"softmax_linear": {"W": "dI", "b": "I"}, "mlp": {"W1": "dH", "b1": "H", "W2": "HI", "b2": "I"}}

# Rows per block of a fit's final training-loss check; a whole set's activations would raise peak memory.
_LOSS_BLOCK = 4096


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
    return np.take(split.X, rows, axis=0), np.take(split.y, rows, axis=0)


def _init_params(config: LearnerConfig, feature_dim: int, num_classes: int, gen: np.random.Generator) -> dict[str, np.ndarray]:
    """Zero-mean uniform weights in [-init_scale, init_scale] drawn in ``PARAM_AXES`` order, zero biases."""
    dims = {"d": feature_dim, "I": num_classes, "H": config.hidden_units}
    params = {}
    for name, axes in PARAM_AXES[config.kind].items():
        shape = tuple(dims[a] for a in axes)
        params[name] = np.zeros(shape) if len(axes) == 1 else gen.uniform(-config.init_scale, config.init_scale, shape)
    return params


def _param_views(kind: str, A: np.ndarray, dims: dict[str, int]) -> dict[str, np.ndarray]:
    """Each parameter as a view of the flat buffer ``A`` ``(..., p)``, laid out in ``PARAM_AXES`` order."""
    views, start = {}, 0
    for name, axes in PARAM_AXES[kind].items():
        shape = tuple(dims[a] for a in axes)
        stop = start + math.prod(shape)
        views[name] = A[..., start:stop].reshape(A.shape[:-1] + shape)
        start = stop
    return views


def _pack(kind: str, params: Sequence[dict[str, np.ndarray]]) -> np.ndarray:
    """The flat ``(S, p)`` buffer of a stack of models, one row per model."""
    return np.stack([np.concatenate([m[k].ravel() for k in PARAM_AXES[kind]]) for m in params])


class _Kernel(NamedTuple):
    proba: Callable[[np.ndarray], np.ndarray]
    loss: Callable[[np.ndarray, np.ndarray], np.ndarray]
    step: Callable[..., None] | None


def _kernel(kind: str, P: np.ndarray, dims: dict[str, int], B: int, G: np.ndarray | None = None) -> _Kernel:
    """Forward passes of the stack of models ``P`` ``(S, p)`` on ``B`` rows; buffers are allocated here, once.

    Rows ``X`` are ``(S, B, d)``, or ``(B, d)`` shared by every model.
    ``proba(X)`` returns the ``(S, B, I)`` softmax in a buffer the next call
    overwrites. ``loss(X, y)`` returns the mean cross-entropy of each model
    on labels ``y`` ``(B,)``, shape ``(S,)``. Given ``G``, ``step(X, Y, lr=None,
    Xt=None)`` writes the mean cross-entropy gradient for one-hot targets
    ``Y`` ``(S, B, I)`` into ``G``, laid out as ``P``, and given a learning
    rate, scales ``G`` by it and subtracts it from ``P``; ``Xt`` is ``X``'s
    transposed view, if the caller has one. Without ``G``, ``step`` is None.
    """
    S, I = P.shape[0], dims["I"]
    p = _param_views(kind, P, dims)
    mlp = kind == "mlp"
    W, b = (p["W2"], p["b2"]) if mlp else (p["W"], p["b"])
    bt = b[..., None]
    z = np.empty((S, B, I))  # X·W, without the bias
    zt = z.swapaxes(-1, -2)
    e = np.empty((S, I, B))  # C order: a transposed copy made without out= keeps z's row-major layout
    zmax, total = np.empty((S, B)), np.empty((S, B))
    zmax_b, total_b = zmax[..., None, :], total[..., None, :]
    z_flat, label_at, picked = z.reshape(S, B * I), np.arange(B) * I, np.empty((S, B))
    if mlp:
        W1, b1 = p["W1"], p["b1"][..., None, :]
        h = np.empty((S, B, dims["H"]))
    matmul, add, subtract, divide, multiply = np.matmul, np.add, np.subtract, np.divide, np.multiply
    exp, tanh, max_reduce, sum_reduce = np.exp, np.tanh, np.maximum.reduce, np.add.reduce

    def forward(X: np.ndarray) -> None:
        """``e = exp(z + b - max)`` class-major, with the max and the class sum."""
        if mlp:
            matmul(X, W1, h)
            add(h, b1, h)
            tanh(h, h)
            matmul(h, W, z)
        else:
            matmul(X, W, z)
        add(zt, bt, e)
        max_reduce(e, -2, None, zmax)
        subtract(e, zmax_b, e)
        exp(e, e)
        sum_reduce(e, -2, None, total)

    def proba(X: np.ndarray) -> np.ndarray:
        forward(X)
        divide(e, total_b, zt)
        return z

    def loss(X: np.ndarray, y: np.ndarray) -> np.ndarray:
        forward(X)
        np.log(total, out=total)
        add(zmax, total, out=total)
        np.take(z_flat, label_at + y, axis=1, out=picked)
        np.take(b, y, axis=1, out=zmax)  # the max is spent; it holds each row's label bias
        add(picked, zmax, out=picked)  # the label's logit, by the one bias add the class-major copy makes
        np.subtract(total, picked, out=picked)
        return np.mean(picked, axis=-1)  # C order, so each row sums pairwise as a lone vector would

    if G is None:
        return _Kernel(proba, loss, None)
    g = _param_views(kind, G, dims)
    gW, gb = (g["W2"], g["b2"]) if mlp else (g["W"], g["b"])
    if mlp:
        gW1, gb1, Wt, ht = g["W1"], g["b1"], W.swapaxes(-1, -2), h.swapaxes(-1, -2)
        t, gh = np.empty_like(h), np.empty_like(h)

    def step(X: np.ndarray, Y: np.ndarray, lr: float | None = None, Xt: np.ndarray | None = None) -> None:
        forward(X)
        divide(e, total_b, zt)
        subtract(z, Y, z)
        divide(z, B, z)
        if Xt is None:
            Xt = X.swapaxes(-1, -2)
        if mlp:
            matmul(z, Wt, gh)
            multiply(h, h, t)
            subtract(1.0, t, t)
            multiply(gh, t, gh)
            matmul(Xt, gh, gW1)
            sum_reduce(gh, -2, None, gb1)
            matmul(ht, z, gW)
        else:
            matmul(Xt, z, gW)
        sum_reduce(z, -2, None, gb)
        if lr is not None:
            multiply(G, lr, G)
            subtract(P, G, P)

    return _Kernel(proba, loss, step)


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
    best: np.ndarray | None = None  # the best epoch's parameters, as a one-model stack (1, p)
    best_epoch: int = 0
    bad_epochs: int = 0


def _start_fit(config: LearnerConfig, job: int, train_job: TrainJob) -> _Fit:
    train_set, rng, initial = train_job
    if train_set.size == 0:
        raise TrainingError("training set is empty")
    feature_dim = train_set.split.X.shape[1]
    num_classes = len(train_set.counts)
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
    must share the feature and class dimensions, and ``validation`` is a
    non-empty split of that feature dimension (``DatasetBundle.build``).

    Each epoch, every job's shuffled rows and one-hot labels are gathered
    straight from its split into ``(S, n_max, d)`` and ``(S, n_max, I)``
    buffers, so a job's rows are held once. The jobs sort longest first
    (ties keep job order), so at each batch position the jobs with rows
    there are a prefix; each run of it with equal batch rows ``lo:hi``
    steps as one batch on a kernel over ``P[lo:hi]``, one kernel per
    ``(lo, hi, rows)``. One call of a validation kernel then scores every
    job. A job that stops early or fails leaves the stack, which re-packs
    the parameters and rebuilds the step list and the validation kernel; a
    failed job's slot holds its error in place of a model.
    """
    out: list = [None] * len(jobs)
    fits: list[_Fit] = []
    for j, job in enumerate(jobs):
        try:
            fits.append(_start_fit(config, j, job))
        except (TrainingError, ConfigurationError) as e:
            out[j] = e
    if not fits:
        return out

    fits.sort(key=lambda f: -len(f.rows))  # longest first, ties in job order: each batch position's jobs are a prefix
    kind, lr, B = config.kind, config.learning_rate, config.batch_size
    Xv, yv = validation.X, validation.y
    num_classes, feature_dim = fits[0].num_classes, fits[0].split.X.shape[1]
    n_max = len(fits[0].rows)
    Xs = np.empty((len(fits), n_max, feature_dim))
    Ys = np.empty((len(fits), n_max, num_classes))
    eye = np.eye(num_classes)
    dims = {"d": feature_dim, "I": num_classes, "H": config.hidden_units}
    P = _pack(kind, [f.params for f in fits])
    G = np.empty_like(P)
    batches = None  # every (step, X, Y, Xᵀ) of an epoch, built with the validation kernel once per stack shape
    done: list[_Fit] = []

    for epoch in range(1, config.max_epochs + 1):
        if batches is None:
            val_loss, batches = _kernel(kind, P, dims, len(yv)).loss, []
            step_for = cache(lambda lo, hi, m: _kernel(kind, P[lo:hi], dims, m, G[lo:hi]).step)
            for a in range(0, len(fits[0].rows), B):
                lo = 0
                for m, run in groupby(min(B, len(f.rows) - a) for f in fits if len(f.rows) > a):
                    hi = lo + len(list(run))
                    X = Xs[lo:hi, a : a + m]
                    batches.append((step_for(lo, hi, m), X, Ys[lo:hi, a : a + m], X.swapaxes(-1, -2)))
                    lo = hi
        for s, f in enumerate(fits):
            n = len(f.rows)
            rows = f.rows[f.gen.permutation(n)]
            np.take(f.split.X, rows, axis=0, out=Xs[s, :n], mode="clip")
            np.take(eye, f.split.y[rows], axis=0, out=Ys[s, :n], mode="clip")
        for step, X, Y, Xt in batches:
            step(X, Y, lr, Xt)

        keep = []
        for s, (f, loss) in enumerate(zip(fits, val_loss(Xv, yv).tolist())):
            if not np.isfinite(loss):
                out[f.job] = TrainingError(f"non-finite loss at epoch {epoch} (training diverged)")
                continue
            f.log.append(loss)
            if loss < f.best_val:
                f.best_val, f.best_epoch, f.bad_epochs, f.best = loss, epoch, 0, P[s : s + 1].copy()
            else:
                f.bad_epochs += 1
                if f.bad_epochs >= config.patience:
                    done.append(f)
                    continue
            keep.append(s)
        if len(keep) < len(fits):
            fits = [fits[s] for s in keep]
            if not fits:
                break
            P, G, batches = P[keep], G[: len(keep)], None

    for f in done + fits:
        blocks = (f.rows[a : a + _LOSS_BLOCK] for a in range(0, len(f.rows), _LOSS_BLOCK))
        if not all(np.isfinite(_kernel(kind, f.best, dims, len(r)).loss(f.split.X[r], f.split.y[r])[0]) for r in blocks):
            out[f.job] = TrainingError(f"non-finite training loss at epoch {f.best_epoch} (training diverged)")
            continue
        out[f.job] = TrainedModel(
            kind=config.kind,
            feature_dim=feature_dim,
            num_classes=num_classes,
            params=_param_views(kind, f.best[0], dims),
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


def _proba(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    dims = {"d": model.feature_dim, "I": model.num_classes, "H": len(model.params.get("b1", ()))}
    return _kernel(model.kind, _pack(model.kind, [model.params]), dims, len(X)).proba(X)[0]


def predict_proba(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Class-probability vector for one feature vector (softmax of the logits)."""
    features = _check_features(model, features)
    p = _proba(model, np.atleast_2d(features))
    return p[0] if features.ndim == 1 else p


def predict_batch(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Predicted class indices for a feature matrix; ties go to the lowest index."""
    X = _check_features(model, np.atleast_2d(np.asarray(X, dtype=float)))
    return np.argmax(_proba(model, X), axis=1)
