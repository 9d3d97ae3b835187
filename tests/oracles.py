"""Independent brute-force oracles the tests check the library against.

Everything here is written from first principles (loops and explicit
tallies, no shared code paths with the package) so a bug in the library
cannot hide in its own verification. One helper is the exception by design:
:func:`gradient_check` drives the package's own ``_kernel``, since what it
checks is that kernel's analytic gradients, against central finite
differences of that kernel's loss.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from poolal.core import RandomSource, Split
from poolal.errors import ConfigurationError
from poolal.learner import LearnerConfig, _init_params, _kernel


def brute_force_allocation(fnr: list[float], budget: int) -> list[int]:
    """FNR-share allocation with largest-remainder rounding, ties by class index."""
    total = sum(fnr)
    raw = [f * budget / total for f in fnr]
    counts = [math.floor(r) for r in raw]
    leftover = budget - sum(counts)
    by_remainder = sorted(range(len(fnr)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return counts


def brute_force_metrics(true_labels: list[int], pred_labels: list[int], num_classes: int) -> dict:
    """Per-class TP/FP/FN tallies and every derived metric, computed by enumeration."""
    per_class = []
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(true_labels, pred_labels) if t == c and p == c)
        fp = sum(1 for t, p in zip(true_labels, pred_labels) if t != c and p == c)
        fn = sum(1 for t, p in zip(true_labels, pred_labels) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        fnr = fn / (fn + tp) if fn + tp > 0 else 0.0
        per_class.append(
            {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall, "f1": f1, "fnr": fnr}
        )
    tp_all = sum(m["tp"] for m in per_class)
    fp_all = sum(m["fp"] for m in per_class)
    fn_all = sum(m["fn"] for m in per_class)
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all > 0 else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all > 0 else 0.0
    micro_f1 = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r > 0 else 0.0
    accuracy = sum(1 for t, p in zip(true_labels, pred_labels) if t == p) / len(true_labels)
    macro_f1 = sum(m["f1"] for m in per_class) / num_classes
    return {"per_class": per_class, "micro_f1": micro_f1, "macro_f1": macro_f1, "accuracy": accuracy}


def nearest_mean_predictions(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Assign each row to the closest class mean (the Bayes rule for equal isotropic clouds)."""
    dists = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return dists.argmin(axis=1)


def _logits(kind, params, A):
    if kind == "softmax_linear":
        return A @ params["W"] + params["b"], None
    h = np.tanh(A @ params["W1"] + params["b1"])
    return h @ params["W2"] + params["b2"], h


def mean_loss(kind, params, A, labels):
    """Mean cross-entropy over (A, labels), by a log-sum-exp per row."""
    z, _ = _logits(kind, params, A)
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(labels)), labels]))


def loss_and_gradient(kind, params, A, labels):
    """Mean cross-entropy over (A, labels) and its gradient w.r.t. every parameter."""
    n = A.shape[0]
    z, h = _logits(kind, params, A)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    g = p.copy()
    g[np.arange(n), labels] -= 1.0
    g /= n
    if kind == "softmax_linear":
        grads = {"W": A.T @ g, "b": g.sum(axis=0)}
    else:
        gh = (g @ params["W2"].T) * (1.0 - h * h)
        grads = {"W1": A.T @ gh, "b1": gh.sum(axis=0), "W2": h.T @ g, "b2": g.sum(axis=0)}
    return mean_loss(kind, params, A, labels), grads


def reference_sgd(kind, X, y, Xv, yv, gen, *, learning_rate, batch_size, max_epochs, patience,
                  num_classes, hidden_units=0, init_scale=0.0, initial=None):
    """The learner's mini-batch SGD as first written: a full loss-and-gradient on every step.

    ``gen`` is the training stream: it draws the uniform initial weights (each
    weight matrix in parameter order, biases zero) unless ``initial`` params
    are given, then one permutation per epoch. Early stopping keeps the
    parameters of the first strictly best validation loss and stops after
    ``patience`` epochs without a strict improvement. Returns ``(params,
    log, best_epoch, stopped_epoch)`` where ``log`` lists the validation loss
    of each epoch.
    """
    d = X.shape[1]
    if initial is not None:
        params = {k: v.copy() for k, v in initial.items()}
    elif kind == "softmax_linear":
        params = {"W": gen.uniform(-init_scale, init_scale, size=(d, num_classes)), "b": np.zeros(num_classes)}
    else:
        params = {
            "W1": gen.uniform(-init_scale, init_scale, size=(d, hidden_units)),
            "b1": np.zeros(hidden_units),
            "W2": gen.uniform(-init_scale, init_scale, size=(hidden_units, num_classes)),
            "b2": np.zeros(num_classes),
        }

    n = X.shape[0]
    log = []
    best_val, best_params, best_epoch, bad_epochs = math.inf, {k: v.copy() for k, v in params.items()}, 0, 0
    for epoch in range(1, max_epochs + 1):
        order = gen.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            _, grads = loss_and_gradient(kind, params, X[idx], y[idx])
            for k in params:
                params[k] -= learning_rate * grads[k]
        val_loss = mean_loss(kind, params, Xv, yv)
        log.append(val_loss)
        if val_loss < best_val:
            best_val, best_params, best_epoch, bad_epochs = val_loss, {k: v.copy() for k, v in params.items()}, epoch, 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    return best_params, log, best_epoch, len(log)


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
    p = sum(v.size for v in _init_params(config, X.shape[1], num_classes, gen).values())
    P = gen.uniform(-0.5, 0.5, (1, p))  # after a fresh init's draws, every parameter in PARAM_AXES order
    G = np.empty_like(P)
    dims = {"d": X.shape[1], "I": num_classes, "H": config.hidden_units}
    kernel = _kernel(config.kind, P, dims, len(y), G)
    kernel.step(X[None], np.eye(num_classes)[y][None])

    max_rel = 0.0
    for i, an in enumerate(G[0].tolist()):
        orig = P[0, i]
        P[0, i] = orig + step
        up = kernel.loss(X, y)[0]
        P[0, i] = orig - step
        down = kernel.loss(X, y)[0]
        P[0, i] = orig
        fd = (up - down) / (2.0 * step)
        max_rel = max(max_rel, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    return max_rel


def reference_entropy_topk(entropies, ids, k):
    """Which rows entropy top-k keeps: the first ``k`` of Python's ``sorted`` by (-entropy, id), as a mask."""
    order = sorted(range(len(ids)), key=lambda i: (-entropies[i], ids[i]))
    kept = set(order[:k])
    return [i in kept for i in range(len(ids))]


def reference_write_split_csv(path, ids, labels, X, class_names):
    """One dataset split CSV as first written: :mod:`csv` quoting, ``repr`` floats, one row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(X.shape[1])])
        for sample_id, label, features in zip(ids, labels, X.tolist()):
            writer.writerow([sample_id, class_names[label], *map(repr, features)])


def reference_read_split_csv(path, class_names, feature_dim):
    """One split CSV as first read: :mod:`csv` rows, ``float`` cells, one row at a time.

    Returns ``(X, y, ids)`` with ``ids`` as a ``<U`` array; a faulty file
    raises ``ValueError`` with the message the reader gave, ``path:line:``
    first for a faulty row.
    """
    name_to_index = {name: i for i, name in enumerate(class_names)}
    ids, labels, features = [], [], []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None) or []
        if header != ["id", "label"] + [f"f{i}" for i in range(feature_dim)]:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2 + feature_dim:
                raise ValueError(f"{path}:{lineno}: expected {2 + feature_dim} columns, got {len(row)}")
            if row[1] not in name_to_index:
                raise ValueError(f"{path}:{lineno}: unknown class name {row[1]!r}")
            try:
                features.append([float(cell) for cell in row[2:]])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            ids.append(row[0])
            labels.append(name_to_index[row[1]])
    X = np.array(features, dtype=np.float64).reshape(len(ids), feature_dim)
    return X, np.array(labels, dtype=np.int64), np.asarray(ids, dtype=str)
