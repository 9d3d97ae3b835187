"""Confusion-matrix evaluation: per-class precision/recall/F1/FNR, micro/macro aggregates.

Conventions: rows of the confusion matrix are true classes, columns are
predictions. Any metric whose denominator is zero is reported as 0, so a
class absent from the validation set has FNR 0 and requests nothing from
the allocator. Macro F1 averages over all registered classes, including
zero-support ones. All stored values are fractions in [0, 1]; percent
formatting is the reporting layer's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EvaluationError

__all__ = ["ClassMetrics", "MetricsReport", "confusion", "report"]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    fnr: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    per_class: tuple[ClassMetrics, ...]
    micro_f1: float
    macro_f1: float
    accuracy: float

    def fnr_vector(self) -> np.ndarray:
        return np.array([m.fnr for m in self.per_class])


def confusion(
    true_labels: Sequence[int],
    predicted_labels: Sequence[int],
    num_classes: int,
) -> np.ndarray:
    """The I x I int64 confusion matrix of parallel label sequences: ``[t, p]`` counts true class t predicted as p."""
    if len(true_labels) != len(predicted_labels):
        raise EvaluationError(
            f"label sequences differ in length: {len(true_labels)} vs {len(predicted_labels)}"
        )
    if len(true_labels) == 0:
        raise EvaluationError("cannot evaluate empty label sequences")
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.min() < 0 or t.max() >= num_classes:
        raise EvaluationError("true labels contain unregistered class indices")
    if p.min() < 0 or p.max() >= num_classes:
        raise EvaluationError("predicted labels contain unregistered class indices")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else 0.0


def report(counts: np.ndarray) -> MetricsReport:
    """Per-class and aggregate metrics from a :func:`confusion` matrix, which counts at least one sample.

    Per-class F1 is computed as 2*TP / (2*TP + FP + FN), which equals the
    harmonic mean of precision and recall and keeps micro F1 exactly equal
    to accuracy for single-label evaluation.
    """
    num_classes = counts.shape[0]
    total = int(counts.sum())
    tp = np.diag(counts)
    fn = counts.sum(axis=1) - tp
    fp = counts.sum(axis=0) - tp

    per_class = []
    for i in range(num_classes):
        tpi, fni, fpi = int(tp[i]), int(fn[i]), int(fp[i])
        per_class.append(
            ClassMetrics(
                precision=_ratio(tpi, tpi + fpi),
                recall=_ratio(tpi, tpi + fni),
                f1=_ratio(2 * tpi, 2 * tpi + fpi + fni),
                fnr=_ratio(fni, fni + tpi),
                support=tpi + fni,
            )
        )

    tp_sum, fp_sum, fn_sum = int(tp.sum()), int(fp.sum()), int(fn.sum())
    micro_f1 = _ratio(2 * tp_sum, 2 * tp_sum + fp_sum + fn_sum)
    macro_f1 = sum(m.f1 for m in per_class) / num_classes
    accuracy = tp_sum / total
    return MetricsReport(
        per_class=tuple(per_class),
        micro_f1=micro_f1,
        macro_f1=macro_f1,
        accuracy=accuracy,
    )
