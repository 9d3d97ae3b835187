"""Aggregation of run records into mean(std) tables.

One aggregate column per experiment config; rows are per-class F1, the
micro/macro totals, accuracy, and the labeled fraction of the train split.
Values are formatted as percentages with two decimals, "90.34(0.66)" style.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import RunRecord
from .errors import ConfigurationError

__all__ = ["MeanStd", "AggregateReport", "aggregate_records", "render_table", "write_report_csv"]


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float

    def formatted(self) -> str:
        """Percent with two decimals: mean(std)."""
        return f"{100 * self.mean:.2f}({100 * self.std:.2f})"


def _mean_std(values: Sequence[float]) -> MeanStd:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return MeanStd(mean=float(arr.mean()), std=std)


@dataclass(frozen=True)
class AggregateReport:
    """Across-seed statistics for one experiment config."""

    config_hash: str
    dataset_hash: str
    arm_label: str
    class_names: tuple[str, ...]
    seeds: tuple[int, ...]
    per_class_f1: tuple[MeanStd, ...]
    micro_f1: MeanStd
    macro_f1: MeanStd
    accuracy: MeanStd
    labeled_fraction: MeanStd

    def rows(self) -> list[tuple[str, MeanStd]]:
        rows = [(name, ms) for name, ms in zip(self.class_names, self.per_class_f1)]
        rows.append(("Total (micro)", self.micro_f1))
        rows.append(("Total (macro)", self.macro_f1))
        rows.append(("Accuracy", self.accuracy))
        rows.append(("Labeled fraction", self.labeled_fraction))
        return rows


def aggregate_records(records: Sequence[RunRecord]) -> AggregateReport:
    """Mean and sample std of the final test metrics of one :func:`group_and_aggregate` group; refuses a seed twice."""
    first = records[0]
    seeds = [r.seed for r in records]
    for seed in seeds:
        if seeds.count(seed) > 1:
            raise ConfigurationError(f"run records repeat seed {seed} of config {first.config_hash}")

    num_classes = len(first.class_names)
    per_class = tuple(
        _mean_std([r.final_test_metrics.per_class[i].f1 for r in records]) for i in range(num_classes)
    )
    return AggregateReport(
        config_hash=first.config_hash,
        dataset_hash=first.dataset_hash,
        arm_label=first.arm_label,
        class_names=tuple(first.class_names),
        seeds=tuple(seeds),
        per_class_f1=per_class,
        micro_f1=_mean_std([r.final_test_metrics.micro_f1 for r in records]),
        macro_f1=_mean_std([r.final_test_metrics.macro_f1 for r in records]),
        accuracy=_mean_std([r.final_test_metrics.accuracy for r in records]),
        labeled_fraction=_mean_std([r.labeled_fraction_of_train for r in records]),
    )


def group_and_aggregate(records: Sequence[RunRecord]) -> list[AggregateReport]:
    """One AggregateReport per distinct config hash; refuses no records, mixed datasets and mixed class names."""
    if not records:
        raise ConfigurationError("no run records given")
    dataset_hashes = {r.dataset_hash for r in records}
    if len(dataset_hashes) > 1:
        raise ConfigurationError(
            f"run records come from mismatched datasets: {sorted(dataset_hashes)}"
        )
    if any(r.class_names != records[0].class_names for r in records):
        raise ConfigurationError("run records disagree on class names")
    groups: dict[str, list[RunRecord]] = {}
    for r in records:
        groups.setdefault(r.config_hash, []).append(r)
    reports = [aggregate_records(g) for g in groups.values()]
    reports.sort(key=lambda a: (a.arm_label, a.config_hash))
    return reports


def render_table(reports: Sequence[AggregateReport]) -> str:
    """Human-readable table, one column per :func:`group_and_aggregate` report, F1 rows as percentages."""
    row_labels = [label for label, _ in reports[0].rows()]
    columns = []
    for rep in reports:
        header = f"{rep.arm_label} [{rep.config_hash}]"
        cells = [ms.formatted() for _, ms in rep.rows()]
        columns.append([header] + cells)

    label_col = ["F1 (%)"] + row_labels
    widths = [max(len(v) for v in label_col)] + [max(len(v) for v in col) for col in columns]
    lines = []
    for i in range(len(label_col)):
        cells = [label_col[i].ljust(widths[0])] + [
            col[i].rjust(widths[k + 1]) for k, col in enumerate(columns)
        ]
        lines.append("  ".join(cells))
        if i == 0:
            lines.append("-" * len(lines[0]))
    seeds_note = "; ".join(
        f"{rep.arm_label} [{rep.config_hash}]: seeds {list(rep.seeds)}" for rep in reports
    )
    lines.append("")
    lines.append(seeds_note)
    return "\n".join(lines) + "\n"


def write_report_csv(reports: Sequence[AggregateReport], path: str | Path) -> None:
    """Machine-readable aggregate: one row per (config, metric)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["config_hash", "dataset_hash", "arm_label", "n_seeds", "metric", "mean", "std"])
        for rep in reports:
            for label, ms in rep.rows():
                writer.writerow(
                    [
                        rep.config_hash,
                        rep.dataset_hash,
                        rep.arm_label,
                        len(rep.seeds),
                        label,
                        repr(ms.mean),
                        repr(ms.std),
                    ]
                )
