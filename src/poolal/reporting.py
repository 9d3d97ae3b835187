"""Aggregation of run records into mean(std) tables.

An aggregate is its rows: one experiment config's table column, each row a
label and the mean and sample std over seeds, in the order they print. The
rows are each class's F1, ``Total (micro)``, ``Total (macro)``, ``Accuracy``
and ``Labeled fraction`` (of the train split). :func:`render_table` and
:func:`write_report_csv` print them as they are; the table's values are
percentages with two decimals, "90.34(0.66)" style.
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
    """Across-seed statistics for one experiment config: the table rows it prints, in order."""

    config_hash: str
    dataset_hash: str
    arm_label: str
    seeds: tuple[int, ...]
    rows: tuple[tuple[str, MeanStd], ...]


def aggregate_records(records: Sequence[RunRecord]) -> AggregateReport:
    """Mean and sample std of the final test metrics of one :func:`group_and_aggregate` group; refuses a seed twice."""
    first = records[0]
    seeds = [r.seed for r in records]
    for seed in seeds:
        if seeds.count(seed) > 1:
            raise ConfigurationError(f"run records repeat seed {seed} of config {first.config_hash}")

    tests = [r.final_test_metrics for r in records]
    rows = [(name, _mean_std([t.per_class[i].f1 for t in tests])) for i, name in enumerate(first.class_names)]
    rows += [
        ("Total (micro)", _mean_std([t.micro_f1 for t in tests])),
        ("Total (macro)", _mean_std([t.macro_f1 for t in tests])),
        ("Accuracy", _mean_std([t.accuracy for t in tests])),
        ("Labeled fraction", _mean_std([r.labeled_fraction_of_train for r in records])),
    ]
    return AggregateReport(first.config_hash, first.dataset_hash, first.arm_label, tuple(seeds), tuple(rows))


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
    label_col = ["F1 (%)"] + [label for label, _ in reports[0].rows]
    columns = [[f"{rep.arm_label} [{rep.config_hash}]"] + [ms.formatted() for _, ms in rep.rows] for rep in reports]
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
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["config_hash", "dataset_hash", "arm_label", "n_seeds", "metric", "mean", "std"])
        for rep in reports:
            for label, ms in rep.rows:
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
