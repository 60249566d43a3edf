"""Scoring and reporting: misclassification under optimal label alignment,
per-category aggregation, and error histograms.

Report emission follows the benchmark convention: one CSV of
(method, category, motions, mean_pct, median_pct) rows, a plain-text aligned
table, and per-histogram CSVs of (bin_left, bin_right, count).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Partition

__all__ = [
    "CATEGORY_ORDER",
    "EvalRecord",
    "AggregateRow",
    "misclassification_rate",
    "aggregate",
    "error_histogram",
    "write_report_csv",
    "write_histogram_csv",
    "format_report_table",
]

CATEGORY_ORDER = ("checkerboard", "traffic", "other", "synthetic")
_ZERO_ERROR_EPS = 1e-12


@dataclass(frozen=True)
class EvalRecord:
    """Per-sequence result: error averaged over repeated seeded runs."""

    sequence_id: str
    category: str
    n_motions: int
    error_pct: float
    runs: int
    mean_runtime: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.error_pct <= 100.0:
            raise ValueError("error_pct must lie in [0, 100]")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")


@dataclass(frozen=True)
class AggregateRow:
    category: str
    n_motions: int
    n_sequences: int
    mean_pct: float
    median_pct: float


def misclassification_rate(predicted: Partition, truth: Partition) -> float:
    """Percentage of points mislabeled under the best bijective label matching.

    When the cluster counts differ the matching runs over the larger label
    set, so every point of an unmatched cluster counts as an error. The
    matching is the optimal assignment of the contingency table.
    """
    if predicted.size != truth.size:
        raise ValueError(
            f"label length mismatch: predicted {predicted.size}, truth {truth.size}"
        )
    n = truth.size
    size = max(predicted.n_clusters, truth.n_clusters)
    contingency = np.zeros((size, size), dtype=np.int64)
    np.add.at(contingency, (truth.labels, predicted.labels), 1)
    rows, cols = linear_sum_assignment(contingency, maximize=True)
    matched = int(contingency[rows, cols].sum())
    return 100.0 * (n - matched) / n


def aggregate(records: list[EvalRecord], motions: int) -> list[AggregateRow]:
    """Mean and median error per category, plus an "All" row, for one motion count.

    Records with a different motion count are ignored; empty groups are
    omitted. The median of an even number of values is the midpoint of the
    two central values.
    """
    if not records:
        raise ValueError("no records to aggregate")
    selected = [r for r in records if r.n_motions == motions]
    rows: list[AggregateRow] = []
    groups = [c for c in CATEGORY_ORDER if any(r.category == c for r in selected)]
    groups += sorted({r.category for r in selected} - set(CATEGORY_ORDER))
    for category in groups:
        errors = [r.error_pct for r in selected if r.category == category]
        rows.append(
            AggregateRow(category, motions, len(errors), float(np.mean(errors)), float(np.median(errors)))
        )
    if selected:
        errors = [r.error_pct for r in selected]
        rows.append(
            AggregateRow("All", motions, len(errors), float(np.mean(errors)), float(np.median(errors)))
        )
    return rows


def error_histogram(errors, bin_edges) -> tuple[np.ndarray, float]:
    """Bin counts (left-closed, last bin closed) plus the exact-zero share in percent."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or (np.diff(edges) <= 0).any():
        raise ValueError("bin edges must be strictly ascending with at least two entries")
    if edges[0] > 0.0 or edges[-1] < 100.0:
        raise ValueError("bin edges must cover [0, 100]")
    values = np.asarray(list(errors), dtype=np.float64)
    counts, _ = np.histogram(values, bins=edges)
    if values.size == 0:
        return counts, 0.0
    zero_share = 100.0 * float(np.count_nonzero(np.abs(values) <= _ZERO_ERROR_EPS)) / values.size
    return counts, zero_share


def write_report_csv(path, rows_by_method: dict[str, list[AggregateRow]]) -> None:
    """CSV with columns method, category, motions, mean_pct, median_pct."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "category", "motions", "mean_pct", "median_pct"])
        for method, rows in rows_by_method.items():
            for row in rows:
                writer.writerow(
                    [method, row.category, row.n_motions, f"{row.mean_pct:.4f}", f"{row.median_pct:.4f}"]
                )


def write_histogram_csv(path, bin_edges, counts) -> None:
    """CSV with columns bin_left, bin_right, count."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    counts = np.asarray(counts)
    if counts.size != edges.size - 1:
        raise ValueError("counts length must be one less than the number of edges")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(edges[:-1], edges[1:], counts):
            writer.writerow([f"{left:.6g}", f"{right:.6g}", int(count)])


def format_report_table(rows_by_method: dict[str, list[AggregateRow]], motions: int) -> str:
    """Aligned plain-text table of mean/median per category for one motion count."""
    categories: list[str] = []
    for rows in rows_by_method.values():
        for row in rows:
            if row.n_motions == motions and row.category not in categories:
                categories.append(row.category)
    header = ["method"] + [f"{c} mean/med" for c in categories]
    lines = [header]
    for method, rows in rows_by_method.items():
        cells = {r.category: f"{r.mean_pct:.2f}/{r.median_pct:.2f}" for r in rows if r.n_motions == motions}
        if not cells:
            continue
        lines.append([method] + [cells.get(c, "-") for c in categories])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    out = []
    for line in lines:
        out.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    return "\n".join(out) + "\n"
