"""Scoring and reporting: misclassification under optimal label alignment,
per-category aggregation, and error histograms.

Report emission follows the benchmark convention: one CSV of
(method, category, motions, mean_pct, median_pct) rows, a plain-text aligned
table, and per-histogram CSVs of (bin_left, bin_right, count) over one fixed grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Partition

__all__ = [
    "CATEGORY_ORDER",
    "HISTOGRAM_EDGES",
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
# per-sequence error bins in percent: 5-point steps to 50, then one bin to 100
HISTOGRAM_EDGES = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 100.0)
_ZERO_ERROR_EPS = 1e-12


@dataclass(frozen=True)
class EvalRecord:
    """Per-sequence result: error averaged over repeated seeded runs."""

    sequence_id: str
    category: str
    n_motions: int
    error_pct: float
    runs: int

    def __post_init__(self):
        if not 0.0 <= self.error_pct <= 100.0:
            raise ValueError("error_pct must lie in [0, 100]")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")


@dataclass(frozen=True)
class AggregateRow:
    category: str
    n_motions: int
    mean_pct: float
    median_pct: float


def misclassification_rate(predicted: Partition, truth: Partition) -> float:
    """Percentage of points mislabeled under the best bijective label matching.

    When the cluster counts differ the matching runs over the larger label
    set, so every point of an unmatched cluster counts as an error. The
    matching is the exact maximum-weight assignment of the integer
    contingency table, so the rate is fixed by the matched count alone.
    """
    if predicted.size != truth.size:
        raise ValueError(
            f"label length mismatch: predicted {predicted.size}, truth {truth.size}"
        )
    n = truth.size
    size = max(predicted.n_clusters, truth.n_clusters)
    cells = truth.labels * size + predicted.labels
    contingency = np.bincount(cells, minlength=size * size).reshape(size, size)
    matched = _max_weight_assignment(contingency.tolist())
    return 100.0 * (n - matched) / n


def _max_weight_assignment(weights: list[list[int]]) -> int:
    """Total weight of a maximum-weight perfect matching of a square integer table.

    The Hungarian method with row and column potentials: each row joins
    the matching along a shortest augmenting path over the reduced costs
    ``-weights[i][j] - u[i] - v[j]``, found Dijkstra-style, so the K x K
    table takes O(K^3) steps. All arithmetic is on Python integers, so the
    total is exact. Index 0 of the column arrays is a virtual column that
    holds the row being inserted.
    """
    size = len(weights)
    u = [0] * (size + 1)  # row potentials, rows numbered from 1
    v = [0] * (size + 1)  # column potentials, columns numbered from 1
    row_of = [0] * (size + 1)  # row matched to each column, 0 when free
    for row in range(1, size + 1):
        row_of[0] = row
        col = 0
        slack = [math.inf] * (size + 1)
        prev = [0] * (size + 1)
        done = [False] * (size + 1)
        while row_of[col]:
            done[col] = True
            i = row_of[col]
            cost_row = weights[i - 1]
            delta, nearest = math.inf, 0
            for j in range(1, size + 1):
                if done[j]:
                    continue
                reduced = -cost_row[j - 1] - u[i] - v[j]
                if reduced < slack[j]:
                    slack[j], prev[j] = reduced, col
                if slack[j] < delta:
                    delta, nearest = slack[j], j
            for j in range(size + 1):
                if done[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            col = nearest
        while col:
            row_of[col] = row_of[prev[col]]
            col = prev[col]
    return sum(weights[row_of[j] - 1][j - 1] for j in range(1, size + 1))


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
        rows.append(AggregateRow(category, motions, float(np.mean(errors)), float(np.median(errors))))
    if selected:
        errors = [r.error_pct for r in selected]
        rows.append(AggregateRow("All", motions, float(np.mean(errors)), float(np.median(errors))))
    return rows


def error_histogram(errors) -> tuple[np.ndarray, float]:
    """Counts over ``HISTOGRAM_EDGES`` (left-closed, last bin closed) plus the exact-zero share in percent."""
    values = np.asarray(list(errors), dtype=np.float64)
    counts, _ = np.histogram(values, bins=HISTOGRAM_EDGES)
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


def write_histogram_csv(path, counts) -> None:
    """CSV with columns bin_left, bin_right, count: one row per bin of ``HISTOGRAM_EDGES``."""
    counts = np.asarray(counts)
    if counts.size != len(HISTOGRAM_EDGES) - 1:
        raise ValueError(f"need one count per histogram bin ({len(HISTOGRAM_EDGES) - 1}), got {counts.size}")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(HISTOGRAM_EDGES[:-1], HISTOGRAM_EDGES[1:], counts):
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
