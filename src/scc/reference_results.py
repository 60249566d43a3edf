"""Published misclassification rates on the Hopkins 155 motion benchmark.

Static reference data for report juxtaposition: per method and category,
(mean %, median %) of per-sequence average errors, separately for the
120 two-motion and 35 three-motion sequences. These are transcribed
published numbers, not results computed by this package.
"""

from __future__ import annotations

from .evaluation import AggregateRow

__all__ = ["PUBLISHED_RESULTS", "reference_rows"]

# method -> category -> (mean_pct, median_pct)
PUBLISHED_RESULTS: dict[int, dict[str, dict[str, tuple[float, float]]]] = {
    2: {
        "ALC 5": {
            "checkerboard": (2.66, 0.00),
            "traffic": (2.58, 0.25),
            "other": (6.90, 0.88),
            "All": (3.03, 0.00),
        },
        "ALC sp": {
            "checkerboard": (1.55, 0.29),
            "traffic": (1.59, 1.17),
            "other": (10.70, 0.95),
            "All": (2.40, 0.43),
        },
        "GPCA": {
            "checkerboard": (6.09, 1.03),
            "traffic": (1.41, 0.00),
            "other": (2.88, 0.00),
            "All": (4.59, 0.38),
        },
        "LSA 5": {
            "checkerboard": (8.84, 3.43),
            "traffic": (2.15, 1.00),
            "other": (4.66, 1.28),
            "All": (6.73, 1.99),
        },
        "LSA 4K": {
            "checkerboard": (2.57, 0.27),
            "traffic": (5.43, 1.48),
            "other": (4.10, 1.22),
            "All": (3.45, 0.59),
        },
        "MSL": {
            "checkerboard": (4.46, 0.00),
            "traffic": (2.23, 0.00),
            "other": (7.23, 0.00),
            "All": (4.14, 0.00),
        },
        "RANSAC": {
            "checkerboard": (6.52, 1.75),
            "traffic": (2.55, 0.21),
            "other": (7.25, 2.64),
            "All": (5.56, 1.18),
        },
        "REF": {
            "checkerboard": (2.76, 0.49),
            "traffic": (0.30, 0.00),
            "other": (1.71, 0.00),
            "All": (2.03, 0.00),
        },
        "SCC (3,4)": {
            "checkerboard": (2.99, 0.39),
            "traffic": (1.20, 0.32),
            "other": (7.71, 3.67),
            "All": (2.96, 0.42),
        },
        "SCC (3,4K)": {
            "checkerboard": (1.76, 0.01),
            "traffic": (0.46, 0.16),
            "other": (4.06, 1.69),
            "All": (1.63, 0.06),
        },
        "SCC (3,2F)": {
            "checkerboard": (1.77, 0.00),
            "traffic": (0.63, 0.14),
            "other": (4.02, 2.13),
            "All": (1.68, 0.07),
        },
        "SCC (4,5)": {
            "checkerboard": (2.31, 0.25),
            "traffic": (0.71, 0.26),
            "other": (5.05, 1.08),
            "All": (2.15, 0.27),
        },
        "SCC (4,4K)": {
            "checkerboard": (1.30, 0.04),
            "traffic": (1.07, 0.44),
            "other": (3.68, 0.67),
            "All": (1.46, 0.16),
        },
        "SCC (4,2F)": {
            "checkerboard": (1.31, 0.06),
            "traffic": (1.02, 0.26),
            "other": (3.21, 0.76),
            "All": (1.41, 0.10),
        },
    },
    3: {
        "ALC 5": {
            "checkerboard": (7.05, 1.02),
            "traffic": (3.52, 1.15),
            "other": (7.25, 7.25),
            "All": (6.26, 1.02),
        },
        "ALC sp": {
            "checkerboard": (5.20, 0.67),
            "traffic": (7.75, 0.49),
            "other": (21.08, 21.08),
            "All": (6.69, 0.67),
        },
        "GPCA": {
            "checkerboard": (31.95, 32.93),
            "traffic": (19.83, 19.55),
            "other": (16.85, 16.85),
            "All": (28.66, 28.26),
        },
        "LSA 5": {
            "checkerboard": (30.37, 31.98),
            "traffic": (27.02, 34.01),
            "other": (23.11, 23.11),
            "All": (29.28, 31.63),
        },
        "LSA 4K": {
            "checkerboard": (5.80, 1.77),
            "traffic": (25.07, 23.79),
            "other": (7.25, 7.25),
            "All": (9.73, 2.33),
        },
        "MSL": {
            "checkerboard": (10.38, 4.61),
            "traffic": (1.80, 0.00),
            "other": (2.71, 2.71),
            "All": (8.23, 1.76),
        },
        "RANSAC": {
            "checkerboard": (25.78, 26.01),
            "traffic": (12.83, 11.45),
            "other": (21.38, 21.38),
            "All": (22.94, 22.03),
        },
        "REF": {
            "checkerboard": (6.28, 5.06),
            "traffic": (1.30, 0.00),
            "other": (2.66, 2.66),
            "All": (5.08, 2.40),
        },
        "SCC (3,4)": {
            "checkerboard": (7.72, 3.21),
            "traffic": (0.52, 0.28),
            "other": (8.90, 8.90),
            "All": (6.34, 2.36),
        },
        "SCC (3,4K)": {
            "checkerboard": (6.00, 2.22),
            "traffic": (1.78, 0.42),
            "other": (5.65, 5.65),
            "All": (5.14, 1.67),
        },
        "SCC (3,2F)": {
            "checkerboard": (6.23, 1.70),
            "traffic": (1.11, 1.40),
            "other": (5.41, 5.41),
            "All": (5.16, 1.58),
        },
        "SCC (4,5)": {
            "checkerboard": (5.56, 2.03),
            "traffic": (1.01, 0.47),
            "other": (8.97, 8.97),
            "All": (4.85, 2.01),
        },
        "SCC (4,4K)": {
            "checkerboard": (5.68, 2.96),
            "traffic": (2.35, 2.07),
            "other": (10.94, 10.94),
            "All": (5.31, 2.40),
        },
        "SCC (4,2F)": {
            "checkerboard": (6.31, 1.97),
            "traffic": (3.31, 3.31),
            "other": (9.58, 9.58),
            "All": (5.90, 1.99),
        },
    },
}


def reference_rows(motions: int) -> dict[str, list[AggregateRow]]:
    """Published results shaped like ``evaluation.aggregate`` output."""
    table = PUBLISHED_RESULTS.get(motions, {})
    out: dict[str, list[AggregateRow]] = {}
    for method, results in table.items():
        rows = []
        for category, (mean_pct, median_pct) in results.items():
            rows.append(AggregateRow(category, motions, mean_pct, median_pct))
        out[method] = rows
    return out
