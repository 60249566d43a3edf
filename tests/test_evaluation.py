import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scc.evaluation import (
    HISTOGRAM_EDGES,
    AggregateRow,
    EvalRecord,
    aggregate,
    error_histogram,
    format_report_table,
    misclassification_rate,
    write_histogram_csv,
    write_report_csv,
)
from scc.geometry import Partition
from scc.reference_results import PUBLISHED_RESULTS, reference_rows

from oracles import assignment_misclassification, brute_force_misclassification

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _p(labels, k):
    return Partition(np.asarray(labels), k)


def test_identical_partitions():
    truth = _p([0, 0, 1, 1, 2], 3)
    assert misclassification_rate(truth, truth) == 0.0


def test_swapped_labels_score_zero():
    truth = _p([0, 0, 1, 1], 2)
    pred = _p([1, 1, 0, 0], 2)
    assert misclassification_rate(pred, truth) == 0.0


def test_one_point_off_is_ten_percent():
    truth = _p([0] * 5 + [1] * 5, 2)
    pred = _p([0] * 4 + [1] + [1] * 5, 2)
    assert misclassification_rate(pred, truth) == pytest.approx(10.0)
    # agreement with exhaustive search over both permutations
    assert brute_force_misclassification(pred.labels, truth.labels, 2) == pytest.approx(10.0)


def test_hungarian_path_matches_brute_force():
    rng = np.random.default_rng(0)
    for k in range(2, 8):
        for _ in range(10):
            truth = _p(rng.integers(0, k, 60), k)
            pred = _p(rng.integers(0, k, 60), k)
            expected = brute_force_misclassification(pred.labels, truth.labels, k)
            assert misclassification_rate(pred, truth) == expected


def test_unequal_cluster_counts():
    truth = _p([0, 0, 1, 1], 2)
    pred = _p([0, 1, 2, 2], 3)
    # best: map 2->1 (2 right), 0->0 (1 right); the leftover label matches nothing
    assert misclassification_rate(pred, truth) == pytest.approx(25.0)


def test_unequal_cluster_counts_in_both_directions_match_brute_force():
    rng = np.random.default_rng(3)
    for k_pred, k_truth in [(2, 3), (3, 2), (2, 5), (5, 2), (4, 6), (6, 4), (1, 4), (4, 1)]:
        for _ in range(10):
            truth = rng.integers(0, k_truth, 40)
            pred = rng.integers(0, k_pred, 40)
            expected = brute_force_misclassification(pred, truth, max(k_pred, k_truth))
            assert misclassification_rate(_p(pred, k_pred), _p(truth, k_truth)) == expected
            assert misclassification_rate(_p(truth, k_truth), _p(pred, k_pred)) == expected


def test_single_cluster_single_point_and_single_label_prediction():
    assert misclassification_rate(_p([0] * 7, 1), _p([0] * 7, 1)) == 0.0
    assert misclassification_rate(_p([0], 1), _p([0], 1)) == 0.0
    assert misclassification_rate(_p([2], 3), _p([0], 3)) == 0.0
    # one predicted label matches the largest true cluster only
    truth = _p([0] * 5 + [1] * 3 + [2] * 2, 3)
    assert misclassification_rate(_p([1] * 10, 3), truth) == 50.0
    assert misclassification_rate(_p([0] * 10, 1), truth) == 50.0
    assert misclassification_rate(truth, _p([0] * 10, 1)) == 50.0


def test_many_clusters_match_scipy_assignment():
    rng = np.random.default_rng(5)
    for k in (8, 9, 12, 17, 25, 33, 40):
        for n, concentrated in ((3 * k, False), (20 * k, False), (20 * k, True)):
            truth = rng.integers(0, k, n)
            if concentrated:
                # mostly a relabeling of truth, so the best matching is far from the identity
                pred = np.where(rng.random(n) < 0.7, rng.permutation(k)[truth], rng.integers(0, k, n))
            else:
                pred = rng.integers(0, k, n)
            expected = assignment_misclassification(pred, truth, k)
            assert misclassification_rate(_p(pred, k), _p(truth, k)) == expected


def test_import_loads_no_scipy_module_beyond_linalg():
    # a fresh interpreter: this process may hold these modules through the oracles
    code = (
        "import sys, scc, scc.cli\n"
        "names = ('scipy.optimize', 'scipy.sparse', 'scipy.spatial', 'scipy.special')\n"
        "print(' '.join(n for n in names if n in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        misclassification_rate(_p([0, 1], 2), _p([0, 1, 1], 2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_misclassification_symmetric_and_relabel_invariant(seed, k):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k, 30)
    pred = rng.integers(0, k, 30)
    base = misclassification_rate(_p(pred, k), _p(truth, k))
    assert misclassification_rate(_p(truth, k), _p(pred, k)) == pytest.approx(base)
    perm = rng.permutation(k)
    assert misclassification_rate(_p(perm[pred], k), _p(truth, k)) == pytest.approx(base)
    assert misclassification_rate(_p(pred, k), _p(perm[truth], k)) == pytest.approx(base)


def _record(seq, category, motions, error, runs=1):
    return EvalRecord(seq, category, motions, error, runs)


def test_aggregate_single_record():
    rows = aggregate([_record("a", "traffic", 2, 2.0)], motions=2)
    assert [(r.category, r.mean_pct, r.median_pct) for r in rows] == [
        ("traffic", 2.0, 2.0),
        ("All", 2.0, 2.0),
    ]


def test_aggregate_mean_and_median():
    records = [
        _record("a", "checkerboard", 2, 0.0),
        _record("b", "checkerboard", 2, 0.0),
        _record("c", "checkerboard", 2, 3.0),
    ]
    rows = aggregate(records, motions=2)
    checker = rows[0]
    assert checker.mean_pct == pytest.approx(1.0)
    assert checker.median_pct == pytest.approx(0.0)


def test_aggregate_even_count_median_is_midpoint():
    records = [_record(s, "other", 3, e) for s, e in [("a", 1.0), ("b", 2.0), ("c", 10.0), ("d", 20.0)]]
    rows = aggregate(records, motions=3)
    assert rows[0].median_pct == pytest.approx(6.0)


def test_aggregate_groups_and_filters_by_motions():
    records = [
        _record("a", "checkerboard", 2, 1.0),
        _record("b", "traffic", 2, 3.0),
        _record("c", "traffic", 3, 50.0),
    ]
    rows = aggregate(records, motions=2)
    assert [r.category for r in rows] == ["checkerboard", "traffic", "All"]
    assert rows[-1].mean_pct == pytest.approx(2.0)
    assert all(r.n_motions == 2 for r in rows)


def test_aggregate_requires_records():
    with pytest.raises(ValueError):
        aggregate([], motions=2)


def test_histogram_hand_case():
    # bins [0, 5), ..., [45, 50), [50, 100]: 50 and 100 both land in the last
    counts, zero_share = error_histogram([0.0, 0.0, 0.0, 50.0, 100.0])
    assert HISTOGRAM_EDGES[-2:] == (50.0, 100.0)
    assert counts.tolist() == [3] + [0] * 9 + [2]
    assert zero_share == pytest.approx(60.0)


def test_histogram_empty():
    counts, zero_share = error_histogram([])
    assert counts.tolist() == [0] * (len(HISTOGRAM_EDGES) - 1)
    assert zero_share == 0.0


def test_histogram_zero_share_matches_recount():
    rng = np.random.default_rng(1)
    errors = np.where(rng.random(40) < 0.6, 0.0, rng.uniform(0.1, 90.0, 40))
    counts, zero_share = error_histogram(errors)
    assert counts.sum() == 40
    expected = 100.0 * np.count_nonzero(errors < 1e-12) / 40.0
    assert zero_share == pytest.approx(expected)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(0, 40))
def test_histogram_counts_sum(seed, n):
    rng = np.random.default_rng(seed)
    errors = rng.uniform(0.0, 100.0, n)
    counts, _ = error_histogram(errors)
    assert counts.sum() == n


def test_report_csv_round_trip(tmp_path):
    rows = {
        "SCC (3,4K)": aggregate([_record("a", "synthetic", 2, 1.5)], motions=2),
    }
    path = tmp_path / "report.csv"
    write_report_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == "method,category,motions,mean_pct,median_pct"
    assert text[1] == '"SCC (3,4K)",synthetic,2,1.5000,1.5000'  # comma in method name gets quoted


def test_histogram_csv(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, [3] + [0] * 9 + [1])
    lines = path.read_text().splitlines()
    assert lines[:3] == ["bin_left,bin_right,count", "0,5,3", "5,10,0"]
    assert lines[-1] == "50,100,1"
    assert len(lines) == len(HISTOGRAM_EDGES)
    with pytest.raises(ValueError):
        write_histogram_csv(path, [3, 1])  # not one count per bin


def test_format_table_aligns_methods():
    rows = {
        "SCC (3,4K)": aggregate([_record("a", "synthetic", 2, 1.5)], motions=2),
        "REF": [AggregateRow("synthetic", 2, 2.0, 2.0)],
    }
    table = format_report_table(rows, motions=2)
    lines = table.splitlines()
    assert lines[0].startswith("method")
    assert any(line.startswith("SCC (3,4K)") for line in lines)
    assert any(line.startswith("REF") for line in lines)


def test_published_reference_values():
    two = PUBLISHED_RESULTS[2]
    assert two["SCC (4,2F)"]["All"] == (1.41, 0.10)
    assert two["ALC sp"]["All"] == (2.40, 0.43)
    three = PUBLISHED_RESULTS[3]
    assert three["SCC (4,5)"]["All"] == (4.85, 2.01)
    assert three["ALC 5"]["All"] == (6.26, 1.02)
    rows = reference_rows(2)["SCC (4,2F)"]
    all_row = [r for r in rows if r.category == "All"][0]
    assert all_row.mean_pct == 1.41
