"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The external-dataset reproduction check is skipped unless
SCC_HOPKINS155_DIR points to the benchmark sequences converted to the
.seq format.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from scc.cli import main
from scc.curvature import pairwise_weights, polar_curvature_sq, simplex_gram_det
from scc.dataio import SynthSpec, synth_affine_motion, synth_subspace_mixture
from scc.engine import SccConfig, scc_run
from scc.evaluation import EvalRecord, aggregate, misclassification_rate
from scc.geometry import Partition, fit_affine_ols, subspace_sq_distances
from scc.spectral import spectral_cluster, spectral_cluster_factored

from oracles import random_flat_tuple, total_scatter

TRIANGLE = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_hand_derived_curvature():
    curv = polar_curvature_sq(TRIANGLE, 1)
    det = simplex_gram_det(TRIANGLE, 1)
    ok = abs(curv - 4.0 / 3.0) <= 1e-12 and abs(det - 1.0) <= 1e-12
    _report("hand-derived curvature", ok, f"curvature={curv!r}, det={det!r}")


def test_coplanar_tuples_have_negligible_curvature():
    worst = 0.0
    for flat_dim in (1, 2, 3):
        rng = np.random.default_rng(1000 + flat_dim)
        for _ in range(1000):
            pts = random_flat_tuple(rng, flat_dim, 10, flat_dim + 2)
            diffs = pts[:, :, None] - pts[:, None, :]
            diam_sq = float(np.einsum("ijk,ijk->jk", diffs, diffs).max())
            ratio = polar_curvature_sq(pts, flat_dim) / diam_sq**2
            worst = max(worst, ratio)
    ok = worst <= 1e-8
    _report("coplanarity", ok, f"worst curvature / diam^4 = {worst:.3e} over 3000 tuples")


def test_scaling_law():
    # Scaling every point by s multiplies the squared polar curvature by s^2.
    # Each polar sine, (d+1)! * Vol over the product of the d+1 edge lengths
    # at a vertex, does not change with scale: in squares, the determinant
    # and each vertex's distance product both have degree 2(d+1). Only the
    # squared diameter is left, and it contributes s^2 (the 4/3 triangle
    # becomes 16/3 at s = 2).
    rng = np.random.default_rng(77)
    worst = 0.0
    exponents = []
    for _ in range(100):
        flat_dim = int(rng.integers(1, 4))
        pts = rng.standard_normal((5, flat_dim + 2)) + rng.uniform(-2, 2, (5, 1))
        base = polar_curvature_sq(pts, flat_dim)
        for scale in (0.5, 2.0):
            scaled = polar_curvature_sq(pts * scale, flat_dim)
            rel = abs(scaled - scale**2 * base) / (scale**2 * base)
            worst = max(worst, rel)
            exponents.append(math.log(scaled / base) / math.log(scale))
    ok = worst <= 1e-8
    _report(
        "scaling law (s^2)",
        ok,
        f"worst relative deviation from s^2 scaling = {worst:.3e}; "
        f"measured exponent in [{min(exponents):.12f}, {max(exponents):.12f}]",
    )


def test_weight_matrices_are_psd():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 40))
        c = int(rng.integers(2, 20))
        w = pairwise_weights(rng.random((n, c)))
        min_eig = float(np.linalg.eigvalsh(w).min())
        bound = -1e-10 * np.trace(w) / n
        worst = min(worst, min_eig - bound)
    ok = worst >= 0.0
    _report("PSD weights", ok, f"worst (min eig - bound) = {worst:.3e} over 50 matrices")


def test_ideal_spectral_recovery():
    failures = 0
    for solver in ("dense", "factored"):
        for sizes in ([13, 9], [8, 12, 7]):
            labels = np.repeat(np.arange(len(sizes)), sizes)
            # block indicators A: A A^T is the block matrix of ones the dense solver gets
            factor = (labels[:, None] == np.arange(len(sizes))).astype(np.float64)
            w = factor @ factor.T
            truth = Partition(labels, len(sizes))
            for seed in range(20):
                if solver == "dense":
                    part = spectral_cluster(w, len(sizes), seed)
                else:
                    [(part, _)] = spectral_cluster_factored([factor.copy()], len(sizes), [seed])
                if misclassification_rate(part, truth) != 0.0:
                    failures += 1
    ok = failures == 0
    _report("ideal spectral recovery", ok, f"{failures} failures over 40 seeded runs of each solver")


def _mixture_runs(noise_sigma, seeds_per_k=25):
    errors, rel_errors, runtimes = [], [], []
    for n_clusters in (2, 3):
        for seed in range(seeds_per_k):
            spec = SynthSpec(
                n_clusters=n_clusters,
                points_per_cluster=100,
                subspace_dim=3,
                ambient_dim=10,
                noise_sigma=noise_sigma,
                seed=seed,
            )
            data, truth = synth_subspace_mixture(spec)
            start = time.perf_counter()
            result = scc_run(data, SccConfig(subspace_dim=3, n_clusters=n_clusters, seed=seed))
            runtimes.append(time.perf_counter() - start)
            errors.append(misclassification_rate(result.partition, truth))
            rel_errors.append(result.ols_error / total_scatter(data))
    return errors, rel_errors, runtimes


def test_noiseless_end_to_end():
    errors, rel_errors, runtimes = _mixture_runs(0.0)
    zero_runs = sum(1 for e in errors if e == 0.0)
    fit_ok = all(rel <= 1e-12 for e, rel in zip(errors, rel_errors) if e == 0.0)
    time_ok = max(runtimes) < 5.0
    ok = zero_runs >= math.ceil(0.95 * len(errors)) and fit_ok and time_ok
    _report(
        "noiseless end-to-end",
        ok,
        f"{zero_runs}/{len(errors)} runs at zero error, "
        f"max relative OLS error {max(rel_errors):.2e}, max runtime {max(runtimes):.2f} s",
    )


def test_noisy_end_to_end():
    errors, _, _ = _mixture_runs(0.03)
    mean_error = float(np.mean(errors))
    ok = mean_error < 5.0
    _report("noisy end-to-end", ok, f"mean misclassification {mean_error:.3f}% over {len(errors)} runs")


def test_synthetic_motion():
    zero_runs = 0
    containment_ok = True
    for seed in range(20):
        spec = SynthSpec(n_clusters=2, points_per_cluster=100, noise_sigma=0.0, seed=seed, n_frames=30)
        record = synth_affine_motion(spec)
        for k in range(2):
            block = record.trajectories[:, record.truth_labels.members(k)]
            fit = fit_affine_ols(block, 3)
            residual = float(subspace_sq_distances(block, fit).sum())
            if residual > 1e-9 * total_scatter(block):
                containment_ok = False
        result = scc_run(
            record.trajectories,
            SccConfig(subspace_dim=3, n_clusters=2, seed=seed, projection="4K"),
        )
        if misclassification_rate(result.partition, record.truth_labels) == 0.0:
            zero_runs += 1
    ok = zero_runs >= 18 and containment_ok
    _report(
        "synthetic motion",
        ok,
        f"{zero_runs}/20 runs at zero error, affine containment {'holds' if containment_ok else 'violated'}",
    )


def _scaling_case(n_total, n_sets):
    spec = SynthSpec(
        n_clusters=2, points_per_cluster=n_total // 2, subspace_dim=3,
        ambient_dim=20, noise_sigma=0.03, seed=3,
    )
    data, _ = synth_subspace_mixture(spec)
    config = SccConfig(
        subspace_dim=3, n_clusters=2, n_sample_sets=n_sets,
        max_iterations=5, seed=5,
    )
    return data, config


def _scaling_cases(base_n=200, base_c=200) -> dict:
    """The base case ("base") and its copies with N ("N2") and c ("c2") doubled."""
    return {
        "base": _scaling_case(base_n, base_c),
        "N2": _scaling_case(2 * base_n, base_c),
        "c2": _scaling_case(base_n, 2 * base_c),
    }


def _scaling_medians(base_n=200, base_c=200, runs=5) -> dict:
    """Median scc_run wall time of each of ``_scaling_cases``, over ``runs``
    timed runs after one warm-up.

    The cases are interleaved so machine-load drift inflates all of them alike.
    """
    cases = _scaling_cases(base_n, base_c)
    for data, config in cases.values():  # warm-up
        scc_run(data, config)
    times = {name: [] for name in cases}
    for _ in range(runs):
        for name, (data, config) in cases.items():
            start = time.perf_counter()
            scc_run(data, config)
            times[name].append(time.perf_counter() - start)
    return {name: float(np.median(vals)) for name, vals in times.items()}


def test_scaling_cases_make_equal_iteration_counts():
    # the timing ratios below measure cost only while every case runs as many
    # iterations; otherwise they measure convergence too
    iterations = {name: scc_run(data, config).iterations_run for name, (data, config) in _scaling_cases().items()}
    ok = len(set(iterations.values())) == 1
    _report("scaling cases converge alike", ok, f"iterations per run {iterations}")


def test_complexity_scaling():
    medians = _scaling_medians()
    ratio_n = medians["N2"] / medians["base"]
    ratio_c = medians["c2"] / medians["base"]
    ok = 1.5 <= ratio_n <= 3.0 and 1.5 <= ratio_c <= 3.0
    _report(
        "complexity scaling",
        ok,
        f"median {medians['base']:.3f} s; doubling N x{ratio_n:.2f}, "
        f"doubling c x{ratio_c:.2f} (target [1.5, 3])",
    )


def _strip_runtime(path: Path) -> dict:
    diag = json.loads(path.read_text())
    diag.pop("runtime_sec", None)
    return diag


def test_cli_determinism(tmp_path):
    checks = []

    seq_a, seq_b = tmp_path / "a.seq", tmp_path / "b.seq"
    for out in (seq_a, seq_b):
        assert main(
            ["synth", "--mode", "motion", "--K", "2", "--N", "60", "--F", "10",
             "--seed", "4", "--out", str(out)]
        ) == 0
    checks.append(("synth .seq", seq_a.read_bytes() == seq_b.read_bytes()))

    lab_a, lab_b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (lab_a, lab_b):
        assert main(
            ["cluster", "--in", str(seq_a), "--d", "3", "--K", "2", "--proj", "4K",
             "--seed", "7", "--out", str(out)]
        ) == 0
    checks.append(("cluster labels", lab_a.read_bytes() == lab_b.read_bytes()))
    # diagnostics hold wall-clock runtime; compare them with that field removed
    checks.append(
        (
            "cluster diagnostics (sans runtime)",
            _strip_runtime(tmp_path / "a.txt.jsonl") == _strip_runtime(tmp_path / "b.txt.jsonl"),
        )
    )

    data_dir = tmp_path / "suite"
    data_dir.mkdir()
    for i in range(2):
        assert main(
            ["synth", "--mode", "mixture", "--K", "2", "--N", "30", "--d", "2", "--D", "6",
             "--noise", "0.02", "--seed", str(20 + i), "--out", str(data_dir / f"s{i}.seq")]
        ) == 0
    bench_out = tmp_path / "bench"
    bench_names = ("report.csv", "records.csv", "report.txt", "manifest.json")
    bench_cmd = [
        "bench", "--data", str(data_dir), "--out", str(bench_out), "--repeats", "1",
        "--regimes", "2,4K", "--seed", "11", "--c", "50",
    ]
    assert main(bench_cmd) == 0
    first = {name: (bench_out / name).read_bytes() for name in bench_names}
    assert main(bench_cmd) == 0
    for name in bench_names:
        checks.append((f"bench {name}", (bench_out / name).read_bytes() == first[name]))

    failed = [name for name, ok in checks if not ok]
    _report(
        "determinism",
        not failed,
        "byte-identical outputs for repeated seeded commands"
        + (f"; mismatches: {failed}" if failed else f" ({len(checks)} comparisons)"),
    )


@pytest.mark.skipif(
    "SCC_HOPKINS155_DIR" not in os.environ,
    reason="external benchmark dataset not provided (set SCC_HOPKINS155_DIR)",
)
def test_external_benchmark_reproduction(tmp_path):
    # Data-dependent: needs the 155 benchmark sequences converted to .seq.
    # Protocol: 100 repeats per sequence; two-motion regime (4,2F) must reach
    # an All-mean of at most 3.0% and three-motion regime (4,5) at most 7.0%.
    data_dir = os.environ["SCC_HOPKINS155_DIR"]
    out_dir = tmp_path / "hopkins"
    code = main(
        ["bench", "--data", data_dir, "--out", str(out_dir), "--repeats", "100",
         "--regimes", "4,2F", "4,d+1", "--seed", "0"]
    )
    assert code == 0
    records: dict[str, list[EvalRecord]] = {}
    import csv as _csv

    with (out_dir / "records.csv").open() as handle:
        for row in _csv.DictReader(handle):
            records.setdefault(row["method"], []).append(
                EvalRecord(
                    sequence_id=row["sequence"], category=row["category"],
                    n_motions=int(row["motions"]), error_pct=float(row["error_pct"]),
                    runs=int(row["runs"]),
                )
            )
    two = [r for r in aggregate(records["SCC (4,2F)"], 2) if r.category == "All"][0]
    three = [r for r in aggregate(records["SCC (4,5)"], 3) if r.category == "All"][0]
    ok = two.mean_pct <= 3.0 and three.mean_pct <= 7.0
    _report(
        "external benchmark reproduction",
        ok,
        f"two-motion All-mean {two.mean_pct:.2f}% (<= 3.0), "
        f"three-motion All-mean {three.mean_pct:.2f}% (<= 7.0)",
    )
