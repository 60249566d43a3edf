import contextlib
import itertools
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scc import curvature, engine, spectral
from scc.curvature import curvature_matrix
from scc.dataio import SynthSpec, synth_subspace_mixture
from scc.engine import (
    SccConfig,
    _blas_thread_controls,
    _first_occurrence_labels,
    resample_within,
    sample_initial,
    scc_run,
    sigma_candidates,
    sweep_and_cluster,
)
from scc.evaluation import misclassification_rate
from scc.geometry import Partition, total_ols_error

from oracles import sigma_candidates_masked, total_scatter


def test_config_defaults_and_validation():
    cfg = SccConfig(subspace_dim=3, n_clusters=2)
    assert cfg.sample_set_count == 200
    assert cfg.iteration_limit == 10
    assert cfg.projection == "ambient"
    assert SccConfig(subspace_dim=3, n_clusters=2, projection="2F").projection == "ambient"
    assert SccConfig(subspace_dim=4, n_clusters=2, projection="4k").projection == "4K"
    with pytest.raises(ValueError):
        SccConfig(subspace_dim=0, n_clusters=2)
    with pytest.raises(ValueError):
        SccConfig(subspace_dim=3, n_clusters=2, n_sample_sets=1)
    with pytest.raises(ValueError):
        SccConfig(subspace_dim=3, n_clusters=2, seed=-1)
    with pytest.raises(ValueError):
        SccConfig(subspace_dim=3, n_clusters=2, projection="5K")


def test_projection_dim_resolution():
    cfg = SccConfig(subspace_dim=3, n_clusters=2, projection="4K")
    assert cfg.projection_dim(60) == 8
    assert cfg.projection_dim(6) == 6  # identity regime when the target exceeds D
    cfg = SccConfig(subspace_dim=3, n_clusters=2, projection="d+1")
    assert cfg.projection_dim(60) == 4
    cfg = SccConfig(subspace_dim=3, n_clusters=2)
    assert cfg.projection_dim(60) == 60


def test_sample_initial_minimal_case_omits_one_point():
    rng = np.random.default_rng(0)
    sets = sample_initial(5, 3, 1, rng)
    assert sets.shape == (1, 4)
    assert len(set(sets[0].tolist())) == 4


def test_sample_initial_default_count_via_config():
    cfg = SccConfig(subspace_dim=3, n_clusters=2)
    rng = np.random.default_rng(1)
    sets = sample_initial(50, cfg.subspace_dim, cfg.sample_set_count, rng)
    assert sets.shape == (200, 4)


def test_sample_initial_deterministic():
    a = sample_initial(30, 2, 15, np.random.default_rng(42))
    b = sample_initial(30, 2, 15, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_initial_requires_complement():
    with pytest.raises(ValueError):
        sample_initial(4, 3, 5, np.random.default_rng(0))


def test_sample_initial_is_resampling_within_one_cluster():
    for n in (5, 50, 600):
        one = Partition(np.zeros(n, dtype=int), 1)
        a = sample_initial(n, 3, 40, np.random.default_rng(n))
        b = resample_within(one, 3, 40, np.random.default_rng(n))
        assert np.array_equal(a, b)


def _with_members(vec, d, c, rng):
    """(N, c) curvatures holding ``vec`` column by column, d+1 member entries per column among them, and their mask.

    The matrix ``sigma_candidates`` takes holds +inf at the members; the
    second, for the masked reference, holds zeros there, as
    ``curvature_matrix`` returns them.
    """
    rows = len(vec) // c + d + 1
    member = np.zeros((rows, c), dtype=bool)
    for r in range(c):
        member[rng.choice(rows, d + 1, replace=False), r] = True
    curv = np.full((rows, c), np.inf)
    curv.T[~member.T] = vec
    return curv, np.where(member, 0.0, curv), member


def _assert_selects_like_the_mask(vec, d, k, c, rng):
    """sigma_candidates of ``vec`` with +inf members equals the masked reference; returns the candidates."""
    curv, kernel_curv, member = _with_members(vec, d, c, rng)
    before = curv.copy()
    cands = sigma_candidates(curv, d, k)
    assert cands == sigma_candidates_masked(kernel_curv, member, d, k)
    assert np.array_equal(curv, before)
    return cands


def test_sigma_candidate_positions():
    # length 1000, K=2, d=3: 1-based positions 500, 250, 125, 63 (round half up)
    vec = np.arange(1.0, 1001.0)
    rng = np.random.default_rng(1)
    for order in (vec, rng.permutation(vec)):  # input need not be sorted
        for c in (1, 10, 1000):
            assert _assert_selects_like_the_mask(order, 3, 2, c, rng) == [500.0, 250.0, 125.0, 63.0]


def test_sigma_candidates_single_cluster_all_last():
    rng = np.random.default_rng(2)
    vec = np.sort(rng.random(60))
    assert _assert_selects_like_the_mask(vec, 2, 1, 3, rng) == [float(vec[-1])] * 3


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_sigma_candidates_nonincreasing(seed, k):
    rng = np.random.default_rng(seed)
    vec = np.sort(rng.random(120))
    cands = _assert_selects_like_the_mask(vec, 3, k, 4, rng)
    assert all(a >= b for a, b in zip(cands, cands[1:]))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_sigma_candidates_are_entries_of_the_fully_sorted_vector(k, d):
    # below length K^(d+1) several q round to one position; the entries hold
    # ties, zeros and +inf, as the curvatures of exact fits and duplicates
    # do, and so the +inf member entries tie with some of them
    rng = np.random.default_rng(10 * k + d)
    top = k ** (d + 1)
    for length in sorted({1, 2, 3, k, k + 1, top // 2, top - 1, top, top + 1, 3 * top}):
        vec = rng.integers(0, 4, length).astype(float)
        vec[rng.random(length) < 0.2] = np.inf
        positions = [min(max(math.floor(length / k**q + 0.5), 1), length) for q in range(1, d + 2)]
        expected = [float(np.sort(vec)[p - 1]) for p in positions]
        # one column, one entry outside the members per column, and between
        for c in sorted({1, 2, 3, length}):
            if length % c == 0:
                assert _assert_selects_like_the_mask(vec, d, k, c, rng) == expected


def test_sigma_candidates_validation():
    with pytest.raises(ValueError):
        sigma_candidates(np.empty((0, 3)), 1, 2)
    with pytest.raises(ValueError):  # N <= d+1: every entry a member
        sigma_candidates(np.ones((2, 3)), 1, 2)


def _halves(n=40):
    return Partition((np.arange(n) >= n // 2).astype(int), 2)


def test_resample_within_equal_quota():
    part = _halves()
    sets = resample_within(part, 1, 200, np.random.default_rng(3))
    assert sets.shape == (200, 2)
    first = np.isin(sets, part.members(0)).all(axis=1)
    second = np.isin(sets, part.members(1)).all(axis=1)
    assert first.sum() == 100 and second.sum() == 100


def test_resample_within_remainder_to_largest():
    labels = np.zeros(30, dtype=int)
    labels[18:] = 1  # sizes 18 and 12
    part = Partition(labels, 2)
    sets = resample_within(part, 1, 5, np.random.default_rng(4))
    from_large = np.isin(sets, part.members(0)).all(axis=1).sum()
    from_small = np.isin(sets, part.members(1)).all(axis=1).sum()
    assert (from_large, from_small) == (3, 2)


def test_resample_within_small_cluster_falls_back_to_all():
    labels = np.zeros(20, dtype=int)
    labels[:2] = 1  # cluster 1 has d points only (d=2 here)
    part = Partition(labels, 2)
    sets = resample_within(part, 2, 10, np.random.default_rng(5))
    assert sets.shape == (10, 3)
    # the small cluster cannot supply 3 distinct members, so its quota uses any index
    assert sets.max() < 20 and sets.min() >= 0


def _subset_chi_square(rows, pool) -> float:
    """Pearson's statistic of the counts of every 3-subset of ``pool`` among ``rows``."""
    subsets = list(itertools.combinations(sorted(pool), 3))
    counts = Counter(map(tuple, np.sort(rows, axis=1).tolist()))
    assert set(counts) <= set(subsets)
    expected = len(rows) / len(subsets)
    return sum((counts[s] - expected) ** 2 / expected for s in subsets)


# exceeded by a uniform draw with probability 1e-3 (20 subsets, 19 degrees of freedom)
_CHI2_19_BOUND = 43.82


def test_sample_initial_draws_every_subset_uniformly():
    sets = sample_initial(6, 2, 20_000, np.random.default_rng(11))
    assert _subset_chi_square(sets, range(6)) < _CHI2_19_BOUND


def test_resample_within_draws_every_subset_uniformly():
    labels = np.ones(12, dtype=int)
    pool = [0, 2, 5, 7, 9, 11]
    labels[pool] = 0
    part = Partition(labels, 2)
    sets = resample_within(part, 2, 40_000, np.random.default_rng(12))
    assert np.isin(sets[:20_000], pool).all()
    assert _subset_chi_square(sets[:20_000], pool) < _CHI2_19_BOUND


def test_resample_within_pool_of_exactly_d_plus_one_points():
    labels = np.zeros(20, dtype=int)
    labels[[3, 8, 15]] = 1  # d+1 = 3 points
    part = Partition(labels, 2)
    sets = resample_within(part, 2, 50, np.random.default_rng(13))
    assert (np.sort(sets[25:], axis=1) == [3, 8, 15]).all()


def test_resample_within_three_clusters_one_below_d_plus_one():
    labels = np.array([0, 1, 0, 2, 0, 1, 0, 0, 1, 0, 2, 0, 1, 0, 0, 1, 0, 1, 0, 0])
    part = Partition(labels, 3)  # sizes 12, 6 and 2; d+1 = 3
    sets = resample_within(part, 2, 10, np.random.default_rng(14))
    assert sets.shape == (10, 3)
    assert all(len(set(row)) == 3 for row in sets.tolist())
    # quotas 3 each, the leftover one to the largest cluster; the small one draws from all
    assert np.isin(sets[:4], part.members(0)).all()
    assert np.isin(sets[4:7], part.members(1)).all()
    assert sets[7:].min() >= 0 and sets[7:].max() < 20


def test_resample_within_deterministic():
    part = _halves()
    a = resample_within(part, 1, 9, np.random.default_rng(8))
    b = resample_within(part, 1, 9, np.random.default_rng(8))
    assert np.array_equal(a, b)


def _two_lines(seed=0, n_per=25):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, n_per)
    s = rng.uniform(-1.0, 1.0, n_per)
    line_a = np.vstack([t, t, np.zeros(n_per)])
    line_b = np.vstack([s, -s, np.ones(n_per)])
    data = np.hstack([line_a, line_b])
    truth = Partition(np.repeat([0, 1], n_per), 2)
    return data, truth


def test_sweep_recovers_well_separated_lines():
    data, truth = _two_lines(seed=1)
    cfg = SccConfig(subspace_dim=1, n_clusters=2, n_sample_sets=60, seed=2)
    sets = sample_initial(data.shape[1], 1, 60, np.random.default_rng(2))
    part, sigma_sq, q, err = sweep_and_cluster(data, sets, cfg)
    assert misclassification_rate(part, truth) == 0.0
    assert err <= 1e-12 * total_scatter(data)
    assert sigma_sq > 0.0
    assert 1 <= q <= 2  # d+1 candidates for d=1


def test_sweep_tie_breaks_to_smallest_q():
    # noiseless separable data: every candidate recovers the same zero-error
    # partition, so the tie must resolve to q = 1
    data, _ = _two_lines(seed=3)
    cfg = SccConfig(subspace_dim=1, n_clusters=2, n_sample_sets=80, seed=5)
    sets = sample_initial(data.shape[1], 1, 80, np.random.default_rng(5))
    _, _, q, err = sweep_and_cluster(data, sets, cfg)
    assert err <= 1e-18
    assert q == 1


def test_sweep_rejects_sample_sets_of_another_width_than_d_plus_one():
    # the bandwidth positions round(L / K^q), q = 1..d+1, assume (d+1)-point sets
    data, _ = synth_subspace_mixture(SynthSpec(2, 20, subspace_dim=2, ambient_dim=4, noise_sigma=0.02, seed=7))
    cfg = SccConfig(subspace_dim=2, n_clusters=2, n_sample_sets=30, seed=7)
    for width in (1, 5):
        sets = sample_initial(data.shape[1], width - 1, 30, np.random.default_rng(7))
        assert sets.shape == (30, width)
        with pytest.raises(ValueError, match=r"d\+1 = 3 points"):
            sweep_and_cluster(data, sets, cfg)
    sweep_and_cluster(data, sample_initial(data.shape[1], 2, 30, np.random.default_rng(7)), cfg)


def test_sweep_replaces_a_zero_candidate_with_the_positive_floor():
    # two exactly representable lines, each subset an adjacent pair on one line:
    # 360 of the 760 curvatures are exactly 0, so candidate q=2 is sigma^2 = 0,
    # which the affinity kernel rejects unless the sweep substitutes a floor
    t = np.arange(1.0, 21.0)
    zeros = np.zeros(20)
    data = np.hstack([np.vstack([t, zeros, zeros]), np.vstack([zeros, t, np.full(20, 5.0)])])
    sets = np.array([[i, i + 1] for i in range(0, 40, 2)])
    curv, member = curvature_matrix(data, sets)
    curv[member] = np.inf
    assert sigma_candidates(curv, 1, 2)[1] == 0.0
    cfg = SccConfig(subspace_dim=1, n_clusters=2, n_sample_sets=20, seed=0)
    part, sigma_sq, _, err = sweep_and_cluster(data, sets, cfg)
    assert np.isfinite(sigma_sq) and sigma_sq > 0.0
    assert err == 0.0
    assert misclassification_rate(part, Partition(np.repeat([0, 1], 20), 2)) == 0.0


def test_sweep_computes_the_positive_floor_only_for_a_zero_or_infinite_candidate(monkeypatch):
    # record each value _positive_floor returns and each sigma^2 the sweep tries
    floors, sigmas = [], []
    floor, affinity = engine._positive_floor, engine.affinity_from_curvatures
    monkeypatch.setattr(engine, "_positive_floor", lambda curv: floors.append(floor(curv)) or floors[-1])
    monkeypatch.setattr(
        engine, "affinity_from_curvatures", lambda curv, s: sigmas.append(s) or affinity(curv, s)
    )
    data, _ = synth_subspace_mixture(SynthSpec(2, 15, subspace_dim=1, ambient_dim=3, noise_sigma=0.05, seed=3))
    sets = sample_initial(data.shape[1], 1, 30, np.random.default_rng(3))
    curv, member = curvature_matrix(data, sets)
    curv[member] = np.inf
    candidates = sigma_candidates(curv, 1, 2)
    assert all(0.0 < s < math.inf for s in candidates)
    sweep_and_cluster(data, sets, SccConfig(subspace_dim=1, n_clusters=2, n_sample_sets=30, seed=3))
    assert floors == [] and sigmas == candidates

    # the sweep of test_sweep_replaces_a_zero_candidate_with_the_positive_floor
    t = np.arange(1.0, 21.0)
    zeros = np.zeros(20)
    data = np.hstack([np.vstack([t, zeros, zeros]), np.vstack([zeros, t, np.full(20, 5.0)])])
    sets = np.array([[i, i + 1] for i in range(0, 40, 2)])
    curv, member = curvature_matrix(data, sets)
    curv[member] = np.inf
    candidates = sigma_candidates(curv, 1, 2)
    sigmas.clear()
    sweep_and_cluster(data, sets, SccConfig(subspace_dim=1, n_clusters=2, n_sample_sets=20, seed=0))
    assert len(floors) == 1 and 0.0 < floors[0] < math.inf
    assert sigmas == [candidates[0], floors[0]]


def test_sweep_peaks_at_the_curvature_matrix_plus_one_more_array(monkeypatch):
    # perfbench large_n's shape: N = 6000, c = 300, D = 20, d = 3, K = 3, where
    # an (N, c) float array (14.4 MB) outweighs the kernel's 8 MB workspace.
    # The kernel's member mask (1.8 MB) is freed before the bandwidth choice;
    # beside the curvature matrix a sweep then holds one more (N, c) float
    # array: the bandwidth selection's copy, then one affinity at a time; its
    # k-means batch runs after the matrix is freed
    data, _ = synth_subspace_mixture(SynthSpec(3, 2000, subspace_dim=3, ambient_dim=20, noise_sigma=0.01, seed=4))
    config = SccConfig(subspace_dim=3, n_clusters=3, n_sample_sets=300, seed=4)
    sets = sample_initial(data.shape[1], 3, 300, np.random.default_rng(4))
    sweep_and_cluster(data, sets, config)  # first-call allocations of numpy and LAPACK
    # the bytes the sweep holds as its first affinity is computed and as the k-means batch starts
    at_affinity, held = [], []
    affinity, kmeans = engine.affinity_from_curvatures, spectral.kmeans
    monkeypatch.setattr(
        engine, "affinity_from_curvatures",
        lambda *args: at_affinity.append(tracemalloc.get_traced_memory()[0]) or affinity(*args),
    )
    monkeypatch.setattr(spectral, "kmeans", lambda *args: held.append(tracemalloc.get_traced_memory()[0]) or kmeans(*args))
    tracemalloc.start()
    try:
        sweep_and_cluster(data, sets, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = data.shape[1] * sets.shape[0]
    curv_bytes, member_bytes = 8 * entries, entries
    workspace = 2 * curvature._CHUNK_ENTRIES * 8
    assert peak <= curv_bytes + member_bytes + 8 * entries + workspace + (1 << 20)
    assert at_affinity[0] <= curv_bytes + (1 << 20)
    assert held[0] < curv_bytes


def test_scc_run_bandwidth_is_finite_on_two_repeated_points():
    # 20 copies of one point and 10 of another: most tuples hold a duplicate,
    # so candidate q=1 is sigma^2 = +inf, which the sweep must replace like a zero
    a = np.array([1.0, 2.0, 3.0])
    data = np.hstack([np.repeat(a[:, None], 20, axis=1), np.repeat(-2.0 * a[:, None], 10, axis=1)])
    result = scc_run(data, SccConfig(subspace_dim=1, n_clusters=2, seed=0))
    assert np.isfinite(result.sigma_sq_chosen) and result.sigma_sq_chosen > 0.0
    assert result.ols_error == 0.0
    assert misclassification_rate(result.partition, Partition(np.repeat([0, 1], [20, 10]), 2)) == 0.0


def test_scc_run_gives_both_copies_of_a_duplicated_point_one_label():
    # Every point given twice: a subset holding one copy scores the other
    # copy +inf, whose affinity is 0 like the member entry of the first, so
    # the two copies' affinity rows are equal and the run completes.
    for seed in range(5):
        spec = SynthSpec(
            n_clusters=3, points_per_cluster=40, subspace_dim=2, ambient_dim=6, noise_sigma=0.01, seed=seed
        )
        data, truth = synth_subspace_mixture(spec)
        result = scc_run(np.hstack([data, data]), SccConfig(subspace_dim=2, n_clusters=3, seed=seed))
        labels = result.partition.labels
        assert (labels[:120] == labels[120:]).all(), seed
        twice = Partition(np.concatenate([truth.labels, truth.labels]), 3)
        assert misclassification_rate(result.partition, twice) == 0.0, seed


def test_scc_run_rejects_data_whose_points_all_coincide():
    # 30 copies of one point: every curvature is 0, so any split is arbitrary
    data = np.repeat(np.array([[1.0], [-2.0], [0.5], [3.0]]), 30, axis=1)
    for projection in ("ambient", "d+1"):
        with pytest.raises(ValueError, match="every point of the working data coincides"):
            scc_run(data, SccConfig(subspace_dim=1, n_clusters=2, projection=projection))
    # one point apart is data to cluster
    data[:, 0] += 1.0
    assert scc_run(data, SccConfig(subspace_dim=1, n_clusters=2, max_iterations=2)).partition.size == 30


def test_scc_run_noiseless_mixture():
    spec = SynthSpec(n_clusters=2, points_per_cluster=60, subspace_dim=2, ambient_dim=6, seed=7)
    data, truth = synth_subspace_mixture(spec)
    result = scc_run(data, SccConfig(subspace_dim=2, n_clusters=2, seed=11))
    assert misclassification_rate(result.partition, truth) == 0.0
    assert result.ols_error <= 1e-16 * total_scatter(data)
    assert result.iterations_run <= 10


def test_scc_run_partition_ignores_units_and_origin():
    spec = SynthSpec(n_clusters=2, points_per_cluster=60, subspace_dim=2, ambient_dim=8, seed=0)
    data, truth = synth_subspace_mixture(spec)
    config = SccConfig(subspace_dim=2, n_clusters=2, seed=0)
    base = scc_run(data, config).partition
    assert misclassification_rate(base, truth) == 0.0
    for moved in (data * 1e-100, data * 1e-60, data * 1e60, data * 1e100, data + 1e9):
        assert (scc_run(moved, config).partition.labels == base.labels).all()


def test_scc_run_single_cluster_matches_global_fit():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((5, 30))
    result = scc_run(data, SccConfig(subspace_dim=2, n_clusters=1, seed=1))
    assert result.partition.n_clusters == 1
    expected = total_ols_error(data, Partition(np.zeros(30, dtype=int), 1), 2)
    assert result.ols_error == pytest.approx(expected, rel=1e-9)


def test_scc_run_deterministic():
    spec = SynthSpec(n_clusters=2, points_per_cluster=30, subspace_dim=2, ambient_dim=5, seed=3, noise_sigma=0.05)
    data, _ = synth_subspace_mixture(spec)
    cfg = SccConfig(subspace_dim=2, n_clusters=2, seed=21)
    a = scc_run(data, cfg)
    b = scc_run(data, cfg)
    assert np.array_equal(a.partition.labels, b.partition.labels)
    assert a.ols_error == b.ols_error
    assert a.sigma_sq_chosen == b.sigma_sq_chosen
    assert a.q_chosen == b.q_chosen
    assert a.per_iteration_errors == b.per_iteration_errors


def test_scc_run_best_seen_semantics():
    spec = SynthSpec(n_clusters=2, points_per_cluster=40, subspace_dim=2, ambient_dim=6, seed=5, noise_sigma=0.08)
    data, _ = synth_subspace_mixture(spec)
    result = scc_run(data, SccConfig(subspace_dim=2, n_clusters=2, seed=2))
    # the returned partition is an iteration's own, and no iteration improved on it
    assert result.ols_error in result.per_iteration_errors
    assert all(e >= result.ols_error * (1.0 - 1e-6) for e in result.per_iteration_errors)
    assert result.iterations_run == len(result.per_iteration_errors)
    # ambient regime: the reported error is reproducible from the partition
    assert result.working_dim == data.shape[0]
    recomputed = total_ols_error(data, result.partition, 2)
    assert result.ols_error == pytest.approx(recomputed, rel=1e-9)


def test_scc_run_projection_regimes():
    spec = SynthSpec(n_clusters=2, points_per_cluster=30, subspace_dim=3, ambient_dim=20, seed=9)
    data, truth = synth_subspace_mixture(spec)
    for projection, expected_dim in (("ambient", 20), ("4K", 8), ("d+1", 4)):
        result = scc_run(data, SccConfig(subspace_dim=3, n_clusters=2, seed=3, projection=projection))
        assert result.working_dim == expected_dim
        assert misclassification_rate(result.partition, truth) == 0.0


def test_scc_run_error_reproducible_in_projected_space():
    from scc.geometry import project_pca

    spec = SynthSpec(
        n_clusters=2, points_per_cluster=30, subspace_dim=3, ambient_dim=20, seed=10, noise_sigma=0.05
    )
    data, _ = synth_subspace_mixture(spec)
    result = scc_run(data, SccConfig(subspace_dim=3, n_clusters=2, seed=4, projection="4K"))
    work = project_pca(data, result.working_dim)
    recomputed = total_ols_error(work, result.partition, 3)
    assert result.ols_error == pytest.approx(recomputed, rel=1e-9)


def test_scc_run_point_order_invariance_against_truth():
    spec = SynthSpec(n_clusters=2, points_per_cluster=30, subspace_dim=2, ambient_dim=6, seed=14)
    data, truth = synth_subspace_mixture(spec)
    perm = np.random.default_rng(0).permutation(data.shape[1])
    cfg = SccConfig(subspace_dim=2, n_clusters=2, seed=6)
    base = scc_run(data, cfg)
    shuffled = scc_run(data[:, perm], cfg)
    assert misclassification_rate(base.partition, truth) == 0.0
    assert misclassification_rate(
        shuffled.partition, Partition(truth.labels[perm], 2)
    ) == 0.0


def test_scc_run_input_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        scc_run(rng.standard_normal((3, 4)), SccConfig(subspace_dim=3, n_clusters=2))
    with pytest.raises(ValueError):
        scc_run(rng.standard_normal((3, 5)), SccConfig(subspace_dim=1, n_clusters=9))


def test_scc_run_rejects_a_subspace_dim_above_the_working_dimension_before_sampling(monkeypatch):
    def no_curvature(*args, **kwargs):
        raise AssertionError("curvature_matrix ran before the dimension check")

    monkeypatch.setattr("scc.engine.curvature_matrix", no_curvature)
    data = np.random.default_rng(2).standard_normal((10, 40))
    for d, k, work_dim in ((5, 1, 4), (9, 2, 8)):
        with pytest.raises(ValueError, match=f"subspace_dim {d} exceeds the working dimension {work_dim}"):
            scc_run(data, SccConfig(subspace_dim=d, n_clusters=k, projection="4K"))


def test_first_occurrence_labels_number_groups_in_order_of_appearance():
    assert _first_occurrence_labels(np.array([2, 2, 0, 1, 0])).tolist() == [0, 0, 1, 2, 1]
    assert _first_occurrence_labels(np.array([0, 1, 1])).tolist() == [0, 1, 1]
    assert _first_occurrence_labels(np.array([3, 3, 3])).tolist() == [0, 0, 0]


_P = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
_P_RELABELED = [1 - v for v in _P]
_Q = [0, 1] * 6
_R = [0, 0, 0, 1, 1, 1] * 2


def _scripted_run(monkeypatch, script, **config):
    """scc_run with sweep_and_cluster returning (labels, error) pairs from ``script`` in turn.

    Returns the result and the number of sweeps the run made.
    """
    calls = []

    def sweep(data, sample_sets, config, iteration=0):
        labels, error = script[len(calls)]
        calls.append(iteration)
        return Partition(np.array(labels), 2), 1.0, len(calls), error

    monkeypatch.setattr("scc.engine.sweep_and_cluster", sweep)
    data = np.random.default_rng(0).standard_normal((3, len(_P)))
    result = scc_run(data, SccConfig(subspace_dim=1, n_clusters=2, **config))
    return result, len(calls)


def test_scc_run_stops_when_a_relabeled_best_partition_returns(monkeypatch):
    script = [(_P, 1.0), (_P_RELABELED, 1.0)] + [(_Q, 2.0)] * 8
    result, sweeps = _scripted_run(monkeypatch, script)
    assert sweeps == 2
    assert result.stop_reason == "repeat"
    assert result.per_iteration_errors == [1.0, 1.0]
    assert result.partition.labels.tolist() == _P and result.q_chosen == 1


def test_scc_run_waits_out_patience_on_a_different_partition_of_equal_error(monkeypatch):
    script = [(_P, 1.0)] + [(_Q, 1.0)] * 9
    result, sweeps = _scripted_run(monkeypatch, script)
    assert sweeps == 4
    assert result.stop_reason == "patience"
    assert result.partition.labels.tolist() == _P


def test_scc_run_compares_with_the_best_partition_before_replacing_it(monkeypatch):
    lower = 1.0 - 1e-9  # lower, but within the 1e-6 tolerance: not an improvement
    # the best partition again at a slightly lower error is a repeat and does not replace it ...
    result, sweeps = _scripted_run(monkeypatch, [(_P, 1.0), (_P_RELABELED, lower)] + [(_Q, 2.0)] * 8)
    assert (sweeps, result.stop_reason) == (2, "repeat")
    assert result.partition.labels.tolist() == _P and result.q_chosen == 1 and result.ols_error == 1.0
    # ... while another partition at that error is not a repeat, and does not replace it either
    result, sweeps = _scripted_run(monkeypatch, [(_P, 1.0), (_Q, lower)] + [(_R, 2.0)] * 8)
    assert (sweeps, result.stop_reason) == (4, "patience")
    assert result.partition.labels.tolist() == _P and result.q_chosen == 1 and result.ols_error == 1.0


def test_scc_run_at_zero_error_stops_at_its_first_repeat(monkeypatch):
    script = [(_P, 0.0), (_Q, 0.0), (_P_RELABELED, 0.0)] + [(_Q, 0.0)] * 7
    result, sweeps = _scripted_run(monkeypatch, script)
    assert (sweeps, result.stop_reason) == (3, "repeat")
    assert result.partition.labels.tolist() == _P


def test_scc_run_reports_the_iteration_limit(monkeypatch):
    script = [(_P, 3.0), (_Q, 2.0), (_P, 1.0)]
    result, sweeps = _scripted_run(monkeypatch, script, max_iterations=3)
    assert (sweeps, result.stop_reason) == (3, "limit")


def test_scc_run_that_stops_on_a_repeat_is_a_prefix_of_the_run_without_the_rule(monkeypatch):
    spec = SynthSpec(n_clusters=3, points_per_cluster=25, subspace_dim=2, ambient_dim=8, seed=7, noise_sigma=0.05)
    data, _ = synth_subspace_mixture(spec)
    stopped = []
    for seed in range(4):
        config = SccConfig(subspace_dim=2, n_clusters=3, seed=seed)
        with_rule = scc_run(data, config)
        with monkeypatch.context() as patch:
            # no iteration counts as a repeat
            patch.setattr("scc.engine._same_grouping", lambda a, b: False)
            without = scc_run(data, config)
        assert without.stop_reason != "repeat"
        run = with_rule.iterations_run
        assert with_rule.per_iteration_errors == without.per_iteration_errors[:run]
        # on these inputs no later iteration beats the best, so both runs return it
        assert min(without.per_iteration_errors) == with_rule.ols_error
        assert np.array_equal(with_rule.partition.labels, without.partition.labels)
        stopped.append(with_rule.stop_reason)
    assert "repeat" in stopped


def test_scc_run_numbers_its_labels_in_order_of_first_occurrence():
    spec = SynthSpec(n_clusters=3, points_per_cluster=20, subspace_dim=2, ambient_dim=8, seed=4, noise_sigma=0.05)
    data, _ = synth_subspace_mixture(spec)
    data = data[:, np.random.default_rng(4).permutation(data.shape[1])]
    for projection in ("ambient", "4K", "d+1"):
        for seed in range(3):
            config = SccConfig(subspace_dim=2, n_clusters=3, seed=seed, projection=projection, max_iterations=3)
            labels = scc_run(data, config).partition.labels
            assert np.array_equal(labels, _first_occurrence_labels(labels)), (projection, seed)


def _blas_counts():
    return [get() for get, _ in _blas_thread_controls()]


@contextlib.contextmanager
def _blas_threads(count):
    """Set every OpenBLAS in the process to ``count`` threads, then restore."""
    previous = _blas_counts()
    for _, set_threads in _blas_thread_controls():
        set_threads(count)
    try:
        yield
    finally:
        for (_, set_threads), old in zip(_blas_thread_controls(), previous):
            set_threads(old)


def _pin_case(seed=0):
    spec = SynthSpec(n_clusters=2, points_per_cluster=40, subspace_dim=2, ambient_dim=6, seed=5, noise_sigma=0.08)
    data, _ = synth_subspace_mixture(spec)
    return data, SccConfig(subspace_dim=2, n_clusters=2, max_iterations=3, seed=seed)


def _spy_on_sweeps(monkeypatch, seen, fail=False):
    def spy(*args, **kwargs):
        seen.append(_blas_counts())
        if fail:
            raise RuntimeError("boom")
        return sweep_and_cluster(*args, **kwargs)

    monkeypatch.setattr("scc.engine.sweep_and_cluster", spy)


def test_blas_thread_controls_are_looked_up_once():
    assert _blas_thread_controls() is _blas_thread_controls()


def test_scc_run_computes_on_one_blas_thread_and_restores_the_counts(monkeypatch):
    data, config = _pin_case()
    with _blas_threads(1):
        expected = scc_run(data, config).partition.labels
    ones = [1] * len(_blas_thread_controls())
    with _blas_threads(2):
        seen = []
        _spy_on_sweeps(monkeypatch, seen)
        labels = scc_run(data, config).partition.labels
        assert seen and all(counts == ones for counts in seen)
        assert _blas_counts() == [2] * len(ones)
        assert np.array_equal(labels, expected)

        seen.clear()
        _spy_on_sweeps(monkeypatch, seen, fail=True)
        with pytest.raises(RuntimeError, match="boom"):
            scc_run(data, config)
        assert seen == [ones]
        assert _blas_counts() == [2] * len(ones)


def test_concurrent_scc_runs_match_sequential_runs(monkeypatch):
    cases = [_pin_case(seed) for seed in (1, 2)]
    expected = [scc_run(data, config).partition.labels for data, config in cases]
    ones = [1] * len(_blas_thread_controls())
    seen = []
    _spy_on_sweeps(monkeypatch, seen)
    labels = [None] * len(cases)

    def work(i):
        labels[i] = scc_run(*cases[i]).partition.labels

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _blas_threads(2):
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            # an interleaved save and restore would leave 1 here, or 2 inside a run
            assert _blas_counts() == [2] * len(ones)
    finally:
        sys.setswitchinterval(interval)
    assert all(counts == ones for counts in seen)
    assert all(np.array_equal(a, b) for a, b in zip(labels, expected))
