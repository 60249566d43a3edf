import itertools

import numpy as np
import pytest

from scc.curvature import affinity_from_curvatures, curvature_matrix, pairwise_weights
from scc.engine import sample_initial, sigma_candidates
from scc.evaluation import misclassification_rate
from scc.geometry import Partition
from scc.spectral import _factored_embedding, _lloyd, kmeans, spectral_cluster, spectral_cluster_factored

from oracles import labeling_cost


def _block_weights(sizes):
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        w[start : start + size, start : start + size] = 1.0
        start += size
    return w


def _block_labels(sizes):
    return np.repeat(np.arange(len(sizes)), sizes)


def test_block_diagonal_recovery_is_exact():
    for sizes in ([12, 7], [9, 6, 11]):
        w = _block_weights(sizes)
        truth = Partition(_block_labels(sizes), len(sizes))
        for seed in range(20):
            part = spectral_cluster(w, len(sizes), seed)
            assert misclassification_rate(part, truth) == 0.0


def test_single_cluster():
    rng = np.random.default_rng(0)
    aff = rng.random((9, 4))
    part = spectral_cluster(pairwise_weights(aff), 1, seed=3)
    assert part.n_clusters == 1
    assert (part.labels == 0).all()


def _parallel_lines(seed, n_per_line=20, gap=0.2, noise=0.02):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0, 2 * n_per_line)
    y = np.where(np.arange(2 * n_per_line) < n_per_line, 0.0, gap)
    y = y + rng.normal(0.0, noise, 2 * n_per_line)
    data = np.vstack([x, y])
    labels = Partition((np.arange(2 * n_per_line) >= n_per_line).astype(int), 2)
    return data, labels


def test_two_parallel_lines_recovered_over_seeds():
    data, truth = _parallel_lines(seed=42)
    sets = sample_initial(data.shape[1], 1, 80, np.random.default_rng(7))
    curv, member = curvature_matrix(data, sets)
    sigma_sq = sigma_candidates(curv[~member], data.shape[1], 1, 80, 2)[1]
    w = pairwise_weights(affinity_from_curvatures(curv, member, sigma_sq))
    for seed in range(20):
        part = spectral_cluster(w, 2, seed, data=data, subspace_dim=1)
        assert misclassification_rate(part, truth) == 0.0


def test_spectral_rejects_bad_input():
    w = np.array([[1.0, 0.5], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        spectral_cluster(w, 1, seed=0)
    with pytest.raises(ValueError):
        spectral_cluster(np.eye(3), 4, seed=0)


def test_spectral_deterministic():
    rng = np.random.default_rng(5)
    w = pairwise_weights(rng.random((15, 6)))
    a = spectral_cluster(w, 3, seed=11)
    b = spectral_cluster(w, 3, seed=11)
    assert np.array_equal(a.labels, b.labels)


def test_spectral_invariant_under_point_permutation():
    sizes = [10, 8, 9]
    w = _block_weights(sizes) + 0.01  # small uniform background keeps degrees positive
    np.fill_diagonal(w, 1.0)
    labels = _block_labels(sizes)
    rng = np.random.default_rng(3)
    perm = rng.permutation(sum(sizes))
    base = spectral_cluster(w, 3, seed=2)
    permuted = spectral_cluster(w[np.ix_(perm, perm)], 3, seed=2)
    assert misclassification_rate(
        Partition(permuted.labels, 3), Partition(base.labels[perm], 3)
    ) == 0.0


def test_spectral_invariant_under_scaling():
    rng = np.random.default_rng(9)
    w = pairwise_weights(rng.random((20, 8)))
    base = spectral_cluster(w, 2, seed=4)
    scaled = spectral_cluster(7.3 * w, 2, seed=4)
    assert np.array_equal(base.labels, scaled.labels)


def test_zero_degree_points_attach_to_nearest_subspace():
    data, truth = _parallel_lines(seed=1, n_per_line=10)
    aff = np.zeros((20, 5))
    aff[:8, :] = 1.0  # line-one points minus two
    aff[10:, :] = 0.5  # all of line two
    aff[10:, :3] = 0.0
    w = pairwise_weights(aff)
    assert (w.sum(axis=1)[8:10] == 0.0).all()
    part = spectral_cluster(w, 2, seed=0, data=data, subspace_dim=1)
    # points 8 and 9 have no affinity at all but sit on line one
    assert part.labels[8] == part.labels[0]
    assert part.labels[9] == part.labels[0]


def test_factored_matches_dense():
    rng = np.random.default_rng(12)
    # N > c solves on the c side, N <= c on the N side
    for shape in ((40, 10), (10, 40), (25, 25)):
        aff = rng.random(shape)
        dense = spectral_cluster(pairwise_weights(aff), 3, seed=8)
        factored = spectral_cluster_factored(aff, 3, seed=8)
        assert misclassification_rate(factored, dense) == 0.0
    # rank(B) < K on either side (two nonzero columns), and K > c
    degenerate = (
        np.hstack([rng.random((30, 2)), np.zeros((30, 6))]),
        np.hstack([rng.random((6, 2)), np.zeros((6, 8))]),
        rng.random((30, 2)),
    )
    for aff in degenerate:
        vecs, zero_degree = _factored_embedding(aff, 3)
        assert vecs.shape == (aff.shape[0], 3) and not zero_degree.any()
        assert np.isfinite(vecs).all()
        assert not vecs[:, 0].any()  # the direction B does not span embeds as zeros
        first = spectral_cluster_factored(aff, 3, seed=8)
        again = spectral_cluster_factored(aff, 3, seed=8)
        assert first.n_clusters == 3 and np.array_equal(first.labels, again.labels)


def test_kmeans_every_point_its_own_cluster():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((6, 2))
    part = kmeans(rows, 6, seed=0)
    assert sorted(part.labels.tolist()) == list(range(6))
    assert labeling_cost(rows, part.labels, 6) == 0.0


def test_kmeans_two_point_masses():
    rows = np.vstack([np.zeros((5, 2)), np.ones((4, 2))])
    part = kmeans(rows, 2, seed=1)
    assert len(set(part.labels[:5])) == 1
    assert len(set(part.labels[5:])) == 1
    assert part.labels[0] != part.labels[5]
    assert labeling_cost(rows, part.labels, 2) == 0.0


def test_kmeans_beats_random_labelings():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((50, 2))
    part = kmeans(rows, 3, seed=5)
    cost = labeling_cost(rows, part.labels, 3)
    for _ in range(100):
        random_cost = labeling_cost(rows, rng.integers(0, 3, 50), 3)
        assert cost <= random_cost + 1e-12


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((30, 3))
    a = kmeans(rows, 4, seed=9)
    b = kmeans(rows, 4, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_lloyd_cost_is_the_wcss_of_its_labels():
    rng = np.random.default_rng(3)
    spread = rng.standard_normal((40, 3))
    two_values = np.repeat([[0.25, -1.5], [1.0, 0.75]], [6, 5], axis=0)
    # starting centers (A, B, A) leave center 2 with no rows, so the repair runs
    cases = [(spread, spread[:4]), (two_values, two_values[[0, 6, 0]])]
    noisy = two_values + 1e-3 * rng.standard_normal(two_values.shape)
    cases.append((noisy, noisy[[0, 6, 0]]))
    # one iteration stops before convergence, 100 runs to it
    for (rows, centers), max_iter in itertools.product(cases, (1, 100)):
        k = len(centers)
        labels, cost = _lloyd(rows, np.einsum("ij,ij->i", rows, rows), centers.copy(), max_iter)
        assert np.bincount(labels, minlength=k).min() >= 1
        assert cost == pytest.approx(labeling_cost(rows, labels, k), rel=1e-12)


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4, seed=0)
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 0, seed=0)
