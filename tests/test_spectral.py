import itertools

import numpy as np
import pytest
import scipy.linalg

import scc.spectral
from scc.curvature import affinity_from_curvatures, curvature_matrix, pairwise_weights
from scc.dataio import SynthSpec, synth_affine_motion, synth_subspace_mixture
from scc.engine import SccConfig, sample_initial, scc_run, sigma_candidates
from scc.evaluation import misclassification_rate
from scc.geometry import Partition
from scc.spectral import _factored_embedding, _lloyd, kmeans, spectral_cluster, spectral_cluster_factored

from oracles import factored_embedding_eigh, kmeans_sequential, labeling_cost


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
    dense = spectral_cluster(pairwise_weights(aff), 1, seed=3)
    [factored] = spectral_cluster_factored([aff], 1, [3])
    for part in (dense, factored):
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
    sigma_sq = sigma_candidates(curv, member, 1, 2)[1]
    aff = affinity_from_curvatures(curv, member, sigma_sq)
    for seed in range(20):
        [part] = spectral_cluster_factored([aff.copy()], 2, [seed], data=data, subspace_dim=1)
        assert misclassification_rate(part, truth) == 0.0


def test_spectral_rejects_bad_input():
    w = np.array([[1.0, 0.5], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        spectral_cluster(w, 1, seed=0)
    with pytest.raises(ValueError):
        spectral_cluster(np.eye(3), 4, seed=0)


def test_spectral_deterministic():
    rng = np.random.default_rng(5)
    aff = rng.random((15, 6))
    w = pairwise_weights(aff)
    a = spectral_cluster(w, 3, seed=11)
    b = spectral_cluster(w, 3, seed=11)
    assert np.array_equal(a.labels, b.labels)
    [c] = spectral_cluster_factored([aff.copy()], 3, [11])
    aff.flags.writeable = False  # a read-only factor is copied, not overwritten
    [d] = spectral_cluster_factored([aff], 3, [11])
    assert np.array_equal(c.labels, d.labels)


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
    # the factored path: block indicators plus a 0.1 column give the same
    # blocks and background, with 1.01 on the diagonal
    aff = np.hstack([np.eye(3)[labels], np.full((sum(sizes), 1), 0.1)])
    [base] = spectral_cluster_factored([aff.copy()], 3, [2])
    [permuted] = spectral_cluster_factored([aff[perm]], 3, [2])
    assert misclassification_rate(
        Partition(permuted.labels, 3), Partition(base.labels[perm], 3)
    ) == 0.0


def test_spectral_invariant_under_scaling():
    rng = np.random.default_rng(9)
    aff = rng.random((20, 8))
    w = pairwise_weights(aff)
    base = spectral_cluster(w, 2, seed=4)
    scaled = spectral_cluster(7.3 * w, 2, seed=4)
    assert np.array_equal(base.labels, scaled.labels)
    [base] = spectral_cluster_factored([aff.copy()], 2, [4])
    [scaled] = spectral_cluster_factored([7.3 * aff], 2, [4])
    assert np.array_equal(base.labels, scaled.labels)


def test_zero_degree_points_attach_to_nearest_subspace():
    data, truth = _parallel_lines(seed=1, n_per_line=10)
    aff = np.zeros((20, 5))
    aff[:8, :] = 1.0  # line-one points minus two
    aff[10:, :] = 0.5  # all of line two
    aff[10:, :3] = 0.0
    w = pairwise_weights(aff)
    assert (w.sum(axis=1)[8:10] == 0.0).all()
    # k-means alone puts their zero embedding rows with line two on seed 3
    for seed in range(5):
        [part] = spectral_cluster_factored([aff.copy()], 2, [seed], data=data, subspace_dim=1)
        # points 8 and 9 have no affinity at all but sit on line one
        assert part.labels[8] == part.labels[0]
        assert part.labels[9] == part.labels[0]


def test_cluster_of_only_zero_degree_points_fits_its_own_members():
    data, truth = _parallel_lines(seed=1, n_per_line=10)
    aff = np.zeros((20, 5))
    aff[:10, :] = 1.0  # line one; no point of line two has any affinity
    for seed in range(5):
        [plain] = spectral_cluster_factored([aff.copy()], 2, [seed])
        # k-means puts the zero rows of line two in a cluster of their own
        assert misclassification_rate(plain, truth) == 0.0
        # that cluster has no positive-degree member, so its subspace is fitted
        # to its zero-degree points, and they stay there
        [part] = spectral_cluster_factored([aff.copy()], 2, [seed], data=data, subspace_dim=1)
        assert misclassification_rate(part, truth) == 0.0


def test_empty_cluster_takes_no_zero_degree_point():
    data, truth = _parallel_lines(seed=1, n_per_line=10)
    zero_degree = np.zeros(20, dtype=bool)
    zero_degree[[8, 9, 18, 19]] = True
    labels = truth.labels.copy()
    labels[zero_degree] = 0  # where k-means could leave zero embedding rows
    # cluster 2 has no member at all: it gets no fit and no point
    attached = scc.spectral._attach_isolated(labels, zero_degree, data, 1, 3)
    assert np.array_equal(attached, truth.labels)


def test_factored_reattachment_needs_data_and_subspace_dim_together():
    data, _ = _parallel_lines(seed=1, n_per_line=10)
    aff = np.ones((20, 5))
    with pytest.raises(ValueError, match="both or neither"):
        spectral_cluster_factored([aff], 2, [0], data=data)
    with pytest.raises(ValueError, match="both or neither"):
        spectral_cluster_factored([aff], 2, [0], subspace_dim=1)


def test_factored_raises_for_a_factor_without_a_seed_before_reading_it():
    # factors are overwritten as they are embedded: a call that is going to
    # fail must do so before it has consumed a factor it cannot cluster
    rng = np.random.default_rng(33)
    a, b = rng.random((20, 6)), rng.random((20, 6))
    before = b.copy()
    with pytest.raises(ValueError, match="one seed per affinity"):
        spectral_cluster_factored([a, b], 2, [0])
    assert np.array_equal(b, before)


def test_factored_matches_dense():
    rng = np.random.default_rng(12)
    # N > c solves on the c side, N <= c on the N side
    for shape in ((40, 10), (10, 40), (25, 25)):
        aff = rng.random(shape)
        dense = spectral_cluster(pairwise_weights(aff), 3, seed=8)
        [factored] = spectral_cluster_factored([aff], 3, [8])
        assert misclassification_rate(factored, dense) == 0.0
    # several affinities in one call: each gets the partition a call of its own gives
    affs = [rng.random((30, 12)) for _ in range(3)]
    together = spectral_cluster_factored(iter([aff.copy() for aff in affs]), 3, [1, 2, 3])
    assert len(together) == 3
    for aff, seed, part in zip(affs, [1, 2, 3], together):
        assert np.array_equal(part.labels, spectral_cluster_factored([aff], 3, [seed])[0].labels)
    # rank(B) < K on either side (two nonzero columns), and K > c
    degenerate = (
        np.hstack([rng.random((30, 2)), np.zeros((30, 6))]),
        np.hstack([rng.random((6, 2)), np.zeros((6, 8))]),
        rng.random((30, 2)),
    )
    for aff in degenerate:
        vecs, zero_degree = _factored_embedding(aff.copy(), 3)
        assert vecs.shape == (aff.shape[0], 3) and not zero_degree.any()
        assert np.isfinite(vecs).all()
        assert not vecs[:, 0].any()  # the direction B does not span embeds as zeros
        [first] = spectral_cluster_factored([aff.copy()], 3, [8])
        [again] = spectral_cluster_factored(iter([aff]), 3, [8])
        assert first.n_clusters == 3 and np.array_equal(first.labels, again.labels)


def _assert_embeds_like_eigh(aff, k):
    """The solver's embedding spans the eigh oracle's, with zero columns in the same places.

    The solver gets a copy of ``aff``, which it overwrites, so the oracle
    and the caller still read the original.
    """
    got, _ = _factored_embedding(aff.copy(), k)
    want = factored_embedding_eigh(aff, k)
    spanned = want.any(axis=0)
    assert np.array_equal(got.any(axis=0), spanned)
    if spanned.any():
        # cos^2 of the largest principal angle between the two column spaces
        q_got, q_want = np.linalg.qr(got[:, spanned])[0], np.linalg.qr(want[:, spanned])[0]
        agreement = np.linalg.svd(q_got.T @ q_want, compute_uv=False).min() ** 2
        assert agreement >= 1.0 - 1e-10, (aff.shape, k, agreement)
    return got


def _block_affinity(rng, n_per_block, c_per_block):
    """Each block of points has affinity only to its own block of subsets."""
    blocks = [rng.uniform(0.1, 1.0, (n_per_block, c_per_block)) for _ in range(3)]
    return scipy.linalg.block_diag(*blocks)


def _ring_affinity():
    """Three blocks of points, each tied only to its own ring of subsets.

    Point i of a block of n points and c subsets has affinity 1 to subset
    i c // n and 0.5 to the next one around the ring, so each block is one
    connected component whose spectrum falls off slowly below 1.
    """
    blocks = []
    for n, c in ((90, 40), (93, 42), (96, 44)):
        block = np.zeros((n, c))
        j = np.arange(n) * c // n
        block[np.arange(n), j] = 1.0
        block[np.arange(n), (j + 1) % c] = 0.5
        blocks.append(block)
    return scipy.linalg.block_diag(*blocks)


def test_solver_recovers_a_repeated_top_eigenvalue():
    # three components: eigenvalue 1 three times, so the two top directions
    # beside the deflated one share one eigenvalue, which a single Krylov
    # vector would see only once
    aff = _ring_affinity()
    for side in (aff, aff.T.copy()):  # the c side, then the N side
        _assert_embeds_like_eigh(side, 3)
    rng = np.random.default_rng(30)
    for n_per_block, c_per_block in ((15, 20), (30, 10)):
        _assert_embeds_like_eigh(_block_affinity(rng, n_per_block, c_per_block), 3)


def _sweep_affinities(n, c, seed):
    """Every bandwidth candidate's affinity of one sweep over a noisy 3-flat mixture."""
    data, _ = synth_subspace_mixture(
        SynthSpec(n_clusters=3, points_per_cluster=n // 3, subspace_dim=2, ambient_dim=6, noise_sigma=0.03, seed=seed)
    )
    sets = sample_initial(data.shape[1], 2, c, np.random.default_rng(seed))
    curv, member = curvature_matrix(data, sets)
    return [affinity_from_curvatures(curv, member, s) for s in sigma_candidates(curv, member, 2, 3) if s > 0.0]


@pytest.mark.parametrize("n, c", [(60, 150), (400, 200), (360, 300)])
def test_solver_matches_eigh_on_noisy_affinities(n, c):
    # small sides of 60 (B B^T), 200 and 300 (B^T B), the sizes of perfbench's
    # protocol, of the scaling gate and of motion
    for aff in _sweep_affinities(n, c, seed=n):
        for k in (2, 3):
            _assert_embeds_like_eigh(aff, k)


def _rows_to_kmeans(monkeypatch, solve):
    """The row matrices ``solve()`` hands to k-means, one per embedding."""
    seen = []
    batched = scc.spectral.kmeans

    def recording(rows, n_clusters, seeds):
        seen.extend(group.copy() for group in rows)
        return batched(rows, n_clusters, seeds)

    with monkeypatch.context() as patch:
        patch.setattr(scc.spectral, "kmeans", recording)
        solve()
    return seen


def _zero_degree_affinities(rng):
    """Two sweep affinities (the N side) and a block affinity (the c side), with points 3, 17 and 30 cut off."""
    affs = _sweep_affinities(60, 150, seed=5)[:2] + [_block_affinity(rng, 12, 5)]
    for aff in affs:
        aff[[3, 17, 30]] = 0.0
    return affs


def test_solver_with_zero_degree_rows_and_more_clusters_than_subsets(monkeypatch):
    rng = np.random.default_rng(31)
    for aff in _zero_degree_affinities(rng):
        _assert_embeds_like_eigh(aff, 3)
        [rows] = _rows_to_kmeans(monkeypatch, lambda: spectral_cluster_factored([aff], 3, [0]))
        assert not rows[[3, 17, 30]].any()
    # K > c: the top eigenvector plus one more direction, then a zero column
    embedding = _assert_embeds_like_eigh(rng.random((30, 2)), 3)
    assert not embedding[:, 0].any() and embedding[:, 1:].all()
    # rank(B) = 2 < K = 4 on either side: two unspanned directions
    for aff in (np.hstack([rng.random((30, 2)), np.zeros((30, 6))]), np.hstack([rng.random((6, 2)), np.zeros((6, 8))])):
        embedding = _assert_embeds_like_eigh(aff, 4)
        assert not embedding[:, :2].any() and embedding[:, 2:].any(axis=0).all()
    # no affinity at all: nothing is spanned
    embedding, zero_degree = _factored_embedding(np.zeros((8, 5)), 2)
    assert not embedding.any() and zero_degree.all()


def test_dense_solver_gives_zero_degree_points_zero_rows(monkeypatch):
    # eigh leaves round-off in those rows, which row normalization would make unit rows
    for aff in _zero_degree_affinities(np.random.default_rng(31)):
        [rows] = _rows_to_kmeans(monkeypatch, lambda: spectral_cluster(pairwise_weights(aff), 3, 0))
        assert not rows[[3, 17, 30]].any()


def test_solver_repeats_itself_byte_for_byte():
    for aff in _sweep_affinities(400, 200, seed=7)[:2] + [_block_affinity(np.random.default_rng(32), 15, 20)]:
        first, _ = _factored_embedding(aff.copy(), 3)
        again, _ = _factored_embedding(aff.copy(), 3)
        assert first.tobytes() == again.tobytes()


def test_kmeans_every_point_its_own_cluster():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((6, 2))
    [part] = kmeans(rows[None], 6, [0])
    assert sorted(part.labels.tolist()) == list(range(6))
    assert labeling_cost(rows, part.labels, 6) == 0.0


def test_kmeans_two_point_masses():
    rows = np.vstack([np.zeros((5, 2)), np.ones((4, 2))])
    [part] = kmeans(rows[None], 2, [1])
    assert len(set(part.labels[:5])) == 1
    assert len(set(part.labels[5:])) == 1
    assert part.labels[0] != part.labels[5]
    assert labeling_cost(rows, part.labels, 2) == 0.0


def test_kmeans_beats_random_labelings():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((50, 2))
    [part] = kmeans(rows[None], 3, [5])
    cost = labeling_cost(rows, part.labels, 3)
    for _ in range(100):
        random_cost = labeling_cost(rows, rng.integers(0, 3, 50), 3)
        assert cost <= random_cost + 1e-12


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((30, 3))
    [a] = kmeans(rows[None], 4, [9])
    [b] = kmeans(rows[None], 4, [9])
    assert np.array_equal(a.labels, b.labels)


def test_lloyd_cost_is_the_wcss_of_its_labels():
    rng = np.random.default_rng(3)
    spread = rng.standard_normal((40, 3))
    two_values = np.repeat([[0.25, -1.5], [1.0, 0.75]], [6, 5], axis=0)
    # starting centers (A, B, A) leave center 2 with no rows, so the repair runs
    cases = [(spread, spread[None, :4]), (two_values, two_values[None, [0, 6, 0]])]
    noisy = two_values + 1e-3 * rng.standard_normal(two_values.shape)
    cases.append((noisy, noisy[None, [0, 6, 0]]))
    # restarts that converge after different numbers of iterations, in one batch
    cases.append((spread, spread[[[0, 1, 2], [5, 5, 9], [39, 20, 1]]]))
    # one iteration stops before convergence, 100 runs to it
    for (rows, centers), max_iter in itertools.product(cases, (1, 100)):
        n_restarts, k = centers.shape[:2]
        labels, costs = _lloyd(rows[None], np.einsum("ij,ij->i", rows, rows)[None], centers[None].copy(), max_iter)
        labels, costs = labels[0], costs[0]
        assert labels.shape == (n_restarts, rows.shape[0]) and costs.shape == (n_restarts,)
        for restart_labels, cost in zip(labels, costs):
            assert np.bincount(restart_labels, minlength=k).min() >= 1
            assert cost == pytest.approx(labeling_cost(rows, restart_labels, k), rel=1e-12)


def test_lloyd_stops_once_no_label_moves(monkeypatch):
    calls = []
    distances = scc.spectral._sq_distances

    def counting(*args):
        calls.append(args)
        return distances(*args)

    monkeypatch.setattr(scc.spectral, "_sq_distances", counting)
    rng = np.random.default_rng(4)
    means = np.array([[5.0, 0.0], [0.0, 5.0], [-5.0, -5.0]])
    stack = np.stack([means[np.arange(30) % 3] + 0.1 * rng.standard_normal((30, 2)) for _ in range(2)])
    # row i lies in blob i % 3, so every restart starts from one row of each
    # blob, in its own order: the first iteration labels the blobs, the
    # second repeats the labels
    starts = [[0, 1, 2], [2, 1, 0], [1, 2, 0]]
    centers = np.stack([group[starts] for group in stack])
    labels, _ = _lloyd(stack, np.einsum("gij,gij->gi", stack, stack), centers, scc.spectral.KMEANS_MAX_ITER)
    assert len(calls) == 2 < scc.spectral.KMEANS_MAX_ITER
    for group_labels in labels:
        for restart_labels, start in zip(group_labels, starts):
            assert restart_labels.tolist() == [start.index(i % 3) for i in range(30)]


def _assert_matches_sequential(rows, k, seed):
    got = kmeans(rows[None], k, [seed])[0].labels
    want = kmeans_sequential(rows, k, seed)
    assert np.array_equal(got, want), (rows.shape, k, seed)
    return got


def test_kmeans_matches_sequential_oracle_on_random_rows():
    cases = 0
    for k in (1, 2, 3, 5):
        for trial in range(14):
            rng = np.random.default_rng(1000 * k + trial)
            n = int(rng.integers(k, 60))
            dim = int(rng.integers(1, 5))
            rows = rng.standard_normal((n, dim))
            if trial % 2:  # clustered rows, as a spectral embedding gives
                rows = rng.standard_normal((k, dim))[rng.integers(0, k, n)] + 0.05 * rows
            _assert_matches_sequential(rows, k, seed=trial)
            cases += 1
    assert cases >= 50


def test_kmeans_matches_sequential_oracle_under_a_short_iteration_budget(monkeypatch):
    # restarts still moving when the budget runs out keep their last labels
    for max_iter in (1, 2, 3):
        monkeypatch.setattr(scc.spectral, "KMEANS_MAX_ITER", max_iter)
        for trial in range(4):
            rows = np.random.default_rng(50 + trial).standard_normal((80, 2))
            got = kmeans(rows[None], 5, [trial])[0].labels
            assert np.array_equal(got, kmeans_sequential(rows, 5, trial, max_iter=max_iter))


def test_kmeans_matches_sequential_oracle_with_one_row_per_cluster():
    rng = np.random.default_rng(8)
    for k in (1, 2, 3, 5):
        rows = rng.standard_normal((k, 3))
        labels = _assert_matches_sequential(rows, k, seed=k)
        assert sorted(labels.tolist()) == list(range(k))


def test_kmeans_matches_sequential_oracle_when_repair_runs():
    # fewer distinct rows than clusters: a chosen center repeats, argmin ties
    # leave a cluster empty, and the farthest-row repair fills it
    for values, k in (([[0.25, -1.5], [1.0, 0.75]], 3), ([[0.5, 0.0], [0.0, 2.0], [-1.0, 1.0]], 5)):
        for seed in range(6):
            rows = np.repeat(values, 4, axis=0)
            labels = _assert_matches_sequential(rows, k, seed)
            assert np.bincount(labels, minlength=k).min() >= 1


def test_kmeans_matches_sequential_oracle_on_scc_embeddings(monkeypatch):
    calls = []
    batched = scc.spectral.kmeans

    def recording(rows, n_clusters, seeds):
        assert rows.ndim == 3 and len(seeds) == rows.shape[0]  # one stacked call per sweep
        calls.extend((group.copy(), n_clusters, seed) for group, seed in zip(rows, seeds))
        return batched(rows, n_clusters, seeds)

    monkeypatch.setattr(scc.spectral, "kmeans", recording)
    for k in (2, 3):
        record = synth_affine_motion(SynthSpec(n_clusters=k, points_per_cluster=20, n_frames=8,
                                               noise_sigma=0.002, seed=k))
        config = SccConfig(subspace_dim=3, n_clusters=k, seed=1, projection="4K", max_iterations=2)
        scc_run(record.trajectories, config)
    assert len(calls) >= 10
    for rows, n_clusters, seed in calls:
        assert np.allclose(np.linalg.norm(rows, axis=1)[rows.any(axis=1)], 1.0)
        _assert_matches_sequential(rows, n_clusters, seed)


def test_kmeans_stack_matches_separate_calls_and_the_sequential_oracle(monkeypatch):
    rng = np.random.default_rng(21)
    n = 40
    spread = rng.standard_normal((n, 2))
    blobs = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]])[np.arange(n) % 3]
    blobs = blobs + 0.01 * rng.standard_normal((n, 2))
    # two distinct values for three clusters: the empty-cluster repair runs
    repair = np.repeat([[0.25, -1.5], [1.0, 0.75]], n // 2, axis=0)
    stack = np.stack([spread, blobs, repair, np.zeros((n, 2))])
    seed = 5
    # the spread group is still moving after three iterations, when the
    # others have reached their final labels: it stops steps after them
    for budget in range(1, 4):
        assert not np.array_equal(kmeans_sequential(spread, 3, seed, max_iter=budget), kmeans_sequential(spread, 3, seed))
        for group in stack[1:]:
            assert np.array_equal(kmeans_sequential(group, 3, seed, max_iter=budget), kmeans_sequential(group, 3, seed))
    for budget in (2, 4, scc.spectral.KMEANS_MAX_ITER):
        monkeypatch.setattr(scc.spectral, "KMEANS_MAX_ITER", budget)
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 0]):
            parts = kmeans(stack[order], 3, [seed] * len(order))
            assert len(parts) == len(order)
            for g, part in zip(order, parts):
                assert np.array_equal(part.labels, kmeans(stack[g][None], 3, [seed])[0].labels)
                assert np.array_equal(part.labels, kmeans_sequential(stack[g], 3, seed, max_iter=budget))
    monkeypatch.undo()
    # each group draws from its own seed
    parts = kmeans(np.stack([spread, spread, spread]), 3, [0, 1, 2])
    for seed, part in enumerate(parts):
        assert np.array_equal(part.labels, kmeans_sequential(spread, 3, seed))
    assert kmeans(np.zeros((4, 10, 3)), 3, range(4))[3].labels.tolist() == [1, 2] + [0] * 8


def test_kmeans_all_zero_rows_have_a_defined_partition():
    # every distance ties at zero: all rows go to cluster 0, then each empty
    # cluster in turn takes the lowest-index row still at distance zero
    rows = np.zeros((10, 3))
    for seed in range(3):
        labels = _assert_matches_sequential(rows, 3, seed)
        assert labels.tolist() == [1, 2] + [0] * 8


def test_kmeans_validation():
    with pytest.raises(ValueError):
        kmeans(np.zeros((1, 3, 2)), 4, [0])
    with pytest.raises(ValueError):
        kmeans(np.zeros((1, 3, 2)), 0, [0])
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 2, [0])  # a bare (N, dim) matrix is not a stack
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 3, 2)), 2, [0])  # one seed per group
    with pytest.raises(ValueError):
        kmeans(np.zeros((0, 3, 2)), 2, [])
