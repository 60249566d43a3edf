"""Spectral clustering of pairwise weights: normalized embedding plus k-means.

Implements the symmetric-normalization variant: rows are embedded with the
top-K eigenvectors of Deg^{-1/2} W Deg^{-1/2}, row-normalized, and clustered
by k-means. For W = A A^T given by its (N, c) affinity factor A, the
embedding comes from the smaller side of B = Deg^{-1/2} A (the left singular
vectors of B, all products in numpy), so the N x N matrix is never formed.
That side's top eigenvalue is 1 with a known eigenvector, which is deflated
exactly; the other K - 1 eigenpairs come from a block Lanczos solver with
full reorthogonalization and a deterministic start, run until their
residuals are below 1e-8 (the dense ``eigh`` it replaced is its reference
in ``tests/oracles.py``). The factored path takes several
affinities (the bandwidth candidates of one sweep), embeds them one at a
time and clusters all their embeddings in one k-means call.
K-means takes a stack of embeddings, each with its own seed and generator,
which draws the k-means++ start of every restart in turn. All restarts of
all embeddings then run their Lloyd iterations as one batch, which
updates every restart's centers each iteration and stops once no label
moves. Each restart gets the labels a run of its own would (the same
per-embedding products and row-order sums), and per embedding the restart
of least cost wins (the earlier on a tie).
Points with zero degree (all-zero weight rows) get a zero embedding row;
on the factored path, when the original data and the subspace dimension
are supplied, they are re-attached afterwards to the cluster whose fitted
subspace is nearest. The dense solver for an explicit weight matrix is the
reference the factored path is tested against.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from . import seeding
from .geometry import Partition, as_data_matrix, fit_affine_ols, subspace_sq_distances

__all__ = ["kmeans", "spectral_cluster", "spectral_cluster_factored"]

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100


def _sq_distances(rows: np.ndarray, row_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (groups, n, m) of each group's rows to its own centers.

    ``rows`` is (groups, n, dim) and ``centers`` (groups, m, dim); matmul runs
    one (n, dim) x (dim, m) product per group.
    """
    d2 = 2.0 * rows @ centers.swapaxes(1, 2)
    np.subtract(row_norms[:, :, None], d2, out=d2)
    d2 += np.einsum("gij,gij->gi", centers, centers)[:, None, :]
    return np.maximum(d2, 0.0, out=d2)


def _plus_plus_init(
    rows: np.ndarray, row_norms: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> np.ndarray:
    """D^2-weighted starting centers of every restart, shape (groups, restarts, k, dim).

    Group g draws from ``rngs[g]``: each restart its first row index and
    then k - 1 uniforms, in restart order. Every further center is the
    inverse CDF of D^2 at that uniform; when D^2 sums to zero (every row
    equals a chosen center) the uniform picks a row directly.
    """
    n_groups, n, dim = rows.shape
    first = np.empty((n_groups, KMEANS_RESTARTS), dtype=np.intp)
    uniforms = np.empty((n_groups, KMEANS_RESTARTS, k - 1))
    for g, rng in enumerate(rngs):
        for r in range(KMEANS_RESTARTS):
            first[g, r] = rng.integers(n)
            uniforms[g, r] = rng.random(k - 1)
    group = np.arange(n_groups)[:, None]
    centers = np.empty((n_groups, KMEANS_RESTARTS, k, dim))
    centers[:, :, 0] = rows[group, first]
    d2 = _sq_distances(rows, row_norms, centers[:, :, 0])  # (groups, n, restarts)
    for j in range(1, k):
        cumulative = np.cumsum(d2, axis=1)
        u = uniforms[:, :, j - 1]
        # the count of cumulative D^2 values <= u * total, as searchsorted(side="right")
        # gives it: a zero-weight row is never picked
        idx = (cumulative <= (u * cumulative[:, -1])[:, None, :]).sum(axis=1)
        zero_total = ~(cumulative[:, -1] > 0.0)
        if zero_total.any():
            idx[zero_total] = np.minimum(np.floor(u[zero_total] * n).astype(np.intp), n - 1)
        centers[:, :, j] = rows[group, idx]
        d2 = np.minimum(d2, _sq_distances(rows, row_norms, centers[:, :, j]))
    return centers


def _lloyd(
    rows: np.ndarray, row_norms: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of every restart of every group at once.

    ``rows`` is (groups, n, dim) and ``centers`` (groups, restarts, k, dim).
    Returns the (groups, restarts, n) labels and the WCSS of each restart's
    labels, (groups, restarts). Every restart updates its centers each
    iteration, and the batch stops once no label moves or after
    ``max_iter`` iterations. A restart whose labels repeat recomputes the
    same centers (the same row-order sums; a repaired cluster holds just the
    row it took), so it keeps the labels it would stop at alone.
    """
    n_groups, n, dim = rows.shape
    n_restarts, k = centers.shape[1:3]
    runs = n_groups * n_restarts
    # restart r of group g owns the clusters (g * restarts + r) * k .. + k - 1
    bins = k * np.arange(runs).reshape(n_groups, 1, n_restarts)
    columns = np.repeat(rows, n_restarts, axis=1).reshape(-1, dim).T.copy()  # (dim, groups * n * restarts)
    labels = np.full((n_groups, n, n_restarts), -1)
    for _ in range(max_iter):
        d2 = _sq_distances(rows, row_norms, centers.reshape(n_groups, n_restarts * k, dim))
        d2 = d2.reshape(n_groups, n, n_restarts, k)
        new = d2.argmin(axis=3)  # ties go to the lowest center index
        counts = np.bincount((new + bins).ravel(), minlength=runs * k).reshape(n_groups, n_restarts, k)
        if not counts.all():
            for g, r in np.argwhere((counts == 0).any(axis=2)):
                assigned = d2[g, np.arange(n), r, new[g, :, r]]
                for empty in np.flatnonzero(counts[g, r] == 0):
                    j = int(assigned.argmax())
                    centers[g, r, empty] = rows[g, j]
                    new[g, j, r] = empty
                    assigned[j] = -1.0
                counts[g, r] = np.bincount(new[g, :, r], minlength=k)
        if np.array_equal(new, labels):
            break
        labels = new
        # bincount adds in row order, as np.add.at does, so each sum has the
        # bits of a sequential per-restart accumulation
        binned = (labels + bins).ravel()
        sums = [np.bincount(binned, weights=col, minlength=runs * k) for col in columns]
        np.divide(np.stack(sums, axis=1).reshape(centers.shape), counts[..., None], out=centers)
    del d2  # the batch's largest array: the costs below do not need it
    labels = labels.transpose(0, 2, 1)
    # centers are the means of the final labels
    offsets = centers.reshape(-1, dim)[labels + bins.transpose(0, 2, 1)]
    np.subtract(rows[:, None], offsets, out=offsets)
    costs = [[np.einsum("ij,ij->", off, off) for off in group] for group in offsets]
    return labels, np.array(costs)


def kmeans(rows, n_clusters: int, seeds) -> list[Partition]:
    """Seeded k-means on the rows of each matrix of a (groups, N, dim) stack.

    ``seeds`` holds one seed per group, and the result is one Partition per
    group, each what a call on its group alone gives. One generator per
    group draws the D^2-weighted (k-means++) start of every restart in turn:
    a row index, then n_clusters - 1 uniforms. All restarts of all groups
    then run their Lloyd iterations together until no label moves (at most
    ``KMEANS_MAX_ITER``), and each ends with the labels it would reach
    alone (the sequential loop in ``tests/oracles.py`` is the reference).
    Per group, the labeling of smallest within-cluster sum of squares is
    kept, and on a tie the earlier restart wins. Deterministic for fixed
    inputs.
    """
    stack = np.asarray(rows, dtype=np.float64)
    seeds = list(seeds)
    if stack.ndim != 3 or stack.shape[0] < 1 or stack.shape[1] < 1:
        raise ValueError("rows must be a nonempty (groups, N, dim) stack of row matrices")
    if len(seeds) != stack.shape[0]:
        raise ValueError(f"{stack.shape[0]} row matrices need as many seeds, got {len(seeds)}")
    n = stack.shape[1]
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if n < n_clusters:
        raise ValueError(f"cannot split {n} rows into {n_clusters} clusters")

    row_norms = np.einsum("gij,gij->gi", stack, stack)
    rngs = [seeding.generator(s, 101) for s in seeds]
    centers = _plus_plus_init(stack, row_norms, n_clusters, rngs)
    labels, costs = _lloyd(stack, row_norms, centers, KMEANS_MAX_ITER)
    # argmin takes the first minimum, so a tie keeps the earlier restart
    return [Partition(group_labels[best], n_clusters) for group_labels, best in zip(labels, costs.argmin(axis=1))]


def _check_weights(weights) -> np.ndarray:
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weight matrix must be square")
    scale = max(1.0, float(np.abs(W).max()))
    if float(np.abs(W - W.T).max()) > 1e-8 * scale:
        raise ValueError("weight matrix is not symmetric within tolerance")
    return W


def _embeddings_to_labels(
    embeddings: list[tuple[np.ndarray, np.ndarray]],
    n_clusters: int,
    seeds,
    data=None,
    subspace_dim: int | None = None,
) -> list[Partition]:
    """One partition per (embedding, zero-degree mask), from one stacked k-means call."""
    rows = np.empty((len(embeddings),) + embeddings[0][0].shape)
    for stacked, (vecs, zero_degree) in zip(rows, embeddings):
        stacked[:] = vecs
        stacked[zero_degree] = 0.0  # a solver's round-off there would normalize to unit rows
        norms = np.linalg.norm(stacked, axis=1)
        positive = norms > 0.0
        stacked[positive] /= norms[positive, None]
    parts = kmeans(rows, n_clusters, seeds)
    if data is None:
        return parts
    for i, (part, (_, zero_degree)) in enumerate(zip(parts, embeddings)):
        if zero_degree.any():
            labels = _attach_isolated(part.labels.copy(), zero_degree, data, subspace_dim, n_clusters)
            parts[i] = Partition(labels, n_clusters)
    return parts


def _attach_isolated(labels, zero_degree, data, subspace_dim, n_clusters):
    """Move zero-degree points to the cluster whose fitted subspace is nearest."""
    X = as_data_matrix(data)
    isolated = np.flatnonzero(zero_degree)
    dists = np.full((isolated.size, n_clusters), np.inf)
    for k in range(n_clusters):
        members = np.flatnonzero((labels == k) & ~zero_degree)
        if members.size == 0:
            members = np.flatnonzero(labels == k)
        if members.size == 0:
            continue
        fit = fit_affine_ols(X[:, members], min(subspace_dim, members.size - 1))
        dists[:, k] = subspace_sq_distances(X[:, isolated], fit)
    labels[isolated] = dists.argmin(axis=1)
    return labels


def _inverse_sqrt_degree(deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    zero_degree = deg <= 0.0
    inv_sqrt = np.where(zero_degree, 0.0, 1.0 / np.sqrt(np.where(zero_degree, 1.0, deg)))
    return zero_degree, inv_sqrt


def spectral_cluster(weights, n_clusters: int, seed: int) -> Partition:
    """Partition points from a symmetric nonnegative weight matrix.

    Zero-degree points stay wherever k-means puts their zero embedding rows.
    """
    W = _check_weights(weights)
    n = W.shape[0]
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if n < n_clusters:
        raise ValueError(f"cannot split {n} points into {n_clusters} clusters")

    zero_degree, inv_sqrt = _inverse_sqrt_degree(W.sum(axis=1))
    # in Fortran order, which LAPACK reads without a transposed copy
    M = np.multiply(W * inv_sqrt[:, None], inv_sqrt[None, :], order="F")
    _, vecs = scipy.linalg.eigh(M, subset_by_index=(n - n_clusters, n - 1))
    return _embeddings_to_labels([(vecs, zero_degree)], n_clusters, [seed])[0]


# residual norm |G y - theta y| at which a Ritz pair of the small side G,
# whose top eigenvalue is 1, counts as converged. An eigenvector's error is
# at most the residual over its eigengap; on the tests' affinities the
# subspaces agree with a dense eigh to 2e-14 in cos^2, and no partition of
# perfbench's seeds 1-3 moved against 1e-10, which took 8-14% longer
_LANCZOS_TOL = 1e-8
# a new Krylov row shorter than this after reorthogonalization (|G| = 1)
# spans nothing new: the space so far is invariant
_BREAKDOWN = 64 * np.finfo(np.float64).eps
# the seeding tag of the solver's start block and fresh directions
_LANCZOS_STREAM = 103
# each Krylov step applies G this many times: the solver runs on G^4, whose
# top eigenvalues stand further apart from the spectrum's bulk near 0, so
# fewer steps (each with its fixed numpy overhead) reach the tolerance
_POWER = 4


@functools.lru_cache(maxsize=32)
def _start_block(count: int, m: int) -> np.ndarray:
    """The solver's deterministic start: ``count`` standard normal rows of length m (read-only).

    Cached, since building the generator costs about as much as a Lanczos
    step on a small side.
    """
    block = seeding.generator(_LANCZOS_STREAM).standard_normal((count, m))
    block.flags.writeable = False
    return block


def _fresh_row(rows: np.ndarray) -> np.ndarray:
    """A unit vector orthogonal to ``rows``, which span less than everything, keyed by their count."""
    rng = seeding.generator(_LANCZOS_STREAM, rows.shape[0])
    while True:
        row = rng.standard_normal(rows.shape[1])
        for _ in range(2):
            row -= (rows @ row) @ rows
        norm = math.sqrt(row @ row)
        if norm > _BREAKDOWN:
            return row / norm


def _lanczos(G: np.ndarray, known: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Top ``count`` eigenpairs of the symmetric PSD G on the complement of its unit eigenvector ``known``.

    ``known`` belongs to G's top eigenvalue, 1, and is deflated exactly: a
    block Lanczos of width ``count`` on G^``_POWER`` (the same eigenvectors,
    in the same order, since G is PSD) runs in its orthogonal complement
    from a deterministic start, and every new block is orthogonalized twice
    against all rows so far (full reorthogonalization). The block width
    lets a wanted eigenvalue repeat up to ``count`` times, as 1 does once
    for every connected component beyond the first. The Rayleigh-Ritz pairs
    of G on the basis are tested at growing intervals, and the run stops
    once every wanted pair's residual |G y - theta y| is at most
    ``_LANCZOS_TOL``, or when the basis holds all m rows of G's space,
    where the pairs are exact (the Krylov dimension is capped at m). A
    block row that the orthogonalization leaves at round-off level spans
    nothing new, and a fresh direction replaces it. Returns the eigenvalues
    in ascending order and the eigenvectors as columns.
    """
    m = G.shape[0]
    if count == 0:
        return np.empty(0), np.empty((m, 0))
    basis = np.empty((m, m))  # rows: known, then the Krylov blocks
    basis[0] = known
    images = np.empty((m, m))  # row i: G applied to basis row i
    start_block = _start_block(count, m)
    block = start_block - np.outer(start_block @ known, known)
    filled = 1
    due = 3 * count  # Krylov rows at the next convergence test
    last_test = None  # (Krylov rows, largest residual) at the previous test
    while True:
        # append the block's rows, orthonormal among themselves, as far as they fit
        start = filled
        for row in block[: m - filled]:
            if filled > start:
                for _ in range(2):
                    row -= (basis[start:filled] @ row) @ basis[start:filled]
            norm = math.sqrt(row @ row)
            if norm > _BREAKDOWN:
                np.divide(row, norm, out=basis[filled])
            else:
                basis[filled] = _fresh_row(basis[:filled])
            filled += 1
        rows = basis[:filled]
        block = np.matmul(basis[start:filled], G, out=images[start:filled])
        for _ in range(_POWER - 1):  # _POWER > 1, so images is never overwritten below
            block = block @ G
        block -= (block @ rows.T) @ rows
        block -= (block @ rows.T) @ rows
        k = filled - 1
        if filled < m and k < due:
            continue
        # the Rayleigh quotient of the Krylov rows (known is G's eigenvector, so
        # it is left out), in the column order LAPACK reads without a copy
        proj = images[1:filled] @ basis[1:filled].T
        vals, vecs, _, _, info = scipy.linalg.lapack.dsyevr(
            proj.T, compute_v=1, range="I", il=k - count + 1, iu=k, overwrite_a=1
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
        vals, vecs = vals[:count], vecs[:, :count]
        ritz = vecs.T @ basis[1:filled]
        if filled == m:
            break
        residual = vecs.T @ images[1:filled] - vals[:, None] * ritz
        worst = math.sqrt(np.einsum("ij,ij->i", residual, residual).max())
        if worst <= _LANCZOS_TOL:
            break
        step = k // 2
        if last_test is not None and worst < last_test[1]:
            # the rate between the last two tests predicts the rows still needed
            rate = math.log(worst / last_test[1]) / (k - last_test[0])
            step = min(k, math.ceil(math.log(_LANCZOS_TOL / worst) / rate))
        last_test = (k, worst)
        due = k + max(count, step)
    return vals, ritz.T


def _factored_embedding(A: np.ndarray, n_clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvectors of B B^T for B = Deg^{-1/2} A, solved on B's smaller side.

    Returns the (N, n_clusters) embedding, columns in ascending eigenvalue
    order, and the zero-degree mask. The small side is G = B^T B when
    N > c and B B^T otherwise, of size m = min(N, c). For nonnegative A its
    top eigenvalue is 1, with eigenvector D^{1/2} 1 on the N side and
    B^T D^{1/2} 1 = A^T 1 on the c side; the other top eigenpairs come from
    ``_lanczos``. With N > c, u = B v / sqrt(lambda) lifts an eigenvector
    to N rows. Each of the top n_clusters directions that B does not span
    (lambda at round-off level, or missing because n_clusters > c) gets a
    zero column, so rank-deficient affinities embed without NaN and
    reproducibly.
    """
    n, c = A.shape
    col_sums = A.sum(axis=0)
    deg = A @ col_sums
    zero_degree, inv_sqrt = _inverse_sqrt_degree(deg)
    B = A * inv_sqrt[:, None]
    small_side, top_vector = (B.T @ B, col_sums) if n > c else (B @ B.T, deg * inv_sqrt)
    m = small_side.shape[0]
    top = min(n_clusters, m)
    embedding = np.zeros((n, n_clusters))
    norm = math.sqrt(top_vector @ top_vector)
    if norm == 0.0:  # no affinity at all: B spans nothing
        return embedding, zero_degree
    vals, vecs = _lanczos(small_side, top_vector / norm, top - 1)
    vals = np.append(vals, 1.0)
    vecs = np.column_stack([vecs, top_vector / norm])
    spanned = vals > m * np.finfo(np.float64).eps
    if n > c:
        vecs = B @ vecs[:, spanned] / np.sqrt(vals[spanned])
    else:
        vecs = vecs[:, spanned]
    embedding[:, n_clusters - top + np.flatnonzero(spanned)] = vecs
    return embedding, zero_degree


def spectral_cluster_factored(
    affinities,
    n_clusters: int,
    seeds,
    *,
    data=None,
    subspace_dim: int | None = None,
) -> list[Partition]:
    """``spectral_cluster`` on A A^T for each affinity A, without forming the N x N matrix.

    ``affinities`` is an iterable of (N, c) affinity factors, one per seed
    in ``seeds``; it is read one factor at a time, and each factor is
    reduced to its (N, n_clusters) embedding before the next is read, so
    storage stays O(N * c) however many there are. Affinities are
    nonnegative, as the engine's are. Each embedding takes the top
    eigenvectors of the min(N, c)-sized small side from the Lanczos solver
    (``_lanczos``), at O(min(N, c)^2) per Krylov row once the small side is
    formed. The embeddings then go through
    one stacked k-means call, and the result holds one partition per
    affinity, each what a call on that affinity alone gives. This is the
    engine's spectral path at every N. ``data`` and ``subspace_dim`` are
    optional but go together; when given, zero-degree points are re-attached
    to the nearest fitted subspace instead of being left wherever k-means
    put their zero embedding rows. Either one alone raises ``ValueError``.
    """
    seeds = list(seeds)
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if (data is None) != (subspace_dim is None):
        raise ValueError("data and subspace_dim re-attach zero-degree points together: give both or neither")
    embeddings = []
    for affinity in affinities:
        A = np.asarray(affinity, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError("affinity must be a 2-D matrix")
        if A.shape[0] < n_clusters:
            raise ValueError(f"cannot split {A.shape[0]} points into {n_clusters} clusters")
        if embeddings and A.shape[0] != embeddings[0][0].shape[0]:
            raise ValueError("every affinity must have the same number of rows")
        embeddings.append(_factored_embedding(A, n_clusters))
    if len(embeddings) != len(seeds) or not embeddings:
        raise ValueError(f"need one seed per affinity, got {len(seeds)} for {len(embeddings)}")
    return _embeddings_to_labels(embeddings, n_clusters, seeds, data, subspace_dim)
