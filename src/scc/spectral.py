"""Spectral clustering of pairwise weights: normalized embedding plus k-means.

Implements the symmetric-normalization variant: rows are embedded with the
top-K eigenvectors of Deg^{-1/2} W Deg^{-1/2}, row-normalized, and clustered
by k-means. One seeded generator per call draws the k-means++ start of every
restart in turn; all restarts then run their Lloyd iterations together, as
one batch over (restarts, N, K) arrays that gives each restart the labels a
run of its own would, and the restart of least cost wins (the earlier on a
tie). For W = A A^T given by its (N, c) affinity factor A, the embedding
comes from the smaller side of B = Deg^{-1/2} A (the left singular vectors
of B), so the N x N matrix is never formed.
Points with zero degree (all-zero weight rows) get a zero embedding row;
when the original data and the subspace dimension are supplied they are
re-attached afterwards to the cluster whose fitted subspace is nearest.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from . import seeding
from .geometry import Partition, as_data_matrix, fit_affine_ols, subspace_sq_distances

__all__ = ["kmeans", "spectral_cluster", "spectral_cluster_factored"]

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100


def _sq_distances(rows: np.ndarray, row_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = 2.0 * rows @ centers.T
    np.subtract(row_norms[:, None], d2, out=d2)
    d2 += np.einsum("ij,ij->i", centers, centers)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _plus_plus_init(
    rows: np.ndarray, row_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """D^2-weighted starting centers of every restart, shape (restarts, k, dim).

    Each restart draws its first row index and then k - 1 uniforms, in
    restart order. Every further center is the inverse CDF of D^2 at that
    uniform; when D^2 sums to zero (every row equals a chosen center) the
    uniform picks a row directly.
    """
    n = rows.shape[0]
    first = np.empty(KMEANS_RESTARTS, dtype=np.intp)
    uniforms = np.empty((KMEANS_RESTARTS, k - 1))
    for r in range(KMEANS_RESTARTS):
        first[r] = rng.integers(n)
        uniforms[r] = rng.random(k - 1)
    centers = np.empty((KMEANS_RESTARTS, k, rows.shape[1]))
    centers[:, 0] = rows[first]
    d2 = _sq_distances(rows, row_norms, centers[:, 0])  # (n, restarts)
    for j in range(1, k):
        cumulative = np.cumsum(d2, axis=0)
        u = uniforms[:, j - 1]
        # the count of cumulative D^2 values <= u * total, as searchsorted(side="right")
        # gives it: a zero-weight row is never picked
        idx = (cumulative <= u * cumulative[-1]).sum(axis=0)
        zero_total = ~(cumulative[-1] > 0.0)
        if zero_total.any():
            idx[zero_total] = np.minimum(np.floor(u[zero_total] * n).astype(np.intp), n - 1)
        centers[:, j] = rows[idx]
        d2 = np.minimum(d2, _sq_distances(rows, row_norms, centers[:, j]))
    return centers


def _lloyd(
    rows: np.ndarray, row_norms: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of every restart at once from ``centers`` (restarts, k, dim).

    Returns the (restarts, n) labels and the WCSS of each restart's labels.
    A restart whose labels repeat stops updating; the others go on, each
    for at most ``max_iter`` iterations.
    """
    n, dim = rows.shape
    n_restarts, k = centers.shape[:2]
    labels = np.full((n, n_restarts), -1)
    bins = k * np.arange(n_restarts)  # restart r's clusters are bins r*k .. r*k + k - 1
    columns = np.repeat(rows, n_restarts, axis=0).T.copy()  # (dim, n * restarts)
    for _ in range(max_iter):
        d2 = _sq_distances(rows, row_norms, centers.reshape(n_restarts * k, dim))
        d2 = d2.reshape(n, n_restarts, k)
        new = d2.argmin(axis=2)  # ties go to the lowest center index
        binned = new + bins
        counts = np.bincount(binned.ravel(), minlength=n_restarts * k).reshape(n_restarts, k)
        if not counts.all():
            for r in np.flatnonzero((counts == 0).any(axis=1)):
                assigned = d2[np.arange(n), r, new[:, r]]
                for empty in np.flatnonzero(counts[r] == 0):
                    j = int(assigned.argmax())
                    centers[r, empty] = rows[j]
                    new[j, r] = empty
                    assigned[j] = -1.0
                counts[r] = np.bincount(new[:, r], minlength=k)
            binned = new + bins
        moving = (new != labels).any(axis=0)
        if not moving.any():
            break
        labels[:, moving] = new[:, moving]
        # bincount adds in row order, as np.add.at does, so each sum has the
        # bits of a sequential per-restart accumulation
        binned = binned.ravel()
        sums = [np.bincount(binned, weights=col, minlength=n_restarts * k) for col in columns]
        sums = np.stack(sums, axis=1).reshape(n_restarts, k, dim)
        centers[moving] = sums[moving] / counts[moving, :, None]
    labels = labels.T
    # centers are the means of the final labels
    offsets = centers.reshape(n_restarts * k, dim)[labels + bins[:, None]]
    np.subtract(rows, offsets, out=offsets)
    return labels, np.array([np.einsum("ij,ij->", off, off) for off in offsets])


def kmeans(rows, n_clusters: int, seed: int) -> Partition:
    """Seeded k-means on the rows of a matrix; deterministic for fixed inputs.

    One generator per call draws the D^2-weighted (k-means++) start of
    every restart in turn: a row index, then n_clusters - 1 uniforms. All
    restarts then run their Lloyd iterations together, each until its
    labels repeat, and each ends with the labels it would reach alone (the
    sequential loop in ``tests/oracles.py`` is the reference). The labeling
    of smallest within-cluster sum of squares is kept, and on a tie the
    earlier restart wins.
    """
    mat = np.asarray(rows, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ValueError("rows must be a nonempty 2-D matrix")
    n = mat.shape[0]
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if n < n_clusters:
        raise ValueError(f"cannot split {n} rows into {n_clusters} clusters")

    row_norms = np.einsum("ij,ij->i", mat, mat)
    centers = _plus_plus_init(mat, row_norms, n_clusters, seeding.generator(seed, 101))
    labels, costs = _lloyd(mat, row_norms, centers, KMEANS_MAX_ITER)
    best, best_cost = None, np.inf
    for r, cost in enumerate(costs):
        if cost < best_cost:  # strict, so a tie keeps the earlier restart
            best, best_cost = r, cost
    return Partition(labels[best], n_clusters)


def _check_weights(weights) -> np.ndarray:
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weight matrix must be square")
    scale = max(1.0, float(np.abs(W).max()))
    if float(np.abs(W - W.T).max()) > 1e-8 * scale:
        raise ValueError("weight matrix is not symmetric within tolerance")
    return W


def _embedding_to_labels(
    vecs: np.ndarray,
    n_clusters: int,
    seed: int,
    zero_degree: np.ndarray,
    data,
    subspace_dim,
) -> Partition:
    rows = vecs.copy()
    norms = np.linalg.norm(rows, axis=1)
    positive = norms > 0.0
    rows[positive] /= norms[positive, None]
    part = kmeans(rows, n_clusters, seed)
    if zero_degree.any() and data is not None and subspace_dim is not None:
        labels = _attach_isolated(part.labels.copy(), zero_degree, data, subspace_dim, n_clusters)
        part = Partition(labels, n_clusters)
    return part


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


def spectral_cluster(
    weights,
    n_clusters: int,
    seed: int,
    *,
    data=None,
    subspace_dim: int | None = None,
) -> Partition:
    """Partition points from a symmetric nonnegative weight matrix.

    ``data`` and ``subspace_dim`` are optional; when given, zero-degree
    points are re-attached to the nearest fitted subspace instead of being
    left wherever k-means put their zero embedding rows.
    """
    W = _check_weights(weights)
    n = W.shape[0]
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if n < n_clusters:
        raise ValueError(f"cannot split {n} points into {n_clusters} clusters")

    zero_degree, inv_sqrt = _inverse_sqrt_degree(W.sum(axis=1))
    M = W * inv_sqrt[:, None] * inv_sqrt[None, :]
    _, vecs = scipy.linalg.eigh(M, subset_by_index=(n - n_clusters, n - 1))
    return _embedding_to_labels(vecs, n_clusters, seed, zero_degree, data, subspace_dim)


def _factored_embedding(A: np.ndarray, n_clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvectors of B B^T for B = Deg^{-1/2} A, solved on B's smaller side.

    Returns the (N, n_clusters) embedding, columns in ascending eigenvalue
    order, and the zero-degree mask. With N > c the c x c problem B^T B v =
    lambda v gives u = B v / sqrt(lambda). Each of the top n_clusters
    directions that B does not span (lambda at round-off level, or missing
    because n_clusters > c) gets a zero column, so rank-deficient
    affinities embed without NaN and reproducibly.
    """
    n, c = A.shape
    # The products use scipy's BLAS, the library of the eigensolver: numpy
    # links a second OpenBLAS, and under default threading the two thread
    # pools contend for the same cores.
    zero_degree, inv_sqrt = _inverse_sqrt_degree(blas.dgemv(1.0, A.T, A.sum(axis=0), trans=1))
    B = A * inv_sqrt[:, None]
    small_side = blas.dsyrk(1.0, B.T, trans=1 if n <= c else 0, lower=1)
    m = small_side.shape[0]
    top = min(n_clusters, m)
    vals, vecs = scipy.linalg.eigh(
        small_side, subset_by_index=(m - top, m - 1), overwrite_a=True, check_finite=False
    )
    spanned = vals > m * np.finfo(np.float64).eps * max(float(vals[-1]), 0.0)
    if n > c:
        vecs = blas.dgemm(1.0, B.T, vecs[:, spanned], trans_a=1) / np.sqrt(vals[spanned])
    else:
        vecs = vecs[:, spanned]
    embedding = np.zeros((n, n_clusters))
    embedding[:, n_clusters - top + np.flatnonzero(spanned)] = vecs
    return embedding, zero_degree


def spectral_cluster_factored(
    affinity,
    n_clusters: int,
    seed: int,
    *,
    data=None,
    subspace_dim: int | None = None,
) -> Partition:
    """Same as ``spectral_cluster`` on A A^T without materializing the N x N matrix.

    Works on the (N, c) affinity factor directly: one symmetric
    eigensolve of size min(N, c), so storage stays O(N * c). This is the
    engine's spectral path at every N.
    """
    A = np.asarray(affinity, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("affinity must be a 2-D matrix")
    n = A.shape[0]
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if n < n_clusters:
        raise ValueError(f"cannot split {n} points into {n_clusters} clusters")
    vecs, zero_degree = _factored_embedding(A, n_clusters)
    return _embedding_to_labels(vecs, n_clusters, seed, zero_degree, data, subspace_dim)
