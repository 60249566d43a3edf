"""Spectral clustering of pairwise weights: normalized embedding plus k-means.

Implements the symmetric-normalization variant: rows are embedded with the
top-K eigenvectors of Deg^{-1/2} W Deg^{-1/2}, row-normalized, and clustered
by k-means whose restarts are drawn in sequence from one seeded generator
per call (the earlier restart wins a tie in cost). For W = A A^T given by
its (N, c) affinity factor A, the embedding comes from the smaller side of
B = Deg^{-1/2} A (the left singular vectors of B), so the N x N matrix is
never formed.
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
    d2 = (
        row_norms[:, None]
        - 2.0 * rows @ centers.T
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )
    return np.maximum(d2, 0.0)


def _plus_plus_init(
    rows: np.ndarray, row_norms: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = rows.shape[0]
    centers = np.empty((k, rows.shape[1]))
    centers[0] = rows[rng.integers(n)]
    d2 = _sq_distances(rows, row_norms, centers[:1])[:, 0]
    for j in range(1, k):
        cumulative = np.cumsum(d2)
        if cumulative[-1] > 0.0:  # inverse CDF of D^2; a zero-weight row is never picked
            idx = cumulative.searchsorted(rng.random() * cumulative[-1], side="right")
        else:
            idx = rng.integers(n)
        centers[j] = rows[idx]
        d2 = np.minimum(d2, _sq_distances(rows, row_norms, centers[j : j + 1])[:, 0])
    return centers


def _lloyd(
    rows: np.ndarray, row_norms: np.ndarray, centers: np.ndarray, max_iter: int
) -> tuple[np.ndarray, float]:
    """Lloyd iterations from ``centers``; returns the labels and their WCSS."""
    n, k = rows.shape[0], centers.shape[0]
    labels = None
    for _ in range(max_iter):
        d2 = _sq_distances(rows, row_norms, centers)
        new_labels = d2.argmin(axis=1)  # ties go to the lowest center index
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            assigned = d2[np.arange(n), new_labels].copy()
            for empty in np.flatnonzero(counts == 0):
                j = int(assigned.argmax())
                centers[empty] = rows[j]
                new_labels[j] = empty
                assigned[j] = -1.0
            counts = np.bincount(new_labels, minlength=k)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, rows)
        centers = sums / counts[:, None]
    offsets = rows - centers[labels]  # centers are the means of the final labels
    return labels, float(np.einsum("ij,ij->", offsets, offsets))


def kmeans(rows, n_clusters: int, seed: int) -> Partition:
    """Seeded k-means on the rows of a matrix; deterministic for fixed inputs.

    One generator per call feeds every restart in sequence: each restart
    draws a D^2-weighted (k-means++) initialization and runs Lloyd
    iterations. The labeling of smallest within-cluster sum of squares is
    kept, and on a tie the earlier restart wins.
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
    rng = seeding.generator(seed, 101)
    best_labels, best_cost = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _plus_plus_init(mat, row_norms, n_clusters, rng)
        labels, cost = _lloyd(mat, row_norms, centers, KMEANS_MAX_ITER)
        if cost < best_cost:  # strict, so a tie keeps the earlier restart
            best_cost, best_labels = cost, labels
    return Partition(best_labels, n_clusters)


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
