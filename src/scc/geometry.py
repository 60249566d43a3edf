"""Affine subspace fitting by orthogonal least squares, distances, and PCA.

Data matrices are plain float arrays of shape (D, N): one point per column,
ambient dimension D. All fits minimize the sum of squared orthogonal
distances (total OLS error), which is the model-selection objective used by
the clustering engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineSubspace",
    "Partition",
    "as_data_matrix",
    "fit_affine_ols",
    "dist_to_subspace",
    "subspace_sq_distances",
    "total_ols_error",
    "total_scatter",
    "project_pca",
]

_ORTHO_TOL = 1e-10


def as_data_matrix(values) -> np.ndarray:
    """Validate and return a (D, N) float64 matrix with one point per column."""
    mat = np.asarray(values, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"data matrix must be 2-D (D rows, N columns), got shape {mat.shape}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError(f"data matrix needs at least one row and one column, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("data matrix contains non-finite entries")
    return mat


@dataclass(frozen=True)
class AffineSubspace:
    """A d-dimensional affine subspace of R^D: mean point plus orthonormal basis.

    ``basis`` has shape (D, d) with orthonormal columns; d may be zero, in
    which case the subspace is the single point ``origin``.
    """

    origin: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        if origin.ndim != 1 or origin.size < 1:
            raise ValueError("origin must be a nonempty vector")
        if basis.ndim != 2 or basis.shape[0] != origin.shape[0]:
            raise ValueError(
                f"basis shape {basis.shape} incompatible with ambient dimension {origin.shape[0]}"
            )
        if basis.shape[1] > basis.shape[0]:
            raise ValueError("subspace dimension exceeds ambient dimension")
        gram = basis.T @ basis
        if not np.allclose(gram, np.eye(basis.shape[1]), atol=_ORTHO_TOL):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.origin.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class Partition:
    """Cluster labels for N points, values in 0..n_clusters-1.

    Empty clusters are allowed (``empty_clusters`` reports them) so that the
    declared number of clusters survives degenerate intermediate states.
    """

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.size < 1:
            raise ValueError("labels must be a nonempty 1-D array")
        if not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == np.floor(labels)):
                raise ValueError("labels must be integers")
        labels = labels.astype(np.int64)
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if labels.min() < 0 or labels.max() >= self.n_clusters:
            raise ValueError("labels must lie in [0, n_clusters)")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)

    def empty_clusters(self) -> list[int]:
        return [int(k) for k in np.flatnonzero(self.sizes() == 0)]

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)


def _complete_basis(basis_cols: list[np.ndarray], ambient_dim: int, target: int) -> list[np.ndarray]:
    """Deterministically extend a partial orthonormal set to ``target`` columns."""
    cols = list(basis_cols)
    for i in range(ambient_dim):
        if len(cols) >= target:
            break
        cand = np.zeros(ambient_dim)
        cand[i] = 1.0
        for col in cols:
            cand -= (col @ cand) * col
        norm = np.linalg.norm(cand)
        if norm > 1e-6:
            cols.append(cand / norm)
    if len(cols) < target:
        raise RuntimeError("failed to complete orthonormal basis")
    return cols


def fit_affine_ols(points, dim: int) -> AffineSubspace:
    """Best-fit affine subspace of the given dimension in the OLS sense.

    The origin is the column mean and the basis spans the top ``dim``
    principal directions of the centered points, computed from an
    eigendecomposition of whichever scatter matrix (D x D or N x N) is
    smaller. When the centered data has rank below ``dim`` the basis is
    completed deterministically; any orthonormal basis of the top
    eigenspace yields the same projections and residuals.
    """
    X = as_data_matrix(points)
    ambient, count = X.shape
    if dim < 0:
        raise ValueError("subspace dimension must be nonnegative")
    if dim > ambient:
        raise ValueError(f"invalid dimension: {dim} exceeds ambient dimension {ambient}")

    origin = X.mean(axis=1)
    if dim == 0:
        return AffineSubspace(origin, np.zeros((ambient, 0)))
    centered = X - origin[:, None]

    if ambient <= count:
        scatter = centered @ centered.T
        _, vecs = np.linalg.eigh(scatter)
        basis = vecs[:, ::-1][:, :dim]
    else:
        gram = centered.T @ centered
        vals, vecs = np.linalg.eigh(gram)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        scale = max(float(vals[0]), 0.0)
        cols: list[np.ndarray] = []
        for j in range(min(dim, count)):
            if vals[j] <= scale * 1e-14 or vals[j] <= 0.0:
                break
            u = centered @ vecs[:, j]
            u /= np.linalg.norm(u)
            for col in cols:  # re-orthogonalize against earlier columns
                u -= (col @ u) * col
            norm = np.linalg.norm(u)
            if norm <= 1e-8:
                break
            cols.append(u / norm)
        cols = _complete_basis(cols, ambient, dim)
        basis = np.column_stack(cols[:dim])

    return AffineSubspace(origin, basis)


def subspace_sq_distances(data, subspace: AffineSubspace) -> np.ndarray:
    """Squared orthogonal distance of every column of ``data`` to the subspace."""
    X = as_data_matrix(data)
    if X.shape[0] != subspace.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: data has {X.shape[0]}, subspace has {subspace.ambient_dim}"
        )
    deltas = X - subspace.origin[:, None]
    if subspace.dim > 0:
        deltas = deltas - subspace.basis @ (subspace.basis.T @ deltas)
    return np.einsum("ij,ij->j", deltas, deltas)


def dist_to_subspace(x, subspace: AffineSubspace) -> float:
    """Euclidean distance from a single point to an affine subspace."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != subspace.ambient_dim:
        raise ValueError(
            f"point dimension {vec.shape} does not match ambient dimension {subspace.ambient_dim}"
        )
    return float(np.sqrt(max(subspace_sq_distances(vec[:, None], subspace)[0], 0.0)))


def total_ols_error(data, partition: Partition, dim: int) -> float:
    """Total squared orthogonal distance of points to their clusters' OLS fits.

    Each nonempty cluster is fitted at dimension min(dim, size - 1), so
    clusters too small to determine a ``dim``-flat are interpolated exactly
    and contribute zero. Empty clusters contribute zero. A cluster's error
    is the sum of the squared singular values of its centered points beyond
    the first ``dim``, so no basis is formed.
    """
    X = as_data_matrix(data)
    if partition.size != X.shape[1]:
        raise ValueError("partition labels do not cover all points")
    if dim < 0 or dim > X.shape[0]:
        raise ValueError(f"invalid dimension {dim} for ambient dimension {X.shape[0]}")
    total = 0.0
    for k in range(partition.n_clusters):
        idx = partition.members(k)
        if idx.size == 0:
            continue
        block = X[:, idx]
        centered = block - block.mean(axis=1, keepdims=True)
        singular = np.linalg.svd(centered, compute_uv=False)
        total += float(np.sum(singular[dim:] ** 2))
    return total


def total_scatter(data) -> float:
    """Sum of squared distances of the points to their mean."""
    X = as_data_matrix(data)
    centered = X - X.mean(axis=1, keepdims=True)
    return float(np.einsum("ij,ij->", centered, centered))


def project_pca(data, target_dim: int) -> np.ndarray:
    """Coordinates of mean-centered points in the top principal directions.

    Returns a (target_dim, N) matrix. If ``target_dim >= D`` the input is
    returned unchanged (identity regime).
    """
    X = as_data_matrix(data)
    ambient = X.shape[0]
    if target_dim < 1:
        raise ValueError("target dimension must be at least 1")
    if target_dim >= ambient:
        return X
    fit = fit_affine_ols(X, target_dim)
    return fit.basis.T @ (X - fit.origin[:, None])
