"""Polar curvature of point tuples and the sampled multiway affinity matrix.

A tuple of d+2 points is scored by its squared polar curvature: the squared
volume of the (d+1)-simplex they span (scaled by ((d+1)!)^2), normalized at
each vertex by the product of squared distances to the other vertices,
averaged over vertices, and multiplied by the squared tuple diameter. The
score is zero exactly when the tuple lies on a common d-dimensional flat, so
exp(-curvature / (2 sigma^2)) measures how well an appended point fits the
flat suggested by a sampled (d+1)-subset.

The squared curvature is invariant under rigid motions (rotations,
reflections, translations) and under permutations of the tuple's points,
and homogeneous of degree 2 under uniform scaling: scaling every point by s
multiplies it by s^2. The vertex-normalized volumes are squared polar sines,
which do not change with scale, so only the squared diameter carries units.

For a tuple [x, subset] the squared volume factors as the subset's own
squared volume times the squared distance from x to the subset's flat
(Chen & Lerman, Spectral Curvature Clustering, IJCV 2009). So
``curvature_matrix`` takes one QR factorization per sampled subset and
reads every quantity off each point's coordinates in that subset's frame,
in units of the subset's extent. Nothing is formed from squared norms of
the raw coordinates, whose cancellation would tie the result's accuracy to
the data's origin and units. ``polar_curvature_sq`` is the one-tuple case of
that kernel; the reference it is tested against is an explicit
Cayley-Menger loop over the definition (``tests/oracles.py``).

Sample sets are integer arrays of shape (c, d+1): c subsets of point
indices, distinct within each row.
"""

from __future__ import annotations

import numpy as np

from .geometry import as_data_matrix

__all__ = [
    "validate_sample_sets",
    "simplex_gram_det",
    "polar_curvature_sq",
    "curvature_matrix",
    "affinity_from_curvatures",
    "pairwise_weights",
]

_EPS = np.finfo(np.float64).eps


def validate_sample_sets(sample_sets, n_points: int) -> np.ndarray:
    """Validate a (c, d+1) index array: integer entries, in range, distinct per row."""
    sets = np.asarray(sample_sets)
    if sets.ndim != 2 or sets.shape[0] < 1 or sets.shape[1] < 1:
        raise ValueError(f"sample sets must be a (c, d+1) array, got shape {sets.shape}")
    if not np.issubdtype(sets.dtype, np.integer):
        raise ValueError("sample set indices must be integers")
    sets = sets.astype(np.int64)
    if sets.min() < 0 or sets.max() >= n_points:
        raise ValueError("sample set indices out of range")
    sorted_rows = np.sort(sets, axis=1)
    if (np.diff(sorted_rows, axis=1) == 0).any():
        raise ValueError("sample sets must contain distinct indices within each set")
    return sets


def _as_tuple(points, flat_dim: int) -> np.ndarray:
    pts = as_data_matrix(points)
    if flat_dim < 0:
        raise ValueError("flat dimension must be nonnegative")
    if pts.shape[1] != flat_dim + 2:
        raise ValueError(
            f"expected a tuple of {flat_dim + 2} points for flat dimension {flat_dim}, "
            f"got {pts.shape[1]}"
        )
    return pts


def simplex_gram_det(points, flat_dim: int) -> float:
    """((flat_dim+1)! * Vol)^2 of the simplex spanned by a (flat_dim+2)-point tuple.

    This is the Gram determinant of the edge vectors from the first point,
    computed as prod(diag(R))^2 from their QR factorization. It vanishes
    exactly when the points share a common flat_dim-dimensional flat, and
    always when there are more edges than ambient dimensions.
    """
    pts = _as_tuple(points, flat_dim)
    edges = pts[:, 1:] - pts[:, :1]
    if edges.shape[0] < edges.shape[1]:
        return 0.0
    R = np.linalg.qr(edges, mode="r")
    return float(np.prod(np.diagonal(R) ** 2))


def polar_curvature_sq(points, flat_dim: int) -> float:
    """Squared polar curvature of a tuple of flat_dim+2 points.

    This is the one-tuple case of ``curvature_matrix``: the first point is
    scored against the flat of the other flat_dim+1. Returns 0.0 when all
    points coincide and +inf when the tuple contains a duplicated point but
    is not fully degenerate (such tuples carry no evidence about any flat,
    and an infinite curvature maps to affinity 0).

    The value is invariant under rigid motions and permutations of the
    points and homogeneous of degree 2 under uniform scaling:
    ``polar_curvature_sq(s * X) == s**2 * polar_curvature_sq(X)``.
    """
    pts = _as_tuple(points, flat_dim)
    return float(curvature_matrix(pts, np.arange(1, flat_dim + 2)[None, :])[0][0, 0])


# entries (4 MB) of the largest per-chunk temporary of ``_curvature_block``:
# the (b, D, N) offsets or the (b, min(D, d), d+1, N) vertex differences.
# At perfbench large_n size (N = 6000, D = 20, c = 300) a call took about
# 0.33 s at 2 to 8 MB and 0.65 s at 16 MB, where every chunk's temporaries
# came from fresh pages (some 26k page faults per call under glibc's default
# malloc settings). At 1 MB the kernel scales linearly in N and c, and the
# fixed per-run costs pull the doubling ratios of test_complexity_scaling
# down to its 1.5 floor.
_CHUNK_ENTRIES = 1 << 19
# squared distance, in units of the subset's extent, below which two points coincide
_DUP_TOL = (1e3 * _EPS) ** 2


def curvature_matrix(data, sample_sets) -> tuple[np.ndarray, np.ndarray]:
    """Squared polar curvatures of every (point, sampled subset) tuple.

    Returns ``(curv, member)`` of shape (N, c): ``curv[i, r]`` is the
    squared polar curvature of point i appended to subset r, and
    ``member[i, r]`` marks i being inside subset r (those entries are
    excluded from any downstream use and hold zeros). A tuple with a
    duplicated point scores +inf, and 0 when all its points coincide.

    Each subset r is reduced to the QR factorization Q R of the edge
    vectors from its first point (the anchor). A point x has coordinates
    T = Q^T (x - anchor) in that frame and squared distance h^2 to the
    subset's flat, so the tuple's squared volume term is
    prod(diag(R))^2 * h^2 and its squared distance to subset point j is
    |T - R_j|^2 + h^2. Columns are evaluated in chunks whose largest
    temporary holds at most ``_CHUNK_ENTRIES`` entries (or one column's),
    at O(d * D * N) cost per column; the output does not depend on chunk
    boundaries.
    """
    X = as_data_matrix(data)
    ambient, n = X.shape
    sets = validate_sample_sets(sample_sets, n)
    c, m = sets.shape  # m = d + 1 sampled points per subset

    curv = np.empty((n, c))
    member = np.zeros((n, c), dtype=bool)

    # per subset: the wider of the (D, N) offsets and the (min(D, d), d+1, N)
    # vertex differences, the largest temporaries of _curvature_block
    chunk = max(1, _CHUNK_ENTRIES // (n * max(ambient, min(ambient, m - 1) * m)))
    for start in range(0, c, chunk):
        block = sets[start : start + chunk]
        curv[:, start : start + block.shape[0]] = _curvature_block(X, block).T

    rows = sets.ravel()
    cols = np.repeat(np.arange(c), m)
    member[rows, cols] = True
    curv[rows, cols] = 0.0
    return curv, member


def _curvature_block(X: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """(b, N) curvatures of all points against one chunk of b sampled subsets."""
    b, m = sets.shape
    anchors = X[:, sets[:, 0]].T  # (b, D)
    edges = X[:, sets[:, 1:]].transpose(1, 0, 2) - anchors[:, :, None]  # (b, D, d)
    Q, R = np.linalg.qr(edges)  # R: (b, k, d), k = min(D, d)

    offsets = X[None, :, :] - anchors[:, :, None]  # (b, D, N)
    T = Q.transpose(0, 2, 1) @ offsets  # (b, k, N)
    offsets -= Q @ T
    h2 = np.einsum("bdn,bdn->bn", offsets, offsets)
    del offsets

    # units of the subset's extent; a subset of one point, or of one point
    # repeated, has none and keeps the input's units
    extent = np.abs(R).max(axis=(1, 2), initial=0.0)
    unit = np.where(extent > 0.0, extent, 1.0)
    R = R / unit[:, None, None]
    T /= unit[:, None, None]
    h2 /= (unit**2)[:, None]

    vertices = np.concatenate([np.zeros((b, R.shape[1], 1)), R], axis=2)  # (b, k, m)
    vdiff = vertices[:, :, :, None] - vertices[:, :, None, :]
    base_sq = np.einsum("bkij,bkij->bij", vdiff, vdiff)  # (b, m, m)
    # squared distances to the subset's points, (b, m, N): reductions over
    # the short vertex axis stay vectorized along N
    tdiff = T[:, :, None, :] - vertices[:, :, :, None]
    s = np.einsum("bkjn,bkjn->bjn", tdiff, tdiff) + h2[:, None, :]
    del tdiff

    # ((d+1)! * Vol)^2 of every tuple [x, subset]
    dets = (np.diagonal(R, axis1=1, axis2=2) ** 2).prod(axis=1)[:, None] * h2

    others = ~np.eye(m, dtype=bool)
    base_vertex_prod = np.where(others, base_sq, 1.0).prod(axis=2)  # (b, m)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_sum = 1.0 / s.prod(axis=1) + (1.0 / (s * base_vertex_prod[:, :, None])).sum(axis=1)
        diam_sq = np.maximum(base_sq.max(axis=(1, 2))[:, None], s.max(axis=1))
        out = diam_sq * dets * inv_sum * ((unit**2) / (m + 1))[:, None]

    # an exact duplicate leaves round-off of relative size eps in the
    # distances; without any extent the subset is one point and only an
    # exact zero counts
    tol = np.where(extent > 0.0, _DUP_TOL, 0.0)
    dup = s <= tol[:, None, None]
    base_dup = (base_sq[:, others] <= tol[:, None]).any(axis=1)
    out[dup.any(axis=1) | base_dup[:, None]] = np.inf
    out[dup.all(axis=1) & (extent == 0.0)[:, None]] = 0.0
    np.nan_to_num(out, copy=False, nan=np.inf, posinf=np.inf)
    return out


def affinity_from_curvatures(curv: np.ndarray, member: np.ndarray, sigma_sq: float) -> np.ndarray:
    """exp(-curv / (2 sigma_sq)) with member entries set to 0.

    Curvatures are nonnegative or +inf, as ``curvature_matrix`` returns
    them; an infinite one maps to exp(-inf) = 0. The result is computed in
    one (N, c) array.
    """
    if not sigma_sq > 0.0:
        raise ValueError("sigma_sq must be positive")
    with np.errstate(over="ignore"):
        aff = np.divide(curv, -2.0 * sigma_sq)
    np.exp(aff, out=aff)
    aff[member] = 0.0
    return aff


def pairwise_weights(affinity) -> np.ndarray:
    """Pairwise weight matrix W = A A^T (symmetric positive semidefinite)."""
    A = np.asarray(affinity, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("affinity must be a 2-D matrix")
    return A @ A.T
