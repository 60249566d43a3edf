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

import math

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


# entries (4 MB) of a chunk budget. The workspace of one ``curvature_matrix``
# call holds two budgets (8 MB; one subset's share when that is more), and
# every temporary of ``_curvature_block`` is a view of it (those of the
# D-dimensional residual step only of a ``_BLOCK_ENTRIES`` slice), so a
# call allocates it once instead of taking fresh temporaries for every
# chunk: glibc's malloc handed each chunk's own temporaries new pages, and
# their page faults made the kernel markedly slower.
_CHUNK_ENTRIES = 1 << 19
# entries (512 KB) of the D-dimensional residual step's two temporaries, the
# offsets and Q T of a block of a chunk's subsets. At a chunk's size they
# would be about 4 MB at SCC(4,2F) motion shapes, twice a core's 2 MB L2
# cache, and every pass over them would stream from L3; a block that fits
# in L2 is faster on every perfbench workload, and the time is flat over a
# few powers of two around this size.
_BLOCK_ENTRIES = 1 << 16
# squared distance, in units of the subset's extent, below which two points coincide
_DUP_TOL = (1e3 * _EPS) ** 2
# ln(2^-1022): an affinity exponent below it would give a subnormal exp
_LOG_TINY = math.log(np.finfo(np.float64).tiny)


def _workspace_rows(ambient: int, k: int, m: int) -> int:
    """(b, N) rows of workspace per subset: the most ``_curvature_block`` holds at once.

    Its three steps hold h2, T, the offsets and Q T (1 + k + 2D rows); h2,
    T or s (which overwrites T) and the vertex differences (1 + m + k m);
    h2, s and five combine-step rows (5 + 2m). The offsets and Q T take only
    a ``_BLOCK_ENTRIES`` slice of their 2D rows at a time, but the rows stay
    counted, so a block of up to the whole chunk fits. Dropping them would
    give larger chunks, but no faster kernel.
    """
    return max(1 + k + 2 * ambient, 1 + m + k * m, 5 + 2 * m)


def curvature_matrix(data, sample_sets) -> tuple[np.ndarray, np.ndarray]:
    """Squared polar curvatures of every (point, sampled subset) tuple.

    Returns ``(curv, member)`` of shape (N, c): ``curv[i, r]`` is the
    squared polar curvature of point i appended to subset r, and
    ``member[i, r]`` marks i being inside subset r (those entries hold
    zeros; the sweep sets them to +inf, the score of a tuple with a
    repeated point, and drops the mask). A tuple with a duplicated point
    scores +inf, and 0 when all its points coincide.

    Each subset r is reduced to the QR factorization Q R of the edge
    vectors from its first point (the anchor). A point x has coordinates
    T = Q^T (x - anchor) in that frame and squared distance h^2 to the
    subset's flat, so the tuple's squared volume term is
    prod(diag(R))^2 * h^2 and its squared distance to subset point j is
    |T - R_j|^2 + h^2. Columns are evaluated in chunks, at O(d * D * N)
    cost per column, and every chunk works in one workspace of
    2 * ``_CHUNK_ENTRIES`` entries (or one column's, if more), allocated
    once per call. Within a chunk, the D-dimensional step that yields T and
    h^2 runs over blocks of subsets whose (D, N) temporaries fit one
    cache-sized ``_BLOCK_ENTRIES`` slice of that workspace (one subset's,
    if more). The output depends on neither the chunk nor the block
    boundaries.
    """
    X = as_data_matrix(data)
    ambient, n = X.shape
    sets = validate_sample_sets(sample_sets, n)
    c, m = sets.shape  # m = d + 1 sampled points per subset

    curv = np.empty((n, c))
    member = np.zeros((n, c), dtype=bool)

    per_subset = _workspace_rows(ambient, min(ambient, m - 1), m)
    chunk = max(1, 2 * _CHUNK_ENTRIES // (n * per_subset))
    # one size for every call that fits in it: once glibc's malloc has raised
    # its mmap threshold to that size, each call's workspace comes from the
    # heap the last one left, and none is mapped beside it (sized per call,
    # two in-process motion cycles peaked about 5 MB higher)
    work = np.empty(max(2 * _CHUNK_ENTRIES, per_subset * n))
    for start in range(0, c, chunk):
        block = sets[start : start + chunk]
        curv[:, start : start + block.shape[0]] = _curvature_block(X, block, work).T
    del work

    rows = sets.ravel()
    cols = np.repeat(np.arange(c), m)
    member[rows, cols] = True
    curv[rows, cols] = 0.0
    return curv, member


def _curvature_block(X: np.ndarray, sets: np.ndarray, work: np.ndarray) -> np.ndarray:
    """(b, N) curvatures of all points against one chunk of b sampled subsets.

    Every (b, N)-sized array is a view of ``work``, and so is the result,
    which the next call overwrites.
    """
    b, m = sets.shape
    n = X.shape[1]

    def view(first: int, shape: tuple, dtype=np.float64) -> np.ndarray:
        # the workspace from its (b, N) row ``first`` on, as an array of ``shape``
        return work[first * b * n :].view(dtype)[: math.prod(shape)].reshape(shape)

    anchors = X[:, sets[:, 0]].T  # (b, D)
    edges = X[:, sets[:, 1:]].transpose(1, 0, 2) - anchors[:, :, None]  # (b, D, d)
    Q, R = np.linalg.qr(edges)  # R: (b, k, d), k = min(D, d)
    ambient, k = Q.shape[1:]

    # workspace rows: h2 [0, 1), T [1, 1 + k), the offsets and Q T after T;
    # then s over T [1, 1 + m), the vertex differences and the combine step after s
    h2 = view(0, (b, n))
    T = view(1, (b, k, n))
    # the (sub, D, N) offsets and Q T of a block of subsets: together at most
    # _BLOCK_ENTRIES entries, unless one subset's are more
    sub = max(1, _BLOCK_ENTRIES // (2 * ambient * n))
    for lo in range(0, b, sub):
        hi = min(lo + sub, b)
        offsets, QT = view(1 + k, (2, hi - lo, ambient, n))
        np.subtract(X[None, :, :], anchors[lo:hi, :, None], out=offsets)
        np.matmul(Q[lo:hi].transpose(0, 2, 1), offsets, out=T[lo:hi])
        offsets -= np.matmul(Q[lo:hi], T[lo:hi], out=QT)
        np.einsum("bdn,bdn->bn", offsets, offsets, out=h2[lo:hi])

    # units of the subset's extent; a subset of one point, or of one point
    # repeated, has none and keeps the input's units
    extent = np.abs(R).max(axis=(1, 2), initial=0.0)
    unit = np.where(extent > 0.0, extent, 1.0)
    R = R / unit[:, None, None]
    T /= unit[:, None, None]
    h2 /= (unit**2)[:, None]

    vertices = np.concatenate([np.zeros((b, k, 1)), R], axis=2)  # (b, k, m)
    vdiff = vertices[:, :, :, None] - vertices[:, :, None, :]
    base_sq = np.einsum("bkij,bkij->bij", vdiff, vdiff)  # (b, m, m)
    # squared distances to the subset's points, (b, m, N): reductions over
    # the short vertex axis stay vectorized along N
    tdiff = np.subtract(T[:, :, None, :], vertices[:, :, :, None], out=view(1 + m, (b, k, m, n)))
    s = np.einsum("bkjn,bkjn->bjn", tdiff, tdiff, out=view(1, (b, m, n)))
    s += h2[:, None, :]

    # ((d+1)! * Vol)^2 of every tuple [x, subset]
    dets = view(1 + m, (b, n))
    np.multiply((np.diagonal(R, axis1=1, axis2=2) ** 2).prod(axis=1)[:, None], h2, out=dets)

    others = ~np.eye(m, dtype=bool)
    base_vertex_prod = np.where(others, base_sq, 1.0).prod(axis=2)  # (b, m)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_sum = np.divide(1.0, s.prod(axis=1, out=view(2 + m, (b, n))), out=view(2 + m, (b, n)))
        inv_vertex = np.multiply(s, base_vertex_prod[:, :, None], out=view(3 + m, (b, m, n)))
        np.divide(1.0, inv_vertex, out=inv_vertex)
        inv_sum += inv_vertex.sum(axis=1, out=view(3 + 2 * m, (b, n)))
        out = s.max(axis=1, out=view(4 + 2 * m, (b, n)))
        np.maximum(base_sq.max(axis=(1, 2))[:, None], out, out=out)  # the squared diameter
        out *= dets
        out *= inv_sum
        out *= ((unit**2) / (m + 1))[:, None]

    # an exact duplicate leaves round-off of relative size eps in the
    # distances; without any extent the subset is one point and only an
    # exact zero counts
    tol = np.where(extent > 0.0, _DUP_TOL, 0.0)
    dup = np.less_equal(s, tol[:, None, None], out=view(3 + m, (b, m, n), np.bool_))
    base_dup = (base_sq[:, others] <= tol[:, None]).any(axis=1)
    mask = view(1 + m, (b, n), np.bool_)
    np.logical_or(dup.any(axis=1, out=mask), base_dup[:, None], out=mask)
    np.copyto(out, np.inf, where=mask)
    np.logical_and(dup.all(axis=1, out=mask), (extent == 0.0)[:, None], out=mask)
    np.copyto(out, 0.0, where=mask)
    # 0 * inf in the product above
    np.copyto(out, np.inf, where=np.isnan(out, out=mask))
    return out


def affinity_from_curvatures(curv: np.ndarray, sigma_sq: float) -> np.ndarray:
    """exp(-curv / (2 sigma_sq)), with every value that would be subnormal set to 0.

    Curvatures are nonnegative or +inf. An infinite one maps to
    exp(-inf) = 0; the sweep gives the member entries (a point inside its
    own subset) +inf, so their affinity is 0. An exponent below
    ln(2^-1022) is set to -inf before ``exp``, so no affinity is subnormal:
    subnormal operands make the spectral step's products markedly slower.
    A point whose every affinity underflows so has zero degree, and the
    spectral step attaches it to the nearest fitted subspace. The result is
    computed in one (N, c) array.
    """
    if not sigma_sq > 0.0:
        raise ValueError("sigma_sq must be positive")
    with np.errstate(over="ignore"):
        aff = np.divide(curv, -2.0 * sigma_sq)
    np.copyto(aff, -np.inf, where=aff < _LOG_TINY)
    np.exp(aff, out=aff)
    return aff


def pairwise_weights(affinity) -> np.ndarray:
    """Pairwise weight matrix W = A A^T (symmetric positive semidefinite)."""
    A = np.asarray(affinity, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("affinity must be a 2-D matrix")
    return A @ A.T
