"""Independent reference computations used to check the library paths.

Everything here is deliberately brute force (explicit loops, textbook
formulas, exhaustive search) and shares no code with the implementation
under test.
"""

import itertools
import math

import numpy as np
import scipy.linalg


def eig_tail_sum(points: np.ndarray, dim: int) -> float:
    """OLS residual of a d-dim affine fit as the scatter eigenvalue tail."""
    centered = points - points.mean(axis=1, keepdims=True)
    vals = np.linalg.eigvalsh(centered @ centered.T)
    vals = np.sort(vals)[::-1]
    return float(np.clip(vals[dim:], 0.0, None).sum())


def total_scatter(points: np.ndarray) -> float:
    """Sum of squared distances of the columns to their mean, one point at a time."""
    mean = points.mean(axis=1)
    return float(sum(((points[:, j] - mean) ** 2).sum() for j in range(points.shape[1])))


def lstsq_distance(x: np.ndarray, origin: np.ndarray, basis: np.ndarray) -> float:
    """Point-to-flat distance by solving the normal equations directly."""
    if basis.shape[1] == 0:
        return float(np.linalg.norm(x - origin))
    coeff, *_ = np.linalg.lstsq(basis, x - origin, rcond=None)
    return float(np.linalg.norm(x - origin - basis @ coeff))


def cayley_menger_vol_sq(points: np.ndarray) -> float:
    """Squared simplex volume from the Cayley-Menger determinant."""
    m = points.shape[1]
    n = m - 1
    sq = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            sq[i, j] = float(((points[:, i] - points[:, j]) ** 2).sum())
    cm = np.ones((m + 1, m + 1))
    cm[0, 0] = 0.0
    cm[1:, 1:] = sq
    det = np.linalg.det(cm)
    return (-1) ** (n + 1) / (2**n * math.factorial(n) ** 2) * det


def polar_curvature_sq_reference(points: np.ndarray) -> float:
    """Squared polar curvature evaluated with explicit loops from the definition."""
    m = points.shape[1]
    flat_dim = m - 2
    sq = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            sq[i, j] = float(((points[:, i] - points[:, j]) ** 2).sum())
    numerator = math.factorial(flat_dim + 1) ** 2 * cayley_menger_vol_sq(points)
    total = 0.0
    for j in range(m):
        prod = 1.0
        for k in range(m):
            if k != j:
                prod *= sq[j, k]
        total += numerator / prod
    return float(sq.max()) * total / m


def naive_weight_matrix(affinity: np.ndarray) -> np.ndarray:
    """W = A A^T by triple loop."""
    n, c = affinity.shape
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for r in range(c):
                acc += affinity[i, r] * affinity[j, r]
            out[i, j] = acc
    return out


def factored_embedding_eigh(affinity: np.ndarray, n_clusters: int) -> np.ndarray:
    """Spectral embedding of A A^T from a dense eigensolve of B's smaller side.

    B = Deg^{-1/2} A with zero-degree rows left at zero. The top n_clusters
    eigenvectors of B^T B (lifted as B v / sqrt(lambda)) or of B B^T are the
    columns, in ascending eigenvalue order; a direction B does not span
    (lambda at round-off level, or missing because n_clusters exceeds the
    smaller side) is a zero column.
    """
    A = np.asarray(affinity, dtype=np.float64)
    n, c = A.shape
    deg = A @ A.sum(axis=0)
    inv_sqrt = np.zeros(n)
    inv_sqrt[deg > 0.0] = 1.0 / np.sqrt(deg[deg > 0.0])
    B = A * inv_sqrt[:, None]
    small = B.T @ B if n > c else B @ B.T
    m = small.shape[0]
    top = min(n_clusters, m)
    vals, vecs = scipy.linalg.eigh(small, subset_by_index=(m - top, m - 1))
    spanned = vals > m * np.finfo(np.float64).eps * max(float(vals[-1]), 0.0)
    vecs = B @ vecs[:, spanned] / np.sqrt(vals[spanned]) if n > c else vecs[:, spanned]
    embedding = np.zeros((n, n_clusters))
    embedding[:, n_clusters - top + np.flatnonzero(spanned)] = vecs
    return embedding


def brute_force_misclassification(predicted: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Exhaustive search over all label bijections."""
    n = len(truth)
    best = -1
    for perm in itertools.permutations(range(k)):
        matched = sum(1 for p, t in zip(predicted, truth) if perm[p] == t)
        best = max(best, matched)
    return 100.0 * (n - best) / n


def labeling_cost(rows: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Within-cluster sum of squares of a labeling."""
    cost = 0.0
    for j in range(k):
        members = rows[labels == j]
        if len(members) == 0:
            continue
        center = members.mean(axis=0)
        cost += float(((members - center) ** 2).sum())
    return cost


def random_flat_tuple(
    rng: np.random.Generator, flat_dim: int, ambient_dim: int, n_points: int
) -> np.ndarray:
    """Points drawn from one random affine flat, as columns."""
    basis, _ = np.linalg.qr(rng.standard_normal((ambient_dim, flat_dim)))
    origin = rng.uniform(-2.0, 2.0, ambient_dim)
    coeffs = rng.standard_normal((flat_dim, n_points))
    return origin[:, None] + basis @ coeffs


def _kmeans_sq_distances(rows, row_norms, centers):
    d2 = row_norms[:, None] - 2.0 * rows @ centers.T + np.einsum("ij,ij->i", centers, centers)[None, :]
    return np.maximum(d2, 0.0)


def kmeans_sequential(rows: np.ndarray, n_clusters: int, seed: int, restarts: int = 10, max_iter: int = 100):
    """Seeded k-means with its restarts run one after another; returns the labels.

    The generator is PCG64 keyed by [seed, 101], one per call. Each restart
    draws its first row index and n_clusters - 1 uniforms, picks every
    further center by the inverse CDF of D^2 (k-means++), or by
    min(floor(u * n), n - 1) when D^2 sums to zero, and runs Lloyd
    iterations until its labels repeat. A cluster left empty takes the row
    farthest from its own center. The restart of least WCSS wins, the
    earliest on a tie.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n, k = rows.shape[0], n_clusters
    row_norms = np.einsum("ij,ij->i", rows, rows)
    rng = np.random.default_rng(np.random.SeedSequence([seed & ((1 << 63) - 1), 101]))
    best_labels, best_cost = None, np.inf
    for _ in range(restarts):
        first, uniforms = rng.integers(n), rng.random(k - 1)
        centers = np.empty((k, rows.shape[1]))
        centers[0] = rows[first]
        d2 = _kmeans_sq_distances(rows, row_norms, centers[:1])[:, 0]
        for j in range(1, k):
            cumulative = np.cumsum(d2)
            if cumulative[-1] > 0.0:
                idx = cumulative.searchsorted(uniforms[j - 1] * cumulative[-1], side="right")
            else:
                idx = min(math.floor(uniforms[j - 1] * n), n - 1)
            centers[j] = rows[idx]
            d2 = np.minimum(d2, _kmeans_sq_distances(rows, row_norms, centers[j : j + 1])[:, 0])

        labels = None
        for _ in range(max_iter):
            d2 = _kmeans_sq_distances(rows, row_norms, centers)
            new_labels = d2.argmin(axis=1)
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
        offsets = rows - centers[labels]
        cost = float(np.einsum("ij,ij->", offsets, offsets))
        if cost < best_cost:
            best_cost, best_labels = cost, labels
    return best_labels
