"""The spectral curvature clustering engine.

One run proceeds as: optionally project the data (PCA), draw c random
(d+1)-subsets, score every (point, subset) tuple by squared polar curvature,
sweep d+1 candidate bandwidths taken from order statistics of the
curvatures, spectrally cluster each candidate's affinity, keep the partition
of smallest total OLS error, then redraw the subsets from within the current
clusters and repeat until the best error stops improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .curvature import affinity_from_curvatures, curvature_matrix
from .geometry import (
    AffineSubspace,
    Partition,
    as_data_matrix,
    fit_affine_ols,
    project_pca,
    total_ols_error,
)
from .spectral import spectral_cluster_factored

# Unused here; kept as engine attributes because perfbench/tracing.py wraps them by name.
from .curvature import pairwise_weights  # noqa: F401
from .spectral import spectral_cluster  # noqa: F401

__all__ = [
    "PROJECTION_REGIMES",
    "SccConfig",
    "SccResult",
    "sample_initial",
    "sigma_candidates",
    "sweep_and_cluster",
    "resample_within",
    "scc_run",
]

# Projection regimes: ambient trajectory space (2F), PCA to 4K, or PCA to d+1.
PROJECTION_REGIMES = ("ambient", "4K", "d+1")

_STREAM_INITIAL = 0
_STREAM_RESAMPLE = 1
_STREAM_SPECTRAL = 2


def _normalize_projection(name: str) -> str:
    canon = {"ambient": "ambient", "2f": "ambient", "4k": "4K", "d+1": "d+1"}
    key = str(name).strip().lower()
    if key not in canon:
        raise ValueError(f"unknown projection regime {name!r}; expected one of ambient/2F/4K/d+1")
    return canon[key]


@dataclass(frozen=True)
class SccConfig:
    """Parameters of one clustering run.

    ``n_sample_sets`` defaults to 100 per cluster and ``max_iterations`` to
    max(10, 2 * (subspace_dim + 1)). The run stops early once the best OLS
    error has failed to improve by a relative ``improvement_tol`` for
    ``patience`` consecutive iterations.
    """

    subspace_dim: int
    n_clusters: int
    n_sample_sets: int | None = None
    max_iterations: int | None = None
    improvement_tol: float = 1e-6
    patience: int = 3
    seed: int = 0
    projection: str = "ambient"

    def __post_init__(self):
        if self.subspace_dim < 1:
            raise ValueError("subspace_dim must be at least 1")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if self.n_sample_sets is not None and self.n_sample_sets < self.n_clusters:
            raise ValueError("n_sample_sets must be at least n_clusters")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.improvement_tol < 0.0:
            raise ValueError("improvement_tol must be nonnegative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "projection", _normalize_projection(self.projection))

    @property
    def sample_set_count(self) -> int:
        return self.n_sample_sets if self.n_sample_sets is not None else 100 * self.n_clusters

    @property
    def iteration_limit(self) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return max(10, 2 * (self.subspace_dim + 1))

    def projection_dim(self, ambient_dim: int) -> int:
        if self.projection == "4K":
            return min(4 * self.n_clusters, ambient_dim)
        if self.projection == "d+1":
            return min(self.subspace_dim + 1, ambient_dim)
        return ambient_dim


@dataclass(frozen=True)
class SccResult:
    """Best partition found plus the diagnostics of the run.

    All error values and the fitted subspaces refer to the working space of
    the run, i.e. the data after the configured projection
    (``working_dim`` rows). ``ols_error`` is the minimum of
    ``per_iteration_errors``; ``subspaces`` holds one fit per cluster, None
    for empty clusters.
    """

    partition: Partition
    ols_error: float
    sigma_sq_chosen: float
    q_chosen: int
    iterations_run: int
    per_iteration_errors: list[float] = field(repr=False)
    subspaces: list[AffineSubspace | None] = field(repr=False)
    working_dim: int = 0


def sample_initial(
    n_points: int, subspace_dim: int, n_sets: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_sets`` subsets of d+1 distinct point indices, uniformly."""
    if n_points < subspace_dim + 2:
        raise ValueError(
            f"need at least {subspace_dim + 2} points to sample (d+1)-subsets with a complement"
        )
    if n_sets < 1:
        raise ValueError("n_sets must be at least 1")
    size = subspace_dim + 1
    sets = np.empty((n_sets, size), dtype=np.int64)
    for r in range(n_sets):
        sets[r] = rng.choice(n_points, size=size, replace=False)
    return sets


def sigma_candidates(
    sq_curvatures,
    n_points: int,
    subspace_dim: int,
    n_sets: int,
    n_clusters: int,
) -> list[float]:
    """The d+1 bandwidth candidates sigma^2, one per q = 1..d+1.

    Candidate q is the order statistic of the curvature vector (its entry
    in ascending order; the input need not be sorted) at 1-based position
    round((N-d-1)*c / K^q) (round half up, clamped to the valid range); it
    is used directly as sigma^2.
    """
    vec = np.asarray(sq_curvatures, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError("curvature vector must be a nonempty 1-D array")
    expected = (n_points - subspace_dim - 1) * n_sets
    if vec.size != expected:
        raise ValueError(f"curvature vector has length {vec.size}, expected {expected}")
    length = vec.size
    indices = [
        min(max(math.floor(length / n_clusters**q + 0.5), 1), length) - 1
        for q in range(1, subspace_dim + 2)
    ]
    ordered = np.partition(vec, indices)
    return [float(ordered[i]) for i in indices]


def resample_within(
    partition: Partition, data, subspace_dim: int, n_sets: int, rng: np.random.Generator
) -> np.ndarray:
    """Redraw sample sets from within each cluster of the given partition.

    Each cluster receives floor(c/K) sets; leftover sets go to the largest
    clusters, one each, largest first (ties to the lowest cluster index).
    Clusters with fewer than d+1 points have their quota drawn from the
    whole dataset instead.
    """
    X = as_data_matrix(data)
    n = X.shape[1]
    if partition.size != n:
        raise ValueError("partition does not match the data")
    k = partition.n_clusters
    base, remainder = divmod(n_sets, k)
    sizes = partition.sizes()
    by_size = sorted(range(k), key=lambda j: (-int(sizes[j]), j))
    quotas = [base] * k
    for j in range(remainder):
        quotas[by_size[j]] += 1

    size = subspace_dim + 1
    if n < size + 1:
        raise ValueError("not enough points to resample")
    sets = np.empty((n_sets, size), dtype=np.int64)
    row = 0
    for j in range(k):
        members = partition.members(j)
        pool = members if members.size >= size else np.arange(n)
        for _ in range(quotas[j]):
            sets[row] = rng.choice(pool, size=size, replace=False)
            row += 1
    return sets


def _positive_floor(curv: np.ndarray) -> float:
    """Smallest positive finite curvature, used when a candidate sigma^2 is zero."""
    floor = float(np.min(curv, where=(curv > 0.0) & np.isfinite(curv), initial=np.inf))
    return floor if np.isfinite(floor) else 1.0


def sweep_and_cluster(
    data, sample_sets, config: SccConfig, iteration: int = 0
) -> tuple[Partition, float, int, float]:
    """Evaluate all bandwidth candidates and keep the partition of least OLS error.

    Returns (partition, sigma_sq, q, ols_error); ties in the error keep the
    smallest q. ``data`` is used as-is (any projection must already have
    been applied).
    """
    X = as_data_matrix(data)
    n = X.shape[1]
    d = config.subspace_dim
    k = config.n_clusters

    curv, member = curvature_matrix(X, sample_sets)
    candidates = sigma_candidates(curv[~member], n, d, sample_sets.shape[0], k)
    floor_sigma = _positive_floor(curv)  # member entries are zero, so never the floor

    best = None
    for q, sigma_sq in enumerate(candidates, start=1):
        if not sigma_sq > 0.0:  # exact-fit curvatures can be zero; keep the kernel usable
            sigma_sq = floor_sigma
        affinity = affinity_from_curvatures(curv, member, sigma_sq)
        seed_q = seeding.derived_seed(config.seed, _STREAM_SPECTRAL, iteration, q)
        partition = spectral_cluster_factored(affinity, k, seed_q, data=X, subspace_dim=d)
        error = total_ols_error(X, partition, d)
        if best is None or error < best[3]:
            best = (partition, float(sigma_sq), q, float(error))
    return best


def scc_run(data, config: SccConfig) -> SccResult:
    """Run the full clustering pipeline on a (D, N) data matrix."""
    X = as_data_matrix(data)
    n = X.shape[1]
    d = config.subspace_dim
    if n < d + 2:
        raise ValueError(f"need at least d+2 = {d + 2} points, got {n}")
    if n < config.n_clusters:
        raise ValueError("cannot ask for more clusters than points")

    target = config.projection_dim(X.shape[0])
    work = project_pca(X, target) if target < X.shape[0] else X

    c = config.sample_set_count
    sets = sample_initial(n, d, c, seeding.generator(config.seed, _STREAM_INITIAL, 0))

    best: tuple[Partition, float, int, float] | None = None
    per_iteration: list[float] = []
    stalled = 0
    for iteration in range(1, config.iteration_limit + 1):
        partition, sigma_sq, q, error = sweep_and_cluster(work, sets, config, iteration)
        per_iteration.append(error)
        if best is None:
            best, improved = (partition, sigma_sq, q, error), True
        else:
            improved = error < best[3] * (1.0 - config.improvement_tol) and best[3] > 0.0
            if error < best[3]:
                best = (partition, sigma_sq, q, error)
        stalled = 0 if improved else stalled + 1
        if stalled >= config.patience:
            break
        if iteration < config.iteration_limit:
            sets = resample_within(
                partition, work, d, c, seeding.generator(config.seed, _STREAM_RESAMPLE, iteration)
            )

    partition, sigma_sq, q, error = best
    subspaces: list[AffineSubspace | None] = []
    for k in range(partition.n_clusters):
        members = partition.members(k)
        if members.size == 0:
            subspaces.append(None)
        else:
            subspaces.append(fit_affine_ols(work[:, members], min(d, members.size - 1)))

    return SccResult(
        partition=partition,
        ols_error=error,
        sigma_sq_chosen=sigma_sq,
        q_chosen=q,
        iterations_run=len(per_iteration),
        per_iteration_errors=per_iteration,
        subspaces=subspaces,
        working_dim=work.shape[0],
    )
