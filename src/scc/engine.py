"""The spectral curvature clustering engine.

One run proceeds as: optionally project the data (PCA), draw c uniformly
random (d+1)-subsets, score every (point, subset) tuple by squared polar
curvature, sweep d+1 candidate bandwidths taken from order statistics of the
curvatures, spectrally cluster each candidate's affinity, keep the partition
of smallest total OLS error, then redraw the subsets from within the current
clusters and repeat until one of the stopping conditions below holds.

An iteration improves on the best partition when its error is lower by a
relative 1e-6, and only then replaces it. A run stops at the first of three
conditions: an iteration that does not improve returns the best partition's
grouping again ("repeat"); three consecutive iterations fail to improve
("patience"); or the iteration limit is reached ("limit"). Each iteration's
seeds are keyed by (seed, iteration), so a run that stops early is a prefix
of the run it would have made without the first condition. The returned
labels are numbered in order of first occurrence, so a result depends only
on the grouping found.

A sweep runs in two passes: each candidate's affinity and embedding, one
candidate at a time, then one k-means call over all the embeddings, each
with its own seed; each partition then gets its zero-degree attachment and
its OLS error, and the smallest error wins (the smallest q on a tie).
The affinities are computed as the spectral step reads them, and the
curvature matrix is freed after the last one, so a sweep holds at most
two (N, c) float arrays at once (see ``sweep_and_cluster``).

Subsets are drawn one pool at a time (the whole point set, or one cluster):
Floyd's algorithm, run one column at a time on all of the pool's rows, so a
pool costs d+1 generator calls however many subsets it supplies.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import re
import threading
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .curvature import affinity_from_curvatures, curvature_matrix
from .geometry import Partition, as_data_matrix, project_pca, total_ols_error
from .spectral import spectral_cluster_factored

# Unused here; kept as engine attributes because perfbench/tracing.py wraps them by name.
from .curvature import pairwise_weights  # noqa: F401
from .spectral import spectral_cluster  # noqa: F401

__all__ = [
    "SccConfig",
    "SccResult",
    "check_shape",
    "sample_initial",
    "sigma_candidates",
    "sweep_and_cluster",
    "resample_within",
    "scc_run",
]

_STREAM_INITIAL = 0
_STREAM_RESAMPLE = 1
_STREAM_SPECTRAL = 2

# relative drop in the best OLS error that counts as an improvement
_IMPROVEMENT_TOL = 1e-6
# consecutive iterations without an improvement that end a run
_PATIENCE = 3

# numpy's and scipy's wheels prefix their OpenBLAS symbols with scipy_openblas_
_OPENBLAS_THREAD_SYMBOLS = [
    (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
]
_BLAS_PIN_LOCK = threading.Lock()


def _normalize_projection(name: str) -> str:
    """Canonical name of a regime alias, in any case: ambient (alias 2F), 4K or d+1."""
    canon = {"ambient": "ambient", "2f": "ambient", "4k": "4K", "d+1": "d+1"}
    key = str(name).strip().lower()
    if key not in canon:
        raise ValueError(f"unknown projection regime {name!r}; expected one of ambient/2F/4K/d+1")
    return canon[key]


@dataclass(frozen=True)
class SccConfig:
    """Parameters of one clustering run.

    ``n_sample_sets`` defaults to 100 per cluster and ``max_iterations`` to
    max(10, 2 * (subspace_dim + 1)). An iteration improves when its OLS
    error is below the best's by a relative 1e-6; only then does its
    partition become the best. The run stops early once 3 consecutive
    iterations have failed to improve, or as soon as one that fails to
    improve groups the points as the best partition does: from the same
    clusters the next draw would search the same neighbourhood. The
    tolerance and the count of 3 are fixed.
    """

    subspace_dim: int
    n_clusters: int
    n_sample_sets: int | None = None
    max_iterations: int | None = None
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

    All error values refer to the working space of the run, i.e. the data
    after the configured projection (``working_dim`` rows).
    ``partition`` is the partition of the last iteration that improved (the
    first always does; see ``SccConfig``), its labels numbered in order of
    first occurrence, and ``ols_error`` is its error; no entry of
    ``per_iteration_errors`` (one per iteration run) is below it by a
    relative 1e-6. ``stop_reason`` says which condition ended the run:
    "repeat", "patience" or "limit"; when several hold at the same
    iteration, the first of that list is given.
    """

    partition: Partition
    ols_error: float
    sigma_sq_chosen: float
    q_chosen: int
    per_iteration_errors: list[float] = field(repr=False)
    working_dim: int
    stop_reason: str

    @property
    def iterations_run(self) -> int:
        return len(self.per_iteration_errors)


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
    return _draw_sets([np.arange(n_points)], [n_sets], subspace_dim + 1, rng)


def _draw_sets(pools, quotas, size: int, rng: np.random.Generator) -> np.ndarray:
    """quotas[j] draws of ``size`` distinct indices from pools[j], pool by pool.

    Floyd's algorithm, on all of a pool's rows at once, one column per step:
    for a pool of p indices, column j draws a position in [0, p - size + j],
    and a row that already holds it takes p - size + j instead. Every row is
    a uniformly random subset of its pool, from ``size`` generator calls.
    """
    blocks = []
    for pool, quota in zip(pools, quotas):
        top = len(pool) - size
        picks = np.empty((quota, size), dtype=np.int64)
        for j in range(size):
            drawn = rng.integers(0, top + j + 1, size=quota)
            taken = (picks[:, :j] == drawn[:, None]).any(axis=1)
            picks[:, j] = np.where(taken, top + j, drawn)
        blocks.append(pool[picks])
    return np.concatenate(blocks)


def sigma_candidates(curv, member, subspace_dim: int, n_clusters: int) -> list[float]:
    """The d+1 bandwidth candidates sigma^2, one per q = 1..d+1.

    ``curv`` holds squared curvatures and ``member`` is a boolean mask of
    its shape; the entries under the mask are left out. For the L entries
    outside it, candidate q is their entry at 1-based position
    round(L / K^q) in ascending order (round half up, clamped to the valid
    range; the input need not be sorted), used directly as sigma^2. The
    sweep passes the (N, c) curvature matrix and its member mask, so the
    candidates come from the (N-d-1)*c curvatures of the points outside
    their sampled sets.

    The work happens on one copy of ``curv``, whose member entries are set
    to +inf: they sort at or above every curvature, so the first L
    positions of the copy, sorted, hold the values of the L others, sorted
    (ties between a member and an infinite curvature are equal values).
    The positions never grow with q, so the candidates are selected
    largest first, each by one in-place partition of the front part the
    previous one kept: the whole copy for q = 1, about L/K entries for
    q = 2, and so on, so the member entries drop out after the first.
    Order statistics are exact, so the values are those of a full sort.
    The inputs are not modified, and the copy is the only array of their
    size that the call allocates. The narrowing selections are faster than
    one partition with every position (numpy's multi-kth selection), which
    works over the whole copy for each. Member entries set to -inf instead,
    with every position shifted past them, would stay in every narrowed
    part as ties, so +inf is the cheaper marker.
    """
    work = np.array(curv, dtype=np.float64, order="C")
    member = np.asarray(member, dtype=bool)
    if member.shape != work.shape:
        raise ValueError(f"member mask has shape {member.shape}, curvatures {work.shape}")
    length = work.size - int(np.count_nonzero(member))
    if length == 0:
        raise ValueError("need at least one curvature outside the member entries")
    work[member] = np.inf
    kept = work.reshape(-1)
    candidates = []
    for q in range(1, subspace_dim + 2):
        i = min(max(math.floor(length / n_clusters**q + 0.5), 1), length) - 1
        kept.partition(i)
        kept = kept[: i + 1]
        candidates.append(float(kept[i]))
    return candidates


def resample_within(
    partition: Partition, subspace_dim: int, n_sets: int, rng: np.random.Generator
) -> np.ndarray:
    """Redraw sample sets from within each cluster of the given partition.

    Each cluster receives floor(c/K) sets; leftover sets go to the largest
    clusters, one each, largest first (ties to the lowest cluster index).
    Clusters with fewer than d+1 points have their quota drawn from the
    whole dataset instead.
    """
    n = partition.size
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
    pools = [partition.members(j) for j in range(k)]
    pools = [pool if pool.size >= size else np.arange(n) for pool in pools]
    return _draw_sets(pools, quotas, size, rng)


def _first_occurrence_labels(labels: np.ndarray) -> np.ndarray:
    """The labels renumbered 0, 1, ... in order of first occurrence."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _same_grouping(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two labelings group the points alike, whatever numbers they give the groups."""
    return np.array_equal(_first_occurrence_labels(a), _first_occurrence_labels(b))


def _positive_floor(curv: np.ndarray) -> float:
    """Smallest positive finite curvature, used when a candidate sigma^2 is zero or infinite."""
    floor = float(np.min(curv, where=(curv > 0.0) & np.isfinite(curv), initial=np.inf))
    return floor if np.isfinite(floor) else 1.0


def _affinities(curv: np.ndarray, member: np.ndarray, sigmas: list[float]):
    """Each candidate's affinity in turn, computed when it is read."""
    for sigma_sq in sigmas:
        # looked up in this module at each call, where perfbench's tracer wraps it
        yield affinity_from_curvatures(curv, member, sigma_sq)


def sweep_and_cluster(
    data, sample_sets, config: SccConfig, iteration: int = 0
) -> tuple[Partition, float, int, float]:
    """Evaluate all bandwidth candidates and keep the partition of least OLS error.

    Returns (partition, sigma_sq, q, ols_error); ties in the error keep the
    smallest q. ``data`` is used as-is (any projection must already have
    been applied). Raises ValueError unless every sample set holds d+1
    points.

    Beside its inputs, a sweep holds at most the (N, c) curvature matrix,
    its member mask, one more (N, c) float array and small temporaries:
    the bandwidth selection's copy of the curvatures, then each candidate's
    affinity in turn, which the spectral step overwrites and drops before
    it reads the next. The curvature matrix and the mask are freed after
    the last affinity, before the k-means batch.
    """
    X = as_data_matrix(data)
    d = config.subspace_dim
    k = config.n_clusters
    # the bandwidth positions round(L / K^q), q = 1..d+1, assume flats spanned by d+1 points
    if np.shape(sample_sets)[1:] != (d + 1,):
        raise ValueError(f"sample sets must hold d+1 = {d + 1} points each, got shape {np.shape(sample_sets)}")

    curv, member = curvature_matrix(X, sample_sets)
    sigmas = sigma_candidates(curv, member, d, k)
    # exact fits give zero curvatures and duplicated points +inf ones;
    # either as sigma^2 would make the kernel unusable
    if not all(0.0 < s < math.inf for s in sigmas):
        floor_sigma = _positive_floor(curv)  # member entries are zero, so never the floor
        sigmas = [s if 0.0 < s < math.inf else floor_sigma for s in sigmas]
    seeds = [
        seeding.derived_seed(config.seed, _STREAM_SPECTRAL, iteration, q)
        for q in range(1, len(sigmas) + 1)
    ]
    # the generator holds the last references to curv and member, so both
    # are freed once the spectral step has read the last affinity, before
    # its k-means batch allocates
    affinities = _affinities(curv, member, sigmas)
    del curv, member
    partitions = spectral_cluster_factored(affinities, k, seeds, data=X, subspace_dim=d)

    best = None
    for q, (partition, sigma_sq) in enumerate(zip(partitions, sigmas), start=1):
        error = total_ols_error(X, partition, d)
        if best is None or error < best[3]:
            best = (partition, float(sigma_sq), q, float(error))
    return best


@functools.cache
def _blas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of each OpenBLAS in this process.

    The lookup runs once, at the first call, and finds every OpenBLAS
    mapped then (numpy's, and any other library's, such as scipy's, each
    with its own thread pool); it serves the process and any worker forked
    after it. scc computes only through numpy's, so an OpenBLAS that loads
    later, with a later scipy import, does not touch a run. Empty without
    /proc/self/maps or an OpenBLAS.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            maps = handle.read()
    except OSError:
        return ()
    controls = []
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the previous counts.

    The counts are process-wide, so the lock keeps concurrent callers from
    interleaving their saves and restores.
    """
    controls = _blas_thread_controls()
    with _BLAS_PIN_LOCK:
        previous = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(1)
        try:
            yield
        finally:
            for (_, set_threads), count in zip(controls, previous):
                set_threads(count)


def check_shape(config: SccConfig, shape) -> int:
    """The working dimension of a run of ``config`` on (D, N) data of this shape.

    Raises ValueError when no run can be made on such data: N below d+2,
    fewer points than clusters, or d above the working dimension.
    """
    ambient, n = shape
    d = config.subspace_dim
    if n < d + 2:
        raise ValueError(f"need at least d+2 = {d + 2} points, got {n}")
    if n < config.n_clusters:
        raise ValueError("cannot ask for more clusters than points")
    work_dim = config.projection_dim(ambient)
    if d > work_dim:
        raise ValueError(f"subspace_dim {d} exceeds the working dimension {work_dim}")
    return work_dim


def scc_run(data, config: SccConfig) -> SccResult:
    """Run the full clustering pipeline on a (D, N) data matrix.

    The run computes on one OpenBLAS thread and then restores the caller's
    counts: a multi-threaded OpenBLAS rounds its sums differently, which can
    tip a near-tie into another partition. Concurrent calls run one at a time.
    Raises ValueError when ``check_shape`` rejects the data's shape, and
    when every point of the working data (the data after the projection)
    coincides, since no partition of it means anything.
    """
    with _one_blas_thread():
        X = as_data_matrix(data)
        n = X.shape[1]
        d = config.subspace_dim
        work = project_pca(X, check_shape(config, X.shape))
        if (work == work[:, :1]).all():
            raise ValueError("every point of the working data coincides: there is nothing to cluster")

        c = config.sample_set_count
        sets = sample_initial(n, d, c, seeding.generator(config.seed, _STREAM_INITIAL, 0))

        best: tuple[Partition, float, int, float] | None = None
        per_iteration: list[float] = []
        stalled = 0
        stop_reason = "limit"
        for iteration in range(1, config.iteration_limit + 1):
            partition, sigma_sq, q, error = sweep_and_cluster(work, sets, config, iteration)
            per_iteration.append(error)
            if best is None or error < best[3] * (1.0 - _IMPROVEMENT_TOL):
                best = (partition, sigma_sq, q, error)
                stalled = 0
            elif _same_grouping(partition.labels, best[0].labels):
                stop_reason = "repeat"
                break
            else:
                stalled += 1
                if stalled >= _PATIENCE:
                    stop_reason = "patience"
                    break
            if iteration < config.iteration_limit:
                sets = resample_within(
                    partition, d, c, seeding.generator(config.seed, _STREAM_RESAMPLE, iteration)
                )

        partition, sigma_sq, q, error = best
        return SccResult(
            partition=Partition(_first_occurrence_labels(partition.labels), partition.n_clusters),
            ols_error=error,
            sigma_sq_chosen=sigma_sq,
            q_chosen=q,
            per_iteration_errors=per_iteration,
            working_dim=work.shape[0],
            stop_reason=stop_reason,
        )
