"""Trajectory sequence files and synthetic data generators.

Sequence file format (UTF-8, whitespace separated, extension ``.seq``):

    line 1:            SEQ <id> F=<frames> N=<points> K=<clusters or 0> CAT=<category>
    line 2 (optional): LABELS <N integers>
    next 2F lines:     N decimal numbers each; line 2i-1 holds the
                       x-coordinates of frame i, line 2i the y-coordinates.

Floats are written with 17 significant digits so a save/load round trip is
bit exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeding
from .geometry import Partition, as_data_matrix, total_ols_error

__all__ = [
    "SequenceParseError",
    "SequenceRecord",
    "SynthSpec",
    "load_sequence",
    "save_sequence",
    "synth_subspace_mixture",
    "synth_affine_motion",
]

_HEADER_RE = re.compile(
    r"^SEQ\s+(?P<id>\S+)\s+F=(?P<frames>\d+)\s+N=(?P<points>\d+)"
    r"\s+K=(?P<clusters>\d+)\s+CAT=(?P<category>\S+)\s*$"
)

_STREAM_MIXTURE = 10
_STREAM_MOTION = 11

# per-frame rotation steps are bounded by this angle (radians)
_MAX_ROTATION_STEP = 0.2
# length of each body's per-frame translation step, and the standard
# deviation of each per-frame camera offset step
_MOTION_STEP = 0.1


class SequenceParseError(ValueError):
    """A malformed sequence file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


@dataclass(frozen=True)
class SequenceRecord:
    """A tracked-feature sequence: 2F x N trajectory matrix plus metadata.

    Column j stacks the image coordinates of feature j over all frames, so
    the matrix needs an even number of rows; ``n_frames`` (F) and
    ``n_points`` (N) are read off its shape. ``truth_labels`` is present
    only when the file carried a LABELS row; ``n_motions`` is 0 when
    unknown. With truth labels, ``n_motions`` is their cluster count: a 0
    is filled in from them, and any other value that disagrees raises
    ValueError.
    """

    sequence_id: str
    trajectories: np.ndarray
    truth_labels: Partition | None = None
    category: str = "synthetic"
    n_motions: int = 0

    def __post_init__(self):
        for field in ("sequence_id", "category"):
            value = getattr(self, field)
            if not value or any(ch.isspace() for ch in value):
                raise ValueError(f"{field} must be nonempty and contain no whitespace")
        traj = as_data_matrix(self.trajectories)
        if traj.shape[0] % 2 != 0:
            raise ValueError(f"trajectory matrix has {traj.shape[0]} rows, expected an even number (2F)")
        object.__setattr__(self, "trajectories", traj)
        if self.n_motions < 0:
            raise ValueError("n_motions must be nonnegative")
        if self.truth_labels is not None:
            if self.truth_labels.size != self.n_points:
                raise ValueError("truth labels do not match the number of points")
            if self.n_motions == 0:
                object.__setattr__(self, "n_motions", self.truth_labels.n_clusters)
            elif self.n_motions != self.truth_labels.n_clusters:
                raise ValueError(
                    f"n_motions={self.n_motions} but truth labels have "
                    f"{self.truth_labels.n_clusters} clusters"
                )

    @property
    def n_frames(self) -> int:
        return self.trajectories.shape[0] // 2

    @property
    def n_points(self) -> int:
        return self.trajectories.shape[1]


def load_sequence(path) -> SequenceRecord:
    """Parse a ``.seq`` file; raises SequenceParseError with a line number."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line_no = len((raw[: exc.start].decode("utf-8") + "?").splitlines())
        raise SequenceParseError(path, line_no, f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    if not lines:
        raise SequenceParseError(path, 1, "empty file")

    match = _HEADER_RE.match(lines[0])
    if match is None:
        raise SequenceParseError(
            path, 1, "malformed header, expected 'SEQ <id> F=<F> N=<N> K=<K> CAT=<category>'"
        )
    seq_id = match["id"]
    n_frames = int(match["frames"])
    n_points = int(match["points"])
    header_k = int(match["clusters"])
    category = match["category"]
    if n_frames < 1:
        raise SequenceParseError(path, 1, "frame count must be at least 1")
    if n_points < 1:
        raise SequenceParseError(path, 1, "point count must be at least 1")

    cursor = 1  # 0-based index of the next unread line
    labels = None
    if cursor < len(lines) and lines[cursor].lstrip().startswith("LABELS"):
        tokens = lines[cursor].split()
        if len(tokens) != n_points + 1:
            raise SequenceParseError(
                path, cursor + 1, f"LABELS row must carry {n_points} integers, got {len(tokens) - 1}"
            )
        try:
            labels = np.array([int(t) for t in tokens[1:]], dtype=np.int64)
        except ValueError as exc:
            raise SequenceParseError(path, cursor + 1, f"bad label: {exc}") from None
        if labels.min() < 0:
            raise SequenceParseError(path, cursor + 1, "labels must be nonnegative")
        cursor += 1

    rows = np.empty((2 * n_frames, n_points))
    for i in range(2 * n_frames):
        line_no = cursor + i + 1
        if cursor + i >= len(lines):
            raise SequenceParseError(
                path, line_no, f"unexpected end of file, expected {2 * n_frames} coordinate rows"
            )
        tokens = lines[cursor + i].split()
        if len(tokens) != n_points:
            raise SequenceParseError(
                path, line_no, f"expected {n_points} values, got {len(tokens)}"
            )
        try:
            rows[i] = list(map(float, tokens))
        except ValueError as exc:
            raise SequenceParseError(path, line_no, f"bad number: {exc}") from None
        if not np.isfinite(rows[i]).all():
            raise SequenceParseError(path, line_no, "non-finite value in coordinate row")
    cursor += 2 * n_frames
    for extra in range(cursor, len(lines)):
        if lines[extra].strip():
            raise SequenceParseError(path, extra + 1, "unexpected extra content after data rows")

    truth = None
    n_motions = header_k
    if labels is not None:
        inferred = int(labels.max()) + 1
        if header_k and inferred > header_k:
            raise SequenceParseError(path, 2, f"label {inferred - 1} exceeds header K={header_k}")
        n_motions = header_k if header_k else inferred
        truth = Partition(labels, n_motions)

    return SequenceRecord(
        sequence_id=seq_id,
        trajectories=rows,
        truth_labels=truth,
        category=category,
        n_motions=n_motions,
    )


def save_sequence(path, record: SequenceRecord) -> None:
    """Write a record in the ``.seq`` format (17 significant digits per value)."""
    path = Path(path)
    lines = [
        f"SEQ {record.sequence_id} F={record.n_frames} N={record.n_points} "
        f"K={record.n_motions} CAT={record.category}"
    ]
    if record.truth_labels is not None:
        lines.append("LABELS " + " ".join(map(str, record.truth_labels.labels.tolist())))
    # "%.17g" writes each value as f"{v:.17g}" does
    row_format = " ".join(["%.17g"] * record.n_points)
    lines.extend(row_format % tuple(row) for row in record.trajectories.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic generators.

    ``noise_sigma`` is relative to the diameter of the clean data.
    ``subspace_dim``/``ambient_dim`` drive the mixture generator;
    ``n_frames`` drives the motion generator, which always builds 3-D rigid
    bodies moved by translation steps of length 0.1.
    """

    n_clusters: int
    points_per_cluster: int
    subspace_dim: int = 3
    ambient_dim: int = 10
    noise_sigma: float = 0.0
    seed: int = 0
    n_frames: int = 30

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if self.subspace_dim < 1:
            raise ValueError("subspace_dim must be at least 1")
        if self.points_per_cluster < self.subspace_dim + 2:
            raise ValueError("points_per_cluster must be at least subspace_dim + 2")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


# entries (4 MB) of the first row block of squared distances in ``_diameter``;
# blocks narrow as the scan moves down the triangle
_DIAMETER_BLOCK_ENTRIES = 1 << 19


def _diameter(X: np.ndarray) -> float:
    """Largest distance between columns, as |x|^2 + |y|^2 - 2 x.y, one row block of the upper triangle at a time.

    Entries (i, j) and (j, i) are the same sum of the same products, so
    each block is scanned only against the columns from its own first row
    on. Scaling the block before the product keeps numpy from sending a
    block that is all of X to syrk, which rounds differently.
    """
    n = X.shape[1]
    norms = np.einsum("ij,ij->j", X, X)
    rows = max(1, _DIAMETER_BLOCK_ENTRIES // n)
    largest = 0.0
    for start in range(0, n, rows):
        block = X[:, start : start + rows]
        sq = np.add.outer(norms[start : start + rows], norms[start:])
        sq -= 2.0 * block.T @ X[:, start:]
        largest = max(largest, float(sq.max()))
    return float(np.sqrt(largest))


def _finalize(X: np.ndarray, spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.noise_sigma > 0.0:
        X = X + rng.normal(0.0, spec.noise_sigma * _diameter(X), size=X.shape)
    return X


def synth_subspace_mixture(spec: SynthSpec) -> tuple[np.ndarray, Partition]:
    """Points from K random affine subspaces of the given dimension, plus labels.

    Bases come from QR of seeded Gaussian matrices, origins are uniform in
    [-1, 1]^D, and in-subspace coefficients are uniform in the unit ball.
    Deterministic for a fixed spec.
    """
    if spec.subspace_dim >= spec.ambient_dim:
        raise ValueError("subspace_dim must be smaller than ambient_dim")
    rng = seeding.generator(spec.seed, _STREAM_MIXTURE)
    d, big_d, per = spec.subspace_dim, spec.ambient_dim, spec.points_per_cluster
    blocks = []
    for _ in range(spec.n_clusters):
        basis, _ = np.linalg.qr(rng.standard_normal((big_d, d)))
        origin = rng.uniform(-1.0, 1.0, big_d)
        directions = rng.standard_normal((d, per))
        directions /= np.linalg.norm(directions, axis=0, keepdims=True)
        radii = rng.random(per) ** (1.0 / d)
        blocks.append(origin[:, None] + basis @ (directions * radii))
    X = np.concatenate(blocks, axis=1)
    labels = np.repeat(np.arange(spec.n_clusters), per)
    return _finalize(X, spec, rng), Partition(labels, spec.n_clusters)


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * (cross @ cross)


def synth_affine_motion(spec: SynthSpec) -> SequenceRecord:
    """Trajectories of K rigid 3-D bodies under an affine camera, with labels.

    Each body is a seeded Gaussian point cloud moved by a random walk of
    bounded-angle rotations and fixed-magnitude translation steps, imaged
    by one random 2x3 affine camera with a per-frame offset. Every body's
    trajectories then lie in an affine subspace of dimension at most 3 of
    the 2F-dimensional trajectory space; with zero noise this containment
    is checked before returning.
    """
    if spec.n_frames < 2:
        raise ValueError("motion synthesis needs at least 2 frames")
    rng = seeding.generator(spec.seed, _STREAM_MOTION)
    frames, per, k = spec.n_frames, spec.points_per_cluster, spec.n_clusters

    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    camera = q[:2]
    camera_offsets = np.cumsum(
        rng.normal(0.0, _MOTION_STEP, size=(frames, 2)), axis=0
    )

    blocks = []
    for _ in range(k):
        cloud = rng.standard_normal((3, per))
        # independent initial pose per body, as unrelated objects in a scene
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        translation = rng.uniform(-1.0, 1.0, 3)
        body_rows = np.empty((2 * frames, per))
        for i in range(frames):
            if i > 0:
                axis = rng.standard_normal(3)
                angle = rng.uniform(0.0, _MAX_ROTATION_STEP)
                rotation = _rotation_matrix(axis, angle) @ rotation
                step = rng.standard_normal(3)
                step *= _MOTION_STEP / np.linalg.norm(step)
                translation = translation + step
            world = rotation @ cloud + translation[:, None]
            image = camera @ world + camera_offsets[i][:, None]
            body_rows[2 * i] = image[0]
            body_rows[2 * i + 1] = image[1]
        blocks.append(body_rows)

    trajectories = _finalize(np.concatenate(blocks, axis=1), spec, rng)
    labels = Partition(np.repeat(np.arange(k), per), k)

    if spec.noise_sigma == 0.0:
        _check_affine_containment(trajectories, labels)

    return SequenceRecord(
        sequence_id=f"motion-K{k}-F{frames}-N{k * per}-seed{spec.seed}",
        trajectories=trajectories,
        truth_labels=labels,
    )


def _check_affine_containment(trajectories: np.ndarray, labels: Partition) -> None:
    """Every noiseless body must fit a 3-dim affine subspace to 1e-9 relative."""
    for k in range(labels.n_clusters):
        block = trajectories[:, labels.members(k)]
        whole = Partition(np.zeros(block.shape[1], dtype=np.int64), 1)
        residual = total_ols_error(block, whole, 3)
        scatter = total_ols_error(block, whole, 0)
        if residual > 1e-9 * scatter:
            raise RuntimeError(
                f"generated body {k} is not contained in a 3-dim affine subspace "
                f"(relative residual {residual / scatter:.3e})"
            )
