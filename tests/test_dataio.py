import numpy as np
import pytest

from scc import dataio
from scc.dataio import (
    SequenceParseError,
    SequenceRecord,
    SynthSpec,
    load_sequence,
    save_sequence,
    synth_affine_motion,
    synth_subspace_mixture,
)
from scc.engine import SccConfig, scc_run
from scc.evaluation import misclassification_rate
from scc.geometry import Partition, fit_affine_ols, subspace_sq_distances, total_ols_error

from oracles import diameter_full_scan, seq_text_per_value, total_scatter

MINIMAL = """SEQ tiny F=2 N=3 K=0 CAT=other
1 2 3
4 5 6
7 8 9
10 11 12
"""


def _write(tmp_path, text, name="seq.seq"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_minimal_sequence(tmp_path):
    record = load_sequence(_write(tmp_path, MINIMAL))
    assert record.sequence_id == "tiny"
    assert record.n_frames == 2 and record.n_points == 3
    assert record.trajectories.shape == (4, 3)
    assert record.truth_labels is None
    assert record.category == "other"
    assert record.trajectories[0].tolist() == [1.0, 2.0, 3.0]


def test_load_sequence_with_labels(tmp_path):
    lines = MINIMAL.splitlines()
    lines.insert(1, "LABELS 0 0 1")
    record = load_sequence(_write(tmp_path, "\n".join(lines) + "\n"))
    assert record.truth_labels is not None
    assert record.truth_labels.n_clusters == 2
    assert record.n_motions == 2


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    record = SequenceRecord(
        sequence_id="rt",
        trajectories=rng.standard_normal((6, 5)) * np.pi,
        truth_labels=Partition(np.array([0, 1, 1, 0, 2]), 3),
        category="synthetic",
        n_motions=3,
    )
    path = tmp_path / "rt.seq"
    save_sequence(path, record)
    loaded = load_sequence(path)
    assert np.array_equal(loaded.trajectories, record.trajectories)
    assert np.array_equal(loaded.truth_labels.labels, record.truth_labels.labels)
    save_sequence(tmp_path / "rt2.seq", loaded)
    assert (tmp_path / "rt.seq").read_bytes() == (tmp_path / "rt2.seq").read_bytes()


def test_writer_formats_every_value_as_the_per_value_oracle(tmp_path):
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 3.0]
    record = SequenceRecord(
        sequence_id="edge",
        trajectories=np.array([extremes, extremes[::-1]]),
        truth_labels=Partition(np.array([0, 1, 1, 0, 2, 0]), 3),
    )
    path = tmp_path / "edge.seq"
    save_sequence(path, record)
    assert path.read_bytes() == seq_text_per_value(record).encode("utf-8")
    loaded = load_sequence(path)
    assert loaded.trajectories.tobytes() == record.trajectories.tobytes()
    assert np.array_equal(loaded.truth_labels.labels, record.truth_labels.labels)
    save_sequence(tmp_path / "again.seq", loaded)
    assert (tmp_path / "again.seq").read_bytes() == path.read_bytes()


def test_n_motions_follows_truth_labels(tmp_path):
    fields = dict(sequence_id="nm", trajectories=np.zeros((2, 4)))
    truth = Partition(np.array([0, 1, 1, 0]), 2)
    record = SequenceRecord(**fields, truth_labels=truth)
    assert record.n_motions == 2
    save_sequence(tmp_path / "nm.seq", record)
    assert load_sequence(tmp_path / "nm.seq").truth_labels.n_clusters == 2
    with pytest.raises(ValueError, match="n_motions"):
        SequenceRecord(**fields, truth_labels=truth, n_motions=3)
    with pytest.raises(ValueError, match="n_motions must be nonnegative"):
        SequenceRecord(**fields, n_motions=-1)
    with pytest.raises(ValueError, match="truth labels do not match the number of points"):
        SequenceRecord(**fields, truth_labels=Partition(np.array([0, 1, 1]), 2))
    assert SequenceRecord(**fields, n_motions=3).n_motions == 3  # no labels, nothing to check


@pytest.mark.parametrize("category", ["two words", ""])
def test_category_the_file_format_cannot_hold_is_rejected(tmp_path, category):
    # CAT=<category> is one whitespace-free token in the header
    with pytest.raises(ValueError, match="category"):
        SequenceRecord("s1", np.zeros((4, 3)), category=category)
    record = SequenceRecord("s1", np.zeros((4, 3)), category="two_words")
    save_sequence(tmp_path / "s1.seq", record)
    assert load_sequence(tmp_path / "s1.seq").category == "two_words"


@pytest.mark.parametrize(
    "mutate, line_no",
    [
        (lambda lines: ["WRONG header"] + lines[1:], 1),
        (lambda lines: lines[:1] + ["LABELS 0 0"] + lines[1:], 2),
        (lambda lines: lines[:2] + ["4 5"] + lines[3:], 3),
        (lambda lines: lines[:2] + ["4 5 nope"] + lines[3:], 3),
        (lambda lines: lines[:2] + ["4 5 inf"] + lines[3:], 3),
        # the finiteness check runs row by row: the first bad row is reported
        (lambda lines: lines[:2] + ["4 5 inf", "7 8 nope"] + lines[4:], 3),
        (lambda lines: lines[:4], 5),
        (lambda lines: lines + ["99 99 99"], 6),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, mutate, line_no):
    lines = MINIMAL.splitlines()
    path = _write(tmp_path, "\n".join(mutate(lines)) + "\n")
    with pytest.raises(SequenceParseError) as err:
        load_sequence(path)
    assert err.value.line_no == line_no
    assert f":{line_no}:" in str(err.value)


@pytest.mark.parametrize(
    "mutate, line_no, message",
    [
        (lambda lines: [], 1, "empty file"),
        (lambda lines: [lines[0].replace("F=2", "F=0")] + lines[1:], 1, "frame count must be at least 1"),
        (lambda lines: [lines[0].replace("N=3", "N=0")] + lines[1:], 1, "point count must be at least 1"),
        (lambda lines: lines[:1] + ["LABELS 0 x 1"] + lines[1:], 2, "bad label: invalid literal"),
        (lambda lines: lines[:1] + ["LABELS 0 -1 1"] + lines[1:], 2, "labels must be nonnegative"),
    ],
    ids=["empty-file", "no-frames", "no-points", "non-integer-label", "negative-label"],
)
def test_header_and_label_errors_name_their_cause(tmp_path, mutate, line_no, message):
    path = _write(tmp_path, "".join(line + "\n" for line in mutate(MINIMAL.splitlines())))
    with pytest.raises(SequenceParseError, match=f":{line_no}: {message}"):
        load_sequence(path)


def test_undecodable_bytes_carry_their_line_number(tmp_path):
    path = tmp_path / "binary.seq"
    lines = MINIMAL.encode("utf-8").splitlines()
    lines[2] = b"4 5 \xff"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with pytest.raises(SequenceParseError) as err:
        load_sequence(path)
    assert err.value.line_no == 3
    assert "not UTF-8" in str(err.value)


def test_label_exceeding_header_k_is_rejected(tmp_path):
    lines = MINIMAL.replace("K=0", "K=2").splitlines()
    lines.insert(1, "LABELS 0 1 2")
    with pytest.raises(SequenceParseError):
        load_sequence(_write(tmp_path, "\n".join(lines) + "\n"))


def test_mixture_points_lie_on_their_subspaces():
    spec = SynthSpec(n_clusters=2, points_per_cluster=100, subspace_dim=3, ambient_dim=10, seed=4)
    data, truth = synth_subspace_mixture(spec)
    assert data.shape == (10, 200)
    assert truth.sizes().tolist() == [100, 100]
    assert total_ols_error(data, truth, 3) <= 1e-16 * total_scatter(data)


def test_mixture_single_cluster_labels():
    spec = SynthSpec(n_clusters=1, points_per_cluster=10, subspace_dim=2, ambient_dim=5, seed=1)
    _, truth = synth_subspace_mixture(spec)
    assert (truth.labels == 0).all()


def test_mixture_noise():
    noisy = SynthSpec(n_clusters=2, points_per_cluster=20, subspace_dim=2, ambient_dim=6, seed=2, noise_sigma=0.1)
    clean = SynthSpec(n_clusters=2, points_per_cluster=20, subspace_dim=2, ambient_dim=6, seed=2)
    data_noisy, _ = synth_subspace_mixture(noisy)
    data_clean, _ = synth_subspace_mixture(clean)
    assert not np.allclose(data_noisy, data_clean)


@pytest.mark.parametrize("block_entries", [1, 7 * 300, dataio._DIAMETER_BLOCK_ENTRIES])
def test_diameter_matches_direct_pairwise_max(monkeypatch, block_entries):
    # one row per block, ragged blocks of 7 rows, and one block
    monkeypatch.setattr(dataio, "_DIAMETER_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(5)
    # the norm expansion cancels (shift / spread)^2 * eps of the squared
    # distances: 100 spreads from the origin still keeps 1e-12
    for shift in (0.0, 100.0):
        X = rng.standard_normal((6, 300)) + shift
        direct = max(float(np.linalg.norm(X - X[:, [j]], axis=0).max()) for j in range(X.shape[1]))
        assert dataio._diameter(X) == pytest.approx(direct, rel=1e-12, abs=0.0)
        # the triangle's largest entry is the full N x N's, to the bit
        assert dataio._diameter(X) == diameter_full_scan(X, block_entries)


def test_diameter_equals_the_full_scan_on_small_and_large_inputs():
    rng = np.random.default_rng(7)
    # N = 15 in R^60: X.T @ X (syrk) rounds some of these apart from the block product
    for X in [rng.standard_normal((60, 15)) for _ in range(40)] + [rng.standard_normal((6, 1))]:
        assert dataio._diameter(X) == diameter_full_scan(X)
    # the shape of the perfbench large_n input: N = 6000 in R^20, 12 blocks
    X, _ = synth_subspace_mixture(SynthSpec(n_clusters=3, points_per_cluster=2000, subspace_dim=3, ambient_dim=20, seed=1))
    assert dataio._diameter(X) == diameter_full_scan(X)


def test_generators_are_unchanged_by_the_full_scan(monkeypatch):
    specs = [
        SynthSpec(n_clusters=3, points_per_cluster=40, subspace_dim=2, ambient_dim=6, noise_sigma=0.01, seed=s)
        for s in range(4)
    ] + [
        SynthSpec(n_clusters=2, points_per_cluster=500, subspace_dim=3, ambient_dim=20, noise_sigma=0.01, seed=1),
        # N = 15: the noise would move by an ulp were X.T @ X sent to syrk
        SynthSpec(n_clusters=3, points_per_cluster=5, subspace_dim=3, ambient_dim=20, noise_sigma=0.01, seed=3),
    ]
    motions = [SynthSpec(n_clusters=k, points_per_cluster=per, n_frames=8, noise_sigma=0.002, seed=s)
               for k, per in ((2, 60), (3, 60), (3, 5)) for s in range(3)]
    mixtures = [synth_subspace_mixture(spec)[0].tobytes() for spec in specs]
    trajectories = [synth_affine_motion(spec).trajectories.tobytes() for spec in motions]
    monkeypatch.setattr(dataio, "_diameter", diameter_full_scan)
    assert [synth_subspace_mixture(spec)[0].tobytes() for spec in specs] == mixtures
    assert [synth_affine_motion(spec).trajectories.tobytes() for spec in motions] == trajectories


def test_mixture_rejects_bad_dims():
    with pytest.raises(ValueError):
        synth_subspace_mixture(SynthSpec(n_clusters=1, points_per_cluster=9, subspace_dim=5, ambient_dim=5))


def test_generators_are_pure():
    spec = SynthSpec(n_clusters=2, points_per_cluster=15, subspace_dim=2, ambient_dim=6, seed=9, noise_sigma=0.02)
    a, la = synth_subspace_mixture(spec)
    b, lb = synth_subspace_mixture(spec)
    assert np.array_equal(a, b) and np.array_equal(la.labels, lb.labels)
    ra = synth_affine_motion(SynthSpec(n_clusters=2, points_per_cluster=8, seed=3, n_frames=5))
    rb = synth_affine_motion(SynthSpec(n_clusters=2, points_per_cluster=8, seed=3, n_frames=5))
    assert np.array_equal(ra.trajectories, rb.trajectories)


def test_motion_single_body_is_three_dim_affine():
    record = synth_affine_motion(SynthSpec(n_clusters=1, points_per_cluster=40, seed=5, n_frames=12))
    traj = record.trajectories
    assert traj.shape == (24, 40)
    fit = fit_affine_ols(traj, 3)
    residual = subspace_sq_distances(traj, fit).sum()
    assert residual <= 1e-9 * total_scatter(traj)


def test_motion_containment_check_rejects_a_body_off_a_three_flat(monkeypatch):
    spec = SynthSpec(n_clusters=2, points_per_cluster=10, seed=4, n_frames=6)
    finalize = dataio._finalize

    def lift_second_body(X, spec, rng):
        # one more direction: body 1 spans a 4-flat
        X = finalize(X, spec, rng).copy()
        gen = np.random.default_rng(0)
        X[:, 10:] += np.outer(gen.standard_normal(X.shape[0]), gen.standard_normal(10))
        return X

    monkeypatch.setattr(dataio, "_finalize", lift_second_body)
    with pytest.raises(RuntimeError, match="body 1 is not contained"):
        synth_affine_motion(spec)


def test_motion_minimal_sequence():
    record = synth_affine_motion(SynthSpec(n_clusters=1, points_per_cluster=5, seed=6, n_frames=2))
    assert record.trajectories.shape == (4, 5)
    assert record.truth_labels is not None


def test_motion_requires_two_frames():
    with pytest.raises(ValueError):
        synth_affine_motion(SynthSpec(n_clusters=1, points_per_cluster=5, seed=0, n_frames=1))


def test_motion_two_bodies_cluster_cleanly():
    # subset of the full statistical gate exercised by the acceptance suite
    for seed in range(3):
        record = synth_affine_motion(SynthSpec(n_clusters=2, points_per_cluster=60, seed=seed, n_frames=20))
        result = scc_run(
            record.trajectories,
            SccConfig(subspace_dim=3, n_clusters=2, seed=seed, projection="4K"),
        )
        assert misclassification_rate(result.partition, record.truth_labels) == 0.0


def test_sequence_from_matrix_requires_even_rows():
    with pytest.raises(ValueError):
        SequenceRecord("odd", np.zeros((5, 4)))
    record = SequenceRecord("even", np.zeros((6, 4)))
    assert record.n_frames == 3


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_clusters=0, points_per_cluster=10)
    with pytest.raises(ValueError):
        SynthSpec(n_clusters=1, points_per_cluster=3, subspace_dim=3)
    with pytest.raises(ValueError):
        SynthSpec(n_clusters=1, points_per_cluster=10, noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SynthSpec(n_clusters=1, points_per_cluster=10, noise_sigma=float("nan"))
    with pytest.raises(ValueError, match="subspace_dim must be at least 1"):
        SynthSpec(2, 10, subspace_dim=0)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        SynthSpec(2, 10, seed=-1)
