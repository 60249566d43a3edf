import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scc.dataio import SynthSpec, synth_subspace_mixture
from scc.engine import (
    SccConfig,
    resample_within,
    sample_initial,
    scc_run,
    sigma_candidates,
    sweep_and_cluster,
)
from scc.evaluation import misclassification_rate
from scc.geometry import Partition, total_ols_error, total_scatter


def test_config_defaults_and_validation():
    cfg = SccConfig(subspace_dim=3, n_clusters=2)
    assert cfg.sample_set_count == 200
    assert cfg.iteration_limit == 10
    assert cfg.projection == "ambient"
    assert SccConfig(subspace_dim=3, n_clusters=2, projection="2F").projection == "ambient"
    assert SccConfig(subspace_dim=4, n_clusters=2, projection="4k").projection == "4K"
    with pytest.raises(ValueError):
        SccConfig(subspace_dim=0, n_clusters=2)
    with pytest.raises(ValueError):
        SccConfig(subspace_dim=3, n_clusters=2, n_sample_sets=1)
    with pytest.raises(ValueError):
        SccConfig(subspace_dim=3, n_clusters=2, seed=-1)
    with pytest.raises(ValueError):
        SccConfig(subspace_dim=3, n_clusters=2, projection="5K")


def test_projection_dim_resolution():
    cfg = SccConfig(subspace_dim=3, n_clusters=2, projection="4K")
    assert cfg.projection_dim(60) == 8
    assert cfg.projection_dim(6) == 6  # identity regime when the target exceeds D
    cfg = SccConfig(subspace_dim=3, n_clusters=2, projection="d+1")
    assert cfg.projection_dim(60) == 4
    cfg = SccConfig(subspace_dim=3, n_clusters=2)
    assert cfg.projection_dim(60) == 60


def test_sample_initial_minimal_case_omits_one_point():
    rng = np.random.default_rng(0)
    sets = sample_initial(5, 3, 1, rng)
    assert sets.shape == (1, 4)
    assert len(set(sets[0].tolist())) == 4


def test_sample_initial_default_count_via_config():
    cfg = SccConfig(subspace_dim=3, n_clusters=2)
    rng = np.random.default_rng(1)
    sets = sample_initial(50, cfg.subspace_dim, cfg.sample_set_count, rng)
    assert sets.shape == (200, 4)


def test_sample_initial_deterministic():
    a = sample_initial(30, 2, 15, np.random.default_rng(42))
    b = sample_initial(30, 2, 15, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_sample_initial_requires_complement():
    with pytest.raises(ValueError):
        sample_initial(4, 3, 5, np.random.default_rng(0))


def test_sigma_candidate_positions():
    # length 1000, K=2, d=3: 1-based positions 500, 250, 125, 63 (round half up)
    vec = np.arange(1.0, 1001.0)
    for order in (vec, np.random.default_rng(1).permutation(vec)):  # input need not be sorted
        cands = sigma_candidates(order, n_points=14, subspace_dim=3, n_sets=100, n_clusters=2)
        assert cands == [500.0, 250.0, 125.0, 63.0]


def test_sigma_candidates_single_cluster_all_last():
    vec = np.sort(np.random.default_rng(2).random(60))
    cands = sigma_candidates(vec, n_points=7, subspace_dim=2, n_sets=15, n_clusters=1)
    assert cands == [float(vec[-1])] * 3


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_sigma_candidates_nonincreasing(seed, k):
    rng = np.random.default_rng(seed)
    vec = np.sort(rng.random(120))
    cands = sigma_candidates(vec, n_points=8, subspace_dim=3, n_sets=30, n_clusters=k)
    assert all(a >= b for a, b in zip(cands, cands[1:]))


def test_sigma_candidates_validation():
    with pytest.raises(ValueError):
        sigma_candidates(np.array([]), 5, 1, 2, 2)
    with pytest.raises(ValueError):
        sigma_candidates(np.ones(7), 5, 1, 2, 2)  # wrong length


def _labeled_data(seed=0, n=40):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((3, n))
    labels = Partition((np.arange(n) >= n // 2).astype(int), 2)
    return data, labels


def test_resample_within_equal_quota():
    data, part = _labeled_data()
    sets = resample_within(part, data, 1, 200, np.random.default_rng(3))
    assert sets.shape == (200, 2)
    first = np.isin(sets, part.members(0)).all(axis=1)
    second = np.isin(sets, part.members(1)).all(axis=1)
    assert first.sum() == 100 and second.sum() == 100


def test_resample_within_remainder_to_largest():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((3, 30))
    labels = np.zeros(30, dtype=int)
    labels[18:] = 1  # sizes 18 and 12
    part = Partition(labels, 2)
    sets = resample_within(part, data, 1, 5, rng)
    from_large = np.isin(sets, part.members(0)).all(axis=1).sum()
    from_small = np.isin(sets, part.members(1)).all(axis=1).sum()
    assert (from_large, from_small) == (3, 2)


def test_resample_within_small_cluster_falls_back_to_all():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((3, 20))
    labels = np.zeros(20, dtype=int)
    labels[:2] = 1  # cluster 1 has d points only (d=2 here)
    part = Partition(labels, 2)
    sets = resample_within(part, data, 2, 10, rng)
    assert sets.shape == (10, 3)
    # the small cluster cannot supply 3 distinct members, so its quota uses any index
    assert sets.max() < 20 and sets.min() >= 0


def test_resample_within_deterministic():
    data, part = _labeled_data(seed=6)
    a = resample_within(part, data, 1, 9, np.random.default_rng(8))
    b = resample_within(part, data, 1, 9, np.random.default_rng(8))
    assert np.array_equal(a, b)


def _two_lines(seed=0, n_per=25):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, n_per)
    s = rng.uniform(-1.0, 1.0, n_per)
    line_a = np.vstack([t, t, np.zeros(n_per)])
    line_b = np.vstack([s, -s, np.ones(n_per)])
    data = np.hstack([line_a, line_b])
    truth = Partition(np.repeat([0, 1], n_per), 2)
    return data, truth


def test_sweep_recovers_well_separated_lines():
    data, truth = _two_lines(seed=1)
    cfg = SccConfig(subspace_dim=1, n_clusters=2, n_sample_sets=60, seed=2)
    sets = sample_initial(data.shape[1], 1, 60, np.random.default_rng(2))
    part, sigma_sq, q, err = sweep_and_cluster(data, sets, cfg)
    assert misclassification_rate(part, truth) == 0.0
    assert err <= 1e-12 * total_scatter(data)
    assert sigma_sq > 0.0
    assert 1 <= q <= 2  # d+1 candidates for d=1


def test_sweep_tie_breaks_to_smallest_q():
    # noiseless separable data: every candidate recovers the same zero-error
    # partition, so the tie must resolve to q = 1
    data, _ = _two_lines(seed=3)
    cfg = SccConfig(subspace_dim=1, n_clusters=2, n_sample_sets=80, seed=5)
    sets = sample_initial(data.shape[1], 1, 80, np.random.default_rng(5))
    _, _, q, err = sweep_and_cluster(data, sets, cfg)
    assert err <= 1e-18
    assert q == 1


def test_scc_run_noiseless_mixture():
    spec = SynthSpec(n_clusters=2, points_per_cluster=60, subspace_dim=2, ambient_dim=6, seed=7)
    data, truth = synth_subspace_mixture(spec)
    result = scc_run(data, SccConfig(subspace_dim=2, n_clusters=2, seed=11))
    assert misclassification_rate(result.partition, truth) == 0.0
    assert result.ols_error <= 1e-16 * total_scatter(data)
    assert result.iterations_run <= 10


def test_scc_run_single_cluster_matches_global_fit():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((5, 30))
    result = scc_run(data, SccConfig(subspace_dim=2, n_clusters=1, seed=1))
    assert result.partition.n_clusters == 1
    expected = total_ols_error(data, Partition(np.zeros(30, dtype=int), 1), 2)
    assert result.ols_error == pytest.approx(expected, rel=1e-9)


def test_scc_run_deterministic():
    spec = SynthSpec(n_clusters=2, points_per_cluster=30, subspace_dim=2, ambient_dim=5, seed=3, noise_sigma=0.05)
    data, _ = synth_subspace_mixture(spec)
    cfg = SccConfig(subspace_dim=2, n_clusters=2, seed=21)
    a = scc_run(data, cfg)
    b = scc_run(data, cfg)
    assert np.array_equal(a.partition.labels, b.partition.labels)
    assert a.ols_error == b.ols_error
    assert a.sigma_sq_chosen == b.sigma_sq_chosen
    assert a.q_chosen == b.q_chosen
    assert a.per_iteration_errors == b.per_iteration_errors


def test_scc_run_best_seen_semantics():
    spec = SynthSpec(n_clusters=2, points_per_cluster=40, subspace_dim=2, ambient_dim=6, seed=5, noise_sigma=0.08)
    data, _ = synth_subspace_mixture(spec)
    result = scc_run(data, SccConfig(subspace_dim=2, n_clusters=2, seed=2))
    assert result.ols_error == min(result.per_iteration_errors)
    assert all(result.ols_error <= e for e in result.per_iteration_errors)
    assert result.iterations_run == len(result.per_iteration_errors)
    # ambient regime: the reported error is reproducible from the partition
    assert result.working_dim == data.shape[0]
    recomputed = total_ols_error(data, result.partition, 2)
    assert result.ols_error == pytest.approx(recomputed, rel=1e-9)


def test_scc_run_projection_regimes():
    spec = SynthSpec(n_clusters=2, points_per_cluster=30, subspace_dim=3, ambient_dim=20, seed=9)
    data, truth = synth_subspace_mixture(spec)
    for projection, expected_dim in (("ambient", 20), ("4K", 8), ("d+1", 4)):
        result = scc_run(data, SccConfig(subspace_dim=3, n_clusters=2, seed=3, projection=projection))
        assert result.working_dim == expected_dim
        assert misclassification_rate(result.partition, truth) == 0.0


def test_scc_run_error_reproducible_in_projected_space():
    from scc.geometry import project_pca

    spec = SynthSpec(
        n_clusters=2, points_per_cluster=30, subspace_dim=3, ambient_dim=20, seed=10, noise_sigma=0.05
    )
    data, _ = synth_subspace_mixture(spec)
    result = scc_run(data, SccConfig(subspace_dim=3, n_clusters=2, seed=4, projection="4K"))
    work = project_pca(data, result.working_dim)
    recomputed = total_ols_error(work, result.partition, 3)
    assert result.ols_error == pytest.approx(recomputed, rel=1e-9)


def test_scc_run_subspaces_cover_clusters():
    spec = SynthSpec(n_clusters=3, points_per_cluster=25, subspace_dim=2, ambient_dim=6, seed=12)
    data, _ = synth_subspace_mixture(spec)
    result = scc_run(data, SccConfig(subspace_dim=2, n_clusters=3, seed=4))
    assert len(result.subspaces) == 3
    for k, subspace in enumerate(result.subspaces):
        if result.partition.members(k).size:
            assert subspace is not None
            assert subspace.ambient_dim == result.working_dim


def test_scc_run_point_order_invariance_against_truth():
    spec = SynthSpec(n_clusters=2, points_per_cluster=30, subspace_dim=2, ambient_dim=6, seed=14)
    data, truth = synth_subspace_mixture(spec)
    perm = np.random.default_rng(0).permutation(data.shape[1])
    cfg = SccConfig(subspace_dim=2, n_clusters=2, seed=6)
    base = scc_run(data, cfg)
    shuffled = scc_run(data[:, perm], cfg)
    assert misclassification_rate(base.partition, truth) == 0.0
    assert misclassification_rate(
        shuffled.partition, Partition(truth.labels[perm], 2)
    ) == 0.0


def test_scc_run_input_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        scc_run(rng.standard_normal((3, 4)), SccConfig(subspace_dim=3, n_clusters=2))
    with pytest.raises(ValueError):
        scc_run(rng.standard_normal((3, 5)), SccConfig(subspace_dim=1, n_clusters=9))
