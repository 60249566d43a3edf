import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scc.geometry import (
    AffineSubspace,
    Partition,
    fit_affine_ols,
    project_pca,
    subspace_sq_distances,
    total_ols_error,
)

from oracles import eig_tail_sum, lstsq_distance, total_scatter


def dist_to_subspace(x, subspace: AffineSubspace) -> float:
    """Distance from one point to the flat, through the library's batched squared distances."""
    return float(np.sqrt(subspace_sq_distances(np.asarray(x, dtype=np.float64)[:, None], subspace)[0]))


def test_fit_exact_line_zero_residual():
    t = np.arange(4.0)
    points = np.vstack([t, 2 * t])
    fit = fit_affine_ols(points, 1)
    assert subspace_sq_distances(points, fit).sum() <= 1e-20


def test_fit_single_point_dim_zero():
    fit = fit_affine_ols(np.array([[5.0], [7.0]]), 0)
    assert np.allclose(fit.origin, [5.0, 7.0])
    assert fit.basis.shape == (2, 0)
    assert dist_to_subspace(np.array([5.0, 7.0]), fit) == 0.0


def test_fit_residual_matches_eigensolver_oracle():
    points = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.1]])
    fit = fit_affine_ols(points, 1)
    residual = float(subspace_sq_distances(points, fit).sum())
    expected = eig_tail_sum(points, 1)
    assert residual == pytest.approx(expected, rel=1e-9)


def test_fit_dual_route_matches_primal():
    # more dimensions than points exercises the Gram-side eigendecomposition
    rng = np.random.default_rng(7)
    points = rng.standard_normal((12, 5))
    fit = fit_affine_ols(points, 2)
    assert np.allclose(fit.basis.T @ fit.basis, np.eye(2), atol=1e-10)
    residual = float(subspace_sq_distances(points, fit).sum())
    assert residual == pytest.approx(eig_tail_sum(points, 2), rel=1e-9)


def test_fit_rank_deficient_completes_basis():
    points = np.zeros((6, 3))
    points[0] = [0.0, 1.0, 2.0]  # rank-1 data, ask for a 3-dim fit
    fit = fit_affine_ols(points, 3)
    assert fit.basis.shape == (6, 3)
    assert np.allclose(fit.basis.T @ fit.basis, np.eye(3), atol=1e-10)
    assert subspace_sq_distances(points, fit).sum() <= 1e-18


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_affine_ols(np.zeros((2, 3)), 3)
    with pytest.raises(ValueError):
        fit_affine_ols(np.zeros((2, 0)), 1)
    with pytest.raises(ValueError):
        fit_affine_ols(np.array([[np.nan, 1.0]]), 0)


def test_dist_on_subspace_is_zero():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((5, 8))
    fit = fit_affine_ols(points, 3)
    on_flat = fit.origin + fit.basis @ rng.standard_normal(3)
    assert dist_to_subspace(on_flat, fit) <= 1e-10 * np.linalg.norm(on_flat - fit.origin)


def test_dist_axis_example():
    axis = AffineSubspace(np.zeros(2), np.array([[1.0], [0.0]]))
    assert dist_to_subspace(np.array([3.0, 4.0]), axis) == pytest.approx(4.0, abs=1e-12)


def test_dist_matches_normal_equations_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        points = rng.standard_normal((6, 10))
        fit = fit_affine_ols(points, 2)
        x = rng.standard_normal(6)
        assert dist_to_subspace(x, fit) == pytest.approx(
            lstsq_distance(x, fit.origin, fit.basis), rel=1e-9, abs=1e-12
        )


def test_dist_dimension_mismatch():
    axis = AffineSubspace(np.zeros(2), np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        dist_to_subspace(np.zeros(3), axis)


def test_total_ols_two_exact_lines():
    t = np.linspace(0.0, 1.0, 10)
    line_a = np.vstack([t, t])
    line_b = np.vstack([t, 5.0 - t])
    data = np.hstack([line_a, line_b])
    part = Partition(np.repeat([0, 1], 10), 2)
    assert total_ols_error(data, part, 1) <= 1e-18


def test_total_ols_full_dimension_is_zero():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((4, 30))
    part = Partition(np.zeros(30, dtype=int), 1)
    assert total_ols_error(data, part, 4) <= 1e-16


def test_total_ols_matches_per_cluster_eig_oracle():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((5, 40))
    labels = rng.integers(0, 2, 40)
    part = Partition(labels, 2)
    expected = sum(eig_tail_sum(data[:, labels == k], 2) for k in range(2))
    assert total_ols_error(data, part, 2) == pytest.approx(expected, rel=1e-9)


def test_total_ols_small_and_empty_clusters():
    # cluster 1 has two points (interpolated exactly at reduced dim), 2 is empty
    data = np.array([[0.0, 1.0, 2.0, 10.0, 11.0], [0.0, 0.1, -0.1, 3.0, 4.0]])
    part = Partition(np.array([0, 0, 0, 1, 1]), 3)
    err = total_ols_error(data, part, 2)
    assert err <= 1e-16
    assert np.flatnonzero(part.sizes() == 0).tolist() == [2]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), shift=st.floats(-50.0, 50.0))
def test_fit_translation_equivariance(seed, shift):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((4, 12))
    vec = rng.standard_normal(4) * shift
    base = fit_affine_ols(points, 2)
    moved = fit_affine_ols(points + vec[:, None], 2)
    scale = max(1.0, float(np.abs(base.origin).max()), float(np.abs(vec).max()))
    assert np.allclose(moved.origin, base.origin + vec, atol=1e-9 * scale)
    r0 = subspace_sq_distances(points, base).sum()
    r1 = subspace_sq_distances(points + vec[:, None], moved).sum()
    assert r1 == pytest.approx(r0, rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_total_ols_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((4, 25))
    labels = rng.integers(0, 3, 25)
    perm = rng.permutation(3)
    base = total_ols_error(data, Partition(labels, 3), 1)
    relabeled = total_ols_error(data, Partition(perm[labels], 3), 1)
    assert relabeled == pytest.approx(base, rel=1e-12, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pythagoras(seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((6, 9))
    fit = fit_affine_ols(points, 2)
    x = rng.standard_normal(6)
    delta = x - fit.origin
    dist_sq = dist_to_subspace(x, fit) ** 2
    proj_sq = float(((fit.basis.T @ delta) ** 2).sum())
    assert dist_sq + proj_sq == pytest.approx(float(delta @ delta), rel=1e-9)


def test_project_pca_identity_regime():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((4, 9))
    assert project_pca(data, 4) is data
    assert project_pca(data, 9) is data


def test_project_pca_isometry_on_contained_line():
    rng = np.random.default_rng(5)
    direction = rng.standard_normal(5)
    direction /= np.linalg.norm(direction)
    t = rng.standard_normal(12)
    data = np.outer(direction, t) + rng.standard_normal(5)[:, None]
    out = project_pca(data, 1)
    assert out.shape == (1, 12)
    original = np.abs(t[:, None] - t[None, :])
    projected = np.abs(out[0][:, None] - out[0][None, :])
    assert np.allclose(projected, original, rtol=1e-10, atol=1e-12)


def test_project_pca_reconstruction_error_matches_eig_tail():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((7, 25))
    out = project_pca(data, 3)
    captured = float((out**2).sum())
    assert total_scatter(data) - captured == pytest.approx(eig_tail_sum(data, 3), rel=1e-9)


def test_project_then_fit_is_exact():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((6, 20))
    out = project_pca(data, 3)
    part = Partition(np.zeros(20, dtype=int), 1)
    assert total_ols_error(out, part, 3) <= 1e-16 * max(total_scatter(data), 1.0)


def test_project_pca_rejects_bad_target():
    with pytest.raises(ValueError):
        project_pca(np.zeros((3, 4)), 0)


def test_affine_subspace_validation():
    with pytest.raises(ValueError):
        AffineSubspace(np.zeros(2), np.array([[1.0], [1.0]]))  # not orthonormal
    with pytest.raises(ValueError):
        AffineSubspace(np.zeros(2), np.ones((3, 1)))  # ambient mismatch


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 1, 2]), 2)
    with pytest.raises(ValueError):
        Partition(np.array([-1, 0]), 2)
    part = Partition(np.array([0, 0, 1]), 3)
    assert part.sizes().tolist() == [2, 1, 0]
    assert np.flatnonzero(part.sizes() == 0).tolist() == [2]
