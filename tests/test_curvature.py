import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scc import curvature, engine
from scc.curvature import (
    affinity_from_curvatures,
    curvature_matrix,
    pairwise_weights,
    polar_curvature_sq,
    simplex_gram_det,
    validate_sample_sets,
)

from oracles import (
    cayley_menger_vol_sq,
    naive_weight_matrix,
    polar_curvature_sq_reference,
    random_flat_tuple,
)

TRIANGLE = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_gram_det_triangle_hand_value():
    # right triangle with legs 1: area 1/2, (2! * 1/2)^2 = 1
    assert simplex_gram_det(TRIANGLE, 1) == pytest.approx(1.0, abs=1e-12)


def test_gram_det_degenerate_tuple_is_zero():
    rng = np.random.default_rng(0)
    pts = random_flat_tuple(rng, 2, 6, 4)  # 4 points on a 2-flat
    assert simplex_gram_det(pts, 2) <= 1e-10
    assert simplex_gram_det(pts, 2) >= 0.0


def test_gram_det_matches_cayley_menger_oracle():
    rng = np.random.default_rng(1)
    for flat_dim in (1, 2, 3):
        for _ in range(10):
            pts = rng.standard_normal((7, flat_dim + 2)) * 2.0 + rng.uniform(-5, 5, (7, 1))
            expected = math.factorial(flat_dim + 1) ** 2 * cayley_menger_vol_sq(pts)
            assert simplex_gram_det(pts, flat_dim) == pytest.approx(expected, rel=1e-8)


def test_gram_det_wrong_tuple_size():
    with pytest.raises(ValueError):
        simplex_gram_det(TRIANGLE, 2)


def test_polar_curvature_triangle_hand_value():
    # diam^2 = 2; vertex terms 1, 1/2, 1/2 sum to 2; 2 * 2 / 3 = 4/3
    assert polar_curvature_sq(TRIANGLE, 1) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_polar_curvature_collinear_is_zero():
    pts = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
    assert polar_curvature_sq(pts, 1) <= 1e-20


def test_polar_curvature_contained_tuple():
    rng = np.random.default_rng(2)
    pts = random_flat_tuple(rng, 3, 10, 5)
    diffs = pts[:, :, None] - pts[:, None, :]
    diam_sq = float(np.einsum("ijk,ijk->jk", diffs, diffs).max())
    assert polar_curvature_sq(pts, 3) <= 1e-8 * diam_sq**2


def test_polar_curvature_duplicates():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    assert polar_curvature_sq(pts, 1) == math.inf
    same = np.zeros((2, 3))
    assert polar_curvature_sq(same, 1) == 0.0


def test_polar_curvature_wrong_size():
    with pytest.raises(ValueError):
        polar_curvature_sq(np.zeros((2, 4)), 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_polar_curvature_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((4, 5))
    base = polar_curvature_sq(pts, 3)
    perm = rng.permutation(5)
    assert polar_curvature_sq(pts[:, perm], 3) == pytest.approx(base, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_polar_curvature_rigid_motion_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((4, 4))
    rotation, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    shift = rng.uniform(-20.0, 20.0, 4)
    base = polar_curvature_sq(pts, 2)
    moved = polar_curvature_sq(rotation @ pts + shift[:, None], 2)
    assert moved == pytest.approx(base, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.sampled_from([0.5, 2.0]))
def test_polar_curvature_is_degree_two_homogeneous(seed, scale):
    # diam^2 scales as s^2 while the determinant and the distance products
    # both scale as s^(2(d+1)), so the measure is homogeneous of degree 2
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((5, 4))
    base = polar_curvature_sq(pts, 2)
    assert polar_curvature_sq(pts * scale, 2) == pytest.approx(scale**2 * base, rel=1e-8)


def test_polar_curvature_degree_two_law_across_scales():
    # scaling far from unit size must neither underflow nor overflow the
    # determinant and the vertex distance products
    for seed in range(3):
        pts = np.random.default_rng(seed).standard_normal((5, 5))
        base = polar_curvature_sq(pts, 3)
        for k in range(-150, 151, 10):
            scale = 10.0**k
            assert polar_curvature_sq(pts * scale, 3) == pytest.approx(scale**2 * base, rel=1e-12)


def test_polar_curvature_matches_loop_reference():
    rng = np.random.default_rng(4)
    for flat_dim in (1, 2, 3):
        for _ in range(5):
            pts = rng.standard_normal((6, flat_dim + 2)) + rng.uniform(-3, 3, (6, 1))
            assert polar_curvature_sq(pts, flat_dim) == pytest.approx(
                polar_curvature_sq_reference(pts), rel=1e-8
            )


def _random_case(seed, n=14, d=2, c=6, ambient=5):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((ambient, n))
    sets = np.array([rng.choice(n, size=d + 1, replace=False) for _ in range(c)])
    return data, sets


def test_curvature_matrix_matches_per_tuple_recomputation():
    data, sets = _random_case(11)
    curv, member = curvature_matrix(data, sets)
    for r in range(sets.shape[0]):
        for i in range(data.shape[1]):
            if member[i, r]:
                assert i in sets[r]
                continue
            tup = np.column_stack([data[:, i], data[:, sets[r]]])
            expected = polar_curvature_sq_reference(tup)
            assert curv[i, r] == pytest.approx(expected, rel=1e-8, abs=1e-12)


def test_curvature_matrix_handles_duplicate_points():
    data, sets = _random_case(12)
    data[:, 3] = data[:, sets[0][0]]  # point 3 duplicates a sampled point of set 0
    if 3 in sets[0]:
        pytest.skip("random draw collided with the duplicated index")
    curv, member = curvature_matrix(data, sets)
    assert curv[3, 0] == math.inf


def test_curvature_matrix_is_translation_invariant():
    data, sets = _random_case(22)
    curv, member = curvature_matrix(data, sets)
    shifted, shifted_member = curvature_matrix(data + 1e6, sets)
    assert (shifted_member == member).all()
    keep = ~member & np.isfinite(curv)
    assert np.allclose(shifted[keep], curv[keep], rtol=1e-9, atol=0.0)


def test_curvature_matrix_flat_dim_zero_is_squared_distance():
    data, _ = _random_case(23)
    sets = np.array([[0], [5], [9]])
    curv, member = curvature_matrix(data, sets)
    for r, (j,) in enumerate(sets):
        expected = ((data - data[:, [j]]) ** 2).sum(axis=0)
        expected[j] = 0.0
        assert np.allclose(curv[:, r], expected, rtol=1e-12, atol=0.0)
        assert member[:, r].sum() == 1 and member[j, r]


def test_curvature_matrix_does_not_depend_on_chunk_boundaries(monkeypatch):
    # d = 3 in R^4: the step holding the (b, 3, 4, N) vertex differences, not
    # the one holding the (b, 4, N) offsets, bounds the chunk, and the
    # default budget needs several chunks
    rng = np.random.default_rng(24)
    n, d, c = 2000, 3, 60
    data = rng.standard_normal((d + 1, n))
    data[:, 7] = data[:, 8]  # point 7 scores +inf against every subset holding 8
    sets = np.array([rng.choice(np.arange(9, n), size=d + 1, replace=False) for _ in range(c)])
    sets[0, 0] = 8
    block = curvature._curvature_block
    chunks = []
    monkeypatch.setattr(curvature, "_curvature_block", lambda X, s, work: chunks.append(len(s)) or block(X, s, work))

    results = []
    for entries in (curvature._CHUNK_ENTRIES, 1, 1 << 21):
        monkeypatch.setattr(curvature, "_CHUNK_ENTRIES", entries)
        chunks.clear()
        curv, member = curvature_matrix(data, sets)
        results.append((len(chunks), curv.tobytes(), member.tobytes()))
    assert [r[0] for r in results] == [2, c, 1]
    assert curv[7, 0] == math.inf
    assert results[1][1:] == results[0][1:] == results[2][1:]


def test_curvature_matrix_does_not_depend_on_the_residual_block(monkeypatch):
    # an SCC(4,2F)-like shape in R^48: the default block holds 10 subsets and
    # a chunk 162, so each of the two chunks ends in a partial block
    rng = np.random.default_rng(26)
    ambient, n, d, c = 48, 64, 4, 300
    data = rng.standard_normal((ambient, n))
    data[:, 5] = data[:, 6]  # point 5 scores +inf against every subset holding 6
    sets = np.array([rng.choice(np.arange(6, n), size=d + 1, replace=False) for _ in range(c)])
    sets[-1, 0] = 6
    per_subset = curvature._workspace_rows(ambient, d, d + 1)
    chunk = 2 * curvature._CHUNK_ENTRIES // (n * per_subset)
    block = curvature._BLOCK_ENTRIES // (2 * ambient * n)
    assert 1 < block < chunk < c and chunk % block and (c - chunk) % block

    results = []
    for entries in (1, curvature._BLOCK_ENTRIES, 2 * ambient * n * chunk):
        monkeypatch.setattr(curvature, "_BLOCK_ENTRIES", entries)
        curv, member = curvature_matrix(data, sets)
        results.append((curv.tobytes(), member.tobytes()))
    assert curv[5, -1] == math.inf
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("ambient, n, d", [(20, 2000, 3), (60, 360, 4)])
def test_curvature_matrix_peaks_at_its_outputs_plus_the_workspace(ambient, n, d):
    # perfbench large_n's shape at N = 2000, and an SCC(4,2F) motion shape:
    # every chunk temporary is a view of one workspace of two chunk budgets,
    # so a call allocates little beyond it and its outputs
    rng = np.random.default_rng(25)
    data = rng.standard_normal((ambient, n))
    sets = np.array([rng.choice(n, size=d + 1, replace=False) for _ in range(300)])
    curvature_matrix(data, sets)  # first-call allocations of numpy and LAPACK
    tracemalloc.start()
    try:
        curv, member = curvature_matrix(data, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = 2 * curvature._CHUNK_ENTRIES * curv.itemsize
    assert peak - curv.nbytes - member.nbytes <= budget + (1 << 20)


def test_curvature_vector_flat_data_is_tiny():
    rng = np.random.default_rng(15)
    data = random_flat_tuple(rng, 2, 8, 30)
    sets = np.array([rng.choice(30, size=3, replace=False) for _ in range(10)])
    curv, member = curvature_matrix(data, sets)
    norms = np.einsum("ij,ij->j", data, data)
    diam_sq = (norms[:, None] + norms[None, :] - 2 * data.T @ data).max()
    assert curv[~member].max() <= 1e-8 * diam_sq**2


def test_sample_set_validation():
    with pytest.raises(ValueError):
        validate_sample_sets(np.array([[0, 0, 1]]), 5)
    with pytest.raises(ValueError):
        validate_sample_sets(np.array([[0, 1, 9]]), 5)
    with pytest.raises(ValueError):
        validate_sample_sets(np.array([[0.5, 1.0]]), 5)


def test_affinity_member_entries_are_zero(monkeypatch):
    # the sweep writes +inf at the member entries of its curvature matrix,
    # so every candidate's affinity is exactly 0 there (the spectral step
    # scales the affinities in place, so each is copied as it is computed)
    data, sets = _random_case(17)
    affinities = []
    affinity = engine.affinity_from_curvatures

    def recording(*args):
        affinities.append(affinity(*args))
        return affinities[-1].copy()

    monkeypatch.setattr(engine, "affinity_from_curvatures", recording)
    d = sets.shape[1] - 1
    engine.sweep_and_cluster(data, sets, engine.SccConfig(subspace_dim=d, n_clusters=2))
    assert len(affinities) == d + 1
    member = np.zeros(affinities[0].shape, dtype=bool)
    member[sets.ravel(), np.repeat(np.arange(sets.shape[0]), d + 1)] = True
    for aff in affinities:
        assert (aff[member] == 0.0).all()
        assert (aff >= 0.0).all() and (aff <= 1.0).all()


def test_affinity_underflow_is_an_exact_zero():
    # exp(-710) would be subnormal (about 4.5e-309); exp(-700) is not
    aff = affinity_from_curvatures(np.array([[1420.0, 1400.0, 0.0, np.inf]]), 1.0)
    assert aff[0, 0] == 0.0 and aff[0, 1] == np.exp(-700.0)
    assert aff[0, 2] == 1.0 and aff[0, 3] == 0.0
    tiny = np.finfo(np.float64).tiny
    curv = np.linspace(1400.0, 1430.0, 3001)[:, None]
    aff = affinity_from_curvatures(curv, 1.0)
    assert ((aff == 0.0) | (aff >= tiny)).all() and (aff == 0.0).any() and (aff >= tiny).any()


def test_affinity_on_flat_point_is_one():
    rng = np.random.default_rng(18)
    data = random_flat_tuple(rng, 1, 4, 10)
    sets = np.array([[0, 1], [2, 3]])
    aff = affinity_from_curvatures(curvature_matrix(data, sets)[0], 0.5)
    mask = np.ones(10, dtype=bool)
    mask[[0, 1]] = False
    assert np.all(aff[mask, 0] >= 1.0 - 1e-6)


def test_affinity_exponent_plug_in():
    # a tuple whose curvature equals 2 sigma^2 must map to exp(-1)
    pts = TRIANGLE
    curv = polar_curvature_sq(pts, 1)
    data = np.column_stack([pts, [5.0, 9.0]])  # extra point so the set has a complement
    sets = np.array([[1, 2]])
    aff = affinity_from_curvatures(curvature_matrix(data, sets)[0], curv / 2.0)
    assert aff[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_affinity_rejects_bad_sigma():
    curv, _ = curvature_matrix(*_random_case(19))
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            affinity_from_curvatures(curv, bad)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), bump=st.floats(0.1, 10.0))
def test_affinity_monotone_in_sigma(seed, bump):
    curv, _ = curvature_matrix(*_random_case(seed % 100))
    low = affinity_from_curvatures(curv, 0.7)
    high = affinity_from_curvatures(curv, 0.7 + bump)
    assert (high >= low - 1e-15).all()


def test_weights_trivial_cases():
    assert (pairwise_weights(np.zeros((4, 3))) == 0.0).all()
    single = np.zeros((4, 3))
    single[2, 1] = 0.7
    w = pairwise_weights(single)
    expected = np.zeros((4, 4))
    expected[2, 2] = 0.49
    assert np.allclose(w, expected)


def test_weights_match_triple_loop_oracle():
    rng = np.random.default_rng(20)
    aff = rng.random((7, 5))
    assert np.allclose(pairwise_weights(aff), naive_weight_matrix(aff), rtol=1e-12, atol=1e-14)


def test_weights_are_psd():
    rng = np.random.default_rng(21)
    for _ in range(10):
        aff = rng.random((12, 6))
        w = pairwise_weights(aff)
        assert np.abs(w - w.T).max() <= 1e-12 * max(1.0, w.max())
        for _ in range(20):
            v = rng.standard_normal(12)
            assert v @ w @ v >= -1e-10 * np.trace(w)
