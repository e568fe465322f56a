import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spl
from spl.errors import (
    AmbiguousEdge,
    DimensionMismatch,
    EmptySelection,
    NonHermitianInput,
)

from conftest import random_complex, random_hermitian

SQRT2 = math.sqrt(2.0)


# --- eigh ---------------------------------------------------------------------


def test_eigh_diagonal_is_permutation():
    es = spl.eigh(np.diag([3.0, 1.0, 2.0]))
    npt.assert_allclose(es.values, [1.0, 2.0, 3.0], atol=1e-14)
    # eigenvectors of a diagonal matrix are coordinate vectors up to phase
    npt.assert_allclose(np.abs(es.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_eigh_2x2_closed_form():
    es = spl.eigh(np.array([[0.0, 0.5], [0.5, -1.0]]))
    expected = [(-1.0 - SQRT2) / 2.0, (-1.0 + SQRT2) / 2.0]
    npt.assert_allclose(es.values, expected, atol=1e-14)


def test_eigh_random_invariants():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 8)
    es = spl.eigh(h)
    npt.assert_allclose(h @ es.vectors, es.vectors * es.values, atol=1e-10 * es.norm)
    npt.assert_allclose(es.vectors.conj().T @ es.vectors, np.eye(8), atol=1e-10)
    assert np.all(np.diff(es.values) >= 0)


def test_eigh_rejects_nonhermitian():
    with pytest.raises(NonHermitianInput):
        spl.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(NonHermitianInput):
            spl.eigh(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_eigh_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        spl.eigh(np.zeros((2, 3)))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_eigh_invariants_property(n, seed):
    h = random_hermitian(np.random.default_rng(seed), n)
    es = spl.eigh(h)
    scale = max(es.norm, 1e-300)
    assert spl.op_norm(h @ es.vectors - es.vectors * es.values) <= 1e-10 * scale
    assert spl.op_norm(es.vectors.conj().T @ es.vectors - np.eye(n)) <= 1e-10


# --- spectral_projector ---------------------------------------------------------


def test_projector_diagonal_interval():
    es = spl.eigh(np.diag([0.0, -1.0, 1.0]))
    p = spl.spectral_projector(es, (-1.0, 1.0))
    assert p.rank == 1
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    npt.assert_allclose(p.matrix, expected, atol=1e-14)


def test_projector_all_eigenvalues_is_identity():
    es = spl.eigh(np.diag([0.0, -1.0, 1.0]))
    p = spl.spectral_projector(es, (-10.0, 10.0))
    assert p.rank == 3
    npt.assert_allclose(p.matrix, np.eye(3), atol=1e-14)


def test_projector_index_selector_matches_interval():
    rng = np.random.default_rng(1)
    es = spl.eigh(random_hermitian(rng, 6))
    lo, hi = es.values[1] - 1e-3, es.values[4] + 1e-3
    p_int = spl.spectral_projector(es, (lo, hi))
    p_idx = spl.spectral_projector(es, [1, 2, 3, 4])
    npt.assert_allclose(p_int.matrix, p_idx.matrix, atol=1e-12)


def test_projector_empty_selection():
    es = spl.eigh(np.diag([0.0, -1.0, 1.0]))
    with pytest.raises(EmptySelection):
        spl.spectral_projector(es, (0.2, 0.4))


def test_projector_edge_snap_vs_strict():
    es = spl.eigh(np.diag([0.0, 1.0]))
    # right endpoint grazes the eigenvalue at 1: snapped out by default
    p = spl.spectral_projector(es, (-0.5, 1.0 + 1e-12))
    assert p.rank == 1
    with pytest.raises(AmbiguousEdge):
        spl.spectral_projector(es, (-0.5, 1.0 + 1e-12), edge="strict")


def test_projector_perturbed_3x3(e1):
    es = spl.eigh(e1.L)
    p = spl.spectral_projector(es, (-1.0, 1.0))
    assert p.rank == 1
    direction = np.array([1.0, SQRT2 - 1.0, 0.0])
    direction /= np.linalg.norm(direction)
    npt.assert_allclose(p.matrix, np.outer(direction, direction), atol=1e-12)


def test_projector_index_out_of_range():
    es = spl.eigh(np.diag([0.0, 1.0]))
    with pytest.raises(IndexError):
        spl.spectral_projector(es, [0, 5])


# --- subspace_angle --------------------------------------------------------------


def test_angle_identical_projectors():
    es = spl.eigh(np.diag([0.0, -1.0, 1.0]))
    p = spl.spectral_projector(es, (-1.0, 1.0))
    report = spl.subspace_angle(p, p)
    assert report.norm_diff == 0.0
    assert report.max_angle == 0.0


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 8, 1.1])
def test_angle_2x2_rotation(theta):
    p = spl.Projector(matrix=np.diag([1.0, 0.0]).astype(complex), rank=1)
    c, s = math.cos(theta), math.sin(theta)
    q_dir = np.array([c, s])
    q = spl.Projector(matrix=np.outer(q_dir, q_dir).astype(complex), rank=1)
    report = spl.subspace_angle(p, q)
    npt.assert_allclose(report.norm_diff, abs(s), atol=1e-12)
    npt.assert_allclose(report.max_angle, min(theta, math.pi - theta), atol=1e-12)


def test_angle_e1_projectors(e1):
    es = spl.eigh(e1.L)
    q = spl.spectral_projector(es, (-1.0, 1.0))
    report = spl.subspace_angle(e1.split.E0, q)
    npt.assert_allclose(report.norm_diff, math.sin(math.pi / 8.0), atol=1e-12)


def test_angle_symmetric_and_bounded():
    rng = np.random.default_rng(17)
    for _ in range(20):
        es = spl.eigh(random_hermitian(rng, 7))
        p = spl.spectral_projector(es, [0, 1, 2])
        q = spl.spectral_projector(es, sorted(rng.choice(7, size=3, replace=False)))
        r_pq = spl.subspace_angle(p, q)
        r_qp = spl.subspace_angle(q, p)
        assert r_pq.norm_diff == r_qp.norm_diff
        assert 0.0 <= r_pq.norm_diff <= 1.0
        assert np.all(r_pq.sin_spectrum >= 0.0) and np.all(r_pq.sin_spectrum <= 1.0)


def test_angle_dimension_mismatch():
    p = spl.Projector(matrix=np.eye(2, dtype=complex), rank=2)
    q = spl.Projector(matrix=np.eye(3, dtype=complex), rank=3)
    with pytest.raises(DimensionMismatch):
        spl.subspace_angle(p, q)


# --- polar_decompose --------------------------------------------------------------


def test_polar_zero_matrix():
    parts = spl.polar_decompose(np.zeros((3, 2)))
    npt.assert_allclose(parts.isometry, np.zeros((3, 2)), atol=0)
    npt.assert_allclose(parts.absval, np.zeros((2, 2)), atol=0)


def test_polar_rank_one_column():
    x = np.array([[SQRT2 - 1.0], [0.0]])
    parts = spl.polar_decompose(x)
    npt.assert_allclose(parts.absval, [[SQRT2 - 1.0]], atol=1e-14)
    npt.assert_allclose(parts.isometry, [[1.0], [0.0]], atol=1e-14)


def test_polar_diagonal_signs():
    parts = spl.polar_decompose(np.diag([2.0, -3.0]))
    npt.assert_allclose(parts.absval, np.diag([2.0, 3.0]), atol=1e-14)
    npt.assert_allclose(parts.isometry, np.diag([1.0, -1.0]), atol=1e-14)


def test_polar_recompose_200_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = random_complex(rng, m, n)
        parts = spl.polar_decompose(x)
        norm = max(spl.op_norm(x), 1e-300)
        assert spl.op_norm(parts.isometry @ parts.absval - x) <= 1e-10 * norm


def test_polar_kernel_convention():
    # rank-1 map with a 2-dim kernel
    x = np.outer([1.0, 2.0], [3.0, 0.0, 4.0])
    parts = spl.polar_decompose(x)
    lam, vecs = np.linalg.eigh(parts.absval)
    for k in range(3):
        u = vecs[:, k]
        if lam[k] <= 1e-12:
            assert np.linalg.norm(parts.isometry @ u) <= 1e-10
        else:
            npt.assert_allclose(np.linalg.norm(parts.isometry @ u), 1.0, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    deficient=st.booleans(),
)
def test_polar_properties(m, n, seed, deficient):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, m, n)
    if deficient and min(m, n) > 1:
        x[:, -1] = x[:, 0] if n > 1 else x[:, -1]
    parts = spl.polar_decompose(x)
    norm = max(spl.op_norm(x), 1e-300)
    assert spl.op_norm(parts.isometry @ parts.absval - x) <= 1e-10 * norm
    # absval is Hermitian PSD
    assert spl.op_norm(parts.absval - parts.absval.conj().T) <= 1e-12 * norm
    assert np.min(np.linalg.eigvalsh(parts.absval)) >= -1e-10 * norm


# --- op_norm ----------------------------------------------------------------------


def test_op_norm_values():
    assert spl.op_norm(np.zeros((3, 3))) == 0.0
    assert spl.op_norm(np.diag([1.0, -4.0])) == 4.0
    npt.assert_allclose(spl.op_norm(np.array([[3.0], [4.0]])), 5.0, atol=1e-14)
    npt.assert_allclose(spl.op_norm(np.array([3.0, 4.0])), 5.0, atol=1e-14)


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = random_complex(rng, n, n)
        w = spl.random_unitary(n, rng)
        assert abs(spl.op_norm(w.conj().T @ m @ w) - spl.op_norm(m)) <= 1e-10 * max(
            spl.op_norm(m), 1.0
        )


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(31)
    w = spl.random_unitary(6, rng)
    npt.assert_allclose(w.conj().T @ w, np.eye(6), atol=1e-12)
