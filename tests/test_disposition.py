import numpy as np
import numpy.testing as npt
import pytest

import spl
from spl.errors import (
    DimensionMismatch,
    DispositionViolation,
    EmptyInnerComponent,
    GapEndpointMissing,
    InfeasibleParams,
    NotAGap,
)

from conftest import random_hermitian


# --- validate_disposition -----------------------------------------------------


def test_validate_basic_split():
    split = spl.validate_disposition(np.diag([0.0, -1.0, 1.0]), (-1.0, 1.0))
    npt.assert_allclose(split.sigma0, [0.0])
    npt.assert_allclose(split.sigma1, [-1.0, 1.0])
    assert split.d == 1.0
    assert split.gap_len == 2.0
    assert (split.n0, split.n1) == (1, 2)


def test_validate_min_distance():
    split = spl.validate_disposition(np.diag([0.2, -1.0, 1.0, 3.0]), (-1.0, 1.0))
    npt.assert_allclose(split.sigma0, [0.2])
    npt.assert_allclose(split.sigma1, [-1.0, 1.0, 3.0])
    npt.assert_allclose(split.d, 0.8, atol=1e-14)


def test_validate_missing_endpoint():
    with pytest.raises(GapEndpointMissing):
        spl.validate_disposition(np.diag([0.0, -1.0]), (-1.0, 1.0))


def test_validate_empty_inner():
    with pytest.raises(EmptyInnerComponent):
        spl.validate_disposition(np.diag([-1.0, 1.0]), (-1.0, 1.0))


def test_validate_bad_gap_order():
    with pytest.raises(ValueError):
        spl.validate_disposition(np.diag([0.0, -1.0, 1.0]), (1.0, -1.0))


def test_split_operators():
    a = np.diag([0.0, -1.0, 1.0])
    split = spl.validate_disposition(a, (-1.0, 1.0))
    n = split.n
    e0 = split.E0.matrix
    # E0 is an orthogonal projector of rank n0; J = 2 E0 - I is an
    # involution commuting with A
    npt.assert_allclose(e0 @ e0, e0, atol=1e-12)
    npt.assert_allclose(e0.conj().T, e0, atol=1e-12)
    assert split.E0.rank == split.n0 == 1
    npt.assert_allclose(np.trace(e0).real, split.E0.rank, atol=1e-12)
    j = 2.0 * e0 - np.eye(n)
    npt.assert_allclose(j @ j, np.eye(n), atol=1e-10)
    npt.assert_allclose(j @ a, a @ j, atol=1e-12)
    assert split.d <= split.gap_len / 2.0 + 1e-12


def test_validate_dense_conjugated():
    rng = np.random.default_rng(3)
    w = spl.random_unitary(4, rng)
    a = w @ np.diag([0.1, -1.0, 1.0, 2.5]) @ w.conj().T
    split = spl.validate_disposition(0.5 * (a + a.conj().T), (-1.0, 1.0))
    npt.assert_allclose(split.sigma0, [0.1], atol=1e-12)
    npt.assert_allclose(split.sigma1, [-1.0, 1.0, 2.5], atol=1e-12)
    npt.assert_allclose(split.d, 0.9, atol=1e-12)


def test_shift_covariance():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 3)
    # embed a controlled spectrum: reuse eigenvectors with fixed eigenvalues
    es = spl.eigh(a)
    vals = np.array([-1.0, 0.3, 1.0])
    a = (es.vectors * vals) @ es.vectors.conj().T
    c = 0.45
    split = spl.validate_disposition(a, (-1.0, 1.0))
    shifted = spl.validate_disposition(a - c * np.eye(3), (-1.0 - c, 1.0 - c))
    npt.assert_allclose(shifted.sigma0, split.sigma0 - c, atol=1e-12)
    npt.assert_allclose(shifted.sigma1, split.sigma1 - c, atol=1e-12)
    npt.assert_allclose(shifted.d, split.d, atol=1e-12)
    assert shifted.gap_len == split.gap_len


# --- offdiag_project ------------------------------------------------------------


def test_offdiag_kills_diagonal():
    split = spl.validate_disposition(np.diag([0.0, -1.0, 1.0]), (-1.0, 1.0))
    w = np.diag([2.0, 3.0, 4.0])
    npt.assert_allclose(spl.offdiag_project(w, split), np.zeros((3, 3)), atol=1e-12)


def test_offdiag_fixes_offdiagonal():
    split = spl.validate_disposition(np.diag([0.0, -1.0, 1.0]), (-1.0, 1.0))
    rng = np.random.default_rng(7)
    w = random_hermitian(rng, 3)
    v = spl.offdiag_project(w, split)
    npt.assert_allclose(spl.offdiag_project(v, split), v, atol=1e-12)
    j = 2.0 * split.E0.matrix - np.eye(split.n)
    assert spl.op_norm(j @ v + v @ j) <= 1e-10 * max(spl.op_norm(v), 1e-300)


def test_offdiag_all_ones_pattern():
    split = spl.validate_disposition(np.diag([0.0, -1.0, 1.0]), (-1.0, 1.0))
    v = spl.offdiag_project(np.ones((3, 3)), split)
    expected = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    npt.assert_allclose(v, expected, atol=1e-12)


def test_offdiag_dimension_mismatch():
    split = spl.validate_disposition(np.diag([0.0, -1.0, 1.0]), (-1.0, 1.0))
    with pytest.raises(DimensionMismatch):
        spl.offdiag_project(np.eye(4), split)


# --- assemble_instance ------------------------------------------------------------


def test_assemble_e1(e1):
    expected = np.array(
        [[0.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )
    npt.assert_allclose(e1.L, expected, atol=0)
    assert e1.v == 0.5
    assert not e1.trivial
    assert spl.op_norm(e1.V) == 0.5


def test_assemble_trivial_flag():
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[0.0, 0.0]])
    assert inst.trivial
    npt.assert_allclose(inst.L, inst.A, atol=0)


def test_assemble_norm_is_block_norm():
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[0.3, 0.4]])
    npt.assert_allclose(inst.v, 0.5, atol=1e-14)


def test_assemble_block_spectra_match():
    inst = spl.assemble_instance([0.3, -0.2], [-1.0, 1.0, 2.0], (-1.0, 1.0), np.zeros((2, 3)))
    npt.assert_allclose(np.sort(np.linalg.eigvalsh(inst.A0)), np.sort(inst.split.sigma0), atol=1e-9)
    npt.assert_allclose(np.sort(np.linalg.eigvalsh(inst.A1)), np.sort(inst.split.sigma1), atol=1e-9)


def test_assemble_rejects_outer_inside():
    with pytest.raises(NotAGap):
        spl.assemble_instance([0.0], [-1.0, 0.5, 1.0], (-1.0, 1.0), np.zeros((1, 3)))


def test_assemble_rejects_inner_outside():
    with pytest.raises(DispositionViolation):
        spl.assemble_instance([1.5], [-1.0, 1.0], (-1.0, 1.0), np.zeros((1, 2)))
    with pytest.raises(DispositionViolation):
        spl.assemble_instance([np.nan], [-1.0, 1.0], (-1.0, 1.0), np.zeros((1, 2)))


def test_assemble_rejects_bad_block_shape():
    with pytest.raises(DimensionMismatch):
        spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), np.zeros((2, 2)))


def test_assembled_split_matches_eigh_route():
    # the split read off the partition is bit for bit the one that an
    # eigendecomposition of the diagonal A yields
    cfg = spl.CampaignConfig(
        trials=300, seed=4242, n0=(1, 20), n1=(2, 20), gap=(-1.0, 1.0), d=(0.05, 0.95),
    )
    for index in range(cfg.trials):
        inst, _ = spl.trial_instance(cfg, index)
        ref = spl.validate_disposition(inst.A, cfg.gap)
        split = inst.split
        assert split.sigma0.tobytes() == ref.sigma0.tobytes()
        assert split.sigma1.tobytes() == ref.sigma1.tobytes()
        assert split.d == ref.d
        assert split.E0.rank == ref.E0.rank
        assert split.E0.matrix.tobytes() == ref.E0.matrix.tobytes()


def test_instance_anticommutes_with_involution(e1):
    j = 2.0 * e1.split.E0.matrix - np.eye(e1.n)
    assert spl.op_norm(j @ e1.V + e1.V @ j) <= 1e-10 * e1.v


# --- random_instance ---------------------------------------------------------------


def test_random_instance_exact_parameters():
    params = spl.InstanceParams(
        n0=2, n1=4, gap_left=-1.0, gap_right=1.0, d=0.4, outer_radius=2.0, v=0.6
    )
    inst = spl.random_instance(params, 7)
    assert abs(inst.split.d - 0.4) <= 1e-12
    assert abs(inst.v - 0.6) <= 1e-12
    assert (inst.n0, inst.n1) == (2, 4)


def test_random_instance_deterministic():
    params = spl.InstanceParams(
        n0=3, n1=5, gap_left=-1.0, gap_right=1.0, d=0.3, outer_radius=1.5, v=0.4
    )
    a = spl.random_instance(params, 99)
    b = spl.random_instance(params, 99)
    assert np.array_equal(a.L, b.L)
    assert np.array_equal(a.B, b.B)


def test_random_instance_zero_perturbation():
    params = spl.InstanceParams(
        n0=2, n1=3, gap_left=-1.0, gap_right=1.0, d=0.5, outer_radius=1.0, v=0.0
    )
    inst = spl.random_instance(params, 5)
    assert inst.trivial
    npt.assert_allclose(inst.V, np.zeros_like(inst.V), atol=0)


@pytest.mark.parametrize("side,expected", [("left", -0.6), ("right", 0.6)])
def test_random_instance_pin_side(side, expected):
    params = spl.InstanceParams(
        n0=3, n1=2, gap_left=-1.0, gap_right=1.0, d=0.4, outer_radius=0.0, v=0.1,
        pin_side=side,
    )
    inst = spl.random_instance(params, 13)
    assert np.any(np.abs(np.diag(inst.A0).real - expected) <= 1e-12)


@pytest.mark.parametrize(
    "kw",
    [
        {"d": 0.0},
        {"d": 1.5},
        {"v": -0.1},
        {"n0": 0},
        {"n1": 1},
        {"outer_radius": -1.0},
        {"pin_side": "middle"},
    ],
)
def test_random_instance_infeasible(kw):
    base = dict(n0=1, n1=2, gap_left=-1.0, gap_right=1.0, d=0.5, outer_radius=1.0, v=0.2)
    base.update(kw)
    with pytest.raises(InfeasibleParams):
        spl.random_instance(spl.InstanceParams(**base), 0)


def test_random_instance_distance_and_norm_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        d = float(rng.uniform(0.05, 1.0))
        v = float(rng.uniform(0.0, 1.0))
        params = spl.InstanceParams(
            n0=int(rng.integers(1, 6)),
            n1=int(rng.integers(2, 7)),
            gap_left=-1.0,
            gap_right=1.0,
            d=d,
            outer_radius=2.0,
            v=v,
            pin_side="left" if rng.integers(0, 2) == 0 else "right",
        )
        inst = spl.random_instance(params, int(rng.integers(0, 2**31)))
        assert abs(inst.split.d - d) <= 1e-12
        assert abs(inst.v - v) <= 1e-12


# --- helpers -------------------------------------------------------------------------


def test_hide_block_structure_preserves_geometry():
    params = spl.InstanceParams(
        n0=2, n1=3, gap_left=-1.0, gap_right=1.0, d=0.4, outer_radius=1.0, v=0.5
    )
    inst = spl.random_instance(params, 21)
    a_dense, v_dense = spl.hide_block_structure(inst, 22)
    split = spl.validate_disposition(a_dense, (-1.0, 1.0))
    npt.assert_allclose(np.sort(split.sigma0), np.sort(inst.split.sigma0), atol=1e-10)
    npt.assert_allclose(split.d, inst.split.d, atol=1e-10)
    # off-diagonality survives conjugation
    j = 2.0 * split.E0.matrix - np.eye(split.n)
    assert spl.op_norm(j @ v_dense + v_dense @ j) <= 1e-9 * inst.v
    # measured rotation is unitarily invariant: dense path equals block path
    es_dense = spl.eigh(a_dense + v_dense)
    q_dense = spl.spectral_projector(es_dense, (-1.0, 1.0))
    ps = spl.perturbed_split(inst)
    measured_block = spl.subspace_angle(inst.split.E0, ps.EL0).norm_diff
    measured_dense = spl.subspace_angle(split.E0, q_dense).norm_diff
    npt.assert_allclose(measured_dense, measured_block, atol=1e-9)
