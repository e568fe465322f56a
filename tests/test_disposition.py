import math

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
    NonHermitianInput,
    NotAGap,
)

from conftest import (
    inner_projector, projector, random_hermitian, random_unitary, rotation_of, split_parts,
)


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


def test_validate_snaps_edge_grazers():
    # 1 - 1e-12 lies inside the gap but within the edge tolerance of its
    # right end, so it is identified with that end and counts as outer
    split = spl.validate_disposition(np.diag([0.0, -1.0, 1.0 - 1e-12, 1.0]), (-1.0, 1.0))
    npt.assert_allclose(split.sigma0, [0.0])
    npt.assert_allclose(split.sigma1, [-1.0, 1.0 - 1e-12, 1.0])


def test_validate_bad_gap_order():
    with pytest.raises(ValueError):
        spl.validate_disposition(np.diag([0.0, -1.0, 1.0]), (1.0, -1.0))


def test_split_operators():
    a = np.diag([0.0, -1.0, 1.0])
    split = spl.validate_disposition(a, (-1.0, 1.0))
    n = a.shape[0]
    es = spl.eigh(a)
    e0 = projector(es.vectors[:, np.isin(es.values, split.sigma0)])
    # E0 is an orthogonal projector of rank n0; J = 2 E0 - I is an
    # involution commuting with A
    npt.assert_allclose(e0 @ e0, e0, atol=1e-12)
    npt.assert_allclose(e0.conj().T, e0, atol=1e-12)
    assert split.n0 == 1
    npt.assert_allclose(np.trace(e0).real, split.n0, atol=1e-12)
    j = 2.0 * e0 - np.eye(n)
    npt.assert_allclose(j @ j, np.eye(n), atol=1e-10)
    npt.assert_allclose(j @ a, a @ j, atol=1e-12)
    assert split.d <= split.gap_len / 2.0 + 1e-12


def test_validate_dense_conjugated():
    rng = np.random.default_rng(3)
    w = random_unitary(4, rng)
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


# --- assemble_instance ------------------------------------------------------------


def test_assemble_e1(e1):
    expected = np.array(
        [[0.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )
    npt.assert_allclose(e1.L, expected, atol=0)
    assert e1.v == 0.5
    assert not e1.trivial
    assert spl.op_norm(split_parts(e1)[1]) == 0.5


def test_assemble_trivial_flag():
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[0.0, 0.0]])
    assert inst.trivial
    npt.assert_allclose(inst.L, split_parts(inst)[0], atol=0)
    # L has the bytes of the sum A + V: the -0.0 parts of B* = 0 became +0.0
    parts = inst.L.view(float)
    assert not np.signbit(parts[parts == 0.0]).any()


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


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_assemble_rejects_non_finite_coupling(entry):
    # refused where it enters, as a non-finite L is by linalg.as_hermitian
    with pytest.raises(NonHermitianInput, match="non-finite"):
        spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[entry, 0.0]])


def test_assemble_rejects_bad_block_shape():
    with pytest.raises(DimensionMismatch):
        spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), np.zeros((2, 2)))


def test_partition_checked_only_where_outside_input_enters(monkeypatch):
    calls = []
    check = spl.disposition.check_partition

    def spy(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(spl.disposition, "check_partition", spy)
    # the generators build partitions that are valid by construction
    cfg = spl.CampaignConfig(trials=5, seed=3, n0=(1, 4), n1=(2, 4))
    insts = [spl.trial_instance(cfg, i)[0] for i in range(cfg.trials)]
    spl.sharpness_search(
        spl.SharpnessConfig(n0=2, n1=3, D=2.0, d=0.5, v=0.5, restarts=1, iters=5)
    )
    assert calls == []
    # instances from outside are validated
    spl.matio.instance_from_dict(spl.matio.instance_to_dict(insts[0]))
    spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[0.5, 0.0]])
    assert len(calls) == 2


def test_assembled_split_matches_eigh_route():
    # the split read off the partition is bit for bit the one that an
    # eigendecomposition of the diagonal A yields
    cfg = spl.CampaignConfig(
        trials=300, seed=4242, n0=(1, 20), n1=(2, 20), gap=(-1.0, 1.0), d=(0.05, 0.95),
    )
    for index in range(cfg.trials):
        inst, _ = spl.trial_instance(cfg, index)
        ref = spl.validate_disposition(split_parts(inst)[0], cfg.gap)
        split = inst.split
        assert split.sigma0.tobytes() == ref.sigma0.tobytes()
        assert split.sigma1.tobytes() == ref.sigma1.tobytes()
        assert split.d == ref.d


def test_instance_anticommutes_with_involution(e1):
    j = 2.0 * inner_projector(e1) - np.eye(e1.L.shape[0])
    v = split_parts(e1)[1]
    assert spl.op_norm(j @ v + v @ j) <= 1e-10 * e1.v


# --- random_instance ---------------------------------------------------------------


def test_random_instance_exact_parameters():
    inst = spl.random_instance(
        n0=2, n1=4, gap_left=-1.0, gap_right=1.0, d=0.4, outer_radius=2.0, v=0.6, seed=7
    )
    assert abs(inst.split.d - 0.4) <= 1e-12
    assert abs(inst.v - 0.6) <= 1e-12
    assert (inst.n0, inst.n1) == (2, 4)


def test_random_instance_deterministic():
    params = dict(n0=3, n1=5, gap_left=-1.0, gap_right=1.0, d=0.3, outer_radius=1.5, v=0.4)
    a = spl.random_instance(**params, seed=99)
    b = spl.random_instance(**params, seed=99)
    assert np.array_equal(a.L, b.L)
    assert np.array_equal(a.B, b.B)


def test_random_instance_zero_perturbation():
    inst = spl.random_instance(
        n0=2, n1=3, gap_left=-1.0, gap_right=1.0, d=0.5, outer_radius=1.0, v=0.0, seed=5
    )
    assert inst.trivial
    v = split_parts(inst)[1]
    npt.assert_allclose(v, np.zeros_like(v), atol=0)


@pytest.mark.parametrize("side,expected", [("left", -0.6), ("right", 0.6)])
def test_random_instance_pin_side(side, expected):
    inst = spl.random_instance(
        n0=3, n1=2, gap_left=-1.0, gap_right=1.0, d=0.4, outer_radius=0.0, v=0.1,
        pin_side=side, seed=13,
    )
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
        {"outer_radius": math.inf},
        {"outer_radius": math.nan},
        {"gap_left": -math.inf},
        {"v": math.inf},
        {"v": math.nan},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
    ],
)
def test_random_instance_infeasible(kw):
    base = dict(n0=1, n1=2, gap_left=-1.0, gap_right=1.0, d=0.5, outer_radius=1.0, v=0.2,
                seed=0)
    base.update(kw)
    with pytest.raises(InfeasibleParams):
        spl.random_instance(**base)


@pytest.mark.parametrize("kw", [{"n0": 1.5}, {"n1": 2.5}, {"n0": True}, {"n1": 3.0}])
def test_random_instance_refuses_non_integer_sizes(kw):
    base = dict(n0=1, n1=2, gap_left=-1.0, gap_right=1.0, d=0.5, outer_radius=1.0, v=0.2)
    with pytest.raises(InfeasibleParams, match="integers"):
        spl.random_instance(**{**base, **kw}, seed=0)
    # numpy integers are integers
    spl.random_instance(**{**base, "n0": np.int64(2)}, seed=0)


@pytest.mark.parametrize("pin_side", ["left", "right"])
def test_random_instance_refuses_separation_within_edge_tolerance(pin_side):
    base = dict(n0=2, n1=3, gap_left=-1.0, gap_right=1.0, outer_radius=2.0, v=1e-12,
                pin_side=pin_side)
    # the outer values are drawn before the inner ones, so d does not move them;
    # the drawn one lies past 2.9, so the partition's scale is not the gap end's
    sigma1 = spl.random_instance(d=0.5, **base, seed=1).split.sigma1
    scale = float(np.abs(sigma1).max())
    assert scale > 2.9
    with pytest.raises(DispositionViolation, match="edge tolerance"):
        spl.random_instance(d=0.9 * spl.disposition.EDGE_RTOL * scale, **base, seed=1)
    spl.random_instance(d=1.1 * spl.disposition.EDGE_RTOL * scale, **base, seed=1)


def test_random_instance_distance_and_norm_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        d = float(rng.uniform(0.05, 1.0))
        v = float(rng.uniform(0.0, 1.0))
        inst = spl.random_instance(
            n0=int(rng.integers(1, 6)),
            n1=int(rng.integers(2, 7)),
            gap_left=-1.0,
            gap_right=1.0,
            d=d,
            outer_radius=2.0,
            v=v,
            pin_side="left" if rng.integers(0, 2) == 0 else "right",
            seed=int(rng.integers(0, 2**31)),
        )
        assert abs(inst.split.d - d) <= 1e-12
        assert abs(inst.v - v) <= 1e-12


# --- helpers -------------------------------------------------------------------------


def test_hide_block_structure_preserves_geometry():
    inst = spl.random_instance(
        n0=2, n1=3, gap_left=-1.0, gap_right=1.0, d=0.4, outer_radius=1.0, v=0.5, seed=21
    )
    # conjugate A and V by a seeded random unitary to hide the block structure
    w = random_unitary(inst.L.shape[0], np.random.default_rng(22))

    def hide(m):
        h = w @ m @ w.conj().T
        return 0.5 * (h + h.conj().T)

    a_dense, v_dense = (hide(m) for m in split_parts(inst))
    split = spl.validate_disposition(a_dense, (-1.0, 1.0))
    npt.assert_allclose(np.sort(split.sigma0), np.sort(inst.split.sigma0), atol=1e-10)
    npt.assert_allclose(split.d, inst.split.d, atol=1e-10)
    # every inner value lies at least d = 0.4 inside the gap, before and
    # after the perturbation, so a margin of 1e-6 selects them
    def inner_cols(h):
        es = spl.eigh(h)
        return es.vectors[:, np.abs(es.values) < 1.0 - 1e-6]

    # off-diagonality survives conjugation
    e0_dense = projector(inner_cols(a_dense))
    j = 2.0 * e0_dense - np.eye(inst.L.shape[0])
    assert spl.op_norm(j @ v_dense + v_dense @ j) <= 1e-9 * inst.v
    # measured rotation is unitarily invariant: dense path equals block path
    measured_dense = spl.subspace_angle(e0_dense, projector(inner_cols(a_dense + v_dense)))
    measured_block = rotation_of(inst)
    npt.assert_allclose(measured_dense, measured_block, atol=1e-9)
