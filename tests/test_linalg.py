import ast
import math
import types
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spl
from spl.errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput

from conftest import (
    inner_projector, projector, random_complex, random_hermitian, random_unitary, solve_one,
)

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
    npt.assert_allclose(h @ es.vectors, es.vectors * es.values, atol=1e-10 * np.abs(es.values).max())
    npt.assert_allclose(es.vectors.conj().T @ es.vectors, np.eye(8), atol=1e-10)
    assert np.all(np.diff(es.values) >= 0)


def spy_op_norm(monkeypatch):
    """Record every op_norms call that eigh makes; returns the list of calls."""
    calls = []
    original = spl.linalg.op_norms

    def spy(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(spl.linalg, "op_norms", spy)
    return calls


#: diagonal matrix whose fake eigendecomposition below carries an even
#: defect on all four diagonal entries: Frobenius norm twice the spectral norm
DIAG = np.array([-1.0, -0.5, 0.5, 1.0])


def fake_eigh(defect: str, size: float):
    """np.linalg.eigh stand-in for diag(DIAG) with a defect of about size on
    every diagonal entry of the residual (eigenvalues shifted by size) or of
    the orthogonality check (vectors scaled by 1 + size/2)."""
    def eigh(a):
        if defect == "residual":
            return DIAG + size, np.eye(DIAG.size, dtype=complex)
        return DIAG.copy(), (1.0 + size / 2.0) * np.eye(DIAG.size, dtype=complex)

    return eigh


def test_eigh_frobenius_pass_skips_spectral_norms(monkeypatch):
    calls = spy_op_norm(monkeypatch)
    spl.eigh(random_hermitian(np.random.default_rng(8), 8))
    assert calls == []


@pytest.mark.parametrize("defect", ["residual", "orthogonality"])
def test_eigh_frobenius_miss_within_spectral_limit_passes(monkeypatch, defect):
    size = 0.8 * spl.linalg.EIG_RTOL
    monkeypatch.setattr(np.linalg, "eigh", fake_eigh(defect, size))
    calls = spy_op_norm(monkeypatch)
    es = spl.eigh(np.diag(DIAG))
    assert len(calls) == 2
    defect_m = calls[0] if defect == "residual" else calls[1]
    scale = float(np.max(np.abs(es.values)))
    limit = spl.linalg.EIG_RTOL * (scale if defect == "residual" else 1.0)
    assert np.linalg.norm(defect_m) > limit >= spl.op_norm(defect_m)


@pytest.mark.parametrize("defect", ["residual", "orthogonality"])
def test_eigh_defect_above_limit_in_both_norms_raises(monkeypatch, defect):
    monkeypatch.setattr(np.linalg, "eigh", fake_eigh(defect, 1.5 * spl.linalg.EIG_RTOL))
    with pytest.raises(ConvergenceFailure, match="residuals too large"):
        spl.eigh(np.diag(DIAG))


def fake_stack_eigh(sizes):
    """np.linalg.eigh stand-in for a stack of diag(DIAG), matrix k with its
    eigenvalues shifted by sizes[k]: a residual defect of spectral norm
    sizes[k] and Frobenius norm twice that."""
    def eigh(a):
        values = DIAG + np.asarray(sizes)[:, None]
        return values, np.broadcast_to(np.eye(DIAG.size, dtype=complex), a.shape).copy()

    return eigh


def test_eigh_stack_frobenius_miss_within_spectral_limit_passes(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", fake_stack_eigh([0.8 * spl.linalg.EIG_RTOL] * 3))
    calls = spy_op_norm(monkeypatch)
    es = spl.eigh(np.stack([np.diag(DIAG)] * 3))
    assert es.values.shape == (3, DIAG.size)
    assert [c.shape for c in calls] == [(3, DIAG.size, DIAG.size)] * 2


def test_eigh_stack_raises_with_the_failing_matrix_norms(monkeypatch):
    rtol = spl.linalg.EIG_RTOL
    monkeypatch.setattr(np.linalg, "eigh", fake_stack_eigh([0.8 * rtol, 1.5 * rtol, 0.8 * rtol]))
    with pytest.raises(ConvergenceFailure, match="residuals too large: 1.500e-10, 0.000e"):
        spl.eigh(np.stack([np.diag(DIAG)] * 3))


def test_eigh_nan_residual_fails():
    # an eigenvalue overflows to inf, its residual column is NaN
    with np.errstate(all="ignore"), pytest.raises(ConvergenceFailure):
        spl.eigh(np.array([[1e308, 1e308], [1e308, 1e308]]))


def test_eigh_leaves_its_input_and_identity_unwritten():
    # a complex input reaches the eigensolve as it is, not as a copy
    h = np.stack([random_hermitian(np.random.default_rng(s), 5) for s in (3, 4)])
    before = h.copy()
    es = spl.eigh(h)
    assert np.array_equal(h, before)
    assert np.array_equal(spl.eigh(h[1]).vectors, es.vectors[1])
    eye = spl.linalg._identity(5)
    assert not eye.flags.writeable and np.array_equal(eye, np.eye(5))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0


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
    scale = max(np.abs(es.values).max(), 1e-300)
    assert spl.op_norm(h @ es.vectors - es.vectors * es.values) <= 1e-10 * scale
    assert spl.op_norm(es.vectors.conj().T @ es.vectors - np.eye(n)) <= 1e-10


# --- subspace_angle --------------------------------------------------------------


def test_projector_perturbed_3x3(e1):
    ps, _, _, _ = solve_one(e1)
    assert ps.basis0.shape[1] == 1
    direction = np.array([1.0, SQRT2 - 1.0, 0.0])
    direction /= np.linalg.norm(direction)
    npt.assert_allclose(projector(ps.basis0), np.outer(direction, direction), atol=1e-12)


def test_angle_identical_projectors():
    es = spl.eigh(np.diag([0.0, -1.0, 1.0]))
    p = projector(es.vectors[:, [1]])
    assert spl.subspace_angle(p, p) == 0.0


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 8, 1.1])
def test_angle_2x2_rotation(theta):
    p = np.diag([1.0, 0.0]).astype(complex)
    c, s = math.cos(theta), math.sin(theta)
    q_dir = np.array([c, s])
    q = np.outer(q_dir, q_dir).astype(complex)
    npt.assert_allclose(spl.subspace_angle(p, q), abs(s), atol=1e-12)


def test_angle_e1_projectors(e1):
    q = projector(solve_one(e1)[0].basis0)
    npt.assert_allclose(
        spl.subspace_angle(inner_projector(e1), q), math.sin(math.pi / 8.0), atol=1e-12
    )


def test_angle_symmetric_and_bounded():
    rng = np.random.default_rng(17)
    for _ in range(20):
        es = spl.eigh(random_hermitian(rng, 7))
        p = projector(es.vectors[:, [0, 1, 2]])
        q = projector(es.vectors[:, sorted(rng.choice(7, size=3, replace=False))])
        r_pq = spl.subspace_angle(p, q)
        r_qp = spl.subspace_angle(q, p)
        assert r_pq == r_qp
        assert 0.0 <= r_pq <= 1.0


def test_angle_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        spl.subspace_angle(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


# --- polar_decompose --------------------------------------------------------------


def recompose(parts):
    """left[:, :r] diag(values[:r]) vectors[:, :r]*, r = min(n1, n0)."""
    r = min(parts.left.shape[-1], parts.vectors.shape[-1])
    return (parts.left[:, :r] * parts.values[:r]) @ parts.vectors[:, :r].conj().T


def assert_unitary(q, atol):
    npt.assert_allclose(q.conj().T @ q, np.eye(q.shape[-1]), atol=atol)


def test_polar_zero_matrix():
    parts = spl.polar_decompose(np.zeros((3, 2)))
    npt.assert_allclose(parts.values, np.zeros(2), atol=0)
    assert parts.vectors.shape == (2, 2) and parts.left.shape == (3, 3)
    assert_unitary(parts.vectors, 1e-14)
    assert_unitary(parts.left, 1e-14)
    npt.assert_allclose(recompose(parts), np.zeros((3, 2)), atol=0)


def test_polar_rank_one_column():
    x = np.array([[SQRT2 - 1.0], [0.0]])
    parts = spl.polar_decompose(x)
    npt.assert_allclose(parts.values, [SQRT2 - 1.0], atol=1e-14)
    # the singular pair (left column 0, vectors column 0) up to one phase
    phase = parts.left[0, 0] * parts.vectors[0, 0].conj()
    npt.assert_allclose(phase, 1.0, atol=1e-14)
    npt.assert_allclose(abs(parts.left[1, 0]), 0.0, atol=1e-14)
    npt.assert_allclose(recompose(parts), x, atol=1e-14)


def test_polar_diagonal_signs():
    x = np.diag([2.0, -3.0])
    parts = spl.polar_decompose(x)
    npt.assert_allclose(parts.values, [3.0, 2.0], atol=1e-14)
    # |X| = V diag(s) V* and the sign of -3 carried by the bases
    absval = (parts.vectors * parts.values) @ parts.vectors.conj().T
    npt.assert_allclose(absval, np.diag([2.0, 3.0]), atol=1e-14)
    npt.assert_allclose(recompose(parts), x, atol=1e-14)


def test_polar_recompose_200_random():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = random_complex(rng, m, n)
        parts = spl.polar_decompose(x)
        norm = max(spl.op_norm(x), 1e-300)
        assert spl.op_norm(recompose(parts) - x) <= 1e-10 * norm


def test_polar_kernel_convention():
    # rank-1 map with a 2-dim kernel: the values past the rank are zeros
    # and the columns of vectors past the rank span the kernel
    x = np.outer([1.0, 2.0], [3.0, 0.0, 4.0])
    parts = spl.polar_decompose(x)
    npt.assert_allclose(parts.values, [5.0 * math.sqrt(5.0), 0.0, 0.0], atol=1e-12)
    assert parts.values[2] == 0.0  # padding, n0 = 3 > n1 = 2
    for k in range(3):
        image = x @ parts.vectors[:, k]
        if k == 0:
            npt.assert_allclose(image, parts.values[0] * parts.left[:, 0], atol=1e-10)
        else:
            assert np.linalg.norm(image) <= 1e-10


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
    assert spl.op_norm(recompose(parts) - x) <= 1e-10 * norm
    # descending singular values, zero-padded to n when n > m
    assert parts.values.shape == (n,)
    assert np.all(np.diff(parts.values) <= 0.0) and parts.values[-1] >= 0.0
    assert np.all(parts.values[m:] == 0.0)
    npt.assert_allclose(parts.values[:min(m, n)], np.linalg.svd(x, compute_uv=False),
                        atol=1e-12 * norm)
    # orthonormal bases: the full right (n x n) and left (m x m) ones
    assert parts.vectors.shape == (n, n) and parts.left.shape == (m, m)
    assert_unitary(parts.vectors, 1e-12)
    assert_unitary(parts.left, 1e-12)


# --- op_norm ----------------------------------------------------------------------


def test_op_norm_values():
    assert spl.op_norm(np.zeros((3, 3))) == 0.0
    assert spl.op_norm(np.diag([1.0, -4.0])) == 4.0
    npt.assert_allclose(spl.op_norm(np.array([[3.0], [4.0]])), 5.0, atol=1e-14)
    npt.assert_allclose(spl.op_norm(np.array([3.0, 4.0])), 5.0, atol=1e-14)


def test_op_norm_bitwise_equals_norm_2():
    # the former op_norm: norm(a, 2) of the complex promotion
    rng = np.random.default_rng(2718)
    draws = 0
    for shape_of in (
        lambda k: (1, k), lambda k: (k, 1), lambda k: (k, k),
        lambda k: (k, k + 3), lambda k: (k + 3, k),
    ):
        for k in range(1, 21):
            for complex_entries in (False, True):
                shape = shape_of(k)
                m = random_complex(rng, *shape) if complex_entries else rng.standard_normal(shape)
                m = m * 10.0 ** rng.uniform(-8, 8)
                expected = float(np.linalg.norm(np.asarray(m, dtype=complex), 2))
                assert spl.op_norm(m).hex() == expected.hex()
                draws += 1
    assert draws >= 200
    for zero in (np.zeros((1, 1)), np.zeros((4, 4)), np.zeros((2, 5), dtype=complex)):
        assert spl.op_norm(zero).hex() == float(np.linalg.norm(zero.astype(complex), 2)).hex()
    for k in range(1, 10):
        v = random_complex(rng, 1, k)[0]
        assert spl.op_norm(v).hex() == float(np.linalg.norm(v)).hex()
        assert spl.op_norm(v.real).hex() == float(np.linalg.norm(v.real.astype(complex))).hex()
    for empty in (np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0))):
        assert spl.op_norm(empty) == 0.0


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = random_complex(rng, n, n)
        w = random_unitary(n, rng)
        assert abs(spl.op_norm(w.conj().T @ m @ w) - spl.op_norm(m)) <= 1e-10 * max(
            spl.op_norm(m), 1.0
        )


# --- fro_norms --------------------------------------------------------------------

#: A few ulps of a norm, as a relative margin.
ULPS = 4 * np.finfo(float).eps


def test_fro_norms_bound_the_operator_norms():
    rng = np.random.default_rng(1414)
    for m, n in [(1, 1), (1, 6), (6, 1), (3, 3), (10, 11), (13, 7), (20, 20)]:
        stack = random_complex(rng, 7 * m, n).reshape(7, m, n)
        # rank one, where the two norms are equal
        stack[0] = np.outer(random_complex(rng, m, 1), random_complex(rng, 1, n))
        stack *= 10.0 ** rng.uniform(-8, 8, (7, 1, 1))
        op, fro = spl.linalg.op_norms(stack), spl.linalg.fro_norms(stack)
        assert fro.shape == (7,)
        assert np.all(op <= fro * (1.0 + ULPS))
        assert np.all(fro <= math.sqrt(min(m, n)) * op * (1.0 + ULPS))


def test_fro_norms_do_not_overflow(recwarn):
    rng = np.random.default_rng(1415)
    unit = random_complex(rng, 12, 5).reshape(3, 4, 5)
    unit /= np.abs(unit).max()
    fro = spl.linalg.fro_norms(1e200 * unit)
    expected = 1e200 * np.linalg.norm(unit, axis=(-2, -1))
    assert np.all(np.isfinite(fro))
    npt.assert_allclose(fro, expected, rtol=1e-14, atol=0.0)
    assert not recwarn.list  # the overflow of the first pass is silent


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fro_norms_refuse_non_finite_entries(recwarn, bad):
    stack = np.ones((3, 2, 4), dtype=complex)
    stack[1, 1, 2] = bad
    with pytest.raises(ConvergenceFailure):
        spl.linalg.fro_norms(stack)
    assert not recwarn.list


def raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize(
    "routine, call",
    [
        ("svdvals", lambda: spl.op_norm(np.eye(2))),
        ("norm", lambda: spl.eigh(np.eye(2))),  # residual check
        ("eigh", lambda: spl.eigh(np.eye(2))),
        ("svd", lambda: spl.polar_decompose(np.eye(2))),
        ("svd", lambda: spl.subspace_angle(np.eye(2), np.eye(2))),
    ],
    ids=["op_norm", "eigh-residual", "eigh", "polar_decompose", "subspace_angle"],
)
def test_lapack_failure_is_convergence_failure(monkeypatch, routine, call):
    monkeypatch.setattr(np.linalg, routine, raise_linalg_error)
    with pytest.raises(ConvergenceFailure):
        call()


#: numpy.linalg routines that call LAPACK, norm included (a matrix norm
#: takes an SVD, and a stack's norm goes through LAPACK's wrappers too).
LAPACK_ROUTINES = {"svd", "svdvals", "eigh", "eigvalsh", "eigvals", "solve", "qr", "norm"}
#: The np.linalg references that are not ``lapack(...)`` calls, by enclosing
#: function: the exception type lapack catches, and op_norm's norm of 1-D
#: input, a vector norm that calls no LAPACK routine.
NOT_LAPACK_CALLS = {("lapack", "LinAlgError"), ("op_norm", "norm")}


def test_every_lapack_call_is_typed():
    # every call site in src, not only those test_lapack_failure_is_convergence_failure
    # mocks: a LinAlgError must surface as ConvergenceFailure everywhere
    calls, others = 0, set()
    for path in sorted(Path(spl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                imported = {alias.name for alias in node.names}
                assert not imported & LAPACK_ROUTINES, f"{path.name}: imports {imported}"
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")
            ):
                continue
            call = parent[node]
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "lapack"
                and call.args[:1] == [node]
            ):
                calls += 1
                continue
            scope = parent[node]
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parent[scope]
            others.add((getattr(scope, "name", path.name), node.attr))
    assert calls >= 10
    assert others == NOT_LAPACK_CALLS


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(31)
    w = random_unitary(6, rng)
    npt.assert_allclose(w.conj().T @ w, np.eye(6), atol=1e-12)


# --- BLAS threads ------------------------------------------------------------------


def test_one_blas_thread_restores_callers_count(two_blas_threads):
    with spl.linalg.one_blas_thread():
        assert spl.linalg.blas_threads() == 1
    assert spl.linalg.blas_threads() == 2
    with pytest.raises(RuntimeError), spl.linalg.one_blas_thread():
        assert spl.linalg.blas_threads() == 1
        raise RuntimeError("inside the block")
    assert spl.linalg.blas_threads() == 2


def test_one_blas_thread_without_thread_control(monkeypatch):
    assert spl.linalg._thread_control(types.SimpleNamespace()) is None
    monkeypatch.setattr(spl.linalg, "_blas_thread_control", lambda: None)
    assert spl.linalg.blas_threads() is None
    with spl.linalg.one_blas_thread():
        spl.linalg.set_blas_threads(1)
    assert spl.linalg.blas_threads() is None
