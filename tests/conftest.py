import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import spl


@pytest.fixture
def two_blas_threads():
    """The caller's OpenBLAS set to two threads; yields the setter, restores after."""
    before = spl.linalg.blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    spl.linalg.set_blas_threads(2)
    try:
        if spl.linalg.blas_threads() != 2:
            pytest.skip("OpenBLAS does not take a second thread")
        yield spl.linalg.set_blas_threads
    finally:
        spl.linalg.set_blas_threads(before)


@pytest.fixture
def e1():
    """Worked 3x3 instance: inner {0} against outer {-1, 1}, coupling (0.5, 0)."""
    return spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[0.5, 0.0]])


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (z + z.conj().T)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n-by-n unitary (QR of a complex Ginibre matrix)."""
    z = random_complex(rng, n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_complex(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def split_parts(inst) -> tuple[np.ndarray, np.ndarray]:
    """(A, V) with L = A + V in the split basis: the diagonal blocks A0, A1
    and the off-diagonal coupling B, B*."""
    n0 = inst.n0
    a = np.zeros_like(inst.L)
    a[:n0, :n0] = inst.A0
    a[n0:, n0:] = inst.A1
    return a, inst.L - a


def inner_projector(inst) -> np.ndarray:
    """E0 = diag(I_n0, 0), the inner spectral projector of A in the split basis."""
    return np.diag([1.0] * inst.n0 + [0.0] * inst.n1).astype(complex)


def enclosure_of(inst) -> tuple[float, float]:
    """spl.enclosure at an instance's gap, d and v; RegimeViolation outside
    the split regime v < sqrt(d*D)."""
    split = inst.split
    return spl.enclosure(split.gap_left, split.gap_right, split.d, inst.v)


def rotation_of(inst) -> float:
    """The measured rotation ||E_A(sigma0) - E_L(omega0)|| of one instance,
    as the sharpness search takes it: ||Y1|| on a stack of one."""
    split = inst.split
    gap = (split.gap_left, split.gap_right)
    return spl.riccati._rotations(inst.L[None], gap, inst.n0)[0].item()


def row_of(stacked, row: int):
    """Row ``row`` of a stacked result dataclass, with Python scalars."""
    fields = {}
    for f in dataclasses.fields(stacked):
        value = getattr(stacked, f.name)
        if dataclasses.is_dataclass(value):
            fields[f.name] = row_of(value, row)
        elif value.ndim == 1:
            fields[f.name] = value[row].item()
        else:
            fields[f.name] = value[row]
    return type(stacked)(**fields)


def solve_one(inst):
    """Row-0 views of ``riccati.solve_stack([inst])``: (split, solution,
    graph, identities).

    ``split`` holds omega0, omega1, basis0 and basis1 of L split by the
    gap, also when the gap closed; the other three are None unless the
    instance was solved.  ``identities`` holds one column entry per
    eigenpair of |X|, by descending eigenvalue.
    """
    res = spl.riccati.solve_stack([inst])
    values, vectors, inner = res.eigen.values[0], res.eigen.vectors[0], res.inner[0]
    split = SimpleNamespace(
        omega0=values[inner], omega1=values[~inner],
        basis0=vectors[:, inner], basis1=vectors[:, ~inner],
    )
    if not res.solved:
        return split, None, None, None
    return split, row_of(res.solution, 0), row_of(res.graph, 0), row_of(res.identities, 0)


def reference_spec1(inst, x: np.ndarray, omega1: np.ndarray) -> float:
    """spec1_residual by the non-Hermitian route: the eigenvalues of
    A1 - B* X* against the ascending omega1, their sorted real parts
    compared and any imaginary part counted as deviation."""
    eigs = np.linalg.eigvals(inst.A1 - inst.B.conj().T @ x.conj().T)
    return max(np.abs(eigs.imag).max(), np.abs(np.sort(eigs.real) - omega1).max())


def projector(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal columns."""
    return cols @ cols.conj().T
