import dataclasses
from types import SimpleNamespace

import mpmath
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


def mp_phi_sup(a: float, d: float, v: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(sup, y): the supremum of the kernel phi(x, y) = (v x + a y) /
    (x^2 + y^2 - a^2 - v^2) over x >= a + d, 0 <= y <= v, and its maximiser
    (a + d, y), at 50 digits.

    Independent of ``spl.phi`` and ``spl.phi_sup_analytic``: it maximises
    phi(a + d, y) over y in [0, v], taking the bracketed root of dphi/dy
    where dphi/dy changes sign and comparing it against both corners.

    No other point can win.  With N = v x + a y > 0 and den = x^2 + y^2 -
    a^2 - v^2 >= d(2a + d) - v^2 > 0, grad phi = 0 needs v den = 2 x N and
    a den = 2 y N.  For a = 0 the second gives y = 0, an edge.  For a > 0
    the two force (x, y) = t (v, a) with t > 0, and then den = (t^2 - 1)
    (a^2 + v^2) and N = t (a^2 + v^2) turn the first into t^2 - 1 = 2 t^2,
    which has no real solution: phi has no interior critical point.  On the
    edge y = 0, dphi/dx = -v (x^2 + a^2 + v^2) / den^2 < 0; on the edge
    y = v, phi = v / (x - a).  Both edges decrease in x and phi -> 0 as
    x -> inf, so the supremum is a maximum on the edge x = a + d.
    """
    with mpmath.workdps(50):
        a, d, v = mpmath.mpf(a), mpmath.mpf(d), mpmath.mpf(v)
        x = a + d

        def kernel(y):
            return (v * x + a * y) / (x * x + y * y - a * a - v * v)

        def slope(y):  # numerator of dphi/dy at x = a + d
            return a * (x * x + y * y - a * a - v * v) - 2 * y * (v * x + a * y)

        ys = [mpmath.mpf(0), v]
        if slope(ys[0]) > 0 > slope(v):
            ys.append(mpmath.findroot(slope, (ys[0], v), solver="anderson"))
        return max((kernel(y), y) for y in ys)
