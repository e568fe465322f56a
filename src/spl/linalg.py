"""Dense Hermitian linear algebra primitives.

Matrices are numpy arrays with complex entries; real input is promoted.
Inner products throughout the package are conjugate-linear in the first
argument (``numpy.vdot`` convention).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonHermitianInput

#: Entrywise Hermitian symmetry tolerance, relative to the largest entry.
HERMITICITY_RTOL = 1e-12
#: Eigendecomposition residual / orthonormality tolerance, relative to the norm.
EIG_RTOL = 1e-10


def lapack(fn, *args, **kwargs):
    """Call a numpy.linalg routine, raising ConvergenceFailure on LinAlgError."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{fn.__name__} backend failed: {exc}") from exc


def as_hermitian(m) -> np.ndarray:
    """Validate a square Hermitian matrix, or a stack of them along leading
    axes, and return it as a complex array.

    Raises NonHermitianInput for a non-finite entry or when the entrywise
    asymmetry exceeds ``HERMITICITY_RTOL`` times the largest entry of its
    matrix, DimensionMismatch for non-square input.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1))
    finite = np.isfinite(scale)
    if not finite.all():
        raise NonHermitianInput(
            f"matrix has a non-finite entry (largest modulus {float(scale[~finite].flat[0])})"
        )
    asym = np.abs(a - adjoint(a)).max(axis=(-2, -1))
    bad = asym > HERMITICITY_RTOL * scale
    if bad.any():
        asym, scale = float(asym[bad].flat[0]), float(scale[bad].flat[0])
        raise NonHermitianInput(
            f"asymmetry {asym:.3e} exceeds {HERMITICITY_RTOL:.0e} * scale ({scale:.3e})"
        )
    return a


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().mT


def op_norm(m) -> float:
    """Largest singular value; 1-D input is treated as a single column.

    Raises ConvergenceFailure for a matrix with a NaN or infinite entry.
    """
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        return float(np.linalg.norm(a))
    return float(op_norms(a))


def op_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (one stacked SVD).

    Raises ConvergenceFailure for a NaN or infinite entry: LAPACK refuses a
    NaN, and returns NaN singular values for a matrix with an infinity.
    """
    # gesdd returns the singular values in descending order, so the first is
    # what norm(a, 2) returns, without its axis handling and amax reduction.
    top = lapack(np.linalg.svdvals, a)[..., 0]
    if np.isnan(top).any():
        raise ConvergenceFailure("matrix has a non-finite entry")
    return top


def fro_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, without an SVD.

    It bounds the spectral norm, ||a||_2 <= ||a||_F <= sqrt(rank) ||a||_2,
    so a residual within a tolerance in it is within it in the spectral
    norm.  A norm that overflows is taken again from its matrix scaled by
    the largest modulus.  Raises ConvergenceFailure for a NaN or infinite
    entry.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.asarray(lapack(np.linalg.norm, a, axis=(-2, -1)))
        big = ~np.isfinite(norms)
        if big.any():
            scale = np.abs(a[big]).max(axis=(-2, -1))
            if not np.isfinite(scale).all():
                raise ConvergenceFailure("matrix has a non-finite entry")
            unit = a[big] / scale[:, None, None]
            norms[big] = scale * lapack(np.linalg.norm, unit, axis=(-2, -1))
    return norms


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Full spectral data of a Hermitian matrix, or of a stack of them.

    values: ascending real eigenvalues, shape (..., n).
    vectors: orthonormal eigenvector columns, column k pairs with values[k];
    shape (..., n, n).  Leading axes index the matrices of a stack.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class PolarParts:
    """The SVD X = left diag(s) vectors* of a rectangular X, n1 x n0.

    values are the singular values s of X, descending and padded with
    zeros to n0: the eigenvalues of |X| = (X*X)^(1/2), paired with the
    columns of vectors (n0 x n0), the full right singular basis; the
    columns past the rank of X span its kernel.  left is the full left
    singular basis (n1 x n1), the eigenvectors of X X*.  For a stack of
    matrices every field has the same leading axes.
    """

    values: np.ndarray
    vectors: np.ndarray
    left: np.ndarray


def eigh(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with verified invariants.

    Eigenvalues come out ascending; eigenvectors are orthonormal columns.
    A stack of matrices along leading axes is decomposed in one LAPACK
    call, each matrix exactly as on its own.  Raises NonHermitianInput for
    asymmetric input and ConvergenceFailure if the backend does not
    converge or the residuals of any matrix are not within ``EIG_RTOL``
    (a NaN residual fails).

    The residual and orthogonality matrices are formed in place in the
    products' outputs, against an identity cached per size; the input is
    never written.
    """
    a = as_hermitian(h)
    values, vectors = lapack(np.linalg.eigh, a)
    scale = np.maximum(np.abs(values).max(axis=-1), 1e-300)
    resid_m = a @ vectors
    resid_m -= vectors * values[..., None, :]
    orth_m = adjoint(vectors) @ vectors
    orth_m -= _identity(a.shape[-1])
    # The Frobenius norm bounds the spectral norm, so a pass on it is a pass.
    # The norms of the whole stack bound every matrix's; they pass the stack
    # when they pass against its smallest scale with a factor 2 to spare
    # (their sums run in another order than one matrix's).  Otherwise the
    # spectral norms of every matrix decide; their SVDs cost about twice the
    # eigensolve.
    limit = 0.5 * EIG_RTOL
    if not (
        lapack(np.linalg.norm, resid_m) <= limit * float(scale.min())
        and lapack(np.linalg.norm, orth_m) <= limit
    ):
        resid, orth = op_norms(resid_m), op_norms(orth_m)
        bad = ~((resid <= EIG_RTOL * scale) & (orth <= EIG_RTOL))
        if bad.any():
            resid, orth = float(resid[bad].flat[0]), float(orth[bad].flat[0])
            raise ConvergenceFailure(
                f"eigendecomposition residuals too large: {resid:.3e}, {orth:.3e}"
            )
    return EigenSystem(values=values, vectors=vectors)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, shared by every call and therefore read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def subspace_angle(p, q) -> float:
    """||P - Q|| of two orthogonal projector matrices, clipped to [0, 1].

    The reference route for the measured rotation, which the pipeline
    computes without projectors as ||Y1||.
    """
    if p.shape != q.shape:
        raise DimensionMismatch(f"projector shapes differ: {p.shape} vs {q.shape}")
    sing = lapack(np.linalg.svd, p - q, compute_uv=False)
    return min(float(sing[0]), 1.0) if sing.size else 0.0


def polar_decompose(x) -> PolarParts:
    """The full SVD of a rectangular matrix, or of a stack of them, as
    ``PolarParts``: one LAPACK call, its singular values padded with zeros
    to the number of columns.  Both singular bases are full, so |X| has a
    full eigenbasis even when x has fewer rows than columns.
    """
    a = np.asarray(x, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    w, s, vh = lapack(np.linalg.svd, a, full_matrices=True)
    values = np.zeros(a.shape[:-2] + a.shape[-1:])
    values[..., :s.shape[-1]] = s
    return PolarParts(values=values, vectors=adjoint(vh), left=w)


# --- BLAS threads ------------------------------------------------------------

#: (set, get) thread-count symbols of OpenBLAS, tried in order: the
#: ILP64 build bundled with numpy wheels (scipy-openblas), then a plain one.
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _thread_control(lib):
    """(set, get) thread-count functions exported by ``lib``, or None."""
    for set_name, get_name in OPENBLAS_THREAD_SYMBOLS:
        set_fn = getattr(lib, set_name, None)
        get_fn = getattr(lib, get_name, None)
        if set_fn is not None and get_fn is not None:
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            return set_fn, get_fn
    return None


@functools.cache
def _blas_thread_control():
    """Thread control of the OpenBLAS numpy's LAPACK wrappers link to, or None.

    Looked up on first use, not at import; any other BLAS gives None.
    """
    try:
        from numpy.linalg import _umath_linalg

        return _thread_control(ctypes.CDLL(_umath_linalg.__file__))
    except (ImportError, OSError):
        return None


def blas_threads() -> int | None:
    """Thread count of numpy's OpenBLAS; None when it cannot be controlled."""
    control = _blas_thread_control()
    return None if control is None else control[1]()


def set_blas_threads(n: int) -> None:
    """Set the thread count of numpy's OpenBLAS; does nothing with any other BLAS."""
    # Setting the count re-creates OpenBLAS's thread pool in a forked child,
    # and a new helper thread spins for a while even when it gets no work,
    # so an unchanged count is left alone.
    control = _blas_thread_control()
    if control is not None and control[1]() != n:
        control[0](n)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread.

    The matrices of a campaign are at most a few dozen rows, too small for
    a second BLAS thread to help; a helper thread only spins and takes CPU
    from the caller or from sibling worker processes.  The caller's thread
    count comes back on exit, also when the block raises.  The count is
    process-wide, so BLAS calls made by other threads during the block run
    single-threaded too.  A campaign run in the block gives the same bytes
    whatever thread count its caller had set.

    After a block that forked worker processes, OpenBLAS has shut its
    thread pool down in the caller, so restoring a count above one
    re-creates the pool, and one new helper thread spins for about 0.12 s
    of CPU.  No public OpenBLAS call restores the count without this; it
    costs CPU after the campaign, not the campaign's wall time.
    """
    before = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_blas_threads(before)
