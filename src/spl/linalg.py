"""Dense Hermitian linear algebra primitives.

Matrices are numpy arrays with complex entries; real input is promoted.
Inner products throughout the package are conjugate-linear in the first
argument (``numpy.vdot`` convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousEdge,
    ConvergenceFailure,
    DimensionMismatch,
    EmptySelection,
    NonHermitianInput,
)

#: Entrywise Hermitian symmetry tolerance, relative to the largest entry.
HERMITICITY_RTOL = 1e-12
#: Eigendecomposition residual / orthonormality tolerance, relative to the norm.
EIG_RTOL = 1e-10
#: Open-interval endpoint ambiguity radius, relative to the spectral norm.
EDGE_RTOL = 1e-9


def as_hermitian(m) -> np.ndarray:
    """Validate a square Hermitian matrix and return it as a complex array.

    Raises NonHermitianInput for a non-finite entry or when the entrywise
    asymmetry exceeds ``HERMITICITY_RTOL`` times the largest entry,
    DimensionMismatch for non-square input.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a)))
    if not np.isfinite(scale):
        raise NonHermitianInput(f"matrix has a non-finite entry (largest modulus {scale})")
    if scale > 0.0:
        asym = float(np.max(np.abs(a - a.conj().T)))
        if asym > HERMITICITY_RTOL * scale:
            raise NonHermitianInput(
                f"asymmetry {asym:.3e} exceeds {HERMITICITY_RTOL:.0e} * scale ({scale:.3e})"
            )
    return a


def op_norm(m) -> float:
    """Largest singular value; 1-D input is treated as a single column."""
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        return float(np.linalg.norm(a))
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Full spectral data of a Hermitian matrix.

    values: ascending real eigenvalues, shape (n,).
    vectors: orthonormal eigenvector columns, column k pairs with values[k].
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def norm(self) -> float:
        """Spectral norm of the decomposed matrix."""
        return float(np.max(np.abs(self.values)))

    @property
    def edge_tol(self) -> float:
        return EDGE_RTOL * self.norm


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector with its rank."""

    matrix: np.ndarray
    rank: int


@dataclass(frozen=True, eq=False)
class PolarParts:
    """Polar factorisation X = isometry @ absval, with the spectrum of absval.

    isometry maps the domain space to the codomain space, acts isometrically
    on the range of ``absval`` and vanishes on its kernel.  absval is the
    Hermitian PSD square root of X*X on the domain space.  values (the
    singular values of X, descending, padded with zeros) and the columns of
    vectors are its eigenpairs; the columns past the rank of X span its kernel.
    """

    isometry: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    @property
    def absval(self) -> np.ndarray:
        return self.apply(lambda s: s)

    def apply(self, f) -> np.ndarray:
        """f(absval) for a scalar function f acting on the eigenvalues."""
        return self.vectors @ (f(self.values)[:, None] * self.vectors.conj().T)


@dataclass(frozen=True, eq=False)
class AngleReport:
    """Angle data between the ranges of two orthogonal projectors."""

    norm_diff: float
    max_angle: float
    sin_spectrum: np.ndarray


def eigh(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with verified invariants.

    Eigenvalues come out ascending; eigenvectors are orthonormal columns.
    Raises NonHermitianInput for asymmetric input and ConvergenceFailure if
    the backend does not converge or the residuals exceed ``EIG_RTOL``.
    """
    a = as_hermitian(h)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh backend failed: {exc}") from exc
    values = values.astype(float)
    scale = max(float(np.max(np.abs(values))), 1e-300)
    resid = op_norm(a @ vectors - vectors * values)
    orth = op_norm(vectors.conj().T @ vectors - np.eye(a.shape[0]))
    if resid > EIG_RTOL * scale or orth > EIG_RTOL:
        raise ConvergenceFailure(
            f"eigendecomposition residuals too large: {resid:.3e}, {orth:.3e}"
        )
    return EigenSystem(values=values, vectors=vectors)


def _interval_mask(es: EigenSystem, lo: float, hi: float, edge: str) -> np.ndarray:
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    tol = es.edge_tol
    near = (np.abs(es.values - lo) <= tol) | (np.abs(es.values - hi) <= tol)
    if edge == "strict" and bool(near.any()):
        offending = es.values[near]
        raise AmbiguousEdge(
            f"eigenvalues {offending} within {tol:.3e} of an endpoint of ({lo}, {hi})"
        )
    # snap: endpoint-grazing eigenvalues count as endpoints, hence excluded
    return (es.values > lo) & (es.values < hi) & ~near


def select_indices(es: EigenSystem, selector, edge: str = "snap") -> np.ndarray:
    """Resolve an open-interval or index-set selector to eigenvalue indices.

    ``edge`` controls eigenvalues within ``edge_tol`` of an open endpoint:
    "snap" treats them as sitting on the endpoint (excluded), "strict"
    raises AmbiguousEdge.
    """
    if isinstance(selector, tuple):
        if len(selector) != 2:
            raise ValueError("interval selector must be a (lo, hi) tuple")
        mask = _interval_mask(es, float(selector[0]), float(selector[1]), edge)
        idx = np.flatnonzero(mask)
    else:
        idx = np.asarray(sorted(set(int(i) for i in selector)), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= es.n):
        raise IndexError(f"selector indices out of range 0..{es.n - 1}")
    if idx.size == 0:
        raise EmptySelection("selector matches no eigenvalue")
    return idx


def spectral_projector(es: EigenSystem, selector, edge: str = "snap") -> Projector:
    """Orthogonal projector onto the span of the selected eigenvectors.

    ``selector`` is an open interval ``(lo, hi)`` of floats or an iterable of
    eigenvalue indices.  See :func:`select_indices` for endpoint handling.
    """
    idx = select_indices(es, selector, edge=edge)
    cols = es.vectors[:, idx]
    return Projector(matrix=cols @ cols.conj().T, rank=int(idx.size))


def subspace_angle(p: Projector, q: Projector) -> AngleReport:
    """Angle report for two subspaces given by orthogonal projectors.

    norm_diff is the spectral norm of P - Q, max_angle its arcsine, and
    sin_spectrum the singular values of P - Q clipped to [0, 1].
    """
    if p.matrix.shape != q.matrix.shape:
        raise DimensionMismatch(
            f"projector shapes differ: {p.matrix.shape} vs {q.matrix.shape}"
        )
    diff = p.matrix - q.matrix
    sing = np.clip(np.linalg.svd(diff, compute_uv=False), 0.0, 1.0)
    norm_diff = float(sing[0]) if sing.size else 0.0
    return AngleReport(
        norm_diff=norm_diff,
        max_angle=float(np.arcsin(norm_diff)),
        sin_spectrum=sing,
    )


def polar_decompose(x) -> PolarParts:
    """Polar factors of a rectangular matrix.

    Returns ``PolarParts`` with ``x = isometry @ absval``.  The SVD keeps
    the full right singular basis, so absval has a full eigenbasis even
    when x has fewer rows than columns.  The isometry is built only from
    singular directions above the numerical rank cutoff, so it vanishes on
    the kernel of x.  absval is computed from the SVD directly (not via a
    matrix square root) to keep small singular values accurate.
    """
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    try:
        w, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"svd backend failed: {exc}") from exc
    values = np.zeros(a.shape[1])
    values[:s.size] = s
    cutoff = s[0] * max(a.shape) * np.finfo(float).eps if s.size and s[0] > 0 else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    isometry = w[:, :rank] @ vh[:rank, :]
    return PolarParts(isometry=isometry, values=values, vectors=vh.conj().T)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n-by-n unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
