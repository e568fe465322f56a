"""Gap-confined spectral dispositions and block perturbation instances.

The ambient Hermitian operator A splits its spectrum into an inner
component (inside a declared finite gap of the outer component) and the
outer component owning both gap endpoints.  Perturbations are Hermitian
and strictly off-diagonal with respect to that splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    DispositionViolation,
    EmptyInnerComponent,
    GapEndpointMissing,
    InfeasibleParams,
    NotAGap,
)
from .linalg import EigenSystem, Projector, as_hermitian, eigh, op_norm


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    """Spectral partition of a Hermitian operator around a finite gap.

    sigma0/sigma1 list eigenvalues (with multiplicity, ascending) inside and
    outside the open gap (gap_left, gap_right).  d is the exact minimum
    distance between the two lists, gap_len the gap width.  E0 projects
    onto the inner spectral subspace.
    """

    sigma0: np.ndarray
    sigma1: np.ndarray
    gap_left: float
    gap_right: float
    d: float
    gap_len: float
    E0: Projector

    @property
    def n0(self) -> int:
        return self.sigma0.size

    @property
    def n1(self) -> int:
        return self.sigma1.size

    @property
    def n(self) -> int:
        return self.n0 + self.n1


@dataclass(frozen=True, eq=False)
class PerturbationInstance:
    """Block operator data: diagonal A, off-diagonal V, perturbed L = A + V.

    A0/A1 are the inner/outer diagonal blocks; B (inner-rows by outer-cols)
    is the coupling block embedded in V.  v equals the operator norm of both
    B and V.  Instances built by :func:`assemble_instance` are expressed in
    the split basis, i.e. A is diagonal with sigma0 entries first.
    """

    A: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    B: np.ndarray
    V: np.ndarray
    L: np.ndarray
    v: float
    split: SpectralSplit
    trivial: bool

    @property
    def n0(self) -> int:
        return self.A0.shape[0]

    @property
    def n1(self) -> int:
        return self.A1.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def norm_A(self) -> float:
        return float(np.max(np.abs(np.concatenate([self.split.sigma0, self.split.sigma1]))))

    @property
    def scale(self) -> float:
        """Quadratic scale (|A| + |V|)**2 used by identity tolerances."""
        return (self.norm_A + self.v) ** 2


@dataclass(frozen=True)
class InstanceParams:
    """Parameters for the seeded random instance generator."""

    n0: int
    n1: int
    gap_left: float
    gap_right: float
    d: float
    outer_radius: float
    v: float
    pin_side: str = "left"


def validate_disposition(a, gap: tuple[float, float]) -> SpectralSplit:
    """Check the gap-confined disposition of a Hermitian matrix.

    ``gap`` is the open interval (gap_left, gap_right); both endpoints must
    be spectral points (within the edge tolerance) and at least one
    eigenvalue must lie strictly inside.  Eigenvalues within the edge
    tolerance of an endpoint are identified with that endpoint and assigned
    to the outer component.
    """
    gl, gr = float(gap[0]), float(gap[1])
    if not gl < gr:
        raise ValueError(f"gap endpoints must satisfy gap_left < gap_right, got ({gl}, {gr})")
    es = eigh(a)
    return split_from_eigensystem(es, (gl, gr))


def split_from_eigensystem(es: EigenSystem, gap: tuple[float, float]) -> SpectralSplit:
    """Build a SpectralSplit from an existing eigendecomposition."""
    gl, gr = float(gap[0]), float(gap[1])
    vals = es.values
    tol = es.edge_tol
    at_left = np.abs(vals - gl) <= tol
    at_right = np.abs(vals - gr) <= tol
    if not bool(at_left.any()):
        raise GapEndpointMissing(f"left endpoint {gl} is not a spectral point (tol {tol:.3e})")
    if not bool(at_right.any()):
        raise GapEndpointMissing(f"right endpoint {gr} is not a spectral point (tol {tol:.3e})")
    inner = (vals > gl) & (vals < gr) & ~at_left & ~at_right
    if not bool(inner.any()):
        raise EmptyInnerComponent(f"no eigenvalue strictly inside ({gl}, {gr})")
    cols0 = es.vectors[:, inner]
    e0 = Projector(matrix=cols0 @ cols0.conj().T, rank=cols0.shape[1])
    return _split(vals[inner], vals[~inner], (gl, gr), e0)


def _split(sigma0, sigma1, gap, e0: Projector) -> SpectralSplit:
    """SpectralSplit of ascending inner/outer lists with inner projector e0."""
    gl, gr = gap
    d = float(np.min(np.abs(sigma0[:, None] - sigma1[None, :])))
    return SpectralSplit(
        sigma0=sigma0, sigma1=sigma1, gap_left=gl, gap_right=gr, d=d, gap_len=gr - gl, E0=e0
    )


def check_partition(
    sigma0_values: Sequence[float],
    sigma1_values: Sequence[float],
    gap: tuple[float, float],
) -> None:
    """Validate explicit inner/outer eigenvalue lists against a gap.

    Raises NotAGap when an outer value sits strictly inside the gap,
    GapEndpointMissing when an endpoint is absent from the outer list,
    EmptyInnerComponent for an empty inner list, and DispositionViolation
    when an inner value falls outside the open gap or a value is not finite.
    """
    gl, gr = float(gap[0]), float(gap[1])
    if not gl < gr:
        raise ValueError(f"gap endpoints must satisfy gap_left < gap_right, got ({gl}, {gr})")
    s0 = np.asarray(sigma0_values, dtype=float)
    s1 = np.asarray(sigma1_values, dtype=float)
    if s0.size == 0:
        raise EmptyInnerComponent("inner component is empty")
    scale = max(float(np.max(np.abs(s0))) if s0.size else 0.0,
                float(np.max(np.abs(s1))) if s1.size else 0.0,
                abs(gl), abs(gr))
    if not np.isfinite(scale):
        raise DispositionViolation("eigenvalues and gap endpoints must be finite")
    tol = linalg.EDGE_RTOL * scale
    if not bool((np.abs(s1 - gl) <= tol).any()):
        raise GapEndpointMissing(f"left endpoint {gl} missing from the outer component")
    if not bool((np.abs(s1 - gr) <= tol).any()):
        raise GapEndpointMissing(f"right endpoint {gr} missing from the outer component")
    inside = (s1 > gl + tol) & (s1 < gr - tol)
    if bool(inside.any()):
        raise NotAGap(f"outer eigenvalue(s) {s1[inside]} lie strictly inside ({gl}, {gr})")
    outside = (s0 <= gl + tol) | (s0 >= gr - tol)
    if bool(outside.any()):
        raise DispositionViolation(
            f"inner eigenvalue(s) {s0[outside]} do not lie strictly inside ({gl}, {gr})"
        )


def offdiag_project(w, split: SpectralSplit) -> np.ndarray:
    """Off-diagonal part of a Hermitian perturbation w.r.t. a split.

    Returns V = (W - J W J) / 2, the component of W anticommuting with the
    split involution J = 2 E0 - I.  Applying the map twice equals applying
    it once.
    """
    wm = as_hermitian(w)
    if wm.shape[0] != split.n:
        raise DimensionMismatch(f"perturbation is {wm.shape[0]}-dim, split is {split.n}-dim")
    j = 2.0 * split.E0.matrix - np.eye(split.n)
    v = 0.5 * (wm - j @ wm @ j)
    return 0.5 * (v + v.conj().T)


def assemble_instance(
    sigma0_values: Sequence[float],
    sigma1_values: Sequence[float],
    gap: tuple[float, float],
    b,
) -> PerturbationInstance:
    """Build a block perturbation instance from explicit spectra and coupling.

    A = diag(diag(sigma0), diag(sigma1)) in the split basis, V embeds the
    coupling block b (shape n0 x n1) off-diagonally, L = A + V.  A zero b is
    accepted but the instance is flagged trivial.  The split is read off the
    validated partition: sorted spectra, exact separation and
    E0 = diag(I_n0, 0).
    """
    check_partition(sigma0_values, sigma1_values, gap)
    s0 = np.asarray(sigma0_values, dtype=float)
    s1 = np.asarray(sigma1_values, dtype=float)
    bm = np.atleast_2d(np.asarray(b, dtype=complex))
    if bm.shape != (s0.size, s1.size):
        raise DimensionMismatch(
            f"coupling block must be {s0.size}x{s1.size}, got {bm.shape}"
        )
    n0, n1 = s0.size, s1.size
    n = n0 + n1
    a0 = np.diag(s0).astype(complex)
    a1 = np.diag(s1).astype(complex)
    a = np.zeros((n, n), dtype=complex)
    a[:n0, :n0] = a0
    a[n0:, n0:] = a1
    v = np.zeros((n, n), dtype=complex)
    v[:n0, n0:] = bm
    v[n0:, :n0] = bm.conj().T
    vnorm = op_norm(bm)
    e0 = np.zeros((n, n), dtype=complex)
    e0[:n0, :n0] = np.eye(n0)
    split = _split(np.sort(s0), np.sort(s1), (float(gap[0]), float(gap[1])),
                   Projector(matrix=e0, rank=n0))
    return PerturbationInstance(
        A=a,
        A0=a0,
        A1=a1,
        B=bm,
        V=v,
        L=a + v,
        v=vnorm,
        split=split,
        trivial=(vnorm == 0.0),
    )


def _rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def random_instance(params: InstanceParams, seed) -> PerturbationInstance:
    """Seeded random instance with exact separation and perturbation norm.

    The outer component holds both gap endpoints exactly plus n1 - 2 values
    drawn outside the gap within ``outer_radius``; the inner component is
    drawn from the admissible hull with one value pinned at distance exactly
    ``d`` from the boundary chosen by ``pin_side``, so the separation equals
    d exactly.  The coupling block is a complex Gaussian matrix rescaled to
    norm v.  Bit-identical output for identical seeds.
    """
    p = params
    gl, gr = float(p.gap_left), float(p.gap_right)
    width = gr - gl
    if not gl < gr:
        raise InfeasibleParams(f"gap ({gl}, {gr}) is empty")
    if not 0.0 < p.d <= width / 2.0:
        raise InfeasibleParams(f"need 0 < d <= {width / 2.0}, got d={p.d}")
    if p.v < 0.0:
        raise InfeasibleParams(f"negative perturbation norm {p.v}")
    if p.n0 < 1:
        raise InfeasibleParams("inner component needs at least one eigenvalue")
    if p.n1 < 2:
        raise InfeasibleParams("outer component must occupy both gap endpoints")
    if p.outer_radius < 0.0:
        raise InfeasibleParams(f"negative outer_radius {p.outer_radius}")
    if p.pin_side not in ("left", "right"):
        raise InfeasibleParams(f"pin_side must be 'left' or 'right', got {p.pin_side!r}")

    rng = _rng_from(seed)
    extras = p.n1 - 2
    sides = rng.integers(0, 2, size=extras)
    offsets = rng.uniform(0.0, p.outer_radius, size=extras) if extras else np.empty(0)
    outer = [gl, gr]
    for side, off in zip(sides, offsets):
        outer.append(gl - off if side == 0 else gr + off)
    inner = rng.uniform(gl + p.d, gr - p.d, size=p.n0)
    inner[0] = gl + p.d if p.pin_side == "left" else gr - p.d

    btilde = rng.standard_normal((p.n0, p.n1)) + 1j * rng.standard_normal((p.n0, p.n1))
    if p.v > 0.0:
        b = btilde * (p.v / op_norm(btilde))
    else:
        b = np.zeros((p.n0, p.n1), dtype=complex)
    return assemble_instance(inner, outer, (gl, gr), b)


def hide_block_structure(inst: PerturbationInstance, seed) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate (A, V) by a seeded random unitary.

    Returns dense Hermitian (A', V') with hidden block structure; spectra,
    split geometry and all subspace angles are unchanged, which exercises
    the full eigenvector-based projector pipeline.
    """
    rng = _rng_from(seed)
    w = linalg.random_unitary(inst.n, rng)
    a = w @ inst.A @ w.conj().T
    v = w @ inst.V @ w.conj().T
    return 0.5 * (a + a.conj().T), 0.5 * (v + v.conj().T)
