"""Gap-confined spectral dispositions and block perturbation instances.

The ambient Hermitian operator A splits its spectrum into an inner
component (inside a declared finite gap of the outer component) and the
outer component owning both gap endpoints.  Perturbations are Hermitian
and strictly off-diagonal with respect to that splitting.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DispositionViolation,
    EmptyInnerComponent,
    GapEndpointMissing,
    InfeasibleParams,
    NonHermitianInput,
    NotAGap,
)
from .linalg import EigenSystem, adjoint, eigh, op_norms

#: Open-interval endpoint ambiguity radius, relative to the spectral norm.
EDGE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralSplit:
    """Spectral partition of a Hermitian operator around a finite gap.

    sigma0/sigma1 list eigenvalues (with multiplicity, ascending) inside and
    outside the open gap (gap_left, gap_right).  d is the exact minimum
    distance between the two lists, gap_len the gap width.
    """

    sigma0: np.ndarray
    sigma1: np.ndarray
    gap_left: float
    gap_right: float
    d: float
    gap_len: float

    @property
    def n0(self) -> int:
        return self.sigma0.size

    @property
    def n1(self) -> int:
        return self.sigma1.size


class _Blocks:
    """The blocks of L = [[A0, B], [B*, A1]] in the split basis, as views of
    L (of each matrix of a stack): A0/A1 the inner/outer diagonal blocks of
    the diagonal A, B (inner rows by outer columns) the coupling block of
    the off-diagonal V."""

    L: np.ndarray

    @property
    def A0(self) -> np.ndarray:
        n0 = self.n0
        return self.L[..., :n0, :n0]

    @property
    def A1(self) -> np.ndarray:
        n0 = self.n0
        return self.L[..., n0:, n0:]

    @property
    def B(self) -> np.ndarray:
        n0 = self.n0
        return self.L[..., :n0, n0:]


@dataclass(frozen=True, eq=False)
class PerturbationInstance(_Blocks):
    """The perturbed operator L = A + V in the split basis, i.e. A is
    diagonal with the sigma0 entries first, and its spectral split.

    v equals the operator norm of both B and V; the instance is trivial
    when v is zero.
    """

    L: np.ndarray
    v: float
    split: SpectralSplit

    @property
    def n0(self) -> int:
        return self.split.n0

    @property
    def n1(self) -> int:
        return self.split.n1

    @property
    def trivial(self) -> bool:
        return self.v == 0.0

    @property
    def norm_A(self) -> float:
        return float(np.abs(np.concatenate([self.split.sigma0, self.split.sigma1])).max())

    @property
    def scale(self) -> float:
        """Quadratic scale (|A| + |V|)**2 used by identity tolerances."""
        return (self.norm_A + self.v) ** 2


@dataclass(eq=False)
class InstanceStack(_Blocks):
    """Instances of one block shape (n0, n1) with their operators L stacked
    along a leading batch axis.

    Built stacks (:func:`_assemble`) hold each instance's L as a view of
    its row; :meth:`of` stacks given instances, and a stack of one is a
    view of its instance's L.
    """

    insts: list[PerturbationInstance]
    L: np.ndarray

    @property
    def n0(self) -> int:
        return self.insts[0].n0

    @classmethod
    def of(cls, insts: list[PerturbationInstance]) -> InstanceStack:
        if len(insts) == 1:
            return cls(insts, insts[0].L[None])
        return cls(insts, np.stack([inst.L for inst in insts]))

    def take(self, rows: list[int]) -> InstanceStack:
        return InstanceStack([self.insts[i] for i in rows], self.L[rows])


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
    tol = EDGE_RTOL * float(np.abs(vals).max())
    if not bool((np.abs(vals - gl) <= tol).any()):
        raise GapEndpointMissing(f"left endpoint {gl} is not a spectral point (tol {tol:.3e})")
    if not bool((np.abs(vals - gr) <= tol).any()):
        raise GapEndpointMissing(f"right endpoint {gr} is not a spectral point (tol {tol:.3e})")
    inner = _inner_mask(vals, (gl, gr))
    if not bool(inner.any()):
        raise EmptyInnerComponent(f"no eigenvalue strictly inside ({gl}, {gr})")
    return _split(vals[inner], vals[~inner], (gl, gr))


def _inner_mask(values, gap) -> np.ndarray:
    """Eigenvalues inside the open gap, those within the edge tolerance of an
    end excluded: ``EDGE_RTOL`` times the spectral norm, of each spectrum of
    a stack.  A difference of two floats is positive exactly when the first
    is larger, so ``values - gap_left > tol`` alone says both."""
    tol = EDGE_RTOL * np.abs(values).max(axis=-1, keepdims=True)
    return (values - gap[0] > tol) & (gap[1] - values > tol)


def _split(sigma0, sigma1, gap) -> SpectralSplit:
    """SpectralSplit of ascending inner/outer lists."""
    gl, gr = gap
    d = float(np.abs(sigma0[:, None] - sigma1[None, :]).min())
    return SpectralSplit(
        sigma0=sigma0, sigma1=sigma1, gap_left=gl, gap_right=gr, d=d, gap_len=gr - gl
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
    scale = max(float(np.abs(s0).max()) if s0.size else 0.0,
                float(np.abs(s1).max()) if s1.size else 0.0,
                abs(gl), abs(gr))
    if not np.isfinite(scale):
        raise DispositionViolation("eigenvalues and gap endpoints must be finite")
    tol = EDGE_RTOL * scale
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


def assemble_instance(
    sigma0_values: Sequence[float],
    sigma1_values: Sequence[float],
    gap: tuple[float, float],
    b,
) -> PerturbationInstance:
    """Build a block perturbation instance from explicit spectra and coupling.

    L = A + V with A = diag(diag(sigma0), diag(sigma1)) in the split basis
    and the coupling block b (shape n0 x n1) off-diagonal in V.  A zero b is
    accepted; the instance is then trivial.  The split is read off the
    validated partition: sorted spectra and exact separation; the inner
    spectral projector is diag(I_n0, 0).  A non-finite entry of b raises
    NonHermitianInput, as a non-finite L does in :func:`linalg.as_hermitian`.
    """
    check_partition(sigma0_values, sigma1_values, gap)
    bm = np.asarray(b, dtype=complex)
    if not np.isfinite(bm).all():
        raise NonHermitianInput("coupling block has a non-finite entry")
    return _assemble_one(sigma0_values, sigma1_values, gap, bm)


def _assemble_one(sigma0_values, sigma1_values, gap, b) -> PerturbationInstance:
    """:func:`assemble_instance` without the partition check, for the
    sharpness search, which builds valid partitions (see
    :func:`_check_separation`): a stack of one of :func:`_assemble`."""
    s0 = np.asarray(sigma0_values, dtype=float)
    s1 = np.asarray(sigma1_values, dtype=float)
    bm = np.atleast_2d(np.asarray(b, dtype=complex))
    return _assemble(s0[None], s1[None], gap, bm[None]).insts[0]


def _assemble(sigma0: np.ndarray, sigma1: np.ndarray, gap, b: np.ndarray) -> InstanceStack:
    """Instances of stacked spectra (k, n0) and (k, n1) and coupling blocks
    (k, n0, n1), each built for the whole stack at once.

    The partitions are not checked: the callers generate valid ones.  Each
    instance's L and split are views of its row of the stack.
    """
    k, n0 = sigma0.shape
    n1 = sigma1.shape[1]
    if b.shape != (k, n0, n1):
        raise DimensionMismatch(f"coupling block must be {n0}x{n1}, got {b.shape[1:]}")
    el = _operators(sigma0, sigma1, b)
    norms = op_norms(b).tolist()
    s0, s1 = np.sort(sigma0), np.sort(sigma1)
    seps = np.abs(s0[:, :, None] - s1[:, None, :]).min(axis=(1, 2)).tolist()
    gl, gr = float(gap[0]), float(gap[1])
    # positional arguments, the cheaper call: this runs once per campaign trial
    insts = [
        PerturbationInstance(el[i], v, SpectralSplit(s0[i], s1[i], gl, gr, seps[i], gr - gl))
        for i, v in enumerate(norms)
    ]
    return InstanceStack(insts, el)


def _operators(sigma0: np.ndarray, sigma1: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The operators L = A + V of stacked spectra (k, n0) and (k, n1) and
    coupling blocks (k, n0, n1), in the split basis: A diagonal with the
    sigma0 entries first, b and b* the off-diagonal blocks of V."""
    k, n0 = sigma0.shape
    n = n0 + sigma1.shape[1]
    el = np.zeros((k, n, n), dtype=complex)
    el.reshape(k, n * n)[:, :: n + 1] = np.concatenate((sigma0, sigma1), axis=1)
    el[:, :n0, n0:] = b
    el[:, n0:, :n0] = adjoint(b)
    # as the entrywise sum A + V does, turn every -0.0 part into +0.0
    el += 0.0
    return el


def _check_separation(d: float, outer) -> None:
    """Refuse a generated partition whose separation d lies within the edge
    tolerance of the gap ends.

    The generators take finite parameters, put both gap ends in the outer
    list and every other outer value outside the gap, and draw the inner
    values at least d inside it, one at exactly d.  Of the rules of
    :func:`check_partition` only one can then fail: an inner value within
    ``EDGE_RTOL`` times the partition's scale (its largest outer modulus)
    of a gap end.  The perturbed split would count that value as outer,
    closing the gap.
    """
    tol = EDGE_RTOL * max(map(abs, outer))
    if not d > tol:
        raise DispositionViolation(
            f"separation {d} lies within the edge tolerance {tol:.3e} of the gap ends"
        )


def random_instance(
    *, n0: int, n1: int, gap_left: float, gap_right: float, d: float,
    outer_radius: float, v: float, pin_side: str = "left", seed: int,
) -> PerturbationInstance:
    """Seeded random instance with separation d and perturbation norm v.

    The outer component holds both gap endpoints exactly plus n1 - 2 values
    drawn outside the gap within ``outer_radius``; the inner component is
    drawn from the admissible hull with one value pinned at distance d from
    the boundary chosen by ``pin_side``.  The separation is d up to the
    rounding of the pinned value, so it can miss d by an ulp.  The coupling
    block is a complex Gaussian matrix rescaled to norm v.  Bit-identical
    output for identical integer seeds.
    """
    gl, gr = float(gap_left), float(gap_right)
    width = gr - gl
    if not gl < gr:
        raise InfeasibleParams(f"gap ({gl}, {gr}) is empty")
    if not math.isfinite(width):
        raise InfeasibleParams(f"gap ({gl}, {gr}) is not finite")
    if not 0.0 < d <= width / 2.0:
        raise InfeasibleParams(f"need 0 < d <= {width / 2.0}, got d={d}")
    if not 0.0 <= v < math.inf:
        raise InfeasibleParams(f"perturbation norm must be finite and >= 0, got {v}")
    if not (_is_int(n0) and _is_int(n1)):
        raise InfeasibleParams(f"n0 and n1 must be integers, got {n0!r} and {n1!r}")
    if n0 < 1:
        raise InfeasibleParams("inner component needs at least one eigenvalue")
    if n1 < 2:
        raise InfeasibleParams("outer component must occupy both gap endpoints")
    if not 0.0 <= outer_radius < math.inf:
        raise InfeasibleParams(f"outer_radius must be finite and >= 0, got {outer_radius}")
    if pin_side not in ("left", "right"):
        raise InfeasibleParams(f"pin_side must be 'left' or 'right', got {pin_side!r}")
    if not (_is_int(seed) and seed >= 0):
        raise InfeasibleParams(f"seed must be an integer >= 0, got {seed!r}")

    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    draw = _draw(rng, n0, n1, (gl, gr), d, outer_radius, pin_side)
    return _build([draw], (gl, gr), [v]).insts[0]


def _is_int(x) -> bool:
    """An integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _hull(gap, d: float) -> tuple[float, float]:
    """(lo, hi) of the inner hull [gap_left + d, gap_right - d] of a
    generated partition, hi clamped to at least lo: at d = width / 2 the
    rounded ends may cross."""
    lo = gap[0] + d
    return lo, max(lo, gap[1] - d)


def _outer(gap, sides, offsets) -> list:
    """The outer values of a generated partition: the gap ends, then each
    offset placed outside the gap on its side (0 for the left end)."""
    gl, gr = gap
    outer = [gl, gr]
    for side, off in zip(sides, offsets):
        outer.append(gl - off if side == 0 else gr + off)
    return outer


def _draw(rng, n0: int, n1: int, gap, d: float, outer_radius: float, pin_side: str) -> tuple:
    """The random draws of one instance of :func:`random_instance`, in the
    generator's order: (inner, outer, btilde), the inner values with one
    pinned at distance d, the outer values and the unscaled coupling block.
    """
    extras = n1 - 2
    sides = rng.integers(0, 2, size=extras)
    offsets = rng.uniform(0.0, outer_radius, size=extras) if extras else np.empty(0)
    outer = _outer(gap, sides, offsets)
    lo, hi = _hull(gap, d)
    inner = rng.uniform(lo, hi, size=n0)
    inner[0] = lo if pin_side == "left" else hi
    _check_separation(d, outer)
    btilde = rng.standard_normal((n0, n1)) + 1j * rng.standard_normal((n0, n1))
    return inner, outer, btilde


def _build(draws: list, gap, v: list[float]) -> InstanceStack:
    """Instances of same-shape draws of :func:`_draw`, built as one stack.

    Each coupling block is rescaled to its norm in ``v`` (exactly zero for
    v = 0) with one stacked SVD, then the stack is assembled.
    """
    inner, outer, btilde = (np.array(part) for part in zip(*draws))
    v = np.array(v)
    b = btilde * (v / op_norms(btilde))[:, None, None]
    b[v == 0.0] = 0.0
    # inst.v is _assemble's second SVD of the scaled b, not the target v:
    # instance_from_file recomputes v as op_norm(B), and a campaign record
    # must equal analyze of its reloaded Instance JSON
    return _assemble(inner, outer, gap, b)
