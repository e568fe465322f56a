"""Perturbed spectral splits, angular operators and identity checks.

The perturbed operator L = A + V keeps its spectrum split by the gap while
the perturbation is small enough; the inner perturbed subspace is then the
graph of an angular operator X mapping the inner block to the outer block.
X is extracted from an orthonormal basis of the perturbed inner subspace by
graph inversion and independently certified through its quadratic-equation
residual  X A0 - A1 X + X B X - B*.

:func:`solve_instance` runs each stage once per instance.  The one SVD of
X (:func:`polar_decompose`) gives ||X||, the polar parts, the eigenpairs of
|X| and (I + |X|^2)^(+-1/2).  The measured rotation ||E0 - E0'|| comes from
the spectral projectors (:func:`subspace_angle`), never from X.

Inner products are conjugate-linear in the first argument (numpy.vdot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .disposition import PerturbationInstance
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EigenFailure,
    NotAGraph,
    RankMismatch,
    SplError,
)
from .linalg import PolarParts, Projector, eigh, op_norm, polar_decompose, subspace_angle

#: Graph inversion is refused above this conditioning of the inner block.
GRAPH_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class PerturbedSplit:
    """Spectrum and spectral subspaces of L = A + V split by the gap.

    omega0/omega1 are the eigenvalues inside/outside the open gap (edge
    grazers count as outside); EL0 the spectral projector onto the inner
    part and basis0/basis1 orthonormal bases of both parts.  enclosure is the
    erosion interval confining omega0 (None when v >= sqrt(d*D)).
    gap_closed flags an inner eigenvalue count different from the
    unperturbed one, i.e. spectrum leaked across the gap ends.
    """

    omega0: np.ndarray
    omega1: np.ndarray
    EL0: Projector
    basis0: np.ndarray
    basis1: np.ndarray
    enclosure: tuple[float, float] | None
    gap_closed: bool


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Angular operator of the perturbed inner subspace with diagnostics.

    X maps the inner block to the outer block; polar holds X = U |X| and
    the eigenpairs of |X|; mu = ||X||.  riccati_residual is the operator norm of
    X A0 - A1 X + X B X - B*.  Lambda0 is the Hermitian operator similar to
    A0 + B X via (I + |X|^2)^(1/2), whose spectrum equals omega0.  cond_Y0
    records the conditioning of the graph inversion.
    """

    X: np.ndarray
    polar: PolarParts
    mu: float
    riccati_residual: float
    Lambda0: np.ndarray
    cond_Y0: float


@dataclass(frozen=True)
class IdentityReport:
    """Eigenpair identity residuals for one eigenvalue of |X|.

    lam is the |X| eigenvalue, res26/res27 the absolute residuals of the two
    eigenvector identities, term_imag the imaginary part left in the mixed
    inner-product term (should vanish on Hermitian data), and top marks the
    eigenvalue(s) equal to ||X||.
    """

    lam: float
    res26: float
    res27: float
    term_imag: float
    top: bool


@dataclass(frozen=True, eq=False)
class GraphReport:
    """Graph-representation checks for a solved instance.

    measured is ||E_A(sigma0) - E_L(omega0)||; angle_residual its deviation
    from sin(arctan ||X||); graph1_residual the defect of the outer subspace
    being the graph of -X*; spec0/spec1_residual the mismatch between the
    spectra of A0 + B X / A1 - B* X* and omega0 / omega1; the lambda0_*
    fields are those of :func:`lambda0_diagnostics` and the mismatch
    between the Lambda0 spectrum and omega0.
    """

    measured: float
    angle_residual: float
    graph1_residual: float
    spec0_residual: float
    spec1_residual: float
    lambda0_spectrum: np.ndarray
    lambda0_herm_residual: float
    lambda0_spec_residual: float


@dataclass(frozen=True, eq=False)
class InstanceSolution:
    """Every stage of :func:`solve_instance`, each run once.

    ``failure`` holds the structural error that stopped the pipeline
    (EigenFailure, RankMismatch on gap closure, NotAGraph); the stages after
    it are None.  Unpacks as ``(perturbed, solution, graph, identities)``.
    """

    perturbed: PerturbedSplit | None
    solution: RiccatiSolution | None = None
    graph: GraphReport | None = None
    identities: list[IdentityReport] | None = None
    failure: SplError | None = None

    def __iter__(self):
        return iter((self.perturbed, self.solution, self.graph, self.identities))


def perturbed_split(inst: PerturbationInstance) -> PerturbedSplit:
    """Split the spectrum of L = A + V by the instance's gap.

    Eigenvalues within the edge tolerance of a gap end are assigned to the
    outer part (an unmoved outer eigenvalue may legitimately sit exactly on
    an endpoint).  The split is flagged gap_closed when the inner eigenvalue
    count differs from the unperturbed block dimension.
    """
    try:
        es = eigh(inst.L)
    except ConvergenceFailure as exc:
        raise EigenFailure(f"eigensolve of the perturbed operator failed: {exc}") from exc
    split = inst.split
    gl, gr = split.gap_left, split.gap_right
    tol = es.edge_tol
    vals = es.values
    near = (np.abs(vals - gl) <= tol) | (np.abs(vals - gr) <= tol)
    inner = (vals > gl) & (vals < gr) & ~near
    cols0 = es.vectors[:, inner]
    if bounds.BoundInputs(D=split.gap_len, d=split.d, v=inst.v).regime_split:
        encl = bounds.enclosure(gl, gr, split.d, inst.v)
    else:
        encl = None
    return PerturbedSplit(
        omega0=vals[inner],
        omega1=vals[~inner],
        EL0=Projector(matrix=cols0 @ cols0.conj().T, rank=cols0.shape[1]),
        basis0=cols0,
        basis1=es.vectors[:, ~inner],
        enclosure=encl,
        gap_closed=cols0.shape[1] != split.n0,
    )


def angular_operator(inst: PerturbationInstance, ps: PerturbedSplit) -> RiccatiSolution:
    """Angular operator of the perturbed inner subspace by graph inversion.

    Any orthonormal basis Y of Ran(EL0), partitioned into inner/outer block
    rows [Y0; Y1], yields X = Y1 Y0^{-1}; the result is independent of the
    basis choice.  Raises RankMismatch when the subspace dimension differs
    from the inner block size (the gap closed) and NotAGraph when Y0 is
    numerically singular (conditioning above GRAPH_COND_LIMIT).
    """
    n0 = inst.n0
    if ps.basis0.shape[1] != n0:
        raise RankMismatch(
            f"gap closed: perturbed inner subspace has dimension {ps.basis0.shape[1]}, "
            f"expected {n0}"
        )
    y0 = ps.basis0[:n0, :]
    y1 = ps.basis0[n0:, :]
    sing = np.linalg.svd(y0, compute_uv=False)
    smin = float(sing[-1]) if sing.size else 0.0
    cond = float(sing[0] / smin) if smin > 0.0 else float("inf")
    if not np.isfinite(cond) or cond > GRAPH_COND_LIMIT:
        raise NotAGraph(
            f"inner block of the perturbed basis is numerically singular (cond {cond:.3e})",
            cond=cond,
        )
    x = np.linalg.solve(y0.T, y1.T).T
    polar = polar_decompose(x)
    resid = riccati_residual(x, inst.A0, inst.A1, inst.B)
    half = polar.apply(lambda s: np.sqrt(1.0 + s * s))
    half_inv = polar.apply(lambda s: 1.0 / np.sqrt(1.0 + s * s))
    lambda0 = half @ (inst.A0 + inst.B @ x) @ half_inv
    return RiccatiSolution(
        X=x,
        polar=polar,
        mu=float(polar.values[0]),
        riccati_residual=resid,
        Lambda0=lambda0,
        cond_Y0=cond,
    )


def riccati_residual(x, a0, a1, b) -> float:
    """Operator norm of X A0 - A1 X + X B X - B*."""
    xm = np.asarray(x, dtype=complex)
    a0m = np.asarray(a0, dtype=complex)
    a1m = np.asarray(a1, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    n0 = a0m.shape[0]
    n1 = a1m.shape[0]
    if xm.shape != (n1, n0) or bm.shape != (n0, n1):
        raise DimensionMismatch(
            f"incompatible blocks: X {xm.shape}, A0 {a0m.shape}, A1 {a1m.shape}, B {bm.shape}"
        )
    return op_norm(xm @ a0m - a1m @ xm + xm @ bm @ xm - bm.conj().T)


def lemma22_check(sol: RiccatiSolution, inst: PerturbationInstance) -> list[IdentityReport]:
    """Per-eigenpair identity residuals for the absolute value of X.

    For every eigenpair (lam, u) of |X| with w = U u:

      res26 = | lam (||A1 w||^2 + ||B w||^2 - ||A0 u||^2 - ||B* u||^2)
               + (1 - lam^2) (<A0 u, B w> + <B* u, A1 w>) |
      res27 = | <A0 u, B w> + <B* u, A1 w>
               + lam (||A1 w||^2 + ||B w||^2 - ||Lambda0 u||^2) |

    The mixed term uses Lambda0 (not A0) in res27; both identities hold
    exactly for an exact solution, and the mixed inner-product term is real
    on Hermitian data.  Reports come out sorted by descending eigenvalue
    with the top (norm-attaining) eigenpairs flagged; there is one per
    inner dimension, the kernel of X included.
    """
    u_iso = sol.polar.isometry
    lams, vecs = sol.polar.values, sol.polar.vectors
    a0, a1, b = inst.A0, inst.A1, inst.B
    bh = b.conj().T
    reports = []
    for k in range(lams.size):
        lam = float(lams[k])
        u = vecs[:, k]
        w = u_iso @ u
        a1w = a1 @ w
        bw = b @ w
        a0u = a0 @ u
        bhu = bh @ u
        term = complex(np.vdot(a0u, bw) + np.vdot(bhu, a1w))
        n_a1w = float(np.vdot(a1w, a1w).real)
        n_bw = float(np.vdot(bw, bw).real)
        n_a0u = float(np.vdot(a0u, a0u).real)
        n_bhu = float(np.vdot(bhu, bhu).real)
        n_l0u = float(np.vdot(sol.Lambda0 @ u, sol.Lambda0 @ u).real)
        res26 = abs(lam * (n_a1w + n_bw - n_a0u - n_bhu) + (1.0 - lam * lam) * term)
        res27 = abs(term + lam * (n_a1w + n_bw - n_l0u))
        reports.append(
            IdentityReport(
                lam=lam,
                res26=float(res26),
                res27=float(res27),
                term_imag=abs(term.imag),
                top=bool(lam >= sol.mu - 1e-12 * max(1.0, sol.mu)),
            )
        )
    return reports


def verify_graph_props(
    sol: RiccatiSolution, inst: PerturbationInstance, ps: PerturbedSplit
) -> GraphReport:
    """Residuals of the graph representation of both perturbed subspaces.

    Checks that the projector difference norm equals sin(arctan ||X||),
    that the outer perturbed subspace is the graph of -X* (inner rows of an
    orthonormal basis equal -X* times the outer rows), that the spectra
    of A0 + B X and A1 - B* X* reproduce omega0 and omega1, and that
    Lambda0 is Hermitian with spectrum omega0.
    """
    n0 = inst.n0
    measured = subspace_angle(inst.split.E0, ps.EL0).norm_diff
    angle_residual = abs(measured - bounds.sin_arctan(sol.mu))

    z0 = ps.basis1[:n0, :]
    z1 = ps.basis1[n0:, :]
    graph1_residual = op_norm(z0 + sol.X.conj().T @ z1)

    spec0 = np.linalg.eigvals(inst.A0 + inst.B @ sol.X)
    spec1 = np.linalg.eigvals(inst.A1 - inst.B.conj().T @ sol.X.conj().T)
    spec0_residual = spectrum_mismatch(spec0, ps.omega0)
    spec1_residual = spectrum_mismatch(spec1, ps.omega1)
    l0_herm, l0_spec = lambda0_diagnostics(sol)
    return GraphReport(
        measured=float(measured),
        angle_residual=float(angle_residual),
        graph1_residual=float(graph1_residual),
        spec0_residual=float(spec0_residual),
        spec1_residual=float(spec1_residual),
        lambda0_spectrum=l0_spec,
        lambda0_herm_residual=l0_herm,
        lambda0_spec_residual=spectrum_mismatch(l0_spec, ps.omega0),
    )


def spectrum_mismatch(eigs: np.ndarray, target: np.ndarray) -> float:
    """Worst deviation between a computed spectrum and a real target list.

    Compares sorted real parts and counts any imaginary mass as deviation;
    infinite when the multiplicities disagree.
    """
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.size != target.size:
        return float("inf")
    if eigs.size == 0:
        return 0.0
    imag = float(np.max(np.abs(eigs.imag)))
    real = np.sort(eigs.real)
    return max(imag, float(np.max(np.abs(real - np.sort(target)))))


def lambda0_diagnostics(sol: RiccatiSolution) -> tuple[float, np.ndarray]:
    """Hermiticity defect of Lambda0 and its (symmetrised) spectrum."""
    l0 = sol.Lambda0
    herm = op_norm(l0 - l0.conj().T)
    spectrum = np.linalg.eigvalsh(0.5 * (l0 + l0.conj().T))
    return float(herm), spectrum


def solve_instance(inst: PerturbationInstance) -> InstanceSolution:
    """Full pipeline on one instance: split, angular operator, all checks.

    Structural failures are returned in ``failure`` rather than raised, so
    that callers can report the stages that did run.
    """
    try:
        ps = perturbed_split(inst)
    except EigenFailure as exc:
        return InstanceSolution(perturbed=None, failure=exc)
    try:
        sol = angular_operator(inst, ps)
    except (RankMismatch, NotAGraph) as exc:
        return InstanceSolution(perturbed=ps, failure=exc)
    return InstanceSolution(
        perturbed=ps,
        solution=sol,
        graph=verify_graph_props(sol, inst, ps),
        identities=lemma22_check(sol, inst),
    )
