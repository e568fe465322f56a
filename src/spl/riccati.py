"""Perturbed spectral splits, angular operators and identity checks.

The perturbed operator L = A + V keeps its spectrum split by the gap while
the perturbation is small enough; the inner perturbed subspace is then the
graph of an angular operator X mapping the inner block to the outer block.
X is extracted from an orthonormal basis of the perturbed inner subspace by
graph inversion and independently certified through its quadratic-equation
residual  X A0 - A1 X + X B X - B*.

:func:`solve_stack` is the one pipeline.  It takes instances of one shape
(n0, n1) and runs each stage once for all of them, every decomposition as
one stacked numpy.linalg call over a leading batch axis; numpy computes
each matrix of a stack exactly as on its own, so an instance's numbers do
not depend on the rest of its stack.  Its stages are
:func:`perturbed_split`, :func:`angular_operator`,
:func:`verify_graph_props` and :func:`lemma22_check`, each called once
per stack; an instance is row i of their results.  The one SVD of X,
X = W diag(s) V* (:func:`polar_decompose`), is the only form of X the
checks read: s gives ||X|| and, with V, the eigenpairs of |X|; Lambda0 is
taken in V and Lambda1 in W (:func:`_similar`), and the lemma's w = U u,
for the polar factor U of X = U |X|, is a column of W.  The measured
rotation ||E0 - E0'|| is ||Y1||, the norm of the outer rows of the
orthonormal perturbed inner basis (:func:`_rotation`, read by
:func:`verify_graph_props` in the pipeline and by :func:`_rotations` in
the sharpness search); it is computed without X.

Inner products are conjugate-linear in the first argument (numpy.vdot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .disposition import InstanceStack, PerturbationInstance, _inner_mask
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EigenFailure,
    NotAGraph,
    RankMismatch,
)
from .linalg import (
    EigenSystem,
    PolarParts,
    adjoint,
    eigh,
    fro_norms,
    lapack,
    op_norms,
    polar_decompose,
)

#: Graph inversion is refused above this conditioning of the inner block.
GRAPH_COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Angular operator of the perturbed inner subspace with diagnostics.

    X maps the inner block to the outer block; polar holds its SVD
    X = W diag(s) V*, s the eigenvalues of |X| and V their eigenvectors;
    mu = ||X||.  riccati_residual is the Frobenius norm of
    X A0 - A1 X + X B X - B*.  Lambda0 is the Hermitian operator
    (I + |X|^2)^(1/2) (A0 + B X) (I + |X|^2)^(-1/2), whose spectrum equals
    omega0, expressed in the basis V: entry (i, j) is <v_i, Lambda0 v_j>.
    cond_Y0 records the conditioning of the graph inversion.  Over a stack
    every field has a leading batch axis.
    """

    X: np.ndarray
    polar: PolarParts
    mu: float
    riccati_residual: float
    Lambda0: np.ndarray
    cond_Y0: float


@dataclass(frozen=True, eq=False)
class Identities:
    """Eigenpair identity residuals of a stack, as (k, n0) arrays.

    Column j of a row belongs to the j-th eigenvalue lam of |X|, in
    descending order; res26/res27 are the absolute residuals of the two
    eigenvector identities (see :func:`lemma22_check`), term_imag the
    imaginary part left in the mixed inner-product term (it vanishes on
    Hermitian data), and top marks the eigenvalue(s) equal to ||X||.
    """

    lam: np.ndarray
    res26: np.ndarray
    res27: np.ndarray
    term_imag: np.ndarray
    top: np.ndarray


@dataclass(frozen=True, eq=False)
class GraphReport:
    """Graph-representation checks for a solved instance.

    measured is ||E_A(sigma0) - E_L(omega0)||, taken as ||Y1|| (see
    :func:`_rotation`) without X; angle_residual its deviation
    from sin(arctan ||X||); graph1_residual the defect of the outer subspace
    being the graph of -X*; spec1_residual the larger of the Hermitian
    defect of Lambda1, similar to A1 - B* X*, and the mismatch between its
    spectrum and omega1; the lambda0_* fields are those of
    :func:`lambda0_diagnostics` and the mismatch between the spectrum of
    Lambda0, similar to A0 + B X, and omega0.  The graph and Hermitian
    defects are Frobenius norms.  Over a stack every field has a leading
    batch axis.
    """

    measured: float
    angle_residual: float
    graph1_residual: float
    spec1_residual: float
    lambda0_spectrum: np.ndarray
    lambda0_herm_residual: float
    lambda0_spec_residual: float


@dataclass(frozen=True, eq=False)
class StackSolution:
    """Every stage of :func:`solve_stack` for a stack of instances.

    Per instance: the eigensystem of L (None when its eigensolve failed),
    the mask and the count (``dims``) of the inner eigenvalues and the
    structural failure (None for a solved instance).
    ``solved`` lists the solved instances in stack order; ``solution``,
    ``graph`` and ``identities`` are stacked over them.
    """

    eigen: EigenSystem | None
    inner: np.ndarray | None
    dims: list | None
    failures: list
    solved: list
    solution: RiccatiSolution | None = None
    graph: GraphReport | None = None
    identities: Identities | None = None


def _eigen(L: np.ndarray) -> EigenSystem:
    try:
        return eigh(L)
    except ConvergenceFailure as exc:
        raise EigenFailure(f"eigensolve of the perturbed operator failed: {exc}") from exc


def _rank_mismatch(dim: int, n0: int) -> RankMismatch:
    return RankMismatch(
        f"gap closed: perturbed inner subspace has dimension {dim}, expected {n0}"
    )


def perturbed_split(es: EigenSystem, inner: np.ndarray, rows: list[int], n0: int):
    """(omega0, omega1, basis0, basis1) of the stacked eigensystems ``rows``
    of L = A + V, split by the gap: the eigenvalues inside and outside it
    and orthonormal bases of both spectral subspaces.

    ``inner`` masks the eigenvalues inside the open gap; those within the
    edge tolerance of a gap end count as outside (an unmoved outer
    eigenvalue may sit exactly on an end).  Every row of ``rows`` holds n0
    inner eigenvalues: a different count means the gap closed.  The bases
    have the memory layout of ``vectors[:, inner]`` on one matrix, so the
    products that read them run the same BLAS kernels.
    """
    values, vectors = es.values, es.vectors
    if len(rows) < len(values):
        values, vectors, inner = values[rows], vectors[rows], inner[rows]
    k, n = values.shape
    cols = vectors.swapaxes(1, 2)
    return (
        values[inner].reshape(k, n0),
        values[~inner].reshape(k, n - n0),
        cols[inner].reshape(k, n0, n).swapaxes(1, 2),
        cols[~inner].reshape(k, n - n0, n).swapaxes(1, 2),
    )


def _rotation(y1: np.ndarray) -> np.ndarray:
    """||E_A(sigma0) - E_L(omega0)|| of each stacked block Y1, the outer
    rows of an orthonormal basis [Y0; Y1] of the perturbed inner subspace,
    clipped to 1.

    The instance lives in the split basis, E0 = diag(I, 0).  For subspaces
    of equal dimension the norm is the sine of the largest principal angle,
    which is ||Y1||.
    """
    return np.minimum(op_norms(y1), 1.0)


def _rotations(L: np.ndarray, gap: tuple[float, float], n0: int) -> np.ndarray:
    """The measured rotation of each stacked operator L, split by the gap
    as in :func:`solve_stack`: ||Y1|| clipped to 1 where the inner count
    is n0, else 1.0, the norm for subspaces of unequal dimension.  One
    verified eigensolve for the stack.

    Of each row with n0 inner eigenvalues only Y1 is selected: the outer
    rows of the inner columns.
    """
    es = _eigen(L)
    inner = _inner_mask(es.values, gap)
    full = inner.sum(axis=1) == n0
    out = np.ones(len(L))
    n = inner.shape[1]
    y1 = es.vectors[full, n0:, :].swapaxes(1, 2)[inner[full]].reshape(-1, n0, n - n0)
    out[full] = _rotation(y1.swapaxes(1, 2))
    return out


def _conditioning(basis0: np.ndarray, n0: int) -> list[float]:
    """Condition number of the inner block Y0 of each stacked basis."""
    sing = lapack(np.linalg.svd, basis0[:, :n0, :], compute_uv=False)
    return [
        big / small if small > 0.0 else math.inf
        for big, small in zip(sing[:, 0].tolist(), sing[:, -1].tolist())
    ]


def _is_graph(cond: float) -> bool:
    return math.isfinite(cond) and not cond > GRAPH_COND_LIMIT


def _blocks(st: InstanceStack) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(A0, A1, B, B*) of a stack, copied out of L once for the stages that
    compute with them: sums and products run slower on strided views."""
    b = st.B.copy()
    return st.A0.copy(), st.A1.copy(), b, adjoint(b)


def angular_operator(blocks: tuple, basis0: np.ndarray, cond: list[float]) -> RiccatiSolution:
    """Angular operators of the stacked perturbed inner subspaces by graph
    inversion.

    Any orthonormal basis Y of the perturbed inner subspace, partitioned
    into inner/outer block rows [Y0; Y1], yields X = Y1 Y0^{-1}; the result
    is independent of the basis choice.  ``blocks`` are (A0, A1, B, B*)
    from :func:`_blocks`, and ``cond`` the conditioning of each Y0, which
    the caller has found graph-like (see :func:`_is_graph`).
    """
    n0 = blocks[0].shape[-1]
    y0 = basis0[:, :n0, :]
    y1 = basis0[:, n0:, :]
    x = lapack(np.linalg.solve, y0.swapaxes(1, 2), y1.swapaxes(1, 2)).swapaxes(1, 2)
    polar = polar_decompose(x)
    return RiccatiSolution(
        X=x,
        polar=polar,
        mu=polar.values[:, 0],
        riccati_residual=_residual(x, *blocks),
        Lambda0=_similar(polar.vectors, blocks[0] + blocks[2] @ x, polar.values),
        cond_Y0=np.array(cond),
    )


def _similar(q: np.ndarray, m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """diag(h) Q* M Q diag(1/h) of each stacked M, for a singular basis Q
    of X and h = sqrt(1 + s^2), the singular values s of X cut or padded
    with zeros to Q's size.  In V, X's right singular basis, this is
    (I + |X|^2)^(1/2) M (I + |X|^2)^(-1/2); in W, its left one,
    (I + X X*)^(1/2) M (I + X X*)^(-1/2).
    """
    h = np.ones(q.shape[:-1])
    r = min(q.shape[-1], s.shape[-1])
    h[:, :r] = np.sqrt(1.0 + s[:, :r] ** 2)
    return adjoint(q) @ m @ q * (h[:, :, None] / h[:, None, :])


def riccati_residual(x, a0, a1, b):
    """Frobenius norm of X A0 - A1 X + X B X - B*, which bounds its
    operator norm (see :func:`linalg.fro_norms`).

    All four may carry the same leading batch axes; a stack gets one norm
    per instance, one matrix a float.
    """
    xm, a0m, a1m, bm = (np.asarray(m, dtype=complex) for m in (x, a0, a1, b))
    n0 = a0m.shape[-1]
    n1 = a1m.shape[-1]
    if xm.shape[-2:] != (n1, n0) or bm.shape[-2:] != (n0, n1):
        raise DimensionMismatch(
            f"incompatible blocks: X {xm.shape}, A0 {a0m.shape}, A1 {a1m.shape}, B {bm.shape}"
        )
    return _scalar(_residual(xm, a0m, a1m, bm, adjoint(bm)))


def _residual(x, a0, a1, b, b_adj):
    return fro_norms(x @ a0 - a1 @ x + x @ b @ x - b_adj)


def _scalar(a):
    """A float for one matrix's result, the array for a stack's."""
    return float(a) if a.ndim == 0 else a


def lemma22_check(st: InstanceStack, sol: RiccatiSolution) -> Identities:
    """Eigenpair identity residuals for the absolute value of each stacked X.

    For every eigenpair (lam, u) of |X| with w = U u, for X = U |X| =
    W diag(s) V*: u = v_k, lam = s_k, and w = w_k above the numerical rank
    cutoff of X and 0 on its kernel; ||Lambda0 u|| is the norm of column k
    of Lambda0, which is taken in V:

      res26 = | lam (||A1 w||^2 + ||B w||^2 - ||A0 u||^2 - ||B* u||^2)
               + (1 - lam^2) (<A0 u, B w> + <B* u, A1 w>) |
      res27 = | <A0 u, B w> + <B* u, A1 w>
               + lam (||A1 w||^2 + ||B w||^2 - ||Lambda0 u||^2) |

    The mixed term uses Lambda0 (not A0) in res27; both identities hold
    exactly for an exact solution, and the mixed inner-product term is real
    on Hermitian data.  Each row holds one eigenpair per inner dimension,
    the kernel of X included, by descending eigenvalue, with the top
    (norm-attaining) eigenpairs flagged.
    """
    n0 = st.n0
    lams, u, left = sol.polar.values, sol.polar.vectors, sol.polar.left
    n1 = left.shape[-1]
    r = min(n0, n1)
    # the cutoff is 0 for a zero matrix, whose s[0] is 0
    ranked = lams[:, :r] > lams[:, :1] * max(n0, n1) * np.finfo(float).eps
    w = np.zeros(left.shape[:-1] + (n0,), dtype=complex)
    w[:, :, :r] = np.where(ranked[:, None, :], left[:, :, :r], 0.0)
    # column k belongs to eigenpair k: in the split basis the column blocks
    # of L = [[A0, B], [B*, A1]] give p = [A0 u; B* u] and q = [B w; A1 w]
    p = st.L[:, :, :n0] @ u
    q = st.L[:, :, n0:] @ w
    term = _col_dots(p, q)
    outer = _col_dots(q, q).real
    res26 = np.abs(lams * (outer - _col_dots(p, p).real) + (1.0 - lams * lams) * term)
    res27 = np.abs(term + lams * (outer - _col_dots(sol.Lambda0, sol.Lambda0).real))
    top = lams >= (sol.mu - 1e-12 * np.maximum(1.0, sol.mu))[:, None]
    return Identities(lam=lams, res26=res26, res27=res27, term_imag=np.abs(term.imag), top=top)


def _col_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_k, b_k> for every column k of every stacked matrix (conjugate-linear in a)."""
    return np.einsum("...ij,...ij->...j", a.conj(), b)


def verify_graph_props(
    blocks: tuple, sol: RiccatiSolution, basis0, basis1, omega0, omega1
) -> GraphReport:
    """Residuals of the graph representation of both stacked perturbed
    subspaces.

    Checks that the measured rotation equals sin(arctan ||X||), that the
    outer perturbed subspace is the graph of -X* (inner rows of an
    orthonormal basis equal -X* times the outer rows), and that Lambda0
    and Lambda1, similar to A1 - B* X* by (I + X X*)^(1/2), are Hermitian
    with spectra omega0 and omega1.  Lambda1 is taken in the left singular
    basis W of X = W diag(s) V*, as Lambda0 is in V (see :func:`_similar`).
    The graph and Hermitian defects are Frobenius norms, which bound the
    operator norms.
    """
    a0, a1, _, b_adj = blocks
    n0 = a0.shape[-1]
    measured = _rotation(basis0[:, n0:])
    # sin(arctan mu) as in bounds.sin_arctan
    angle_residual = np.abs(measured - sol.mu / np.sqrt(1.0 + sol.mu * sol.mu))

    z0 = basis1[:, :n0, :]
    z1 = basis1[:, n0:, :]
    graph1_residual = fro_norms(z0 + adjoint(sol.X) @ z1)

    k1 = _similar(sol.polar.left, a1 - b_adj @ adjoint(sol.X), sol.polar.values)
    spec1 = lapack(np.linalg.eigvalsh, 0.5 * (k1 + adjoint(k1)))
    l0_herm, l0_spec = lambda0_diagnostics(sol)
    return GraphReport(
        measured=measured,
        angle_residual=angle_residual,
        graph1_residual=graph1_residual,
        # np.maximum keeps a NaN
        spec1_residual=np.maximum(fro_norms(k1 - adjoint(k1)), np.abs(spec1 - omega1).max(axis=1)),
        lambda0_spectrum=l0_spec,
        lambda0_herm_residual=l0_herm,
        lambda0_spec_residual=spectrum_mismatch(l0_spec, omega0),
    )


def spectrum_mismatch(eigs: np.ndarray, target: np.ndarray):
    """Worst deviation between an ascending real spectrum and an ascending
    target of the same size; spectra stacked along leading axes get one
    deviation each, and a NaN is kept."""
    return np.abs(eigs - target).max(axis=-1)


def lambda0_diagnostics(sol: RiccatiSolution):
    """Hermiticity defect of Lambda0, in the Frobenius norm, and its
    (symmetrised) spectrum."""
    l0 = sol.Lambda0
    herm = fro_norms(l0 - adjoint(l0))
    spectrum = lapack(np.linalg.eigvalsh, 0.5 * (l0 + adjoint(l0)))
    return _scalar(herm), spectrum


def solve_stack(insts: InstanceStack | Sequence[PerturbationInstance]) -> StackSolution:
    """The pipeline on instances of one shape (n0, n1) and one gap, stage by stage.

    ``insts`` is an :class:`InstanceStack`, or instances to stack.  The
    pipeline is linear algebra only: the closed-form bounds at an
    instance's geometry, its enclosure included, are its caller's.

    Per-instance structural outcomes are masks: an inner eigenvalue count
    other than n0 (RankMismatch, the gap closed) and a numerically singular
    inner block (NotAGraph) drop the instance from the later stages.  A
    LAPACK failure or a failed eigensolve check stops the whole stack: a
    stack of one records it as its instance's failure, a larger stack
    raises it (a StructuralFailure), and solving its instances one at a
    time types each instance's own failure.
    """
    st = insts if isinstance(insts, InstanceStack) else InstanceStack.of(insts)
    insts = st.insts
    k = len(insts)
    n0 = insts[0].n0
    gap = (insts[0].split.gap_left, insts[0].split.gap_right)
    if any((inst.split.gap_left, inst.split.gap_right) != gap for inst in insts):
        raise ValueError("the instances of a stack must share one gap")
    try:
        es = _eigen(st.L)
    except EigenFailure as exc:
        if k > 1:
            raise
        return StackSolution(None, None, None, [exc], [])
    inner = _inner_mask(es.values, gap)
    dims = inner.sum(axis=1).tolist()
    failures = [None if dim == n0 else _rank_mismatch(dim, n0) for dim in dims]
    rows = [i for i, failure in enumerate(failures) if failure is None]
    try:
        stages = _solve_split(st, es, inner, rows, failures)
    except ConvergenceFailure as exc:
        if k > 1:
            raise
        failures[0], stages = exc, ([],)
    return StackSolution(es, inner, dims, failures, *stages)


def _solve_split(
    st: InstanceStack, es: EigenSystem, inner: np.ndarray, rows: list[int], failures: list
) -> tuple:
    """(solved, solution, graph, identities) of the instances ``rows`` that
    passed the split; records NotAGraph in ``failures``."""
    n0 = st.n0
    if not rows:
        return (rows,)
    omega0, omega1, basis0, basis1 = perturbed_split(es, inner, rows, n0)
    cond = _conditioning(basis0, n0)
    graph = [_is_graph(c) for c in cond]
    if not all(graph):
        for i, c, ok in zip(rows, cond, graph):
            if not ok:
                failures[i] = NotAGraph(
                    f"inner block of the perturbed basis is numerically singular (cond {c:.3e})"
                )
        rows = [i for i, ok in zip(rows, graph) if ok]
        cond = [c for c, ok in zip(cond, graph) if ok]
        if not rows:
            return (rows,)
        # selected afresh rather than indexed, to keep the bases' layout
        omega0, omega1, basis0, basis1 = perturbed_split(es, inner, rows, n0)
    if len(rows) < len(failures):
        st = st.take(rows)
    blocks = _blocks(st)
    sol = angular_operator(blocks, basis0, cond)
    checks = verify_graph_props(blocks, sol, basis0, basis1, omega0, omega1)
    return rows, sol, checks, lemma22_check(st, sol)

