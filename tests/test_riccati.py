import math

import numpy as np
import numpy.testing as npt
import pytest

import spl
from spl import riccati
from spl.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    EigenFailure,
    NotAGraph,
    RankMismatch,
    RegimeViolation,
)
from spl.harness import GRAPH_TOL

from conftest import (
    enclosure_of, inner_projector, projector, random_unitary, reference_spec1, rotation_of,
    solve_one,
)

SQRT2 = math.sqrt(2.0)


def polar_of(x):
    """(U, |X|) of X from its own SVD: the polar isometry, built from the
    singular directions above the numerical rank cutoff so that it vanishes
    on the kernel of X, and the absolute value."""
    w, s, vh = np.linalg.svd(x, full_matrices=False)
    cutoff = s[0] * max(x.shape) * np.finfo(float).eps if s[0] > 0 else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    return w[:, :rank] @ vh[:rank, :], (vh.conj().T * s) @ vh


def lambda0_of(sol):
    """Lambda0 in the coordinates of the inner block: V Lambda0 V*, for the
    right singular basis V of X in which the solution holds it."""
    v = sol.polar.vectors
    return v @ sol.Lambda0 @ v.conj().T


def small_campaign_instances(seed, trials, regime="mixed", gap=(-1.0, 1.0), v_fraction=0.9):
    cfg = spl.CampaignConfig(
        trials=trials, seed=seed, n0=(1, 6), n1=(2, 6), gap=gap,
        d=(0.1, 0.45 * (gap[1] - gap[0])), regime=regime, v_fraction=v_fraction,
    )
    return [spl.trial_instance(cfg, i)[0] for i in range(trials)]


# --- perturbed_split -----------------------------------------------------------


def test_perturbed_split_e1(e1):
    ps, _, _, _ = solve_one(e1)
    npt.assert_allclose(ps.omega0, [(-1.0 + SQRT2) / 2.0], atol=1e-12)
    npt.assert_allclose(np.sort(ps.omega1), [(-1.0 - SQRT2) / 2.0, 1.0], atol=1e-12)
    assert ps.omega0.size == e1.n0  # the gap stays open
    encl = enclosure_of(e1)
    npt.assert_allclose(encl, (-(SQRT2 - 1.0) / 2.0, (SQRT2 - 1.0) / 2.0), atol=1e-12)
    # the perturbed inner eigenvalue attains the upper enclosure edge
    npt.assert_allclose(float(ps.omega0.max()), encl[1], atol=1e-12)
    assert ps.basis0.shape[1] == 1 and ps.basis1.shape[1] == 2
    basis = np.hstack([ps.basis0, ps.basis1])
    npt.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)


def test_perturbed_split_trivial():
    inst = spl.assemble_instance([0.1], [-1.0, 1.0], (-1.0, 1.0), [[0.0, 0.0]])
    ps, _, _, _ = solve_one(inst)
    npt.assert_allclose(ps.omega0, inst.split.sigma0, atol=1e-14)
    npt.assert_allclose(ps.omega1, inst.split.sigma1, atol=1e-14)
    npt.assert_allclose(projector(ps.basis0), inner_projector(inst), atol=1e-12)


def test_perturbed_split_gap_closure_detected():
    # enormous coupling drives the inner eigenvalue out of the gap
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[5.0, 0.0]])
    res = riccati.solve_stack([inst])
    assert res.dims[0] != inst.n0
    with pytest.raises(RegimeViolation):  # far outside the split regime
        enclosure_of(inst)
    assert isinstance(res.failures[0], RankMismatch)


def test_perturbed_split_enclosure_random():
    for inst in small_campaign_instances(seed=101, trials=40):
        ps, _, _, _ = solve_one(inst)
        assert ps.omega0.size == inst.n0  # the gap stays open
        lo, hi = enclosure_of(inst)
        assert float(ps.omega0.min()) >= lo - 1e-9
        assert float(ps.omega0.max()) <= hi + 1e-9


# --- angular_operator ------------------------------------------------------------


def test_angular_operator_e1(e1):
    _, sol, _, _ = solve_one(e1)
    npt.assert_allclose(sol.X, [[SQRT2 - 1.0], [0.0]], atol=1e-12)
    npt.assert_allclose(sol.mu, math.tan(math.pi / 8.0), atol=1e-12)
    assert sol.riccati_residual < 1e-12
    npt.assert_allclose(sol.Lambda0, [[(-1.0 + SQRT2) / 2.0]], atol=1e-12)
    assert sol.cond_Y0 < 2.0


def test_angular_operator_trivial():
    inst = spl.assemble_instance([0.1, -0.2], [-1.0, 1.0], (-1.0, 1.0), np.zeros((2, 2)))
    _, sol, _, _ = solve_one(inst)
    npt.assert_allclose(sol.X, np.zeros((2, 2)), atol=1e-12)
    assert sol.mu == 0.0
    npt.assert_allclose(lambda0_of(sol), inst.A0, atol=1e-12)


def angular_x(inst, basis0):
    """X of the angular_operator stage on one given inner basis."""
    basis0 = basis0[None]
    cond = riccati._conditioning(basis0, inst.n0)
    assert riccati._is_graph(cond[0])
    blocks = riccati._blocks(riccati.InstanceStack.of([inst]))
    return riccati.angular_operator(blocks, basis0, cond).X[0]


def test_angular_operator_basis_independence(e1):
    rng = np.random.default_rng(3)
    for inst in small_campaign_instances(seed=7, trials=10) + [e1]:
        ps, sol, _, _ = solve_one(inst)
        # mix the basis by a random unitary: same subspace, same X
        q = random_unitary(inst.n0, rng)
        assert spl.op_norm(sol.X - angular_x(inst, ps.basis0 @ q)) <= 1e-9
        # rebuild an orthonormal basis from the projector range instead
        y, _ = np.linalg.qr(projector(ps.basis0) @ ps.basis0)
        assert spl.op_norm(sol.X - angular_x(inst, y)) <= 1e-9


def test_angular_operator_not_a_graph_detected(e1, monkeypatch):
    # a basis orthogonal to the inner block cannot be a graph over it
    degenerate = np.array([[[0.0], [0.0], [1.0]]], dtype=complex)
    assert not riccati._is_graph(riccati._conditioning(degenerate, e1.n0)[0])
    original = riccati.perturbed_split

    def degenerate_split(*args):
        omega0, omega1, _, basis1 = original(*args)
        return omega0, omega1, degenerate, basis1

    monkeypatch.setattr(riccati, "perturbed_split", degenerate_split)
    res = riccati.solve_stack([e1])
    assert isinstance(res.failures[0], NotAGraph)
    assert res.solved == []


def test_shift_invariance_of_x():
    for inst in small_campaign_instances(seed=31, trials=10, gap=(-0.4, 1.6)):
        c = 0.6  # gap centre
        shifted = spl.assemble_instance(
            np.diag(inst.A0).real - c,
            np.diag(inst.A1).real - c,
            (-1.0, 1.0),
            inst.B,
        )
        x1 = solve_one(inst)[1].X
        x2 = solve_one(shifted)[1].X
        assert spl.op_norm(x1 - x2) <= 1e-8


def test_mu_scaling_continuity(e1):
    inst0 = spl.assemble_instance([0.2, -0.1], [-1.0, 1.0, 2.0], (-1.0, 1.0),
                                  [[0.4, 0.1, 0.2], [0.05, 0.3, -0.2]])
    ts = np.linspace(0.0, 1.0, 11)
    mus = []
    for t in ts:
        inst = spl.assemble_instance(
            np.diag(inst0.A0).real, np.diag(inst0.A1).real, (-1.0, 1.0), t * inst0.B
        )
        mus.append(solve_one(inst)[1].mu)
    assert mus[0] == 0.0
    slope = (mus[-1] - mus[0]) / (ts[-1] - ts[0])
    jumps = np.abs(np.diff(mus))
    assert np.all(jumps <= 10.0 * (ts[1] - ts[0]) * slope + 1e-12)


# --- riccati_residual ---------------------------------------------------------------


def test_riccati_residual_zero_case():
    assert spl.riccati_residual(np.zeros((2, 1)), np.zeros((1, 1)),
                                np.diag([-1.0, 1.0]), np.zeros((1, 2))) == 0.0


def test_riccati_residual_detects_wrong_solution(e1):
    _, sol, _, _ = solve_one(e1)
    assert spl.riccati_residual(sol.X, e1.A0, e1.A1, e1.B) < 1e-12
    wrong = sol.X.copy()
    wrong[0, 0] += 0.1
    assert spl.riccati_residual(wrong, e1.A0, e1.A1, e1.B) > 0.05


def test_riccati_residual_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        spl.riccati_residual(np.zeros((2, 2)), np.zeros((1, 1)),
                             np.diag([-1.0, 1.0]), np.zeros((1, 2)))


# --- eigenpair identities --------------------------------------------------------------


def test_lemma22_e1_exact(e1):
    _, sol, _, idents = solve_one(e1)
    assert idents.lam.shape == (1,)
    npt.assert_allclose(idents.lam[0], SQRT2 - 1.0, atol=1e-12)
    assert idents.top[0]
    assert idents.res26[0] < 1e-12 and idents.res27[0] < 1e-12
    assert idents.term_imag[0] < 1e-12
    # intermediate quantities admit closed forms on this instance
    u = np.array([1.0])
    w = polar_of(sol.X)[0] @ u
    npt.assert_allclose(np.linalg.norm(e1.A1 @ w), 1.0, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(e1.B @ w), 0.5, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(e1.A0 @ u), 0.0, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(e1.B.conj().T @ u), 0.5, atol=1e-12)
    term = np.vdot(e1.A0 @ u, e1.B @ w) + np.vdot(e1.B.conj().T @ u, e1.A1 @ w)
    npt.assert_allclose(term, -0.5, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(lambda0_of(sol) @ u), (SQRT2 - 1.0) / 2.0, atol=1e-12)


def test_lemma22_kernel_eigenpair():
    # second inner coordinate is uncoupled: X has a kernel direction
    inst = spl.assemble_instance(
        [0.0, 0.1], [-1.0, 1.0], (-1.0, 1.0), [[0.4, 0.2], [0.0, 0.0]]
    )
    _, sol, _, idents = solve_one(inst)
    assert idents.lam.min() <= 1e-12  # kernel eigenvalue present
    assert np.all(idents.res26 <= 1e-12) and np.all(idents.res27 <= 1e-12)
    # the isometry vanishes on the kernel eigenvector
    iso, absval = polar_of(sol.X)
    _, vecs = np.linalg.eigh(absval)
    assert np.linalg.norm(iso @ vecs[:, 0]) <= 1e-10


def test_lemma22_random_instances():
    for inst in small_campaign_instances(seed=57, trials=30):
        _, sol, _, idents = solve_one(inst)
        limit = 1e-9 * inst.scale
        assert np.all(idents.res26 <= limit) and np.all(idents.res27 <= limit)
        assert np.all(idents.term_imag <= 1e-10 * max(1.0, inst.scale))
        tops = idents.lam[idents.top]
        assert tops.size and abs(tops[0] - sol.mu) <= 1e-10 * max(1.0, sol.mu)


def test_lemma22_uses_lambda0_not_a0(e1):
    # with A0 in place of Lambda0 the second identity fails at the 1e-2 scale
    _, sol, _, _ = solve_one(e1)
    lam = SQRT2 - 1.0
    u = np.array([1.0])
    w = polar_of(sol.X)[0] @ u
    term = np.vdot(e1.A0 @ u, e1.B @ w) + np.vdot(e1.B.conj().T @ u, e1.A1 @ w)
    n_a1w = np.vdot(e1.A1 @ w, e1.A1 @ w).real
    n_bw = np.vdot(e1.B @ w, e1.B @ w).real
    n_a0u = np.vdot(e1.A0 @ u, e1.A0 @ u).real
    wrong = abs(term + lam * (n_a1w + n_bw - n_a0u))
    assert wrong > 1e-2


# --- graph properties --------------------------------------------------------------------


def test_graph_props_e1(e1):
    _, _, graph, _ = solve_one(e1)
    npt.assert_allclose(graph.measured, math.sin(math.pi / 8.0), atol=1e-12)
    assert graph.angle_residual <= 1e-12
    assert graph.graph1_residual <= 1e-12
    assert graph.lambda0_spec_residual <= 1e-12
    assert graph.spec1_residual <= 1e-12


def test_graph_props_trivial():
    inst = spl.assemble_instance([0.1], [-1.0, 1.0], (-1.0, 1.0), [[0.0, 0.0]])
    _, _, graph, _ = solve_one(inst)
    assert graph.measured == 0.0
    assert graph.angle_residual == 0.0


def test_graph_props_random_instances():
    for inst in small_campaign_instances(seed=77, trials=40):
        ps, sol, graph, _ = solve_one(inst)
        assert graph.angle_residual <= 1e-8
        assert graph.graph1_residual <= 1e-8
        assert graph.lambda0_spec_residual <= 1e-8
        assert graph.spec1_residual <= 1e-8
        herm, spectrum = spl.riccati.lambda0_diagnostics(sol)
        assert herm <= 1e-8
        assert spl.riccati.spectrum_mismatch(spectrum, ps.omega0) <= 1e-8
        split = inst.split
        report = spl.bounds.applicable_bounds(
            split.gap_len, split.d, inst.v, split.gap_left, split.gap_right
        )
        if report.regime_detailed:
            assert sol.mu < 1.0


def test_inequality_chain_top_eigenpair():
    # the top eigenpair realises the kernel-bound chain on centred instances
    for inst in small_campaign_instances(seed=91, trials=30, regime="B"):
        split = inst.split
        a = split.gap_len / 2.0 - split.d
        v = inst.v
        if v == 0.0:
            continue
        _, sol, _, _ = solve_one(inst)
        iso, absval = polar_of(sol.X)
        lams, vecs = np.linalg.eigh(absval)
        u = vecs[:, -1]
        w = iso @ u
        x = float(np.linalg.norm(inst.A1 @ w))
        y = float(np.linalg.norm(inst.B @ w))
        assert x >= a + split.d - 1e-9
        assert y <= v + 1e-9
        mu = sol.mu
        assert mu < 1.0
        lhs = mu / (1.0 - mu * mu)
        assert lhs <= spl.phi(x, y, a, v) + 1e-9
        assert lhs <= spl.phi_sup_analytic(a, split.d, v).sup + 1e-9


def test_solve_instance_pipeline(e1):
    res = spl.riccati.solve_stack([e1])
    assert res.failures == [None] and res.solved == [0]
    assert res.inner[0].sum() == 1  # the perturbed inner basis has one column
    assert res.graph.measured[0] > 0
    assert len(res.identities.lam[0]) == 1


#: The riccati functions that the benchmark's tracer wraps by module
#: attribute, riccati_residual aside: the stages of the pipeline.
STAGES = (
    "perturbed_split", "angular_operator", "verify_graph_props", "lemma22_check",
    "lambda0_diagnostics", "spectrum_mismatch",
)


def test_solve_stack_calls_every_traced_stage(e1, monkeypatch):
    calls = dict.fromkeys(STAGES, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(riccati, name, counted(name, getattr(riccati, name)))
    res = riccati.solve_stack([e1, e1])
    assert res.solved == [0, 1]
    assert all(calls.values()), calls


def test_solve_instance_reports_structural_failure():
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[5.0, 0.0]])
    res = spl.riccati.solve_stack([inst])
    assert isinstance(res.failures[0], RankMismatch)
    assert res.dims[0] != inst.n0  # the gap closed
    assert res.solution is None and res.graph is None and res.identities is None


def raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


@pytest.mark.parametrize(
    "routine, failure",
    [
        ("norm", EigenFailure),  # op_norm in the residual check of eigh(L)
        ("svd", ConvergenceFailure),  # conditioning of Y0 before the graph inversion
        ("solve", ConvergenceFailure),  # graph inversion
        ("eigvalsh", ConvergenceFailure),  # spectra of Lambda0 and Lambda1
    ],
)
def test_solve_instance_types_lapack_failures(e1, monkeypatch, routine, failure):
    monkeypatch.setattr(np.linalg, routine, raise_linalg_error)
    res = spl.riccati.solve_stack([e1])
    assert type(res.failures[0]) is failure
    assert res.graph is None and res.identities is None
    rec = spl.trial_record_for_instance(e1)
    assert rec["error"] == failure.__name__
    assert rec["violations"] == [f"structural:{failure.__name__}"]


def test_campaign_runs_without_a_non_hermitian_eigensolve(monkeypatch):
    # both spectral checks are Hermitian: no trial reaches np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", raise_linalg_error)
    cfg = spl.CampaignConfig(trials=60, seed=21, n0=(1, 8), n1=(2, 8), d=(0.05, 0.95))
    report = spl.run_campaign(cfg)
    assert report.aggregates["failures"] == 0
    assert report.exit_code == 0


# --- Lambda1 in the left singular basis of X against the eigvals route -----------


def test_spec1_residual_matches_eigvals_route():
    insts = oracle_instances()
    assert {np.sign(inst.n0 - inst.n1) for inst in insts} == {-1, 0, 1}
    for inst in insts:
        ps, sol, graph, _ = solve_one(inst)
        ref = reference_spec1(inst, sol.X, ps.omega1)
        assert abs(graph.spec1_residual - ref) <= 1e-12 * inst.scale


def lambda1_of(inst, x):
    """(I + X X*)^(1/2) (A1 - B* X*) (I + X X*)^(-1/2) from eigh(X X*)."""
    s2, w = np.linalg.eigh(x @ x.conj().T)
    h = np.sqrt(1.0 + np.clip(s2, 0.0, None))
    return (w * h) @ w.conj().T @ (inst.A1 - inst.B.conj().T @ x.conj().T) @ (w / h) @ w.conj().T


def test_spectral_residuals_catch_a_perturbed_x(monkeypatch):
    # X + 1e-6 ||X|| E, E a random unit-norm direction, moves the spectral
    # residuals by about 1e-6 mu v: take the instances where that is 1.5e-7
    insts = [
        inst for inst in small_campaign_instances(seed=303, trials=30)
        if solve_one(inst)[1].mu * inst.v >= 0.15
    ]
    assert len(insts) >= 10
    solve = np.linalg.solve
    rng = np.random.default_rng(12)

    def perturbed(a, b):
        x = solve(a, b)
        e = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        rel = 1e-6 * np.linalg.norm(x, 2, axis=(-2, -1)) / np.linalg.norm(e, 2, axis=(-2, -1))
        return x + rel[..., None, None] * e

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    for inst in insts:
        ps, sol, graph, _ = solve_one(inst)
        assert graph.spec1_residual > GRAPH_TOL
        assert reference_spec1(inst, sol.X, ps.omega1) > GRAPH_TOL
        # Lambda1's Hermitian defect counts, as it is no longer Hermitian
        lambda1 = lambda1_of(inst, sol.X)
        assert graph.spec1_residual >= spl.op_norm(lambda1 - lambda1.conj().T) - 1e-12
        assert graph.lambda0_herm_residual > GRAPH_TOL
        assert graph.lambda0_spec_residual > GRAPH_TOL
        assert "graph" in spl.trial_record_for_instance(inst)["violations"]


# --- the single SVD of X against the former per-quantity routes ---------------

#: Agreement required between the SVD route and the eigh / op-norm routes,
#: times max(1, ||X||) (|A| + |V|)^2.
ORACLE_RTOL = 1e-12


def oracle_instances():
    # n0 > n1: X has a kernel; v_fraction 0: B = 0 and X = 0
    wide = spl.CampaignConfig(trials=20, seed=5150, n0=(4, 8), n1=(2, 3), d=(0.1, 0.9))
    insts = (
        small_campaign_instances(seed=303, trials=30)
        + [spl.trial_instance(wide, i)[0] for i in range(wide.trials)]
        + small_campaign_instances(seed=404, trials=5, v_fraction=0.0)
    )
    assert any(inst.n0 > inst.n1 for inst in insts)
    assert any(inst.trivial for inst in insts)
    return insts


def reference_lemma22(x, lambda0, inst):
    """(lam, res26, res27, top) per eigenpair of |X| taken from eigh(|X|)."""
    iso, absval = polar_of(x)
    lams, vecs = np.linalg.eigh(absval)
    lam_max = float(lams[-1])
    a0, a1, b = inst.A0, inst.A1, inst.B
    out = []
    for k in range(lams.size - 1, -1, -1):
        lam, u = float(lams[k]), vecs[:, k]
        wv = iso @ u
        term = complex(np.vdot(a0 @ u, b @ wv) + np.vdot(b.conj().T @ u, a1 @ wv))
        outer = np.linalg.norm(a1 @ wv) ** 2 + np.linalg.norm(b @ wv) ** 2
        inner = np.linalg.norm(a0 @ u) ** 2 + np.linalg.norm(b.conj().T @ u) ** 2
        res26 = abs(lam * (outer - inner) + (1.0 - lam * lam) * term)
        res27 = abs(term + lam * (outer - np.linalg.norm(lambda0 @ u) ** 2))
        out.append((lam, res26, res27, lam >= lam_max - 1e-12 * max(1.0, lam_max)))
    return out


def test_single_svd_matches_former_routes():
    for inst in oracle_instances():
        _, sol, _, idents = solve_one(inst)
        x = sol.X
        mu_ref = float(np.linalg.norm(x, 2))
        tol = ORACLE_RTOL * max(1.0, mu_ref) * inst.scale
        assert abs(sol.mu - mu_ref) <= tol

        s2, w = np.linalg.eigh(x.conj().T @ x)
        s2 = np.clip(s2, 0.0, None)
        half = w @ (np.sqrt(1.0 + s2)[:, None] * w.conj().T)
        half_inv = w @ (1.0 / np.sqrt(1.0 + s2)[:, None] * w.conj().T)
        lambda0_ref = half @ (inst.A0 + inst.B @ x) @ half_inv
        assert spl.op_norm(lambda0_of(sol) - lambda0_ref) <= tol

        assert len(idents.lam) == inst.n0
        ref = reference_lemma22(x, lambda0_ref, inst)
        got = zip(idents.lam, idents.res26, idents.res27, idents.top)
        for (r_lam, r_res26, r_res27, r_top), (lam, res26, res27, top) in zip(got, ref):
            assert abs(r_lam - lam) <= tol
            assert abs(r_res26 - res26) <= tol and abs(r_res27 - res27) <= tol
            assert r_top == top


# --- vectorised and X-free routes against the former per-item routes ------------

#: Acceptance campaign shape (CAMPAIGN_CONFIG of the acceptance tests).
ACCEPTANCE_SHAPE = dict(n0=(1, 20), n1=(2, 20), gap=(-1.0, 1.0), d=(0.05, 0.95))


def acceptance_instances(seed, trials):
    cfg = spl.CampaignConfig(trials=trials, seed=seed, **ACCEPTANCE_SHAPE)
    return [spl.trial_instance(cfg, i)[0] for i in range(trials)]


def test_measured_rotation_matches_projector_route():
    # the shape of the sharpness search: D = 2, d = 0.5, v near 0.8
    sharp = spl.CampaignConfig(trials=50, seed=66, n0=4, n1=6, d=0.5, regime="B")
    insts = acceptance_instances(seed=2024, trials=300) + [
        spl.trial_instance(sharp, i)[0] for i in range(sharp.trials)
    ]
    for inst in insts:
        ps, _, graph, _ = solve_one(inst)
        ref = spl.subspace_angle(inner_projector(inst), projector(ps.basis0))
        assert abs(rotation_of(inst) - ref) <= 1e-14
        assert abs(graph.measured - ref) <= 1e-14


def test_measured_rotation_gap_closed_is_one():
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[5.0, 0.0]])
    ps, _, _, _ = solve_one(inst)
    assert ps.basis0.shape[1] == 0
    assert rotation_of(inst) == 1.0
    assert spl.subspace_angle(inner_projector(inst), projector(ps.basis0)) == 1.0


def loop_lemma22(sol, inst):
    """The former per-eigenpair loop of lemma22_check, as (lam, res26, res27, term_imag, top)."""
    u_iso = polar_of(sol.X)[0]
    lambda0 = lambda0_of(sol)
    lams, vecs = sol.polar.values, sol.polar.vectors
    a0, a1, b = inst.A0, inst.A1, inst.B
    bh = b.conj().T
    out = []
    for k in range(lams.size):
        lam = float(lams[k])
        u = vecs[:, k]
        w = u_iso @ u
        a1w, bw, a0u, bhu = a1 @ w, b @ w, a0 @ u, bh @ u
        term = complex(np.vdot(a0u, bw) + np.vdot(bhu, a1w))
        n_a1w = float(np.vdot(a1w, a1w).real)
        n_bw = float(np.vdot(bw, bw).real)
        n_a0u = float(np.vdot(a0u, a0u).real)
        n_bhu = float(np.vdot(bhu, bhu).real)
        n_l0u = float(np.vdot(lambda0 @ u, lambda0 @ u).real)
        res26 = abs(lam * (n_a1w + n_bw - n_a0u - n_bhu) + (1.0 - lam * lam) * term)
        res27 = abs(term + lam * (n_a1w + n_bw - n_l0u))
        top = bool(lam >= sol.mu - 1e-12 * max(1.0, sol.mu))
        out.append((lam, res26, res27, abs(term.imag), top))
    return out


def test_lemma22_matches_per_eigenpair_loop():
    insts = acceptance_instances(seed=7, trials=150) + oracle_instances()
    assert any(inst.n0 > inst.n1 for inst in insts)
    for inst in insts:
        _, sol, _, idents = solve_one(inst)
        ref = loop_lemma22(sol, inst)
        assert len(idents.lam) == len(ref) == inst.n0
        tol = 1e-12 * inst.scale
        got = zip(idents.lam, idents.res26, idents.res27, idents.term_imag, idents.top)
        for (r_lam, r_res26, r_res27, r_term_imag, r_top), ref_pair in zip(got, ref):
            lam, res26, res27, term_imag, top = ref_pair
            assert r_lam == lam and r_top == top
            assert abs(r_res26 - res26) <= tol and abs(r_res27 - res27) <= tol
            assert abs(r_term_imag - term_imag) <= tol
