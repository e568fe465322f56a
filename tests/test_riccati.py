import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

import spl
from spl.errors import DimensionMismatch, NotAGraph, RankMismatch

SQRT2 = math.sqrt(2.0)


def small_campaign_instances(seed, trials, regime="mixed", gap=(-1.0, 1.0), v_fraction=0.9):
    cfg = spl.CampaignConfig(
        trials=trials, seed=seed, n0=(1, 6), n1=(2, 6), gap=gap,
        d=(0.1, 0.45 * (gap[1] - gap[0])), regime=regime, v_fraction=v_fraction,
    )
    return [spl.trial_instance(cfg, i)[0] for i in range(trials)]


# --- perturbed_split -----------------------------------------------------------


def test_perturbed_split_e1(e1):
    ps = spl.perturbed_split(e1)
    npt.assert_allclose(ps.omega0, [(-1.0 + SQRT2) / 2.0], atol=1e-12)
    npt.assert_allclose(np.sort(ps.omega1), [(-1.0 - SQRT2) / 2.0, 1.0], atol=1e-12)
    assert not ps.gap_closed
    npt.assert_allclose(
        ps.enclosure, (-(SQRT2 - 1.0) / 2.0, (SQRT2 - 1.0) / 2.0), atol=1e-12
    )
    # the perturbed inner eigenvalue attains the upper enclosure edge
    npt.assert_allclose(float(ps.omega0.max()), ps.enclosure[1], atol=1e-12)
    assert ps.EL0.rank == 1 and ps.basis1.shape[1] == 2
    basis = np.hstack([ps.basis0, ps.basis1])
    npt.assert_allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)


def test_perturbed_split_trivial():
    inst = spl.assemble_instance([0.1], [-1.0, 1.0], (-1.0, 1.0), [[0.0, 0.0]])
    ps = spl.perturbed_split(inst)
    npt.assert_allclose(ps.omega0, inst.split.sigma0, atol=1e-14)
    npt.assert_allclose(ps.omega1, inst.split.sigma1, atol=1e-14)
    npt.assert_allclose(ps.EL0.matrix, inst.split.E0.matrix, atol=1e-12)


def test_perturbed_split_gap_closure_detected():
    # enormous coupling drives the inner eigenvalue out of the gap
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[5.0, 0.0]])
    ps = spl.perturbed_split(inst)
    assert ps.gap_closed
    assert ps.enclosure is None  # far outside the split regime
    with pytest.raises(RankMismatch):
        spl.angular_operator(inst, ps)


def test_perturbed_split_enclosure_random():
    for inst in small_campaign_instances(seed=101, trials=40):
        ps = spl.perturbed_split(inst)
        assert not ps.gap_closed
        lo, hi = ps.enclosure
        assert float(ps.omega0.min()) >= lo - 1e-9
        assert float(ps.omega0.max()) <= hi + 1e-9


# --- angular_operator ------------------------------------------------------------


def test_angular_operator_e1(e1):
    ps = spl.perturbed_split(e1)
    sol = spl.angular_operator(e1, ps)
    npt.assert_allclose(sol.X, [[SQRT2 - 1.0], [0.0]], atol=1e-12)
    npt.assert_allclose(sol.mu, math.tan(math.pi / 8.0), atol=1e-12)
    assert sol.riccati_residual < 1e-12
    npt.assert_allclose(sol.Lambda0, [[(-1.0 + SQRT2) / 2.0]], atol=1e-12)
    assert sol.cond_Y0 < 2.0


def test_angular_operator_trivial():
    inst = spl.assemble_instance([0.1, -0.2], [-1.0, 1.0], (-1.0, 1.0), np.zeros((2, 2)))
    ps = spl.perturbed_split(inst)
    sol = spl.angular_operator(inst, ps)
    npt.assert_allclose(sol.X, np.zeros((2, 2)), atol=1e-12)
    assert sol.mu == 0.0
    npt.assert_allclose(sol.Lambda0, inst.A0, atol=1e-12)


def test_angular_operator_basis_independence(e1):
    rng = np.random.default_rng(3)
    for inst in small_campaign_instances(seed=7, trials=10) + [e1]:
        ps = spl.perturbed_split(inst)
        sol = spl.angular_operator(inst, ps)
        # mix the basis by a random unitary: same subspace, same X
        q = spl.random_unitary(inst.n0, rng)
        ps_mixed = dataclasses.replace(ps, basis0=ps.basis0 @ q)
        sol_mixed = spl.angular_operator(inst, ps_mixed)
        assert spl.op_norm(sol.X - sol_mixed.X) <= 1e-9
        # rebuild an orthonormal basis from the projector range instead
        y, _ = np.linalg.qr(ps.EL0.matrix @ ps.basis0)
        sol_qr = spl.angular_operator(inst, dataclasses.replace(ps, basis0=y))
        assert spl.op_norm(sol.X - sol_qr.X) <= 1e-9


def test_angular_operator_not_a_graph_detected(e1):
    ps = spl.perturbed_split(e1)
    # a basis orthogonal to the inner block cannot be a graph over it
    degenerate = np.array([[0.0], [0.0], [1.0]], dtype=complex)
    with pytest.raises(NotAGraph):
        spl.angular_operator(e1, dataclasses.replace(ps, basis0=degenerate))


def test_shift_invariance_of_x():
    for inst in small_campaign_instances(seed=31, trials=10, gap=(-0.4, 1.6)):
        c = 0.6  # gap centre
        shifted = spl.assemble_instance(
            np.diag(inst.A0).real - c,
            np.diag(inst.A1).real - c,
            (-1.0, 1.0),
            inst.B,
        )
        x1 = spl.angular_operator(inst, spl.perturbed_split(inst)).X
        x2 = spl.angular_operator(shifted, spl.perturbed_split(shifted)).X
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
        sol = spl.angular_operator(inst, spl.perturbed_split(inst))
        mus.append(sol.mu)
    assert mus[0] == 0.0
    slope = (mus[-1] - mus[0]) / (ts[-1] - ts[0])
    jumps = np.abs(np.diff(mus))
    assert np.all(jumps <= 10.0 * (ts[1] - ts[0]) * slope + 1e-12)


# --- riccati_residual ---------------------------------------------------------------


def test_riccati_residual_zero_case():
    assert spl.riccati_residual(np.zeros((2, 1)), np.zeros((1, 1)),
                                np.diag([-1.0, 1.0]), np.zeros((1, 2))) == 0.0


def test_riccati_residual_detects_wrong_solution(e1):
    ps = spl.perturbed_split(e1)
    sol = spl.angular_operator(e1, ps)
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
    ps = spl.perturbed_split(e1)
    sol = spl.angular_operator(e1, ps)
    reports = spl.lemma22_check(sol, e1)
    assert len(reports) == 1
    r = reports[0]
    npt.assert_allclose(r.lam, SQRT2 - 1.0, atol=1e-12)
    assert r.top
    assert r.res26 < 1e-12 and r.res27 < 1e-12
    assert r.term_imag < 1e-12
    # intermediate quantities admit closed forms on this instance
    u = np.array([1.0])
    w = sol.polar.isometry @ u
    npt.assert_allclose(np.linalg.norm(e1.A1 @ w), 1.0, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(e1.B @ w), 0.5, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(e1.A0 @ u), 0.0, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(e1.B.conj().T @ u), 0.5, atol=1e-12)
    term = np.vdot(e1.A0 @ u, e1.B @ w) + np.vdot(e1.B.conj().T @ u, e1.A1 @ w)
    npt.assert_allclose(term, -0.5, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(sol.Lambda0 @ u), (SQRT2 - 1.0) / 2.0, atol=1e-12)


def test_lemma22_kernel_eigenpair():
    # second inner coordinate is uncoupled: X has a kernel direction
    inst = spl.assemble_instance(
        [0.0, 0.1], [-1.0, 1.0], (-1.0, 1.0), [[0.4, 0.2], [0.0, 0.0]]
    )
    ps = spl.perturbed_split(inst)
    sol = spl.angular_operator(inst, ps)
    reports = spl.lemma22_check(sol, inst)
    lams = [r.lam for r in reports]
    assert min(lams) <= 1e-12  # kernel eigenvalue present
    for r in reports:
        assert r.res26 <= 1e-12 and r.res27 <= 1e-12
    # the isometry vanishes on the kernel eigenvector
    _, vecs = np.linalg.eigh(sol.polar.absval)
    assert np.linalg.norm(sol.polar.isometry @ vecs[:, 0]) <= 1e-10


def test_lemma22_random_instances():
    for inst in small_campaign_instances(seed=57, trials=30):
        sol = spl.angular_operator(inst, spl.perturbed_split(inst))
        limit = 1e-9 * inst.scale
        for r in spl.lemma22_check(sol, inst):
            assert r.res26 <= limit and r.res27 <= limit
            assert r.term_imag <= 1e-10 * max(1.0, inst.scale)
        tops = [r for r in spl.lemma22_check(sol, inst) if r.top]
        assert tops and abs(tops[0].lam - sol.mu) <= 1e-10 * max(1.0, sol.mu)


def test_lemma22_uses_lambda0_not_a0(e1):
    # with A0 in place of Lambda0 the second identity fails at the 1e-2 scale
    ps = spl.perturbed_split(e1)
    sol = spl.angular_operator(e1, ps)
    lam = SQRT2 - 1.0
    u = np.array([1.0])
    w = sol.polar.isometry @ u
    term = np.vdot(e1.A0 @ u, e1.B @ w) + np.vdot(e1.B.conj().T @ u, e1.A1 @ w)
    n_a1w = np.vdot(e1.A1 @ w, e1.A1 @ w).real
    n_bw = np.vdot(e1.B @ w, e1.B @ w).real
    n_a0u = np.vdot(e1.A0 @ u, e1.A0 @ u).real
    wrong = abs(term + lam * (n_a1w + n_bw - n_a0u))
    assert wrong > 1e-2


# --- graph properties --------------------------------------------------------------------


def test_graph_props_e1(e1):
    ps = spl.perturbed_split(e1)
    sol = spl.angular_operator(e1, ps)
    graph = spl.verify_graph_props(sol, e1, ps)
    npt.assert_allclose(graph.measured, math.sin(math.pi / 8.0), atol=1e-12)
    assert graph.angle_residual <= 1e-12
    assert graph.graph1_residual <= 1e-12
    assert graph.spec0_residual <= 1e-12
    assert graph.spec1_residual <= 1e-12


def test_graph_props_trivial():
    inst = spl.assemble_instance([0.1], [-1.0, 1.0], (-1.0, 1.0), [[0.0, 0.0]])
    ps = spl.perturbed_split(inst)
    sol = spl.angular_operator(inst, ps)
    graph = spl.verify_graph_props(sol, inst, ps)
    assert graph.measured == 0.0
    assert graph.angle_residual == 0.0


def test_graph_props_random_instances():
    for inst in small_campaign_instances(seed=77, trials=40):
        ps = spl.perturbed_split(inst)
        sol = spl.angular_operator(inst, ps)
        graph = spl.verify_graph_props(sol, inst, ps)
        assert graph.angle_residual <= 1e-8
        assert graph.graph1_residual <= 1e-8
        assert graph.spec0_residual <= 1e-8
        assert graph.spec1_residual <= 1e-8
        herm, spectrum = spl.riccati.lambda0_diagnostics(sol)
        assert herm <= 1e-8
        assert spl.riccati.spectrum_mismatch(spectrum, ps.omega0) <= 1e-8
        inputs = spl.BoundInputs(D=inst.split.gap_len, d=inst.split.d, v=inst.v)
        if inputs.regime_detailed:
            assert sol.mu < 1.0


def test_inequality_chain_top_eigenpair():
    # the top eigenpair realises the kernel-bound chain on centred instances
    for inst in small_campaign_instances(seed=91, trials=30, regime="B"):
        split = inst.split
        a = split.gap_len / 2.0 - split.d
        v = inst.v
        if v == 0.0:
            continue
        sol = spl.angular_operator(inst, spl.perturbed_split(inst))
        lams, vecs = np.linalg.eigh(sol.polar.absval)
        u = vecs[:, -1]
        w = sol.polar.isometry @ u
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
    ps, sol, graph, idents = spl.solve_instance(e1)
    assert ps.EL0.rank == 1
    assert graph.measured > 0
    assert len(idents) == 1


def test_solve_instance_reports_structural_failure():
    inst = spl.assemble_instance([0.0], [-1.0, 1.0], (-1.0, 1.0), [[5.0, 0.0]])
    res = spl.solve_instance(inst)
    assert isinstance(res.failure, RankMismatch)
    assert res.perturbed.gap_closed
    assert res.solution is None and res.graph is None and res.identities is None


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
    w, s, vh = np.linalg.svd(x, full_matrices=False)
    absval = (vh.conj().T * s) @ vh
    cutoff = s[0] * max(x.shape) * np.finfo(float).eps if s[0] > 0 else 0.0
    rank = int(np.count_nonzero(s > cutoff))
    iso = w[:, :rank] @ vh[:rank, :]
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
        sol = spl.angular_operator(inst, spl.perturbed_split(inst))
        x = sol.X
        mu_ref = float(np.linalg.norm(x, 2))
        tol = ORACLE_RTOL * max(1.0, mu_ref) * inst.scale
        assert abs(sol.mu - mu_ref) <= tol

        s2, w = np.linalg.eigh(x.conj().T @ x)
        s2 = np.clip(s2, 0.0, None)
        half = w @ (np.sqrt(1.0 + s2)[:, None] * w.conj().T)
        half_inv = w @ (1.0 / np.sqrt(1.0 + s2)[:, None] * w.conj().T)
        lambda0_ref = half @ (inst.A0 + inst.B @ x) @ half_inv
        assert spl.op_norm(sol.Lambda0 - lambda0_ref) <= tol

        reports = spl.lemma22_check(sol, inst)
        assert len(reports) == inst.n0
        ref = reference_lemma22(x, lambda0_ref, inst)
        for r, (lam, res26, res27, top) in zip(reports, ref):
            assert abs(r.lam - lam) <= tol
            assert abs(r.res26 - res26) <= tol and abs(r.res27 - res27) <= tol
            assert r.top == top
