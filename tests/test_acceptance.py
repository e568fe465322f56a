"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import spl

from conftest import enclosure_of, mp_phi_sup, solve_one

SQRT2 = math.sqrt(2.0)

CAMPAIGN_CONFIG = spl.CampaignConfig(
    trials=10_000,
    seed=20260809,
    n0=(1, 20),
    n1=(2, 20),
    gap=(-1.0, 1.0),
    d=(0.05, 0.95),
    outer_radius=2.0,
    regime="mixed",
    v_fraction=0.9,
    parallel=0,
)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def campaign():
    t0 = time.perf_counter()
    report = spl.run_campaign(CAMPAIGN_CONFIG)
    return report, time.perf_counter() - t0


def test_criterion_1_worked_example_golden_values(e1):
    ps, sol, graph, idents = solve_one(e1)
    rec = spl.trial_record_for_instance(e1)
    tol = 1e-8
    checks = {
        "omega0": abs(float(ps.omega0[0]) - (-1.0 + SQRT2) / 2.0) <= tol,
        "X": spl.op_norm(sol.X - np.array([[SQRT2 - 1.0], [0.0]])) <= tol,
        "mu": abs(sol.mu - 0.41421356) <= 1e-7,
        "measured": abs(graph.measured - 0.38268343) <= 1e-7,
        "r_V": abs(rec["r_V"] - 0.20710678) <= 1e-7,
        "encl_hi": abs(rec["encl_hi"] - 0.20710678) <= 1e-7,
        "edge_attained": abs(float(ps.omega0.max()) - enclosure_of(e1)[1]) <= tol,
        "bound13": abs(rec["bound13"] - 0.44721360) <= 1e-7,
        "bound32": abs(rec["bound32"] - 0.44721360) <= 1e-7,
        "bounds_coincide": abs(rec["bound13"] - rec["bound32"]) <= 1e-12,
        "riccati": sol.riccati_residual < 1e-12,
        "identities": bool(np.all(idents.res26 < 1e-12) and np.all(idents.res27 < 1e-12)),
    }
    bad = [k for k, v in checks.items() if not v]
    _criterion(
        "criterion 1",
        not bad,
        f"3x3 worked example reproduces all golden values" if not bad else f"failing: {bad}",
    )


def test_criterion_2_bound_formula_unit_suite():
    tol = 1e-12
    k1 = spl.kappa(2.0, 1.0, 0.5)
    k2 = spl.kappa(4.0, 1.0, 0.5)
    k3 = spl.kappa(4.0, 1.0, SQRT2 / 2.0)
    # independent transcription of the above-threshold branch at the switch
    full = (
        (SQRT2 / 2.0) * 4.0 + math.sqrt(3.0) * math.sqrt(4.0 + 2.0)
    ) / (2.0 * (3.0 - 0.5))
    # worst case of kappa over D >= 2d, the closed form 2vd/(d^2 - v^2) at d=1, v=0.5
    kmax = 2.0 * 0.5 * 1.0 / (1.0 - 0.5 * 0.5)
    checks = {
        "kappa(2,1,.5)": abs(k1.value - 4.0 / 3.0) <= tol,
        "kappa(4,1,.5)": abs(k2.value - 1.0) <= tol,
        "branch point linear": abs(k3.value - SQRT2) <= tol,
        "branch point full": abs(full - SQRT2) <= tol,
        "kappa_max": abs(kmax - 4.0 / 3.0) <= tol,
        "kappa_max = kappa(2d)": abs(kmax - spl.kappa(2.0, 1.0, 0.5).value) <= tol,
        "maps to a-priori": abs(
            spl.bounds.sin_half_arctan(kmax) - spl.bound_apriori(0.5, 1.0)
        ) <= tol,
    }
    bad = [k for k, v in checks.items() if not v]
    _criterion("criterion 2", not bad,
               "bound formulas reproduce reference values at 1e-12" if not bad else f"failing: {bad}")


def test_criterion_3_kernel_supremum_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(333)
    worst_rel = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.0, 2.5))
        d = float(rng.uniform(0.05, 1.5))
        v = float(rng.uniform(0.05, 0.98)) * math.sqrt(d * (2.0 * a + d))
        ana = spl.phi_sup_analytic(a, d, v).sup
        ora, _ = mp_phi_sup(a, d, v)
        worst_rel = max(worst_rel, float(abs(ana - ora) / ora))
    worst_cons = 0.0
    for _ in range(1000):
        a = float(rng.uniform(0.0, 3.0))
        d = float(rng.uniform(0.05, 2.0))
        v = float(rng.uniform(0.01, 0.999)) * math.sqrt(d * (2.0 * a + d))
        s = spl.phi_sup_analytic(a, d, v)
        k = spl.kappa(2.0 * (a + d), d, v).value
        worst_cons = max(worst_cons, abs(2.0 * s.sup - k) / max(k, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-13 and worst_cons <= 1e-12 and elapsed < 60.0
    _criterion(
        "criterion 3", ok,
        f"oracle rel err {worst_rel:.2e} (<=1e-13), consistency {worst_cons:.2e} (<=1e-12), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_4_campaign_10k(campaign):
    report, elapsed = campaign
    agg = report.aggregates
    v = agg["violations"]
    checks = {
        "bound32": v["bound32"] == 0,
        "bound13": v["bound13"] == 0,
        "enclosure": v["enclosure"] == 0,
        "riccati": v["riccati"] == 0,
        "graph": v["graph"] == 0,
        "structural": v["structural"] == 0,
        "angle residual": agg["max_graph_angle_residual"] <= 1e-8,
        "runtime": elapsed <= 300.0,
    }
    bad = [k for k, ok in checks.items() if not ok]
    _criterion(
        "criterion 4", not bad,
        f"10000 trials, 0 violations, max riccati {agg['max_riccati_residual']:.2e}, "
        f"max ratio32 {agg['max_ratio32']:.4f}, {elapsed:.1f}s" if not bad else f"failing: {bad}",
    )


def test_criterion_5_identity_residuals_1000():
    cfg = spl.CampaignConfig(
        trials=1000, seed=55_055, n0=(1, 10), n1=(2, 10), gap=(-1.0, 1.0),
        d=(0.05, 0.95), regime="mixed", v_fraction=0.9,
    )
    report = spl.run_campaign(cfg)
    agg = report.aggregates
    all_in_regime = all(rec["regime31"] for rec in report.records)
    ok = (
        agg["violations"]["lemma"] == 0
        and agg["failures"] == 0
        and all_in_regime
    )
    _criterion(
        "criterion 5", ok,
        f"1000 instances, max identity residuals {agg['max_lemma26']:.2e} / "
        f"{agg['max_lemma27']:.2e} within 1e-9*(|A|+|V|)^2",
    )


def test_criterion_6_shift_invariance_100():
    rng = np.random.default_rng(606)
    gap = (-0.4, 1.6)
    c = 0.6
    width = gap[1] - gap[0]
    worst = 0.0
    for k in range(100):
        d = float(rng.uniform(0.05, 0.95))
        v = float(rng.uniform(0.05, 0.95)) * math.sqrt(d * (width - d))
        inst = spl.random_instance(
            n0=int(rng.integers(1, 7)), n1=int(rng.integers(2, 7)),
            gap_left=gap[0], gap_right=gap[1], d=d, outer_radius=1.5, v=v,
            pin_side="left" if rng.integers(0, 2) == 0 else "right",
            seed=int(rng.integers(0, 2**31)),
        )
        shifted = spl.assemble_instance(
            np.diag(inst.A0).real - c, np.diag(inst.A1).real - c,
            (gap[0] - c, gap[1] - c), inst.B,
        )
        x1 = solve_one(inst)[1].X
        x2 = solve_one(shifted)[1].X
        worst = max(worst, spl.op_norm(x1 - x2))
    _criterion("criterion 6", worst <= 1e-8,
               f"100 instances, max |X - X_shifted| = {worst:.2e} (<=1e-8)")


def test_criterion_7_contraction_in_detailed_regime(campaign):
    report, _ = campaign
    mu_max = report.aggregates["max_mu_regime31"]
    meas_max = report.aggregates["max_measured_regime31"]
    mu_ok = all(
        rec["mu"] < 1.0 for rec in report.records if rec["regime31"] and rec["mu"] is not None
    )
    meas_ok = all(
        rec["measured"] < SQRT2 / 2.0
        for rec in report.records
        if rec["regime31"] and rec["measured"] is not None
    )
    _criterion(
        "criterion 7", mu_ok and meas_ok and mu_max < 1.0 and meas_max < SQRT2 / 2.0,
        f"max |X| = {mu_max:.6f} < 1 and max measured = {meas_max:.6f} < sqrt(2)/2 "
        f"on every detailed-regime trial",
    )


def test_criterion_8_gap_survives_to_regime_edge():
    rng = np.random.default_rng(808)
    worst_sep = float("inf")
    ok = True
    for i in range(1000):
        frac = 0.999 * (i + 1) / 1000.0
        d = float(rng.uniform(0.05, 0.95))
        v = frac * math.sqrt(d * 2.0)
        inst = spl.random_instance(
            n0=int(rng.integers(1, 7)), n1=int(rng.integers(2, 7)),
            gap_left=-1.0, gap_right=1.0, d=d, outer_radius=2.0, v=v,
            pin_side="left" if rng.integers(0, 2) == 0 else "right",
            seed=int(rng.integers(0, 2**31)),
        )
        ps, _, _, _ = solve_one(inst)
        sep = float(np.min(np.abs(ps.omega0[:, None] - ps.omega1[None, :])))
        worst_sep = min(worst_sep, sep)
        lo, hi = enclosure_of(inst)
        ok = ok and (
            ps.omega0.size == inst.n0  # the gap stays open
            and sep > 0.0
            and float(ps.omega0.min()) >= lo - 1e-9
            and float(ps.omega0.max()) <= hi + 1e-9
        )
        if not ok:
            break
    _criterion(
        "criterion 8", ok,
        f"1000 instances with v up to 0.999*sqrt(d*D): gap never closes, "
        f"min separation {worst_sep:.2e}",
    )


def test_criterion_9_determinism_across_workers(campaign):
    report, _ = campaign
    serial = report.to_json()
    parallel = spl.run_campaign(
        dataclasses.replace(CAMPAIGN_CONFIG, parallel=3)
    ).to_json()
    _criterion(
        "criterion 9", serial == parallel,
        f"serial and 3-worker reports are byte-identical ({len(serial)} bytes)",
    )
