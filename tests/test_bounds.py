import hashlib
import math
from unittest import mock

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spl
from spl import cli, harness
from spl.bounds import check_geometry, sin_arctan, sin_half_arctan
from spl.errors import DomainViolation, RegimeViolation, SingularDenominator

from conftest import mp_phi_sup

SQRT2 = math.sqrt(2.0)


def full_branch_formula(D, d, v):
    """Independent transcription of the above-threshold coefficient."""
    num = v * D + math.sqrt(d * (D - d)) * math.sqrt((D - 2.0 * d) ** 2 + 4.0 * v * v)
    return num / (2.0 * (d * (D - d) - v * v))


def sample_domain(rng):
    """Random (D, d, v) satisfying the full domain constraints."""
    d = float(rng.uniform(0.05, 2.0))
    D = d * float(rng.uniform(2.0, 8.0))
    v = float(rng.uniform(0.0, 0.999)) * math.sqrt(d * (D - d))
    return D, d, v


#: (d, D/d, v / sqrt(d*(D-d))) over the scales spl accepts, v up to 1 - 1e-6
#: of the edge of the detailed regime
geometry = {
    "d": st.floats(1e-99, 1e97),
    "ratio": st.floats(2.0, 1e3),
    "fraction": st.floats(0.0, 1.0 - 1e-6),
}


def within_ulps(got: float, want, ulps: float) -> bool:
    return abs(got - want) <= ulps * math.ulp(float(want))


# --- gap-erosion radius -----------------------------------------------------------


def test_r_v_values():
    assert spl.r_v(0.0, 1.0, 2.0) == 0.0
    npt.assert_allclose(spl.r_v(0.5, 1.0, 2.0), 0.5 * math.tan(math.pi / 8.0), atol=1e-14)
    npt.assert_allclose(spl.r_v(1.0, 1.0, 3.0), math.tan(math.pi / 8.0), atol=1e-14)


def test_r_v_matches_trig_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = float(rng.uniform(0.1, 2.0))
        D = d * float(rng.uniform(2.0, 6.0))
        v = float(rng.uniform(0.0, 0.999)) * math.sqrt(d * D)
        trig = v * math.tan(0.5 * math.atan(2.0 * v / (D - d)))
        npt.assert_allclose(spl.r_v(v, d, D), trig, atol=1e-13, rtol=1e-12)


def test_r_v_strictly_below_separation():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = float(rng.uniform(0.1, 2.0))
        D = d * float(rng.uniform(2.0, 6.0))
        v = float(rng.uniform(0.0, 0.9999)) * math.sqrt(d * D)
        assert spl.r_v(v, d, D) < d


def test_r_v_regime_violation():
    with pytest.raises(RegimeViolation):
        spl.r_v(SQRT2, 1.0, 2.0)
    # unchecked evaluation is still defined
    assert spl.bounds._r_v(SQRT2, 1.0, 2.0, False) >= 1.0


# --- enclosure ---------------------------------------------------------------------


def test_enclosure_zero_perturbation_hull():
    npt.assert_allclose(spl.enclosure(-1.0, 1.0, 0.7, 0.0), (-0.3, 0.3), atol=1e-14)


def test_enclosure_e1_edge():
    lo, hi = spl.enclosure(-1.0, 1.0, 1.0, 0.5)
    npt.assert_allclose((lo, hi), (-(SQRT2 - 1.0) / 2.0, (SQRT2 - 1.0) / 2.0), atol=1e-14)


def test_enclosure_near_regime_limit():
    # approaching v = sqrt(d*D) the erosion radius tends to d from below
    lo, hi = spl.enclosure(-1.0, 1.0, 1.0, SQRT2 * (1.0 - 1e-9))
    assert lo < hi
    assert lo > -1.0 and hi < 1.0
    assert hi > 0.999


# --- piecewise coefficient ----------------------------------------------------------


def test_kappa_reference_points():
    k = spl.kappa(2.0, 1.0, 0.5)
    npt.assert_allclose(k.value, 4.0 / 3.0, atol=1e-14)
    assert k.branch == "full"
    k = spl.kappa(4.0, 1.0, 0.5)
    npt.assert_allclose(k.value, 1.0, atol=1e-14)
    assert k.branch == "linear"
    assert spl.kappa(5.0, 1.0, 0.0).value == 0.0


def test_kappa_branch_point_continuity_reference():
    # v = sqrt(2)/2 sits exactly on the branch point for D=4, d=1
    lin = spl.kappa(4.0, 1.0, SQRT2 / 2.0)
    assert lin.branch == "linear"
    npt.assert_allclose(lin.value, SQRT2, atol=1e-14)
    npt.assert_allclose(full_branch_formula(4.0, 1.0, SQRT2 / 2.0), SQRT2, atol=1e-12)


def test_kappa_branch_continuity_random():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(1000):
        d = float(rng.uniform(0.05, 2.0))
        D = d * float(rng.uniform(2.0 + 1e-9, 8.0))
        v = spl.bounds.kappa_branch_point(D, d)
        if v == 0.0:
            continue
        lin = spl.kappa(D, d, v)
        assert lin.branch == "linear"
        full = full_branch_formula(D, d, v)
        npt.assert_allclose(lin.value, full, rtol=1e-12)
        checked += 1
    assert checked > 900


@settings(max_examples=200, deadline=None)
@given(d=geometry["d"], ratio=st.floats(2.0 + 1e-9, 1e3))
@example(d=1.0, ratio=4.0)
def test_kappa_branches_meet_within_4_ulps(d, ratio):
    # both branches evaluated at the branch point itself: the linear one as
    # kappa chooses it there, the full one with the switch moved below zero
    D = d * ratio
    vb = spl.bounds.kappa_branch_point(D, d)
    lin = spl.kappa(D, d, vb)
    with mock.patch.object(spl.bounds, "kappa_branch_point", lambda D, d: -1.0):
        full = spl.kappa(D, d, vb)
    assert (lin.branch, full.branch) == ("linear", "full")
    assert within_ulps(full.value, lin.value, 4)


def test_kappa_full_branch_does_not_underflow():
    # at D = 2d every v > 0 is on the full branch; unscaled, v * D and the
    # radical term underflow to 0 here
    k = spl.kappa(2e-99, 1e-99, 1e-290)
    assert k.branch == "full"
    npt.assert_allclose(k.value, 2e-191, rtol=1e-15)


def test_kappa_domain_errors():
    with pytest.raises(DomainViolation, match="D"):
        spl.kappa(-1.0, 0.2, 0.0)
    with pytest.raises(DomainViolation, match="d"):
        spl.kappa(2.0, 1.5, 0.0)
    with pytest.raises(DomainViolation, match="sqrt"):
        spl.kappa(2.0, 1.0, 1.0)
    with pytest.raises(SingularDenominator):
        spl.bounds._kappa(2.0, 1.0, 1.0)


def test_kappa_monotone_in_v():
    rng = np.random.default_rng(5)
    for _ in range(100):
        d = float(rng.uniform(0.1, 2.0))
        D = d * float(rng.uniform(2.0, 6.0))
        vmax = math.sqrt(d * (D - d))
        vals = [spl.kappa(D, d, f * vmax).value for f in np.linspace(0.0, 0.99, 25)]
        assert np.all(np.diff(vals) >= -1e-12)


def test_kappa_nonincreasing_in_D():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = float(rng.uniform(0.1, 2.0))
        v = float(rng.uniform(0.0, 0.99)) * d
        vals = [spl.kappa(t * d, d, v).value for t in np.linspace(2.0, 10.0, 30)]
        assert np.all(np.diff(vals) <= 1e-12)


def test_kappa_scale_covariance():
    rng = np.random.default_rng(7)
    for _ in range(200):
        D, d, v = sample_domain(rng)
        t = float(rng.uniform(0.1, 10.0))
        k1 = spl.kappa(D, d, v)
        k2 = spl.kappa(t * D, t * d, t * v)
        npt.assert_allclose(k1.value, k2.value, rtol=1e-12, atol=1e-15)
        assert k1.branch == k2.branch


# --- projector-difference bounds ----------------------------------------------------


def test_bound_apriori_values():
    assert spl.bound_apriori(0.0, 1.0) == 0.0
    npt.assert_allclose(spl.bound_apriori(1.0, 1.0), SQRT2 / 2.0, atol=1e-14)
    npt.assert_allclose(spl.bound_apriori(0.5, 1.0), 0.5 / math.sqrt(1.25), atol=1e-14)
    with pytest.raises(RegimeViolation):
        spl.bound_apriori(SQRT2, 1.0)


def test_bound_detailed_values():
    npt.assert_allclose(spl.bound_detailed(2.0, 1.0, 0.5), 0.5 / math.sqrt(1.25), atol=1e-14)
    npt.assert_allclose(spl.bound_detailed(4.0, 1.0, 0.5), math.sin(math.pi / 8.0), atol=1e-14)
    assert spl.bound_detailed(5.0, 1.0, 0.0) == 0.0


def mp_bound_detailed(D: float, d: float, v: float) -> mpmath.mpf:
    """sin(arctan(kappa)/2) at 50 digits, kappa's branch chosen at 50 digits."""
    with mpmath.workdps(50):
        D, d, v = mpmath.mpf(D), mpmath.mpf(d), mpmath.mpf(v)
        if v <= mpmath.sqrt(d * (D - 2 * d)) / 2:
            k = 2 * v / d
        else:
            k = (v * D + mpmath.sqrt(d * (D - d) * ((D - 2 * d) ** 2 + 4 * v * v))) / (
                2 * (d * (D - d) - v * v)
            )
        return mpmath.sin(mpmath.atan(k) / 2)


@settings(max_examples=300, deadline=None)
@given(**geometry)
@example(d=1.0, ratio=2.0, fraction=1.0 - 1e-6)
@example(d=1e-99, ratio=1e3, fraction=1.0 - 1e-6)
@example(d=1e97, ratio=1e3, fraction=0.5)
@example(d=1e-99, ratio=2.0, fraction=9.642169053050085e-206)  # unscaled, kappa underflows
def test_bound_detailed_within_4_ulps_of_mpmath(d, ratio, fraction):
    # kappa itself is not pinned: near the regime edge its denominator
    # d(D-d) - v^2 cancels, and its error follows the condition number
    D = d * ratio
    v = fraction * math.sqrt(d * (D - d))
    assert within_ulps(spl.bound_detailed(D, d, v), mp_bound_detailed(D, d, v), 4)


def test_bound_detailed_below_sqrt2_over_2():
    rng = np.random.default_rng(8)
    for _ in range(300):
        D, d, v = sample_domain(rng)
        assert spl.bound_detailed(D, d, v) < SQRT2 / 2.0


def test_bound_detailed_dominated_by_apriori():
    rng = np.random.default_rng(9)
    for _ in range(300):
        d = float(rng.uniform(0.1, 2.0))
        D = d * float(rng.uniform(2.0, 8.0))
        v = float(rng.uniform(0.0, 0.999)) * min(d, math.sqrt(d * (D - d)))
        assert spl.bound_detailed(D, d, v) <= spl.bound_apriori(v, d) + 1e-12


def test_trig_helpers():
    for t in [0.0, 0.3, 1.0, 7.5, 1e3]:
        npt.assert_allclose(sin_arctan(t), math.sin(math.atan(t)), atol=1e-14)
        npt.assert_allclose(sin_half_arctan(t), math.sin(0.5 * math.atan(t)), atol=1e-14)
    assert sin_half_arctan(1e200) == math.sqrt(0.5)
    assert sin_arctan(1e200) == 1.0  # t*t overflowed, which gave 0


# --- rational kernel and its supremum ------------------------------------------------


def test_phi_values():
    npt.assert_allclose(spl.phi(2.0, 0.5, 1.0, 0.5), 0.5, atol=1e-14)
    # on the left boundary the corner value is v/d
    a, d, v = 0.7, 0.9, 0.4
    npt.assert_allclose(
        spl.phi(a + d, v, a, v), v * (2 * a + d) / (d * (2 * a + d)), atol=1e-14
    )
    assert spl.phi(5.0, 0.0, 0.0, 0.0) == 0.0


def test_phi_decreasing_in_x_on_axis():
    xs = np.linspace(1.0, 10.0, 50)
    vals = [spl.phi(x, 0.0, 0.0, 0.5) for x in xs]
    assert np.all(np.diff(vals) < 0)


def test_phi_singular_denominator():
    with pytest.raises(SingularDenominator):
        spl.phi(1.0, 0.0, 1.0, 0.5)


def test_phi_sup_analytic_reference_points():
    s = spl.phi_sup_analytic(0.0, 1.0, 0.5)
    assert s.branch == "full"
    npt.assert_allclose(s.sup, 2.0 / 3.0, atol=1e-14)
    npt.assert_allclose(s.y, 0.0, atol=1e-14)
    npt.assert_allclose(2.0 * s.sup, spl.kappa(2.0, 1.0, 0.5).value, atol=1e-14)

    s = spl.phi_sup_analytic(1.0, 1.0, 0.5)
    assert s.branch == "linear"
    npt.assert_allclose(s.sup, 0.5, atol=1e-14)
    npt.assert_allclose((s.x, s.y), (2.0, 0.5), atol=1e-14)
    npt.assert_allclose(spl.phi(s.x, s.y, 1.0, 0.5), s.sup, atol=1e-14)


def test_phi_sup_analytic_small_v_limit():
    for v in [1e-3, 1e-6, 1e-9]:
        assert spl.phi_sup_analytic(0.8, 1.2, v).sup <= v / 1.2 + 1e-15
    with pytest.raises(DomainViolation):
        spl.phi_sup_analytic(0.8, 1.2, 0.0)


def test_phi_sup_analytic_maximiser_consistency():
    # the reported maximiser must reproduce the supremum through the kernel
    rng = np.random.default_rng(10)
    full_seen = 0
    for _ in range(300):
        a = float(rng.uniform(0.0, 3.0))
        d = float(rng.uniform(0.05, 2.0))
        v = float(rng.uniform(0.01, 0.999)) * math.sqrt(d * (2.0 * a + d))
        s = spl.phi_sup_analytic(a, d, v)
        npt.assert_allclose(spl.phi(s.x, s.y, a, v), s.sup, rtol=1e-12, atol=1e-14)
        assert 0.0 <= s.y <= v
        if s.branch == "full":
            full_seen += 1
            assert s.y < v
        # twice the supremum equals the coefficient at gap length 2(a+d)
        npt.assert_allclose(
            2.0 * s.sup, spl.kappa(2.0 * (a + d), d, v).value, rtol=1e-12
        )
    assert full_seen > 30


def test_phi_sup_oracle_reference_points():
    sup, y = mp_phi_sup(0.0, 1.0, 0.5)
    assert abs(sup - mpmath.mpf(2) / 3) <= 1e-13 * sup and y == 0
    sup, y = mp_phi_sup(1.0, 1.0, 0.5)
    assert abs(sup - 0.5) <= 1e-13 * sup and y == 0.5


def test_phi_sup_oracle_agrees_with_analytic():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = float(rng.uniform(0.0, 2.0))
        d = float(rng.uniform(0.1, 1.5))
        v = float(rng.uniform(0.05, 0.98)) * math.sqrt(d * (2.0 * a + d))
        ana = spl.phi_sup_analytic(a, d, v)
        sup, y = mp_phi_sup(a, d, v)
        assert abs(ana.sup - sup) <= 1e-13 * sup
        # the oracle's maximiser (a + d, y) is the analytic one
        assert ana.x == a + d
        assert abs(ana.y - y) <= 1e-13 * max(v, d)


# --- worst case over gap lengths ------------------------------------------------------


def kappa_max_over_D(d: float, v: float) -> float:
    """Worst case of kappa over the gap lengths D >= 2d, taken at D = 2d:
    2 v d / (d^2 - v^2) = tan(2 arctan(v/d)), for v < d."""
    return 2.0 * v * d / (d * d - v * v)


def test_kappa_max_over_D_values():
    # kappa at D = 2d takes the closed form's values and is undefined at v = d
    npt.assert_allclose(spl.kappa(2.0, 1.0, 0.5).value, 4.0 / 3.0, atol=1e-14)
    assert spl.kappa(2.0, 1.0, 0.0).value == 0.0
    npt.assert_allclose(spl.kappa(4.0, 2.0, 1.0).value, 4.0 / 3.0, atol=1e-14)
    with pytest.raises(DomainViolation):
        spl.kappa(2.0, 1.0, 1.0)


def test_kappa_max_over_D_consistency():
    rng = np.random.default_rng(12)
    for _ in range(200):
        d = float(rng.uniform(0.1, 2.0))
        v = float(rng.uniform(0.0, 0.99)) * d
        kmax = kappa_max_over_D(d, v)
        npt.assert_allclose(kmax, spl.kappa(2.0 * d, d, v).value, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(kmax, math.tan(2.0 * math.atan(v / d)), rtol=1e-10, atol=1e-12)
        npt.assert_allclose(sin_half_arctan(kmax), spl.bound_apriori(v, d), rtol=1e-12, atol=1e-15)


# --- validated inputs and reports ------------------------------------------------------


def test_bound_inputs_flags():
    report = spl.bounds.applicable_bounds(4.0, 1.0, 1.2, -2.0, 2.0)
    assert report.regime_gap_survives  # 1.2 < sqrt(2)
    assert report.regime_split         # 1.2 < 2
    assert report.regime_detailed      # 1.2 < sqrt(3)
    report = spl.bounds.applicable_bounds(4.0, 1.0, 1.5, -2.0, 2.0)
    assert not report.regime_gap_survives
    assert report.regime_split


def test_bound_inputs_validation():
    with pytest.raises(DomainViolation):
        spl.bounds.applicable_bounds(2.0, 1.1, 0.0, -1.0, 1.0)
    with pytest.raises(DomainViolation):
        spl.bounds.applicable_bounds(2.0, 1.0, -0.5, -1.0, 1.0)


@pytest.mark.parametrize("v", [-0.5, math.nan, math.inf])
@pytest.mark.parametrize(
    "evaluate",
    [
        lambda v: spl.bounds.applicable_bounds(2.0, 1.0, v, -1.0, 1.0),
        lambda v: spl.r_v(v, 1.0, 2.0),
        lambda v: spl.kappa(2.0, 1.0, v),
        lambda v: spl.bound_apriori(v, 1.0),
    ],
    ids=["applicable_bounds", "r_v", "kappa", "bound_apriori"],
)
def test_perturbation_norm_must_be_finite_and_nonnegative(evaluate, v):
    # NaN passed a "v < 0" test and only failed when the report was serialised
    with pytest.raises(DomainViolation, match="v="):
        evaluate(v)


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
def test_apriori_separation_must_be_positive_and_finite(d):
    # an infinite d gave the bound 0
    with pytest.raises(DomainViolation, match="d="):
        spl.bound_apriori(0.5, d)


def test_applicable_bounds_validates_the_geometry_once(monkeypatch):
    calls = dict.fromkeys(["check_geometry", "check_norm"], 0)
    for name in calls:
        def counted(*args, _name=name, _check=getattr(spl.bounds, name)):
            calls[_name] += 1
            return _check(*args)
        monkeypatch.setattr(spl.bounds, name, counted)
    report = spl.bounds.applicable_bounds(2.0, 0.5, 0.5, -1.0, 1.0)
    assert report.regime_gap_survives and report.regime_split and report.regime_detailed
    assert calls == {"check_geometry": 1, "check_norm": 1}


def test_applicable_bounds_are_the_formulas_at_the_geometry():
    # one evaluation per trial serves the enclosure, the regime flags and the report
    for D, d, v in [(2.0, 1.0, 0.5), (2.0, 0.3, 0.5), (3.0, 0.5, 0.9), (2.0, 0.4, 0.0)]:
        gl, gr = -D / 2.0, D / 2.0
        b = spl.bounds.applicable_bounds(D, d, v, gl, gr)
        survives, split, detailed = (v < limit for limit in spl.bounds.regime_limits(D, d))
        assert (b.regime_gap_survives, b.regime_split, b.regime_detailed) == (
            survives, split, detailed
        )
        assert b.bound_apriori == (spl.bound_apriori(v, d) if survives else None)
        assert b.kappa == (spl.kappa(D, d, v).value if detailed else None)
        assert b.r_v == (spl.r_v(v, d, D) if split else None)
        assert b.enclosure == (spl.enclosure(gl, gr, d, v) if split else None)
        assert b.measured is None and b.ratio_apriori is None and b.ok_detailed is None
        assert b.against(0.1) == spl.make_bound_report(0.1, D, d, v, gl, gr)


def test_check_geometry():
    check_geometry(2.0, 1.0)
    with pytest.raises(DomainViolation):
        check_geometry(0.0, 0.1)
    with pytest.raises(DomainViolation):
        check_geometry(math.inf, 0.1)
    # the ends of SCALE_RANGE pass, beyond them the products under- or overflow
    check_geometry(1e100, 1e-100)
    spl.bounds.check_norm(1e100)
    for D, d in [(1.1e100, 0.5), (1.0, 9e-101)]:
        with pytest.raises(DomainViolation, match="1e-100"):
            check_geometry(D, d)
    with pytest.raises(DomainViolation, match="1e\\+100"):
        spl.bounds.check_norm(1.1e100)


def test_make_bound_report_e1_numbers():
    report = spl.make_bound_report(math.sin(math.pi / 8.0), 2.0, 1.0, 0.5, -1.0, 1.0)
    npt.assert_allclose(report.bound_apriori, 0.5 / math.sqrt(1.25), atol=1e-14)
    npt.assert_allclose(report.bound_detailed, 0.5 / math.sqrt(1.25), atol=1e-14)
    npt.assert_allclose(report.kappa, 4.0 / 3.0, atol=1e-14)
    npt.assert_allclose(report.r_v, (SQRT2 - 1.0) / 2.0, atol=1e-14)
    assert report.ok_apriori and report.ok_detailed
    npt.assert_allclose(report.ratio_detailed, report.ratio_apriori, atol=1e-14)


def test_make_bound_report_out_of_regime():
    report = spl.make_bound_report(0.9, 2.0, 1.0, 1.39, -1.0, 1.0)
    # v in [sqrt(d(D-d)), sqrt(2)d): only the a-priori bound applies
    assert report.regime_gap_survives and not report.regime_detailed
    assert report.bound_detailed is None and report.kappa is None
    assert report.bound_apriori is not None
    assert report.ratio_detailed is None


def test_make_bound_report_zero_ratio_convention():
    report = spl.make_bound_report(0.0, 2.0, 1.0, 0.0, -1.0, 1.0)
    assert report.ratio_apriori == 0.0 and report.ratio_detailed == 0.0


# --- pinned bytes ----------------------------------------------------------------------

#: SHA-256 of the sweep CSVs and then also of the `spl bounds` rows below, as
#: computed before the regime decision moved into one validated evaluation,
#: re-taken when floats became shortest round-trip text (same values).
BOUND_DIGESTS = {
    "sweep": "9255e44937047908d9527ea7def10c0a1493be5403f11afd4dbdf894eeb23823",
    "rows": "34ca121256042589c32390a19bac93bd5d9efa78202ce2fad160819beb8d7d25",
}

#: (D, d, v) of `spl bounds` rows: every regime, out of all of them, and both kappa branches.
BOUND_POINTS = [
    ("2", "1", "0"), ("2", "1", "0.5"), ("2", "1", "1.2"), ("2", "1", "1.5"),
    ("4", "1", "1.5"), ("3", "0.5", "2"), ("10", "0.05", "0.3"), ("1", "0.4", "0.45"),
]


def test_bound_bytes_are_pinned(capsys):
    # the sweep grid crosses all three regime edges and both kappa branches
    h = hashlib.sha256()
    for d in (0.05, 0.3, 0.5, 1.0, 1.7):
        rows = harness.sweep_rows(np.linspace(0.5, 10, 41), d, np.linspace(0, 3, 61))
        h.update(harness.sweep_csv(rows).encode())
    assert h.hexdigest() == BOUND_DIGESTS["sweep"]
    for D, d, v in BOUND_POINTS:
        for unchecked in ([], ["--unchecked"]):
            assert cli.main(["bounds", "--D", D, "--d", d, "--v", v, *unchecked]) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == BOUND_DIGESTS["rows"]
