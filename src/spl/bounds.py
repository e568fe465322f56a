"""Closed-form bounds on the rotation of a gap-confined spectral subspace.

All functions are pure and stateless.  Geometry parameters are the gap
length D, the separation d between the inner and outer spectral components
(0 < d <= D/2), and the perturbation norm v; the derived half-width of the
admissible inner hull is a = D/2 - d.  Trigonometric compositions are
evaluated through algebraic identities (sin(arctan t) = t/sqrt(1 + t^2),
half-angle forms) to avoid precision loss for large arguments.

Regime thresholds in increasing strength of the hypothesis, as computed
by :func:`regime_limits`:
  v < sqrt(2)*d        gap survives, a-priori bound applies,
  v < sqrt(d*D)        perturbed spectrum splits, graph representation,
  v < sqrt(d*(D-d))    gap-length-aware bound applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainViolation, RegimeViolation, SingularDenominator


@dataclass(frozen=True)
class KappaValue:
    """Piecewise bound coefficient with its branch tag ('linear' or 'full')."""

    value: float
    branch: str


@dataclass(frozen=True)
class PhiSup:
    """Supremum of the rational bound kernel with its maximiser (x, y) and
    its branch tag ('linear' or 'full', as :class:`KappaValue`)."""

    sup: float
    x: float
    y: float
    branch: str


#: Magnitudes accepted for D, d and v.  The bounds are scale-invariant,
#: but d*D, d*(D-d) and v*v under- or overflow far outside this range.
SCALE_RANGE = (1e-100, 1e100)

#: Absolute slack of a measurement checked against a bound: measured <= bound
#: + BOUND_SLACK passes.
BOUND_SLACK = 1e-9


def check_geometry(D: float, d: float) -> None:
    if not 0.0 < D < math.inf:
        raise DomainViolation(f"gap length must be positive and finite, got D={D}")
    if not 0.0 < d <= D / 2.0:
        raise DomainViolation(f"need 0 < d <= D/2, got d={d}, D/2={D / 2.0}")
    lo, hi = SCALE_RANGE
    if D > hi or d < lo:
        raise DomainViolation(
            f"need D <= {hi:g} and d >= {lo:g} (their products under- or overflow), "
            f"got D={D}, d={d}"
        )


def check_norm(v: float) -> None:
    """Refuse a perturbation norm that is negative, infinite, NaN or above
    the largest magnitude of SCALE_RANGE."""
    if not 0.0 <= v < math.inf:
        raise DomainViolation(f"perturbation norm must be finite and nonnegative, got v={v}")
    if v > SCALE_RANGE[1]:
        raise DomainViolation(f"need v <= {SCALE_RANGE[1]:g} (v*v overflows), got v={v}")


def regime_limits(D: float, d: float) -> tuple[float, float, float]:
    """The thresholds on v of the three regimes, in increasing strength:
    (sqrt(2)*d, sqrt(d*D), sqrt(d*(D-d))), for a valid geometry."""
    return math.sqrt(2.0) * d, math.sqrt(d * D), math.sqrt(d * (D - d))


def sin_arctan(t: float) -> float:
    """sin(arctan t) for t >= 0, evaluated as t / sqrt(1 + t^2)."""
    if t > 1e100:  # avoid overflow in t*t; limit value to double precision
        return 1.0
    return t / math.sqrt(1.0 + t * t)


def sin_half_arctan(k: float) -> float:
    """sin(arctan(k) / 2) for k >= 0 via the half-angle identity.

    Equals k / sqrt(2 s (s + 1)) with s = sqrt(1 + k^2); strictly below
    sqrt(2)/2 for every finite k.
    """
    if k > 1e100:  # avoid overflow in k*k; limit value to double precision
        return math.sqrt(0.5)
    s = math.sqrt(1.0 + k * k)
    return k / math.sqrt(2.0 * s * (s + 1.0))


def r_v(v: float, d: float, D: float) -> float:
    """Gap-erosion radius: how far perturbed inner eigenvalues can approach
    the gap ends.

    Algebraically equal to v * tan(arctan(2 v / (D - d)) / 2), computed in
    the cancellation-free form 2 v^2 / (sqrt((D-d)^2 + 4 v^2) + (D - d)).
    Strictly below d whenever v < sqrt(d*D), the regime it requires.
    """
    check_geometry(D, d)
    check_norm(v)
    limit = regime_limits(D, d)[1]
    if v >= limit:
        raise RegimeViolation(f"need v < sqrt(d*D) = {limit}, got v={v}")
    return _r_v(v, d, D, True)


def _r_v(v: float, d: float, D: float, checked: bool) -> float:
    value = 2.0 * v * v / (math.hypot(D - d, 2.0 * v) + (D - d))
    if checked and not value < d:
        # only reachable within roundoff of the regime edge
        raise RegimeViolation(f"v={v} sits at the regime edge: erosion radius reaches d")
    return value


def enclosure(gamma_l: float, gamma_r: float, d: float, v: float) -> tuple[float, float]:
    """Interval confining the perturbed inner eigenvalues.

    Returns (gamma_l + d - r, gamma_r - d + r) with r the gap-erosion
    radius.  For v = 0 this is the admissible hull of the inner component.
    """
    return _erode(gamma_l, gamma_r, d, r_v(v, d, gamma_r - gamma_l))


def _erode(gamma_l: float, gamma_r: float, d: float, r: float) -> tuple[float, float]:
    return (gamma_l + d - r, gamma_r - d + r)


def kappa_branch_point(D: float, d: float) -> float:
    """Perturbation norm where the bound coefficient switches branch."""
    return 0.5 * math.sqrt(d * (D - 2.0 * d))


def kappa(D: float, d: float, v: float) -> KappaValue:
    """Piecewise coefficient whose half-arctangent sine bounds the projector
    difference for gap length D, separation d and perturbation norm v.

    Linear branch 2v/d below the branch point, a rational-plus-radical
    expression above; the two agree at the branch point.  The domain is
    D > 0, 0 < d <= D/2, 0 <= v < sqrt(d*(D-d)); :func:`_kappa` evaluates
    wherever the denominator stays positive.
    """
    check_geometry(D, d)
    check_norm(v)
    limit = regime_limits(D, d)[2]
    if v >= limit:
        raise DomainViolation(f"need v < sqrt(d*(D-d)) = {limit}, got v={v}")
    return _kappa(D, d, v)


def _kappa(D: float, d: float, v: float) -> KappaValue:
    if v <= kappa_branch_point(D, d):
        return KappaValue(value=2.0 * v / d, branch="linear")
    # kappa is scale-invariant and a power of two rounds every step alike:
    # scaled up to D >= 0.5, v * D and the radical term underflow only where
    # kappa does (unscaled, D = 2d = 2e-99 and v = 1e-290 give kappa = 0)
    e = max(-math.frexp(D)[1], 0)
    Ds, ds, vs = math.ldexp(D, e), math.ldexp(d, e), math.ldexp(v, e)
    den = 2.0 * (ds * (Ds - ds) - vs * vs)
    if den <= 0.0:
        raise SingularDenominator(
            f"coefficient undefined at v={v} for D={D}, d={d} "
            f"(denominator {math.ldexp(den, -2 * e)})"
        )
    num = vs * Ds + math.sqrt(ds * (Ds - ds)) * math.hypot(Ds - 2.0 * ds, 2.0 * vs)
    return KappaValue(value=num / den, branch="full")


def bound_apriori(v: float, d: float) -> float:
    """A-priori projector-difference bound sin(arctan(v/d)).

    Depends on the separation only; valid while v < sqrt(2)*d.
    """
    if not 0.0 < d < math.inf:
        raise DomainViolation(f"separation must be positive and finite, got d={d}")
    check_norm(v)
    if v >= math.sqrt(2.0) * d:
        raise RegimeViolation(f"need v < sqrt(2)*d = {math.sqrt(2.0) * d}, got v={v}")
    return sin_arctan(v / d)


def bound_detailed(D: float, d: float, v: float) -> float:
    """Gap-length-aware projector-difference bound sin(arctan(kappa)/2).

    Strictly below sqrt(2)/2 on its domain; coincides with the a-priori
    bound at D = 2d and is dominated by it for v < d.
    """
    return sin_half_arctan(kappa(D, d, v).value)


def phi(x: float, y: float, a: float, v: float) -> float:
    """Rational kernel (v x + a y) / (x^2 + y^2 - a^2 - v^2).

    The natural domain is x >= a + d, 0 <= y <= v, where the denominator is
    positive whenever v^2 < d(2a + d).
    """
    den = x * x + y * y - a * a - v * v
    if den <= 0.0:
        raise SingularDenominator(f"kernel denominator {den} at (x={x}, y={y})")
    return (v * x + a * y) / den


def _check_phi_domain(a: float, d: float, v: float) -> None:
    if a < 0.0:
        raise DomainViolation(f"inner hull half-width must be nonnegative, got a={a}")
    if not d > 0.0:
        raise DomainViolation(f"separation must be positive, got d={d}")
    if not 0.0 < v < math.sqrt(d * (2.0 * a + d)):
        raise DomainViolation(
            f"need 0 < v < sqrt(d*(2a+d)) = {math.sqrt(d * (2.0 * a + d))}, got v={v}"
        )


def phi_sup_analytic(a: float, d: float, v: float) -> PhiSup:
    """Closed-form supremum of the kernel over [a+d, inf) x [0, v].

    The maximum sits on the boundary x = a + d.  For v <= sqrt(d a / 2) it
    is taken at the corner y = v with value v/d; above that threshold the
    interior stationary point

        y* = a (d(2a+d) - v^2) / (v(a+d) + sqrt(d(2a+d)(a^2+v^2)))

    enters [0, v) and the supremum becomes
    (v(a+d) + sqrt(d(2a+d)) sqrt(a^2+v^2)) / (2 (d(2a+d) - v^2)).
    In either branch twice the supremum equals the piecewise bound
    coefficient at gap length 2(a + d).
    """
    _check_phi_domain(a, d, v)
    x_star = a + d
    if v <= math.sqrt(0.5 * d * a):
        return PhiSup(sup=v / d, x=x_star, y=v, branch="linear")
    c = d * (2.0 * a + d) - v * v
    root = math.sqrt(d * (2.0 * a + d) * (a * a + v * v))
    y_star = a * c / (v * x_star + root)
    sup = 0.5 * (v * x_star + math.sqrt(d * (2.0 * a + d)) * math.hypot(a, v)) / c
    return PhiSup(sup=sup, x=x_star, y=y_star, branch="full")


@dataclass(frozen=True)
class BoundReport:
    """Every bound applicable at (D, d, v), and a measurement against them.

    From :func:`applicable_bounds`, before a measurement, ``measured``, the
    ratios and the checks are None.
    """

    D: float
    d: float
    v: float
    regime_gap_survives: bool
    regime_split: bool
    regime_detailed: bool
    bound_apriori: float | None
    bound_detailed: float | None
    kappa: float | None
    kappa_branch: str | None
    r_v: float | None
    enclosure: tuple[float, float] | None
    measured: float | None = None
    ratio_apriori: float | None = None
    ratio_detailed: float | None = None
    ok_apriori: bool | None = None
    ok_detailed: bool | None = None

    def against(self, measured: float) -> BoundReport:
        """This report's bounds checked against a measurement, up to
        BOUND_SLACK."""
        b13, b32 = self.bound_apriori, self.bound_detailed
        return BoundReport(**{
            **self.__dict__,
            "measured": measured,
            "ratio_apriori": None if b13 is None else _ratio(measured, b13),
            "ratio_detailed": None if b32 is None else _ratio(measured, b32),
            "ok_apriori": None if b13 is None else measured <= b13 + BOUND_SLACK,
            "ok_detailed": None if b32 is None else measured <= b32 + BOUND_SLACK,
        })


def _ratio(measured: float, bound: float) -> float:
    # zero-over-zero reported as 0 (trivial perturbation convention)
    if bound == 0.0:
        return 0.0
    return measured / bound


def applicable_bounds(
    D: float, d: float, v: float, gamma_l: float, gamma_r: float
) -> BoundReport:
    """Evaluate all bounds applicable at (D, d, v), before a measurement.

    (gamma_l, gamma_r) is the gap, of length D; its erosion by the radius
    r_v gives the enclosure.  (D, d, v) is validated once and the regime
    flags decide which formulas are evaluated.
    """
    check_geometry(D, d)
    check_norm(v)
    gap_survives, split, detailed = (v < limit for limit in regime_limits(D, d))
    b13 = kv = b32 = rv = encl = None
    if gap_survives:
        b13 = sin_arctan(v / d)
    if detailed:
        kv = _kappa(D, d, v)
        b32 = sin_half_arctan(kv.value)
    if split:
        rv = _r_v(v, d, D, True)
        encl = _erode(gamma_l, gamma_r, d, rv)
    return BoundReport(
        D=D, d=d, v=v,
        regime_gap_survives=gap_survives,
        regime_split=split,
        regime_detailed=detailed,
        bound_apriori=b13,
        bound_detailed=b32,
        kappa=kv.value if kv is not None else None,
        kappa_branch=kv.branch if kv is not None else None,
        r_v=rv,
        enclosure=encl,
    )


def make_bound_report(
    measured: float,
    D: float,
    d: float,
    v: float,
    gamma_l: float,
    gamma_r: float,
) -> BoundReport:
    """Evaluate all bounds applicable at (D, d, v) against a measurement."""
    return applicable_bounds(D, d, v, gamma_l, gamma_r).against(measured)
