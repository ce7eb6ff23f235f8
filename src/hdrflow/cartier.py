"""Inverse Cartier transform on the projective line with explicit Frobenius
liftings.

A lifting of Frobenius on a chart is recorded by its mod-p perturbation
a(x), standing for x -> x^p + p a(x) one level up.  Everything the
construction consumes (the form comparison dF/p, differences of liftings,
the gluing exponential) reduces to polynomial data mod p:

    zeta(dx)   = (x^(p-1) + a'(x)) dx
    zeta(dx/x) = dx/x + dc          for a = x^p c(x) at a log point
    h_12(F*dx) = a_1(x) - a_2(x)    between two liftings on one chart

The divisor is preserved by a lifting exactly when a + g_c vanishes to
order p at each finite divisor point c, where g_c = (x^p - c^p - (x-c)^p)/p
taken mod p; that identity is also what keeps residues of the transform
equal to the residues of the input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import matrix
from .exact.laurent import Laurent
from .exact.poly import Poly, RatFun
from .loghiggs import (INF, LogConnectionP1, LogDivisor, LogHiggsBundleP1,
                       higgs_bundle, log_connection, nilpotency_level)
from .p1 import P1Bundle


@dataclass(frozen=True)
class FrobeniusLift:
    """x -> x^p + p a(x) on chart 0, or the same shape in y on chart 1.

    Construction checks the divisor-preservation condition, so every lift
    that exists preserves its divisor."""

    p: int
    chart: int
    a: Poly
    divisor: LogDivisor

    def __post_init__(self):
        if self.chart not in (0, 1):
            raise ValueError("chart must be 0 or 1")
        for c in _chart_points(self.divisor, self.chart):
            probe = self.a + _g_point(self.p, c)
            if not probe.is_zero() and probe.order_at(c) < self.p:
                where = c if self.chart == 0 else f"{c} (chart 1)"
                raise ValueError(f"lifting does not preserve the divisor "
                                 f"at {where}")


@dataclass(frozen=True)
class ZetaMap:
    """The induced comparison on 1-forms, by its values on dx and dx/x."""

    p: int
    chart: int
    on_dx: Poly      # zeta(dx) = on_dx * dx
    on_dlog: RatFun  # zeta(dx/x) = on_dlog * dx/x


def _g_point(p: int, c: int) -> Poly:
    """(x^p - c^p - (x-c)^p)/p reduced mod p; the discrepancy between the
    standard lifting in the coordinate x and in the shifted coordinate
    x - c."""
    coeffs = [0] * p
    for k in range(1, p):
        coeffs[k] = (-(math.comb(p, k) // p) * pow(-c % p, p - k, p)) % p
    return Poly(p, coeffs)


def _chart_points(divisor: LogDivisor, chart: int):
    """Divisor points visible as finite points of the given chart."""
    p = divisor.p
    if chart == 0:
        return divisor.finite_points
    pts = []
    if divisor.has_infinity:
        pts.append(0)
    for c in divisor.finite_points:
        if c != 0:
            pts.append(pow(c, p - 2, p))
    return tuple(sorted(pts))


def frobenius_lift(divisor: LogDivisor, chart: int, a=0) -> FrobeniusLift:
    """The lift with perturbation a (a polynomial or an integer constant);
    the constructor checks that it preserves the divisor."""
    if isinstance(a, int):
        a = Poly.const(divisor.p, a)
    return FrobeniusLift(divisor.p, chart, a, divisor)


def standard_lift(divisor: LogDivisor, chart: int) -> FrobeniusLift:
    """x -> x^p; preserves the divisor only when its finite chart points
    all sit at the coordinate origin."""
    return frobenius_lift(divisor, chart, 0)


def _poly_crt(p: int, pairs):
    """Chinese remainder for pairwise coprime moduli: pairs of
    (residue, modulus)."""
    a, m = Poly.zero(p), Poly.one(p)
    for r, mod in pairs:
        t = ((r - a) * _inv_mod(m, mod)) % mod
        a = a + m * t
        m = m * mod
    return a % m


def _inv_mod(f: Poly, mod: Poly) -> Poly:
    g, s, _ = f.xgcd(mod)
    if not g.is_one():
        raise ValueError("moduli are not coprime")
    return s % mod


def canonical_lift(divisor: LogDivisor, chart: int) -> FrobeniusLift:
    """The minimal-degree perturbation with a = -g_c mod (x-c)^p at every
    finite chart point; reduces to the standard lift when those points are
    all at the origin."""
    p = divisor.p
    pairs = []
    for c in _chart_points(divisor, chart):
        mod = Poly(p, (-c, 1)) ** p
        pairs.append(((-_g_point(p, c)) % mod, mod))
    if not pairs:
        return FrobeniusLift(p, chart, Poly.zero(p), divisor)
    return frobenius_lift(divisor, chart, _poly_crt(p, pairs))


def zeta(lift: FrobeniusLift) -> ZetaMap:
    """Values of dF/p on the 1-form basis."""
    p = lift.p
    on_dx = Poly.monomial(p, p - 1) + lift.a.deriv()
    on_dlog = RatFun(on_dx, Poly.monomial(p, p - 1))
    return ZetaMap(p, lift.chart, on_dx, on_dlog)


def _exp_nilpotent(p: int, tau):
    """Sum of tau^i / i! over i < p, exact when tau^p = 0; the sum stops at
    the first zero power."""
    r = len(tau)
    out = matrix.identity(RatFun, p, r)
    power = matrix.identity(RatFun, p, r)
    fact = 1
    for i in range(1, p):
        power = matrix.mul(power, tau)
        if matrix.is_zero(power):
            break
        fact = fact * i % p
        inv = pow(fact, p - 2, p)
        out = matrix.add(out, matrix.scale(RatFun.const(p, inv), power))
    if not matrix.is_zero(matrix.mul(power, tau)):
        raise ValueError("tau^p is nonzero; exponential truncation invalid")
    return out


def _as_lift(divisor: LogDivisor, chart: int, lift) -> FrobeniusLift:
    if lift is None:
        return canonical_lift(divisor, chart)
    if isinstance(lift, (int, Poly)):
        return frobenius_lift(divisor, chart, lift)
    if not isinstance(lift, FrobeniusLift):
        raise TypeError(f"not a Frobenius lifting: {lift!r}")
    if lift.divisor != divisor:
        raise ValueError("lifting was validated against a different divisor")
    if lift.chart != chart:
        raise ValueError(f"lifting belongs to chart {lift.chart}, "
                         f"expected {chart}")
    return lift


def glue_change_of_lift(lift1: FrobeniusLift, lift2: FrobeniusLift,
                        hb: LogHiggsBundleP1):
    """tau and g = exp(tau) conjugating the transform at lift1 into the
    transform at lift2, on the common chart.

    tau = (F* theta-matrix) (a_1 - a_2): multiplication by g is a flat
    isomorphism because the matrix of theta(x^p) has vanishing derivative,
    so g' g^(-1) collapses to tau'.
    """
    if lift1.chart != lift2.chart:
        raise ValueError("liftings live on different charts")
    if lift1.divisor != hb.divisor or lift2.divisor != hb.divisor:
        raise ValueError("lifting divisor does not match the bundle")
    transform_level(hb)
    p = hb.p
    m0 = hb.theta0 if lift1.chart == 0 else hb.theta1
    diff = RatFun(lift1.a - lift2.a)
    tau = [[e.dilate(p) * diff for e in row] for row in m0]
    g = _exp_nilpotent(p, tau)
    return tuple(tuple(r) for r in tau), tuple(tuple(r) for r in g)


class ThetaFault(ValueError):
    """A Higgs field the inverse Cartier transform does not accept."""


def transform_level(hb: LogHiggsBundleP1) -> int:
    """The nilpotency level of theta, once the transform is known to accept
    it: rank at most p, then nilpotent of level at most p - 1.  Raises
    ThetaFault naming the first condition that fails."""
    p, r = hb.p, hb.rank
    if r > p:
        raise ThetaFault(f"rank {r} exceeds the prime {p}")
    level = nilpotency_level(hb)
    if level is None:
        raise ThetaFault(f"field is not nilpotent of level <= p-1 = {p - 1}")
    if level > p - 1:
        raise ThetaFault(f"nilpotency level {level} exceeds p-1 = {p - 1}")
    return level


def inverse_cartier(hb: LogHiggsBundleP1, lift0=None,
                    lift1=None) -> LogConnectionP1:
    """The connection d + zeta(F* theta) on the Frobenius pullback.

    Default liftings are the canonical ones per chart; when the two chart
    liftings disagree on the overlap the pullback frames are glued by
    exp(tau) against the lift difference, which multiplies the transition
    by a unipotent factor and leaves the degree at p deg E.
    """
    p, r = hb.p, hb.rank
    transform_level(hb)
    l0 = _as_lift(hb.divisor, 0, lift0)
    l1 = _as_lift(hb.divisor, 1, lift1)

    za, zb = zeta(l0), zeta(l1)
    av0 = [[e.dilate(p) * RatFun(za.on_dx) for e in row] for row in hb.theta0]
    av1 = [[e.dilate(p) * RatFun(zb.on_dx) for e in row] for row in hb.theta1]

    # chart-1 lifting rewritten in x: y -> y^p + p a1(y) sends x = 1/y to
    # x^p + p (-x^(2p) a1(1/x)) up to p^2
    ahat = RatFun(Poly.monomial(p, 2 * p)) * RatFun(l1.a).subst_inv()
    diff = RatFun(l0.a) + ahat
    tau = [[e.dilate(p) * diff for e in row] for row in hb.theta0]
    g = _exp_nilpotent(p, tau)
    tp = [[e.dilate(p) for e in row] for row in hb.bundle.matrix()]
    gl = [[Laurent.from_ratfun(e) for e in row] for row in g]
    s = [[sum((tp[i][t] * gl[t][j] for t in range(r)), Laurent.zero(p))
          for j in range(r)] for i in range(r)]
    bundle = P1Bundle.from_rows(p, s)
    return log_connection(bundle, hb.divisor, av0, av1)


def p_curvature(con: LogConnectionP1):
    """psi(x d/dx) = (nabla_delta)^p - nabla_delta, as a matrix of rational
    functions; delta = x d/dx satisfies delta^[p] = delta."""
    p, r = con.p, con.rank
    x = RatFun.x(p)
    xa = [[x * e for e in row] for row in con.a0]

    def step(v):
        return [x * v[i].deriv()
                + sum((xa[i][j] * v[j] for j in range(r)), RatFun.zero(p))
                for i in range(r)]

    cols = []
    for j in range(r):
        e = [RatFun.one(p) if i == j else RatFun.zero(p) for i in range(r)]
        w = e
        for _ in range(p):
            w = step(w)
        one = step(e)
        cols.append([w[i] - one[i] for i in range(r)])
    return tuple(tuple(cols[j][i] for j in range(r)) for i in range(r))


# -- functoriality under monomial self-maps ----------------------------------

@dataclass(frozen=True)
class GoodLiftingMap:
    """x -> lam x^m, with the standard monomial lifting one level up (the
    Teichmueller coefficient makes it commute with x -> x^p exactly)."""

    p: int
    m: int
    lam: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("exponent must be positive")
        if self.lam % self.p == 0:
            raise ValueError("coefficient vanishes mod p")
        object.__setattr__(self, "lam", self.lam % self.p)


@dataclass(frozen=True)
class FunctorialityReport:
    equal: bool
    pullback_of_transform: LogConnectionP1
    transform_of_pullback: LogConnectionP1
    detail: str = ""


def _check_monomial_divisor(divisor: LogDivisor):
    for c in divisor.finite_points:
        if c != 0:
            raise ValueError("monomial maps only preserve divisors inside "
                             "{0, infinity}")


def pullback_higgs(f: GoodLiftingMap, hb: LogHiggsBundleP1):
    """(f*E, f* theta): transition T(lam x^m), field theta(lam x^m) df."""
    _check_monomial_divisor(hb.divisor)
    p = hb.p
    t2 = [[e.dilate(f.m, f.lam) for e in row] for row in hb.bundle.matrix()]
    df = RatFun(Poly.monomial(p, f.m - 1, f.lam * f.m))
    th2 = [[e.dilate(f.m, f.lam) * df for e in row] for row in hb.theta0]
    return higgs_bundle(P1Bundle.from_rows(p, t2), hb.divisor, th2)


def pullback_connection(f: GoodLiftingMap, con: LogConnectionP1):
    _check_monomial_divisor(con.divisor)
    p = con.p
    t2 = [[e.dilate(f.m, f.lam) for e in row] for row in con.bundle.matrix()]
    df = RatFun(Poly.monomial(p, f.m - 1, f.lam * f.m))
    a2 = [[e.dilate(f.m, f.lam) * df for e in row] for row in con.a0]
    return log_connection(P1Bundle.from_rows(p, t2), con.divisor, a2)


def check_functoriality(f: GoodLiftingMap,
                        hb: LogHiggsBundleP1) -> FunctorialityReport:
    """Pullback then transform against transform then pullback, with the
    standard liftings on both sides; exact equality is the contract."""
    _check_monomial_divisor(hb.divisor)
    D = hb.divisor
    s0, s1 = standard_lift(D, 0), standard_lift(D, 1)
    left = pullback_connection(f, inverse_cartier(hb, s0, s1))
    right = inverse_cartier(pullback_higgs(f, hb), s0, s1)
    if left == right:
        return FunctorialityReport(True, left, right)
    what = []
    if left.bundle != right.bundle:
        what.append("transition")
    if left.a0 != right.a0 or left.a1 != right.a1:
        what.append("connection matrix")
    return FunctorialityReport(False, left, right,
                               "mismatch in " + " and ".join(what))
