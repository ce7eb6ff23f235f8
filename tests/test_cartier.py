import math
import random

import pytest

from hdrflow.cartier import (FrobeniusLift, GoodLiftingMap, _chart_points,
                             _g_point, canonical_lift, check_functoriality,
                             frobenius_lift, glue_change_of_lift,
                             inverse_cartier, p_curvature, pullback_higgs,
                             standard_lift, zeta)
from hdrflow.exact import matrix
from hdrflow.exact.poly import Poly, RatFun
from hdrflow.exact.rmat import rmat_deriv, rmat_inverse
from hdrflow.loghiggs import (INF, LogDivisor, higgs_bundle, log_connection,
                              nilpotency_level, residue, residue_trace_sum)
from hdrflow.p1 import P1Bundle, birkhoff_split, degree_and_slope

from test_loghiggs import over_x, random_divisor, random_split_higgs


def both_standard(div):
    return standard_lift(div, 0), standard_lift(div, 1)


# -- lifting data -------------------------------------------------------------

def test_g_point_integer_oracle():
    # g_c is (x^p - c^p - (x-c)^p)/p computed over the integers, then
    # reduced; recompute it from binomials in Z and compare
    for p in (3, 5, 7):
        for c in range(p):
            expanded = [-math.comb(p, k) * (-c) ** (p - k) for k in range(p + 1)]
            expanded[p] += 1          # + x^p
            expanded[0] += -c ** p    # - c^p ... cancels the k=0 binomial term
            assert all(v % p == 0 for v in expanded)
            want = Poly(p, tuple(v // p for v in expanded))
            assert _g_point(p, c) == want
        assert _g_point(p, 0).is_zero()


def test_standard_lift_domain():
    p = 5
    for pts in ((0,), (INF,), (0, INF)):
        for chart in (0, 1):
            lift = standard_lift(LogDivisor(p, pts), chart)
            assert lift.a.is_zero()
    with pytest.raises(ValueError, match="at 1"):
        standard_lift(LogDivisor(p, (0, 1, INF)), 0)
    # 2 on chart 1 sits at 1/2 = 3
    with pytest.raises(ValueError, match=r"at 3 \(chart 1\)"):
        standard_lift(LogDivisor(p, (0, 2, INF)), 1)


def test_lift_condition_is_order_p():
    p = 5
    div = LogDivisor(p, (0, 1))
    a = canonical_lift(div, 0).a
    for c in (0, 1):
        probe = a + _g_point(p, c)
        assert probe.is_zero() or probe.order_at(c) >= p
    # spoil the order at 1 by one
    bad = a + Poly(p, (-1, 1)) ** (p - 1)
    with pytest.raises(ValueError, match="preserve the divisor"):
        frobenius_lift(div, 0, bad)


def test_canonical_lift_reduces_to_standard():
    for p in (3, 5):
        for pts in ((0,), (INF,), (0, INF)):
            div = LogDivisor(p, pts)
            assert canonical_lift(div, 0).a.is_zero()
            assert canonical_lift(div, 1).a.is_zero()


def test_canonical_lift_degree_and_conditions():
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(6):
            div = random_divisor(rng, p)
            for chart in (0, 1):
                lift = canonical_lift(div, chart)
                pts = _chart_points(div, chart)
                assert lift.a.degree < p * max(len(pts), 1)
                for c in pts:
                    probe = lift.a + _g_point(p, c)
                    assert probe.is_zero() or probe.order_at(c) >= p


def test_zeta_frozen_examples():
    p = 5
    D = LogDivisor(p, (0, INF))
    z = zeta(standard_lift(D, 0))
    assert z.on_dx == Poly.monomial(p, p - 1)
    assert z.on_dlog == RatFun.one(p)
    # F*(x) = x^p(1 + p x), i.e. a = x^(p+1): zeta(dx/x) = dx/x + dx
    z = zeta(frobenius_lift(D, 0, Poly.monomial(p, p + 1)))
    assert z.on_dlog == RatFun(Poly(p, (1, 1)))
    # a = x^2 away from log points
    z = zeta(frobenius_lift(LogDivisor(p, (INF,)), 0, Poly.monomial(p, 2)))
    assert z.on_dx == Poly.monomial(p, p - 1) + Poly(p, (0, 2))


def test_hand_built_lift_is_refused_at_construction():
    p = 5
    D = LogDivisor(p, (0, 1, INF))
    # valid at 0 (order 5 there) but not at 1
    with pytest.raises(ValueError, match="at 1"):
        FrobeniusLift(p, 0, Poly.monomial(p, p), D)


# -- the transform ------------------------------------------------------------

def test_transform_of_constant_jordan_field():
    p = 5
    D = LogDivisor(p, (0, INF))
    b = P1Bundle.of_type(p, (0, 0))
    hb = higgs_bundle(b, D, over_x(p, [[0, 1], [0, 0]]))
    con = inverse_cartier(hb, *both_standard(D))
    assert con.bundle == b
    assert con.a0 == hb.theta0
    assert con.a1 == hb.theta1
    assert residue(con, 0) == [[0, 1], [0, 0]]
    assert residue(con, INF) == [[0, -1 % p], [0, 0]]


def test_transform_of_zero_field_is_canonical():
    p = 5
    D = LogDivisor(p, (0, 2, INF))
    b = P1Bundle.of_type(p, (1, -1))
    zero = RatFun.zero(p)
    hb = higgs_bundle(b, D, [[zero, zero], [zero, zero]])
    con = inverse_cartier(hb)
    assert all(e.is_zero() for row in con.a0 for e in row)
    assert all(e.is_zero() for row in con.a1 for e in row)
    types, _, _ = birkhoff_split(con.bundle)
    assert types.entries == (p, -p)


def test_transform_degree_and_type_example():
    p = 5
    D = LogDivisor(p, (0, INF))
    b = P1Bundle.of_type(p, (1, -1))
    zero = RatFun.zero(p)
    hb = higgs_bundle(b, D, [[zero, rf_over_x(p, 1)], [zero, zero]])
    assert degree_and_slope(hb.bundle)[0] == 0
    con = inverse_cartier(hb, *both_standard(D))
    assert degree_and_slope(con.bundle)[0] == 0
    types, _, _ = birkhoff_split(con.bundle)
    assert types.entries == (p, -p)
    for pt in (0, INF):
        assert residue(con, pt) == residue(hb, pt)


def rf_over_x(p, c):
    return RatFun(Poly.const(p, c), Poly.x(p))


def test_transform_preconditions():
    p = 3
    D = LogDivisor(p, (0, INF))
    zero = RatFun.zero(p)
    diag = [[rf_over_x(p, 1), zero], [zero, rf_over_x(p, 2)]]
    hb = higgs_bundle(P1Bundle.of_type(p, (0, 0)), D, diag)
    with pytest.raises(ValueError, match="not nilpotent"):
        inverse_cartier(hb)
    with pytest.raises(ValueError, match="not nilpotent"):
        glue_change_of_lift(standard_lift(D, 0), standard_lift(D, 0), hb)
    big = higgs_bundle(P1Bundle.of_type(p, (0,) * 4), D,
                       [[zero] * 4 for _ in range(4)])
    with pytest.raises(ValueError, match="rank 4 exceeds"):
        inverse_cartier(big)
    ok = higgs_bundle(P1Bundle.of_type(p, (0, 0)), D,
                      over_x(p, [[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="different divisor"):
        inverse_cartier(ok, standard_lift(LogDivisor(p, (0,)), 0), None)
    with pytest.raises(ValueError, match="chart 1"):
        inverse_cartier(ok, standard_lift(D, 1), None)


def test_transform_random_properties():
    rng = random.Random(23)
    for p in (3, 5):
        for _ in range(10):
            div = random_divisor(rng, p)
            r = rng.choice((2, 3))
            types = sorted((rng.randrange(-1, 2) for _ in range(r)),
                           reverse=True)
            hb = random_split_higgs(rng, p, tuple(types), div, nilpotent=True)
            con = inverse_cartier(hb)
            ed, _ = degree_and_slope(hb.bundle)
            vd, _ = degree_and_slope(con.bundle)
            assert vd == p * ed
            assert con.rank == hb.rank
            for pt in div.points:
                assert residue(con, pt) == residue(hb, pt)
            assert residue_trace_sum(con).ok
            psi = p_curvature(con)
            mlog = [[-(RatFun.x(p) * e).dilate(p) for e in row]
                    for row in hb.theta0]
            assert matrix.eq(psi, mlog)
            lv = nilpotency_level(psi)
            assert lv is not None and lv <= p - 1


# -- change of lifting --------------------------------------------------------

def test_glue_frozen_example():
    # standard against F*(x) = x^p(1 + p x) on theta = N dx/x
    p = 5
    D = LogDivisor(p, (0, INF))
    b = P1Bundle.of_type(p, (0, 0))
    hb = higgs_bundle(b, D, over_x(p, [[0, 1], [0, 0]]))
    l1 = standard_lift(D, 0)
    l2 = frobenius_lift(D, 0, Poly.monomial(p, p + 1))
    tau, g = glue_change_of_lift(l1, l2, hb)
    x = RatFun.x(p)
    assert tau == ((RatFun.zero(p), -x), (RatFun.zero(p), RatFun.zero(p)))
    assert g == ((RatFun.one(p), -x), (RatFun.zero(p), RatFun.one(p)))
    s1 = standard_lift(D, 1)
    ca = inverse_cartier(hb, l1, s1)
    cb = inverse_cartier(hb, l2, s1)
    assert conjugate_frame(g, ca.a0) == [list(r) for r in cb.a0]


def conjugate_frame(g, a):
    """Connection matrix after the frame change u -> g u."""
    gi = rmat_inverse(g)
    return matrix.sub(matrix.mul(matrix.mul(g, [list(r) for r in a]), gi),
                      matrix.mul(rmat_deriv(g), gi))


def test_glue_trivial_cases():
    p = 5
    D = LogDivisor(p, (0, INF))
    b = P1Bundle.of_type(p, (0, 0))
    hb = higgs_bundle(b, D, over_x(p, [[0, 1], [0, 0]]))
    l1 = standard_lift(D, 0)
    tau, g = glue_change_of_lift(l1, l1, hb)
    assert all(e.is_zero() for row in tau for e in row)
    assert matrix.eq(g, matrix.identity(RatFun, p, 2))
    zero = RatFun.zero(p)
    hb0 = higgs_bundle(b, D, [[zero, zero], [zero, zero]])
    l2 = frobenius_lift(D, 0, Poly.monomial(p, p + 2))
    _, g = glue_change_of_lift(l1, l2, hb0)
    assert matrix.eq(g, matrix.identity(RatFun, p, 2))


def test_glue_chart_and_divisor_guards():
    p = 5
    D = LogDivisor(p, (0, INF))
    hb = higgs_bundle(P1Bundle.of_type(p, (0, 0)), D,
                      over_x(p, [[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="different charts"):
        glue_change_of_lift(standard_lift(D, 0), standard_lift(D, 1), hb)
    other = LogDivisor(p, (0,))
    with pytest.raises(ValueError, match="does not match"):
        glue_change_of_lift(standard_lift(other, 0), standard_lift(other, 0),
                            hb)


def test_glue_random_conjugation_exact():
    rng = random.Random(91)
    for p in (3, 5):
        for _ in range(8):
            div = random_divisor(rng, p)
            r = rng.choice((2, 3))
            hb = random_split_higgs(rng, p, (0,) * r, div, nilpotent=True)
            l1 = canonical_lift(div, 0)
            bump = div.boundary_poly() ** p * Poly(
                p, tuple(rng.randrange(p) for _ in range(3)))
            l2 = frobenius_lift(div, 0, l1.a + bump)
            tau, g = glue_change_of_lift(l1, l2, hb)
            s1 = canonical_lift(div, 1)
            ca = inverse_cartier(hb, l1, s1)
            cb = inverse_cartier(hb, l2, s1)
            assert conjugate_frame(g, ca.a0) == [list(r) for r in cb.a0]
            # the bundle itself does not depend on the lift choice
            ta, _, _ = birkhoff_split(ca.bundle)
            tb, _, _ = birkhoff_split(cb.bundle)
            assert ta.entries == tb.entries
            # residues agree with the input either way
            for pt in div.points:
                assert residue(cb, pt) == residue(hb, pt)


# -- p-curvature --------------------------------------------------------------

def test_p_curvature_frozen_values():
    p = 3
    D = LogDivisor(p, (0, INF))
    b = P1Bundle.of_type(p, (0, 0))
    zero = RatFun.zero(p)
    plain = log_connection(b, D, [[zero, zero], [zero, zero]])
    assert matrix.eq(p_curvature(plain), [[zero, zero], [zero, zero]])
    con = log_connection(b, D, over_x(p, [[0, 1], [0, 0]]))
    # N^3 - N = -N for this Jordan block
    assert p_curvature(con) == ((zero, -RatFun.one(p)), (zero, zero))


def test_p_curvature_fermat_kills_split_residues():
    # constant residue matrix with eigenvalues in the prime field:
    # psi = A^p - A = 0, so non-nilpotent residues are the only flag
    p = 5
    D = LogDivisor(p, (0, INF))
    con = log_connection(P1Bundle.of_type(p, (0, 0)), D,
                         over_x(p, [[1, 0], [0, 2]]))
    psi = p_curvature(con)
    assert all(e.is_zero() for row in psi for e in row)
    assert nilpotency_level(residue(con, 0), p) is None


def test_p_curvature_non_nilpotent_witness():
    # companion matrix of x^2 - 2, irreducible mod 5: eigenvalues live in
    # the quadratic extension and N^5 = 4N, so psi = 3N is invertible
    p = 5
    D = LogDivisor(p, (0, INF))
    con = log_connection(P1Bundle.of_type(p, (0, 0)), D,
                         over_x(p, [[0, 2], [1, 0]]))
    psi = p_curvature(con)
    want = [[RatFun.const(p, 3) * e for e in row]
            for row in [[RatFun.zero(p), RatFun.const(p, 2)],
                        [RatFun.one(p), RatFun.zero(p)]]]
    assert matrix.eq(psi, want)
    assert nilpotency_level(psi) is None


# -- functoriality under monomial maps ----------------------------------------

def test_good_lifting_map_validation():
    with pytest.raises(ValueError, match="positive"):
        GoodLiftingMap(5, 0, 1)
    with pytest.raises(ValueError, match="vanishes"):
        GoodLiftingMap(5, 2, 10)
    assert GoodLiftingMap(5, 2, 7).lam == 2


def test_pullback_scales_log_residue():
    p = 5
    D = LogDivisor(p, (0, INF))
    hb = higgs_bundle(P1Bundle.of_type(p, (0, 0)), D,
                      over_x(p, [[0, 1], [0, 0]]))
    for m in (2, 3):
        back = pullback_higgs(GoodLiftingMap(p, m, 1), hb)
        assert residue(back, 0) == [[0, m], [0, 0]]
        assert degree_and_slope(back.bundle)[0] == 0
    twisted = pullback_higgs(GoodLiftingMap(p, 2, 1),
                             higgs_bundle(P1Bundle.of_type(p, (1, -1)), D,
                                          [[RatFun.zero(p)] * 2] * 2))
    assert degree_and_slope(twisted.bundle)[0] == 0
    types, _, _ = birkhoff_split(twisted.bundle)
    assert types.entries == (2, -2)


def test_functoriality_examples():
    p = 5
    D = LogDivisor(p, (0, INF))
    b = P1Bundle.of_type(p, (0, 0))
    hb = higgs_bundle(b, D, over_x(p, [[0, 1], [0, 0]]))
    rep = check_functoriality(GoodLiftingMap(p, 1, 1), hb)
    assert rep.equal
    rep = check_functoriality(GoodLiftingMap(p, 2, 1), hb)
    assert rep.equal
    # both sides are d + 2N dx/x
    assert rep.pullback_of_transform.a0[0][1] == rf_over_x(p, 2)
    zero = RatFun.zero(p)
    hb0 = higgs_bundle(b, D, [[zero, zero], [zero, zero]])
    rep = check_functoriality(GoodLiftingMap(p, 3, 1), hb0)
    assert rep.equal
    assert all(e.is_zero() for row in rep.transform_of_pullback.a0
               for e in row)


def test_functoriality_random():
    rng = random.Random(57)
    for p in (3, 5):
        for _ in range(8):
            pts = rng.choice(((0,), (INF,), (0, INF)))
            div = LogDivisor(p, pts)
            r = rng.choice((2, 3))
            types = sorted((rng.randrange(-1, 2) for _ in range(r)),
                           reverse=True)
            hb = random_split_higgs(rng, p, tuple(types), div, nilpotent=True)
            f = GoodLiftingMap(p, rng.choice((2, 3)),
                               rng.randrange(1, p))
            rep = check_functoriality(f, hb)
            assert rep.equal, rep.detail


def test_functoriality_prefault_on_interior_divisor():
    p = 5
    D = LogDivisor(p, (0, 1, INF))
    zero = RatFun.zero(p)
    hb = higgs_bundle(P1Bundle.of_type(p, (0, 0)), D,
                      [[zero, zero], [zero, zero]])
    with pytest.raises(ValueError, match="only preserve divisors"):
        check_functoriality(GoodLiftingMap(p, 2, 1), hb)
