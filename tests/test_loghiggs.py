import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from hdrflow.exact import matrix, polymat
from hdrflow.exact.laurent import Laurent
from hdrflow.exact.lmat import lmat_to_xpoly
from hdrflow.exact.poly import Poly, RatFun
from hdrflow.exact import linalg
from hdrflow.exact.rmat import (rmat_clear_cols, rmat_clear_rows,
                                rmat_from_lmat, rmat_inverse)
from hdrflow.loghiggs import (INF, LogDivisor, SemistabilityVerdict,
                              _theta_invariant, check_hodge_system,
                              graded_of_flag, griffiths_grading, higgs_bundle,
                              invariant_flag_heuristic, is_semistable_rank2,
                              kernel_semipositivity_check, log_connection,
                              nilpotency_level, residue, residue_trace_sum)
from hdrflow.p1 import (P1Bundle, degree_and_slope, global_sections,
                        hn_filtration_plain, line_subbundle_degree,
                        max_subsheaf_degree)

from test_p1 import planted, random_frame


def rf(p, num, den=None):
    return RatFun(Poly(p, num), Poly(p, den) if den is not None else None)


def over_x(p, ints):
    """Constant integer matrix divided by x: the matrix of N dx/x."""
    x = Poly.x(p)
    return [[RatFun(Poly.const(p, e), x) for e in row] for row in ints]


def random_divisor(rng, p, nmax=4, force_infinity=False):
    pool = list(range(p)) + [INF]
    n = rng.randint(1, min(nmax, len(pool)))
    pts = rng.sample(pool, n)
    if force_infinity and INF not in pts:
        pts[0] = INF
    return LogDivisor(p, tuple(pts))


def random_split_higgs(rng, p, types, div, nilpotent=False):
    """A valid field on the split bundle of the given type.

    Entry (i, j) is a map O(a_j) -> O(a_i) (x) Omega(log D); writing it as
    n(x)/prod(x - c), the chart-1 log condition bounds deg n by
    #finite - 1 + a_i - a_j, minus one more when infinity is off the
    divisor.
    """
    bnd = div.boundary_poly()
    extra = 0 if div.has_infinity else 1
    r = len(types)
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            dmax = len(div.finite_points) - 1 + types[i] - types[j] - extra
            if (nilpotent and j <= i) or dmax < 0:
                row.append(RatFun.zero(p))
                continue
            num = Poly(p, tuple(rng.randrange(p) for _ in range(dmax + 1)))
            row.append(RatFun(num, bnd))
        rows.append(row)
    return higgs_bundle(P1Bundle.of_type(p, types), div, rows)


def conjugated(rng, hb):
    """The same field written after a chart-0 polynomial frame change."""
    p, r = hb.p, hb.rank
    g = random_frame(rng, p, r, 0)
    b2 = P1Bundle.from_rows(p, matrix.mul(hb.bundle.matrix(), g))
    gr = rmat_from_lmat(g)
    th2 = matrix.mul(rmat_inverse(gr),
                     matrix.mul([list(r_) for r_ in hb.theta0], gr))
    return higgs_bundle(b2, hb.divisor, th2), lmat_to_xpoly(g)


def test_divisor_canonicalization():
    d = LogDivisor(5, (INF, 7, 0))
    assert d.points == (0, 2, INF)
    assert d.n0 == 3 and d.has_infinity and d.finite_points == (0, 2)
    assert d.contains(2) and d.contains(INF) and not d.contains(1)
    assert d.boundary_poly() == Poly(5, (0, 1)) * Poly(5, (-2, 1))
    # chart-1 roots: 0 for infinity, 1/2 = 3 for the point 2; x = 0 drops out
    assert d.chart1_poly() == Poly(5, (0, 1)) * Poly(5, (-3, 1))
    try:
        LogDivisor(5, (1, 6))
    except ValueError as err:
        assert "distinct" in str(err)
    else:
        raise AssertionError("duplicate points accepted")


def test_residue_examples():
    p = 5
    b = P1Bundle.of_type(p, (0, 0))
    N = [[0, 1], [0, 0]]
    hb = higgs_bundle(b, LogDivisor(p, (0, INF)), over_x(p, N))
    assert residue(hb, 0) == [[0, 1], [0, 0]]
    assert residue(hb, INF) == [[0, 4], [0, 0]]
    z = higgs_bundle(b, LogDivisor(p, (0, INF)),
                     [[RatFun.zero(p)] * 2] * 2)
    assert residue(z, 0) == [[0, 0], [0, 0]]
    assert residue(z, INF) == [[0, 0], [0, 0]]
    # theta = x/(x-1) N dx/x has its residue concentrated at 1
    th = [[RatFun(Poly.const(p, e), Poly(p, (-1, 1))) for e in row]
          for row in N]
    hb3 = higgs_bundle(b, LogDivisor(p, (0, 1, INF)), th)
    assert residue(hb3, 1) == [[0, 1], [0, 0]]
    assert residue(hb3, 0) == [[0, 0], [0, 0]]
    assert residue(hb3, INF) == [[0, 4], [0, 0]]
    try:
        residue(hb3, 2)
    except ValueError as err:
        assert "log divisor" in str(err)
    else:
        raise AssertionError("off-divisor residue accepted")


def test_pole_and_gauge_validation():
    p = 5
    b = P1Bundle.of_type(p, (0, 0))
    D = LogDivisor(p, (0, INF))
    x = RatFun.x(p)
    for bad in [RatFun.one(p) / (x - 2),          # pole off D
                RatFun.one(p) / (x * x)]:         # order 2 at 0
        try:
            higgs_bundle(b, D, [[bad, 0], [0, 0]])
        except ValueError:
            pass
        else:
            raise AssertionError("bad pole accepted")
    # x dx is regular on chart 0 but violates the log condition at infinity
    try:
        higgs_bundle(b, LogDivisor(p, (0,)), [[0, RatFun(Poly.x(p))], [0, 0]])
    except ValueError:
        pass
    else:
        raise AssertionError("infinity condition not enforced")
    # supplying a wrong chart-1 matrix must be refused, a right one accepted
    good = higgs_bundle(b, D, over_x(p, [[0, 1], [0, 0]]))
    again = higgs_bundle(b, D, good.theta0, good.theta1)
    assert again == good
    try:
        higgs_bundle(b, D, good.theta0,
                     [[RatFun.one(p), 0], [0, 0]])
    except ValueError as err:
        assert "gauge" in str(err)
    else:
        raise AssertionError("wrong chart-1 matrix accepted")


def test_connection_frame_term():
    p = 5
    D = LogDivisor(p, (0, INF))
    con = log_connection(P1Bundle.of_type(p, (1,)), D, [[RatFun.zero(p)]])
    # gauge: A1 = -x^2(T A0 T^(-1) - T' T^(-1)) at x = 1/y gives -1/y
    assert con.a1[0][0] == RatFun(Poly.const(p, -1), Poly.x(p))
    assert residue(con, INF) == [[4]]
    rep = residue_trace_sum(con)
    assert rep.kind == "connection" and rep.total == 4 == rep.expected
    # d on the trivial bundle: all residues vanish
    t = log_connection(P1Bundle.of_type(p, (0, 0)), D,
                       [[RatFun.zero(p)] * 2] * 2)
    rep0 = residue_trace_sum(t)
    assert rep0.total == 0 == rep0.expected
    # the frame term alone accounts for -deg E across a degree sweep
    for a in range(-3, 4):
        c = log_connection(P1Bundle.of_type(p, (a,)), D, [[RatFun.zero(p)]])
        assert residue_trace_sum(c).total == (-a) % p


def test_residue_trace_sum_random():
    rng = random.Random(411)
    for _ in range(40):
        p = rng.choice((3, 5, 7))
        r = rng.randint(1, 3)
        types = sorted((rng.randint(-2, 2) for _ in range(r)), reverse=True)
        div = random_divisor(rng, p)
        hb = random_split_higgs(rng, p, types, div)
        assert residue_trace_sum(hb).ok
        hb2, _ = conjugated(rng, hb)
        assert residue_trace_sum(hb2).ok
    for _ in range(25):
        p = rng.choice((3, 5, 7))
        r = rng.randint(1, 3)
        if rng.random() < 0.5:
            types = [0] * r
            div = random_divisor(rng, p)
        else:
            types = sorted((rng.randint(-2, 2) for _ in range(r)),
                           reverse=True)
            div = random_divisor(rng, p, force_infinity=True)
        seed_higgs = random_split_higgs(rng, p, types, div)
        con = log_connection(seed_higgs.bundle, div, seed_higgs.theta0)
        rep = residue_trace_sum(con)
        assert rep.ok and rep.expected == (-sum(types)) % p


def test_residue_conjugation():
    rng = random.Random(1127)
    for _ in range(15):
        p = rng.choice((5, 7))
        types = sorted((rng.randint(-1, 1) for _ in range(2)), reverse=True)
        div = random_divisor(rng, p)
        hb = random_split_higgs(rng, p, types, div)
        hb2, g = conjugated(rng, hb)
        for pt in div.points:
            if pt == INF:
                # chart-1 frame is untouched by a chart-0 frame change
                assert residue(hb2, INF) == residue(hb, INF)
                continue
            gc = [[e.eval(pt) for e in row] for row in g]
            want = linalg.mat_mul(p, linalg.inverse(p, gc),
                                  linalg.mat_mul(p, residue(hb, pt), gc))
            assert residue(hb2, pt) == want


def test_nilpotency_level():
    p = 7
    assert nilpotency_level([[0, 0], [0, 0]], p) == 0
    assert nilpotency_level([[0, 3], [0, 0]], p) == 1
    for r in range(2, 5):
        J = [[1 if j == i + 1 else 0 for j in range(r)] for i in range(r)]
        assert nilpotency_level(J, p) == r - 1
    assert nilpotency_level([[1, 0], [0, 1]], p) is None
    b = P1Bundle.of_type(p, (0, 0))
    hb = higgs_bundle(b, LogDivisor(p, (0, INF)), over_x(p, [[0, 1], [0, 0]]))
    assert nilpotency_level(hb) == 1
    try:
        nilpotency_level([[0, 1], [0, 0]])
    except ValueError:
        pass
    else:
        raise AssertionError("integer matrix accepted without a prime")


def test_semistable_examples():
    p = 5
    D = LogDivisor(p, (0, INF))
    hb = higgs_bundle(P1Bundle.of_type(p, (0, 0)), D,
                      over_x(p, [[0, 1], [0, 0]]))
    assert is_semistable_rank2(hb).status == "semistable"
    z = [[RatFun.zero(p)] * 2] * 2
    v = is_semistable_rank2(higgs_bundle(P1Bundle.of_type(p, (1, -1)), D, z))
    assert v.status == "unstable" and v.witness_degree == 1
    assert v.witness == (Poly.one(p), Poly.zero(p))
    try:
        is_semistable_rank2(higgs_bundle(P1Bundle.of_type(p, (0,)), D,
                                         [[RatFun.zero(p)]]))
    except ValueError:
        pass
    else:
        raise AssertionError("rank-1 input accepted")


def uniformizing_example(p, lam):
    """O(1) + O(-1) over D = {0, 1, lam, inf} with the nonzero component
    O(1) -> O(-1) (x) Omega(log D) = Hom(O(1), O(1))."""
    den = Poly(p, (0, 1)) * Poly(p, (-1, 1)) * Poly(p, (-lam, 1))
    th = [[RatFun.zero(p), RatFun.zero(p)],
          [RatFun(Poly.one(p), den), RatFun.zero(p)]]
    return higgs_bundle(P1Bundle.of_type(p, (1, -1)),
                        LogDivisor(p, (0, 1, lam, INF)), th)


def test_semistable_uniformizing_four_points():
    hb = uniformizing_example(5, 3)
    assert is_semistable_rank2(hb).status == "semistable"
    # residues are nilpotent of level 1, frozen from the partial fractions
    # of 1/(x(x-1)(x-3)) at 0, 1, 3 and the chart-1 gauge at infinity
    assert residue(hb, 0) == [[0, 0], [2, 0]]
    assert residue(hb, 1) == [[0, 0], [2, 0]]
    assert residue(hb, 3) == [[0, 0], [1, 0]]
    assert residue(hb, INF) == [[0, 0], [4, 0]]
    assert all(nilpotency_level(residue(hb, pt), 5) == 1
               for pt in hb.divisor.points)


def test_semistable_plain_matches_splitting_type():
    rng = random.Random(2403)
    for _ in range(20):
        p = rng.choice((3, 5))
        types, b = planted(rng, p, 2, -2, 2)
        D = LogDivisor(p, (0, INF))
        hb = higgs_bundle(b, D, [[RatFun.zero(p)] * 2] * 2)
        v = is_semistable_rank2(hb)
        if types[0] == types[1]:
            assert v.status == "semistable"
        else:
            assert v.status == "unstable"
            assert v.witness_degree == types[0]


def test_semistable_decides_where_the_enumeration_was_refused():
    # at degree 1 the section space of E(-1) = O(3) + O(-5) has dimension 4,
    # so the projective enumeration needed 97^3 + 97^2 + 97 + 1 = 922180
    # candidates there; the nonzero lower-left entry moves O(4) off itself
    p = 97
    D = LogDivisor(p, tuple(range(10)) + (INF,))
    th = [[RatFun.zero(p), RatFun.zero(p)],
          [RatFun(Poly(p, (3, 1)), D.boundary_poly()), RatFun.zero(p)]]
    hb = higgs_bundle(P1Bundle.of_type(p, (4, -4)), D, th)
    start = time.perf_counter()
    v = is_semistable_rank2(hb)
    assert time.perf_counter() - start < 1
    assert v == SemistabilityVerdict("semistable", Fraction(0))


def enumerated_verdict(hb):
    """The projective enumeration the top-summand rule replaced, kept as
    its reference.  For d from the top splitting index down to just above
    the slope it tries every point of P(H^0(E(-d))) in the canonical order
    of P^(k-1)(F_p) (first nonzero coordinate 1, the rest lexicographic)
    and returns the first theta-invariant section whose line has degree d."""
    b = hb.bundle
    p = b.p
    _, mu = degree_and_slope(b)
    th = [list(row) for row in hb.theta0]
    for d in range(max_subsheaf_degree(b, 1), math.floor(mu), -1):
        secs = global_sections(b, -d)
        k = len(secs)
        for lead in range(k):
            for tail in product(range(p), repeat=k - lead - 1):
                coeffs = (0,) * lead + (1,) + tail
                s = tuple(sum((c * sec[i] for c, sec in zip(coeffs, secs)),
                              Poly.zero(p)) for i in range(2))
                ts = matrix.vec(th, [RatFun(e) for e in s])
                if RatFun(s[0]) * ts[1] != RatFun(s[1]) * ts[0]:
                    continue
                g = s[0].gcd(s[1])
                if line_subbundle_degree(b, tuple(e // g for e in s)) == d:
                    return SemistabilityVerdict(
                        "unstable", mu, d, s,
                        "theta-invariant line sub-bundle above the slope")
    return SemistabilityVerdict("semistable", mu)


def shaped_rank2_field(rng, p, types, div, shape):
    """A field of the given shape on the split bundle of type `types`."""
    (a, b), (c, d) = random_split_higgs(rng, p, types, div).theta0
    z = RatFun.zero(p)
    rows = {"general": [[a, b], [c, d]],
            "upper": [[a, b], [z, d]],
            "lower": [[a, z], [c, d]],
            "diagonal": [[a, z], [z, d]],
            "scalar": [[a, z], [z, a]],
            "zero": [[z, z], [z, z]],
            "equal diagonal": [[a, b], [c, a]]}[shape]
    return higgs_bundle(P1Bundle.of_type(p, types), div, rows)


def test_rank2_verdicts_match_the_enumeration():
    rng = random.Random(2611)
    shapes = ("general", "upper", "lower", "diagonal", "scalar", "zero",
              "equal diagonal")
    seen = set()
    for p in (3, 5, 7, 11, 13):
        for _ in range(40):
            shape = rng.choice(shapes)
            types = sorted((rng.randint(-2, 2) for _ in range(2)),
                           reverse=True)
            hb = shaped_rank2_field(rng, p, types, random_divisor(rng, p),
                                    shape)
            if rng.random() < 0.75:
                hb, _ = conjugated(rng, hb)
            v = is_semistable_rank2(hb)
            assert v == enumerated_verdict(hb), (p, shape, types)
            seen.add((shape, v.status))
    assert {s for s, status in seen if status == "unstable"} == set(shapes)
    assert {s for s, status in seen if status == "semistable"} == set(shapes)


def test_flag_heuristic_theta_zero_gives_hn_steps():
    p = 5
    b = P1Bundle.of_type(p, (1, 0, -1))
    hb = higgs_bundle(b, LogDivisor(p, (0, INF)),
                      [[RatFun.zero(p)] * 3] * 3)
    v = invariant_flag_heuristic(hb)
    assert "not" in v.detail
    got = {(c.source, c.rank, c.degree) for c in v.candidates}
    assert got == {("hn step 1", 1, 1), ("hn step 2", 2, 1)}
    assert v.status == "unstable" and v.witness_degree == 1


def test_flag_heuristic_jordan_kernel_flag():
    p = 5
    b = P1Bundle.of_type(p, (0, 0, 0))
    J = over_x(p, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    v = invariant_flag_heuristic(higgs_bundle(b, LogDivisor(p, (0, INF)),
                                              J))
    # the kernel flag 0 c ker theta c ker theta^2 c E survives, with the
    # coinciding image sub-modules (im theta = ker theta^2, im theta^2 =
    # ker theta) deduplicated under whichever label came first
    assert sorted(c.rank for c in v.candidates) == [1, 2]
    by_rank = {c.rank: c for c in v.candidates}
    assert by_rank[1].source == "ker theta^1"
    assert by_rank[2].source in ("ker theta^2", "im theta^1")
    assert all(c.theta_invariant for c in v.candidates)
    assert v.status == "undecided" and v.witness is None


def test_flag_heuristic_block_diagonal():
    p = 5
    b = P1Bundle.of_type(p, (0, 0, 0))
    th = over_x(p, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    rep = invariant_flag_heuristic(higgs_bundle(b, LogDivisor(p, (0, INF)),
                                                th))
    ranks = sorted((c.source, c.rank) for c in rep.candidates)
    assert ("im theta^1", 1) in ranks and ("ker theta^1", 2) in ranks


def test_theta_invariance_matches_the_rank_over_the_function_field():
    """On saturated candidates, containment over F_p[x] answers the
    question over F_p(x): theta maps the span of cols into itself exactly
    when [cols | theta cols] has rank len(cols) over F_p(x)."""
    rng = random.Random(0x7E7A)

    def vec(p):
        return [Poly(p, tuple(rng.randrange(p) for _ in range(3)))
                for _ in range(3)]
    answers = []
    for p in (3, 5, 97):
        for nilpotent in (False, True):
            div = random_divisor(rng, p)
            types = sorted((rng.randint(-1, 1) for _ in range(3)),
                           reverse=True)
            hb, _ = conjugated(rng, random_split_higgs(rng, p, types, div,
                                                       nilpotent))
            th = [list(row) for row in hb.theta0]
            invariant = []  # saturated kernels and images of theta powers
            power = th
            for _ in range(2):
                invariant.append(
                    polymat.kernel_saturated(rmat_clear_rows(power)))
                invariant.append(polymat.saturate(rmat_clear_cols(power)))
                power = matrix.mul(power, th)
            # random saturated lines and planes, and planes through an
            # invariant line u: [u, v] with the line first and last, where
            # that basis is already saturated
            plain = [polymat.saturate(matrix.from_columns(
                [vec(p) for _ in range(k)])) for k in (1, 2)]
            for (u,) in (c for c in invariant if len(c) == 1):
                v = vec(p)
                form = polymat.smith_form(matrix.from_columns([u, v]))
                if all(d.is_constant() and not d.is_zero()
                       for d in form.diagonal()):
                    plain += [[u, v], [v, u]]
            for cols in invariant + plain:
                if not 0 < len(cols) < 3:
                    continue
                images = [matrix.vec(th, [RatFun(e) for e in col])
                          for col in cols]
                both = [a + b for a, b in zip(
                    matrix.from_columns(cols),
                    rmat_clear_cols(matrix.from_columns(images)))]
                want = polymat.smith_form(both).rank == len(cols)
                got = _theta_invariant(th, cols)
                assert got == want
                assert got or cols in plain
                answers.append(got)
    assert True in answers and False in answers


def test_griffiths_grading_examples():
    p = 5
    D = LogDivisor(p, (0, INF))
    b = P1Bundle.of_type(p, (0, 0))
    z = higgs_bundle(b, D, [[RatFun.zero(p)] * 2] * 2)
    hs = griffiths_grading(z)
    assert hs.piece_ranks == (2,) and hs.higgs == z
    assert check_hodge_system(hs)
    hb = higgs_bundle(b, D, over_x(p, [[0, 1], [0, 0]]))
    hs2 = griffiths_grading(hb)
    assert hs2.piece_ranks == (1, 1)
    assert check_hodge_system(hs2)
    # the graded map is the induced one, here still N dx/x
    assert hs2.higgs.theta0[0][1] == RatFun(Poly.one(p), Poly.x(p))
    assert hs2.semistability.status == "semistable"
    # grading twice changes nothing
    assert griffiths_grading(hs2.higgs).higgs == hs2.higgs
    hs4 = griffiths_grading(uniformizing_example(5, 3))
    assert hs4.piece_ranks == (1, 1)
    assert griffiths_grading(hs4.higgs).higgs == hs4.higgs
    try:
        griffiths_grading(higgs_bundle(b, D, over_x(p, [[1, 0], [0, 1]])))
    except ValueError as err:
        assert "nilpotent" in str(err)
    else:
        raise AssertionError("invertible field graded")


def test_griffiths_grading_random_properties():
    rng = random.Random(907)
    for _ in range(12):
        p = rng.choice((3, 5))
        r = rng.randint(2, 3)
        types = sorted((rng.randint(-1, 1) for _ in range(r)), reverse=True)
        div = random_divisor(rng, p)
        hb = random_split_higgs(rng, p, types, div, nilpotent=True)
        hb2, _ = conjugated(rng, hb)
        for obj in (hb, hb2):
            hs = griffiths_grading(obj)
            assert check_hodge_system(hs)
            assert sum(hs.piece_ranks) == r
            assert degree_and_slope(hs.higgs.bundle) == \
                degree_and_slope(obj.bundle)
            assert griffiths_grading(hs.higgs).piece_ranks == hs.piece_ranks
            # every block is renormalized to its split presentation
            t = hs.higgs.bundle.t
            assert hs.higgs.bundle == P1Bundle.of_type(
                p, [-t[i][i].min_exp() for i in range(r)])
        # the flag is intrinsic, so the piece ranks agree across frames
        assert griffiths_grading(hb).piece_ranks == \
            griffiths_grading(hb2).piece_ranks


def test_graded_of_flag_refuses_a_flag_theta_does_not_lower():
    # N e2 = e1 leaves span(e2), so theta moves the first block up
    p = 5
    hb = higgs_bundle(P1Bundle.of_type(p, (0, 0)), LogDivisor(p, (0, INF)),
                      over_x(p, [[0, 1], [0, 0]]))
    with pytest.raises(AssertionError, match="theta-stable"):
        graded_of_flag(hb, [[[Poly.zero(p), Poly.one(p)]]])


def test_graded_of_flag_refuses_an_untransversal_flag():
    # nabla maps the top HN step two steps down: the HN flag itself is not
    # Griffiths transverse, and grading it must fail loudly
    p = 3
    div = LogDivisor(p, (0, 1, 2, INF))
    con = log_connection(P1Bundle.of_type(p, (1, 0, -1)), div,
                         [[0, 0, 0], [0, 0, 0],
                          [RatFun(Poly.one(p), div.boundary_poly()), 0, 0]])
    flag = [polymat.saturate(matrix.from_columns(step.basis))
            for step in hn_filtration_plain(con.bundle).steps[:-1]]
    with pytest.raises(AssertionError, match="transversality"):
        graded_of_flag(con, flag)


def test_grading_matches_weight_filtration_bookkeeping():
    # for theta = N dx/x on a trivial bundle the graded piece ranks are the
    # kernel-flag jumps of N, and their consecutive differences count the
    # primitive ranks of the weight filtration
    from hdrflow.monodromy import (NilpotentOperator, monodromy_filtration,
                                   primitive_parts)
    rng = random.Random(3301)
    for _ in range(10):
        p = rng.choice((3, 5, 7))
        n = rng.randint(2, 4)
        N = [[rng.randrange(p) if j > i else 0 for j in range(n)]
             for i in range(n)]
        hb = higgs_bundle(P1Bundle.of_type(p, [0] * n),
                          LogDivisor(p, (0, INF)), over_x(p, N))
        ranks = griffiths_grading(hb).piece_ranks
        op = NilpotentOperator.from_ints(p, N)
        parts = primitive_parts(op, monodromy_filtration(op))
        prim = {j: len(vecs) for j, vecs in parts.parts}
        for j in range(len(ranks)):
            nxt = ranks[j + 1] if j + 1 < len(ranks) else 0
            assert prim.get(j, 0) == ranks[j] - nxt


def test_kernel_semipositivity():
    p = 5
    D = LogDivisor(p, (0, INF))
    z = higgs_bundle(P1Bundle.of_type(p, (0, 0)), D,
                     [[RatFun.zero(p)] * 2] * 2)
    rep = kernel_semipositivity_check(z)
    assert rep.passed and rep.kernel_rank == 2 and rep.kernel_type == (0, 0)
    uni = kernel_semipositivity_check(uniformizing_example(5, 3))
    assert uni.passed and uni.kernel_type == (-1,)
    assert uni.semistable == "certified"
    # injective theta: 0 1/x; 0 0 is not injective, take an off-diagonal pair
    x = RatFun.x(p)
    inj = higgs_bundle(P1Bundle.of_type(p, (0, 0)), D,
                       [[RatFun.zero(p), RatFun.one(p) / x],
                        [RatFun.one(p) / x, RatFun.zero(p)]])
    rep2 = kernel_semipositivity_check(inj)
    assert rep2.passed and rep2.kernel_rank == 0
    try:
        kernel_semipositivity_check(
            higgs_bundle(P1Bundle.of_type(p, (1, 0)), D,
                         [[RatFun.zero(p)] * 2] * 2))
    except ValueError:
        pass
    else:
        raise AssertionError("degree-1 bundle accepted")
    try:
        kernel_semipositivity_check(
            higgs_bundle(P1Bundle.of_type(p, (1, -1)), D,
                         [[RatFun.zero(p)] * 2] * 2))
    except ValueError:
        pass
    else:
        raise AssertionError("unstable input accepted")
