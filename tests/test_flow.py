import random
import sys
from fractions import Fraction

import pytest

from hdrflow import cartier, flow, loghiggs
from hdrflow.cartier import canonical_lift, frobenius_lift
from hdrflow.exact.poly import Poly, RatFun
from hdrflow.flow import (FlowState, PeriodReport, SimpsonReport,
                          detect_periodicity, flow_start, flow_step,
                          higgs_isomorphic, simpson_filtration,
                          splitting_bound)
from hdrflow.loghiggs import (INF, LogDivisor, griffiths_grading,
                              higgs_bundle, log_connection, nilpotency_level)
from hdrflow.p1 import P1Bundle, birkhoff_split, degree_and_slope
from hdrflow.serialize import parse_ratfun


def four_points(p, lam=None):
    lam = 2 if lam is None else lam
    return LogDivisor(p, (0, 1, lam, INF))


def rfun(p, div, num):
    return RatFun(num if isinstance(num, Poly) else Poly.const(p, num),
                  div.boundary_poly())


def uniformizing(p, div, c=1):
    """O(1) + O(-1) with the field dropping degree: the only nonzero entry
    is a constant over the boundary polynomial."""
    return higgs_bundle(P1Bundle.of_type(p, (1, -1)), div,
                        [[0, 0], [rfun(p, div, c), 0]])


def trivial_higgs(p, div, r=2):
    zero = [[0] * r for _ in range(r)]
    return higgs_bundle(P1Bundle.of_type(p, tuple([0] * r)), div, zero)


# -- simpson filtration ---------------------------------------------------------

def test_simpson_trivial_for_plain_semistable():
    p = 3
    div = four_points(p)
    con = log_connection(P1Bundle.of_type(p, (0, 0)), div,
                         [[0, 0], [0, 0]])
    rep = simpson_filtration(con)
    assert rep.status == "ok" and rep.steps == ()
    assert rep.graded.piece_ranks == (2,)
    assert all(e.is_zero() for row in rep.graded.higgs.theta0 for e in row)
    assert rep.certified
    one = log_connection(P1Bundle.of_type(p, (2,)), div, [[0]])
    rep1 = simpson_filtration(one)
    assert rep1.steps == () and rep1.graded.piece_ranks == (1,)


def test_simpson_two_step_second_fundamental_form():
    # V = O(1) + O(-1) with nabla pushing the sub into the quotient: the
    # filtration is the HN one and the graded field is the induced map
    p = 3
    div = four_points(p)
    con = log_connection(P1Bundle.of_type(p, (1, -1)), div,
                         [[0, 0], [rfun(p, div, 1), 0]])
    rep = simpson_filtration(con)
    assert rep.status == "ok"
    assert [(s.rank, s.degree) for s in rep.steps] == [(1, 1)]
    hs = rep.graded
    assert hs.piece_ranks == (1, 1)
    t, _, _ = birkhoff_split(hs.higgs.bundle)
    assert t.entries == (1, -1)
    assert not hs.higgs.theta0[0][1].is_zero()
    assert nilpotency_level(hs.higgs) == 1
    assert hs.semistability.status == "semistable"
    assert degree_and_slope(hs.higgs.bundle)[0] == 0


def test_simpson_refines_a_nontransversal_hn(monkeypatch):
    # nabla maps the top HN step straight down two levels, so the middle
    # step must absorb the image and collapse into the full module
    p = 3
    div = four_points(p)
    con = log_connection(P1Bundle.of_type(p, (1, 0, -1)), div,
                         [[0, 0, 0], [0, 0, 0], [rfun(p, div, 1), 0, 0]])
    calls = []

    def counted(c, cols, _inner=flow._nabla_image):
        calls.append(cols)
        return _inner(c, cols)
    monkeypatch.setattr(flow, "_nabla_image", counted)
    rep = simpson_filtration(con)
    assert rep.status == "ok" and rep.iterations == 2
    # one image in the scan that refines, one in the closing check
    assert len(calls) == 2
    assert [(s.rank, s.degree) for s in rep.steps] == [(1, 1)]
    assert rep.graded.piece_ranks == (2, 1)
    assert not rep.certified


def test_simpson_guard_returns_unresolved():
    p = 3
    div = four_points(p)
    con = log_connection(P1Bundle.of_type(p, (1, 0, -1)), div,
                         [[0, 0, 0], [0, 0, 0], [rfun(p, div, 1), 0, 0]])
    rep = simpson_filtration(con, guard=1)
    assert rep.status == "unresolved"
    assert rep.graded is None and rep.iterations == 1
    assert rep.steps  # the last attempt is disclosed


def test_simpson_rank_cap():
    p = 3
    div = four_points(p)
    con = log_connection(P1Bundle.of_type(p, (0, 0, 0, 0)), div,
                         [[0] * 4 for _ in range(4)])
    with pytest.raises(ValueError, match="rank 4 exceeds the prime 3"):
        simpson_filtration(con)


def test_simpson_graded_regrades_to_itself():
    p = 3
    div = four_points(p)
    for types, rows in (
            ((1, -1), [[0, 0], [rfun(p, div, 1), 0]]),
            ((1, 0, -1), [[0, 0, 0], [0, 0, 0], [rfun(p, div, 1), 0, 0]])):
        con = log_connection(P1Bundle.of_type(p, types), div, rows)
        hs = simpson_filtration(con).graded
        again = griffiths_grading(hs.higgs)
        assert again.higgs == hs.higgs
        assert again.piece_ranks == hs.piece_ranks


# -- flow steps -----------------------------------------------------------------

def test_flow_fixed_point_trivial_bundle():
    p = 3
    div = four_points(p)
    for r in (1, 2, 3):
        e0 = trivial_higgs(p, div, r)
        st = flow_start(e0)
        assert st.index == 0 and st.conn_type == tuple([0] * r)
        st1 = flow_step(st)
        assert st1.index == 1
        assert st1.higgs == e0
        assert st1.simpson.steps == ()


def test_flow_rank_one_degree_multiplies():
    p = 3
    div = four_points(p)
    e0 = higgs_bundle(P1Bundle.of_type(p, (1,)), div, [[0]])
    st1 = flow_step(flow_start(e0))
    assert st1.higgs_type == (p,)
    assert degree_and_slope(st1.higgs.bundle)[0] == p
    st2 = flow_step(st1)
    assert st2.higgs_type == (p * p,)


def test_flow_uniformizing_stays_semistable():
    p = 3
    div = four_points(p)
    st = flow_start(uniformizing(p, div))
    assert st.semistability.status == "semistable"
    assert st.level == 1
    for _ in range(3):
        st = flow_step(st)
        assert st.higgs.rank == 2
        assert degree_and_slope(st.higgs.bundle)[0] == 0
        assert st.semistability.status == "semistable"
        assert abs(st.higgs_type[0]) <= splitting_bound(2, div)


def test_flow_lifts_are_pinned():
    p = 3
    div = four_points(p)
    st = flow_start(uniformizing(p, div))
    flow_step(st, lifts=st.lifts)  # restating the same pair is fine
    bump = div.boundary_poly() ** p
    other = (frobenius_lift(div, 0, canonical_lift(div, 0).a + bump),
             canonical_lift(div, 1))
    with pytest.raises(ValueError, match="fixed along the whole flow"):
        flow_step(st, lifts=other)


def test_flow_is_deterministic():
    p = 3
    div = four_points(p)
    a = flow_step(flow_start(uniformizing(p, div)))
    b = flow_step(flow_start(uniformizing(p, div)))
    assert a.higgs == b.higgs and a.connection == b.connection


# -- isomorphism search ---------------------------------------------------------

def test_higgs_isomorphic_basics():
    p = 3
    div = four_points(p)
    uni = uniformizing(p, div)
    assert higgs_isomorphic(uni, uni) is True
    assert higgs_isomorphic(uni, trivial_higgs(p, div)) is False
    other = LogDivisor(p, (0, 1, INF))
    assert higgs_isomorphic(uni, trivial_higgs(p, other)) is False
    # same bundle, zero field vs nilpotent field: residue ranks differ
    nz = higgs_bundle(P1Bundle.of_type(p, (0, 0)), div,
                      [[0, rfun(p, div, 1)], [0, 0]])
    assert higgs_isomorphic(nz, trivial_higgs(p, div)) is False


def test_higgs_isomorphic_finds_conjugations():
    # rewriting the field through an upper-triangular frame change keeps
    # the isomorphism class; the search must reconstruct an intertwiner
    p = 3
    div = four_points(p)
    f = rfun(p, div, 1)
    q = Poly(p, (1, 2, 1))
    # g = [[1, q], [0, 1]] conjugates [[0,0],[f,0]] to [[qf, -q^2 f],[f, -qf]]
    zero = RatFun.zero(p)
    qf = RatFun(q) * f
    th2 = [[qf, zero - RatFun(q) * qf], [f, zero - qf]]
    h1 = uniformizing(p, div)
    h2 = higgs_bundle(P1Bundle.of_type(p, (1, -1)), div, th2)
    assert h1 != h2
    assert higgs_isomorphic(h1, h2) is True


def test_higgs_isomorphic_distinguishes_section_divisors():
    # [[0, n/b], [0, 0]] on O + O is classified by n up to scaling, so
    # different zero loci are never isomorphic; both numerators here are
    # rootless quadratics mod 3, which keeps every residue rank equal and
    # forces the decision through the intertwiner search
    p = 3
    div = four_points(p)
    h1 = higgs_bundle(P1Bundle.of_type(p, (0, 0)), div,
                      [[0, rfun(p, div, Poly(p, (1, 0, 1)))], [0, 0]])
    h2 = higgs_bundle(P1Bundle.of_type(p, (0, 0)), div,
                      [[0, rfun(p, div, Poly(p, (2, 1, 1)))], [0, 0]])
    assert higgs_isomorphic(h1, h2) is False
    # the same pair under a tiny enumeration guard is left undecided
    assert higgs_isomorphic(h1, h2, enum_guard=1) is None


# -- periodicity ----------------------------------------------------------------

def test_periodicity_trivial_fixed_points():
    p = 3
    div = four_points(p)
    for r in (2, 3):
        rep = detect_periodicity(trivial_higgs(p, div, r), max_iter=3)
        assert rep.status == "periodic"
        assert rep.period == 1 and rep.preperiod == 0
        assert rep.orbit[0] == tuple([0] * r)


def test_periodicity_degree_divergence():
    p = 3
    div = four_points(p)
    rep = detect_periodicity(higgs_bundle(P1Bundle.of_type(p, (1,)), div,
                                          [[0]]))
    assert rep.status == "no period"
    assert "degree diverges" in rep.reason
    assert rep.states == () and rep.orbit == ((1,),)


def test_periodicity_uniformizing_p3():
    p = 3
    div = four_points(p)
    rep = detect_periodicity(uniformizing(p, div), max_iter=4)
    assert rep.status == "periodic"
    assert rep.period == 1 and rep.preperiod == 0
    assert rep.orbit == ((1, -1), (1, -1))
    assert rep.bound == Fraction(1) and rep.bound_ok
    assert all(st.semistability.status == "semistable" for st in rep.states)


def test_periodicity_uniformizing_p5():
    p = 5
    for lam in (2, 3, 4):
        div = four_points(p, lam)
        rep = detect_periodicity(uniformizing(p, div), max_iter=6)
        assert rep.status == "periodic"
        assert rep.bound_ok
        assert all(st.semistability.status == "semistable"
                   for st in rep.states)
        assert all(degree_and_slope(st.higgs.bundle)[0] == 0
                   for st in rep.states)


def test_splitting_bound_values():
    assert splitting_bound(2, four_points(3)) == Fraction(1)
    assert splitting_bound(3, LogDivisor(5, (0, 1, 2, 3, INF))) == Fraction(3)
    assert splitting_bound(1, four_points(3)) == 0


def test_flow_random_semistable_rank2():
    """Degree-0 semistable rank-2 starts stay semistable with bounded
    types along several steps, for both shapes of nilpotent field."""
    rng = random.Random(11)
    for p, lam_pool in ((3, (2,)), (5, (2, 3, 4))):
        for _ in range(3):
            div = four_points(p, rng.choice(lam_pool))
            if rng.randrange(2):
                e0 = uniformizing(p, div, rng.randrange(1, p))
            else:
                num = Poly(p, tuple(rng.randrange(p) for _ in range(3)))
                if num.is_zero():
                    num = Poly.one(p)
                e0 = higgs_bundle(P1Bundle.of_type(p, (0, 0)), div,
                                  [[0, rfun(p, div, num)], [0, 0]])
            st = flow_start(e0)
            assert st.semistability.status == "semistable"
            bound = splitting_bound(2, div)
            for _ in range(3):
                st = flow_step(st)
                assert st.higgs.rank == 2
                assert degree_and_slope(st.higgs.bundle)[0] == 0
                assert st.semistability.status == "semistable"
                assert all(abs(a) <= bound for a in st.higgs_type)


# Five flows at p = 3, 5, 7 in ranks 2 and 3: per state, the splitting type
# of the flat side and the (rank, degree) of every Simpson step (None at the
# start, which has no Simpson report).  The last flow takes three steps, and
# its first transform moves the type.
FROZEN_FLOW_STATES = [
    (3, (0, 1, 2, INF), (1, -1),
     [["0", "0"], ["(1)/(x^3 + 2*x)", "0"]],
     [((1, -1), None), ((1, -1), ((1, 1),))]),
    (5, (0, 1, 2, INF), (1, -1),
     [["0", "0"], ["(1)/(x^3 + 2*x^2 + 2*x)", "0"]],
     [((0, 0), None), ((0, 0), ()), ((0, 0), ())]),
    (5, (0, 1, 2, 4), (1, 0, -1),
     [["0", "0", "0"],
      ["(2*x + 3)/(x^4 + 3*x^3 + 4*x^2 + 2*x)", "0", "0"],
      ["0", "(3*x + 2)/(x^4 + 3*x^3 + 4*x^2 + 2*x)", "0"]],
     [((1, 0, -1), None), ((1, 0, -1), ((2, 1), (1, 1)))]),
    (7, (2, 4, 5, 6), (1, 0, -1),
     [["0", "0", "0"],
      ["(3*x + 6)/(x^4 + 4*x^3 + 6*x^2 + 5*x + 2)", "0", "0"],
      ["0", "(5*x + 4)/(x^4 + 4*x^3 + 6*x^2 + 5*x + 2)", "0"]],
     [((1, 0, -1), None), ((1, 0, -1), ((2, 1), (1, 1)))]),
    (3, (0, 1, 2, INF), (1, 0, -1),
     [["0", "0", "0"], ["(1)/(x^3 + 2*x)", "0", "0"],
      ["(2)/(x^3 + 2*x)", "(x + 2)/(x^3 + 2*x)", "0"]],
     [((1, 0, -1), None), ((0, 0, 0), ((2, 1), (1, 1))),
      ((0, 0, 0), ()), ((0, 0, 0), ())]),
]


def frozen_flow_start(p, points, types, theta):
    th = [[parse_ratfun(e, p) for e in row] for row in theta]
    return higgs_bundle(P1Bundle.of_type(p, types), LogDivisor(p, points), th)


@pytest.mark.parametrize("p, points, types, theta, want", FROZEN_FLOW_STATES)
def test_flow_states_are_frozen(p, points, types, theta, want):
    rep = detect_periodicity(frozen_flow_start(p, points, types, theta))
    got = [(st.conn_type,
            None if st.simpson is None
            else tuple((s.rank, s.degree) for s in st.simpson.steps))
           for st in rep.states]
    assert got == want


def test_flow_work_is_frozen(monkeypatch):
    """A flow of k steps builds k transforms (the last state's is never
    read), takes one verdict per state, reads Simpson-step and candidate
    degrees without adapted frames, and checks each lift once, where it is
    built."""
    *start, want = FROZEN_FLOW_STATES[-1]
    k = len(want) - 1
    calls = {"inverse_cartier": 0, "verdict": 0, "heuristic": 0}
    adapted_by = []
    checked = []
    zeta_lifts = []
    transform = flow.inverse_cartier
    verdict = flow._graded_semistability
    heuristic = loghiggs.invariant_flag_heuristic
    adapt = loghiggs.sub_adapted
    check = cartier.FrobeniusLift.__post_init__
    zeta = cartier.zeta

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_adapt(*args):
        adapted_by.append(sys._getframe(1).f_code.co_name)
        return adapt(*args)

    def counted_check(lift):
        checked.append(lift)
        check(lift)

    def counted_zeta(lift):
        zeta_lifts.append(lift)
        return zeta(lift)

    monkeypatch.setattr(flow, "inverse_cartier",
                        counted("inverse_cartier", transform))
    # the start verdict is taken in the flow, every stepped one where the
    # grading is built
    for module in (flow, loghiggs):
        monkeypatch.setattr(module, "_graded_semistability",
                            counted("verdict", verdict))
    monkeypatch.setattr(loghiggs, "invariant_flag_heuristic",
                        counted("heuristic", heuristic))
    monkeypatch.setattr(loghiggs, "sub_adapted", counted_adapt)
    monkeypatch.setattr(cartier.FrobeniusLift, "__post_init__",
                        counted_check)
    monkeypatch.setattr(cartier, "zeta", counted_zeta)
    rep = detect_periodicity(frozen_flow_start(*start))
    assert len(rep.states) == k + 1 and k >= 2
    assert calls["inverse_cartier"] == k
    assert calls["verdict"] == k + 1
    assert calls["heuristic"] == k + 1
    assert "invariant_flag_heuristic" not in adapted_by
    assert sorted(lift.chart for lift in checked) == [0, 1]
    assert len(zeta_lifts) == 2 * k
    assert all(any(lift is c for c in checked) for lift in zeta_lifts)
