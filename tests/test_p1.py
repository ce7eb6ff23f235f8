import json
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest

from hdrflow import cli, p1
from hdrflow.exact import matrix, polymat
from hdrflow.exact.laurent import Laurent
from hdrflow.exact.poly import Poly
from hdrflow.p1 import (P1Bundle, SplittingType, birkhoff_split, cech_h0,
                        degree_and_slope, frobenius_pullback, global_sections,
                        hn_filtration_plain, line_subbundle_degree,
                        max_subsheaf_degree, split_memo, sub_adapted,
                        subbundle_degree)


def random_frame(rng, p, r, side, maxdeg=2):
    """Random unimodular matrix over F_p[x] (side 0) or F_p[1/x] (side 1)."""
    M = matrix.identity(Laurent, p, r)
    for _ in range(2 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        d = {}
        for e in range(rng.randint(0, maxdeg) + 1):
            c = rng.randrange(p)
            if c:
                d[e if side == 0 else -e] = c
        f = Laurent(p, d)
        for col in range(r):
            M[i][col] = M[i][col] + f * M[j][col]
    return M


def planted(rng, p, r, lo=-3, hi=3):
    """A bundle of known splitting type, hidden by random frame changes."""
    types = sorted((rng.randint(lo, hi) for _ in range(r)), reverse=True)
    D = P1Bundle.of_type(p, types).matrix()
    T = matrix.mul(random_frame(rng, p, r, 1),
                   matrix.mul(D, random_frame(rng, p, r, 0)))
    return types, P1Bundle(p, tuple(tuple(row) for row in T))


def test_trivial_and_diagonal():
    t, _, _ = birkhoff_split(P1Bundle.of_type(5, [0, 0, 0]))
    assert tuple(t) == (0, 0, 0)
    t, _, _ = birkhoff_split(P1Bundle.of_type(5, [-1, 2, 0]))
    assert tuple(t) == (2, 0, -1)


def test_nonsplit_extension_frozen():
    # [[x, 1], [0, 1/x]] carries the nonzero class of H^1(O(-2)), so the
    # middle is forced to be O + O rather than O(1) + O(-1)
    x = Laurent.monomial(5, 1)
    b = P1Bundle.from_rows(5, [[x, 1], [0, x.reciprocal()]])
    t, U, V = birkhoff_split(b)
    assert tuple(t) == (0, 0)
    assert degree_and_slope(b) == (0, Fraction(0))


def test_invertibility_fault_names_det():
    b = P1Bundle.from_rows(5, [[Poly(5, (1, 1))]])
    try:
        birkhoff_split(b)
    except ValueError as err:
        assert "x + 1" in str(err)
    else:
        raise AssertionError("non-invertible transition accepted")


def test_degree_and_slope_examples():
    assert degree_and_slope(P1Bundle.of_type(3, [1, -1])) == (0, Fraction(0))
    assert degree_and_slope(P1Bundle.of_type(3, [2, 2, 2])) == (6, Fraction(2))


def test_global_sections_examples():
    assert len(global_sections(P1Bundle.of_type(5, [2, -1]), 0)) == 3
    assert global_sections(P1Bundle.of_type(5, [2, -1]), -4) == []
    secs = global_sections(P1Bundle.of_type(5, [0, 0]), 1)
    assert len(secs) == 4
    want = [(Poly.one(5), Poly.zero(5)), (Poly.x(5), Poly.zero(5)),
            (Poly.zero(5), Poly.one(5)), (Poly.zero(5), Poly.x(5))]
    assert secs == want


def test_sections_dimension_formula():
    rng = random.Random(0x5EC7)
    for _ in range(15):
        p = rng.choice([3, 5])
        r = rng.randint(1, 3)
        types, b = planted(rng, p, r)
        for d in range(-2, 3):
            expect = sum(max(0, a + d + 1) for a in types)
            assert cech_h0(b, d) == expect
            assert len(global_sections(b, d)) == expect


def test_frobenius_pullback():
    assert tuple(birkhoff_split(frobenius_pullback(
        P1Bundle.of_type(5, [3])))[0]) == (15,)
    assert tuple(birkhoff_split(frobenius_pullback(
        P1Bundle.of_type(5, [0, 0])))[0]) == (0, 0)
    t, _, _ = birkhoff_split(frobenius_pullback(P1Bundle.of_type(5, [1, -1])))
    assert tuple(t) == (5, -5)
    rng = random.Random(0xF0B)
    for _ in range(10):
        p = rng.choice([3, 5])
        types, b = planted(rng, p, rng.randint(1, 3), -2, 2)
        tF, _, _ = birkhoff_split(frobenius_pullback(b))
        assert tuple(tF) == tuple(a * p for a in types)


@pytest.mark.parametrize("p", (3, 5, 97))
def test_twist_and_frobenius_shift_the_type(p):
    """E(d) has type a_i + d, degree + r d and slope + d; F*(sum O(a_i))
    has type p a_i, which `SplittingType.scaled(p)` predicts."""
    rng = random.Random(f"twist:{p}")
    for r in (1, 2, 3):
        types, b = planted(rng, p, r)
        t = birkhoff_split(b)[0]
        deg, slope = degree_and_slope(b)
        assert (t.degree, t.slope) == (deg, slope) == (sum(types),
                                                       Fraction(sum(types), r))
        for d in (-2, 1, 3):
            td = birkhoff_split(b.twist(d))[0]
            assert tuple(td) == tuple(a + d for a in types)
            assert degree_and_slope(b.twist(d)) == (deg + r * d, slope + d)
            assert (td.degree, td.slope) == (deg + r * d, slope + d)
        # the twist scan walks the p-fold spread of F*: keep the spread <= 1
        c = rng.randint(-2, 2)
        small = SplittingType((c + 1,) + (c,) * (r - 1))
        pulled = frobenius_pullback(P1Bundle.of_type(p, small.entries))
        assert birkhoff_split(pulled)[0] == small.scaled(p)


def test_hn_filtration_plain():
    hn = hn_filtration_plain(P1Bundle.of_type(5, [1, 1, 1]))
    assert len(hn.steps) == 1 and hn.steps[0].rank == 3
    hn = hn_filtration_plain(P1Bundle.of_type(5, [1, -1]))
    assert [(s.rank, s.degree) for s in hn.steps] == [(1, 1), (2, 0)]
    rng = random.Random(0x44E)
    for _ in range(10):
        types, b = planted(rng, 3, 3)
        hn = hn_filtration_plain(b)
        slopes = [s.slope for s in hn.steps]
        quot_slopes = []
        prev_r, prev_d = 0, 0
        for s in hn.steps:
            quot_slopes.append(Fraction(s.degree - prev_d, s.rank - prev_r))
            prev_r, prev_d = s.rank, s.degree
        assert quot_slopes == sorted(quot_slopes, reverse=True)
        assert len(set(quot_slopes)) == len(quot_slopes)
        assert hn.steps[-1].rank == 3


def test_max_subsheaf_degree_examples():
    assert max_subsheaf_degree(P1Bundle.of_type(5, [0, 0, 0]), 1) == 0
    assert max_subsheaf_degree(P1Bundle.of_type(5, [2, 0, -1]), 2) == 2
    assert max_subsheaf_degree(P1Bundle.of_type(5, [1, 1, -3]), 3) == -1


def test_split_invariance_under_frames():
    rng = random.Random(0xB14C)
    for _ in range(40):
        p = rng.choice([3, 5])
        r = rng.randint(1, 3)
        types, b = planted(rng, p, r)
        # birkhoff_split certifies U T V = diag internally
        t, U, V = birkhoff_split(b)
        assert tuple(t) == tuple(types)
        assert degree_and_slope(b)[0] == sum(types)


def test_type_recovery_from_section_counts():
    # h0(E(m)) - h0(E(m-1)) counts the a_i >= -m: reconstruct the full
    # multiset from raw section counts, no splitting machinery involved
    rng = random.Random(0x715)
    for _ in range(8):
        p = rng.choice([3, 5])
        types, b = planted(rng, p, rng.randint(1, 3), -2, 2)
        amax, amin = types[0], types[-1]
        assert cech_h0(b, -amax - 1) == 0
        recovered = []
        prev = 0
        for m in range(-amax, -amin + 1):
            cur = cech_h0(b, m)
            fresh = (cur - prev) - len(recovered)
            recovered.extend([-m] * fresh)
            prev = cur
        assert sorted(recovered, reverse=True) == types


def test_line_subbundle_degree():
    b = P1Bundle.of_type(5, [2, -1])
    assert line_subbundle_degree(b, (Poly.one(5), Poly.zero(5))) == 2
    assert line_subbundle_degree(b, (Poly.zero(5), Poly.one(5))) == -1
    # (1, -x) inside the nonsplit extension saturates to O(0)
    x = Laurent.monomial(5, 1)
    ext = P1Bundle.from_rows(5, [[x, 1], [0, x.reciprocal()]])
    assert line_subbundle_degree(ext, (Poly.one(5), Poly(5, (0, 4)))) == 0


def test_sub_adapted_frames():
    rng = random.Random(0xADA)
    for _ in range(10):
        p = rng.choice([3, 5])
        types, b = planted(rng, p, rng.randint(2, 3))
        _, _, V = birkhoff_split(b)
        gen = tuple(V[i][0].to_poly_x() for i in range(b.rank))
        ad = sub_adapted(b, [gen])
        assert ad.sub_rank == 1
        # the sub-line transition is a unit times x^(-a_max)
        sub = ad.t_sub[0][0]
        assert sub.is_unit() and -sub.min_exp() == types[0]
        quot = P1Bundle.from_rows(p, ad.t_quot)
        tq, _, _ = birkhoff_split(quot)
        assert tuple(tq) == tuple(types[1:])
        dsub = matrix.det(ad.t_sub)
        dquot = matrix.det(ad.t_quot)
        assert -(dsub.min_exp() + dquot.min_exp()) == sum(types)


def random_saturated(rng, p, r, s):
    """A saturated chart-0 basis of rank s: the saturation of s random
    polynomial columns, drawn again until they are independent."""
    while True:
        gens = [[Poly(p, tuple(rng.randrange(p)
                               for _ in range(rng.randint(1, 3))))
                 for _ in range(r)] for _ in range(s)]
        cols = polymat.saturate(matrix.from_columns(gens))
        if len(cols) == s:
            return [tuple(c) for c in cols]


def test_subbundle_degree_equals_the_adapted_frame_degree():
    rng = random.Random(0xD37)
    seen = set()
    for p in (3, 5, 97):
        x = Poly.x(p)
        for r in (2, 3, 4, 4):
            _, b = planted(rng, p, r)
            for s in range(1, r):
                cols = random_saturated(rng, p, r, s)
                fr = sub_adapted(b, cols)
                want = degree_and_slope(P1Bundle.from_rows(p, fr.t_sub))[0]
                assert subbundle_degree(b, cols) == want
                seen.add(want)
                # x times a column leaves the span's saturation alone but
                # makes the basis unsaturated
                bad = [tuple(x * e for e in cols[0])] + cols[1:]
                with pytest.raises(ValueError, match="not primitive"):
                    subbundle_degree(b, bad)
    assert len(seen) > 3


# -- split memo -------------------------------------------------------------------

def count_splits(monkeypatch):
    """Route p1._split through a counter; returns the list of calls."""
    calls = []
    inner = p1._split

    def counted(p, T):
        calls.append(p)
        return inner(p, T)

    monkeypatch.setattr(p1, "_split", counted)
    return calls


def test_memo_splits_equal_bundles_once(monkeypatch):
    rng = random.Random(11)
    types, b = planted(rng, 5, 3)
    twin = P1Bundle(5, tuple(tuple(Laurent(5, dict(e.d)) for e in row)
                             for row in b.t))
    assert twin == b and twin is not b
    calls = count_splits(monkeypatch)
    with split_memo():
        first = birkhoff_split(b)
        n = len(calls)
        assert n > 0
        assert birkhoff_split(twin) == first
        assert len(calls) == n
    assert tuple(first[0]) == tuple(types)
    birkhoff_split(twin)  # outside a scope every call splits afresh
    assert len(calls) == 2 * n


def test_memo_hit_ignores_mutated_frames():
    rng = random.Random(12)
    _, b = planted(rng, 7, 2)
    with split_memo():
        t, U, V = birkhoff_split(b)
        want = (t, [list(r) for r in U], [list(r) for r in V])
        # U lives in F_p[1/x] and V in F_p[x]: these entries are new
        U[0][0], V[1][1] = Laurent.monomial(7, 5), Laurent.monomial(7, -5)
        V[0] = []
        _, U2, V2 = birkhoff_split(b)
        assert (t, U2, V2) == want
        U2[1][0], V2[0][1] = Laurent.monomial(7, 5), Laurent.monomial(7, -5)
        U2.append([])
        assert birkhoff_split(b) == want


def test_memo_scope_starts_empty_and_is_dropped(monkeypatch):
    b = P1Bundle.of_type(3, (2, -1))
    calls = count_splits(monkeypatch)
    with split_memo():
        birkhoff_split(b)
        n = len(calls)
        with split_memo():
            birkhoff_split(b)
            assert len(calls) == 2 * n
        birkhoff_split(b)
        assert len(calls) == 2 * n
    assert p1._MEMO.get() is None
    with split_memo():
        birkhoff_split(b)
    assert len(calls) == 3 * n


def test_memo_leaves_flow_report_unchanged(monkeypatch):
    doc = {"p": 5, "divisor": {"points": [0, 1, 2, "inf"]},
           "bundle": {"type": [1, -1]},
           "theta": [["0", "0"], ["(1)/(x^3 + 2*x^2 + 2*x)", "0"]]}
    cfg = cli.RunConfig("flow", json.dumps(doc), None, 200000, 10, 0, "json")
    calls = count_splits(monkeypatch)
    scoped = cli.render(cli.run(cfg)[0], "json")
    n = len(calls)
    monkeypatch.setattr(cli, "split_memo", nullcontext)
    fresh = cli.render(cli.run(cfg)[0], "json")
    assert fresh == scoped
    assert len(calls) - n > n  # the scope did save repeated splits


# -- twist probes -----------------------------------------------------------------

def test_cech_h0_at_both_signs_of_the_twist():
    rng = random.Random(0x7157)
    for p in (3, 5, 97):
        for r in (1, 2, 3):
            types, b = planted(rng, p, r)
            for d in range(-types[0] - 2, -types[-1] + 3):
                assert cech_h0(b, d) == sum(max(0, a + d + 1) for a in types)


class LoggedMatrix:
    """Stands in for p1's `matrix` module, logging its det and adjugate
    calls; calls inside the matrix module itself are not seen."""

    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        fn = getattr(matrix, name)
        if name not in ("det", "adjugate"):
            return fn

        def logged(M):
            self.log.append((name, M))
            return fn(M)

        return logged


def test_each_split_level_takes_one_det_and_one_adjugate(monkeypatch):
    log, levels = [], []
    monkeypatch.setattr(p1, "matrix", LoggedMatrix(log))
    inner = p1._split

    def level(p, T):
        levels.append(T)
        return inner(p, T)

    monkeypatch.setattr(p1, "_split", level)
    rng = random.Random(0xADE7)
    for p in (3, 5, 97):
        for r in (2, 3):
            types, b = planted(rng, p, r)
            log.clear()
            levels.clear()
            assert p1._split(p, b.matrix())[0] == types
            dets = [M for name, M in log if name == "det"]
            adjs = [M for name, M in log if name == "adjugate"]
            assert len(dets) == len(levels) == r
            assert all(M is T for M, T in zip(dets, levels))
            assert len(adjs) == r - 1  # the rank-1 level needs none
            assert all(M is T for M, T in zip(adjs, levels))


def test_twist_scan_stops_at_the_adjugate_bound(monkeypatch):
    e, p = 12, 5
    b = P1Bundle.from_rows(p, [[Laurent.monomial(p, e), 0],
                               [0, Laurent.monomial(p, -e)]])
    twists = []
    inner = p1._section_basis

    def probe(p, T, m, bounds=None):
        twists.append(m)
        return inner(p, T, m, bounds)

    monkeypatch.setattr(p1, "_section_basis", probe)
    t, _, _ = birkhoff_split(b)
    assert tuple(t) == (e, -e)
    # the slope twist, e steps up, and the empty probe just past the bound
    assert twists == [-a for a in range(e + 2)]
