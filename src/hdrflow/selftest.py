"""Seeded cross-module invariant suite behind the `selftest` command.

One shared generator drives every check, so a fixed seed reproduces the
whole run byte for byte.  Each check recomputes a contract through an
independent route (closed forms, certificates, frame-change invariance)
rather than trusting the construction that produced the data.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cartier import (GoodLiftingMap, check_functoriality, inverse_cartier,
                      p_curvature)
from .chern import (ChernData, GradedRing, check_equivalence,
                    higher_discriminants, twist)
from .exact import matrix
from .exact.bipoly import BiPoly
from .exact.laurent import Laurent
from .exact.poly import Poly, RatFun
from .flow import detect_periodicity
from .loghiggs import (INF, LogDivisor, higgs_bundle, nilpotency_level,
                       residue, residue_trace_sum)
from .monodromy import (NilpotentOperator, monodromy_filtration,
                        verify_filtration_axioms)
from .nearby import local_higgs_module, z_model_compatibility
from .p1 import P1Bundle, birkhoff_split, degree_and_slope


@dataclass(frozen=True)
class SelfCheck:
    name: str
    ok: bool
    detail: str


def _fail(name: str, detail: str) -> SelfCheck:
    return SelfCheck(name, False, detail)


def _check_discriminants(rng: random.Random) -> SelfCheck:
    ring = GradedRing([("h", 1)], 3)
    h = ring.gen("h")
    for _ in range(8):
        r = rng.randrange(2, 5)
        # c_i = 0 above the rank, as for any actual bundle
        cs = tuple(ring.const(Fraction(rng.randrange(-6, 7))) * h ** i
                   if i <= r else ring.zero() for i in (1, 2, 3))
        d = ChernData(r, cs, ring)
        if not check_equivalence(d).consistent:
            return _fail("discriminants", f"equivalence split at rank {r}")
        deltas = higher_discriminants(d)
        want = ring.const(2 * r) * d.c(2) - ring.const(r - 1) * d.c(1) ** 2
        if deltas[1] != want:
            return _fail("discriminants", "Delta_2 misses the closed form")
        for _ in range(3):
            tw = higher_discriminants(
                twist(d, ring.const(rng.randrange(-4, 5)) * h))
            if tw[1:] != deltas[1:]:
                return _fail("discriminants", "Delta_i moved under a twist")
    return SelfCheck("discriminants", True, "8 data, closed form + 3 twists")


def _check_monodromy(rng: random.Random) -> SelfCheck:
    for trial in range(10):
        n = rng.randrange(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rng.randrange(3)
        op = NilpotentOperator.from_ints(3, rows)
        rep = verify_filtration_axioms(op, monodromy_filtration(op))
        if not rep.all_pass:
            return _fail("monodromy", f"field case: {rep.witness}")
    n = 3
    rows = [[Poly.zero(3)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Poly(3, (rng.randrange(3), rng.randrange(3)))
    op = NilpotentOperator.from_polys(3, rows)
    rep = verify_filtration_axioms(op, monodromy_filtration(op))
    if not rep.all_pass:
        return _fail("monodromy", f"module case: {rep.witness}")
    return SelfCheck("monodromy", True, "10 field operators + 1 over F_3[y]")


def _check_split(rng: random.Random) -> SelfCheck:
    for p in (3, 5):
        for _ in range(4):
            r = rng.randrange(2, 4)
            a = sorted((rng.randrange(-2, 3) for _ in range(r)), reverse=True)
            T = [[Laurent.monomial(p, -a[i]) if i == j else Laurent.zero(p)
                  for j in range(r)] for i in range(r)]
            for _ in range(4):  # chart-0 column ops keep the type
                i, j = rng.sample(range(r), 2)
                m = Laurent.monomial(p, rng.randrange(0, 3),
                                     rng.randrange(1, p))
                for row in range(r):
                    T[row][j] = T[row][j] + T[row][i] * m
            for _ in range(4):  # chart-1 row ops keep the type
                i, j = rng.sample(range(r), 2)
                m = Laurent.monomial(p, -rng.randrange(0, 3),
                                     rng.randrange(1, p))
                for col in range(r):
                    T[i][col] = T[i][col] + T[j][col] * m
            b = P1Bundle.from_rows(p, T)
            t, _, _ = birkhoff_split(b)
            if list(t.entries) != a:
                return _fail("split", f"type {t.entries} != {tuple(a)}")
            if degree_and_slope(b)[0] != sum(a):
                return _fail("split", "degree disagrees with the type sum")
    return SelfCheck("split", True, "8 frames, type invariance + certificate")


def _random_rank2_higgs(rng: random.Random, p: int):
    lam = rng.randrange(2, p) if p > 3 else 2
    div = LogDivisor(p, (0, 1, lam, INF))
    bnd = div.boundary_poly()
    # a map O(1) -> O(-1) with log poles on four points allows only
    # constant numerators over the boundary polynomial
    num = Poly.const(p, rng.randrange(1, p))
    return higgs_bundle(P1Bundle.of_type(p, (1, -1)), div,
                        [[0, 0], [RatFun(num, bnd), 0]])


def _check_cartier(rng: random.Random) -> SelfCheck:
    for p in (3, 5):
        for _ in range(3):
            hb = _random_rank2_higgs(rng, p)
            con = inverse_cartier(hb)
            ed = degree_and_slope(hb.bundle)[0]
            if degree_and_slope(con.bundle)[0] != p * ed:
                return _fail("cartier", "degree scaling failed")
            for pt in hb.divisor.points:
                if residue(con, pt) != residue(hb, pt):
                    return _fail("cartier", f"residue moved at {pt!r}")
            if not residue_trace_sum(con).ok:
                return _fail("cartier", "trace sum off")
            psi = p_curvature(con)
            mlog = [[-(RatFun.x(p) * e).dilate(p) for e in row]
                    for row in hb.theta0]
            if not matrix.eq(psi, mlog):
                return _fail("cartier", "p-curvature is not the pullback")
            lv = nilpotency_level(psi)
            if lv is None or lv > p - 1:
                return _fail("cartier", "p-curvature level out of range")
    return SelfCheck("cartier", True, "6 transforms, p in {3, 5}")


def _check_functoriality(rng: random.Random) -> SelfCheck:
    p = 5
    div = LogDivisor(p, (0, INF))
    for m in (2, 3):
        c = rng.randrange(1, p)
        hb = higgs_bundle(P1Bundle.of_type(p, (0, 0)), div,
                          [[0, RatFun(Poly.const(p, c), Poly.x(p))], [0, 0]])
        f = GoodLiftingMap(p, m, rng.randrange(1, p))
        rep = check_functoriality(f, hb)
        if not rep.equal:
            return _fail("functoriality", f"x -> x^{m}: {rep.detail}")
    return SelfCheck("functoriality", True, "x -> lam x^m for m in {2, 3}")


def _jordan_poly(rng: random.Random, p: int, r: int):
    """Random polynomial in the size-r Jordan block with BiPoly
    coefficients; any two of these commute."""
    rows = [[BiPoly.zero(p)] * r for _ in range(r)]
    for k in range(1, r):
        c = BiPoly.from_terms(p, {(i, j): rng.randrange(p)
                                  for i in range(2) for j in range(2)})
        for i in range(r - k):
            rows[i][i + k] = rows[i][i + k] + c
    return rows


def _check_nearby(rng: random.Random) -> SelfCheck:
    p = 5
    for trial in range(4):
        r = rng.randrange(2, 4)
        m = local_higgs_module(p, _jordan_poly(rng, p, r),
                               _jordan_poly(rng, p, r),
                               y_log=bool(trial % 2))
        rep = z_model_compatibility(m)
        if not rep.ok:
            return _fail("nearby", f"trial {trial}: {rep.detail or 'residue square'}")
    return SelfCheck("nearby", True, "4 local modules at p = 5")


def _check_flow(rng: random.Random) -> SelfCheck:
    p = 3
    div = LogDivisor(p, (0, 1, 2, INF))
    bnd = div.boundary_poly()
    c = rng.randrange(1, p)
    hb = higgs_bundle(P1Bundle.of_type(p, (1, -1)), div,
                      [[0, 0], [RatFun(Poly.const(p, c), bnd), 0]])
    rep = detect_periodicity(hb, max_iter=4)
    if rep.status != "periodic" or rep.period != 1:
        return _fail("flow", f"uniformizing start: {rep.status} ({rep.reason})")
    if not rep.bound_ok:
        return _fail("flow", "splitting type left the bound")
    if any(st.semistability.status != "semistable" for st in rep.states):
        return _fail("flow", "a flow state lost semistability")
    triv = higgs_bundle(P1Bundle.of_type(p, (0, 0)), div, [[0, 0], [0, 0]])
    rep2 = detect_periodicity(triv, max_iter=2)
    if rep2.status != "periodic" or rep2.period != 1 or rep2.preperiod != 0:
        return _fail("flow", "trivial bundle is not a fixed point")
    return SelfCheck("flow", True, "uniformizing orbit + trivial fixed point")


_CHECKS = (
    _check_discriminants,
    _check_monodromy,
    _check_split,
    _check_cartier,
    _check_functoriality,
    _check_nearby,
    _check_flow,
)


def run_selftest(seed: int) -> list[SelfCheck]:
    rng = random.Random(seed)
    out = []
    for fn in _CHECKS:
        name = fn.__name__.removeprefix("_check_")
        try:
            out.append(fn(rng))
        except Exception as e:  # a crash is a failed check, not a lost report
            out.append(SelfCheck(name, False, f"error: {e}"))
    return out
