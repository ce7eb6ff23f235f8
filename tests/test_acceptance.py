"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a single pass/fail line with
its runtime against a fixed budget.  Corpora are seeded and shared: the
semipositivity criterion re-checks the certified degree-0 members produced
by the Cartier and flow criteria instead of inventing its own inputs.
"""
import random
import time

from hdrflow.cartier import (GoodLiftingMap, canonical_lift,
                             check_functoriality, frobenius_lift,
                             glue_change_of_lift, inverse_cartier,
                             p_curvature)
from hdrflow.chern import (ChernData, GradedRing, check_equivalence,
                           direct_sum_discriminant_residual,
                           higher_discriminants, twist)
from hdrflow.cli import main as cli_main
from hdrflow.exact import matrix
from hdrflow.exact.poly import Poly, RatFun
from hdrflow.exact.polymat import is_unimodular
from hdrflow.flow import (detect_periodicity, flow_start, flow_step,
                          splitting_bound)
from hdrflow.loghiggs import (INF, LogDivisor, higgs_bundle,
                              is_semistable_rank2,
                              kernel_semipositivity_check, nilpotency_level,
                              residue)
from hdrflow.monodromy import (graded_of_kernel, jordan_matrix,
                               monodromy_filtration, primitive_decomposition,
                               primitive_parts, same_filtration,
                               verify_filtration_axioms)
from hdrflow.nearby import (local_higgs_module, phi_restrict, upsilon0,
                            z_model_compatibility)
from hdrflow.p1 import P1Bundle, birkhoff_split, degree_and_slope

import conftest
from jordan_oracle import (axiom_passing_filtrations,
                           jordan_expected_filtration, partitions)
from test_cartier import conjugate_frame
from test_chern import split_data
from test_flow import four_points, rfun, trivial_higgs, uniformizing
from test_loghiggs import random_divisor, random_split_higgs
from test_nearby import jordan_poly, rand_bp
from test_p1 import planted, random_frame

_CACHE = {}


def _report(num, label, t0, budget, failures):
    took = time.perf_counter() - t0
    ok = not failures and took < budget
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): "
            f"{took:.2f}s (budget {budget}s)")
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert not failures, failures[:5]
    assert took < budget, f"criterion {num} took {took:.2f}s"


# -- 1: discriminant calculus -----------------------------------------------------

def test_criterion_1_discriminants():
    t0 = time.perf_counter()
    failures = []
    # Delta_2 = 2 r c_2 - (r-1) c_1^2 in the free ring on c_1, c_2
    ring2 = GradedRing([("a", 1), ("b", 2)], 2)
    a, b = ring2.gen("a"), ring2.gen("b")
    for r in range(1, 7):
        want = ring2.const(2 * r) * b - ring2.const(r - 1) * a * a
        if higher_discriminants(ChernData(r, (a, b), ring2))[1] != want:
            failures.append(f"Delta_2 closed form fails at rank {r}")
    rng = random.Random(0xACC1)
    for k in range(100):
        n = rng.randint(2, 6)
        r = rng.randint(1, 6)
        weights = [rng.randint(-5, 5) for _ in range(r)]
        ring = GradedRing([("h", 1)], n)
        h = ring.gen("h")
        d = split_data(weights, ring)
        if not check_equivalence(d).consistent:
            failures.append(f"datum {k}: equivalence conditions disagree")
        base = higher_discriminants(d)
        for _ in range(20):
            t = twist(d, ring.const(rng.randint(-4, 4)) * h)
            dt = higher_discriminants(t)
            if any(base[i] != dt[i] for i in range(1, n)):
                failures.append(f"datum {k}: Delta_i moved under a twist")
                break
        parts = ([split_data(weights[:1], ring), split_data(weights[1:], ring)]
                 if r >= 2 else [d])
        if not direct_sum_discriminant_residual(parts).is_zero():
            failures.append(f"datum {k}: direct-sum residual is nonzero")
    _report(1, "higher discriminants", t0, 10, failures)


# -- 2: weight monodromy filtrations ----------------------------------------------

def test_criterion_2_monodromy():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 5):
        for sizes in partitions(n):
            op = jordan_matrix(3, list(sizes))
            filt = monodromy_filtration(op)
            if not same_filtration(filt, jordan_expected_filtration(3, sizes)):
                failures.append(f"{sizes}: differs from the closed form")
            if not verify_filtration_axioms(op, filt).all_pass:
                failures.append(f"{sizes}: axiom failure")
            prims = primitive_parts(op, filt)
            if not primitive_decomposition(op, filt, prims).ok:
                failures.append(f"{sizes}: primitive decomposition ranks")
            if not graded_of_kernel(op, filt, prims).matches:
                failures.append(f"{sizes}: graded kernel ranks")
    # uniqueness by exhaustion over every filtration of F_3^n, n <= 3
    for n in range(1, 4):
        for sizes in partitions(n):
            op = jordan_matrix(3, list(sizes))
            hits = axiom_passing_filtrations(op)
            if len(hits) != 1:
                failures.append(f"{sizes}: {len(hits)} axiom-passing "
                                f"filtrations")
            elif not same_filtration(hits[0], monodromy_filtration(op)):
                failures.append(f"{sizes}: exhaustive winner differs")
    _report(2, "monodromy filtrations", t0, 30, failures)


# -- 3: birkhoff splitting ---------------------------------------------------------

def test_criterion_3_birkhoff():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0xACC3)
    for k in range(200):
        p = (3, 5)[k % 2]
        r = rng.randint(1, 3)
        types, bundle = planted(rng, p, r)
        t, U, V = birkhoff_split(bundle)
        if tuple(t) != tuple(types):
            failures.append(f"datum {k}: type {tuple(t)} != planted {types}")
            continue
        if degree_and_slope(bundle)[0] != sum(types):
            failures.append(f"datum {k}: degree != sum of the type")
        diag = [list(row) for row in P1Bundle.of_type(p, types).matrix()]
        utv = matrix.mul(U, matrix.mul(bundle.matrix(), V))
        if utv != diag:
            failures.append(f"datum {k}: U T V is not the diagonal")
        again = matrix.mul(random_frame(rng, p, r, 1),
                           matrix.mul(bundle.matrix(),
                                      random_frame(rng, p, r, 0)))
        t2, _, _ = birkhoff_split(P1Bundle.from_rows(p, again))
        if tuple(t2) != tuple(types):
            failures.append(f"datum {k}: type moved under a frame change")
    _report(3, "birkhoff splitting", t0, 60, failures)


# -- 4: inverse cartier transform --------------------------------------------------

def suite4_corpus():
    if "cartier" not in _CACHE:
        rng = random.Random(0xACC4)
        out = []
        for k in range(50):
            p = (3, 5, 7)[k % 3]
            div = random_divisor(rng, p)
            r = rng.choice((2, 3))
            types = tuple(sorted((rng.randrange(-1, 2) for _ in range(r)),
                                 reverse=True))
            out.append(random_split_higgs(rng, p, types, div, nilpotent=True))
        _CACHE["cartier"] = out
    return _CACHE["cartier"]


def test_criterion_4_cartier():
    t0 = time.perf_counter()
    failures = []
    for k, hb in enumerate(suite4_corpus()):
        p = hb.p
        con = inverse_cartier(hb)
        if degree_and_slope(con.bundle)[0] != p * degree_and_slope(hb.bundle)[0]:
            failures.append(f"datum {k}: deg V != p deg E")
        for pt in hb.divisor.points:
            if residue(con, pt) != residue(hb, pt):
                failures.append(f"datum {k}: residue moved at {pt}")
        psi = p_curvature(con)
        mlog = [[-(RatFun.x(p) * e).dilate(p) for e in row]
                for row in hb.theta0]
        if not matrix.eq(psi, mlog):
            failures.append(f"datum {k}: p-curvature != frobenius pullback")
        lv = nilpotency_level(psi)
        if lv is None or lv > p - 1:
            failures.append(f"datum {k}: p-curvature level {lv}")
    rng = random.Random(0xACC4B)
    for k in range(20):
        p = (3, 5, 7)[k % 3]
        div = random_divisor(rng, p)
        r = rng.choice((2, 3))
        hb = random_split_higgs(rng, p, (0,) * r, div, nilpotent=True)
        l1 = canonical_lift(div, 0)
        bump = div.boundary_poly() ** p * Poly(
            p, tuple(rng.randrange(p) for _ in range(3)))
        l2 = frobenius_lift(div, 0, l1.a + bump)
        _, g = glue_change_of_lift(l1, l2, hb)
        s1 = canonical_lift(div, 1)
        ca = inverse_cartier(hb, l1, s1)
        cb = inverse_cartier(hb, l2, s1)
        if conjugate_frame(g, ca.a0) != [list(row) for row in cb.a0]:
            failures.append(f"lift pair {k}: conjugation is not exact")
    _report(4, "inverse cartier transform", t0, 120, failures)


# -- 5: functoriality under monomial maps ------------------------------------------

def test_criterion_5_functoriality():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0xACC5)
    # p never divides m except in the last draw, where the pullback kills
    # df and both sides degenerate to the canonical connection: that case
    # is kept, but only once
    pairs = [(2, 3), (2, 5), (2, 7), (3, 5), (3, 7)] * 4
    pairs[-1] = (3, 3)
    for k, (m, p) in enumerate(pairs):
        div = LogDivisor(p, (0, INF))
        r = rng.choice((2, 3))
        types = tuple(sorted((rng.randrange(-1, 2) for _ in range(r)),
                             reverse=True))
        hb = random_split_higgs(rng, p, types, div, nilpotent=True)
        f = GoodLiftingMap(p, m, rng.randrange(1, p))
        rep = check_functoriality(f, hb)
        if not rep.equal:
            failures.append(f"datum {k} (m = {m}, p = {p}): {rep.detail}")
    _report(5, "pullback functoriality", t0, 30, failures)


# -- 6: nearby-cycles local model --------------------------------------------------

def test_criterion_6_nearby():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(0xACC6)
    p = 5
    for k in range(20):
        r = rng.choice((2, 3))
        tx = jordan_poly(rng, p, r, rand_bp)
        ty = jordan_poly(rng, p, r, rand_bp)
        m = local_higgs_module(p, tx, ty, y_log=bool(k % 2))
        rep = z_model_compatibility(m)
        if not rep.equal:
            failures.append(f"datum {k}: {rep.detail}")
        if not rep.residue_square_ok:
            failures.append(f"datum {k}: residue square fails")
        up = upsilon0(phi_restrict(m))
        ranks = {q.weight: q.rank for q in up.pieces}
        if sum(ranks.values()) != r:
            failures.append(f"datum {k}: graded ranks do not add up")
        if any(ranks.get(-w) != c for w, c in ranks.items()):
            failures.append(f"datum {k}: graded ranks are not symmetric")
        if any(not e.is_zero() for q in up.pieces
               for row in q.module.r_op for e in row):
            failures.append(f"datum {k}: graded piece has nonzero residue")
        if not is_unimodular([[up.frame[j][i] for j in range(r)]
                              for i in range(r)]):
            failures.append(f"datum {k}: graded frame is not unimodular")
    _report(6, "nearby-cycles model", t0, 60, failures)


# -- 7: higgs-de rham flow ---------------------------------------------------------

def _upper_start(p, lam, coeffs):
    div = four_points(p, lam)
    return higgs_bundle(P1Bundle.of_type(p, (0, 0)), div,
                        [[0, rfun(p, div, Poly(p, coeffs))], [0, 0]])


def suite7_corpus():
    if "flow" not in _CACHE:
        starts = [uniformizing(3, four_points(3)),
                  _upper_start(3, 2, (1, 0, 1)),
                  uniformizing(5, four_points(5, 2)),
                  uniformizing(5, four_points(5, 3), c=2),
                  _upper_start(5, 4, (1, 1, 2))]
        runs = []
        for e0 in starts:
            st = flow_start(e0)
            states = [st]
            for _ in range(10):
                st = flow_step(st)
                states.append(st)
            runs.append(states)
        _CACHE["flow"] = runs
    return _CACHE["flow"]


def test_criterion_7_flow():
    t0 = time.perf_counter()
    failures = []
    for i, states in enumerate(suite7_corpus()):
        div = states[0].higgs.divisor
        bound = splitting_bound(2, div)
        for st in states:
            where = f"run {i} step {st.index}"
            if st.higgs.rank != 2:
                failures.append(f"{where}: rank moved")
            if degree_and_slope(st.higgs.bundle)[0] != 0:
                failures.append(f"{where}: degree left 0")
            v = st.semistability
            if not (v.decided and v.status == "semistable"):
                failures.append(f"{where}: not certified semistable")
            if any(abs(a) > bound for a in st.higgs_type):
                failures.append(f"{where}: type {st.higgs_type} over bound")
    for p in (3, 5):
        for r in (2, 3):
            rep = detect_periodicity(trivial_higgs(p, four_points(p), r),
                                     max_iter=3)
            if rep.status != "periodic" or rep.period != 1:
                failures.append(f"trivial rank {r} at p = {p}: no period 1")
    _report(7, "higgs-de rham flow", t0, 300, failures)


# -- 8: kernel semipositivity ------------------------------------------------------

def test_criterion_8_semipositivity():
    t0 = time.perf_counter()
    failures = []
    members = []
    for k, hb in enumerate(suite4_corpus()):
        if hb.rank != 2 or degree_and_slope(hb.bundle)[0] != 0:
            continue
        if is_semistable_rank2(hb).status != "semistable":
            continue
        members.append((f"cartier datum {k}", hb))
    for i, states in enumerate(suite7_corpus()):
        for st in states:
            members.append((f"flow run {i} step {st.index}", st.higgs))
    if len(members) < 55:
        failures.append(f"certified corpus has only {len(members)} members")
    for label, hb in members:
        rep = kernel_semipositivity_check(hb)
        if rep.semistable != "certified" or not rep.passed:
            failures.append(f"{label}: kernel type {rep.kernel_type}")
    _report(8, "kernel semipositivity", t0, 300, failures)


# -- 9: determinism ----------------------------------------------------------------

def test_criterion_9_determinism(capsys):
    t0 = time.perf_counter()
    failures = []
    outs = []
    for fmt in ("--text", "--json"):
        for _ in range(2):
            code = cli_main(["selftest", "--seed", "42", fmt])
            outs.append(capsys.readouterr().out)
            if code != 0:
                failures.append(f"selftest exit {code} under {fmt}")
        if outs[-1] != outs[-2]:
            failures.append(f"reports differ between runs under {fmt}")
    _report(9, "selftest determinism", t0, 30, failures)
