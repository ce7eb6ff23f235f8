"""Higgs-de Rham flow for logarithmic Higgs bundles on the projective line.

One step sends a nilpotent Higgs bundle to the graded object of a Simpson
filtration on its Frobenius-divided flat bundle.  Degrees multiply by p at
every step and the rank never moves, so periodic orbits can only live in
degree zero; there periodicity is decided by an exact isomorphism search in
Birkhoff frames.

The Simpson filtration is computed by refining the plain Harder-Narasimhan
filtration until it satisfies Griffiths transversality: whenever the
connection pushes a step outside the next one, the next step is enlarged by
the connection image and re-saturated.  Each enlargement strictly increases
a step's rank, so the loop terminates well inside its guard; the output is
certified against the contract (transversality, saturated steps, graded
semistability for rank <= 2) rather than trusted from the construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .cartier import canonical_lift, inverse_cartier, transform_level
from .exact import matrix, polymat
from .exact.linalg import det as fp_det
from .exact.linalg import kernel_basis
from .exact.linalg import rank as fp_rank
from .exact.poly import RatFun
from .exact.rmat import rmat_from_lmat, rmat_inverse
from .loghiggs import (HodgeSystem, LogConnectionP1, LogHiggsBundleP1,
                       SemistabilityVerdict, _graded_semistability,
                       graded_of_flag, residue)
from .p1 import (birkhoff_split, degree_and_slope, hn_filtration_plain,
                 subbundle_degree)


# -- Simpson filtration ---------------------------------------------------------

@dataclass(frozen=True)
class SimpsonStep:
    rank: int
    degree: int
    basis: tuple  # saturated chart-0 basis columns


@dataclass(frozen=True)
class SimpsonReport:
    """Decreasing filtration S^1 > S^2 > ... (proper steps only; S^0 is the
    whole bundle) together with its graded Higgs object."""

    status: str              # "ok" | "unresolved"
    steps: tuple
    graded: HodgeSystem | None
    iterations: int
    certified: bool          # exact semistability decision available


def _cleared(bnd: RatFun, f: RatFun, what: str):
    """b*f for b the boundary polynomial, which a log pole leaves
    polynomial; anything else is a fault in the caller's construction."""
    g = bnd * f
    if not g.den.is_one():
        raise AssertionError(what)
    return g.num


def _nabla_image(con: LogConnectionP1, cols):
    """b*(s' + A0 s) for chart-0 polynomial columns s, b the boundary
    polynomial; the log condition makes every entry polynomial again."""
    bnd = RatFun(con.divisor.boundary_poly())
    a0 = [list(row) for row in con.a0]
    out = []
    for s in cols:
        w = matrix.vec(a0, [RatFun(e) for e in s])
        out.append([_cleared(bnd, RatFun(e.deriv()) + we,
                             "cleared connection image is not polynomial")
                    for e, we in zip(s, w)])
    return out


def simpson_filtration(con: LogConnectionP1, guard: int = 50) -> SimpsonReport:
    b = con.bundle
    p, r = b.p, b.rank
    if r > p:
        raise ValueError(f"rank {r} exceeds the prime {p}")
    hn = hn_filtration_plain(b)
    flag = [polymat.saturate(matrix.from_columns(step.basis))
            for step in hn.steps[:-1]]
    stable = False
    its = 0
    while its < guard:
        its += 1
        viol = None
        for j in range(len(flag) - 1):
            img = _nabla_image(con, flag[j])
            if not polymat.submodule_contains(flag[j + 1], img):
                viol = j
                break
        if viol is None:
            if flag:
                # the top step maps into the whole module exactly when the
                # cleared image is polynomial, which this call asserts
                _nabla_image(con, flag[-1])
            stable = True
            break
        # img is the scan's image of flag[viol]
        gens = [list(c) for c in flag[viol + 1]] + [list(v) for v in img]
        flag[viol + 1] = polymat.saturate(matrix.from_columns(gens))
        for k in range(viol + 2, len(flag)):
            if not polymat.submodule_contains(flag[k], flag[k - 1]):
                gens = [list(c) for c in flag[k]] + \
                       [list(c) for c in flag[k - 1]]
                flag[k] = polymat.saturate(matrix.from_columns(gens))
        flag = [F for i, F in enumerate(flag)
                if len(F) < r and (i + 1 == len(flag)
                                   or F != flag[i + 1])]
    steps = tuple(SimpsonStep(len(F), subbundle_degree(b, F),
                              tuple(tuple(c) for c in F))
                  for F in reversed(flag))
    if not stable:
        return SimpsonReport("unresolved", steps, None, its, False)
    hs = graded_of_flag(con, flag)
    return SimpsonReport("ok", steps, hs, its, r <= 2)


# -- flow states ----------------------------------------------------------------

@dataclass(frozen=True)
class FlowState:
    index: int
    higgs: LogHiggsBundleP1
    higgs_type: tuple
    level: int
    semistability: SemistabilityVerdict
    simpson: SimpsonReport | None
    lifts: tuple

    @property
    def p(self) -> int:
        return self.higgs.p

    @cached_property
    def connection(self) -> LogConnectionP1:
        """The inverse Cartier transform, built when first read: only a
        flow step reads it, so the last state of a flow never builds it."""
        return inverse_cartier(self.higgs, *self.lifts)

    @property
    def conn_type(self) -> tuple:
        return birkhoff_split(self.connection.bundle)[0].entries


def _resolve_lifts(divisor, lifts):
    if lifts is None:
        return (canonical_lift(divisor, 0), canonical_lift(divisor, 1))
    l0, l1 = lifts
    return (l0, l1)


def _make_state(index, hb, lifts, level, simpson, semistability):
    te, _, _ = birkhoff_split(hb.bundle)
    return FlowState(index, hb, te.entries, level, semistability, simpson,
                     lifts)


def flow_start(hb: LogHiggsBundleP1, lifts=None) -> FlowState:
    lifts = _resolve_lifts(hb.divisor, lifts)
    # a field the transform refuses is refused here, before any other work
    level = transform_level(hb)
    return _make_state(0, hb, lifts, level, None,
                       _graded_semistability(hb))


def flow_step(state: FlowState, lifts=None, guard: int = 50) -> FlowState:
    """One step: grade the Simpson filtration of the flat side and divide
    by Frobenius again.  The lifting pair is pinned at flow start."""
    if lifts is not None:
        lifts = _resolve_lifts(state.higgs.divisor, lifts)
        if lifts != state.lifts:
            raise ValueError("liftings are fixed along the whole flow")
    rep = simpson_filtration(state.connection, guard)
    if rep.status != "ok":
        raise ValueError(f"simpson filtration unresolved after "
                         f"{rep.iterations} refinements")
    nxt = rep.graded.higgs
    p = state.p
    d_e = degree_and_slope(state.higgs.bundle)[0]
    d_v = degree_and_slope(state.connection.bundle)[0]
    d_n = degree_and_slope(nxt.bundle)[0]
    if d_v != p * d_e or d_n != d_v:
        raise AssertionError("degree scaling failed along the step")
    if nxt.rank != state.higgs.rank:
        raise AssertionError("rank changed along the step")
    return _make_state(state.index + 1, nxt, state.lifts,
                       transform_level(nxt), rep, rep.graded.semistability)


def splitting_bound(rank: int, divisor) -> Fraction:
    """Half of (rank - 1) times the log degree: splitting types of a
    degree-0 semistable flow stay inside [-bound, bound]."""
    return Fraction((rank - 1) * (len(divisor.points) - 2), 2)


# -- isomorphism of Higgs bundles and periodicity --------------------------------

def _split_frame_field(hb: LogHiggsBundleP1, V):
    Vr = rmat_from_lmat(V)
    return matrix.mul(matrix.mul(rmat_inverse(Vr),
                                 [list(row) for row in hb.theta0]), Vr)


def higgs_isomorphic(h1: LogHiggsBundleP1, h2: LogHiggsBundleP1,
                     enum_guard: int = 200000):
    """True / False exactly, or None when the intertwiner search would
    exceed the enumeration guard.

    Both bundles are put in Birkhoff frames; an isomorphism is then a
    degree-bounded polynomial matrix g with g theta1 = theta2 g and
    constant nonzero determinant, and the set of intertwining g is a linear
    space searched exhaustively.
    """
    if h1.p != h2.p or h1.rank != h2.rank or h1.divisor != h2.divisor:
        return False
    if h1 == h2:
        return True
    p, r = h1.p, h1.rank
    t1, _, V1 = birkhoff_split(h1.bundle)
    t2, _, V2 = birkhoff_split(h2.bundle)
    if t1.entries != t2.entries:
        return False
    for pt in h1.divisor.points:
        r1 = fp_rank(p, residue(h1, pt))
        r2 = fp_rank(p, residue(h2, pt))
        if r1 != r2:
            return False
    a = t1.entries
    bnd = RatFun(h1.divisor.boundary_poly())
    P1m = []
    P2m = []
    for src, dst in ((_split_frame_field(h1, V1), P1m),
                     (_split_frame_field(h2, V2), P2m)):
        for row in src:
            dst.append([_cleared(bnd, e, "split-frame field has a pole off "
                                         "the divisor") for e in row])
    if P1m == P2m:
        return True  # the identity intertwines
    # unknown coefficients of g: entry (i, j) has degree <= a_i - a_j
    slots = []
    for i in range(r):
        for j in range(r):
            for k in range(a[i] - a[j] + 1):
                slots.append((i, j, k))
    nslots = len(slots)
    pdeg = max((e.degree for row in P1m + P2m for e in row
                if not e.is_zero()), default=0)
    gdeg = max(a) - min(a)
    rows = []
    for i in range(r):
        for j in range(r):
            for dcoef in range(pdeg + gdeg + 1):
                row = [0] * nslots
                for s, (si, sj, sk) in enumerate(slots):
                    if si == i:  # g[i][sj] P1[sj][j], pick x^(dcoef-sk)
                        row[s] = (row[s] + P1m[sj][j][dcoef - sk]) % p
                    if sj == j:  # P2[i][si] g[si][j]
                        row[s] = (row[s] - P2m[i][si][dcoef - sk]) % p
                if any(row):
                    rows.append(row)
    if not rows:
        basis = [[1 if t == s else 0 for t in range(nslots)]
                 for s in range(nslots)]
    else:
        basis = kernel_basis(p, rows)
    w = len(basis)
    if w == 0:
        return False

    def g0_of(coeffs):
        g = [[0] * r for _ in range(r)]
        for t, c in enumerate(coeffs):
            if c:
                for s, (si, sj, sk) in enumerate(slots):
                    if sk == 0 and basis[t][s]:
                        g[si][sj] = (g[si][sj] + c * basis[t][s]) % p
        return g

    # the determinant of a degree-bounded endomorphism is constant, so
    # invertibility is decided at x = 0
    for t in range(w):
        cand = [0] * w
        cand[t] = 1
        if fp_det(p, g0_of(cand)) != 0:
            return True
    if p ** w - 1 > enum_guard:
        return None
    for coeffs in product(range(p), repeat=w):
        if not any(coeffs):
            continue
        if fp_det(p, g0_of(coeffs)) != 0:
            return True
    return False


@dataclass(frozen=True)
class PeriodReport:
    status: str              # "periodic" | "no period" | "undecided"
    period: int | None
    preperiod: int | None
    orbit: tuple             # splitting types per step, initial first
    states: tuple
    reason: str
    bound: Fraction
    bound_ok: bool
    decided: bool            # periodic, or shown never to recur


def _unstable(state: FlowState) -> str | None:
    """Why the flow stops at this state: its semistability verdict is
    exactly "unstable" (the flow is defined on semistable objects)."""
    v = state.semistability
    if v.status == "unstable":
        return (f"state {state.index} is unstable: a theta-invariant "
                f"sub-bundle of degree {v.witness_degree} exceeds the "
                f"slope {v.slope}")
    return None


def detect_periodicity(initial: LogHiggsBundleP1, lifts=None,
                       max_iter: int = 10,
                       enum_guard: int = 200000) -> PeriodReport:
    """Run the flow and report the first recurrence up to isomorphism.

    The flow stops at its first unstable state with a decided "no period".
    """
    bound = splitting_bound(initial.rank, initial.divisor)
    deg, _ = degree_and_slope(initial.bundle)
    t0, _, _ = birkhoff_split(initial.bundle)
    if deg != 0:
        return PeriodReport(
            "no period", None, None, (t0.entries,), (),
            f"degree diverges: deg E = {deg} is multiplied by p at every "
            f"step", bound,
            all(abs(e) <= bound for e in t0.entries), True)
    states = [flow_start(initial, lifts)]
    undecided = []
    verdict = None
    stop = _unstable(states[0])
    i = 0
    while stop is None and verdict is None and i < max_iter:
        i += 1
        nxt = flow_step(states[-1])
        states.append(nxt)
        stop = _unstable(nxt)
        if stop is not None:
            break
        for j, old in enumerate(states[:-1]):
            iso = higgs_isomorphic(old.higgs, nxt.higgs, enum_guard)
            if iso is True:
                verdict = ("periodic", i - j, j,
                           f"state {i} is isomorphic to state {j}")
                break
            if iso is None:
                undecided.append((j, i))
    orbit = tuple(st.higgs_type for st in states)
    ok = all(abs(e) <= bound for t in orbit for e in t)
    if verdict is not None:
        status, period, pre, reason = verdict
        return PeriodReport(status, period, pre, orbit, tuple(states),
                            reason, bound, ok, True)
    if stop is not None:
        return PeriodReport("no period", None, None, orbit, tuple(states),
                            stop, bound, ok, True)
    if undecided:
        return PeriodReport(
            "undecided", None, None, orbit, tuple(states),
            f"isomorphism search exceeded the guard for state pairs "
            f"{undecided}", bound, ok, False)
    return PeriodReport(
        "no period", None, None, orbit, tuple(states),
        f"no recurrence within {max_iter} steps", bound, ok, False)
