"""Logarithmic Higgs bundles and logarithmic connections on the projective
line over a prime field.

Conventions.  A field matrix is stored once per chart: `theta0` is the
matrix of theta against dx in the coordinate x, `theta1` the matrix against
dy in y = 1/x.  Crossing the overlap, an endomorphism-valued form picks up
the frame conjugation and the factor dx/dy = -x^2; a connection matrix
additionally picks up -(dT/dy) T^(-1).  Residues are plain matrices over
F_p, with the sign fixed by Res_0(d + A dx/x) = A(0).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import matrix, polymat
from .exact.laurent import Laurent
from .exact.lmat import lmat_from_xpoly, lmat_from_ypoly
from .exact.poly import Poly, RatFun
from .exact.rmat import (rmat_clear_cols, rmat_clear_rows, rmat_deriv,
                         rmat_from_lmat, rmat_from_pmat, rmat_inverse,
                         rmat_subst_inv)
from .p1 import (P1Bundle, degree_and_slope, birkhoff_split, global_sections,
                 hn_filtration_plain, max_subsheaf_degree, sub_adapted,
                 subbundle_degree)

INF = "inf"


@dataclass(frozen=True)
class LogDivisor:
    """A reduced divisor on P^1(F_p): chart-0 points and/or the point at
    infinity, written INF."""

    p: int
    points: tuple

    def __post_init__(self):
        pts = []
        for pt in self.points:
            if pt == INF:
                pts.append(INF)
            elif isinstance(pt, int):
                pts.append(pt % self.p)
            else:
                raise ValueError(f"bad divisor point {pt!r}")
        finite = sorted(q for q in pts if q != INF)
        ordered = finite + ([INF] if INF in pts else [])
        if len(set(ordered)) != len(ordered):
            raise ValueError("divisor points are not distinct")
        object.__setattr__(self, "points", tuple(ordered))

    @property
    def n0(self) -> int:
        return len(self.points)

    @property
    def has_infinity(self) -> bool:
        return INF in self.points

    @property
    def finite_points(self) -> tuple:
        return tuple(q for q in self.points if q != INF)

    def contains(self, pt) -> bool:
        if pt == INF:
            return self.has_infinity
        return isinstance(pt, int) and pt % self.p in self.points

    def boundary_poly(self) -> Poly:
        """prod (x - c) over the finite points."""
        f = Poly.one(self.p)
        for c in self.finite_points:
            f = f * Poly(self.p, (-c, 1))
        return f

    def chart1_poly(self) -> Poly:
        """The chart-1 counterpart in y: roots at 1/c for finite c != 0 and
        at 0 when the divisor meets infinity.  (A finite point 0 sits at
        y-infinity and imposes no chart-1 root.)"""
        f = Poly.one(self.p)
        if self.has_infinity:
            f = f * Poly.x(self.p)
        for c in self.finite_points:
            if c != 0:
                f = f * Poly(self.p, (-pow(c, self.p - 2, self.p), 1))
        return f


@dataclass(frozen=True)
class LogHiggsBundleP1:
    bundle: P1Bundle
    divisor: LogDivisor
    theta0: tuple
    theta1: tuple

    @property
    def p(self) -> int:
        return self.bundle.p

    @property
    def rank(self) -> int:
        return self.bundle.rank


@dataclass(frozen=True)
class LogConnectionP1:
    bundle: P1Bundle
    divisor: LogDivisor
    a0: tuple
    a1: tuple

    @property
    def p(self) -> int:
        return self.bundle.p

    @property
    def rank(self) -> int:
        return self.bundle.rank


def _to_rmat(p: int, rows, r: int):
    M = [[e if isinstance(e, RatFun) else
          RatFun(e) if isinstance(e, Poly) else
          e.to_ratfun() if isinstance(e, Laurent) else
          RatFun.const(p, e) for e in row] for row in rows]
    if len(M) != r or any(len(row) != r for row in M):
        raise ValueError("field matrix shape does not match the rank")
    return M


def _check_log_poles(mats, allowed: Poly, chart: int):
    for row in mats:
        for f in row:
            if not (allowed % f.den).is_zero():
                raise ValueError(
                    f"chart-{chart} matrix has a pole off the log divisor "
                    f"(or a higher-order pole): denominator {f.den!r}")


def _chart1_gauge(bundle: P1Bundle, m0, with_frame_term: bool):
    """Chart-1 matrix of a form-valued (or connection) matrix:
    -x^2 (T m0 T^(-1) - [dT/dx T^(-1)]) with x -> 1/y."""
    p = bundle.p
    T = rmat_from_lmat(bundle.matrix())
    Tinv = rmat_inverse(T)
    G = matrix.mul(matrix.mul(T, m0), Tinv)
    if with_frame_term:
        G = matrix.sub(G, matrix.mul(rmat_deriv(T), Tinv))
    neg_x2 = RatFun(Poly(p, (0, 0, -1)))
    return rmat_subst_inv(matrix.scale(neg_x2, G))


def _freeze(M):
    return tuple(tuple(row) for row in M)


def higgs_bundle(bundle: P1Bundle, divisor: LogDivisor, theta0,
                 theta1=None) -> LogHiggsBundleP1:
    """Assemble and validate a logarithmic Higgs bundle from the chart-0
    field matrix; theta1 is computed by the gauge rule when omitted, and
    checked against it when supplied."""
    if bundle.p != divisor.p:
        raise ValueError("mixed primes")
    p, r = bundle.p, bundle.rank
    m0 = _to_rmat(p, theta0, r)
    _check_log_poles(m0, divisor.boundary_poly(), 0)
    m1 = _chart1_gauge(bundle, m0, with_frame_term=False)
    if theta1 is not None:
        given = _to_rmat(p, theta1, r)
        if any(given[i][j] != m1[i][j] for i in range(r) for j in range(r)):
            raise ValueError("chart matrices are not gauge compatible")
    _check_log_poles(m1, divisor.chart1_poly(), 1)
    return LogHiggsBundleP1(bundle, divisor, _freeze(m0), _freeze(m1))


def log_connection(bundle: P1Bundle, divisor: LogDivisor, a0,
                   a1=None) -> LogConnectionP1:
    """Assemble and validate d + A with logarithmic poles on the divisor."""
    if bundle.p != divisor.p:
        raise ValueError("mixed primes")
    p, r = bundle.p, bundle.rank
    m0 = _to_rmat(p, a0, r)
    _check_log_poles(m0, divisor.boundary_poly(), 0)
    m1 = _chart1_gauge(bundle, m0, with_frame_term=True)
    if a1 is not None:
        given = _to_rmat(p, a1, r)
        if any(given[i][j] != m1[i][j] for i in range(r) for j in range(r)):
            raise ValueError("chart matrices are not gauge compatible")
    _check_log_poles(m1, divisor.chart1_poly(), 1)
    return LogConnectionP1(bundle, divisor, _freeze(m0), _freeze(m1))


def _chart_matrices(obj):
    if isinstance(obj, LogHiggsBundleP1):
        return obj.theta0, obj.theta1
    if isinstance(obj, LogConnectionP1):
        return obj.a0, obj.a1
    raise TypeError(f"no chart matrices on {type(obj).__name__}")


def residue(obj, pt):
    """Residue matrix at a divisor point, over F_p.

    At a finite point c this is ((x - c) M0)(c); at infinity (y M1)(0),
    which matches dx/x = -dy/y on the overlap.
    """
    div = obj.divisor
    if not div.contains(pt):
        raise ValueError(f"{pt!r} is not on the log divisor")
    m0, m1 = _chart_matrices(obj)
    p = div.p
    if pt == INF:
        y = RatFun.x(p)
        return [[(y * f).eval(0) for f in row] for row in m1]
    c = pt % p
    t = RatFun(Poly(p, (-c, 1)))
    return [[(t * f).eval(c) for f in row] for row in m0]


@dataclass(frozen=True)
class ResidueTraceReport:
    p: int
    kind: str
    per_point: tuple
    total: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.total == self.expected


def residue_trace_sum(obj) -> ResidueTraceReport:
    """Per-point residue traces and their sum.

    For a Higgs field tr(theta) is a rational 1-form with at most simple
    poles, so the traces sum to zero.  For a connection the frame term
    contributes d log det T, and the sum is -deg E mod p.
    """
    p = obj.p
    per = []
    total = 0
    for pt in obj.divisor.points:
        R = residue(obj, pt)
        tr = sum(R[i][i] for i in range(len(R))) % p
        per.append((pt, tr))
        total = (total + tr) % p
    if isinstance(obj, LogHiggsBundleP1):
        kind, expected = "higgs", 0
    else:
        kind, expected = "connection", (-degree_and_slope(obj.bundle)[0]) % p
    return ResidueTraceReport(p, kind, tuple(per), total, expected)


def nilpotency_level(obj, p: int | None = None):
    """Least l with operator^(l+1) = 0, or None when not nilpotent.

    Accepts a LogHiggsBundleP1 (uses the chart-0 matrix), a matrix of
    rational functions, or a plain integer matrix with `p` supplied.
    """
    if isinstance(obj, LogHiggsBundleP1):
        M = [list(row) for row in obj.theta0]
        p = obj.p
    else:
        rows = [list(row) for row in obj]
        if rows and isinstance(rows[0][0], RatFun):
            M = rows
            p = rows[0][0].p
        else:
            if p is None:
                raise ValueError("a prime is required for integer matrices")
            return _int_nilpotency(rows, p)
    n = len(M)
    power = matrix.identity(RatFun, p, n)
    for e in range(1, n + 1):
        power = matrix.mul(power, M)
        if matrix.is_zero(power):
            return e - 1
    return None


def _int_nilpotency(rows, p):
    n = len(rows)
    A = [[e % p for e in row] for row in rows]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for e in range(1, n + 1):
        power = [[sum(power[i][t] * A[t][j] for t in range(n)) % p
                  for j in range(n)] for i in range(n)]
        if all(e2 == 0 for row in power for e2 in row):
            return e - 1
    return None


# -- semistability -----------------------------------------------------------

@dataclass(frozen=True)
class SemistabilityVerdict:
    status: str  # "semistable" | "unstable" | "undecided"
    slope: Fraction
    witness_degree: int | None = None
    witness: tuple | None = None
    detail: str = ""
    candidates: tuple | None = None  # rank >= 3: the sub-bundles examined

    @property
    def decided(self) -> bool:
        return self.status != "undecided"


def is_semistable_rank2(hb: LogHiggsBundleP1) -> SemistabilityVerdict:
    """Exact slope semistability for rank 2.

    Write E = O(a1) + O(a2) with a1 >= a2.  A line sub-bundle other than
    the top summand maps nonzero to E/O(a1) = O(a2), so its degree is at
    most a2, which is at most the slope.  E is therefore unstable exactly
    when a1 > a2 and theta keeps the top summand; the witness is the
    section spanning H^0(E(-a1)), which is that summand.
    """
    b = hb.bundle
    if b.rank != 2:
        raise ValueError("exact decision is implemented for rank 2 only")
    _, mu = degree_and_slope(b)
    top = max_subsheaf_degree(b, 1)
    if top > mu:
        (s,) = global_sections(b, -top)
        ts = matrix.vec(hb.theta0, [RatFun(e) for e in s])
        if RatFun(s[0]) * ts[1] == RatFun(s[1]) * ts[0]:
            return SemistabilityVerdict(
                "unstable", mu, top, s,
                "theta-invariant line sub-bundle above the slope")
    return SemistabilityVerdict("semistable", mu)


def _graded_semistability(hb: LogHiggsBundleP1) -> SemistabilityVerdict:
    if hb.rank == 1:
        _, mu = degree_and_slope(hb.bundle)
        return SemistabilityVerdict("semistable", mu, detail="line bundle")
    if hb.rank == 2:
        return is_semistable_rank2(hb)
    return invariant_flag_heuristic(hb)


# -- invariant sub-bundle candidates for rank >= 3 ---------------------------

@dataclass(frozen=True)
class FlagCandidate:
    rank: int
    degree: int
    slope: Fraction
    theta_invariant: bool
    destabilizing: bool
    source: str
    basis: tuple


def _theta_invariant(th, cols) -> bool:
    """Does theta map the span of the columns `cols` into itself?

    `cols` must be a saturated basis, as every candidate of
    `invariant_flag_heuristic` is: then a polynomial vector lies in their
    span over F_p(x) exactly when it lies in their span over F_p[x], so the
    images theta * col, cleared of denominators, decide it over F_p[x]."""
    images = [matrix.vec(th, [RatFun(e) for e in col]) for col in cols]
    cleared = rmat_clear_cols(matrix.from_columns(images))
    return polymat.submodule_contains(cols, [list(c) for c in zip(*cleared)])


def invariant_flag_heuristic(hb: LogHiggsBundleP1) -> SemistabilityVerdict:
    """Candidate destabilizing sub-bundles from kernel/image saturations of
    theta powers, their intersections, and the plain HN steps.

    This is NOT a decision procedure: proper theta-invariant sub-bundles
    outside these families are not seen.  The first invariant candidate
    above the slope makes the verdict "unstable", with its degree and basis
    as the witness; without one it stays "undecided".
    """
    b = hb.bundle
    r = b.rank
    _, mu = degree_and_slope(b)
    th = [list(row) for row in hb.theta0]
    seen = {}
    order = []

    def add(cols, src):
        if not cols or len(cols) >= r:
            return
        # one saturate pass canonicalizes the basis, so equal sub-modules
        # reached along different routes collapse to one candidate
        canon = polymat.saturate([[cols[c][i] for c in range(len(cols))]
                                  for i in range(len(cols[0]))])
        key = tuple(tuple(c) for c in canon)
        if key not in seen:
            seen[key] = src
            order.append(key)

    kernels = []
    images = []
    power = [list(row) for row in hb.theta0]
    for k in range(1, r + 1):
        if matrix.is_zero(power):
            break
        K = polymat.kernel_saturated(rmat_clear_rows(power))
        if K:
            kernels.append(K)
            add(K, f"ker theta^{k}")
        I = polymat.saturate(rmat_clear_cols(power))
        if I:
            images.append(I)
            add(I, f"im theta^{k}")
        power = matrix.mul(power, th)
    for j, step in enumerate(hn_filtration_plain(b).steps[:-1]):
        cols = polymat.saturate([[step.basis[c][i] for c in range(step.rank)]
                                 for i in range(r)])
        add(cols, f"hn step {j + 1}")
    for K in kernels:
        for I in images:
            both = polymat.submodule_intersect(K, I)
            if both:
                add(both, "ker/im intersection")

    out = []
    for key in order:
        cols = [list(c) for c in key]
        dsub = subbundle_degree(b, cols)
        musub = Fraction(dsub, len(cols))
        out.append(FlagCandidate(
            rank=len(cols), degree=dsub, slope=musub,
            theta_invariant=_theta_invariant(th, cols),
            destabilizing=musub > mu,
            source=seen[key],
            basis=tuple(tuple(c) for c in cols)))
    note = ("kernel/image/HN candidates only; invariant sub-bundles "
            "outside these families are not examined")
    for c in out:
        if c.destabilizing and c.theta_invariant:
            return SemistabilityVerdict("unstable", mu, c.degree, c.basis,
                                        note, tuple(out))
    return SemistabilityVerdict("undecided", mu, detail=note,
                                candidates=tuple(out))


# -- Griffiths-transverse grading --------------------------------------------

@dataclass(frozen=True)
class HodgeSystem:
    """A graded logarithmic Higgs bundle: the underlying frame is split into
    consecutive blocks (piece i has rank piece_ranks[i]) and theta carries
    block i into block i-1."""

    higgs: LogHiggsBundleP1
    piece_ranks: tuple
    semistability: SemistabilityVerdict = field(compare=False)


def _pblockdiag(p, A, B):
    n = len(A)
    q = len(B)
    out = [[Poly.zero(p) for _ in range(n + q)] for _ in range(n + q)]
    for i in range(n):
        for j in range(n):
            out[i][j] = A[i][j]
    for i in range(q):
        for j in range(q):
            out[n + i][n + j] = B[i][j]
    return out


def _flag_frames(b: P1Bundle, flag):
    """Chart frames simultaneously adapted to a nested chain of proper
    saturated chart-0 sub-modules (given by basis columns, ranks strictly
    increasing).  Returns (B0, B1y) with the gauged transition block upper
    triangular with respect to every cut."""
    p, r = b.p, b.rank
    if not flag:
        return matrix.identity(Poly, p, r), matrix.identity(Poly, p, r)
    head = flag[0]
    fr = sub_adapted(b, [tuple(col) for col in head])
    s = fr.sub_rank
    bq = P1Bundle.from_rows(p, fr.t_quot)
    b0inv = polymat.pmat_inverse([list(row) for row in fr.b0])
    tail = []
    for step in flag[1:]:
        mat = [[step[c][i] for c in range(len(step))] for i in range(r)]
        X = matrix.mul(b0inv, mat)
        tail.append(polymat.saturate([X[i] for i in range(s, r)]))
    C0, C1y = _flag_frames(bq, tail)
    B0 = matrix.mul([list(row) for row in fr.b0],
                    _pblockdiag(p, matrix.identity(Poly, p, s), C0))
    B1y = matrix.mul([list(row) for row in fr.b1y],
                     _pblockdiag(p, matrix.identity(Poly, p, s), C1y))
    return B0, B1y


def _block_of(cuts, i):
    for k in range(len(cuts) - 1):
        if cuts[k] <= i < cuts[k + 1]:
            return k
    raise IndexError(i)


def graded_of_flag(obj, flag) -> HodgeSystem:
    """Graded Higgs bundle of a filtration of a Higgs bundle or a
    connection, given as the increasing flag of proper saturated chart-0
    steps.

    A Higgs field must move block j only into the blocks below it, and the
    graded field keeps the band one block down.  A connection may move
    block j at most one block up (Griffiths transversality); the graded
    field keeps the band one block up, and the blocks are listed in reverse
    so that it too lowers the piece index by one.
    """
    b = obj.bundle
    p, r = b.p, b.rank
    flat = isinstance(obj, LogConnectionP1)
    offset = 1 if flat else -1
    cuts = [0] + [len(F) for F in flag] + [r]
    blk = [_block_of(cuts, i) for i in range(r)]
    B0, B1y = _flag_frames(b, flag)
    B1inv = lmat_from_ypoly(polymat.pmat_inverse(B1y))
    Tt = matrix.mul(B1inv, matrix.mul(b.matrix(), lmat_from_xpoly(B0)))
    B0r = rmat_from_pmat(B0)
    gauged = matrix.mul([list(row) for row in _chart_matrices(obj)[0]], B0r)
    if flat:
        gauged = matrix.add(gauged, rmat_deriv(B0r))
    f_ad = matrix.mul(rmat_inverse(B0r), gauged)
    for i in range(r):
        for j in range(r):
            if blk[i] > blk[j] and not Tt[i][j].is_zero():
                raise AssertionError("flag frames are not adapted")
            if blk[i] - blk[j] > offset and not f_ad[i][j].is_zero():
                raise AssertionError(
                    "adapted connection violates transversality" if flat
                    else "flag is not theta-stable")
    order = range(len(cuts) - 2, -1, -1) if flat else range(len(cuts) - 1)
    perm = [i for k in order for i in range(cuts[k], cuts[k + 1])]
    th = [[f_ad[i][j] if blk[i] - blk[j] == offset else RatFun.zero(p)
           for j in perm] for i in perm]
    # renormalize every block to its split presentation: a block-diagonal
    # frame change keeps the piece structure, and without it the matrix
    # degrees carried along a flow would be multiplied by p at each step
    entries = []
    w = [[Poly.zero(p)] * r for _ in range(r)]
    at = 0
    for k in order:
        rng = range(cuts[k], cuts[k + 1])
        tk, _, Vk = birkhoff_split(
            P1Bundle.from_rows(p, [[Tt[i][j] for j in rng] for i in rng]))
        entries.extend(tk.entries)
        for a in range(len(rng)):
            for c in range(len(rng)):
                w[at + a][at + c] = Vk[a][c].to_poly_x()
        at += len(rng)
    w0 = rmat_from_pmat(w)
    th = matrix.mul(rmat_inverse(w0), matrix.mul(th, w0))
    graded = higgs_bundle(P1Bundle.of_type(p, tuple(entries)), obj.divisor,
                          th)
    hs = HodgeSystem(graded, tuple(cuts[k + 1] - cuts[k] for k in order),
                     _graded_semistability(graded))
    check_hodge_system(hs)
    return hs


def griffiths_grading(hb: LogHiggsBundleP1) -> HodgeSystem:
    """Associated graded of the saturated kernel flag of theta powers.

    The flag 0 c ker theta c ker theta^2 c ... is the canonical decreasing
    (after relabelling) filtration with theta(step j+1) inside step j.
    """
    r = hb.rank
    th = [list(row) for row in hb.theta0]
    flag = []
    power = th
    prev = 0
    while True:
        K = polymat.kernel_saturated(rmat_clear_rows(power))
        if len(K) == r:
            break
        if len(K) <= prev:
            raise ValueError("higgs field is not nilpotent")
        flag.append(K)
        prev = len(K)
        power = matrix.mul(th, power)
    return graded_of_flag(hb, flag)


def check_hodge_system(hs: HodgeSystem) -> bool:
    """Validate the grading: blocks partition the rank and theta lowers the
    block index by exactly one."""
    r = hs.higgs.rank
    cuts = [0]
    for q in hs.piece_ranks:
        cuts.append(cuts[-1] + q)
    if cuts[-1] != r:
        raise AssertionError("piece ranks do not partition the rank")
    th = hs.higgs.theta0
    for i in range(r):
        for j in range(r):
            if (_block_of(cuts, i) != _block_of(cuts, j) - 1
                    and not th[i][j].is_zero()):
                raise AssertionError("graded field does not lower the index "
                                     "by one")
    if nilpotency_level(hs.higgs) is None:
        raise AssertionError("graded field is not nilpotent")
    return True


# -- degree-zero kernel semipositivity ----------------------------------------

@dataclass(frozen=True)
class SemipositivityReport:
    degree: int
    semistable: str  # "certified" or "assumed" (rank >= 3)
    kernel_rank: int
    kernel_type: tuple
    partial_sums: tuple
    passed: bool


def kernel_semipositivity_check(hb: LogHiggsBundleP1) -> SemipositivityReport:
    """For a semistable degree-0 logarithmic Higgs bundle: the saturation K
    of ker theta must have max_subsheaf_degree(K, s) <= 0 for every s.

    Rank <= 2 inputs are re-certified semistable here; a failure raises
    instead of producing a report, since the claim is empty without the
    hypothesis.  For rank >= 3 semistability is taken on trust and the
    report says so.
    """
    b = hb.bundle
    deg, _ = degree_and_slope(b)
    if deg != 0:
        raise ValueError("kernel semipositivity needs a degree-0 bundle")
    if hb.rank <= 2:
        if hb.rank == 2:
            v = is_semistable_rank2(hb)
            if v.status != "semistable":
                raise ValueError(f"input is not certified semistable: "
                                 f"{v.status}")
        certified = "certified"
    else:
        certified = "assumed"
    K = polymat.kernel_saturated(rmat_clear_rows(
        [list(row) for row in hb.theta0]))
    if not K:
        return SemipositivityReport(deg, certified, 0, (), (), True)
    fr = sub_adapted(b, K)
    ksub = P1Bundle.from_rows(b.p, fr.t_sub)
    types, _, _ = birkhoff_split(ksub)
    entries = tuple(types)
    sums = tuple(sum(entries[:s]) for s in range(1, len(entries) + 1))
    return SemipositivityReport(deg, certified, len(K), entries, sums,
                                all(q <= 0 for q in sums))
