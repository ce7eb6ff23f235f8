"""Vector bundles on the projective line over F_p via transition matrices.

Conventions.  Chart 0 has coordinate x, chart 1 has y = 1/x; a bundle is the
transition matrix T(x) over F_p[x, 1/x] with section rule v1 = T v0, and the
line bundle with transition x^(-a) is O(a), so deg E = sum of the splitting
type and H^0(O(a)) is spanned by 1, x, ..., x^a on chart 0.

The splitting algorithm peels off a maximal-degree line subbundle: the twist
E(-a) first acquires sections at a = max a_i, such a section is
automatically primitive in both charts, and completing it to unimodular
frames leaves a rank r-1 quotient with all degrees <= 0, where the leftover
off-diagonal row dies by an exponent split.  a is found by an upward scan
of an exact Cech section probe.  One det and one adjugate of T per level
bound the section degree at every twist and the scan itself (a <= top
exponent of adj T minus that of det T); each probe is a sparse F_p system
built from the supports of T's entries, so the scan costs one solve per
twist, linear in the spread of the type.  The frame changes are
certified afterwards: U unimodular over F_p[1/x], V unimodular over F_p[x],
U T V exactly diagonal.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import linalg, matrix, polymat
from .exact.laurent import Laurent
from .exact.lmat import lmat, lmat_from_xpoly, lmat_from_ypoly
from .exact.poly import Poly
from .exact.rings import check_prime


@dataclass(frozen=True)
class SplittingType:
    entries: tuple

    def __post_init__(self):
        if list(self.entries) != sorted(self.entries, reverse=True):
            raise ValueError("splitting type must be sorted descending")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, len(self.entries))

    def scaled(self, m: int) -> "SplittingType":
        return SplittingType(tuple(a * m for a in self.entries))


@dataclass(frozen=True)
class P1Bundle:
    p: int
    t: tuple  # transition matrix, tuple of tuples of Laurent

    @staticmethod
    def from_rows(p: int, rows) -> "P1Bundle":
        check_prime(p)
        return P1Bundle(p, tuple(tuple(r) for r in lmat(p, rows)))

    @staticmethod
    def of_type(p: int, types) -> "P1Bundle":
        check_prime(p)
        n = len(types)
        rows = [[Laurent.monomial(p, -types[i]) if i == j else Laurent.zero(p)
                 for j in range(n)] for i in range(n)]
        return P1Bundle(p, tuple(tuple(r) for r in rows))

    @property
    def rank(self) -> int:
        return len(self.t)

    def matrix(self):
        return [list(r) for r in self.t]

    def twist(self, d: int) -> "P1Bundle":
        """E(d): transition gains x^(-d)."""
        sh = [[a.shift(-d) for a in r] for r in self.t]
        return P1Bundle(self.p, tuple(tuple(r) for r in sh))


def _det_or_fail(b: P1Bundle) -> Laurent:
    d = matrix.det(b.matrix())
    if not d.is_unit():
        from .serialize import laurent_str
        raise ValueError("transition matrix is not invertible over "
                         f"F_p[x, 1/x]: det T = {laurent_str(d)}")
    return d


def degree_and_slope(b: P1Bundle):
    d = _det_or_fail(b)
    ((k, _),) = d.d.items()
    return -k, Fraction(-k, b.rank)


def frobenius_pullback(b: P1Bundle) -> P1Bundle:
    rows = [[a.dilate(b.p) for a in r] for r in b.t]
    return P1Bundle(b.p, tuple(tuple(r) for r in rows))


# ------------------------------------------------------------ section probe

def _det_exponent(T):
    """(k, c) with det T = c x^k; ValueError unless det T is a unit."""
    det = matrix.det(T)
    if not det.is_unit():
        raise ValueError("transition matrix is not invertible")
    ((k, c),) = det.d.items()
    return k, c


def _probe_bounds(T, k: int):
    """(lim, top) for the section probes of T at every twist, det T = c x^k.

    det(T x^(-m)) = x^(-rm) det T and adj(T x^(-m)) = x^(-(r-1)m) adj T, so
    with e0 the top exponent of adj T a section of E(-m) has x-degree at
    most lim + m, where lim = e0 - k, and (T x^(-m)) s has no exponent above
    top = (top exponent of T) + lim, the same for every m.
    """
    adj = matrix.adjugate(T)
    lim = max(a.max_exp() for row in adj for a in row if not a.is_zero()) - k
    return lim, max(a.max_exp() for row in T for a in row
                    if not a.is_zero()) + lim


def _section_basis(p: int, T, m: int, bounds=None):
    """Chart-0 polynomial vectors s with (T x^(-m)) s regular on chart 1,
    as F_p vectors holding the coefficients of s_0, ..., s_(r-1) in blocks
    of width lim + m + 1 (lim from `_probe_bounds`).

    Exact Cech kernel: the adjugate bounds the x-degree of any section (see
    `_probe_bounds`; pass its result to probe many twists of one T), so the
    condition "no positive exponents after crossing charts" is a finite
    F_p-linear system.  Its rows, one per row i of T and exponent g >= 1 of
    x, are built from the supports of the entries; only the nonzero ones
    are kept, in (i, g) order.
    """
    if bounds is None:
        bounds = _probe_bounds(T, _det_exponent(T)[0])
    lim, top = bounds
    width = lim + m + 1
    if width <= 0:
        return []
    r = len(T)
    rows = []
    for row in T:
        # coefficient of x^g in this row of (T x^(-m)) s
        eqs = {}
        for j, a in enumerate(row):
            off = j * width
            for e1, c in a.d.items():
                e1 -= m
                for e in range(max(0, 1 - e1), min(width, top + 1 - e1)):
                    eq = eqs.get(e1 + e)
                    if eq is None:
                        eq = eqs[e1 + e] = [0] * (r * width)
                    eq[off + e] = c
        rows.extend(eqs[g] for g in sorted(eqs))
    if not rows:
        # no positive exponents can appear at all: every polynomial works
        return linalg.identity(r * width)
    return linalg.kernel_basis(p, rows)


def cech_h0(b: P1Bundle, d: int) -> int:
    """dim H^0(E(d)) by the raw Cech kernel (no splitting involved)."""
    return len(_section_basis(b.p, b.matrix(), d))


# ------------------------------------------------------- birkhoff splitting

def _complete_frame(cols, r):
    """Unimodular square matrix with the given saturated columns first,
    byte-for-byte equal to them."""
    out = polymat.complete_unimodular([list(c) for c in cols], r)
    for j, c in enumerate(cols):
        for i in range(r):
            out[i][j] = c[i]
    if not polymat.is_unimodular(out):
        raise AssertionError("frame completion lost unimodularity")
    return out


def _split(p: int, T):
    """(type list desc, U, V) with U T V = diag(x^(-a_i)); U over F_p[1/x],
    V over F_p[x], both unimodular."""
    r, _ = matrix.shape(T)
    k, c = _det_exponent(T)
    if r == 1:
        cinv = Laurent.const(p, pow(c, p - 2, p))
        return [-k], [[cinv]], [[Laurent.one(p)]]
    bounds = _probe_bounds(T, k)
    lim = bounds[0]
    a = -(k // r)  # ceil(deg / r) <= max a_i, deg = -k
    secs = _section_basis(p, T, -a, bounds)
    if not secs:
        raise AssertionError("section probe empty at the slope twist")
    # every a_i <= lim, so the probe past lim is empty without a solve
    for nxt in range(a + 1, lim + 2):
        higher = _section_basis(p, T, -nxt, bounds)
        if not higher:
            break
        secs, a = higher, nxt
    v, width = secs[0], lim - a + 1
    s0 = tuple(Poly(p, tuple(v[j * width:(j + 1) * width])) for j in range(r))
    g = s0[0]
    for e in s0[1:]:
        g = g.gcd(e)
    if g.degree > 0:
        raise AssertionError("maximal section is not primitive on chart 0")
    Ta = [[entry.shift(a) for entry in row] for row in T]
    s1 = matrix.vec(Ta, [Laurent.from_poly(q) for q in s0])
    if max(e.max_exp() for e in s1 if not e.is_zero()) != 0:
        raise AssertionError("maximal section is not primitive on chart 1")
    B0 = _complete_frame([[s0[i] for i in range(r)]], r)
    s1y = [e.to_poly_z() for e in s1]
    B1y = _complete_frame([s1y], r)
    B1inv = lmat_from_ypoly(polymat.pmat_inverse(B1y))
    T1 = matrix.mul(B1inv, matrix.mul(Ta, lmat_from_xpoly(B0)))
    for i in range(r):
        want = Laurent.one(p) if i == 0 else Laurent.zero(p)
        if T1[i][0] != want:
            raise AssertionError("adapted transition lost its unit column")
    Tq = [[T1[i][j] for j in range(1, r)] for i in range(1, r)]
    types_q, Uq, Vq = _split(p, Tq)
    if any(bq > 0 for bq in types_q):
        raise AssertionError("quotient of the maximal twist has positive degree")
    (wp,) = matrix.mul([T1[0][1:]], Vq)
    R = matrix.identity(Laurent, p, r)
    C = matrix.identity(Laurent, p, r)
    for j, bq in enumerate(types_q):
        f, rest = wp[j].split_at(1)
        R[0][j + 1] = -(rest.shift(bq))
        C[0][j + 1] = -f
    Uhat = matrix.identity(Laurent, p, r)
    Vhat = matrix.identity(Laurent, p, r)
    for i in range(r - 1):
        for j in range(r - 1):
            Uhat[i + 1][j + 1] = Uq[i][j]
            Vhat[i + 1][j + 1] = Vq[i][j]
    U = matrix.mul(R, matrix.mul(Uhat, B1inv))
    V = matrix.mul(lmat_from_xpoly(B0), matrix.mul(Vhat, C))
    # U (T x^a) V = diag(1, x^(-b_j)), and x^a is scalar, so
    # U T V = diag(x^(-a), x^(-a-b_j)) as claimed
    return [a] + [a + bq for bq in types_q], U, V


# certified splittings by (p, T), active only inside split_memo()
_MEMO: ContextVar[dict | None] = ContextVar("hdrflow_split_memo",
                                            default=None)


@contextmanager
def split_memo():
    """Scope inside which birkhoff_split remembers its certified results.

    The memo starts empty on entry and is dropped on exit; scopes nest, and
    an inner one does not see the outer one's entries."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def birkhoff_split(b: P1Bundle):
    """(SplittingType, U, V): U T V = diag(x^(-a_i)), U unimodular over
    F_p[1/x], V unimodular over F_p[x].

    Inside a `split_memo()` scope a bundle equal by value to one already
    split there returns the stored result, certified when it was computed,
    as fresh row lists; outside any scope every call splits afresh."""
    memo = _MEMO.get()
    key = (b.p, b.t)
    if memo is not None and key in memo:
        types, U, V = memo[key]
        return types, [list(r) for r in U], [list(r) for r in V]
    _det_or_fail(b)
    types, U, V = _split(b.p, b.matrix())
    r = b.rank
    p = b.p
    D = matrix.mul(U, matrix.mul(b.matrix(), V))
    for i in range(r):
        for j in range(r):
            want = Laurent.monomial(p, -types[i]) if i == j else Laurent.zero(p)
            if D[i][j] != want:
                raise AssertionError("splitting certificate failed: "
                                     "U T V is not the claimed diagonal")
    ue = [e.max_exp() for row in U for e in row if not e.is_zero()]
    ve = [e.min_exp() for row in V for e in row if not e.is_zero()]
    if max(ue) > 0 or min(ve) < 0:
        raise AssertionError("frame changes landed in the wrong rings")
    for M, ring in ((U, "F_p[1/x]"), (V, "F_p[x]")):
        dm = matrix.det(M)
        if not (dm.is_unit() and dm.min_exp() == 0):
            raise AssertionError(f"frame change not unimodular over {ring}")
    if types != sorted(types, reverse=True):
        raise AssertionError("splitting type came out unsorted")
    st = SplittingType(tuple(types))
    if memo is not None:
        memo[key] = (st, tuple(map(tuple, U)), tuple(map(tuple, V)))
    return st, U, V


def global_sections(b: P1Bundle, d: int = 0):
    """Basis of H^0(E(d)) as chart-0 polynomial vectors, through the
    splitting frames."""
    types, U, V = birkhoff_split(b)
    out = []
    for i, a in enumerate(types):
        for k in range(0, a + d + 1):
            col = [V[row][i].shift(k) for row in range(b.rank)]
            out.append(tuple(e.to_poly_x() for e in col))
    return out


@dataclass(frozen=True)
class HNStep:
    rank: int
    degree: int
    slope: Fraction
    basis: tuple  # chart-0 polynomial vectors spanning the step


@dataclass(frozen=True)
class HNFiltrationPlain:
    steps: tuple  # increasing sub-bundles, last = whole bundle


def hn_filtration_plain(b: P1Bundle) -> HNFiltrationPlain:
    """Group Birkhoff summands by strictly decreasing degree.

    Steps are saturated sub-bundles (spans of leading frame columns), so the
    successive quotients are semistable with strictly decreasing slopes.
    """
    types, U, V = birkhoff_split(b)
    steps = []
    taken = 0
    degsum = 0
    entries = list(types)
    while taken < len(entries):
        cur = entries[taken]
        cnt = sum(1 for a in entries if a == cur)
        taken += cnt
        degsum += cur * cnt
        basis = tuple(tuple(V[row][i].to_poly_x() for row in range(b.rank))
                      for i in range(taken))
        steps.append(HNStep(taken, degsum, Fraction(degsum, taken), basis))
    return HNFiltrationPlain(tuple(steps))


def max_subsheaf_degree(b: P1Bundle, s: int) -> int:
    if not 1 <= s <= b.rank:
        raise ValueError("subsheaf rank out of range")
    types, _, _ = birkhoff_split(b)
    return sum(list(types)[:s])


def line_subbundle_degree(b: P1Bundle, s0) -> int:
    """Degree of the saturated line subbundle through the primitive chart-0
    polynomial vector s0: the saturation at infinity is -max exponent of
    T s0."""
    g = s0[0]
    for e in s0[1:]:
        g = g.gcd(e)
    if g.is_zero():
        raise ValueError("zero section")
    if g.degree > 0:
        raise ValueError("section vector is not primitive")
    w = matrix.vec(b.matrix(), [Laurent.from_poly(q) for q in s0])
    return -max(e.max_exp() for e in w if not e.is_zero())


def subbundle_degree(b: P1Bundle, cols) -> int:
    """Degree of the sub-bundle spanned by a saturated chart-0 basis `cols`
    (polynomial columns), read off the exterior power.

    det F is the line sub-bundle of the s-th exterior power through the
    Pluecker vector of `cols`, primitive because the basis is saturated;
    the transition of that exterior power is the compound matrix of T, its
    s x s minors.  A basis that is not saturated raises ValueError."""
    s = len(cols)
    if s == 1:
        return line_subbundle_degree(b, cols[0])
    subsets = list(combinations(range(b.rank), s))
    pluecker = [matrix.det([[col[i] for col in cols] for i in rows])
                for rows in subsets]
    compound = [[matrix.det([[b.t[i][j] for j in J] for i in I])
                 for J in subsets] for I in subsets]
    return line_subbundle_degree(P1Bundle(b.p, tuple(map(tuple, compound))),
                                 pluecker)


@dataclass(frozen=True)
class AdaptedFrames:
    """Chart frames aligned with a saturated sub-bundle.

    b0: chart-0 unimodular frame (Poly), first `sub_rank` columns span the
    sub-bundle there; b1y likewise on chart 1 in the y variable;
    t_adapted = B1^(-1) T B0 is block upper triangular.
    """

    p: int
    sub_rank: int
    b0: tuple
    b1y: tuple
    t_adapted: tuple

    @property
    def t_sub(self):
        s = self.sub_rank
        return [list(r[:s]) for r in self.t_adapted[:s]]

    @property
    def t_quot(self):
        s = self.sub_rank
        return [list(r[s:]) for r in self.t_adapted[s:]]


def sub_adapted(b: P1Bundle, gens) -> AdaptedFrames:
    """Adapt both chart frames to the saturation of the span of `gens`
    (chart-0 polynomial vectors)."""
    r = b.rank
    p = b.p
    mat = [[gens[c][i] for c in range(len(gens))] for i in range(r)]
    sat0 = polymat.saturate(mat)
    s = len(sat0)
    if s == 0:
        raise ValueError("no sub-bundle: zero generators")
    B0 = _complete_frame(sat0, r)
    carried = [matrix.vec(b.matrix(), [Laurent.from_poly(q) for q in col])
               for col in sat0]
    cleared = []
    for col in carried:
        m = max(e.max_exp() for e in col if not e.is_zero())
        cleared.append([e.shift(-m).to_poly_z() for e in col])
    sat1 = polymat.saturate([[cleared[c][i] for c in range(s)]
                             for i in range(r)])
    if len(sat1) != s:
        raise AssertionError("chart-1 saturation changed rank")
    B1y = _complete_frame(sat1, r)
    B1inv = lmat_from_ypoly(polymat.pmat_inverse(B1y))
    Tt = matrix.mul(B1inv, matrix.mul(b.matrix(), lmat_from_xpoly(B0)))
    for i in range(s, r):
        for j in range(s):
            if not Tt[i][j].is_zero():
                raise AssertionError("adapted transition is not block "
                                     "triangular; generators not a sub-bundle")
    return AdaptedFrames(p, s, tuple(tuple(r_) for r_ in B0),
                         tuple(tuple(r_) for r_ in B1y),
                         tuple(tuple(r_) for r_ in Tt))
