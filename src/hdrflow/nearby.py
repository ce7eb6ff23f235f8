"""Local models for restriction to a boundary divisor component.

The chart is Spec F_p[x, y] with the component Y = {x = 0} always part of
the log divisor; the second component {y = 0} is optional and its presence
switches the y-direction form between dy and dy/y.  A Higgs field is

    theta = theta_x (x) dx/x + theta_y (x) omega_y,

commuting matrix components over F_p[x, y].  Restriction to Y produces a
free F_p[y]-module with two commuting operators (the residue direction R
and the y-direction Theta), or with R and a connection operator when the
input was a flat connection instead of a Higgs field.  The graded functor
takes the saturated monodromy filtration of R over F_p[y] and returns the
graded pieces, which carry zero residue and an induced y-operator each.

The z-model check re-derives the restricted data on the normal-bundle
chart Spec F_p[y, t] and compares the Frobenius-divided transform computed
there against the pullback of the transform computed upstairs; this is the
module's executable consistency statement, and both paths share no code
beyond the arithmetic substrate.
"""
from __future__ import annotations

from dataclasses import dataclass

from .exact import matrix
from .exact.bipoly import BiPoly
from .exact.poly import Poly
from .exact.polymat import (complete_unimodular, is_unimodular, pmat_inverse,
                            solve_over_ring)
from .monodromy import (NilpotentOperator, monodromy_filtration,
                        verify_filtration_axioms)


# -- small matrix helpers (entries BiPoly or Poly) -----------------------------

def _mat(rows):
    return tuple(tuple(r) for r in rows)


def _commutator(A, B):
    return matrix.sub(matrix.mul(A, B), matrix.mul(B, A))


def _to_bmat(p, rows, r):
    out = []
    for row in rows:
        got = []
        for e in row:
            if isinstance(e, int):
                e = BiPoly.const(p, e)
            if not isinstance(e, BiPoly) or e.p != p:
                raise ValueError("entries must be BiPoly over the chart prime")
            got.append(e)
        if len(got) != r:
            raise ValueError("field matrix is not square of the module rank")
        out.append(got)
    if len(out) != r:
        raise ValueError("field matrix is not square of the module rank")
    return _mat(out)


def _to_ymat(p, rows, r):
    out = []
    for row in rows:
        got = []
        for e in row:
            if isinstance(e, int):
                e = Poly.const(p, e)
            if not isinstance(e, Poly) or e.p != p:
                raise ValueError("entries must be Poly in y over the prime")
            got.append(e)
        if len(got) != r:
            raise ValueError("operator matrix is not square of the rank")
        out.append(got)
    if len(out) != r:
        raise ValueError("operator matrix is not square of the rank")
    return _mat(out)


def _delta_y(M, y_log):
    """The y-derivation matching the chosen form: y d/dy for dy/y, else d/dy."""
    if y_log:
        return _mat([[e.deriv().shift(1) if isinstance(e, Poly)
                      else e.deriv_v().mul_v() for e in row] for row in M])
    return _mat([[e.deriv() if isinstance(e, Poly) else e.deriv_v()
                  for e in row] for row in M])


# -- chart-level objects -------------------------------------------------------

@dataclass(frozen=True)
class LocalLogHiggsModule:
    """Free module over F_p[x, y] with a log Higgs field along {x=0} and,
    when y_log is set, along {y=0} as well."""

    p: int
    rank: int
    theta_x: tuple
    theta_y: tuple
    y_log: bool


@dataclass(frozen=True)
class LocalLogConnection:
    p: int
    rank: int
    a_x: tuple   # against dx/x
    a_y: tuple   # against dy/y when y_log, else against dy
    y_log: bool


@dataclass(frozen=True)
class LY0Module:
    """Restriction to Y of a Higgs module: commuting O_Y-linear operators."""

    p: int
    rank: int
    r_op: tuple
    theta_op: tuple
    y_log: bool


@dataclass(frozen=True)
class LYModule:
    """Restriction to Y of a flat connection: an O_Y-linear residue operator
    R and the y-direction operator delta_y + b_op (delta_y = y d/dy when
    y_log, plain d/dy otherwise)."""

    p: int
    rank: int
    r_op: tuple
    b_op: tuple
    y_log: bool


def local_higgs_module(p, theta_x, theta_y, y_log=False) -> LocalLogHiggsModule:
    r = len(theta_x)
    tx = _to_bmat(p, theta_x, r)
    ty = _to_bmat(p, theta_y, r)
    if not matrix.is_zero(_commutator(tx, ty)):
        raise ValueError("field components do not commute")
    return LocalLogHiggsModule(p, r, tx, ty, bool(y_log))


def local_log_connection(p, a_x, a_y, y_log=False) -> LocalLogConnection:
    """Flat connection d + a_x dx/x + a_y omega_y; flatness is the chart
    identity x d/dx(a_y) - delta_y(a_x) + [a_x, a_y] = 0."""
    r = len(a_x)
    ax = _to_bmat(p, a_x, r)
    ay = _to_bmat(p, a_y, r)
    lhs = matrix.sub([[e.deriv_u().mul_u() for e in row] for row in ay],
                     _delta_y(ax, y_log))
    lhs = matrix.add(lhs, _commutator(ax, ay))
    if not matrix.is_zero(lhs):
        raise ValueError("connection is not flat on the chart")
    return LocalLogConnection(p, r, ax, ay, bool(y_log))


def ly0_module(p, r_op, theta_op, y_log=False) -> LY0Module:
    r = len(r_op)
    R = _to_ymat(p, r_op, r)
    T = _to_ymat(p, theta_op, r)
    if not matrix.is_zero(_commutator(R, T)):
        raise ValueError("restricted operators do not commute")
    return LY0Module(p, r, R, T, bool(y_log))


def ly_module(p, r_op, b_op, y_log=False) -> LYModule:
    r = len(r_op)
    R = _to_ymat(p, r_op, r)
    B = _to_ymat(p, b_op, r)
    probe = matrix.sub(_delta_y(R, y_log), _commutator(R, B))
    if not matrix.is_zero(probe):
        raise ValueError("residue operator is not flat for the connection")
    return LYModule(p, r, R, B, bool(y_log))


# -- restriction to the component ----------------------------------------------

def phi_restrict(m: LocalLogHiggsModule) -> LY0Module:
    """Set x = 0: the dx/x-coefficient becomes the residue operator R and
    the y-part becomes Theta; commutativity is inherited and re-checked."""
    R = [[e.restrict_u0() for e in row] for row in m.theta_x]
    T = [[e.restrict_u0() for e in row] for row in m.theta_y]
    return ly0_module(m.p, R, T, m.y_log)


def psi_restrict(con: LocalLogConnection) -> LYModule:
    R = [[e.restrict_u0() for e in row] for row in con.a_x]
    B = [[e.restrict_u0() for e in row] for row in con.a_y]
    return ly_module(con.p, R, B, con.y_log)


def residue_endomorphism(m):
    """The O_Y-linear residue operator, re-verified against the module
    structure: it must commute with Theta (Higgs side) or satisfy
    delta_y(R) = [R, b] (connection side).  The operator is a matrix, so
    O-linearity R(f v) = f R(v) holds identically; we still spot-check it
    on monomial vectors as the cheapest possible self-audit."""
    p, r = m.p, m.rank
    if isinstance(m, LY0Module):
        if not matrix.is_zero(_commutator(m.r_op, m.theta_op)):
            raise ValueError("residue does not commute with the y-operator")
    elif isinstance(m, LYModule):
        probe = matrix.sub(_delta_y(m.r_op, m.y_log),
                           _commutator(m.r_op, m.b_op))
        if not matrix.is_zero(probe):
            raise ValueError("residue does not commute with the connection")
    else:
        raise TypeError(f"no residue endomorphism on {type(m).__name__}")
    y = Poly.x(p)
    for j in range(r):
        for f in (Poly.one(p), y, y * y):
            v = [f if i == j else Poly.zero(p) for i in range(r)]
            image = matrix.vec(m.r_op, v)
            scaled = [f * m.r_op[i][j] for i in range(r)]
            assert image == scaled, "matrix action failed O-linearity"
    return m.r_op


def residue_along_component(m: LY0Module):
    """Residue along {y = 0}: evaluate the y-operator at y = 0.  Only
    meaningful when that component carries a log pole."""
    if not m.y_log:
        raise ValueError("chart has no log component along y = 0")
    return [[e[0] for e in row] for row in m.theta_op]


# -- graded functor via the saturated monodromy filtration ---------------------

@dataclass(frozen=True)
class UpsilonPiece:
    weight: int
    rank: int
    module: LY0Module   # zero residue: an honest log Higgs module on Y


@dataclass(frozen=True)
class Upsilon0Data:
    p: int
    y_log: bool
    level: int
    pieces: tuple
    filtration: tuple    # (weight, basis columns), ascending, for audit
    frame: tuple         # adapted unimodular frame, columns grouped by weight

    @property
    def total_rank(self):
        return sum(q.rank for q in self.pieces)


def upsilon0(m: LY0Module) -> Upsilon0Data:
    """Graded object of the saturated monodromy filtration of R.

    Theta preserves every filtration step because it commutes with R and
    saturation preserves stability; R strictly drops the weight by two, so
    every graded piece has zero residue and inherits only a y-operator.
    The filtration axioms (weight shift, generic graded isomorphisms,
    saturation, torsion-free quotients) are re-certified on every call.
    """
    p, r = m.p, m.rank
    op = NilpotentOperator.from_polys(p, [list(row) for row in m.r_op])
    filt = monodromy_filtration(op)
    audit = verify_filtration_axioms(op, filt)
    if not audit.all_pass:
        raise AssertionError(f"weight filtration failed audit: {audit.witness}")
    weights = filt.weights()
    # adapted frame: extend the adapted columns weight by weight; at each
    # new step express the old columns in the step basis, complete to a
    # unimodular square, and push back
    cols = []
    cuts = [0]
    for w in weights:
        basis = [list(b) for b in filt.basis_at(w)]
        nw = len(basis)
        if nw == len(cols):
            cuts.append(nw)
            continue
        if cols:
            bw = matrix.from_columns(basis)
            coords = solve_over_ring(bw, cols)
            if any(x is None for x in coords):
                raise AssertionError("filtration steps are not nested")
            comp = complete_unimodular(coords, nw)
            ext = [[x[i] for x in coords] + comp[i][len(cols):]
                   for i in range(nw)]
            frame_w = matrix.mul(bw, ext)
            cols = [[frame_w[i][j] for i in range(r)] for j in range(nw)]
        else:
            cols = [list(c) for c in basis]
        cuts.append(nw)
    G = [[cols[j][i] for j in range(r)] for i in range(r)]
    if not is_unimodular(G):
        raise AssertionError("adapted frame is not unimodular")
    gi = pmat_inverse(G)
    rt = matrix.mul(matrix.mul(gi, [list(rw) for rw in m.r_op]), G)
    tt = matrix.mul(matrix.mul(gi, [list(rw) for rw in m.theta_op]), G)
    # the y-operator must respect the weight steps (it commutes with R)
    for wi in range(len(weights)):
        for a in range(cuts[wi + 1], r):
            for b in range(cuts[wi], cuts[wi + 1]):
                if not tt[a][b].is_zero():
                    raise AssertionError("y-operator escapes a weight step")
    pieces = []
    for wi, w in enumerate(weights):
        lo, hi = cuts[wi], cuts[wi + 1]
        if hi == lo:
            continue
        rblock = [[rt[i][j] for j in range(lo, hi)] for i in range(lo, hi)]
        if not matrix.is_zero(rblock):
            raise AssertionError("graded residue is nonzero")
        tblock = [[tt[i][j] for j in range(lo, hi)] for i in range(lo, hi)]
        piece = ly0_module(p, rblock, tblock, m.y_log)
        pieces.append(UpsilonPiece(w, hi - lo, piece))
    filtration = tuple((w, tuple(tuple(c) for c in filt.basis_at(w)))
                       for w in weights)
    return Upsilon0Data(p, m.y_log, filt.hi, tuple(pieces), filtration,
                        tuple(tuple(c) for c in cols))


# -- the normal-bundle chart and its consistency check -------------------------

def z_model_build(m: LocalLogHiggsModule) -> LocalLogHiggsModule:
    """Transplant the restricted data to the chart F_p[y, t] of the normal
    bundle of Y: theta' = R (x) dt/t + Theta (x) omega_y, constant in t."""
    ly = phi_restrict(m)
    tx = [[BiPoly.from_v_poly(e) for e in row] for row in ly.r_op]
    ty = [[BiPoly.from_v_poly(e) for e in row] for row in ly.theta_op]
    return local_higgs_module(m.p, tx, ty, m.y_log)


def pair_nilpotency_level(m: LocalLogHiggsModule):
    """Least l such that every product theta_x^a theta_y^b with
    a + b = l + 1 vanishes, or None when the pair is not nilpotent."""
    p, r = m.p, m.rank

    def powers(M):  # M^0 .. M^(2r-1), each product taken once
        out = [matrix.identity(BiPoly, p, r)]
        for _ in range(2 * r - 1):
            out.append(matrix.mul(out[-1], M))
        return out

    px, py = powers(m.theta_x), powers(m.theta_y)
    if not (matrix.is_zero(px[r]) and matrix.is_zero(py[r])):
        return None
    for lv in range(2 * r - 1):
        if all(matrix.is_zero(matrix.mul(px[a], py[lv + 1 - a]))
               for a in range(lv + 2)):
            return lv
    return 2 * r - 2


def local_inverse_cartier(m: LocalLogHiggsModule) -> LocalLogConnection:
    """Frobenius-divided transform on the chart with the standard lifts
    x -> x^p, y -> y^p: substitute p-th powers into the field and multiply
    the y-part by y^(p-1) unless that direction carries a log pole."""
    p, r = m.p, m.rank
    if r > p:
        raise ValueError(f"rank {r} exceeds the prime {p}")
    lv = pair_nilpotency_level(m)
    if lv is None:
        raise ValueError("field is not nilpotent")
    if lv > p - 1:
        raise ValueError(f"nilpotency level {lv} exceeds p-1 = {p - 1}")
    ax = [[e.frobenius() for e in row] for row in m.theta_x]
    ay = [[e.frobenius() for e in row] for row in m.theta_y]
    if not m.y_log:
        fac = BiPoly.from_terms(p, {(0, p - 1): 1})
        ay = [[fac * e for e in row] for row in ay]
    return local_log_connection(p, ax, ay, m.y_log)


@dataclass(frozen=True)
class CompatibilityReport:
    equal: bool
    residue_square_ok: bool
    z_connection: LocalLogConnection
    pulled_back: LocalLogConnection
    detail: str = ""

    @property
    def ok(self):
        return self.equal and self.residue_square_ok


def z_model_compatibility(m: LocalLogHiggsModule) -> CompatibilityReport:
    """Compare the transform computed on the normal-bundle chart against
    the pullback of the restricted transform from upstairs.

    Path one: restrict first (z_model_build), then transform on F_p[y, t].
    Path two: transform upstairs, restrict to Y, then spread out along t.
    The residue square asserts that the transform of the restricted residue
    equals the residue of the transform.
    """
    p = m.p
    zc = local_inverse_cartier(z_model_build(m))
    upstairs = local_inverse_cartier(m)
    ly = psi_restrict(upstairs)
    ax = [[BiPoly.from_v_poly(e) for e in row] for row in ly.r_op]
    ay = [[BiPoly.from_v_poly(e) for e in row] for row in ly.b_op]
    pulled = local_log_connection(p, ax, ay, m.y_log)
    equal = zc.a_x == pulled.a_x and zc.a_y == pulled.a_y
    res_in = phi_restrict(m).r_op
    transformed = [[e.dilate(p) for e in row] for row in res_in]
    square = _mat(transformed) == ly.r_op
    detail = ""
    if not equal:
        which = []
        if zc.a_x != pulled.a_x:
            which.append("dt/t part")
        if zc.a_y != pulled.a_y:
            which.append("y part")
        detail = "mismatch in " + " and ".join(which)
    return CompatibilityReport(equal, square, zc, pulled, detail)
