"""Matrix algebra over the PID F_p[y]: Smith form, saturation, completions.

Matrices are lists of row lists with Poly entries.  Smith transforms are
accumulated exactly, so every result is certified by re-multiplication in the
tests.  Saturation (torsion-free closure of a column span) and unimodular
completion of a saturated basis are the primitives the geometric layers use to
manipulate subbundles.
"""
from __future__ import annotations

from .poly import Poly, RatFun
from . import matrix
from .rings import ObjField


def is_unimodular(M) -> bool:
    """Invertible over F_p[y]: det a nonzero constant."""
    try:
        d = matrix.det(M)
    except ValueError:
        return False
    return (not d.is_zero()) and d.is_constant()


def pmat_inverse(M):
    """Inverse of a unimodular matrix (adjugate / det)."""
    d = matrix.det(M)
    if d.is_zero() or not d.is_constant():
        raise ValueError("matrix is not unimodular")
    p = d.p
    dinv = Poly.const(p, pow(d[0], p - 2, p))
    return matrix.scale(dinv, matrix.adjugate(M))


def smith_normal_form(M):
    """Smith form over F_p[y]: returns (U, S, V) with U*M*V = S.

    S is diagonal with monic entries s_1 | s_2 | ..., U and V unimodular.
    Deterministic pivoting: least degree, then row, then column.
    """
    n, m = matrix.shape(M)
    if n == 0 or m == 0:
        return [], [list(r) for r in M], []
    p = M[0][0].p
    A = [list(row) for row in M]
    U = matrix.identity(Poly, p, n)
    V = matrix.identity(Poly, p, m)

    def row_op(i, j, f):  # row_i += f * row_j  (on A and U)
        A[i] = [a + f * b for a, b in zip(A[i], A[j])]
        U[i] = [a + f * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, f):  # col_i += f * col_j
        for r in range(n):
            A[r][i] = A[r][i] + f * A[r][j]
        for r in range(m):
            V[r][i] = V[r][i] + f * V[r][j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(m):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def scale_row(i, c):
        cc = Poly.const(p, c)
        A[i] = [cc * a for a in A[i]]
        U[i] = [cc * a for a in U[i]]

    for t in range(min(n, m)):
        while True:
            # deterministic minimal-degree pivot among A[t:][t:]
            best = None
            for i in range(t, n):
                for j in range(t, m):
                    if not A[i][j].is_zero():
                        key = (A[i][j].degree, i, j)
                        if best is None or key < best[0]:
                            best = (key, i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            piv = A[t][t]
            dirty = False
            for i in range(t + 1, n):
                if not A[i][t].is_zero():
                    q = A[i][t] // piv
                    row_op(i, t, -q)
                    if not A[i][t].is_zero():
                        dirty = True
            for j in range(t + 1, m):
                if not A[t][j].is_zero():
                    q = A[t][j] // piv
                    col_op(j, t, -q)
                    if not A[t][j].is_zero():
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block; if not, fold the
            # offending row in and restart the reduction at this corner
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if not (A[i][j] % piv).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, Poly.one(p))
        if not A[t][t].is_zero() and A[t][t].lc() != 1:
            scale_row(t, pow(A[t][t].lc(), p - 2, p))

    return U, A, V


def smith_diagonal(M):
    _, S, _ = smith_normal_form(M)
    n, m = matrix.shape(S)
    return [S[i][i] for i in range(min(n, m))]


def kernel_saturated(M):
    """Basis (list of column vectors) of ker(M) in F_p[y]^m; free & saturated."""
    n, m = matrix.shape(M)
    U, S, V = smith_normal_form(M)
    r = sum(1 for i in range(min(n, m)) if not S[i][i].is_zero())
    return [[V[row][j] for row in range(m)] for j in range(r, m)]


def saturate(generators):
    """Saturation of the column span of `generators` inside F_p[y]^n.

    Returns a free basis (columns) of {v : f*v in span for some f != 0}.
    """
    n, m = matrix.shape(generators)
    if m == 0:
        return []
    U, S, V = smith_normal_form(generators)
    Uinv = pmat_inverse(U)
    r = sum(1 for i in range(min(n, m)) if not S[i][i].is_zero())
    return [[Uinv[row][j] for row in range(n)] for j in range(r)]


def solve_over_ring(M, b):
    """One solution x of M x = b over F_p[y], or None when unsolvable."""
    n, m = matrix.shape(M)
    p = M[0][0].p
    U, S, V = smith_normal_form(M)
    c = [sum((U[i][j] * b[j] for j in range(n)), Poly.zero(p)) for i in range(n)]
    z = [Poly.zero(p)] * m
    for i in range(n):
        s = S[i][i] if i < min(n, m) else Poly.zero(p)
        if s.is_zero():
            if not c[i].is_zero():
                return None
        else:
            q, r = divmod(c[i], s)
            if not r.is_zero():
                return None
            if i < m:
                z[i] = q
    return [sum((V[i][j] * z[j] for j in range(m)), Poly.zero(p)) for i in range(m)]


def submodule_contains(basis_cols, v) -> bool:
    """Is the column vector v in the span of basis_cols over F_p[y]?"""
    if not basis_cols:
        return all(x.is_zero() for x in v)
    n = len(basis_cols[0])
    M = [[basis_cols[j][i] for j in range(len(basis_cols))] for i in range(n)]
    return solve_over_ring(M, list(v)) is not None


def submodule_intersect(A, B):
    """Intersection of two saturated column-span submodules."""
    if not A or not B:
        return []
    n = len(A[0])
    p = A[0][0].p
    M = [[A[j][i] for j in range(len(A))] + [-B[j][i] for j in range(len(B))]
         for i in range(n)]
    K = kernel_saturated(M)
    out = []
    for k in K:
        u = k[:len(A)]
        out.append([sum((A[j][i] * u[j] for j in range(len(A))), Poly.zero(p))
                    for i in range(n)])
    # the map ker -> A cap B is an isomorphism, so `out` is already a basis
    return out


def complete_unimodular(basis_cols, n):
    """Extend a saturated free basis (columns in F_p[y]^n) to a unimodular matrix.

    Returns a square matrix whose first k columns span the same submodule.
    """
    p = basis_cols[0][0].p if basis_cols else None
    k = len(basis_cols)
    if k == 0:
        raise ValueError("empty basis")
    M = [[basis_cols[j][i] for j in range(k)] for i in range(n)]
    U, S, V = smith_normal_form(M)
    for i in range(k):
        if S[i][i].is_zero() or not S[i][i].is_constant():
            raise ValueError("basis is not saturated/free")
    Uinv = pmat_inverse(U)
    # columns: images of the basis (span preserved) then fresh directions
    first = matrix.mul(M, V)
    cols = [[first[i][j] for i in range(n)] for j in range(k)]
    cols += [[Uinv[i][j] for i in range(n)] for j in range(k, n)]
    out = [[cols[j][i] for j in range(n)] for i in range(n)]
    if not is_unimodular(out):
        raise AssertionError("completion failed unimodularity check")
    return out


def ratfun_field(p):
    return ObjField(RatFun.zero(p), RatFun.one(p))
