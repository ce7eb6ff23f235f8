"""Matrix algebra over the PID F_p[y]: Smith form, saturation, completions.

Matrices are lists of row lists with Poly entries.  One Smith elimination
(`smith_form`) accumulates U, V and U^{-1} exactly, so every result is
certified by re-multiplication in the tests, and one form answers a whole
batch of right-hand sides.  Saturation (torsion-free closure of a column
span) and unimodular completion of a saturated basis are the primitives the
geometric layers use to manipulate subbundles.  `pmat_inverse` (adjugate over
det) is left for frames that were not built by an elimination.
"""
from __future__ import annotations

from .poly import Poly
from . import matrix


def is_unimodular(M) -> bool:
    """Invertible over F_p[y]: det a nonzero constant."""
    try:
        d = matrix.det(M)
    except ValueError:
        return False
    return (not d.is_zero()) and d.is_constant()


def nonsingular(M) -> bool:
    """Is the square matrix M invertible over the fraction field F_p(y)?
    Fraction-free (Bareiss) elimination: every division by the previous
    pivot is exact, so degrees grow linearly and the cost is cubic, where a
    determinant expansion is factorial in the size."""
    A = [list(r) for r in M]
    n = len(A)
    prev = None
    for k in range(n):
        piv = next((i for i in range(k, n) if not A[i][k].is_zero()), None)
        if piv is None:
            return False
        A[k], A[piv] = A[piv], A[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                x = A[i][j] * A[k][k] - A[i][k] * A[k][j]
                A[i][j] = x if prev is None else x // prev
        prev = A[k][k]
    return True


def pmat_inverse(M):
    """Inverse of a unimodular matrix (adjugate / det)."""
    d = matrix.det(M)
    if d.is_zero() or not d.is_constant():
        raise ValueError("matrix is not unimodular")
    p = d.p
    dinv = Poly.const(p, pow(d[0], p - 2, p))
    return matrix.scale(dinv, matrix.adjugate(M))


class SmithForm:
    """U M V = S over F_p[y], with U^{-1} carried through the elimination.

    S is diagonal with monic entries s_1 | s_2 | ..., U and V unimodular,
    and `rank` counts the nonzero s_i.  One form answers every right-hand
    side (`solve`) and every saturation question about the column span of M.
    """

    __slots__ = ("U", "S", "V", "Uinv", "rank")

    def __init__(self, U, S, V, Uinv):
        self.U, self.S, self.V, self.Uinv = U, S, V, Uinv
        self.rank = sum(1 for s in self.diagonal() if not s.is_zero())

    def diagonal(self):
        n, m = matrix.shape(self.S)
        return [self.S[i][i] for i in range(min(n, m))]

    def kernel(self):
        """Free saturated basis (columns) of ker M."""
        V = self.V
        return [[row[j] for row in V] for j in range(self.rank, len(V))]

    def saturation(self):
        """Free basis (columns) of the saturation of the column span of M."""
        Uinv = self.Uinv
        return [[row[j] for row in Uinv] for j in range(self.rank)]

    def solve(self, rhs):
        """One solution x of M x = b for each column b of `rhs`, or None
        where M x = b has no solution over F_p[y]."""
        U, V = self.U, self.V
        d = self.diagonal()
        out = []
        for b in rhs:
            c = matrix.vec(U, b)
            z = [Poly.zero(b[0].p)] * len(V)
            for i, ci in enumerate(c):
                s = d[i] if i < len(d) else None
                if s is None or s.is_zero():
                    if not ci.is_zero():
                        z = None
                        break
                else:
                    q, r = divmod(ci, s)
                    if not r.is_zero():
                        z = None
                        break
                    z[i] = q
            out.append(None if z is None else matrix.vec(V, z))
        return out


def smith_form(M) -> SmithForm:
    """The one Smith elimination over F_p[y].

    Deterministic pivoting: least degree, then row, then column.  Each row
    operation on U is matched by the inverse column operation on U^{-1}.
    """
    n, m = matrix.shape(M)
    if n == 0 or m == 0:
        return SmithForm([], [list(r) for r in M], [], [])
    p = M[0][0].p
    A = [list(row) for row in M]
    U = matrix.identity(Poly, p, n)
    Uinv = matrix.identity(Poly, p, n)
    V = matrix.identity(Poly, p, m)

    def row_op(i, j, f):  # row_i += f row_j on A, U; col_j -= f col_i on U^-1
        A[i] = [a + f * b if b.c else a for a, b in zip(A[i], A[j])]
        U[i] = [a + f * b if b.c else a for a, b in zip(U[i], U[j])]
        for row in Uinv:
            if row[i].c:
                row[j] = row[j] - f * row[i]

    def col_op(i, j, f):  # col_i += f * col_j on A and V
        for row in A:
            if row[j].c:
                row[i] = row[i] + f * row[j]
        for row in V:
            if row[j].c:
                row[i] = row[i] + f * row[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def scale_row(i, c):  # row_i *= c on A and U; col_i *= 1/c on U^-1
        cc = Poly.const(p, c)
        A[i] = [cc * a for a in A[i]]
        U[i] = [cc * a for a in U[i]]
        ci = Poly.const(p, pow(c, p - 2, p))
        for row in Uinv:
            row[i] = ci * row[i]

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
            if piv.degree == 0:
                break
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

    return SmithForm(U, A, V, Uinv)


def smith_normal_form(M):
    """Smith form over F_p[y]: returns (U, S, V) with U*M*V = S."""
    f = smith_form(M)
    return f.U, f.S, f.V


def kernel_saturated(M):
    """Basis (list of column vectors) of ker(M) in F_p[y]^m; free & saturated."""
    return smith_form(M).kernel()


def saturate(generators):
    """Saturation of the column span of `generators` inside F_p[y]^n.

    Returns a free basis (columns) of {v : f*v in span for some f != 0}.
    """
    if not generators or not generators[0]:
        return []
    return smith_form(generators).saturation()


def solve_over_ring(M, rhs):
    """For each column b of `rhs`: one solution x of M x = b over F_p[y],
    or None when it is unsolvable.  One Smith form of M serves them all."""
    if not rhs:
        return []
    return smith_form(M).solve(rhs)


def submodule_contains(basis_cols, vectors) -> bool:
    """Does the span of basis_cols over F_p[y] hold every one of `vectors`?"""
    if not basis_cols:
        return all(x.is_zero() for v in vectors for x in v)
    if not vectors:
        return True
    M = matrix.from_columns(basis_cols)
    return all(x is not None for x in smith_form(M).solve(vectors))


def submodule_intersect(A, B):
    """Intersection of two saturated column-span submodules."""
    if not A or not B:
        return []
    Am = matrix.from_columns(A)
    M = [ra + [-b for b in rb] for ra, rb in zip(Am, matrix.from_columns(B))]
    # the map ker -> A cap B is an isomorphism, so the images are a basis
    return [matrix.vec(Am, k[:len(A)]) for k in kernel_saturated(M)]


def complete_unimodular(basis_cols, n):
    """Extend a saturated free basis (columns in F_p[y]^n) to a unimodular matrix.

    Returns a square matrix whose first k columns span the same submodule.
    """
    k = len(basis_cols)
    if k == 0:
        raise ValueError("empty basis")
    M = matrix.from_columns(basis_cols)
    f = smith_form(M)
    for s in f.diagonal():
        if s.is_zero() or not s.is_constant():
            raise ValueError("basis is not saturated/free")
    # columns: images of the basis (span preserved) then fresh directions
    first = matrix.mul(M, f.V)
    out = [first[i][:k] + f.Uinv[i][k:] for i in range(n)]
    if not is_unimodular(out):
        raise AssertionError("completion failed unimodularity check")
    return out
