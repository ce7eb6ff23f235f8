"""Dense matrices over the exact rings: F_p[x] and F_p[y] (`Poly`),
F_p[x, 1/x] (`Laurent`), F_p(x) (`RatFun`) and F_p[u, v] (`BiPoly`).

Matrices are lists (or tuples) of rows.  An entry carries `.p`, overloads
+ - *, answers `is_zero()`, and its class has `zero(p)` and `one(p)`.
Nothing here divides, so one code path serves the field and the rings;
inverses live with their ring (`rmat.rmat_inverse`, `polymat.pmat_inverse`).
"""
from __future__ import annotations


def shape(M):
    return len(M), len(M[0]) if M else 0


def identity(ring, p: int, n: int):
    one, zero = ring.one(p), ring.zero(p)  # entries are immutable: share them
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def from_columns(cols):
    """The matrix whose columns are the given vectors."""
    return [list(r) for r in zip(*cols)]


def eq(A, B) -> bool:
    return shape(A) == shape(B) and all(
        a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def is_zero(M) -> bool:
    return all(a.is_zero() for r in M for a in r)


def add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def scale(f, M):
    return [[f * a for a in r] for r in M]


def mul(A, B):
    n, k = shape(A)
    k2, m = shape(B)
    if k != k2:
        raise ValueError("shape mismatch")
    a0 = A[0][0] if n and k else B[0][0]
    ring, p = type(a0), a0.p
    out = [[ring.zero(p) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        Oi = out[i]
        for t in range(k):
            a = A[i][t]
            if a.is_zero():
                continue
            Bt = B[t]
            for j in range(m):
                if not Bt[j].is_zero():
                    Oi[j] = Oi[j] + a * Bt[j]
    return out


def vec(A, v):
    a0 = A[0][0]
    out = [type(a0).zero(a0.p) for _ in A]
    for i, row in enumerate(A):
        for a, x in zip(row, v):
            if not a.is_zero() and not x.is_zero():
                out[i] = out[i] + a * x
    return out


def det(M):
    """Laplace expansion along the first row.

    Division-free, because F_p[x], F_p[x, 1/x] and F_p[u, v] are not
    fields; the matrices here have at most five rows."""
    n, m = shape(M)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return M[0][0]
    a0 = M[0][0]
    out = type(a0).zero(a0.p)
    for j, a in enumerate(M[0]):
        if a.is_zero():
            continue
        term = a * det([row[:j] + row[j + 1:] for row in M[1:]])
        out = out - term if j % 2 else out + term
    return out


def adjugate(M):
    """adj(M): M adj(M) = adj(M) M = det(M) I."""
    n, m = shape(M)
    if n != m:
        raise ValueError("adjugate of a non-square matrix")
    a0 = M[0][0]
    if n == 1:
        return [[type(a0).one(a0.p)]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        rest = [row for k, row in enumerate(M) if k != i]
        for j in range(n):
            cof = det([row[:j] + row[j + 1:] for row in rest])
            out[j][i] = -cof if (i + j) % 2 else cof
    return out
