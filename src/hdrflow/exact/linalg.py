"""Generic dense linear algebra over an exact field.

All routines take a field-ops object F (see rings.py) and matrices as lists
of row lists.  Everything is deterministic: pivots are chosen by position, and
returned bases are in reduced echelon form, so repeated runs agree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .rings import Fp


def mat_shape(M):
    return len(M), len(M[0]) if M else 0


def zeros(F, n, m):
    return [[F.zero] * m for _ in range(n)]


def identity(F, n):
    M = zeros(F, n, n)
    for i in range(n):
        M[i][i] = F.one
    return M


def mat_mul(F, A, B):
    n, k = mat_shape(A)
    k2, m = mat_shape(B)
    if k != k2:
        raise ValueError("matrix shape mismatch")
    Bt = list(zip(*B)) if B else []
    out = zeros(F, n, m)
    for i in range(n):
        Ai = A[i]
        for j in range(m):
            s = F.zero
            for t in range(k):
                a = Ai[t]
                if not F.is_zero(a):
                    s = F.add(s, F.mul(a, Bt[j][t]))
            out[i][j] = s
    return out


def mat_vec(F, A, v):
    return [c[0] for c in mat_mul(F, A, [[x] for x in v])]


def rref(F, M):
    """Reduced row echelon form. Returns (R, pivot column list)."""
    if type(F) is Fp:
        return _rref_fp(F.p, M)
    R = [list(row) for row in M]
    n, m = mat_shape(R)
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if not F.is_zero(R[i][c])), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = F.inv(R[r][c])
        R[r] = [F.mul(inv, a) for a in R[r]]
        for i in range(n):
            if i != r and not F.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return R[:r] + [[F.zero] * m for _ in range(n - r)], pivots


def _rref_fp(p, M):
    """`rref` over F_p on plain ints: the same steps and the same result,
    with every entry reduced once up front and `% p` written inline."""
    R = [[a % p for a in row] for row in M]
    n, m = mat_shape(R)
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        piv = R[r]
        # the pivot row is zero left of c: only its support takes part
        nz = [(j, b) for j, b in enumerate(piv[c:], c) if b]
        inv = pow(piv[c], p - 2, p)
        if inv != 1:
            nz = [(j, inv * b % p) for j, b in nz]
            for j, b in nz:
                piv[j] = b
        for i in range(n):
            f = R[i][c]
            if f and i != r:
                row = R[i]
                for j, b in nz:
                    row[j] = (row[j] - f * b) % p
        pivots.append(c)
        r += 1
        if r == n:
            break
    return R[:r] + [[0] * m for _ in range(n - r)], pivots


def rank(F, M):
    return len(rref(F, M)[1])


def kernel_basis(F, M):
    """Basis of the right kernel {v : M v = 0}, canonical (one per free col)."""
    n, m = mat_shape(M)
    R, pivots = rref(F, M)
    pivset = set(pivots)
    free = [c for c in range(m) if c not in pivset]
    basis = []
    if type(F) is Fp:
        p = F.p
        cols = list(zip(*R[:len(pivots)])) or [()] * m
        for c in free:
            v = [0] * m
            v[c] = 1
            for pc, a in zip(pivots, cols[c]):
                if a:
                    v[pc] = p - a  # -a, as a is reduced
            basis.append(v)
        return basis
    for c in free:
        v = [F.zero] * m
        v[c] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R[i][c])
        basis.append(v)
    return basis


@dataclass
class SolveResult:
    """Outcome of an exact linear solve: particular solution + kernel basis.

    solution is None when the system is inconsistent.
    """
    solution: list | None
    kernel: list

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def solve_linear(F, A, b) -> SolveResult:
    """Solve A x = b over the field F; full solution-set description."""
    n, m = mat_shape(A)
    if len(b) != n:
        raise ValueError("rhs length mismatch")
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(F, aug)
    if m in pivots:
        return SolveResult(None, kernel_basis(F, A))
    x = [F.zero] * m
    for i, pc in enumerate(pivots):
        x[pc] = R[i][m]
    return SolveResult(x, kernel_basis(F, A))


def inverse(F, M):
    n, m = mat_shape(M)
    if n != m:
        raise ValueError("not square")
    aug = [list(row) + list(idr) for row, idr in zip(M, identity(F, n))]
    R, pivots = rref(F, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in R[:n]]


def det(F, M):
    n, m = mat_shape(M)
    if n != m:
        raise ValueError("not square")
    A = [list(row) for row in M]
    d = F.one
    for c in range(n):
        pr = next((i for i in range(c, n) if not F.is_zero(A[i][c])), None)
        if pr is None:
            return F.zero
        if pr != c:
            A[c], A[pr] = A[pr], A[c]
            d = F.neg(d)
        d = F.mul(d, A[c][c])
        inv = F.inv(A[c][c])
        for i in range(c + 1, n):
            if not F.is_zero(A[i][c]):
                f = F.mul(inv, A[i][c])
                A[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(A[i], A[c])]
    return d


# -- subspaces (row-span convention, canonical rref bases) ------------------

def span_basis(F, vectors):
    if not vectors:
        return []
    R, piv = rref(F, vectors)
    return R[:len(piv)]


def subspace_contains(F, A, v) -> bool:
    """Is vector v in the row span of A?"""
    if all(F.is_zero(x) for x in v):
        return True
    if not A:
        return False
    return rank(F, list(A) + [v]) == rank(F, A)


def subspace_leq(F, A, B) -> bool:
    return all(subspace_contains(F, B, v) for v in A)


def subspace_intersect(F, A, B, m):
    """Zassenhaus: intersection of row spans inside F^m."""
    if not A or not B:
        return []
    rows = [list(v) + list(v) for v in A] + [list(v) + [F.zero] * m for v in B]
    R, piv = rref(F, rows)
    out = []
    for row in R:
        left, right = row[:m], row[m:]
        if all(F.is_zero(a) for a in left) and not all(F.is_zero(a) for a in right):
            out.append(right)
    return span_basis(F, out)
