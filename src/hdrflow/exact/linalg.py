"""Dense linear algebra over F_p on plain ints.

Every routine takes the prime p and matrices as lists of row lists of ints;
entries may come in unreduced, and results are reduced to [0, p).
Everything is deterministic: pivots are chosen by position, and returned
bases are in reduced echelon form, so repeated runs agree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass


def mat_shape(M):
    return len(M), len(M[0]) if M else 0


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(p, A, B):
    _, k = mat_shape(A)
    k2, _ = mat_shape(B)
    if k != k2:
        raise ValueError("matrix shape mismatch")
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(Ai, col)) % p for col in Bt]
            for Ai in A]


def mat_vec(p, A, v):
    return [c[0] for c in mat_mul(p, A, [[x] for x in v])]


def rref(p, M):
    """Reduced row echelon form. Returns (R, pivot column list).

    Every entry is reduced once up front; each pivot row is scaled by one
    modular inverse, and only its support takes part in the updates."""
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


def rank(p, M):
    return len(rref(p, M)[1])


def kernel_basis(p, M):
    """Basis of the right kernel {v : M v = 0}, canonical (one per free col)."""
    _, m = mat_shape(M)
    R, pivots = rref(p, M)
    pivset = set(pivots)
    cols = list(zip(*R[:len(pivots)])) or [()] * m
    basis = []
    for c in range(m):
        if c in pivset:
            continue
        v = [0] * m
        v[c] = 1
        for pc, a in zip(pivots, cols[c]):
            if a:
                v[pc] = p - a  # -a, as a is reduced
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


def solve_linear(p, A, b) -> SolveResult:
    """Solve A x = b over F_p; full solution-set description."""
    n, m = mat_shape(A)
    if len(b) != n:
        raise ValueError("rhs length mismatch")
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(p, aug)
    if m in pivots:
        return SolveResult(None, kernel_basis(p, A))
    x = [0] * m
    for i, pc in enumerate(pivots):
        x[pc] = R[i][m]
    return SolveResult(x, kernel_basis(p, A))


def inverse(p, M):
    n, m = mat_shape(M)
    if n != m:
        raise ValueError("not square")
    aug = [list(row) + idr for row, idr in zip(M, identity(n))]
    R, pivots = rref(p, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in R[:n]]


def det(p, M):
    n, m = mat_shape(M)
    if n != m:
        raise ValueError("not square")
    A = [[a % p for a in row] for row in M]
    d = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if A[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            A[c], A[pr] = A[pr], A[c]
            d = -d
        d = d * A[c][c] % p
        inv = pow(A[c][c], p - 2, p)
        for i in range(c + 1, n):
            if A[i][c]:
                f = inv * A[i][c]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[c])]
    return d % p


# -- subspaces (row-span convention, canonical rref bases) ------------------

def span_basis(p, vectors):
    if not vectors:
        return []
    R, piv = rref(p, vectors)
    return R[:len(piv)]


def subspace_contains(p, A, v) -> bool:
    """Is vector v in the row span of A?"""
    if all(x % p == 0 for x in v):
        return True
    if not A:
        return False
    return rank(p, list(A) + [v]) == rank(p, A)


def subspace_leq(p, A, B) -> bool:
    return all(subspace_contains(p, B, v) for v in A)


def subspace_intersect(p, A, B, m):
    """Zassenhaus: intersection of row spans inside F_p^m."""
    if not A or not B:
        return []
    rows = [list(v) + list(v) for v in A] + [list(v) + [0] * m for v in B]
    R, _ = rref(p, rows)
    out = [row[m:] for row in R if not any(row[:m]) and any(row[m:])]
    return span_basis(p, out)
