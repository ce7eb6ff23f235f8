"""`linalg` over F_p against a textbook elimination written here: full-row
updates and one modular inverse per pivot, with every entry reduced as it
is computed.  The reduced echelon form of a matrix is unique, so the two
must agree exactly, and so must everything read off it."""
import random

import pytest

from hdrflow.exact import linalg, matrix
from hdrflow.exact.poly import Poly


def random_matrix(rng, p, n, m, density):
    """Entries in (-2p, 2p): unreduced and negative ints as well as zeros."""
    return [[rng.randrange(-2 * p, 2 * p) if rng.random() < density else 0
             for _ in range(m)] for _ in range(n)]


def cases(p):
    rng = random.Random(f"linalg:{p}")
    out = [[], [[]], [[], []], [[0, 0, 0], [0, p, -p]], [[-1]], [[p]]]
    for _ in range(12):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        out.append(random_matrix(rng, p, n, m, rng.choice((0.3, 0.7, 1.0))))
    # rank-deficient: one row a combination of two others
    for _ in range(4):
        M = random_matrix(rng, p, 3, 5, 1.0)
        a, b = rng.randrange(p), rng.randrange(p)
        M.append([a * x + b * y - p for x, y in zip(M[0], M[1])])
        out.append(M)
    return out


PRIMES = (3, 5, 97)


# -- the reference --------------------------------------------------------------

def ref_rref(p, M):
    R = [[a % p for a in row] for row in M]
    n, m = len(R), len(R[0]) if R else 0
    piv = []
    for c in range(m):
        r = len(piv)
        pr = next((i for i in range(r, n) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = pow(R[r][c], -1, p)
        R[r] = [inv * a % p for a in R[r]]
        for i in range(n):
            if i != r:
                f = R[i][c]
                R[i] = [(a - f * b) % p for a, b in zip(R[i], R[r])]
        piv.append(c)
    return R, piv


def ref_kernel(p, M):
    m = len(M[0]) if M else 0
    R, piv = ref_rref(p, M)
    out = []
    for c in (c for c in range(m) if c not in piv):
        v = [0] * m
        v[c] = 1
        for i, pc in enumerate(piv):
            v[pc] = -R[i][c] % p
        out.append(v)
    return out


def ref_span(p, vectors):
    R, piv = ref_rref(p, vectors)
    return R[:len(piv)]


def ref_intersect(p, A, B, m):
    if not A or not B:
        return []
    R, _ = ref_rref(p, [list(v) * 2 for v in A] + [list(v) + [0] * m
                                                   for v in B])
    return ref_span(p, [row[m:] for row in R
                        if not any(row[:m]) and any(row[m:])])


def ref_solve(p, A, b):
    m = len(A[0]) if A else 0
    if len(b) != len(A):
        raise ValueError("rhs length mismatch")
    R, piv = ref_rref(p, [list(row) + [bv] for row, bv in zip(A, b)])
    if m in piv:
        return linalg.SolveResult(None, ref_kernel(p, A))
    x = [0] * m
    for i, pc in enumerate(piv):
        x[pc] = R[i][m]
    return linalg.SolveResult(x, ref_kernel(p, A))


def ref_inverse(p, M):
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("not square")
    R, piv = ref_rref(p, [list(row) + [int(i == j) for j in range(n)]
                          for i, row in enumerate(M)])
    if piv[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in R[:n]]


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return "ok", fn(*args)
    except ValueError as e:
        return ValueError, str(e)


@pytest.mark.parametrize("p", PRIMES)
def test_elimination_equals_the_textbook_reference(p):
    rng = random.Random(p)
    for M in cases(p):
        m = len(M[0]) if M else 0
        for fn, ref in ((linalg.rref, ref_rref),
                        (linalg.kernel_basis, ref_kernel),
                        (linalg.rank, lambda p, M: len(ref_rref(p, M)[1])),
                        (linalg.span_basis, ref_span)):
            assert outcome(fn, p, M) == outcome(ref, p, M), (fn.__name__, M)
        B = random_matrix(rng, p, rng.randint(0, 3), m, 0.7)
        assert (outcome(linalg.subspace_intersect, p, M, B, m)
                == outcome(ref_intersect, p, M, B, m))
        rhs = [rng.randrange(-p, p) for _ in M]
        for b in (rhs, rhs + [1]):
            assert (outcome(linalg.solve_linear, p, M, b)
                    == outcome(ref_solve, p, M, b))
        assert outcome(linalg.inverse, p, M) == outcome(ref_inverse, p, M)


@pytest.mark.parametrize("p", PRIMES)
def test_det_equals_the_polynomial_determinant(p):
    rng = random.Random(f"det:{p}")
    square = [random_matrix(rng, p, n, n, rng.choice((0.5, 1.0)))
              for n in (1, 2, 3, 3, 4, 4, 5, 5)]
    assert linalg.det(p, []) == 1
    for M in cases(p) + square:
        if len(M) != (len(M[0]) if M else 0):
            assert outcome(linalg.det, p, M) == (ValueError, "not square")
        elif M:
            want = matrix.det([[Poly.const(p, a) for a in row] for row in M])
            assert linalg.det(p, M) == want[0]


@pytest.mark.parametrize("p", PRIMES)
def test_int_path_results_are_reduced_and_correct(p):
    for M in cases(p):
        R, piv = linalg.rref(p, M)
        assert all(0 <= a < p for row in R for a in row)
        for v in linalg.kernel_basis(p, M):
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0
                       for row in M)
        if M and len(M) == len(M[0]) and len(piv) == len(M):
            inv = linalg.inverse(p, M)
            assert linalg.mat_mul(p, M, inv) == linalg.identity(len(M))
