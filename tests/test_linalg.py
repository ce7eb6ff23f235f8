"""The plain-int elimination over F_p against the generic field-ops path.

`linalg` takes its int path only when the field object is exactly `Fp`; a
subclass that changes nothing goes through the generic method calls, so the
two paths can be compared on the same matrices."""
import random

import pytest

from hdrflow.exact import linalg
from hdrflow.exact.rings import Fp


class GenericFp(Fp):
    """Fp's ops through the generic path of `linalg`."""


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


def both(fn, p, *args):
    """fn over Fp and over GenericFp; a raised error must be the same too."""
    got = []
    for F in (Fp(p), GenericFp(p)):
        try:
            got.append(("ok", fn(F, *args)))
        except (ValueError, ZeroDivisionError) as e:
            got.append((type(e), str(e)))
    return got


@pytest.mark.parametrize("p", PRIMES)
def test_int_path_equals_generic_path(p):
    rng = random.Random(p)
    for M in cases(p):
        m = len(M[0]) if M else 0
        for fn in (linalg.rref, linalg.kernel_basis, linalg.rank,
                   linalg.span_basis):
            fast, slow = both(fn, p, M)
            assert fast == slow, (fn.__name__, M)
        B = random_matrix(rng, p, rng.randint(0, 3), m, 0.7)
        fast, slow = both(linalg.subspace_intersect, p, M, B, m)
        assert fast == slow
        rhs = [rng.randrange(-p, p) for _ in M]
        fast, slow = both(linalg.solve_linear, p, M, rhs)
        assert fast == slow
        if len(M) == m:
            fast, slow = both(linalg.inverse, p, M)
            assert fast == slow


@pytest.mark.parametrize("p", PRIMES)
def test_int_path_results_are_reduced_and_correct(p):
    F = Fp(p)
    for M in cases(p):
        R, piv = linalg.rref(F, M)
        assert all(0 <= a < p for row in R for a in row)
        for v in linalg.kernel_basis(F, M):
            assert all(sum(a * x for a, x in zip(row, v)) % p == 0
                       for row in M)
        if M and len(M) == len(M[0]) and len(piv) == len(M):
            inv = linalg.inverse(F, M)
            assert linalg.mat_mul(F, M, inv) == linalg.identity(F, len(M))
