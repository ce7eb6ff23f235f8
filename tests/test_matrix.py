import random

import pytest

from hdrflow.exact import matrix
from hdrflow.exact.laurent import Laurent
from hdrflow.exact.poly import Poly, RatFun
from hdrflow.exact.polymat import pmat_inverse
from hdrflow.exact.rmat import rmat_inverse


def random_poly(rng, p, maxdeg=2):
    return Poly(p, tuple(rng.randrange(p)
                         for _ in range(rng.randint(0, maxdeg) + 1)))


def random_laurent(rng, p):
    return Laurent(p, {e: rng.randrange(p) for e in range(-2, 3)
                       if rng.random() < 0.4})


def random_ratfun(rng, p):
    den = random_poly(rng, p, 1)
    return RatFun(random_poly(rng, p), Poly.one(p) if den.is_zero() else den)


RINGS = {"Poly": (Poly, random_poly), "Laurent": (Laurent, random_laurent),
         "RatFun": (RatFun, random_ratfun)}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_adjugate_times_matrix_is_det_identity(name):
    ring, entry = RINGS[name]
    rng = random.Random(20260)
    for p in (3, 5):
        for n in range(1, 5):
            for _ in range(6):
                M = [[entry(rng, p) if rng.random() < 0.8 else ring.zero(p)
                      for _ in range(n)] for _ in range(n)]
                if n > 1 and rng.random() < 0.2:
                    M[-1] = list(M[0])  # singular: det 0, adjugate rank <= 1
                adj = matrix.adjugate(M)
                want = matrix.scale(matrix.det(M), matrix.identity(ring, p, n))
                assert matrix.eq(matrix.mul(M, adj), want)
                assert matrix.eq(matrix.mul(adj, M), want)


def test_det_of_non_square_matrix_raises():
    p = 5
    with pytest.raises(ValueError, match="non-square"):
        matrix.det([[Poly.one(p), Poly.zero(p)]])


def test_rmat_inverse_of_singular_matrix_raises():
    p = 5
    x = RatFun.x(p)
    with pytest.raises(ZeroDivisionError, match="singular"):
        rmat_inverse([[x, x * x], [RatFun.one(p), x]])


def test_pmat_inverse_of_non_unimodular_matrix_raises():
    p = 5
    y = Poly.x(p)
    with pytest.raises(ValueError, match="not unimodular"):
        pmat_inverse([[y, Poly.zero(p)], [Poly.zero(p), Poly.one(p)]])
