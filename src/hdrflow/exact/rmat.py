"""Matrices over the rational function field F_p(x): the inverse, calculus
and denominator clearing; the ring-independent arithmetic is in `matrix`."""
from __future__ import annotations

from . import matrix
from .poly import Poly, RatFun

# the benchmark tracer looks this name up here
rmat_mul = matrix.mul


def rmat_inverse(M):
    n, m = matrix.shape(M)
    if n != m:
        raise ValueError("inverse of a non-square matrix")
    d = matrix.det(M)
    if d.is_zero():
        raise ZeroDivisionError("singular matrix")
    return matrix.scale(d.reciprocal(), matrix.adjugate(M))


def rmat_deriv(M):
    return [[a.deriv() for a in r] for r in M]


def rmat_subst_inv(M):
    return [[a.subst_inv() for a in r] for r in M]


def rmat_from_pmat(rows):
    return [[RatFun(a) for a in r] for r in rows]


def rmat_from_lmat(M):
    return [[a.to_ratfun() for a in r] for r in M]


def rmat_clear_rows(M):
    """Scale each row by the lcm of its denominators: a polynomial matrix
    with the same kernel."""
    out = []
    for row in M:
        l = Poly.one(row[0].p)
        for a in row:
            l = (l * a.den) // l.gcd(a.den)
        out.append([(a * l).to_poly() for a in row])
    return out


def rmat_clear_cols(M):
    """Scale each column by the lcm of its denominators: the column span
    saturates to the same sub-module."""
    n, m = matrix.shape(M)
    p = M[0][0].p
    out = [[None] * m for _ in range(n)]
    for j in range(m):
        l = Poly.one(p)
        for i in range(n):
            l = (l * M[i][j].den) // l.gcd(M[i][j].den)
        for i in range(n):
            out[i][j] = (M[i][j] * l).to_poly()
    return out
