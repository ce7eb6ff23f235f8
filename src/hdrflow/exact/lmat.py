"""Chart conversions for matrices over F_p[x, 1/x]; the arithmetic is in
`matrix`."""
from __future__ import annotations

from . import matrix
from .laurent import Laurent
from .poly import Poly

# the benchmark tracer looks these two names up here
lmat_mul = matrix.mul
lmat_det = matrix.det


def coerce(p: int, a) -> Laurent:
    if isinstance(a, Laurent):
        return a
    if isinstance(a, Poly):
        return Laurent.from_poly(a)
    return Laurent.const(p, a)


def lmat(p: int, rows):
    return [[coerce(p, a) for a in r] for r in rows]


def lmat_from_xpoly(rows):
    return [[Laurent.from_poly(a) for a in r] for r in rows]


def lmat_from_ypoly(rows):
    """Matrix of polynomials in y = 1/x, as Laurent matrices in x."""
    return [[Laurent.from_poly(a).subst_inv() for a in r] for r in rows]


def lmat_to_xpoly(M):
    return [[a.to_poly_x() for a in r] for r in M]
