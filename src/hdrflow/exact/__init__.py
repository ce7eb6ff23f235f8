"""Exact arithmetic substrate: the working primes, polynomials, rational
functions, Laurent/bivariate polynomials, dense matrices over any of them,
linear algebra over F_p on plain ints and Smith forms over F_p[y]."""
from .rings import check_prime, SUPPORTED_PRIMES
from .poly import Poly, RatFun
from .laurent import Laurent
from .bipoly import BiPoly
from .linalg import SolveResult, solve_linear
from .polymat import smith_normal_form, saturate, kernel_saturated

__all__ = [
    "check_prime", "SUPPORTED_PRIMES",
    "Poly", "RatFun", "Laurent", "BiPoly",
    "SolveResult", "solve_linear",
    "smith_normal_form", "saturate", "kernel_saturated",
]
