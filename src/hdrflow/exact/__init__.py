"""Exact arithmetic substrate: F_p, polynomials, rational functions,
Laurent/bivariate polynomials, dense matrices over any of them, field linear
algebra and Smith forms over F_p[y]."""
from .rings import Fp, ObjField, check_prime, SUPPORTED_PRIMES
from .poly import Poly, RatFun
from .laurent import Laurent
from .bipoly import BiPoly
from .linalg import SolveResult, solve_linear
from .polymat import smith_normal_form, saturate, kernel_saturated

__all__ = [
    "Fp", "ObjField", "check_prime", "SUPPORTED_PRIMES",
    "Poly", "RatFun", "Laurent", "BiPoly",
    "SolveResult", "solve_linear",
    "smith_normal_form", "saturate", "kernel_saturated",
]
