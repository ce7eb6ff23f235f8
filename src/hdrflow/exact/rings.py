"""Base coefficient fields.

Elements of F_p are plain ints reduced to [0, p); the prime travels with the
containing object (polynomial, matrix context).  The generic linear algebra in
`linalg` is written against the small ops interface below so the same
elimination code runs over F_p and rational-function fields; `linalg` runs
`Fp` itself on plain ints.
"""
from __future__ import annotations

SUPPORTED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97)


def check_prime(p: int) -> int:
    """Validate the working prime (odd, 3 <= p <= 97) and return it."""
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p must be an odd prime with 3 <= p <= 97, got {p}")
    return p


class Fp:
    """Field ops for F_p on plain ints."""

    def __init__(self, p: int):
        self.p = check_prime(p)
        self.zero = 0
        self.one = 1

    def canon(self, a: int) -> int:
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0


class ObjField:
    """Field ops for element classes with operator overloading (RatFun).

    `zero` and `one` must be supplied since the element type carries p.
    """

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one

    @staticmethod
    def canon(a):
        return a

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return a.reciprocal()

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def is_zero(a) -> bool:
        return a.is_zero()

    @staticmethod
    def eq(a, b) -> bool:
        return a == b
