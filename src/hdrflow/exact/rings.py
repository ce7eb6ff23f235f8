"""The working primes.

Elements of F_p are plain ints reduced to [0, p); the prime travels with the
containing object (polynomial, matrix context) or, in `linalg`, as the
first argument of its routines.
"""
from __future__ import annotations

SUPPORTED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97)


def check_prime(p: int) -> int:
    """Validate the working prime (odd, 3 <= p <= 97) and return it."""
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p must be an odd prime with 3 <= p <= 97, got {p}")
    return p
