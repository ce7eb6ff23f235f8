"""Laurent polynomials over F_p (exponent -> coefficient dict).

Transition matrices of bundles on P^1 live here: entries are regular on the
overlap chart Spec F_p[x, 1/x].

The dict `d` holds only nonzero reduced values.  Immutable by contract:
the arithmetic may return an operand itself (a sum or product with zero, a
product with 1), so no caller may mutate or rebind `.d`.
"""
from __future__ import annotations

from .poly import Poly, RatFun
from .rings import check_prime


class Laurent:
    __slots__ = ("p", "d")

    def __init__(self, p: int, d=None):
        self.p = check_prime(p)
        dd = {}
        if d:
            for k, v in d.items():
                v %= p
                if v:
                    dd[k] = v
        self.d = dd

    @classmethod
    def _trusted(cls, p: int, d: dict):
        """A result of the arithmetic: p is already checked and every value
        of d already reduced and nonzero."""
        f = object.__new__(cls)
        f.p = p
        f.d = d
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls(p)

    @classmethod
    def one(cls, p):
        return cls(p, {0: 1})

    @classmethod
    def const(cls, p, a):
        return cls(p, {0: a})

    @classmethod
    def monomial(cls, p, k, a=1):
        return cls(p, {k: a})

    @classmethod
    def from_poly(cls, f: Poly, shift: int = 0):
        return cls(f.p, {i + shift: a for i, a in enumerate(f.c)})

    @classmethod
    def from_ratfun(cls, f: RatFun):
        """Convert when the denominator is a monomial x^k (else ValueError)."""
        den = f.den
        k = den.degree
        if den.is_zero() or any(den[i] for i in range(k)):
            raise ValueError("denominator is not a monomial")
        return cls.from_poly(f.num, -k)

    def to_ratfun(self) -> RatFun:
        m = self.min_exp()
        if m is None or m >= 0:
            return RatFun(self.to_poly_x())
        num = Poly(self.p, [self.d.get(k + m, 0) for k in range(self.max_exp() - m + 1)])
        return RatFun(num, Poly.monomial(self.p, -m))

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.d

    def min_exp(self):
        return min(self.d) if self.d else None

    def max_exp(self):
        return max(self.d) if self.d else None

    def __getitem__(self, k):
        return self.d.get(k, 0)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.const(self.p, other)
        return isinstance(other, Laurent) and self.p == other.p and self.d == other.d

    def __hash__(self):
        return hash((self.p, tuple(sorted(self.d.items()))))

    def __bool__(self):
        return bool(self.d)

    def is_unit(self) -> bool:
        """Unit of F_p[x, 1/x]: a single monomial."""
        return len(self.d) == 1

    def is_constant(self) -> bool:
        return not self.d or set(self.d) == {0}

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Laurent):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, Poly):
            return Laurent.from_poly(other)
        if isinstance(other, int):
            return Laurent.const(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.d:
            return self
        if not self.d:
            return o
        p = self.p
        d = dict(self.d)
        for k, v in o.d.items():
            v = (d.get(k, 0) + v) % p
            if v:
                d[k] = v
            else:
                del d[k]
        return Laurent._trusted(p, d)

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        return Laurent._trusted(p, {k: -v % p for k, v in self.d.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not self.d:
            return self
        if not o.d:
            return o
        p = self.p
        if len(o.d) == 1 or len(self.d) == 1:
            # f times the single term b x^j: exponents move, nothing cancels
            f, g = (self, o) if len(o.d) == 1 else (o, self)
            ((j, b),) = g.d.items()
            if j == 0 and b == 1:
                return f
            return Laurent._trusted(p, {i + j: a * b % p
                                        for i, a in f.d.items()})
        d = {}
        for i, a in self.d.items():
            for j, b in o.d.items():
                k = i + j
                d[k] = d.get(k, 0) + a * b
        return Laurent(p, d)

    __rmul__ = __mul__

    def reciprocal(self):
        if not self.is_unit():
            raise ValueError("reciprocal of a non-unit Laurent polynomial")
        ((k, a),) = self.d.items()
        return Laurent(self.p, {-k: pow(a, self.p - 2, self.p)})

    def shift(self, k: int):
        """Multiply by x^k."""
        return Laurent._trusted(self.p, {i + k: v for i, v in self.d.items()})

    def dilate(self, m: int, lam: int = 1):
        """Substitute x -> lam * x^m (m may be negative for x -> lam/x^|m|)."""
        if m == 0:
            raise ValueError("dilate needs m != 0")
        return Laurent(self.p, {i * m: v * pow(lam, i % (self.p - 1), self.p)
                                for i, v in self.d.items()})

    def subst_inv(self):
        """x -> 1/x."""
        return Laurent(self.p, {-k: v for k, v in self.d.items()})

    # -- chart views -------------------------------------------------------

    def to_poly_x(self) -> Poly:
        """As element of F_p[x]; requires no negative exponents."""
        m = self.min_exp()
        if m is not None and m < 0:
            raise ValueError("negative exponents present")
        n = self.max_exp()
        if n is None:
            return Poly.zero(self.p)
        return Poly(self.p, [self.d.get(k, 0) for k in range(n + 1)])

    def to_poly_z(self) -> Poly:
        """As element of F_p[z], z = 1/x; requires no positive exponents."""
        return self.subst_inv().to_poly_x()

    def split_at(self, e: int):
        """(part with exponent >= e, part with exponent < e)."""
        hi = {k: v for k, v in self.d.items() if k >= e}
        lo = {k: v for k, v in self.d.items() if k < e}
        return Laurent(self.p, hi), Laurent(self.p, lo)

    def __repr__(self):
        from ..serialize import laurent_str
        return f"Laurent({self.p}, {laurent_str(self)})"
