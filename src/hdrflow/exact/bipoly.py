"""Bivariate polynomials over F_p for the local nearby-cycles charts.

Stored as polynomials in the second variable whose coefficients are Poly in
the first: restricting to {first = 0} is then a coefficient-wise constant-term
projection, which is the only nontrivial structural operation the local models
need.  Variable names are cosmetic (printing only).
"""
from __future__ import annotations

from .poly import Poly
from .rings import check_prime


class BiPoly:
    """Element of F_p[u, v], u the 'divisor' variable, v the 'base' one."""

    __slots__ = ("p", "cs")

    def __init__(self, p: int, coeffs=()):
        # coeffs: iterable of Poly (in u), index = power of v
        self.p = check_prime(p)
        cs = list(coeffs)
        for f in cs:
            if not isinstance(f, Poly) or f.p != p:
                raise ValueError("coefficients must be Poly over the same prime")
        while cs and cs[-1].is_zero():
            cs.pop()
        self.cs = tuple(cs)

    @classmethod
    def zero(cls, p):
        return cls(p)

    @classmethod
    def one(cls, p):
        return cls(p, (Poly.one(p),))

    @classmethod
    def const(cls, p, a):
        return cls(p, (Poly.const(p, a),))

    @classmethod
    def u(cls, p):
        return cls(p, (Poly.x(p),))

    @classmethod
    def v(cls, p):
        return cls(p, (Poly.zero(p), Poly.one(p)))

    @classmethod
    def from_u_poly(cls, f: Poly):
        return cls(f.p, (f,))

    @classmethod
    def from_v_poly(cls, f: Poly):
        return cls(f.p, tuple(Poly.const(f.p, a) for a in f.c))

    @classmethod
    def from_terms(cls, p, terms):
        """terms: {(i, j): coeff} with u^i v^j."""
        out = BiPoly.zero(p)
        for (i, j), a in terms.items():
            if i < 0 or j < 0:
                raise ValueError("negative exponent")
            cs = [Poly.zero(p)] * j + [Poly.monomial(p, i, a)]
            out = out + BiPoly(p, cs)
        return out

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.cs

    def __getitem__(self, j: int) -> Poly:
        return self.cs[j] if 0 <= j < len(self.cs) else Poly.zero(self.p)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.p == other.p and self.cs == other.cs

    def __hash__(self):
        return hash((self.p, self.cs))

    def __bool__(self):
        return bool(self.cs)

    def terms(self):
        for j, f in enumerate(self.cs):
            for i, a in enumerate(f.c):
                if a:
                    yield (i, j), a

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, BiPoly):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, Poly):
            return BiPoly.from_u_poly(other)
        if isinstance(other, int):
            return BiPoly.const(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = max(len(self.cs), len(o.cs))
        return BiPoly(self.p, [self[j] + o[j] for j in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return BiPoly(self.p, [-f for f in self.cs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        n = max(len(self.cs), len(o.cs))
        return BiPoly(self.p, [self[j] - o[j] for j in range(n)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero() or o.is_zero():
            return BiPoly.zero(self.p)
        out = [Poly.zero(self.p)] * (len(self.cs) + len(o.cs) - 1)
        for i, f in enumerate(self.cs):
            if not f.is_zero():
                for j, g in enumerate(o.cs):
                    if not g.is_zero():
                        out[i + j] = out[i + j] + f * g
        return BiPoly(self.p, out)

    __rmul__ = __mul__

    # -- the operations the local models use -------------------------------

    def restrict_u0(self) -> Poly:
        """Set u = 0; result is a Poly in v."""
        return Poly(self.p, [f[0] for f in self.cs])

    def frobenius(self) -> "BiPoly":
        """Substitute (u, v) -> (u^p, v^p)."""
        out = [Poly.zero(self.p)] * (self.p * (len(self.cs) - 1) + 1) if self.cs else []
        for j, f in enumerate(self.cs):
            out[self.p * j] = f.dilate(self.p)
        return BiPoly(self.p, out)

    def deriv_u(self) -> "BiPoly":
        return BiPoly(self.p, [f.deriv() for f in self.cs])

    def deriv_v(self) -> "BiPoly":
        return BiPoly(self.p, [(j * f) for j, f in enumerate(self.cs)][1:])

    def mul_u(self, k: int = 1) -> "BiPoly":
        return BiPoly(self.p, [f.shift(k) for f in self.cs])

    def mul_v(self, k: int = 1) -> "BiPoly":
        return BiPoly(self.p, [Poly.zero(self.p)] * k + list(self.cs))

    def __repr__(self):
        from ..serialize import bipoly_str
        return f"BiPoly({self.p}, {bipoly_str(self)})"
