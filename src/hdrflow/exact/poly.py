"""Univariate polynomials and rational functions over F_p.

Poly: immutable coefficient tuple, index = degree, no trailing zeros.
RatFun: reduced num/den pair with monic denominator (canonical form, so
equality is syntactic).
"""
from __future__ import annotations

from .rings import check_prime


class Poly:
    __slots__ = ("p", "c")

    def __init__(self, p: int, coeffs=()):
        self.p = check_prime(p)
        c = [x % p for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = tuple(c)

    @classmethod
    def _trusted(cls, p: int, c: list):
        """A result of the arithmetic: p is already checked and every
        coefficient already reduced, so only trailing zeros are stripped."""
        while c and not c[-1]:
            c.pop()
        f = object.__new__(cls)
        f.p = p
        f.c = tuple(c)
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls._trusted(p, [])

    @classmethod
    def one(cls, p):
        return cls(p, (1,))

    @classmethod
    def const(cls, p, a):
        return cls(p, (a,))

    @classmethod
    def x(cls, p):
        return cls(p, (0, 1))

    @classmethod
    def monomial(cls, p, k, a=1):
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls(p, (0,) * k + (a,))

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == (1,)

    def is_constant(self) -> bool:
        return len(self.c) <= 1

    def lc(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.c[-1]

    def __getitem__(self, k: int) -> int:
        return self.c[k] if 0 <= k < len(self.c) else 0

    def __eq__(self, other):
        return isinstance(other, Poly) and self.p == other.p and self.c == other.c

    def __hash__(self):
        return hash((self.p, self.c))

    def __bool__(self):
        return bool(self.c)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, int):
            return Poly._trusted(self.p, [other % self.p])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, p = self.c, o.c, self.p
        if len(a) < len(b):
            a, b = b, a
        return Poly._trusted(p, [(x + y) % p for x, y in zip(a, b)]
                             + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        p = self.p
        return Poly._trusted(p, [-a % p for a in self.c])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b, p = self.c, o.c, self.p
        n = min(len(a), len(b))
        out = [(x - y) % p for x, y in zip(a, b)]
        if len(a) > n:
            out.extend(a[n:])
        else:
            out.extend(-y % p for y in b[n:])
        return Poly._trusted(p, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not self.c or not o.c:
            return Poly.zero(self.p)
        p = self.p
        out = [0] * (len(self.c) + len(o.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(o.c, i):
                    out[j] += a * b
        return Poly._trusted(p, [x % p for x in out])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Poly")
        r = Poly.one(self.p)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.c)
        dq = len(rem) - len(o.c)
        if dq < 0:
            return Poly.zero(p), self
        inv_lc = pow(o.lc(), p - 2, p)
        quo = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            coef = rem[k + len(o.c) - 1] * inv_lc % p
            if coef:
                quo[k] = coef
                for j, b in enumerate(o.c, k):
                    rem[j] = (rem[j] - coef * b) % p
        return Poly._trusted(p, quo), Poly._trusted(p, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- algebra helpers ---------------------------------------------------

    def monic(self):
        if self.is_zero():
            return self
        inv = pow(self.lc(), self.p - 2, self.p)
        return Poly(self.p, [a * inv % self.p for a in self.c])

    def gcd(self, other):
        a, b = self, self._coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other):
        """Extended gcd: returns (g, s, t) with s*self + t*other = g, g monic."""
        p = self.p
        a, b = self, self._coerce(other)
        s0, s1 = Poly.one(p), Poly.zero(p)
        t0, t1 = Poly.zero(p), Poly.one(p)
        while not b.is_zero():
            q, r = divmod(a, b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if a.is_zero():
            return a, s0, t0
        inv = Poly.const(p, pow(a.lc(), p - 2, p))
        return a.monic(), s0 * inv, t0 * inv

    def eval(self, a: int) -> int:
        r = 0
        for coef in reversed(self.c):
            r = (r * a + coef) % self.p
        return r

    def compose(self, other: "Poly") -> "Poly":
        r = Poly.zero(self.p)
        for coef in reversed(self.c):
            r = r * other + coef
        return r

    def deriv(self) -> "Poly":
        return Poly(self.p, [(i * a) % self.p for i, a in enumerate(self.c)][1:])

    def dilate(self, m: int, lam: int = 1) -> "Poly":
        """Substitute x -> lam * x^m (m >= 1). Fast path for Frobenius x -> x^p."""
        if m < 1:
            raise ValueError("dilate needs m >= 1")
        out = [0] * (m * self.degree + 1) if self.c else []
        lk = 1
        for k, a in enumerate(self.c):
            if a:
                out[m * k] = a * lk % self.p
            lk = lk * lam % self.p
        return Poly(self.p, out)

    def reverse(self, n: int | None = None) -> "Poly":
        """x^n * f(1/x) for n >= deg f (default deg f)."""
        if n is None:
            n = max(self.degree, 0)
        if n < self.degree:
            raise ValueError("reverse bound below degree")
        out = [0] * (n + 1)
        for k, a in enumerate(self.c):
            out[n - k] = a
        return Poly(self.p, out)

    def translate(self, c: int) -> "Poly":
        """f(x + c)."""
        return self.compose(Poly(self.p, (c, 1)))

    def order_at(self, c: int) -> int:
        """Vanishing order at x = c (big sentinel for the zero polynomial)."""
        if self.is_zero():
            return 1 << 30
        f = self
        lin = Poly(self.p, (-c, 1))
        k = 0
        while True:
            q, r = divmod(f, lin)
            if not r.is_zero():
                return k
            f, k = q, k + 1

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift on Poly")
        return Poly(self.p, (0,) * k + self.c)

    def __repr__(self):
        from ..serialize import poly_str
        return f"Poly({self.p}, {poly_str(self)})"


class RatFun:
    """Rational function over F_p in canonical form (reduced, monic den)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.p)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.p != den.p:
            raise ValueError("mixed primes")
        if num.is_zero():
            den = Poly.one(num.p)
        else:
            g = num.gcd(den)
            if not g.is_one():
                num, den = num // g, den // g
            lc = den.lc()
            if lc != 1:
                inv = Poly.const(den.p, pow(lc, den.p - 2, den.p))
                num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @property
    def p(self):
        return self.num.p

    @classmethod
    def zero(cls, p):
        return cls(Poly.zero(p))

    @classmethod
    def one(cls, p):
        return cls(Poly.one(p))

    @classmethod
    def const(cls, p, a):
        return cls(Poly.const(p, a))

    @classmethod
    def x(cls, p):
        return cls(Poly.x(p))

    def is_zero(self):
        return self.num.is_zero()

    def to_poly(self) -> Poly:
        if not self.den.is_one():
            raise ValueError("not a polynomial")
        return self.num

    def __eq__(self, other):
        if isinstance(other, int):
            other = RatFun.const(self.p, other)
        return (isinstance(other, RatFun) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RatFun):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, Poly):
            return RatFun(other)
        if isinstance(other, int):
            return RatFun.const(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFun(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of 0")
        return RatFun(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        return RatFun(self.num ** n, self.den ** n)

    def deriv(self):
        return RatFun(self.num.deriv() * self.den - self.num * self.den.deriv(),
                      self.den * self.den)

    def eval(self, a: int) -> int:
        d = self.den.eval(a)
        if d == 0:
            raise ZeroDivisionError(f"pole at {a}")
        return self.num.eval(a) * pow(d, self.p - 2, self.p) % self.p

    def order_at(self, c: int) -> int:
        """Valuation at x = c (negative = pole order)."""
        if self.is_zero():
            return 1 << 30
        return self.num.order_at(c) - self.den.order_at(c)

    def dilate(self, m: int, lam: int = 1):
        return RatFun(self.num.dilate(m, lam), self.den.dilate(m, lam))

    def subst_inv(self):
        """f(1/x) as a rational function of x."""
        dn, dd = max(self.num.degree, 0), max(self.den.degree, 0)
        n = max(dn, dd)
        return RatFun(self.num.reverse(n), self.den.reverse(n))

    def __repr__(self):
        from ..serialize import ratfun_str
        return f"RatFun({self.p}, {ratfun_str(self)})"
