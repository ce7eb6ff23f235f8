"""Univariate polynomials and rational functions over F_p.

Poly: immutable coefficient tuple, index = degree, no trailing zeros.
Immutable by contract: there is one zero and one unit per prime
(`Poly.zero`, `Poly.one`), and the arithmetic may return an operand itself
when the other is zero or a unit factor, so no caller may rebind `.c`.
RatFun: reduced num/den pair with monic denominator (canonical form, so
equality is syntactic).  Sums and products keep that form by Henrici's
method (Knuth, TAOCP vol. 2, 4.5.1): they take gcds of the factors only,
never of the full products.
"""
from __future__ import annotations

from .rings import check_prime


_ZERO: dict = {}  # prime -> the zero Poly
_ONE: dict = {}   # prime -> the unit Poly


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
        """The zero of F_p[x]: one shared instance per prime."""
        z = _ZERO.get(p)
        if z is None:
            z = _ZERO[p] = cls._trusted(check_prime(p), [])
        return z

    @classmethod
    def one(cls, p):
        """The unit of F_p[x]: one shared instance per prime."""
        u = _ONE.get(p)
        if u is None:
            u = _ONE[p] = cls._trusted(check_prime(p), [1])
        return u

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
        if other.__class__ is Poly or isinstance(other, Poly):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        if isinstance(other, int):
            return Poly._trusted(self.p, [other % self.p])
        return NotImplemented

    def _scaled(self, a: int):
        """self * a for a reduced scalar a != 0 (p is prime, so the
        leading coefficient stays nonzero)."""
        if a == 1 or not self.c:
            return self
        p = self.p
        return Poly._trusted(p, [x * a % p for x in self.c])

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.c:
            return self
        if not self.c:
            return o
        a, b, p = self.c, o.c, self.p
        if len(a) < len(b):
            a, b = b, a
        return Poly._trusted(p, [(x + y) % p for x, y in zip(a, b)]
                             + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        if not self.c:
            return self
        p = self.p
        return Poly._trusted(p, [-a % p for a in self.c])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if not o.c:
            return self
        if not self.c:
            return -o
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
        if len(o.c) == 1:
            return self._scaled(o.c[0])
        if len(self.c) == 1:
            return o._scaled(self.c[0])
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
        if len(o.c) == 1:
            return self._scaled(pow(o.c[0], p - 2, p)), Poly.zero(p)
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
        return self._scaled(pow(self.lc(), self.p - 2, self.p))

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

    def order_at(self, c: int) -> int:
        """Vanishing order at x = c (big sentinel for the zero polynomial)."""
        if self.is_zero():
            return 1 << 30
        p, c = self.p, c % self.p
        f = self.c
        k = 0
        while True:
            # synthetic division by x - c: the running values are the
            # quotient's coefficients, highest first, then f(c)
            acc, vals = 0, []
            for a in reversed(f):
                acc = (acc * c + a) % p
                vals.append(acc)
            if acc:
                return k
            f, k = vals[-2::-1], k + 1

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
            self.num, self.den = num, Poly.one(num.p)
            return
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

    @classmethod
    def _trusted(cls, num: Poly, den: Poly):
        """A result already in canonical form: num and den coprime, den
        monic, and den = 1 when num = 0."""
        f = object.__new__(cls)
        f.num = num
        f.den = den
        return f

    @classmethod
    def _coprime(cls, num: Poly, den: Poly):
        """num/den with num and den already coprime: only den is scaled
        to be monic."""
        lc = den.lc()
        if lc != 1:
            inv = pow(lc, den.p - 2, den.p)
            num, den = num * inv, den * inv
        return cls._trusted(num, den)

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

    def _sum(self, n2: Poly, d2: Poly):
        """self + n2/d2 for canonical n2/d2."""
        n1, d1 = self.num, self.den
        if d1.is_one():
            return RatFun._trusted(n1 * d2 + n2, d2)
        if d2.is_one():
            return RatFun._trusted(n1 + n2 * d1, d1)
        g = d1 if d1 == d2 else d1.gcd(d2)
        if g.is_one():
            return RatFun._trusted(n1 * d2 + n2 * d1, d1 * d2)
        # t is prime to d1/g and to d2/g, so only g can share a factor
        # with it; t = 0 only when d1 = d2 = g, and then den = 1
        d1g = d1 // g
        t = n1 * (d2 // g) + n2 * d1g
        g2 = t.gcd(g)
        if g2.is_one():
            return RatFun._trusted(t, d1g * d2)
        return RatFun._trusted(t // g2, d1g * (d2 // g2))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._sum(o.num, o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._trusted(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._sum(-o.num, o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.num.is_zero():
            return self
        if o.num.is_zero():
            return o
        # cancel across: num and den of each factor are already coprime
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if not d2.is_one():
            g = n1.gcd(d2)
            if not g.is_one():
                n1, d2 = n1 // g, d2 // g
        if not d1.is_one():
            g = n2.gcd(d1)
            if not g.is_one():
                n2, d1 = n2 // g, d1 // g
        return RatFun._trusted(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of 0")
        return RatFun._coprime(self.den, self.num)

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
        return RatFun._trusted(self.num ** n, self.den ** n)

    def deriv(self):
        if self.den.is_one():
            return RatFun._trusted(self.num.deriv(), self.den)
        # (n'd - nd')/d^2 with g = gcd(d, d') taken out of both sides
        n, d = self.num, self.den
        dd = d.deriv()
        g = d.gcd(dd)
        dg = d // g
        return RatFun(n.deriv() * dg - n * (dd // g), d * dg)

    def eval(self, a: int) -> int:
        d = self.den.eval(a)
        if d == 0:
            raise ZeroDivisionError(f"pole at {a}")
        return self.num.eval(a) * pow(d, self.p - 2, self.p) % self.p

    def dilate(self, m: int, lam: int = 1):
        # a substitution x -> lam x^m keeps num and den coprime
        return RatFun._coprime(self.num.dilate(m, lam),
                               self.den.dilate(m, lam))

    def subst_inv(self):
        """f(1/x) as a rational function of x."""
        dn, dd = max(self.num.degree, 0), max(self.den.degree, 0)
        n = max(dn, dd)
        # coprime: x divides at most one reversal, as one of num and den
        # has degree n
        return RatFun._coprime(self.num.reverse(n), self.den.reverse(n))

    def __repr__(self):
        from ..serialize import ratfun_str
        return f"RatFun({self.p}, {ratfun_str(self)})"
