"""Chern character and higher discriminants in a truncated graded ring.

Classes live in Q[g_1, ..., g_k] / (degree > n), the free graded-commutative
ring on named even generators with weights, stored densely on the ring's
monomial basis.  For a rank-r datum with Chern classes c_1..c_n the Chern
character is read off log c(E) (Newton's identities in series form), and the
higher discriminants Delta_i are defined degreewise by

    log(ch E) = log r + sum_{i>=1} (-1)^(i+1) Delta_i(E) / (i! r^i),

so Delta_1 = c_1 and Delta_2 = 2 r c_2 - (r-1) c_1^2 is the classical
discriminant.  For i >= 2 the Delta_i are invariant under twisting by a line
bundle, which is what makes them usable on Jordan-Hoelder graded pieces.

Both logarithms come from one recurrence that costs about one product of
truncated series, and a job computes ch and log(ch/r) once.

Everything is exact; no floats anywhere.  Classes hold fractions.Fraction
coefficients, but the hot loops run on Python ints: scaling the weight-w
part by D^w, for D the lcm of the denominators, is a graded ring
automorphism that makes a class integral, so the log recurrence and the
binomial test take no gcd, and one Fraction is built per output coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm
from operator import add, neg, sub


# Refuse rings whose dense form would hold more than this many cells: the
# product table, the monomial exponents and the per-weight counts each.
MAX_RING_SIZE = 200_000


class RingTooLarge(ValueError):
    """The ring's dense basis or product table exceeds MAX_RING_SIZE."""


class GradedRing:
    """Q[generators]/(weighted degree > truncation), generators all of even
    cohomological degree so the ring is honestly commutative.

    The monomials of weight <= truncation form the basis, sorted by
    (weight, monomial); `start[w]` is the index of the first monomial of
    weight w.  `table[i][j]` is the index of basis[i] * basis[j], for every
    j whose weight fits next to that of i (a prefix of the basis).
    """

    def __init__(self, generators: list[tuple[str, int]], truncation: int):
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        names = [g for g, _ in generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for g, d in generators:
            if d < 1:
                raise ValueError(f"generator {g} must have positive degree")
        self.gens = list(generators)
        self.names = names
        self.degrees = [d for _, d in generators]
        self.truncation = n = truncation
        k = len(self.degrees)
        if (k + 1) * (n + 1) > MAX_RING_SIZE:
            raise RingTooLarge(f"{k} generators at truncation {n} exceed "
                               f"the ring size bound {MAX_RING_SIZE}")
        counts = [1] + [0] * n          # monomials of each weight
        for d in self.degrees:
            for w in range(d, n + 1):
                counts[w] += counts[w - d]
        self.start = [0, *accumulate(counts)]
        entries = sum(c * self.start[n - w + 1] for w, c in enumerate(counts))
        exponents = self.start[-1] * k
        if max(entries, exponents) > MAX_RING_SIZE:
            raise RingTooLarge(f"truncation {n} needs {entries} product-table "
                               f"entries and {exponents} monomial exponents, "
                               f"above the ring size bound {MAX_RING_SIZE}")
        basis = [((), 0)]
        for d in self.degrees:
            basis = [(m + (e,), w + e * d) for m, w in basis
                     for e in range((n - w) // d + 1)]
        basis.sort(key=lambda mw: (mw[1], mw[0]))
        self.basis = tuple(m for m, _ in basis)
        self.basis_weight = tuple(w for _, w in basis)
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.table = tuple(
            tuple(self.index[tuple(map(add, mi, mj))]
                  for mj in self.basis[:self.start[n - wi + 1]])
            for mi, wi in basis)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedRing) and self.gens == other.gens
            and self.truncation == other.truncation)

    def weight(self, mono: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def block(self, degree: int) -> slice:
        """Where the monomials of one weight sit in the basis."""
        return slice(self.start[degree], self.start[degree + 1])

    def zero(self) -> "GradedClass":
        return GradedClass(self, {})

    def const(self, a) -> "GradedClass":
        return GradedClass(self, {self.basis[0]: a})

    def gen(self, name: str) -> "GradedClass":
        i = self.names.index(name)
        mono = [0] * len(self.gens)
        mono[i] = 1
        return GradedClass(self, {tuple(mono): Fraction(1)})

    def from_terms(self, terms: dict[tuple[int, ...], Fraction]) -> "GradedClass":
        return GradedClass(self, terms)

    def mul_into(self, out: list, a, arange: range, b, brange: range) -> None:
        """out += (a restricted to arange) * (b restricted to brange), on
        coefficient lists over the basis; products past the truncation drop."""
        lo, hi = brange.start, brange.stop
        bs = b[lo:hi]
        table = self.table
        for i in arange:
            ai = a[i]
            if ai:
                for bj, k in zip(bs, table[i][lo:hi]):
                    if bj:
                        out[k] += ai * bj


def _support(c) -> range:
    """The index range between the first and the last nonzero entry."""
    lo = next((i for i, x in enumerate(c) if x), len(c))
    hi = len(c)
    while hi > lo and not c[hi - 1]:
        hi -= 1
    return range(lo, hi)


class GradedClass:
    """Element of a GradedRing, stored as its dense coefficient tuple over
    the ring's basis; terms beyond the truncation are dropped.  Nonzero
    coefficients are Fractions, zero ones may be the int 0."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: GradedRing, terms: dict):
        coeffs = [0] * len(ring.basis)
        for mono, c in terms.items():
            i = ring.index.get(tuple(mono))
            if i is not None:
                coeffs[i] += Fraction(c)
            elif ring.weight(mono) <= ring.truncation:
                raise ValueError(f"{mono} is not a monomial of the ring")
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @classmethod
    def _dense(cls, ring: GradedRing, coeffs) -> "GradedClass":
        self = object.__new__(cls)
        self.ring = ring
        self.coeffs = tuple(coeffs)
        return self

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {m: Fraction(c) for m, c in zip(self.ring.basis, self.coeffs)
                if c}

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (isinstance(other, GradedClass) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, GradedClass):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._dense(self.ring, map(add, self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self._dense(self.ring, map(neg, self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._dense(self.ring, map(sub, self.coeffs, o.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._dense(self.ring, [c * other for c in self.coeffs])
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self.coeffs, o.coeffs
        out = [0] * len(a)
        self.ring.mul_into(out, a, _support(a), b, _support(b))
        return self._dense(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        r = self.ring.const(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def component(self, degree: int) -> "GradedClass":
        out = [0] * len(self.coeffs)
        if 0 <= degree <= self.ring.truncation:
            s = self.ring.block(degree)
            out[s] = self.coeffs[s]
        return self._dense(self.ring, out)

    def scalar_part(self) -> Fraction:
        return Fraction(self.coeffs[0])

    def __repr__(self):
        from .serialize import qpoly_str
        return f"GradedClass({qpoly_str(self.terms, self.ring.names)})"


@dataclass(frozen=True)
class ChernData:
    """Rank r datum with Chern classes c_1..c_n (c[i] in degree i + 1... index
    i holds c_{i+1}); c_0 = 1 implicit."""

    rank: int
    classes: tuple
    ring: GradedRing

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if len(self.classes) != self.ring.truncation:
            raise ValueError("need exactly one class per degree 1..truncation")
        for i, ci in enumerate(self.classes, start=1):
            if ci.ring != self.ring:
                raise ValueError("class in the wrong ring")
            if ci != ci.component(i):
                raise ValueError(f"c_{i} is not homogeneous of degree {i}")

    def c(self, i: int) -> GradedClass:
        if i == 0:
            return self.ring.const(1)
        if 1 <= i <= len(self.classes):
            return self.classes[i - 1]
        return self.ring.zero()


def _integral(ring: GradedRing, u) -> tuple[list, int]:
    """(v, D) with v_i = u_i D^w the integral image of a coefficient list u
    with zero scalar part, for D the lcm of its denominators and w the
    weight of the i-th monomial.  Scaling weight w by D^w is a graded ring
    automorphism, and it commutes with the Euler derivation."""
    D = lcm(*(x.denominator for x in u if x))
    powers = [1]
    for _ in range(ring.truncation):
        powers.append(powers[-1] * D)
    return [x.numerator * (powers[w] // x.denominator) if x else 0
            for w, x in zip(ring.basis_weight, u)], D


def _euler_log(ring: GradedRing, u) -> tuple[list, int]:
    """E(log(1 + u)) for a coefficient list u with zero scalar part, where
    the Euler derivation E multiplies the degree-m part by m.

    E is a derivation, so (1 + u) E(log(1 + u)) = E(u); degree by degree
    that is the recurrence  m L_m = m u_m - sum_{k<m} k L_k u_{m-k},  one
    product of truncated series instead of n powers of u.  It needs no
    division, so it runs on the integral image of u (see `_integral`):
    the result is (e, D) with E(log(1 + u)) = e_i / D^w in weight w, and
    the caller divides once per coefficient.
    """
    v, D = _integral(ring, u)
    start, size = ring.start, len(v)
    el = [w * c for w, c in zip(ring.basis_weight, v)]
    acc = [0] * size
    for m in range(1, ring.truncation):
        # k L_k is final for k <= m: push its products with v upward
        ring.mul_into(acc, el, range(start[m], start[m + 1]),
                      v, range(start[1], size))
        s = ring.block(m + 1)
        el[s] = map(sub, el[s], acc[s])
    return el, D


def chern_character(d: ChernData) -> GradedClass:
    """ch(E) = r + sum_k (-1)^(k+1) k [log c(E)]_k / k!, which is Newton's
    identities for the power sums p_k = k! ch_k in generating-series form."""
    ring = d.ring
    c = [0] * len(ring.basis)
    for i, ci in enumerate(d.classes, start=1):
        s = ring.block(i)
        c[s] = ci.coeffs[s]
    el, D = _euler_log(ring, c)
    den = [-1]                      # (-1)^(w+1) w! D^w
    for w in range(1, ring.truncation + 1):
        den.append(-w * D * den[-1])
    ch = [Fraction(x, den[w]) if x else 0
          for w, x in zip(ring.basis_weight, el)]
    ch[0] = Fraction(d.rank)
    return GradedClass._dense(ring, ch)


def _log1p(u: GradedClass) -> GradedClass:
    """log(1 + u) for u with zero scalar part, exact up to the truncation."""
    if u.scalar_part() != 0:
        raise ValueError("log argument must be 1 + (positive degree)")
    ring = u.ring
    el, D = _euler_log(ring, u.coeffs)
    den = [w * D ** w for w in range(ring.truncation + 1)]
    return GradedClass._dense(ring, [
        Fraction(x, den[w]) if x else 0
        for w, x in zip(ring.basis_weight, el)])


def _log_ch(d: ChernData) -> GradedClass:
    """log(ch E / r): the one place ch and its logarithm are computed."""
    return _log1p(chern_character(d) * Fraction(1, d.rank) - 1)


def _deltas(d: ChernData, log_ch: GradedClass) -> list[GradedClass]:
    r = d.rank
    return [log_ch.component(i) * ((-1) ** (i + 1) * factorial(i) * r ** i)
            for i in range(1, d.ring.truncation + 1)]


def higher_discriminants(d: ChernData) -> list[GradedClass]:
    """[Delta_1, ..., Delta_n] from the degree parts of log(ch/r):

    Delta_i = (-1)^(i+1) * i! * r^i * (log(ch E) - log r)_i.
    """
    return _deltas(d, _log_ch(d))


def twist(d: ChernData, c1L: GradedClass) -> ChernData:
    """Chern data of E tensor L for a line bundle with first Chern class c1L:

    c_i(E ox L) = sum_j binom(r - j, i - j) c1L^(i-j) c_j(E).
    """
    if c1L != c1L.component(1):
        raise ValueError("c1 of a line bundle must be homogeneous of degree 1")
    r, n = d.rank, d.ring.truncation
    powers = [d.ring.const(1)]
    for _ in range(n):
        powers.append(powers[-1] * c1L)
    new = []
    for i in range(1, n + 1):
        s = d.ring.zero()
        for j in range(0, i + 1):
            if r - j < i - j:
                continue
            s = s + powers[i - j] * d.c(j) * comb(r - j, i - j)
        new.append(s)
    return ChernData(r, tuple(new), d.ring)


@dataclass(frozen=True)
class EquivalenceReport:
    chern_binomial: bool      # r^i c_i = binom(r, i) c_1^i for all i
    delta_vanishing: bool     # Delta_i = 0 for i >= 2
    log_linear: bool          # log ch = log r + c_1 / r
    deltas: tuple             # Delta_1..Delta_n, read off the same log

    @property
    def consistent(self) -> bool:
        return self.chern_binomial == self.delta_vanishing == self.log_linear


def check_equivalence(d: ChernData) -> EquivalenceReport:
    """The three faces of log-freeness: the binomial test on the classes,
    and the Delta and log-linearity tests on one computation of log(ch/r)."""
    r = d.rank
    log_ch = _log_ch(d)
    deltas = _deltas(d, log_ch)
    b2 = all(delta.is_zero() for delta in deltas[1:])
    b3 = log_ch == d.c(1) * Fraction(1, r)
    return EquivalenceReport(_is_binomial(d), b2, b3, tuple(deltas))


def _is_binomial(d: ChernData) -> bool:
    """r^i c_i = binom(r, i) c_1^i for every i, on ints: with c_1 = N / D,
    compare (r D)^i c_i with binom(r, i) N^i coefficient by coefficient."""
    ring, r = d.ring, d.rank
    start = ring.start
    N, D = _integral(ring, d.c(1).coeffs)
    power = N
    for i in range(1, ring.truncation + 1):
        if i > 1:
            prev, power = power, [0] * len(N)
            ring.mul_into(power, prev, range(start[i - 1], start[i]),
                          N, range(start[1], start[2]))
        f, b = (r * D) ** i, comb(r, i)
        s = ring.block(i)
        if any(x.numerator * f != b * y * x.denominator
               for x, y in zip(d.c(i).coeffs[s], power[s])):
            return False
    return True


def binomial_chern(rank: int, sub_rank: int, c1_over_r: GradedClass, m: int) -> GradedClass:
    """c_m for a piece of rank s with all classes pinned to the slope line:
    binom(s, m) * (c_1/r)^m."""
    return c1_over_r.ring.const(comb(sub_rank, m)) * c1_over_r ** m


def whitney_sum(parts: list[ChernData]) -> ChernData:
    """Chern data of a direct sum via the Whitney product c(E) = prod c(E_i)."""
    if not parts:
        raise ValueError("empty sum")
    ring = parts[0].ring
    total = ring.const(1)
    for part in parts:
        if part.ring != ring:
            raise ValueError("mixed rings")
        cE = ring.const(1)
        for i in range(1, ring.truncation + 1):
            cE = cE + part.c(i)
        total = total * cE
    classes = tuple(total.component(i) for i in range(1, ring.truncation + 1))
    return ChernData(sum(p.rank for p in parts), classes, ring)


def direct_sum_discriminant_residual(parts: list[ChernData]) -> GradedClass:
    """Residual of the degree-2 discriminant identity for a direct sum:

        Delta(E)/r - sum_i Delta(E_i)/r_i
                   + (1/r) sum_{i<j} r_i r_j (c_1 E_i/r_i - c_1 E_j/r_j)^2

    which vanishes identically (Delta = Delta_2).  Returned so callers can
    assert emptiness against a witness if it ever fails.
    """
    if len(parts) < 1:
        raise ValueError("empty sum")
    ring = parts[0].ring
    if ring.truncation < 2:
        raise ValueError("need truncation >= 2 for Delta_2")
    total = whitney_sum(parts)
    r = total.rank

    def delta2(d: ChernData) -> GradedClass:
        return higher_discriminants(d)[1]

    res = ring.const(Fraction(1, r)) * delta2(total)
    for part in parts:
        res = res - ring.const(Fraction(1, part.rank)) * delta2(part)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            ri, rj = parts[i].rank, parts[j].rank
            mui = ring.const(Fraction(1, ri)) * parts[i].c(1)
            muj = ring.const(Fraction(1, rj)) * parts[j].c(1)
            diff = mui - muj
            res = res + ring.const(Fraction(ri * rj, r)) * diff * diff
    return res
