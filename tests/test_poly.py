"""F_p(x) substrate: every RatFun result is in canonical form and equals the
reference that reduces the unreduced num/den by one full gcd; Poly and
Laurent arithmetic, trivial operands included, equals plain list/dict
references; vanishing orders by synthetic division; the truncated gluing
exponential."""
import random

import pytest

from hdrflow.cartier import _exp_nilpotent
from hdrflow.exact import matrix
from hdrflow.exact.laurent import Laurent
from hdrflow.exact.poly import Poly, RatFun
from hdrflow.exact.rmat import rmat_inverse

PRIMES = (3, 5, 97)


def rand_poly(rng, p, deg, monic=False):
    c = [rng.randrange(p) for _ in range(deg)] + [1 if monic
                                                  else rng.randrange(1, p)]
    return Poly(p, c)


def reference(num, den):
    """num/den reduced by a full gcd and scaled to a monic denominator."""
    p = num.p
    g = num.gcd(den)
    num, den = num // g, den // g
    inv = pow(den.lc(), p - 2, p)
    return num * inv, den * inv


def assert_canonical(f, num, den):
    assert f.den.lc() == 1
    assert f.num.gcd(f.den).is_one()
    assert (f.num, f.den) == reference(num, den)


def operand_pairs(rng, p):
    """Random pairs plus the edge cases: zero, denominators of 1, equal
    denominators, denominators sharing a factor, and cancelling sums."""
    def rat():
        return RatFun(rand_poly(rng, p, rng.randint(0, 3)),
                      rand_poly(rng, p, rng.randint(0, 3)))

    zero, one = RatFun.zero(p), RatFun.one(p)
    x = Poly.x(p)
    # Henrici's second gcd: 1/(x(x+1)) + 1/(x(x-1)) = 2/((x+1)(x-1))
    pairs = [(RatFun(Poly.one(p), x * (x + 1)),
              RatFun(Poly.one(p), x * (x - 1)))]
    pairs += [(rat(), rat()) for _ in range(12)]
    for _ in range(4):
        a, b = rat(), rat()
        poly = RatFun(rand_poly(rng, p, rng.randint(0, 3)))
        h = rand_poly(rng, p, rng.randint(1, 2), monic=True)
        shared = (RatFun(rand_poly(rng, p, 2), h * rand_poly(rng, p, 1)),
                  RatFun(rand_poly(rng, p, 2), h * rand_poly(rng, p, 1)))
        d = rand_poly(rng, p, 2)
        same = (RatFun(rand_poly(rng, p, 1), d),
                RatFun(rand_poly(rng, p, 1), d))
        pairs += [(zero, a), (a, zero), (poly, a), (a, poly), (poly, one),
                  shared, same, (a, -a), (a, a), (a, b - a)]
    return pairs


@pytest.mark.parametrize("p", PRIMES)
def test_ratfun_operations_are_canonical(p):
    rng = random.Random(f"ratfun:{p}")
    for a, b in operand_pairs(rng, p):
        n1, d1, n2, d2 = a.num, a.den, b.num, b.den
        assert_canonical(a + b, n1 * d2 + n2 * d1, d1 * d2)
        assert_canonical(a - b, n1 * d2 - n2 * d1, d1 * d2)
        assert_canonical(a * b, n1 * n2, d1 * d2)
        if not b.is_zero():
            assert_canonical(a / b, n1 * d2, d1 * n2)
        assert_canonical(-a, -n1, d1)
        if not a.is_zero():
            assert_canonical(a.reciprocal(), d1, n1)
        assert_canonical(a.deriv(), n1.deriv() * d1 - n1 * d1.deriv(),
                         d1 * d1)
        m, lam = rng.randint(1, 3), rng.randrange(1, p)
        assert_canonical(a.dilate(m, lam), n1.dilate(m, lam),
                         d1.dilate(m, lam))
        assert_canonical(a.dilate(p), n1.dilate(p), d1.dilate(p))
        k = max(n1.degree, d1.degree, 0)
        assert_canonical(a.subst_inv(), n1.reverse(k), d1.reverse(k))
        for e in range(4):
            assert_canonical(a ** e, n1 ** e, d1 ** e)
            if e and not a.is_zero():
                assert_canonical(a ** -e, d1 ** e, n1 ** e)


# -- Poly and Laurent against plain references ------------------------------

def ref_poly(c, p):
    """Coefficient list reduced mod p with trailing zeros stripped."""
    c = [x % p for x in c]
    while c and not c[-1]:
        c.pop()
    return c


def ref_add(a, b, p):
    n = max(len(a), len(b))
    return ref_poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)], p)


def ref_mul(a, b, p):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_poly(out, p)


def ref_divmod(a, b, p):
    """Long division of reduced lists, b nonzero."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    for k in range(len(quo) - 1, -1, -1):
        q = rem[k + len(b) - 1] * inv % p
        quo[k] = q
        for j, y in enumerate(b):
            rem[k + j] = (rem[k + j] - q * y) % p
    return ref_poly(quo, p), ref_poly(rem, p)


def ref_laurent(d, p):
    return {k: v % p for k, v in d.items() if v % p}


def ref_ladd(a, b, p):
    return ref_laurent({k: a.get(k, 0) + b.get(k, 0) for k in {*a, *b}}, p)


def ref_lmul(a, b, p):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return ref_laurent(out, p)


def poly_operands(rng, p):
    """Zero, one, constants, monomials and general polynomials, plus ints."""
    general = [Poly(p, [rng.randrange(p) for _ in range(n)]
                    + [rng.randrange(1, p)]) for n in (1, 2, 4)]
    return [Poly.zero(p), Poly.one(p), Poly.const(p, p - 1),
            Poly.const(p, rng.randrange(2, p)), Poly(p, [0, 0, 0]),
            Poly.x(p), Poly.monomial(p, 3, rng.randrange(2, p))] + general


def laurent_operands(rng, p):
    """Zero, one, constants, single terms at both signs of the exponent,
    and general Laurent polynomials."""
    general = [Laurent(p, {k: rng.randrange(p) for k in range(-3, 4)})
               for _ in range(3)]
    return [Laurent.zero(p), Laurent.one(p), Laurent.const(p, p - 1),
            Laurent.monomial(p, -2), Laurent.monomial(p, 3, 2),
            Laurent.monomial(p, -1, rng.randrange(2, p)),
            Laurent(p, {0: p, 5: 0})] + general


def assert_poly(f, c, p):
    assert isinstance(f, Poly) and f.p == p and isinstance(f.c, tuple)
    assert all(0 <= x < p for x in f.c) and (not f.c or f.c[-1])
    assert list(f.c) == c


def assert_laurent(f, d, p):
    assert isinstance(f, Laurent) and f.p == p
    assert all(0 < v < p for v in f.d.values())
    assert f.d == d


@pytest.mark.parametrize("p", PRIMES)
def test_poly_arithmetic_equals_the_list_reference(p):
    rng = random.Random(f"poly:{p}")
    ops = poly_operands(rng, p)
    for f in ops:
        a = list(f.c)
        assert_poly(-f, ref_poly([-x for x in a], p), p)
        for k in (0, 1, p - 1, p + 2):
            assert_poly(f + k, ref_add(a, [k], p), p)
            assert_poly(k + f, ref_add(a, [k], p), p)
            assert_poly(f - k, ref_add(a, [-k], p), p)
            assert_poly(k - f, ref_add([-x for x in a], [k], p), p)
            assert_poly(f * k, ref_mul(a, [k], p), p)
            assert_poly(k * f, ref_mul(a, [k], p), p)
        for g in ops:
            b = list(g.c)
            assert_poly(f + g, ref_add(a, b, p), p)
            assert_poly(f - g, ref_add(a, [-y for y in b], p), p)
            assert_poly(f * g, ref_mul(a, b, p), p)
            if not b:
                for op in (divmod, lambda u, v: u // v, lambda u, v: u % v):
                    with pytest.raises(ZeroDivisionError):
                        op(f, g)
                continue
            q, r = ref_divmod(a, b, p)
            got_q, got_r = divmod(f, g)
            assert_poly(got_q, q, p)
            assert_poly(got_r, r, p)
            assert_poly(f // g, q, p)
            assert_poly(f % g, r, p)
        with pytest.raises(ZeroDivisionError):
            divmod(f, 0)
    other = 5 if p == 3 else 3
    for f in (Poly.zero(p), Poly.one(p), ops[-1]):
        for g in (Poly.zero(other), Poly.one(other), Poly.x(other)):
            for op in (lambda u, v: u + v, lambda u, v: u - v,
                       lambda u, v: u * v, divmod):
                with pytest.raises(ValueError, match="mixed primes"):
                    op(f, g)
    # the shared zero and unit come out of the run untouched
    assert Poly.zero(p).c == () and Poly.one(p).c == (1,)
    assert Poly.zero(p) is Poly.zero(p) and Poly.one(p) is Poly.one(p)


@pytest.mark.parametrize("bad", (2, 4, 101))
def test_shared_zero_and_one_still_refuse_a_bad_prime(bad):
    for make in (Poly.zero, Poly.one):
        with pytest.raises(ValueError, match="p must be"):
            make(bad)


@pytest.mark.parametrize("p", PRIMES)
def test_laurent_arithmetic_equals_the_dict_reference(p):
    rng = random.Random(f"laurent:{p}")
    ops = laurent_operands(rng, p)
    for f in ops:
        a = dict(f.d)
        assert_laurent(-f, ref_laurent({k: -v for k, v in a.items()}, p), p)
        for k in (-3, 0, 2):
            assert_laurent(f.shift(k), {i + k: v for i, v in a.items()}, p)
        for g in ops:
            b = dict(g.d)
            neg_b = {k: -v for k, v in b.items()}
            assert_laurent(f + g, ref_ladd(a, b, p), p)
            assert_laurent(f - g, ref_ladd(a, neg_b, p), p)
            assert_laurent(f * g, ref_lmul(a, b, p), p)
        assert f.d == a  # no operation touched an operand
    other = 5 if p == 3 else 3
    for f in (Laurent.zero(p), Laurent.one(p), ops[-1]):
        for g in (Laurent.zero(other), Laurent.monomial(other, -1)):
            for op in (lambda u, v: u + v, lambda u, v: u - v,
                       lambda u, v: u * v):
                with pytest.raises(ValueError, match="mixed primes"):
                    op(f, g)


def order_by_division(f, c):
    lin = Poly(f.p, (-c, 1))
    k = 0
    while True:
        q, r = divmod(f, lin)
        if not r.is_zero():
            return k
        f, k = q, k + 1


@pytest.mark.parametrize("p", PRIMES)
def test_order_at_matches_repeated_division(p):
    rng = random.Random(f"order:{p}")
    for _ in range(30):
        c = rng.randrange(p)
        k = rng.randint(0, 4)
        f = Poly(p, (-c, 1)) ** k * rand_poly(rng, p, rng.randint(0, 4))
        for shift in (0, p, -p, -3 * p):
            assert f.order_at(c + shift) == order_by_division(f, c) >= k
        assert f.order_at(-c) == order_by_division(f, -c)
    assert Poly.zero(p).order_at(1) == 1 << 30
    assert Poly.zero(p).order_at(-1) == 1 << 30


@pytest.mark.parametrize("p", (3, 5, 97))
def test_exp_nilpotent_refuses_non_nilpotent_tau(p):
    for rows in ([[1]], [[0, 1], [1, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]):
        tau = [[RatFun.const(p, e) for e in row] for row in rows]
        with pytest.raises(ValueError, match="tau\\^p is nonzero"):
            _exp_nilpotent(p, tau)


def test_exp_nilpotent_equals_the_full_sum_at_p97_rank3():
    p = 97
    rng = random.Random("exp:97")

    def rat():
        return RatFun(rand_poly(rng, p, rng.randint(0, 2)),
                      rand_poly(rng, p, rng.randint(0, 2)))

    upper = [[RatFun.zero(p), rat(), rat()],
             [RatFun.zero(p), RatFun.zero(p), rat()],
             [RatFun.zero(p)] * 3]
    g = [[RatFun.const(p, e) for e in row]
         for row in ([1, 2, 3], [0, 1, 4], [5, 0, 1])]
    for tau in (upper, matrix.mul(g, matrix.mul(upper, rmat_inverse(g)))):
        full = matrix.identity(RatFun, p, 3)
        power = matrix.identity(RatFun, p, 3)
        fact = 1
        for i in range(1, p):
            power = matrix.mul(power, tau)
            fact = fact * i % p
            full = matrix.add(full, matrix.scale(
                RatFun.const(p, pow(fact, p - 2, p)), power))
        assert matrix.eq(_exp_nilpotent(p, tau), full)
