"""F_p(x) substrate: every RatFun result is in canonical form and equals the
reference that reduces the unreduced num/den by one full gcd; vanishing
orders by synthetic division; the truncated gluing exponential."""
import random

import pytest

from hdrflow.cartier import _exp_nilpotent
from hdrflow.exact import matrix
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
