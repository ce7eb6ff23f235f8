"""Discriminant calculus: frozen identities plus independent oracles.

`oracle_split_deltas` recomputes Delta_i for split bundles sum O(a_i) through
exponential sums in a single-variable Fraction series, with none of the
multivariate machinery of the library path.  `oracle_deltas` recomputes them
on every benchmark ring from Newton's identities and the defining series of
log(1 + u), and `_dict_mul` checks the dense product against a product of
{monomial: coefficient} dicts.
"""
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from hdrflow.chern import (MAX_RING_SIZE, ChernData, GradedRing, RingTooLarge,
                           binomial_chern, check_equivalence, chern_character,
                           direct_sum_discriminant_residual,
                           higher_discriminants, twist, whitney_sum)

BENCH_WEIGHTS = [(1,), (1, 1), (1, 2), (1, 3), (1, 2, 2), (1, 2, 3)]


def _series_mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj != 0 and i + j <= n:
                out[i + j] += ai * bj
    return out


def _series_log1p(u, n):
    # u[0] must be 0; log(1+u) = sum (-1)^(k+1) u^k / k
    assert u[0] == 0
    out = [Fraction(0)] * (n + 1)
    uk = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        uk = _series_mul(uk, u, n)
        for i in range(n + 1):
            out[i] += Fraction((-1) ** (k + 1), k) * uk[i]
    return out


def oracle_split_deltas(weights, n):
    """Delta_1..Delta_n of sum O(a_i) on a one-generator ring, by raw
    exponential sums: ch = sum exp(a_i h)."""
    r = len(weights)
    ch = [sum(Fraction(a ** k, factorial(k)) for a in weights)
          for k in range(n + 1)]
    u = [ch[0] / r - 1] + [c / Fraction(r) for c in ch[1:]]
    L = _series_log1p(u, n)
    return [Fraction((-1) ** (i + 1) * factorial(i) * r ** i) * L[i]
            for i in range(1, n + 1)]


def split_data(weights, ring):
    parts = []
    h = ring.gen("h")
    for a in weights:
        classes = tuple(ring.const(a) * h if i == 1 else ring.zero()
                        for i in range(1, ring.truncation + 1))
        parts.append(ChernData(1, classes, ring))
    return whitney_sum(parts)


def coeff_of_h_power(cls, k):
    return cls.terms.get((k,), Fraction(0))


def test_chern_character_split_frozen():
    ring = GradedRing([("h", 1)], 3)
    d = split_data([2, -1, 0], ring)
    ch = chern_character(d)
    # sum exp(a h) = 3 + h + 5/2 h^2 + 7/6 h^3
    assert ch.scalar_part() == 3
    assert coeff_of_h_power(ch, 1) == 1
    assert coeff_of_h_power(ch, 2) == Fraction(5, 2)
    assert coeff_of_h_power(ch, 3) == Fraction(7, 6)


def test_discriminants_split_frozen():
    ring = GradedRing([("h", 1)], 3)
    d = split_data([2, -1, 0], ring)
    d1, d2, d3 = higher_discriminants(d)
    assert coeff_of_h_power(d1, 1) == 1
    assert coeff_of_h_power(d2, 2) == -14
    assert coeff_of_h_power(d3, 3) == 20
    assert oracle_split_deltas([2, -1, 0], 3) == [1, -14, 20]


def test_delta2_closed_form_symbolic():
    # Delta_2 = 2 r c_2 - (r-1) c_1^2 in the free ring on c_1, c_2.
    ring = GradedRing([("a", 1), ("b", 2)], 2)
    a, b = ring.gen("a"), ring.gen("b")
    for r in range(1, 6):
        d = ChernData(r, (a, b), ring)
        want = ring.const(2 * r) * b - ring.const(r - 1) * a * a
        assert higher_discriminants(d)[1] == want


def test_delta3_closed_form_symbolic():
    # Delta_3 = (r-1)(r-2) c_1^3 - 3r(r-2) c_1 c_2 + 3 r^2 c_3.
    ring = GradedRing([("a", 1), ("b", 2), ("c", 3)], 3)
    a, b, c = ring.gen("a"), ring.gen("b"), ring.gen("c")
    for r in range(1, 6):
        d = ChernData(r, (a, b, c), ring)
        want = (ring.const((r - 1) * (r - 2)) * a ** 3
                - ring.const(3 * r * (r - 2)) * a * b
                + ring.const(3 * r * r) * c)
        assert higher_discriminants(d)[2] == want


def test_delta3_rank3_pure_c3():
    # r = 3, c_1 = c_2 = 0: Delta_3 = 27 c_3.
    ring = GradedRing([("e", 3)], 3)
    e = ring.gen("e")
    d = ChernData(3, (ring.zero(), ring.zero(), e), ring)
    assert higher_discriminants(d)[2] == ring.const(27) * e


def test_split_matches_oracle_randomized():
    rng = random.Random(0x51A7)
    for _ in range(40):
        n = rng.randint(2, 4)
        r = rng.randint(1, 4)
        weights = [rng.randint(-5, 5) for _ in range(r)]
        ring = GradedRing([("h", 1)], n)
        deltas = higher_discriminants(split_data(weights, ring))
        expect = oracle_split_deltas(weights, n)
        for i in range(n):
            assert coeff_of_h_power(deltas[i], i + 1) == expect[i]


def test_twist_invariance_of_higher_deltas():
    rng = random.Random(0x7E157)
    ring = GradedRing([("h", 1)], 4)
    h = ring.gen("h")
    for _ in range(30):
        r = rng.randint(2, 4)
        weights = [rng.randint(-4, 4) for _ in range(r)]
        d = split_data(weights, ring)
        t = twist(d, ring.const(rng.randint(-3, 3)) * h)
        dd, dt = higher_discriminants(d), higher_discriminants(t)
        # Delta_1 = c_1 moves, everything above is twist invariant
        for i in range(1, 4):
            assert dd[i] == dt[i]


def test_twist_matches_weight_shift():
    # For split data, tensoring with O(b) is the shift a_i -> a_i + b,
    # so the twist formula must reproduce the shifted Whitney classes.
    rng = random.Random(0xB0057)
    ring = GradedRing([("h", 1)], 3)
    h = ring.gen("h")
    for _ in range(25):
        weights = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        b = rng.randint(-3, 3)
        t = twist(split_data(weights, ring), ring.const(b) * h)
        s = split_data([a + b for a in weights], ring)
        assert t.classes == s.classes


def test_equivalence_three_ways():
    ring = GradedRing([("h", 1)], 3)
    h = ring.gen("h")
    # c_i = binom(r, i) (c_1/r)^i: all three detections must fire together.
    r = 4
    c1 = ring.const(2) * h
    classes = tuple(binomial_chern(r, r, ring.const(Fraction(1, r)) * c1, i)
                    for i in range(1, 4))
    good = ChernData(r, classes, ring)
    rep = check_equivalence(good)
    assert rep.consistent and rep.chern_binomial
    # perturb c_2 off the slope line: all three must fail together
    bad_classes = (classes[0], classes[1] + h * h, classes[2])
    rep2 = check_equivalence(ChernData(r, bad_classes, ring))
    assert rep2.consistent and not rep2.chern_binomial


def test_equivalence_consistency_randomized():
    rng = random.Random(0xE0111)
    ring = GradedRing([("h", 1)], 3)
    h = ring.gen("h")
    for _ in range(40):
        r = rng.randint(1, 4)
        classes = tuple(ring.const(Fraction(rng.randint(-6, 6),
                                            rng.randint(1, 3))) * h ** i
                        for i in range(1, 4))
        rep = check_equivalence(ChernData(r, classes, ring))
        assert rep.consistent


def test_direct_sum_residual_vanishes():
    rng = random.Random(0xD5)
    ring = GradedRing([("h", 1)], 2)
    h = ring.gen("h")
    for _ in range(30):
        parts = []
        for _ in range(rng.randint(2, 4)):
            r = rng.randint(1, 3)
            classes = tuple(ring.const(rng.randint(-5, 5)) * h ** i
                            for i in range(1, 3))
            parts.append(ChernData(r, classes, ring))
        assert direct_sum_discriminant_residual(parts).is_zero()


def test_two_line_bundles_residual_explicit():
    # O(a) + O(b): Delta_2 = 2c_2 - (1/2)... the normalized identity reduces
    # to Delta(E)/2 = -(1/2)(a-b)^2 h^2 with both part discriminants zero.
    ring = GradedRing([("h", 1)], 2)
    d = split_data([3, -2], ring)
    d2 = higher_discriminants(d)[1]
    assert coeff_of_h_power(d2, 2) == -25  # -(a-b)^2
    assert direct_sum_discriminant_residual(
        [split_data([3], ring), split_data([-2], ring)]).is_zero()


def test_chern_data_validation():
    ring = GradedRing([("h", 1)], 2)
    h = ring.gen("h")
    try:
        ChernData(2, (h * h, ring.zero()), ring)
    except ValueError:
        pass
    else:
        raise AssertionError("inhomogeneous c_1 accepted")


# -- dense product and log recurrence against their definitions ----------------

def _ring(weights, n):
    return GradedRing([(f"g{i}", w) for i, w in enumerate(weights)], n)


def _random_class(rng, ring, degrees):
    """A class with random rational coefficients on about half of the
    monomials of the given degrees."""
    terms = {}
    for mono in product(*(range(ring.truncation + 1) for _ in ring.degrees)):
        if ring.weight(mono) in degrees and rng.random() < 0.5:
            terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return ring.from_terms(terms)


def _dict_mul(ring, a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if ring.weight(m) <= ring.truncation:
                out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def oracle_deltas(d):
    """Delta_1..Delta_n with ch from Newton's identities and log(1 + u) from
    its series sum (-1)^(k+1) u^k / k, in plain GradedClass arithmetic."""
    ring, r, n = d.ring, d.rank, d.ring.truncation
    ch, pows = ring.const(r), [None]
    for k in range(1, n + 1):
        pk = ring.const((-1) ** (k - 1) * k) * d.c(k)
        for j in range(1, k):
            pk = pk + ring.const((-1) ** (j + 1)) * d.c(j) * pows[k - j]
        pows.append(pk)
        ch = ch + ring.const(Fraction(1, factorial(k))) * pk
    u = ring.const(Fraction(1, r)) * ch - 1
    log = sum((ring.const(Fraction((-1) ** (k + 1), k)) * u ** k
               for k in range(1, n + 1)), ring.zero())
    return [ring.const((-1) ** (i + 1) * factorial(i) * r ** i)
            * log.component(i) for i in range(1, n + 1)]


@pytest.mark.parametrize("weights", BENCH_WEIGHTS)
def test_dense_product_matches_dict_product(weights):
    rng = random.Random(f"product {weights}")
    for n in range(2, 6):
        ring = _ring(weights, n)
        for _ in range(4):
            a = _random_class(rng, ring, range(n + 1))
            b = _random_class(rng, ring, range(rng.randint(0, n) + 1))
            assert (a * b).terms == _dict_mul(ring, a.terms, b.terms)


@pytest.mark.parametrize("weights", BENCH_WEIGHTS)
def test_discriminants_match_series_oracle(weights):
    rng = random.Random(f"deltas {weights}")
    for n in range(2, 7):
        ring = _ring(weights, n)
        for r in range(1, 7):
            classes = tuple(_random_class(rng, ring, (i,))
                            for i in range(1, n + 1))
            d = ChernData(r, classes, ring)
            want = oracle_deltas(d)
            assert higher_discriminants(d) == want
            assert list(check_equivalence(d).deltas) == want


def test_ring_basis_and_size_bound():
    ring = _ring((1, 2, 2), 10)
    assert len(ring.basis) == 91
    assert sum(len(row) for row in ring.table) == 1092
    with pytest.raises(RingTooLarge):
        _ring((1, 1, 1), 20)        # 230230 table entries
    with pytest.raises(RingTooLarge):
        _ring((1,), MAX_RING_SIZE)  # the truncation alone
    with pytest.raises(ValueError):
        GradedRing([("h", 1)], 0)
