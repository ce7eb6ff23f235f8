"""Discriminant calculus: frozen identities plus independent oracles.

`oracle_split_deltas` recomputes Delta_i for split bundles sum O(a_i) through
exponential sums in a single-variable Fraction series, with none of the
multivariate machinery of the library path.  `oracle_deltas` recomputes them
on every benchmark ring from Newton's identities and the defining series of
log(1 + u), and `_dict_mul` checks the dense product against a product of
{monomial: coefficient} dicts.
"""
import json
import random
import time
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from hdrflow.chern import (MAX_RING_SIZE, ChernData, GradedRing, RingTooLarge,
                           binomial_chern, check_equivalence, chern_character,
                           direct_sum_discriminant_residual,
                           higher_discriminants, twist, whitney_sum)
from hdrflow.cli import RunConfig, run
from hdrflow.serialize import qpoly_str

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


def _random_class(rng, ring, degrees, dens=(1, 2, 3, 4)):
    """A class with random rational coefficients on about half of the
    monomials of the given degrees, with denominators drawn from dens."""
    terms = {}
    for mono in product(*(range(ring.truncation + 1) for _ in ring.degrees)):
        if ring.weight(mono) in degrees and rng.random() < 0.5:
            terms[mono] = Fraction(rng.randint(-5, 5), rng.choice(dens))
    return ring.from_terms(terms)


def _dict_mul(ring, a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if ring.weight(m) <= ring.truncation:
                out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def oracle_ch(d):
    """ch from Newton's identities for the power sums p_k = k! ch_k, in plain
    GradedClass (Fraction) arithmetic."""
    ring, r, n = d.ring, d.rank, d.ring.truncation
    ch, pows = ring.const(r), [None]
    for k in range(1, n + 1):
        pk = ring.const((-1) ** (k - 1) * k) * d.c(k)
        for j in range(1, k):
            pk = pk + ring.const((-1) ** (j + 1)) * d.c(j) * pows[k - j]
        pows.append(pk)
        ch = ch + ring.const(Fraction(1, factorial(k))) * pk
    return ch


def oracle_deltas(d):
    """Delta_1..Delta_n with ch from `oracle_ch` and log(1 + u) from its
    series sum (-1)^(k+1) u^k / k, in plain GradedClass arithmetic."""
    ring, r, n = d.ring, d.rank, d.ring.truncation
    u = ring.const(Fraction(1, r)) * oracle_ch(d) - 1
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


# denominators that share no factor with the small ones or with each other,
# near 10^6 and 10^30: the integral scaling must carry them exactly
BIG_PRIMES = (10 ** 6 + 3, 10 ** 6 + 33, 10 ** 30 + 57, 10 ** 30 + 99)
MIXED_DENS = (1, 1, 2, 3, 4, 9, *BIG_PRIMES)


@pytest.mark.parametrize("weights", BENCH_WEIGHTS)
def test_integer_log_path_matches_oracle_on_mixed_denominators(weights):
    rng = random.Random(f"mixed denominators {weights}")
    for n in range(1, 8):
        ring = _ring(weights, n)
        for _ in range(2):
            classes = tuple(_random_class(rng, ring, (i,), MIXED_DENS)
                            for i in range(1, n + 1))
            d = ChernData(rng.randint(1, 6), classes, ring)
            want = oracle_deltas(d)
            assert chern_character(d) == oracle_ch(d)
            assert higher_discriminants(d) == want
            assert list(check_equivalence(d).deltas) == want


def test_thirty_digit_denominators_on_the_largest_deck_ring():
    weights, n = (1, 2, 3), 10
    names = ["a", "b", "c"]
    ring = GradedRing(list(zip(names, weights)), n)
    rng = random.Random("thirty digits")
    dens = (1, 10 ** 29 + 319, 10 ** 29 + 379)
    classes = [_random_class(rng, ring, (i,), dens) for i in range(1, n + 1)]
    doc = {"rank": 5, "truncation": n,
           "generators": [[g, w] for g, w in zip(names, weights)],
           "classes": [qpoly_str(c.terms, names) for c in classes]}
    t0 = time.perf_counter()
    report, code = run(RunConfig("discriminants", json.dumps(doc), None,
                                 200000, 10, 0, "json"))
    elapsed = time.perf_counter() - t0
    assert code == 0
    want = oracle_deltas(ChernData(5, tuple(classes), ring))
    assert report["delta"] == [qpoly_str(x.terms, names) for x in want]
    assert elapsed < 1.0


def _fraction_binomial(d):
    """r^i c_i == binom(r, i) c_1^i for all i, on {monomial: Fraction}
    dicts with their own product."""
    ring, r = d.ring, d.rank
    c1 = d.c(1).terms
    power = c1
    for i in range(1, ring.truncation + 1):
        if i > 1:
            power = _dict_mul(ring, power, c1)
        lhs = {m: r ** i * c for m, c in d.c(i).terms.items()}
        rhs = {m: comb(r, i) * c for m, c in power.items() if comb(r, i)}
        if lhs != rhs:
            return False
    return True


@pytest.mark.parametrize("weights", BENCH_WEIGHTS)
def test_binomial_verdict_on_split_data_and_one_perturbed_coefficient(weights):
    rng = random.Random(f"binomial {weights}")
    for n in range(1, 7):
        ring = _ring(weights, n)
        for trial in range(3):
            r = rng.randint(1, 5)
            # r copies of one line bundle: c(E) = (1 + l)^r, the test holds;
            # the first trial takes l = 0
            line = (ring.zero() if trial == 0 else
                    _random_class(rng, ring, (1,), MIXED_DENS))
            classes = tuple(line if i == 1 else ring.zero()
                            for i in range(1, n + 1))
            d = whitney_sum([ChernData(1, classes, ring)] * r)
            rep = check_equivalence(d)
            assert rep.chern_binomial and _fraction_binomial(d)
            assert rep.consistent
            # one coefficient of one c_i, i >= 2, moves: the test fails;
            # at truncation 1 only c_1 can move, and the test still holds
            i = rng.randint(min(2, n), n)
            block = ring.block(i)
            k = rng.randrange(block.start, block.stop)
            coeffs = list(d.c(i).coeffs)
            coeffs[k] += Fraction(1, rng.choice(MIXED_DENS))
            moved = list(d.classes)
            moved[i - 1] = ring.from_terms(dict(zip(ring.basis, coeffs)))
            bad = ChernData(r, tuple(moved), ring)
            verdict = check_equivalence(bad).chern_binomial
            assert verdict == _fraction_binomial(bad)
            assert verdict is (n == 1)


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
