"""Seeded job documents for the benchmark, each with the answer it must give.

The generators use their own small polynomial arithmetic, so the documents
depend only on the seed and on this file, never on the code under test or on
the test suite.  A job is a CLI command, its input document as JSON text and
the planted answer the checker compares the report against.

Every workload is a stream of decks.  A deck has a fixed recipe (how many
jobs of each shape) and only the random content changes with the seed, so
runs on different seeds do the same mix of work.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

INF = "inf"


@dataclass(frozen=True)
class Job:
    command: str
    doc: str        # the input document, compact JSON text
    expect: dict    # planted answer; "kind" names the check to apply


def _job(command: str, doc: dict, **expect) -> Job:
    return Job(command, json.dumps(doc, separators=(",", ":")), expect)


# -- Laurent polynomials over F_p: {exponent: coefficient} ---------------------

def l_add(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = (out.get(e, 0) + c) % p
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def l_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = (out.get(e1 + e2, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def lmat_mul(A, B, p: int):
    n, m, k = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(k):
            acc: dict = {}
            for t in range(m):
                if A[i][t] and B[t][j]:
                    acc = l_add(acc, l_mul(A[i][t], B[t][j], p), p)
            row.append(acc)
        out.append(row)
    return out


def _term(coef, powers) -> str:
    """coef * v^e * ...; a coefficient 1 is left out before a variable."""
    mono = [v if e == 1 else f"{v}^{e}" for v, e in powers if e]
    return "*".join(mono if coef == 1 and mono else [str(coef)] + mono)


def l_str(f: dict, var: str = "x") -> str:
    """Descending exponents, least nonnegative coefficients."""
    if not f:
        return "0"
    return " + ".join(_term(f[e], [(var, e)]) for e in sorted(f, reverse=True))


def random_frame(rng: random.Random, p: int, r: int, side: int, maxdeg=2):
    """Unimodular matrix over F_p[x] (side 0) or F_p[1/x] (side 1), built
    from elementary row operations."""
    M = [[{0: 1} if i == j else {} for j in range(r)] for i in range(r)]
    for _ in range(2 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        f = {}
        for e in range(rng.randint(0, maxdeg) + 1):
            c = rng.randrange(p)
            if c:
                f[e if side == 0 else -e] = c
        M[i] = [l_add(M[i][col], l_mul(f, M[j][col], p), p)
                for col in range(r)]
    return M


def boundary_poly(p: int, points) -> dict:
    """prod (x - c) over the finite points of a divisor."""
    f = {0: 1}
    for c in points:
        if c != INF:
            f = l_mul(f, {1: 1, 0: (-c) % p}, p)
    return f


# -- polynomials over Q in weighted generators: {monomial: Fraction} -----------

def q_add(f: dict, g: dict, scale=1) -> dict:
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def q_mul(f: dict, g: dict, weights, top: int) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            if sum(e * w for e, w in zip(m, weights)) <= top:
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def q_str(f: dict, names) -> str:
    """Descending total degree; a negative coefficient prints as "+ -c"."""
    if not f:
        return "0"
    return " + ".join(_term(f[m], zip(names, m)) for m in
                      sorted(f, key=lambda m: (-sum(m), [-e for e in m])))


def monomials_of_weight(weights, w: int):
    return [m for m in product(*(range(w // d + 1) for d in weights))
            if sum(e * d for e, d in zip(m, weights)) == w]


# -- discriminants ----------------------------------------------------------------

def discriminant_job(rng: random.Random, n: int, weights, r: int,
                     split: bool) -> Job:
    """Rank-r Chern classes in degrees 1..n over generators of the given
    weights, and their Delta_2 = 2r c_2 - (r-1) c_1^2.

    `split` takes the classes of a sum of line bundles, prod (1 + l_j) with
    l_j of degree 1; otherwise every class is drawn at random.
    """
    names = ["h"] if len(weights) == 1 else list("abc"[:len(weights)])
    zero = tuple(0 for _ in weights)
    if split:
        deg1 = monomials_of_weight(weights, 1)
        total = {zero: Fraction(1)}
        for _ in range(r):
            line = {m: Fraction(rng.randint(-3, 3)) for m in deg1}
            line = {m: c for m, c in line.items() if c}
            total = q_mul(total, q_add({zero: Fraction(1)}, line), weights, n)
        classes = [{m: c for m, c in total.items()
                    if sum(e * d for e, d in zip(m, weights)) == i}
                   for i in range(1, n + 1)]
    else:
        classes = []
        for i in range(1, n + 1):
            cls = {}
            for m in monomials_of_weight(weights, i):
                c = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                if c:
                    cls[m] = c
            classes.append(cls)
    c1, c2 = classes[0], classes[1]
    delta2 = q_add({m: 2 * r * c for m, c in c2.items()},
                   q_mul(c1, c1, weights, n), scale=-(r - 1))
    doc = {"rank": r, "truncation": n,
           "generators": [[nm, w] for nm, w in zip(names, weights)],
           "classes": [q_str(c, names) for c in classes]}
    return _job("discriminants", doc, kind="delta2", truncation=n,
                names=names, delta1=q_str(c1, names),
                delta2=q_str(delta2, names))


# -- splitting ------------------------------------------------------------------------

def split_job(rng: random.Random, p: int, r: int, spread: int) -> Job:
    """A bundle of planted type (max - min = spread) hidden by random frames:
    T = F1 diag(x^-a_i) F0 with F1 over F_p[1/x] and F0 over F_p[x]."""
    lo = rng.randint(-spread, 0)
    inner = sorted(rng.randint(lo, lo + spread) for _ in range(r - 2))
    types = sorted([lo, lo + spread] + inner, reverse=True)
    D = [[{-types[i]: 1} if i == j else {} for j in range(r)]
         for i in range(r)]
    T = lmat_mul(random_frame(rng, p, r, 1),
                 lmat_mul(D, random_frame(rng, p, r, 0), p), p)
    doc = {"p": p, "rows": [[l_str(e) for e in row] for row in T]}
    return _job("split", doc, kind="split", type=types)


def diagonal_split_job(rng: random.Random, p: int, e: int) -> Job:
    """An already-diagonal diag(c1 x^(e+s), c2 x^-(e+t)): the splitting work
    still scans about 2e twists.  The small offsets s, t and the constants
    keep every drawn bundle distinct."""
    s, t = rng.randint(0, 3), rng.randint(0, 3)
    ents = [(e + s, rng.randrange(1, p)), (-(e + t), rng.randrange(1, p))]
    if rng.random() < 0.5:
        ents.reverse()
    rows = [[l_str({k: c}) if i == j else "0" for j in range(2)]
            for i, (k, c) in enumerate(ents)]
    types = sorted((-k for k, _ in ents), reverse=True)
    return _job("split", {"p": p, "rows": rows}, kind="split", type=types)


# -- higgs bundles ----------------------------------------------------------------------

def divisor(rng: random.Random, p: int, size: int, with_inf: bool):
    """`size` distinct points of P^1(F_p); infinity is forced in when the
    finite points alone are too few."""
    with_inf = with_inf or size > p
    pool = list(range(p))
    pts = rng.sample(pool, size - 1 if with_inf else size)
    return sorted(pts) + ([INF] if with_inf else [])


def higgs_doc(rng: random.Random, p: int, types, points, shape="lower",
              nonzero=()):
    """A valid field on the split bundle of the given type.

    Entry (i, j) maps O(a_j) to O(a_i) (x) Omega(log D); written as
    n(x)/prod(x - c), the chart-1 log condition bounds deg n by
    #finite - 1 + a_i - a_j, one less when infinity is off the divisor.
    The shape "lower" (strictly below the diagonal) and "upper" give
    nilpotent fields, "full" fills every entry.  Entries listed in
    `nonzero` get a nonzero numerator.
    """
    finite = [c for c in points if c != INF]
    extra = 0 if INF in points else 1
    bnd = l_str(boundary_poly(p, points))
    r = len(types)
    theta = []
    for i in range(r):
        row = []
        for j in range(r):
            dmax = len(finite) - 1 + types[i] - types[j] - extra
            if ((shape == "lower" and j >= i) or (shape == "upper" and j <= i)
                    or dmax < 0):
                row.append("0")
                continue
            num = {k: rng.randrange(p) for k in range(dmax + 1)}
            num = {k: c for k, c in num.items() if c}
            if not num and (i, j) in nonzero:
                num = {rng.randint(0, dmax): rng.randrange(1, p)}
            row.append(f"({l_str(num)})/({bnd})" if num else "0")
        theta.append(row)
    return {"p": p, "divisor": {"points": points},
            "bundle": {"type": list(types)}, "theta": theta}


def flow_job(rng: random.Random, p: int, r: int, npts: int) -> Job:
    """A nilpotent start that lowers the type one step at a time: O(1) +
    O(-1) in rank 2, O(1) + O + O(-1) in rank 3, with the one-step entries
    nonzero so the field is maximal."""
    types = (1, -1) if r == 2 else (1, 0, -1)
    pts = divisor(rng, p, npts, with_inf=rng.random() < 0.75)
    chain = {(i + 1, i) for i in range(r - 1)}
    doc = higgs_doc(rng, p, types, pts, nonzero=chain)
    return _job("flow", doc, kind="flow")


def cartier_job(rng: random.Random, p: int, r: int) -> Job:
    types = sorted((rng.randrange(-1, 2) for _ in range(r)), reverse=True)
    npts = rng.randint(1, min(4, p + 1))
    pts = divisor(rng, p, npts, with_inf=rng.random() < 0.5)
    doc = higgs_doc(rng, p, types, pts, shape=rng.choice(("lower", "upper")))
    return _job("cartier", doc, kind="cartier", degree=sum(types), p=p)


def semistable_job(rng: random.Random, p: int, r: int, trivial: bool) -> Job:
    if trivial:
        types = (0,) * r
    else:
        types = sorted((rng.randrange(-1, 2) for _ in range(r)), reverse=True)
    pts = divisor(rng, p, rng.randint(3, 4), with_inf=rng.random() < 0.5)
    doc = higgs_doc(rng, p, types, pts, shape=rng.choice(("lower", "upper", "full")))
    return _job("semistable", doc, kind="decided-or-undecided")


def residues_job(rng: random.Random, p: int, r: int) -> Job:
    types = sorted((rng.randrange(-1, 2) for _ in range(r)), reverse=True)
    pts = divisor(rng, p, rng.randint(2, 4), with_inf=rng.random() < 0.5)
    doc = higgs_doc(rng, p, types, pts, shape="full")
    return _job("residues", doc, kind="decided-or-undecided")


# -- local models -------------------------------------------------------------------------

def monodromy_job(rng: random.Random, p: int, n: int) -> Job:
    """A nilpotent operator over F_p[y]: strictly upper triangular with
    polynomial entries, conjugated by n elementary similarities (add f times
    row j to row i, then subtract f times column i from column j)."""
    M = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                M[i][j] = {k: c for k in range(2)
                           if (c := rng.randrange(p))}
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        f = {k: c for k in range(2) if (c := rng.randrange(p))}
        if not f:
            continue
        M[i] = [l_add(M[i][col], l_mul(f, M[j][col], p), p)
                for col in range(n)]
        neg = {k: (-c) % p for k, c in f.items()}
        for row in range(n):
            M[row][j] = l_add(M[row][j], l_mul(neg, M[row][i], p), p)
    doc = {"p": p, "matrix": [[l_str(e, "y") for e in row] for row in M]}
    return _job("monodromy", doc, kind="decided-or-undecided")


def _bipoly_str(terms: dict) -> str:
    """{(i, j): c} in x, y with descending total degree, then x-degree."""
    if not terms:
        return "0"
    return " + ".join(_term(terms[t], [("x", t[0]), ("y", t[1])]) for t in
                      sorted(terms, key=lambda t: (-(t[0] + t[1]), -t[0])))


def _jordan_poly(rng: random.Random, p: int, r: int):
    """sum_{k >= 1} c_k J^k for the size-r Jordan block, c_k of bidegree
    <= (1, 1); any two of these commute."""
    out = [[{} for _ in range(r)] for _ in range(r)]
    for k in range(1, r):
        c = {(i, j): v for i in range(2) for j in range(2)
             if (v := rng.randrange(p))}
        for i in range(r - k):
            out[i][i + k] = dict(c)
    return [[_bipoly_str(e) for e in row] for row in out]


def nearby_job(rng: random.Random, p: int, r: int, y_log: bool) -> Job:
    doc = {"p": p, "y_log": y_log, "theta_x": _jordan_poly(rng, p, r),
           "theta_y": _jordan_poly(rng, p, r)}
    return _job("nearby-check", doc, kind="decided-or-undecided")


# -- decks and streams --------------------------------------------------------------------

SPLIT_PRIMES = (3, 5, 7, 97)


# generator weights of the graded rings.  The cost of a job is set by the
# ring, the truncation and the rank, so these are fixed per slot of the deck
# (ranks cycle through 1..6) and only the coefficients change with the seed.
RINGS = ((1,), (1, 1), (1, 2), (1, 3), (1, 2, 2), (1, 2, 3))


def discriminants_deck(draw):
    slots = [(w, n) for w in RINGS for n in range(3, 11)]
    return [draw(discriminant_job, n, w, 1 + k % 6, n % 2 == 0)
            for k, (w, n) in enumerate(slots)]


def split_deck(draw):
    # No bundle is drawn twice, so a cache keyed by input never hits here.
    # The diagonal rows of e = 50, one per prime, cost about the same on
    # every seed and are where the 90th percentile falls; rank-3 bundles
    # stop at spread 32, whose cost varies too much with the frames.
    jobs = [draw.fresh(split_job, p, r, s) for p in SPLIT_PRIMES
            for r, s in product((2, 3), (2, 6, 12, 24))]
    jobs += [draw.fresh(split_job, p, r, s) for p in SPLIT_PRIMES
             for r, s in ((2, 48), (3, 32))]
    jobs += [draw.fresh(diagonal_split_job, p, 50) for p in SPLIT_PRIMES]
    return jobs + [draw.fresh(diagonal_split_job, p, e)
                   for p, e in zip(draw.rng.sample(SPLIT_PRIMES, 2),
                                   (25, 100))]


def higgs_deck(draw):
    # rank-3 flows stay at p <= 7 and the 5-point divisors stop below 23:
    # beyond that a single flow takes seconds.  The extra rank-2 flows at
    # p = 5 and rank-3 flows at p = 7 put bands of like jobs where the
    # median and the 90th percentile fall, so neither sits on the edge
    # between two kinds of job.
    jobs = [draw(flow_job, p, 2, n) for p in (3, 5, 7, 11, 13, 23)
            for n in (4, 5) if n == 4 or 3 < p < 23]
    jobs += [draw(flow_job, 5, 2, 4) for _ in range(8)]
    jobs += [draw(flow_job, p, 3, 4) for p in (3, 5, 7, 7, 7)]
    jobs += [draw(cartier_job, p, r) for p in (3, 5, 7) for r in (2, 2, 3)]
    jobs += [draw(semistable_job, p, 2, draw.rng.random() < 0.5)
             for p in (3, 5, 7, 11)]
    jobs += [draw(semistable_job, p, 3, p in (3, 7)) for p in (3, 5, 7, 11)]
    jobs += [draw(residues_job, p, r) for p, r in ((5, 2), (11, 3))]
    return jobs


def local_deck(draw):
    # the 90th percentile falls among the operators of dimension 5, so each
    # deck has two of them per prime
    jobs = [draw(monodromy_job, p, n) for p in (3, 5, 7) for n in (3, 4, 5, 5)]
    return jobs + [draw(nearby_job, p, r, y_log) for p in (3, 5, 7)
                   for r in (2, 3) for y_log in (False, True)]


DECKS = {"discriminants": discriminants_deck, "split": split_deck,
         "higgs": higgs_deck, "local": local_deck}


class Stream:
    """The decks of one workload for one seed, in order."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self._deck = DECKS[workload]
        self._seen: set = set()

    def __call__(self, make, *args) -> Job:
        return make(self.rng, *args)

    def fresh(self, make, *args) -> Job:
        """A job whose document was not drawn before in this stream."""
        for _ in range(1000):
            job = make(self.rng, *args)
            if job.doc not in self._seen:
                self._seen.add(job.doc)
                return job
        raise RuntimeError(f"{make.__name__}{args}: no unseen document left")

    def next_deck(self) -> list:
        return self._deck(self)
