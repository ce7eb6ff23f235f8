"""Independent Jordan-theory oracle used by the monodromy tests.

For a nilpotent Jordan block of size s with N e_i = e_{i-1}, basis vector e_i
carries weight 2i - s - 1, so the closed-form filtration of a direct sum of
blocks is spanned by standard basis vectors sorted by that weight.  The
exhaustive search enumerates every increasing exhaustive filtration on F_p^n
(n <= 3) and counts the ones passing both filtration axioms.
"""
import itertools

from hdrflow.exact import linalg
from hdrflow.monodromy import WeightFiltration, verify_filtration_axioms


def partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def jordan_weights(sizes):
    ws = []
    for s in sizes:
        ws.extend(2 * i - s - 1 for i in range(1, s + 1))
    return ws


def jordan_expected_filtration(p, sizes):
    n = sum(sizes)
    ws = jordan_weights(sizes)
    lo, hi = min(ws), max(ws)
    bases = []
    for w in range(lo, hi + 1):
        vecs = []
        for g, wt in enumerate(ws):
            if wt <= w:
                e = [0] * n
                e[g] = 1
                vecs.append(tuple(e))
        bases.append(tuple(vecs))
    return WeightFiltration(p, n, lo, hi, tuple(bases))


def all_subspaces(p, n):
    """Every subspace of F_p^n for n <= 3, as canonical rref bases."""
    if n > 3:
        raise ValueError("enumeration written for n <= 3 only")
    out = {(): []}
    nz = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    pool = [[v] for v in nz]
    if n >= 3:
        pool += [[v, w] for v, w in itertools.combinations(nz, 2)]
    for gens in pool:
        b = linalg.span_basis(p, [list(g) for g in gens])
        out[tuple(tuple(r) for r in b)] = b
    full = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    out[tuple(tuple(r) for r in full)] = full
    return list(out.values())


def axiom_passing_filtrations(op):
    """All filtrations on F_p^n passing verify_filtration_axioms.

    Any filtration passing axiom (2) has graded support inside
    [-(n-1), n-1], so enumerating that window with zero below it is
    exhaustive.  The N M_w <= M_{w-2} constraint prunes during recursion;
    pruned branches fail axiom (1) outright.
    """
    p, n = op.p, op.dim
    subs = all_subspaces(p, n)

    def key(b):
        return tuple(tuple(r) for r in b)

    idx = {key(b): i for i, b in enumerate(subs)}
    leq = [[linalg.subspace_leq(p, a, b) for b in subs] for a in subs]
    N = [list(r) for r in op.rows]
    nimg = [idx[key(linalg.span_basis(p, [linalg.mat_vec(p, N, list(v))
                                          for v in b]))]
            for b in subs]
    zero_i = idx[()]
    full_i = idx[key(linalg.span_basis(
        p, [[1 if i == j else 0 for j in range(n)] for i in range(n)]))]
    window = list(range(-(n - 1), n))
    hits = []

    def rec(slot, chosen):
        if slot == len(window):
            if chosen[-1] != full_i:
                return
            bases = tuple(tuple(tuple(v) for v in subs[i]) for i in chosen)
            cand = WeightFiltration(p, n, window[0], window[-1], bases)
            if verify_filtration_axioms(op, cand).all_pass:
                hits.append(cand)
            return
        prev = chosen[-1] if chosen else zero_i
        two_back = chosen[-2] if len(chosen) >= 2 else zero_i
        for i in range(len(subs)):
            if leq[prev][i] and leq[nimg[i]][two_back]:
                rec(slot + 1, chosen + [i])

    rec(0, [])
    return hits
