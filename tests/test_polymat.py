"""Smith forms over F_p[y] on seeded matrices: the transforms, the inverse
carried through the elimination, saturation and batched solves."""
import random

import pytest

from hdrflow.exact import matrix, polymat
from hdrflow.exact.poly import Poly

SHAPES = [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (3, 3), (4, 3), (4, 4),
          (3, 5), (5, 5), (5, 6)]


def rand_poly(rng, p, deg=2):
    return Poly(p, [rng.randrange(p) for _ in range(rng.randrange(deg + 2))])


def rand_mat(rng, p, n, m, deg=2):
    return [[rand_poly(rng, p, deg) for _ in range(m)] for _ in range(n)]


def seeded_matrices():
    """(label, M): full, rank-deficient (a product through a thinner middle)
    and with zero rows, over p = 3, 5, 7."""
    out = []
    for k, (n, m) in enumerate(SHAPES):
        p = (3, 5, 7)[k % 3]
        rng = random.Random(f"polymat:{n}x{m}:{p}")
        out.append((f"{n}x{m}-p{p}-full", rand_mat(rng, p, n, m)))
        r = max(1, min(n, m) - 1)
        low = matrix.mul(rand_mat(rng, p, n, r, 1), rand_mat(rng, p, r, m, 1))
        out.append((f"{n}x{m}-p{p}-rank{r}", low))
        zeroed = rand_mat(rng, p, n, m)
        zeroed[rng.randrange(n)] = [Poly.zero(p)] * m
        out.append((f"{n}x{m}-p{p}-zero-row", zeroed))
    return out


CASES = seeded_matrices()
IDS = [label for label, _ in CASES]


@pytest.mark.parametrize("label, M", CASES, ids=IDS)
def test_transforms_reduce_to_a_divisibility_chain(label, M):
    U, S, V = polymat.smith_normal_form(M)
    n, m = matrix.shape(M)
    assert matrix.eq(matrix.mul(matrix.mul(U, M), V), S)
    assert polymat.is_unimodular(U) and polymat.is_unimodular(V)
    for i in range(n):
        for j in range(m):
            assert i == j or S[i][j].is_zero()
    d = [S[i][i] for i in range(min(n, m))]
    nonzero = [s for s in d if not s.is_zero()]
    assert d[:len(nonzero)] == nonzero  # the zeros come last
    assert all(s.lc() == 1 for s in nonzero)
    for a, b in zip(d, d[1:]):
        assert (b % a).is_zero() if not a.is_zero() else b.is_zero()


@pytest.mark.parametrize("label, M", CASES, ids=IDS)
def test_inverse_is_carried_through_the_elimination(label, M):
    f = polymat.smith_form(M)
    n = len(M)
    p = M[0][0].p
    eye = matrix.identity(Poly, p, n)
    assert matrix.eq(matrix.mul(f.U, f.Uinv), eye)
    assert matrix.eq(matrix.mul(f.Uinv, f.U), eye)
    assert matrix.eq(f.Uinv, polymat.pmat_inverse(f.U))


@pytest.mark.parametrize("label, M", CASES, ids=IDS)
def test_nonsingular_agrees_with_the_determinant(label, M):
    k = min(matrix.shape(M))
    square = [row[:k] for row in M[:k]]
    assert polymat.nonsingular(square) == (not matrix.det(square).is_zero())


def test_nonsingular_pivots_past_a_zero():
    one, zero, y = Poly.one(3), Poly.zero(3), Poly.x(3)
    assert polymat.nonsingular([[zero, one], [one, zero]])
    assert not polymat.nonsingular([[y, y * y], [one, y]])
    assert not polymat.nonsingular([[zero, y], [zero, one]])


@pytest.mark.parametrize("label, M", CASES, ids=IDS)
def test_saturation_spans_a_saturated_module(label, M):
    f = polymat.smith_form(M)
    sat = polymat.saturate(M)
    assert len(sat) == f.rank
    if not sat:
        assert matrix.is_zero(M)
        return
    # free and saturated: every Smith invariant of the basis is a unit
    g = polymat.smith_form(matrix.from_columns(sat))
    assert g.rank == len(sat)
    assert all(s.is_constant() for s in g.diagonal())
    # it holds the columns of M, and has their rank
    assert polymat.submodule_contains(sat, [list(c) for c in zip(*M)])
    # the kernel is annihilated and completes the rank
    K = f.kernel()
    assert len(K) == len(M[0]) - f.rank
    assert all(matrix.is_zero([matrix.vec(M, k)]) for k in K)


def right_hand_sides(rng, M):
    """Solvable columns (M x), multiples by y of those, random columns that
    are mostly unsolvable, and the zero column."""
    n, m = matrix.shape(M)
    p = M[0][0].p
    y = Poly.x(p)
    out = []
    for _ in range(3):
        x = [rand_poly(rng, p) for _ in range(m)]
        out.append(matrix.vec(M, x))
        out.append([y * b for b in out[-1]])
        out.append([rand_poly(rng, p) for _ in range(n)])
    out.append([Poly.zero(p)] * n)
    return out


@pytest.mark.parametrize("label, M", CASES, ids=IDS)
def test_batched_solve_matches_one_vector_solves(label, M):
    rng = random.Random(f"rhs:{label}")
    rhs = right_hand_sides(rng, M)
    batched = polymat.solve_over_ring(M, rhs)
    assert len(batched) == len(rhs)
    for b, x in zip(rhs, batched):
        (alone,) = polymat.solve_over_ring(M, [b])
        assert x == alone
        if x is not None:
            assert matrix.vec(M, x) == b
    # the solvable columns are found solvable
    assert all(batched[k] is not None for k in range(0, len(rhs) - 1, 3))
    assert batched[-1] is not None
    cols = [list(c) for c in zip(*M)]
    assert polymat.submodule_contains(cols, [b for b, x in zip(rhs, batched)
                                             if x is not None])
    for b, x in zip(rhs, batched):
        assert polymat.submodule_contains(cols, [b]) == (x is not None)


def test_unsolvable_column_needs_a_unit_invariant():
    p = 5
    y = Poly.x(p)
    one, zero = Poly.one(p), Poly.zero(p)
    M = [[y, zero], [zero, one]]
    assert polymat.solve_over_ring(M, [[one, zero], [y, y]]) == [
        None, [one, y]]
    assert polymat.solve_over_ring(M, []) == []
    assert not polymat.submodule_contains([[y, zero]], [[one, zero]])
    assert polymat.submodule_contains([], [[zero, zero]])
