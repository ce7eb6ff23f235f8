import random

from hdrflow.exact.poly import Poly
from hdrflow.exact import linalg, matrix
from hdrflow.monodromy import (AxiomReport, NilpotentOperator,
                               WeightFiltration, conjugate,
                               graded_of_kernel, jordan_matrix,
                               monodromy_filtration, nilpotency_index,
                               primitive_decomposition, primitive_parts,
                               same_filtration, transform_filtration,
                               verify_filtration_axioms)

from jordan_oracle import (axiom_passing_filtrations,
                           jordan_expected_filtration, partitions)


def test_zero_operator():
    op = NilpotentOperator.from_ints(5, [[0] * 3] * 3)
    filt = monodromy_filtration(op)
    assert filt.lo == filt.hi == 0
    assert filt.rank_at(0) == 3
    prims = primitive_parts(op, filt)
    assert prims.ranks == {0: 3}
    rep = graded_of_kernel(op, filt, prims)
    assert rep.kernel_rank == 3 and rep.matches


def test_not_nilpotent_rejected():
    op = NilpotentOperator.from_ints(5, [[1, 0], [0, 1]])
    try:
        nilpotency_index(op)
    except ValueError as err:
        assert "N^2" in str(err)
    else:
        raise AssertionError("identity accepted as nilpotent")


def test_single_block_size3():
    op = jordan_matrix(7, [3])
    filt = monodromy_filtration(op)
    assert filt.graded_support() == [-2, 0, 2]
    assert [filt.graded_rank(w) for w in (-2, 0, 2)] == [1, 1, 1]
    assert same_filtration(filt, jordan_expected_filtration(7, [3]))
    assert verify_filtration_axioms(op, filt).all_pass
    prims = primitive_parts(op, filt)
    assert prims.ranks == {2: 1}
    deco = primitive_decomposition(op, filt, prims)
    assert deco.ok
    # Gr_0 is the N-translate of P_2
    assert (0, 1, 1, True) in deco.per_weight
    ker = graded_of_kernel(op, filt, prims)
    assert ker.kernel_rank == 1 and ker.matches
    assert ker.per_j == ((2, 1, 1),)


def test_j2_plus_j1():
    op = jordan_matrix(5, [2, 1])
    filt = monodromy_filtration(op)
    assert filt.graded_support() == [-1, 0, 1]
    assert all(filt.graded_rank(w) == 1 for w in (-1, 0, 1))
    prims = primitive_parts(op, filt)
    assert prims.ranks == {1: 1, 0: 1}
    ker = graded_of_kernel(op, filt, prims)
    # kernel is rank 2, split over induced weights -1 and 0
    assert ker.kernel_rank == 2
    assert ker.per_j == ((0, 1, 1), (1, 1, 1))


def test_j2_plus_j2_primitives():
    op = jordan_matrix(3, [2, 2])
    filt = monodromy_filtration(op)
    prims = primitive_parts(op, filt)
    assert prims.ranks == {1: 2}
    deco = primitive_decomposition(op, filt, prims)
    assert deco.ok
    assert (-1, 2, 2, True) in deco.per_weight


def test_shifted_filtration_fails_graded_iso():
    # true J_2 filtration shifted by +1: axiom (1) survives, (2) dies
    op = jordan_matrix(5, [2])
    shifted = WeightFiltration(5, 2, 0, 2,
                               (((1, 0),), ((1, 0),), ((1, 0), (0, 1))))
    rep = verify_filtration_axioms(op, shifted)
    assert rep.increasing and rep.exhaustive and rep.shift
    assert not rep.graded_iso


def test_coarse_filtration_fails_shift():
    # 0 = M_{-1} < M_0 = E on J_2: the two-step filtration satisfies the
    # graded condition vacuously but N E is not inside M_{-2} = 0
    op = jordan_matrix(5, [2])
    coarse = WeightFiltration(5, 2, 0, 0, (((1, 0), (0, 1)),))
    rep = verify_filtration_axioms(op, coarse)
    assert rep.increasing and rep.exhaustive
    assert not rep.shift
    assert rep.graded_iso


def test_unnested_filtration_is_reported_not_raised():
    # M_{-1} is not inside M_0: the failure shows once under `increasing`,
    # and Gr_{+-1} are not defined, so axiom (2) fails without a complement
    op = jordan_matrix(5, [2, 1])
    whole = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    bad = WeightFiltration(5, 3, -1, 1, (((1, 0, 0),),
                                         ((0, 1, 0), (0, 0, 1)), whole))
    want = AxiomReport(False, True, False, False, True, True,
                       "M_-1 not inside M_0; N M_0 escapes M_-2; "
                       "N^1: Gr_1 -> Gr_-1 not invertible")
    assert verify_filtration_axioms(op, bad) == want
    lifted = WeightFiltration(5, 3, -1, 1, tuple(
        tuple(tuple(Poly.const(5, a) for a in v) for v in b)
        for b in bad.bases))
    module_op = NilpotentOperator.from_polys(5, op.rows)
    assert verify_filtration_axioms(module_op, lifted) == want


def test_field_results_come_back_over_fp():
    rng = random.Random(0xF1E1D)
    for sizes in ([3], [2, 2], [3, 1, 1]):
        n = sum(sizes)
        g = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        while linalg.rank(7, g) < n:
            g = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        op = conjugate(jordan_matrix(7, sizes), g)
        assert not op.over_ring
        filt = monodromy_filtration(op)
        image = transform_filtration(filt, g)
        for f in (filt, image):
            for b in f.bases:
                assert [list(v) for v in b] == linalg.span_basis(7, list(b))
        prims = primitive_parts(op, filt)
        assert all(isinstance(a, int) for _, vs in prims.parts
                   for v in vs for a in v)
        assert primitive_decomposition(op, filt, prims).ok
        # the constant operator over F_7[y] has the same filtration
        module = monodromy_filtration(
            NilpotentOperator.from_polys(7, op.rows))
        assert same_filtration(filt, module)
        assert same_filtration(image, monodromy_filtration(conjugate(op, g)))


def test_large_field_operator_in_polynomial_time():
    # J_2^10 behind a random frame over F_3: N: Gr_1 -> Gr_-1 is a dense
    # 10 x 10 map, whose determinant expansion would take 10! products
    rng = random.Random(0xB16)
    g = [[rng.randrange(3) for _ in range(20)] for _ in range(20)]
    while linalg.rank(3, g) < 20:
        g = [[rng.randrange(3) for _ in range(20)] for _ in range(20)]
    N = [list(r) for r in jordan_matrix(3, [2] * 10).rows]
    rows = linalg.mat_mul(3, linalg.mat_mul(3, g, N), linalg.inverse(3, g))
    op = conjugate(jordan_matrix(3, [2] * 10), g)
    assert op == NilpotentOperator.from_ints(3, rows)
    filt = monodromy_filtration(op)
    assert [filt.graded_rank(w) for w in (-1, 0, 1)] == [10, 0, 10]
    assert verify_filtration_axioms(op, filt).all_pass
    prims = primitive_parts(op, filt)
    assert prims.ranks == {1: 10}
    assert primitive_decomposition(op, filt, prims).ok


def test_conjugate_refuses_a_singular_frame():
    try:
        conjugate(jordan_matrix(5, [2]), [[1, 2], [2, 4]])
    except ValueError as err:
        assert "unimodular" in str(err)
    else:
        raise AssertionError("singular frame accepted")


def test_closed_form_all_types_dim3():
    for n in (1, 2, 3):
        for sizes in partitions(n):
            op = jordan_matrix(3, list(sizes))
            filt = monodromy_filtration(op)
            assert same_filtration(filt, jordan_expected_filtration(3, sizes))
            assert verify_filtration_axioms(op, filt).all_pass
            prims = primitive_parts(op, filt)
            assert primitive_decomposition(op, filt, prims).ok
            assert graded_of_kernel(op, filt, prims).matches


def test_uniqueness_dim_le_2():
    for sizes in [(1,), (2,), (1, 1)]:
        op = jordan_matrix(3, list(sizes))
        hits = axiom_passing_filtrations(op)
        assert len(hits) == 1
        assert same_filtration(hits[0], monodromy_filtration(op))


def test_conjugation_functoriality():
    rng = random.Random(0xF117)
    for _ in range(12):
        n = rng.randint(2, 4)
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, n - sum(sizes)))
        op = jordan_matrix(5, sizes)
        while True:
            g = [[rng.randrange(5) for _ in range(n)] for _ in range(n)]
            if linalg.rank(5, g) == n:
                break
        conj = conjugate(op, g)
        lhs = monodromy_filtration(conj)
        rhs = transform_filtration(monodromy_filtration(op), g)
        assert same_filtration(lhs, rhs)


def test_module_case_frozen():
    # N = [[0, y], [0, 0]] over F_5[y]: generically a J_2, so weights are
    # +-1 with Gr_0 = 0, and the graded map Gr_1 -> Gr_{-1} has det y
    y = Poly.x(5)
    z = Poly.zero(5)
    op = NilpotentOperator.from_polys(5, [[z, y], [z, z]])
    filt = monodromy_filtration(op)
    assert (filt.lo, filt.hi) == (-1, 1)
    assert filt.graded_support() == [-1, 1]
    assert filt.rank_at(-1) == 1 and filt.rank_at(0) == 1
    # M_{-1} = M_0 = saturation of im N = span (1, 0)
    assert [e.degree for e in filt.basis_at(-1)[0]] == [0, -1]
    rep = verify_filtration_axioms(op, filt)
    assert rep.all_pass


def _random_unimodular(rng, p, n, deg=1):
    g = matrix.identity(Poly, p, n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = Poly(p, tuple(rng.randrange(p) for _ in range(deg + 1)))
        for col in range(n):
            g[i][col] = g[i][col] + f * g[j][col]
    return g


def test_module_case_randomized():
    rng = random.Random(0xA11CE)
    for _ in range(8):
        p = rng.choice([3, 5])
        n = rng.randint(2, 3)
        rows = [[Poly(p, tuple(rng.randrange(p) for _ in range(2)))
                 if c > r else Poly.zero(p) for c in range(n)]
                for r in range(n)]
        op0 = NilpotentOperator.from_polys(p, rows)
        g = _random_unimodular(rng, p, n)
        op = conjugate(op0, g)
        filt = monodromy_filtration(op)
        rep = verify_filtration_axioms(op, filt)
        assert rep.all_pass, rep.witness
        assert sum(filt.graded_rank(w) for w in filt.weights()) == n
        for w in filt.weights():
            assert filt.graded_rank(w) == filt.graded_rank(-w)
        # unimodular functoriality
        lhs = monodromy_filtration(conjugate(op, g))
        rhs = transform_filtration(filt, g)
        assert same_filtration(lhs, rhs)


def test_module_primitive_decomposition():
    y = Poly.x(3)
    z = Poly.zero(3)
    one = Poly.one(3)
    op = NilpotentOperator.from_polys(3, [[z, y, z], [z, z, one], [z, z, z]])
    filt = monodromy_filtration(op)
    assert filt.graded_support() == [-2, 0, 2]
    prims = primitive_parts(op, filt)
    assert prims.ranks == {2: 1}
    assert primitive_decomposition(op, filt, prims).ok
    assert graded_of_kernel(op, filt, prims).matches
