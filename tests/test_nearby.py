import random
from collections import Counter

import pytest

from hdrflow.exact import matrix
from hdrflow.exact.bipoly import BiPoly
from hdrflow.exact.poly import Poly
from hdrflow.exact.polymat import is_unimodular, pmat_inverse
from hdrflow.nearby import (LY0Module, LYModule, local_higgs_module,
                            local_inverse_cartier, local_log_connection,
                            ly0_module, ly_module, pair_nilpotency_level,
                            phi_restrict, psi_restrict,
                            residue_along_component, residue_endomorphism,
                            upsilon0, z_model_build, z_model_compatibility)

from jordan_oracle import jordan_weights, partitions


def bmat(p, rows):
    return [[BiPoly.const(p, e) if isinstance(e, int) else e for e in row]
            for row in rows]


def ymat(p, rows):
    return [[Poly.const(p, e) if isinstance(e, int) else e for e in row]
            for row in rows]


def rand_bp(rng, p, dx=1, dy=1):
    terms = {}
    for i in range(dx + 1):
        for j in range(dy + 1):
            c = rng.randrange(p)
            if c:
                terms[(i, j)] = c
    return BiPoly.from_terms(p, terms)


def jordan_poly(rng, p, r, coeff, lowest=1):
    """Random  sum_{k >= lowest} c_k J^k  for the size-r Jordan block; any
    two outputs commute because both live in F_p[x, y][J]."""
    sample = coeff(rng, p)
    zero = sample - sample
    out = [[zero for _ in range(r)] for _ in range(r)]
    for k in range(lowest, r):
        c = coeff(rng, p)
        for i in range(r - k):
            out[i][i + k] = out[i][i + k] + c
    return out


def poly_frame(rng, p, r, maxdeg=2):
    """Unimodular matrix over F_p[y] built from elementary row operations."""
    M = [[Poly.const(p, 1 if i == j else 0) for j in range(r)]
         for i in range(r)]
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        f = Poly(p, tuple(rng.randrange(p)
                          for _ in range(rng.randint(0, maxdeg) + 1)))
        for k in range(r):
            M[i][k] = M[i][k] + f * M[j][k]
    return M


def conjugate(G, R):
    return matrix.mul(matrix.mul(pmat_inverse(G), [list(r) for r in R]), G)


def block_nilpotent(p, sizes):
    n = sum(sizes)
    rows = [[Poly.zero(p)] * n for _ in range(n)]
    off = 0
    for s in sizes:
        for i in range(s - 1):
            rows[off + i][off + i + 1] = Poly.one(p)
        off += s
    return rows


# -- chart factories ------------------------------------------------------------

def test_higgs_module_factory_checks():
    p = 5
    with pytest.raises(ValueError, match="do not commute"):
        local_higgs_module(p, [[0, 1], [1, 0]], [[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="not square"):
        local_higgs_module(p, [[0, 1]], [[0, 1]])
    with pytest.raises(ValueError, match="over the chart prime"):
        local_higgs_module(p, [[BiPoly.one(3)]], [[0]])
    m = local_higgs_module(p, [[0, 1], [0, 0]], [[0, 0], [0, 0]], y_log=True)
    assert m.rank == 2 and m.y_log


def test_connection_flatness():
    p = 5
    N = [[0, 1], [0, 0]]
    zero = [[0, 0], [0, 0]]
    local_log_connection(p, N, zero)
    yI = [[BiPoly.v(p), BiPoly.zero(p)], [BiPoly.zero(p), BiPoly.v(p)]]
    local_log_connection(p, N, yI)
    # x d/dx (a_y) = d/dy (a_x) forced when the parts commute:
    # a_x = N + 2 x^2 y N,  a_y = x^2 N
    u, v = BiPoly.u(p), BiPoly.v(p)
    cx = BiPoly.one(p) + BiPoly.const(p, 2) * u * u * v
    ax = [[BiPoly.zero(p), cx], [BiPoly.zero(p), BiPoly.zero(p)]]
    ay = [[BiPoly.zero(p), u * u], [BiPoly.zero(p), BiPoly.zero(p)]]
    con = local_log_connection(p, ax, ay)
    assert con.rank == 2
    # same a_y with the compensating term dropped is not flat
    with pytest.raises(ValueError, match="not flat"):
        local_log_connection(p, N, ay)
    # [a_x, a_y] != 0 spoils flatness even for constant-in-x parts
    yM = [[BiPoly.zero(p), BiPoly.zero(p)], [BiPoly.zero(p), BiPoly.v(p)]]
    with pytest.raises(ValueError, match="not flat"):
        local_log_connection(p, N, yM)


def test_restricted_factory_checks():
    p = 5
    with pytest.raises(ValueError, match="do not commute"):
        ly0_module(p, [[0, 1], [1, 0]], [[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="Poly in y over the prime"):
        ly0_module(p, [[Poly.one(3)]], [[0]])
    y = Poly.x(p)
    yN = [[Poly.zero(p), y], [Poly.zero(p), Poly.zero(p)]]
    # y d/dy (yN) = yN = [yN, diag(0, 1)], so this pair is flat...
    m = ly_module(p, yN, [[0, 0], [0, 1]], y_log=True)
    assert residue_endomorphism(m) == m.r_op
    # ...and dropping the b-term breaks it
    with pytest.raises(ValueError, match="not flat for the connection"):
        ly_module(p, yN, [[0, 0], [0, 0]], y_log=True)


# -- restriction to the component ------------------------------------------------

def test_phi_restrict_frozen():
    p = 5
    u, v = BiPoly.u(p), BiPoly.v(p)
    m = local_higgs_module(p, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
    ly = phi_restrict(m)
    assert ly.r_op == ((Poly.zero(p), Poly.one(p)),
                       (Poly.zero(p), Poly.zero(p)))
    assert all(e.is_zero() for row in ly.theta_op for e in row)
    # x-multiples die on restriction
    m2 = local_higgs_module(p, [[BiPoly.zero(p), u], [BiPoly.zero(p),
                                                      BiPoly.zero(p)]],
                            [[0, 0], [0, 0]])
    assert all(e.is_zero() for row in phi_restrict(m2).r_op for e in row)
    # (1 + xy) N restricts to N, y^2 N stays y^2 N
    cx = BiPoly.one(p) + u * v
    m3 = local_higgs_module(p,
                            [[BiPoly.zero(p), cx],
                             [BiPoly.zero(p), BiPoly.zero(p)]],
                            [[BiPoly.zero(p), v * v],
                             [BiPoly.zero(p), BiPoly.zero(p)]])
    ly3 = phi_restrict(m3)
    yy = Poly.x(p) * Poly.x(p)
    assert ly3.r_op[0][1] == Poly.one(p)
    assert ly3.theta_op[0][1] == yy


def test_psi_restrict_frozen():
    p = 5
    zero = [[0, 0], [0, 0]]
    ly = psi_restrict(local_log_connection(p, zero, zero))
    assert all(e.is_zero() for row in ly.r_op for e in row)
    assert all(e.is_zero() for row in ly.b_op for e in row)
    N = [[0, 1], [0, 0]]
    ly2 = psi_restrict(local_log_connection(p, N, zero))
    assert ly2.r_op[0][1] == Poly.one(p) and ly2.b_op == ly.b_op
    yI = [[BiPoly.v(p), BiPoly.zero(p)], [BiPoly.zero(p), BiPoly.v(p)]]
    ly3 = psi_restrict(local_log_connection(p, N, yI))
    assert ly3.b_op[0][0] == Poly.x(p)
    assert ly3.b_op[1][1] == Poly.x(p)
    assert ly3.r_op == ly2.r_op


def test_residue_endomorphism_audits_input():
    p = 5
    m = phi_restrict(local_higgs_module(p, [[0, 1], [0, 0]], [[0, 0], [0, 0]]))
    assert residue_endomorphism(m) == m.r_op
    # hand-built inconsistent records are re-checked, not trusted
    bad = LY0Module(p, 2, tuple(map(tuple, ymat(p, [[0, 1], [1, 0]]))),
                    tuple(map(tuple, ymat(p, [[1, 0], [0, 0]]))), False)
    with pytest.raises(ValueError, match="commute with the y-operator"):
        residue_endomorphism(bad)
    y = Poly.x(p)
    badc = LYModule(p, 2, tuple(map(tuple, ymat(p, [[y * 0, y], [y * 0,
                                                                 y * 0]]))),
                    tuple(map(tuple, ymat(p, [[0, 0], [0, 0]]))), True)
    with pytest.raises(ValueError, match="commute with the connection"):
        residue_endomorphism(badc)
    with pytest.raises(TypeError, match="no residue endomorphism"):
        residue_endomorphism(local_higgs_module(p, [[0]], [[0]]))


def test_residue_along_component():
    p = 5
    y = Poly.x(p)
    theta = [[Poly.const(p, 2) + y, Poly.one(p)],
             [Poly.zero(p), Poly.const(p, 2)]]
    m = ly0_module(p, [[0, 0], [0, 0]], theta, y_log=True)
    assert residue_along_component(m) == [[2, 1], [0, 2]]
    m2 = ly0_module(p, [[0, 0], [0, 0]], [[y * 3, y], [y * 0, y * y]],
                    y_log=True)
    assert residue_along_component(m2) == [[0, 0], [0, 0]]
    m3 = ly0_module(p, [[0, 0], [0, 0]], theta, y_log=False)
    with pytest.raises(ValueError, match="no log component"):
        residue_along_component(m3)


# -- the graded functor -----------------------------------------------------------

def test_upsilon_constant_jordan():
    p = 5
    up = upsilon0(ly0_module(p, [[0, 1], [0, 0]], [[0, 0], [0, 0]]))
    assert [(q.weight, q.rank) for q in up.pieces] == [(-1, 1), (1, 1)]
    assert up.level == 1 and up.total_rank == 2
    for q in up.pieces:
        assert all(e.is_zero() for row in q.module.r_op for e in row)
        assert all(e.is_zero() for row in q.module.theta_op for e in row)
    steps = dict(up.filtration)
    assert steps[-1] == (((Poly.one(p), Poly.zero(p))),)
    assert is_unimodular([[up.frame[j][i] for j in range(2)]
                          for i in range(2)])


def test_upsilon_saturates_the_residue_image():
    # R = [[0, y], [0, 0]] has image y.(1,0); the weight -1 step is the
    # saturation (1,0), giving the same graded ranks as the constant block
    p = 5
    y = Poly.x(p)
    up = upsilon0(ly0_module(p, [[y * 0, y], [y * 0, y * 0]],
                             [[0, 0], [0, 0]]))
    assert [(q.weight, q.rank) for q in up.pieces] == [(-1, 1), (1, 1)]
    steps = dict(up.filtration)
    assert steps[-1] == ((Poly.one(p), Poly.zero(p)),)


def test_upsilon_zero_residue_is_identity():
    p = 5
    theta = [[1, 2], [0, 1]]
    up = upsilon0(ly0_module(p, [[0, 0], [0, 0]], theta))
    assert [(q.weight, q.rank) for q in up.pieces] == [(0, 2)]
    assert up.level == 0
    assert up.pieces[0].module.theta_op == tuple(map(tuple, ymat(p, theta)))


def test_upsilon_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="not nilpotent"):
        upsilon0(ly0_module(5, [[1, 0], [0, 1]], [[0, 0], [0, 0]]))


def test_upsilon_rank_three_frozen():
    # R = J + y J^2 is regular nilpotent over F_5[y]; Theta = (2+y) J^2 + 3
    # commutes and its graded pieces retain only the scalar part
    p = 5
    y = Poly.x(p)
    J = block_nilpotent(p, (3,))
    R = [[J[i][j] + (y if (i, j) == (0, 2) else Poly.zero(p))
          for j in range(3)] for i in range(3)]
    T = [[Poly.zero(p) for _ in range(3)] for _ in range(3)]
    T[0][2] = Poly.const(p, 2) + y
    for i in range(3):
        T[i][i] = T[i][i] + Poly.const(p, 3)
    up = upsilon0(ly0_module(p, R, T))
    assert [(q.weight, q.rank) for q in up.pieces] == [(-2, 1), (0, 1), (2, 1)]
    assert up.level == 2
    for q in up.pieces:
        assert q.module.theta_op == ((Poly.const(p, 3),),)


def test_upsilon_matches_jordan_type_oracle():
    """Graded ranks of the weight filtration are determined by the Jordan
    type of the residue; conjugating a constant block sum by a unimodular
    polynomial frame must not change them."""
    rng = random.Random(101)
    p = 5
    for n in range(1, 5):
        for sizes in partitions(n):
            G = poly_frame(rng, p, n)
            R = conjugate(G, block_nilpotent(p, sizes))
            e = Poly(p, (rng.randrange(p), rng.randrange(1, p)))
            T = [[e if i == j else Poly.zero(p) for j in range(n)]
                 for i in range(n)]
            up = upsilon0(ly0_module(p, R, T))
            want = sorted(Counter(jordan_weights(sizes)).items())
            assert sorted((q.weight, q.rank) for q in up.pieces) == want
            assert up.total_rank == n
            ranks = {q.weight: q.rank for q in up.pieces}
            assert all(ranks[w] == ranks[-w] for w in ranks)
            for q in up.pieces:
                assert q.module.theta_op == tuple(
                    tuple(e if i == j else Poly.zero(p)
                          for j in range(q.rank)) for i in range(q.rank))


def test_upsilon_invariant_under_frame_change():
    rng = random.Random(53)
    p = 5

    def coeff(rng, p):
        return Poly(p, tuple(rng.randrange(p) for _ in range(2)))

    for r in (2, 3, 4):
        for _ in range(4):
            R = jordan_poly(rng, p, r, coeff)
            T = jordan_poly(rng, p, r, coeff)
            for i in range(r):
                T[i][i] = T[i][i] + Poly.one(p)
            up = upsilon0(ly0_module(p, R, T))
            G = poly_frame(rng, p, r)
            up2 = upsilon0(ly0_module(p, conjugate(G, R), conjugate(G, T)))
            assert ([(q.weight, q.rank) for q in up.pieces]
                    == [(q.weight, q.rank) for q in up2.pieces])
            assert up.level == up2.level


# -- the normal-bundle chart ------------------------------------------------------

def test_z_model_build_frozen():
    p = 5
    u, v = BiPoly.u(p), BiPoly.v(p)
    cx = BiPoly.one(p) + u * v
    m = local_higgs_module(p,
                           [[BiPoly.zero(p), cx],
                            [BiPoly.zero(p), BiPoly.zero(p)]],
                           [[BiPoly.zero(p), v * v],
                            [BiPoly.zero(p), BiPoly.zero(p)]], y_log=True)
    z = z_model_build(m)
    assert z.theta_x[0][1] == BiPoly.one(p)
    assert z.theta_y[0][1] == v * v
    assert z.y_log


def test_pair_nilpotency_level():
    p = 5
    N = [[0, 1], [0, 0]]
    zero2 = [[0, 0], [0, 0]]
    assert pair_nilpotency_level(local_higgs_module(p, N, zero2)) == 1
    assert pair_nilpotency_level(local_higgs_module(p, zero2, zero2)) == 0
    J = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    J2 = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    assert pair_nilpotency_level(local_higgs_module(p, J, J2)) == 2
    assert pair_nilpotency_level(local_higgs_module(p, J2, J2)) == 1
    ident = [[1, 0], [0, 1]]
    assert pair_nilpotency_level(local_higgs_module(p, ident, zero2)) is None


def test_local_transform_preconditions_and_frozen_values():
    p = 3
    J4 = block_nilpotent(5, (4,))
    big = local_higgs_module(3, [[int(not e.is_zero()) for e in row]
                                 for row in J4], [[0] * 4] * 4)
    with pytest.raises(ValueError, match="rank 4 exceeds the prime 3"):
        local_inverse_cartier(big)
    ident = local_higgs_module(p, [[1, 0], [0, 1]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="not nilpotent"):
        local_inverse_cartier(ident)
    # substitution x -> x^p, y -> y^p on the coefficients
    p = 5
    u, v = BiPoly.u(p), BiPoly.v(p)
    cx = BiPoly.one(p) + u * v
    m = local_higgs_module(p, [[BiPoly.zero(p), cx],
                               [BiPoly.zero(p), BiPoly.zero(p)]],
                           [[0, 0], [0, 0]])
    con = local_inverse_cartier(m)
    assert con.a_x[0][1] == BiPoly.from_terms(p, {(0, 0): 1, (5, 5): 1})
    # dy-direction picks up y^(p-1) exactly when it has no log pole
    p = 3
    N = [[0, 1], [0, 0]]
    z2 = [[0, 0], [0, 0]]
    mlog = local_higgs_module(p, z2, N, y_log=True)
    assert local_inverse_cartier(mlog).a_y[0][1] == BiPoly.one(p)
    mdy = local_higgs_module(p, z2, N, y_log=False)
    assert local_inverse_cartier(mdy).a_y[0][1] == BiPoly.from_terms(
        p, {(0, 2): 1})


def test_z_model_compatibility_frozen_cases():
    p = 5
    N = [[0, 1], [0, 0]]
    z2 = [[0, 0], [0, 0]]
    for y_log in (False, True):
        rep = z_model_compatibility(local_higgs_module(p, N, z2, y_log))
        assert rep.ok and rep.detail == ""
        assert rep.z_connection.a_x[0][1] == BiPoly.one(p)
    # y-coefficient y^3 + 2 at p = 3 maps to y^9 + 2 under the lift
    p = 3
    v = BiPoly.v(p)
    cy = v * v * v + BiPoly.const(p, 2)
    Jx = [[BiPoly.zero(p), BiPoly.one(p)], [BiPoly.zero(p), BiPoly.zero(p)]]
    Jy = [[BiPoly.zero(p), cy], [BiPoly.zero(p), BiPoly.zero(p)]]
    rep = z_model_compatibility(local_higgs_module(p, Jx, Jy, y_log=True))
    assert rep.ok
    assert rep.pulled_back.a_y[0][1] == BiPoly.from_terms(
        p, {(0, 9): 1, (0, 0): 2})
    rep2 = z_model_compatibility(local_higgs_module(p, Jx, Jy, y_log=False))
    assert rep2.ok
    assert rep2.pulled_back.a_y[0][1] == BiPoly.from_terms(
        p, {(0, 11): 1, (0, 2): 2})
    # x-dependence goes through the same way
    p = 5
    u, v = BiPoly.u(p), BiPoly.v(p)
    cx = BiPoly.one(p) + u * v
    m = local_higgs_module(p, [[BiPoly.zero(p), cx],
                               [BiPoly.zero(p), BiPoly.zero(p)]],
                           [[0, 0], [0, 0]])
    rep3 = z_model_compatibility(m)
    assert rep3.ok
    assert rep3.pulled_back.a_x[0][1] == BiPoly.one(p)


def test_z_model_compatibility_random():
    rng = random.Random(29)
    p = 5
    for trial in range(20):
        r = rng.choice((2, 3))
        tx = jordan_poly(rng, p, r, rand_bp)
        ty = jordan_poly(rng, p, r, rand_bp)
        m = local_higgs_module(p, tx, ty, y_log=bool(trial % 2))
        rep = z_model_compatibility(m)
        assert rep.equal, rep.detail
        assert rep.residue_square_ok
        assert rep.z_connection.y_log == m.y_log
