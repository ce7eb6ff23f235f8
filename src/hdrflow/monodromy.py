"""Weight filtrations of nilpotent endomorphisms, with primitive parts.

Two flavours share one interface: matrices over F_p acting on F_p^n, and
matrices over F_p[y] acting on a free module, where every filtration step is
saturated so all graded pieces stay torsion-free.

The filtration is built from the closed form

    M_k = sum_{j >= max(0, -k)} ( ker N^(k+j+1)  cap  im N^j ),

termwise saturated in the module case, then saturated once more after the
sum.  It is the unique increasing exhaustive filtration with N M_k inside
M_{k-2} such that N^k induces an isomorphism Gr_k -> Gr_{-k} (full rank and
invertible over the fraction field in the module case).
"""
from __future__ import annotations

from dataclasses import dataclass

from .exact import linalg, matrix, polymat
from .exact.poly import Poly
from .exact.rings import Fp, check_prime


@dataclass(frozen=True)
class NilpotentOperator:
    """Square matrix over F_p (int entries) or F_p[y] (Poly entries)."""

    p: int
    rows: tuple

    @staticmethod
    def from_ints(p: int, rows) -> "NilpotentOperator":
        check_prime(p)
        return NilpotentOperator(p, tuple(tuple(int(a) % p for a in r)
                                          for r in rows))

    @staticmethod
    def from_polys(p: int, rows) -> "NilpotentOperator":
        check_prime(p)
        out = []
        for r in rows:
            out.append(tuple(a if isinstance(a, Poly) else Poly.const(p, a)
                             for a in r))
        return NilpotentOperator(p, tuple(out))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def over_ring(self) -> bool:
        return self.dim > 0 and isinstance(self.rows[0][0], Poly)

    def matrix(self):
        return [list(r) for r in self.rows]


def _power_chain(op: NilpotentOperator):
    """[N^0, N^1, ..., N^e] with N^e = 0; raises if N^dim != 0."""
    n = op.dim
    M = op.matrix()
    if op.over_ring:
        I = matrix.identity(Poly, op.p, n)
        mul = matrix.mul
        is_zero = matrix.is_zero
    else:
        F = Fp(op.p)
        I = linalg.identity(F, n)
        mul = lambda A, B: linalg.mat_mul(F, A, B)
        is_zero = lambda A: all(a == 0 for r in A for a in r)
    chain = [I]
    cur = I
    for _ in range(n):
        cur = mul(cur, M)
        chain.append(cur)
        if is_zero(cur):
            return chain
    raise ValueError(f"operator is not nilpotent: N^{n} is nonzero")


def nilpotency_index(op: NilpotentOperator) -> int:
    return len(_power_chain(op)) - 1


@dataclass(frozen=True)
class WeightFiltration:
    """M_lo ... M_hi with M_{lo-1} = 0 and M_hi the whole space.

    bases[i] is a tuple of vectors spanning M_{lo+i}; vectors are tuples of
    ints (field case) or Poly (module case, saturated bases).
    """

    p: int
    dim: int
    lo: int
    hi: int
    bases: tuple

    def basis_at(self, w: int):
        if w < self.lo:
            return ()
        if w > self.hi:
            return self.bases[-1]
        return self.bases[w - self.lo]

    def rank_at(self, w: int) -> int:
        return len(self.basis_at(w))

    def graded_rank(self, w: int) -> int:
        return self.rank_at(w) - self.rank_at(w - 1)

    def weights(self):
        return list(range(self.lo, self.hi + 1))

    def graded_support(self):
        return [w for w in self.weights() if self.graded_rank(w) > 0]


def _filtration_field(op: NilpotentOperator) -> WeightFiltration:
    F = Fp(op.p)
    n = op.dim
    chain = _power_chain(op)
    e = len(chain) - 1

    def kerpow(m):
        if m <= 0:
            return []
        if m >= e:
            return linalg.identity(F, n)
        return linalg.kernel_basis(F, chain[m])

    def impow(j):
        if j >= e:
            return []
        cols = [[chain[j][i][k] for i in range(n)] for k in range(n)]
        return linalg.span_basis(F, cols)

    table = {}
    for k in range(-e, e):
        acc = []
        for j in range(max(0, -k), e):
            t = linalg.subspace_intersect(F, kerpow(k + j + 1), impow(j), n)
            acc.extend(t)
        table[k] = linalg.span_basis(F, acc)
    lo = next(k for k in range(-e, e) if table[k])
    hi = next(k for k in range(-e, e) if len(table[k]) == n)
    bases = tuple(tuple(tuple(v) for v in table[k]) for k in range(lo, hi + 1))
    return WeightFiltration(op.p, n, lo, hi, bases)


def _filtration_module(op: NilpotentOperator) -> WeightFiltration:
    n = op.dim
    chain = _power_chain(op)
    e = len(chain) - 1
    # one Smith form per power N^j (j < e) gives both ker N^j and the
    # saturation of im N^j; ker N^m is the whole module for m >= e, so those
    # meets depend on j alone
    forms = [polymat.smith_form(chain[j]) for j in range(e)]
    kers = [f.kernel() for f in forms]
    ims = [f.saturation() for f in forms]
    whole = matrix.identity(Poly, op.p, n)
    whole_meets = [polymat.submodule_intersect(whole, im) for im in ims]

    def meet(m, j):
        if m <= 0:
            return []
        if m >= e:
            return whole_meets[j]
        return polymat.submodule_intersect(kers[m], ims[j])

    table = {}
    for k in range(-e, e):
        acc = []
        for j in range(max(0, -k), e):
            acc.extend(meet(k + j + 1, j))
        table[k] = polymat.saturate(matrix.from_columns(acc)) if acc else []
    lo = next(k for k in range(-e, e) if table[k])
    hi = next(k for k in range(-e, e) if len(table[k]) == n)
    bases = tuple(tuple(tuple(v) for v in table[k]) for k in range(lo, hi + 1))
    return WeightFiltration(op.p, n, lo, hi, bases)


def monodromy_filtration(op: NilpotentOperator) -> WeightFiltration:
    if op.dim == 0:
        raise ValueError("empty operator")
    if op.over_ring:
        return _filtration_module(op)
    return _filtration_field(op)


# ---------------------------------------------------------------- graded maps

def _complement_field(F, small, big):
    """Vectors of `big` extending span(small) to span(big), greedily."""
    cur = [list(v) for v in small]
    out = []
    for v in big:
        if not linalg.subspace_contains(F, cur, list(v)):
            out.append(list(v))
            cur.append(list(v))
    return out

def _coords_in_field(F, basis_vectors, v):
    if not basis_vectors:
        return [] if all(F.is_zero(x) for x in v) else None
    A = linalg.transpose([list(b) for b in basis_vectors])
    res = linalg.solve_linear(F, A, list(v))
    return res.solution


def _quotient_form(big_form, small):
    """Smith form of the coordinates of `small` in the basis whose Smith form
    is `big_form`, or None when a vector of `small` lies outside its span."""
    X = big_form.solve(small)
    if any(x is None for x in X):
        return None
    return polymat.smith_form(matrix.from_columns(X))


def _complement_module(small, big, quotient):
    """Free complement of span(small) inside span(big), both saturated;
    `quotient` is the Smith form of the coordinates of small in big."""
    if not small:
        return [list(v) for v in big]
    if len(small) == len(big):
        return []
    if quotient is None:
        raise AssertionError("filtration steps are not nested")
    B = matrix.from_columns(big)
    return [matrix.vec(B, [row[col] for row in quotient.Uinv])
            for col in range(quotient.rank, len(big))]


def _complement(op, filt, w):
    """A basis of Gr_w lifted to M_w: a complement of M_{w-1} inside M_w."""
    small, big = filt.basis_at(w - 1), filt.basis_at(w)
    if not op.over_ring:
        return _complement_field(Fp(op.p), small, big)
    q = None
    if small and len(small) != len(big):
        q = _quotient_form(polymat.smith_form(matrix.from_columns(big)), small)
    return _complement_module(small, big, q)


def _coords_in_module(basis_vectors, vectors):
    """Coordinates of each vector in the basis, or None where it lies outside
    the span; one Smith form for the whole batch."""
    if not basis_vectors:
        return [[] if all(x.is_zero() for x in v) else None for v in vectors]
    return polymat.solve_over_ring(matrix.from_columns(basis_vectors), vectors)


def _graded_map(op, filt, power_matrix, dst, comp_s, comp_d):
    """Matrix of N^k: Gr_src -> Gr_dst in the complement bases comp_s of
    Gr_src and comp_d of Gr_dst, or None when some image fails to land in
    M_dst (ill-defined map).
    Matrix convention: entry [t][s] = coefficient of dst complement vector t
    in the image of src complement vector s.
    """
    below = list(filt.basis_at(dst - 1))
    full_d = below + [tuple(v) for v in comp_d]
    if op.over_ring:
        xs = _coords_in_module(
            full_d, [matrix.vec(power_matrix, v) for v in comp_s])
    else:
        F = Fp(op.p)
        xs = [_coords_in_field(F, full_d, linalg.mat_vec(F, power_matrix, v))
              for v in comp_s]
    if any(x is None for x in xs):
        return None
    rows = [x[len(below):] for x in xs]
    return [[rows[s][t] for s in range(len(comp_s))]
            for t in range(len(comp_d))]


def _invertible_graded(op, mat, nsrc, ndst) -> bool:
    if nsrc != ndst:
        return False
    if nsrc == 0:
        return True
    if op.over_ring:
        return not matrix.det(mat).is_zero()
    return linalg.rank(Fp(op.p), mat) == nsrc


# ------------------------------------------------------------------- reports

@dataclass(frozen=True)
class AxiomReport:
    increasing: bool
    exhaustive: bool
    shift: bool            # axiom (1): N M_w inside M_{w-2}
    graded_iso: bool       # axiom (2): N^i: Gr_i ~ Gr_{-i}
    saturated: bool = True         # module case: every step saturated
    torsion_free: bool = True      # module case: Smith invariants of each
    witness: str = ""              # quotient presentation are units

    @property
    def all_pass(self) -> bool:
        return (self.increasing and self.exhaustive and self.shift
                and self.graded_iso and self.saturated and self.torsion_free)


def verify_filtration_axioms(op: NilpotentOperator,
                             filt: WeightFiltration) -> AxiomReport:
    chain = _power_chain(op)
    e = len(chain) - 1
    n = op.dim
    witness = []

    if op.over_ring:
        # one Smith form per filtration step, and one of the coordinates of
        # M_{w-1} in M_w where the step grows, answer every question below
        forms = {w: polymat.smith_form(matrix.from_columns(filt.basis_at(w)))
                 for w in filt.weights() if filt.basis_at(w)}
        quotients = {}
        for w in filt.weights():
            small = filt.basis_at(w - 1)
            if small and len(small) != len(filt.basis_at(w)):
                quotients[w] = (_quotient_form(forms[w], small) if w in forms
                                else None)

        def contains(w, vs):
            form = forms.get(min(w, filt.hi))
            if form is None:
                return all(x.is_zero() for v in vs for x in v)
            return all(x is not None for x in form.solve(vs))

        def apply(Nm, v):
            return matrix.vec(Nm, v)

        def complement(w):
            return _complement_module(filt.basis_at(w - 1), filt.basis_at(w),
                                      quotients.get(w))
    else:
        F = Fp(op.p)

        def contains(w, vs):
            B = [list(b) for b in filt.basis_at(w)]
            return all(linalg.subspace_contains(F, B, list(v)) for v in vs)

        def apply(Nm, v):
            return linalg.mat_vec(F, Nm, v)

        def complement(w):
            return _complement(op, filt, w)

    increasing = True
    for w in range(filt.lo, filt.hi + 1):
        if not contains(w, filt.basis_at(w - 1)):
            increasing = False
            witness.append(f"M_{w-1} not inside M_{w}")

    exhaustive = filt.rank_at(filt.hi) == n

    shift = True
    for w in range(filt.lo, filt.hi + 3):
        if not contains(w - 2, [apply(chain[1], v) for v in filt.basis_at(w)]):
            shift = False
            witness.append(f"N M_{w} escapes M_{w-2}")
            break

    graded_iso = True
    top = max(abs(filt.lo), abs(filt.hi), e) + 1
    for i in range(1, top + 1):
        r_pos, r_neg = filt.graded_rank(i), filt.graded_rank(-i)
        if r_pos != r_neg:
            graded_iso = False
            witness.append(f"rank Gr_{i} = {r_pos} != {r_neg} = rank Gr_{-i}")
            continue
        Nm = chain[min(i, e)]
        cs, cd = complement(i), complement(-i)
        mat = _graded_map(op, filt, Nm, -i, cs, cd)
        if mat is None or not _invertible_graded(op, mat, len(cs), len(cd)):
            graded_iso = False
            witness.append(f"N^{i}: Gr_{i} -> Gr_{-i} not invertible")

    saturated = True
    torsion_free = True
    if op.over_ring:
        for w, form in forms.items():
            sat = form.saturation()
            if len(sat) != len(filt.basis_at(w)) or not all(
                    x is not None for x in form.solve(sat)):
                saturated = False
                witness.append(f"M_{w} is not saturated")
        for w, q in quotients.items():
            if q is None:
                torsion_free = False
                witness.append(f"M_{w-1} not inside M_{w}")
                break
            for s in q.diagonal():
                if not s.is_zero() and not s.is_constant():
                    torsion_free = False
                    witness.append(f"Gr_{w} has torsion {s}")

    return AxiomReport(increasing, exhaustive, shift, graded_iso,
                       saturated, torsion_free, "; ".join(witness))


@dataclass(frozen=True)
class PrimitiveParts:
    """Lifts to the ambient module of bases of P_j = ker(N^(j+1): Gr_j -> Gr_{-j-2})."""

    parts: tuple  # ((j, (vector, ...)), ...) for j >= 0

    def rank(self, j: int) -> int:
        for jj, vecs in self.parts:
            if jj == j:
                return len(vecs)
        return 0

    def lifts(self, j: int):
        for jj, vecs in self.parts:
            if jj == j:
                return vecs
        return ()

    @property
    def ranks(self):
        return {j: len(v) for j, v in self.parts}


def primitive_parts(op: NilpotentOperator,
                    filt: WeightFiltration) -> PrimitiveParts:
    chain = _power_chain(op)
    e = len(chain) - 1
    n = op.dim
    out = []
    for j in range(0, max(filt.hi, 0) + 1):
        if filt.graded_rank(j) == 0:
            continue
        Nm = chain[min(j + 1, e)]
        comp_s = _complement(op, filt, j)
        mat = _graded_map(op, filt, Nm, -j - 2, comp_s,
                          _complement(op, filt, -j - 2))
        if mat is None:
            raise AssertionError("graded map ill-defined; filtration invalid")
        if op.over_ring:
            ker = polymat.kernel_saturated(mat) if mat else \
                [[Poly.one(op.p) if i == t else Poly.zero(op.p)
                  for i in range(len(comp_s))] for t in range(len(comp_s))]
            vecs = []
            for kv in ker:
                vecs.append(tuple(
                    sum((comp_s[s][i] * kv[s] for s in range(len(comp_s))),
                        Poly.zero(op.p)) for i in range(n)))
        else:
            F = Fp(op.p)
            if mat and any(any(x != 0 for x in r) for r in mat):
                ker = linalg.kernel_basis(F, mat)
            else:
                ker = [[F.one if i == t else F.zero
                        for i in range(len(comp_s))]
                       for t in range(len(comp_s))]
            vecs = []
            for kv in ker:
                vecs.append(tuple(
                    sum(comp_s[s][i] * kv[s] for s in range(len(comp_s))) % op.p
                    for i in range(n)))
        if vecs:
            out.append((j, tuple(vecs)))
    return PrimitiveParts(tuple(out))


@dataclass(frozen=True)
class DecompositionReport:
    """Per weight w: (w, rank Gr_w, sum of contributing primitive ranks,
    independence of the exhibited N^i-translates inside Gr_w)."""

    per_weight: tuple

    @property
    def ok(self) -> bool:
        return all(g == s and ind for _, g, s, ind in self.per_weight)


def primitive_decomposition(op: NilpotentOperator, filt: WeightFiltration,
                            prims: PrimitiveParts) -> DecompositionReport:
    """Certify Gr_w = direct sum of N^i P_{w+2i} over i >= max(0, -w)."""
    chain = _power_chain(op)
    e = len(chain) - 1
    rows = []
    for w in range(filt.lo, filt.hi + 1):
        g = filt.graded_rank(w)
        translates = []
        total = 0
        for i in range(max(0, -w), e + 1):
            j = w + 2 * i
            for v in prims.lifts(j):
                if op.over_ring:
                    translates.append(matrix.vec(chain[min(i, e)], v))
                else:
                    translates.append(linalg.mat_vec(Fp(op.p), chain[min(i, e)],
                                                     list(v)))
                total += 1
        if total == 0 and g == 0:
            continue
        # project the translates to Gr_w coordinates and test independence
        if op.over_ring:
            full = list(filt.basis_at(w - 1)) + [
                tuple(v) for v in _complement(op, filt, w)]
            xs = _coords_in_module(full, translates)
            ok = all(x is not None for x in xs)
            coords = [x[len(filt.basis_at(w - 1)):] for x in xs] if ok else []
            if ok and total == g:
                M = [[coords[c][r] for c in range(total)] for r in range(g)]
                ind = g == 0 or not matrix.det(M).is_zero()
            else:
                ind = total == 0 and g == 0
        else:
            F = Fp(op.p)
            full = list(filt.basis_at(w - 1)) + _complement(op, filt, w)
            coords = []
            ok = True
            for t in translates:
                x = _coords_in_field(F, full, t)
                if x is None:
                    ok = False
                    break
                coords.append(x[len(filt.basis_at(w - 1)):])
            ind = (ok and total == g
                   and (g == 0 or linalg.rank(F, coords) == g))
        rows.append((w, g, total, ind))
    return DecompositionReport(tuple(rows))


@dataclass(frozen=True)
class KernelGradedReport:
    """Per j >= 0: (j, rank Gr_{-j} of the induced filtration on ker N,
    rank P_j)."""

    per_j: tuple
    kernel_rank: int

    @property
    def matches(self) -> bool:
        return all(a == b for _, a, b in self.per_j)


def graded_of_kernel(op: NilpotentOperator, filt: WeightFiltration,
                     prims: PrimitiveParts) -> KernelGradedReport:
    chain = _power_chain(op)
    n = op.dim
    if op.over_ring:
        K = polymat.kernel_saturated(chain[1])
        def meet(w):
            return polymat.submodule_intersect(
                K, [list(b) for b in filt.basis_at(w)]) if filt.basis_at(w) else []
    else:
        F = Fp(op.p)
        K = linalg.kernel_basis(F, chain[1])
        def meet(w):
            return linalg.subspace_intersect(
                F, K, [list(b) for b in filt.basis_at(w)], n)
    table = {w: len(meet(w)) for w in range(filt.lo, filt.hi + 1)}

    def krank(w):
        if w < filt.lo:
            return 0
        if w > filt.hi:
            return len(K)
        return table[w]

    per = []
    top = max(abs(filt.lo), abs(filt.hi)) + 1
    for j in range(0, top + 1):
        gr = krank(-j) - krank(-j - 1)
        pr = prims.rank(j)
        if gr or pr:
            per.append((j, gr, pr))
    return KernelGradedReport(tuple(per), len(K))


# ------------------------------------------------------------------ helpers

def jordan_matrix(p: int, sizes) -> NilpotentOperator:
    """Direct sum of nilpotent Jordan blocks: N e_i = e_{i-1} within a block."""
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for s in sizes:
        for t in range(1, s):
            rows[off + t - 1][off + t] = 1
        off += s
    return NilpotentOperator.from_ints(p, rows)


def conjugate(op: NilpotentOperator, g) -> NilpotentOperator:
    """g N g^{-1} for invertible g (int matrix field case, Poly unimodular
    module case)."""
    n = op.dim
    if op.over_ring:
        gp = [[x if isinstance(x, Poly) else Poly.const(op.p, x) for x in r]
              for r in g]
        gi = polymat.pmat_inverse(gp)
        return NilpotentOperator.from_polys(
            op.p, matrix.mul(matrix.mul(gp, op.matrix()), gi))
    F = Fp(op.p)
    gi = linalg.inverse(F, [list(r) for r in g])
    return NilpotentOperator.from_ints(
        op.p, linalg.mat_mul(F, linalg.mat_mul(F, g, op.matrix()), gi))


def transform_filtration(filt: WeightFiltration, g, p: int,
                         over_ring: bool) -> WeightFiltration:
    """Image filtration g(M_): bases mapped through g (re-canonicalized)."""
    n = filt.dim
    new = []
    if over_ring:
        gp = [[x if isinstance(x, Poly) else Poly.const(p, x) for x in r]
              for r in g]
        for b in filt.bases:
            vecs = [[sum((gp[i][j] * v[j] for j in range(n)), Poly.zero(p))
                     for i in range(n)] for v in b]
            if vecs:
                gen = [[vecs[c][i] for c in range(len(vecs))] for i in range(n)]
                vecs = polymat.saturate(gen)
            new.append(tuple(tuple(v) for v in vecs))
    else:
        F = Fp(p)
        for b in filt.bases:
            vecs = [linalg.mat_vec(F, g, list(v)) for v in b]
            new.append(tuple(tuple(v) for v in linalg.span_basis(F, vecs)))
    return WeightFiltration(filt.p, n, filt.lo, filt.hi, tuple(new))


def same_filtration(a: WeightFiltration, b: WeightFiltration) -> bool:
    if a.dim != b.dim or a.p != b.p:
        return False
    over_ring = bool(a.bases and a.bases[-1]
                     and isinstance(a.bases[-1][0][0], Poly))
    for w in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
        A = [list(v) for v in a.basis_at(w)]
        B = [list(v) for v in b.basis_at(w)]
        if over_ring:
            if len(A) != len(B):
                return False
            if not (polymat.submodule_contains(B, A)
                    and polymat.submodule_contains(A, B)):
                return False
        else:
            if not linalg.subspace_eq(Fp(a.p), A, B):
                return False
    return True
