"""Weight filtrations of nilpotent endomorphisms, with primitive parts.

One code path serves matrices over F_p[y] acting on a free module, where
every filtration step is saturated so all graded pieces stay torsion-free.
A matrix over F_p is computed as the constant operator over F_p[y]: each
step of its filtration is the F_p step tensored up (Deligne, Weil II, 1.6),
so entries are lifted to constant polynomials on the way in, and results are
handed back over F_p on the way out, filtration bases in reduced echelon
form.  The F_p case pays for the module algebra: about three times the
time of a dedicated F_p elimination.

The filtration is built from the closed form

    M_k = sum_{j >= max(0, -k)} ( ker N^(k+j+1)  cap  im N^j ),

termwise saturated, then saturated once more after the sum.  It is the
unique increasing exhaustive filtration with N M_k inside M_{k-2} such that
N^k induces an isomorphism Gr_k -> Gr_{-k} (full rank and invertible over
the fraction field).
"""
from __future__ import annotations

from dataclasses import dataclass

from .exact import linalg, matrix, polymat
from .exact.poly import Poly
from .exact.rings import check_prime


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
        return NilpotentOperator(p, tuple(_lift(p, r) for r in rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def over_ring(self) -> bool:
        return self.dim > 0 and isinstance(self.rows[0][0], Poly)


def _lift(p: int, v) -> tuple:
    """A vector with F_p entries as constant polynomials; Polys pass."""
    return tuple(a if isinstance(a, Poly) else Poly.const(p, a) for a in v)


def _at_zero(v) -> tuple:
    """An F_p[y] vector at y = 0.  Every module built from constant data is
    the F_p one tensored up, so a basis of it is one of the F_p one here."""
    return tuple(a[0] for a in v)


def _power_chain(op: NilpotentOperator):
    """[N^0, N^1, ..., N^e] over F_p[y] with N^e = 0; raises if N^dim != 0."""
    n = op.dim
    M = [_lift(op.p, r) for r in op.rows]
    I = matrix.identity(Poly, op.p, n)
    chain = [I]
    cur = I
    for _ in range(n):
        cur = matrix.mul(cur, M)
        chain.append(cur)
        if matrix.is_zero(cur):
            return chain
    raise ValueError(f"operator is not nilpotent: N^{n} is nonzero")


def nilpotency_index(op: NilpotentOperator) -> int:
    return len(_power_chain(op)) - 1


@dataclass(frozen=True)
class WeightFiltration:
    """M_lo ... M_hi with M_{lo-1} = 0 and M_hi the whole space.

    bases[i] is an independent basis of M_{lo+i}: ranks are basis lengths,
    so a redundant vector reads as a different, unsaturated step.  Vectors
    are tuples of ints (F_p case, reduced echelon when computed here) or Poly
    (module case, saturated bases).
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


def _module_filtration(filt: WeightFiltration) -> WeightFiltration:
    """The filtration over F_p[y]: F_p bases become constant vectors."""
    if _over_ring(filt):
        return filt
    return WeightFiltration(filt.p, filt.dim, filt.lo, filt.hi, tuple(
        tuple(_lift(filt.p, v) for v in b) for b in filt.bases))


def _field_filtration(filt: WeightFiltration) -> WeightFiltration:
    """A filtration by constant submodules handed back over F_p, each step
    as its reduced echelon basis."""
    return WeightFiltration(filt.p, filt.dim, filt.lo, filt.hi, tuple(
        tuple(tuple(v) for v in linalg.span_basis(
            filt.p, [list(_at_zero(v)) for v in b]))
        for b in filt.bases))


def _over_ring(filt: WeightFiltration) -> bool:
    return any(isinstance(b[0][0], Poly) for b in filt.bases if b)


def monodromy_filtration(op: NilpotentOperator) -> WeightFiltration:
    if op.dim == 0:
        raise ValueError("empty operator")
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
    filt = WeightFiltration(op.p, n, lo, hi, bases)
    return filt if op.over_ring else _field_filtration(filt)


# ---------------------------------------------------------------- graded maps

def _quotient_form(big_form, small):
    """Smith form of the coordinates of `small` in the basis whose Smith form
    is `big_form`, or None when a vector of `small` lies outside its span."""
    X = big_form.solve(small)
    if any(x is None for x in X):
        return None
    return polymat.smith_form(matrix.from_columns(X))


def _free_complement(small, big, quotient):
    """Free complement of span(small) inside span(big), both saturated;
    `quotient` is the Smith form of the coordinates of small in big, None
    when small is not inside big, and then so is the complement."""
    if not small:
        return [list(v) for v in big]
    if len(small) == len(big):
        return []
    if quotient is None:
        return None
    B = matrix.from_columns(big)
    return [matrix.vec(B, [row[col] for row in quotient.Uinv])
            for col in range(quotient.rank, len(big))]


def _complement(filt, w):
    """A basis of Gr_w lifted to M_w: a complement of M_{w-1} inside M_w,
    or None when M_{w-1} is not inside M_w."""
    small, big = filt.basis_at(w - 1), filt.basis_at(w)
    q = None
    if small and len(small) != len(big):
        q = _quotient_form(polymat.smith_form(matrix.from_columns(big)), small)
    return _free_complement(small, big, q)


def _coords(basis_vectors, vectors):
    """Coordinates of each vector in the basis, or None where it lies outside
    the span; one Smith form for the whole batch."""
    if not basis_vectors:
        return [[] if all(x.is_zero() for x in v) else None for v in vectors]
    return polymat.solve_over_ring(matrix.from_columns(basis_vectors), vectors)


def _graded_map(filt, power_matrix, dst, comp_s, comp_d):
    """Matrix of N^k: Gr_src -> Gr_dst in the complement bases comp_s of
    Gr_src and comp_d of Gr_dst, or None when a complement is None or some
    image fails to land in M_dst (ill-defined map).
    Matrix convention: entry [t][s] = coefficient of dst complement vector t
    in the image of src complement vector s.
    """
    if comp_s is None or comp_d is None:
        return None
    below = list(filt.basis_at(dst - 1))
    full_d = below + [tuple(v) for v in comp_d]
    xs = _coords(full_d, [matrix.vec(power_matrix, v) for v in comp_s])
    if any(x is None for x in xs):
        return None
    rows = [x[len(below):] for x in xs]
    return [[rows[s][t] for s in range(len(comp_s))]
            for t in range(len(comp_d))]


# ------------------------------------------------------------------- reports

@dataclass(frozen=True)
class AxiomReport:
    increasing: bool
    exhaustive: bool
    shift: bool            # axiom (1): N M_w inside M_{w-2}
    graded_iso: bool       # axiom (2): N^i: Gr_i ~ Gr_{-i}
    saturated: bool = True         # every step saturated
    torsion_free: bool = True      # every Gr_w free: the Smith invariants
    witness: str = ""              # of each quotient are units

    @property
    def all_pass(self) -> bool:
        return (self.increasing and self.exhaustive and self.shift
                and self.graded_iso and self.saturated and self.torsion_free)


def verify_filtration_axioms(op: NilpotentOperator,
                             filt: WeightFiltration) -> AxiomReport:
    """The axioms of `filt` for N.  Over F_p both module conditions hold for
    any nested filtration with independent bases, as its steps are constant."""
    chain = _power_chain(op)
    e = len(chain) - 1
    n = op.dim
    filt = _module_filtration(filt)
    witness = []

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

    def complement(w):
        return _free_complement(filt.basis_at(w - 1), filt.basis_at(w),
                                quotients.get(w))

    increasing = True
    for w in range(filt.lo, filt.hi + 1):
        if not contains(w, filt.basis_at(w - 1)):
            increasing = False
            witness.append(f"M_{w-1} not inside M_{w}")

    exhaustive = filt.rank_at(filt.hi) == n

    shift = True
    for w in range(filt.lo, filt.hi + 3):
        if not contains(w - 2,
                        [matrix.vec(chain[1], v) for v in filt.basis_at(w)]):
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
        cs, cd = complement(i), complement(-i)
        mat = _graded_map(filt, chain[min(i, e)], -i, cs, cd)
        if mat is None or len(cs) != len(cd) or (
                cs and not polymat.nonsingular(mat)):
            graded_iso = False
            witness.append(f"N^{i}: Gr_{i} -> Gr_{-i} not invertible")

    saturated = True
    for w, form in forms.items():
        sat = form.saturation()
        if len(sat) != len(filt.basis_at(w)) or not all(
                x is not None for x in form.solve(sat)):
            saturated = False
            witness.append(f"M_{w} is not saturated")
    torsion_free = True
    for w, q in quotients.items():
        if q is None:
            continue  # Gr_w is undefined: reported under `increasing`
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
        return len(self.lifts(j))

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
    filt = _module_filtration(filt)
    out = []
    for j in range(0, max(filt.hi, 0) + 1):
        if filt.graded_rank(j) == 0:
            continue
        comp_s = _complement(filt, j)
        mat = _graded_map(filt, chain[min(j + 1, e)], -j - 2, comp_s,
                          _complement(filt, -j - 2))
        if mat is None:
            raise AssertionError("graded map ill-defined; filtration invalid")
        ker = (polymat.kernel_saturated(mat) if mat
               else matrix.identity(Poly, op.p, len(comp_s)))
        B = matrix.from_columns(comp_s)
        vecs = [tuple(matrix.vec(B, kv)) for kv in ker]
        if not op.over_ring:
            vecs = [_at_zero(v) for v in vecs]
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
    filt = _module_filtration(filt)
    rows = []
    for w in range(filt.lo, filt.hi + 1):
        g = filt.graded_rank(w)
        translates = [matrix.vec(chain[min(i, e)], _lift(op.p, v))
                      for i in range(max(0, -w), e + 1)
                      for v in prims.lifts(w + 2 * i)]
        total = len(translates)
        if total == 0 and g == 0:
            continue
        # project the translates to Gr_w coordinates and test independence
        comp = _complement(filt, w)
        if comp is None:
            raise AssertionError("filtration steps are not nested")
        full = list(filt.basis_at(w - 1)) + [tuple(v) for v in comp]
        xs = _coords(full, translates)
        ok = all(x is not None for x in xs)
        coords = [x[len(filt.basis_at(w - 1)):] for x in xs] if ok else []
        if ok and total == g:
            M = [[coords[c][r] for c in range(total)] for r in range(g)]
            ind = g == 0 or polymat.nonsingular(M)
        else:
            ind = total == 0 and g == 0
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
    K = polymat.kernel_saturated(_power_chain(op)[1])
    filt = _module_filtration(filt)

    def meet(w):
        return polymat.submodule_intersect(
            K, [list(b) for b in filt.basis_at(w)]) if filt.basis_at(w) else []
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
    gp = [_lift(op.p, r) for r in g]
    # X g = g N, row by row: g^T x_i = (g N)_i, one Smith form of g^T
    form = polymat.smith_form([list(c) for c in zip(*gp)])
    if not all(s.is_constant() and not s.is_zero() for s in form.diagonal()):
        raise ValueError("matrix is not unimodular")
    rows = form.solve(matrix.mul(gp, [_lift(op.p, r) for r in op.rows]))
    if op.over_ring:
        return NilpotentOperator.from_polys(op.p, rows)
    return NilpotentOperator.from_ints(op.p, [_at_zero(r) for r in rows])


def transform_filtration(filt: WeightFiltration, g) -> WeightFiltration:
    """Image filtration g(M_): bases mapped through g (re-canonicalized)."""
    gp = [_lift(filt.p, r) for r in g]
    new = []
    for b in _module_filtration(filt).bases:
        vecs = [matrix.vec(gp, v) for v in b]
        if vecs:
            vecs = polymat.saturate(matrix.from_columns(vecs))
        new.append(tuple(tuple(v) for v in vecs))
    image = WeightFiltration(filt.p, filt.dim, filt.lo, filt.hi, tuple(new))
    return image if _over_ring(filt) else _field_filtration(image)


def same_filtration(a: WeightFiltration, b: WeightFiltration) -> bool:
    if a.dim != b.dim or a.p != b.p:
        return False
    a, b = _module_filtration(a), _module_filtration(b)
    for w in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
        A = [list(v) for v in a.basis_at(w)]
        B = [list(v) for v in b.basis_at(w)]
        if len(A) != len(B) or not (polymat.submodule_contains(B, A)
                                    and polymat.submodule_contains(A, B)):
            return False
    return True
