"""Finite-dimensional algebras, coalgebras, bialgebras and Hopf algebras
presented by structure constants, with axiom sweeps and the duality functor.

Conventions, fixed globally:

* ``mult[(i, j, k)]`` is the ``e_k``-coefficient of ``e_i * e_j``.
* ``comult[(k, i, j)]`` is the ``e_i (x) e_j``-coefficient of ``Delta(e_k)``.
* The dual of a basis ``{e_i}`` is the dual basis ``{e_i*}`` with
  ``<e_i*, e_j> = delta_ij``; under this convention dualizing twice is the
  literal identity on structure tensors, not merely an isomorphism.
* Tensor-square indices follow the Kronecker rule ``(i, j) -> i*dim + j``.

Tensors are stored sparsely (zero entries dropped) and compared exactly.

This module owns the arithmetic on sparse tensors: ``sparse_sum``,
``comult_of`` and the coassociativity, ``(F (x) F) Delta = Delta F`` and
primitive-space sweeps, and the one algebra-map sweep, F(xy) = F(x)F(y) for
F: A -> B (x) C. They take plain data -- per-basis coproducts or images
``{(i, j): c}``, basis-product functions ``mul(a, b) -> {k: c}`` and basis
names for witnesses -- so ``lie`` runs the same sweeps as ``FinBialgebra``.
Delta is one such F; every other is a map into k (x) B: epsilon,
``check_morphism``, ``monoids.points`` (these three share one generator
certificate) and ``lie``'s enveloping extensions and line comparisons.

It also owns the one subalgebra closure, ``subalgebra_span``: the span of
the unit, a few seeds and their words. ``FinBialgebra.generators`` grows it
pick by pick to choose its generating set, and ``monoids.points`` grows it
in A x F_p, node by node, to test a partial assignment of values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .exact import (FieldMismatch, FieldSpec, Matrix, Span, kernel_basis,
                    kron, solve, vbasis)
from .report import Report


def _clean_tensor(field, tensor):
    out = {}
    for key, c in tensor.items():
        if c != field.zero:
            out[tuple(key)] = c
    return out


# -- sparse tensors -----------------------------------------------------------

_NO_TERMS = MappingProxyType({})  # the zero product, shared and read only
_GROUND = MappingProxyType({0: 1})  # e_0 e_0 = e_0 in k


def sparse_sum(f: FieldSpec, terms) -> dict:
    """Sum of ``(key, coefficient)`` terms as a sparse dict of canonical
    scalars, zeros dropped. A coefficient may be raw, a plain ``*`` product
    of scalars: the terms are added with plain ``+`` and each key's sum is
    reduced once, by :meth:`FieldSpec.canonical`."""
    acc = {}
    get = acc.get
    for key, c in terms:
        acc[key] = get(key, 0) + c
    canonical = f.canonical
    return {key: c for key, s in acc.items() if (c := canonical(s))}


def vanishes(f: FieldSpec, raw: dict) -> bool:
    """Is every raw sum among the values of ``raw`` zero in the field?"""
    p = f.p
    return not any(c % p for c in raw.values()) if p else not any(raw.values())


def nonzero(f: FieldSpec, vec) -> dict:
    """A dense coefficient vector as a sparse ``{index: c}`` dict."""
    return {i: c for i, c in enumerate(vec) if c != f.zero}


def comult_of(f: FieldSpec, deltas, x: dict) -> dict:
    """Delta of the sparse element ``x = {k: c}``."""
    return sparse_sum(f, ((key, c * d) for k, c in x.items()
                          for key, d in deltas[k].items()))


def coassociativity_sweep(rep: Report, name: str, f: FieldSpec, deltas,
                          names) -> bool:
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every basis element,
    as one sparse (a, b, c)-keyed difference per element."""
    def failures():
        for k in range(len(deltas)):
            diff = {}
            get = diff.get
            for (i, j), c in deltas[k].items():
                for (a, b), d in deltas[i].items():
                    key = (a, b, j)
                    diff[key] = get(key, 0) + c * d
                for (a, b), d in deltas[j].items():
                    key = (i, a, b)
                    diff[key] = get(key, 0) - c * d
            if not vanishes(f, diff):
                yield names[k]
    return rep.sweep(name, failures())


def ground_product(i: int, j: int) -> dict:
    """The product e_0 e_0 = e_0 of k, the first factor of k (x) B."""
    return _GROUND


def into_ground(cols) -> list:
    """Images ``{t: c}`` in B as ``{(0, t): c}`` in k (x) B, whose one-term
    k factor is the sweep's outer loop: a zero product in B exits at once."""
    return [{(0, t): c for t, c in col.items()} for col in cols]


def multiplicativity_failures(f: FieldSpec, images, mul_source, mul_left,
                              mul_right, names, pairs):
    """Witnesses ``"(a,b)"``, in the order of ``pairs``, of F(e_a e_b) !=
    F(e_a) F(e_b) for the linear map F: A -> B (x) C with ``images[k] =
    F(e_k) = {(i, j): c}``, given the basis products of A, B and C; each
    must be defined on every product the two sides form."""
    for a, b in pairs:
        diff = {}
        get = diff.get
        for k, c in mul_source(a, b).items():
            for key, d in images[k].items():
                diff[key] = get(key, 0) + c * d
        for (i1, j1), c1 in images[a].items():
            for (i2, j2), c2 in images[b].items():
                right = mul_right(j1, j2).items()
                if not right:
                    continue
                c = c1 * c2
                for x, cx in mul_left(i1, i2).items():
                    cx *= c
                    for y, cy in right:
                        key = (x, y)
                        diff[key] = get(key, 0) - cx * cy
        if not vanishes(f, diff):
            yield f"({names[a]},{names[b]})"


def algebra_map_failures(A: FinBialgebra, images, unit_kept: bool,
                         B: FinBialgebra | None = None) -> list:
    """:func:`multiplicativity_failures` of F: A -> k (x) B (B = k when
    None) over A's basis pairs. When F(1) = 1 (``unit_kept``) and A and B
    satisfy their algebra laws, it is certified on the pairs (s, y), s in a
    cheap generating set: the x with F(xy) = F(x)F(y) for all y hold 1 and
    are closed under products. Otherwise, or when that fails, every pair is
    swept."""
    every = range(A.dim)

    def failures(firsts):
        return multiplicativity_failures(
            A.field, images, A.mul_basis,
            ground_product, ground_product if B is None else B.mul_basis,
            A.basis, ((a, b) for a in firsts for b in every))
    gens = A._cheap_generators() if unit_kept else None
    if (gens is not None and A.algebra_laws
            and (B is None or B.algebra_laws)
            and next(failures(gens), None) is None):
        return []
    return list(failures(every))


def comult_morphism_sweep(rep: Report, name: str, f: FieldSpec, cols,
                          source_deltas, target_deltas, names) -> bool:
    """Delta F = (F (x) F) Delta on every source basis element, for the
    linear map with ``cols[k] = F(e_k)`` as sparse ``{index: c}`` dicts."""
    def failures():
        for k in range(len(cols)):
            diff = {}
            get = diff.get
            for t, c in cols[k].items():
                for key, d in target_deltas[t].items():
                    diff[key] = get(key, 0) + c * d
            for (i, j), c in source_deltas[k].items():
                right = cols[j].items()
                for a, ca in cols[i].items():
                    ca *= c
                    for b, cb in right:
                        key = (a, b)
                        diff[key] = get(key, 0) - ca * cb
            if not vanishes(f, diff):
                yield names[k]
    return rep.sweep(name, failures())


def primitive_space(f: FieldSpec, deltas, unit) -> list:
    """Basis of the solutions of Delta(a) = a (x) 1 + 1 (x) a, for the dense
    unit vector ``unit``: one equation per basis pair."""
    n = len(deltas)
    rows = {}
    for k in range(n):
        for key, c in deltas[k].items():
            row = rows.setdefault(key, [f.zero] * n)
            row[k] = f.add(row[k], c)
        for j, u in enumerate(unit):
            if u != f.zero:
                for key in ((k, j), (j, k)):
                    row = rows.setdefault(key, [f.zero] * n)
                    row[k] = f.sub(row[k], u)
    return kernel_basis(Matrix(f, [rows[key] for key in sorted(rows)], n))


# -- subalgebras --------------------------------------------------------------

def subalgebra_span(f: FieldSpec, unit, seeds, mul, base: Span | None = None
                    ) -> Span:
    """Span of the unit, the ``seeds`` and their left words, grown by
    multiplying each vector that enlarges the span on the left by every
    seed, ``mul(seed, vector)``, and by nothing else.

    The span holds the unit and the seeds and is closed under left
    multiplication by the seeds. When ``mul`` is associative and ``unit`` is
    its identity that makes it closed under every product (a word times a
    word is a word), so it is the subalgebra the seeds generate; it is the
    least subspace with those properties for any bilinear ``mul`` and any
    ``unit``, and it always holds every seed. The reduced echelon rows of a
    span are unique, so the order of the work does not show in the result.

    ``base``, when given, must be the span returned for ``seeds[:-1]``; it
    is left as it is, and a copy grows by the last seed alone: that seed and
    its left products with the rows of ``base`` are queued, since ``base``
    is already closed under the seeds before it."""
    if base is None:
        sp = Span(f, len(unit))
        todo = [unit, *seeds]
    else:
        sp = base.copy()
        s = seeds[-1]
        # echelon rows are scalar multiples of the basis, enough for a span
        todo = [s, *(mul(s, row) for row in base.rows)]
    while todo and sp.dim < sp.width:
        v = todo.pop()
        if sp.add(v):
            todo.extend(mul(s, v) for s in seeds)
    return sp


class FinBialgebra:
    """Structure-constant presentation of a finite-dimensional (bi)algebra.

    Any of the algebra half (``mult``/``unit``), the coalgebra half
    (``comult``/``counit``) and the antipode may be absent; verification
    routines demand what they need.
    """

    def __init__(self, field: FieldSpec, dim: int, basis=None, mult=None,
                 unit=None, comult=None, counit=None, antipode=None):
        self.field = field
        self.dim = dim
        self.basis = tuple(basis) if basis else tuple(f"e{i}" for i in range(dim))
        if len(self.basis) != dim:
            raise ValueError("basis size disagrees with dim")
        self.mult = _clean_tensor(field, mult) if mult is not None else None
        self.unit = tuple(unit) if unit is not None else None
        self.comult = _clean_tensor(field, comult) if comult is not None else None
        self.counit = tuple(counit) if counit is not None else None
        self.antipode = antipode
        if (self.mult is None) != (self.unit is None):
            raise ValueError("mult and unit must be supplied together")
        if (self.comult is None) != (self.counit is None):
            raise ValueError("comult and counit must be supplied together")
        for (i, j, k) in (self.mult or {}):
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"mult index out of range: {(i, j, k)}")
        for (k, i, j) in (self.comult or {}):
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"comult index out of range: {(k, i, j)}")
        if self.unit is not None and len(self.unit) != dim:
            raise ValueError("unit vector has wrong length")
        if self.counit is not None and len(self.counit) != dim:
            raise ValueError("counit vector has wrong length")
        if antipode is not None and (antipode.rows, antipode.cols) != (dim, dim):
            raise ValueError("antipode must be dim x dim")
        # pair-indexed views of the tensors, read by the sweeps; safe because
        # instances are immutable by convention
        self._products = self.deltas = None
        if self.has_algebra:
            self._products = {}
            for (i, j, k), c in self.mult.items():
                self._products.setdefault((i, j), {})[k] = c
        if self.has_coalgebra:
            self.deltas = [{} for _ in range(dim)]
            for (k, i, j), c in self.comult.items():
                self.deltas[k][(i, j)] = c

    # -- presence flags -------------------------------------------------------

    @property
    def has_algebra(self) -> bool:
        return self.mult is not None

    @property
    def has_coalgebra(self) -> bool:
        return self.comult is not None

    @property
    def has_antipode(self) -> bool:
        return self.antipode is not None

    # -- basic structure maps --------------------------------------------------

    def mul_basis(self, i: int, j: int) -> dict:
        """``e_i * e_j`` as ``{k: c}``; read only, it is the cached entry."""
        return self._products.get((i, j), _NO_TERMS)

    def mul_vec(self, x, y) -> tuple:
        """Product of two coefficient vectors, summed raw and reduced once
        per entry."""
        acc = [0] * self.dim
        products = self._products
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in ys:
                entry = products.get((i, j))
                if entry:
                    c = xi * yj
                    for k, m in entry.items():
                        acc[k] += c * m
        return tuple(map(self.field.canonical, acc))

    def comult_basis(self, k: int) -> dict:
        return dict(self.deltas[k])

    def comult_vec(self, x) -> dict:
        return comult_of(self.field, self.deltas, nonzero(self.field, x))

    def counit_vec(self, x):
        f = self.field
        acc = f.zero
        for k, c in enumerate(self.counit):
            acc = f.add(acc, f.mul(c, x[k]))
        return acc

    def basis_vec(self, i: int) -> tuple:
        return vbasis(self.field, self.dim, i)

    def left_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> x*y on coefficient vectors."""
        return self._mult_matrix(x, left=True)

    def right_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> y*x on coefficient vectors."""
        return self._mult_matrix(x, left=False)

    def _mult_matrix(self, x, left: bool) -> Matrix:
        # one pass over the product tensor: L_x[k][j] = sum_i x_i mult(i,j,k)
        # and R_x[k][i] = sum_j x_j mult(i,j,k)
        f = self.field
        rows = [[f.zero] * self.dim for _ in range(self.dim)]
        for (i, j, k), m in self.mult.items():
            s, t = (i, j) if left else (j, i)
            if x[s] != f.zero:
                rows[k][t] = f.add(rows[k][t], f.mul(x[s], m))
        return Matrix(f, rows)

    @cached_property
    def generators(self) -> tuple:
        """Basis elements that generate the algebra, chosen greedily in
        basis order: an element is taken when the subalgebra generated by
        the unit and those taken before misses it. The algebra twin of
        :attr:`FiniteMonoid.generators`; empty when the unit spans A.

        Each subalgebra is :func:`subalgebra_span` of the elements taken,
        grown from the one before by the new element. It is the generated
        subalgebra when the product is associative with ``unit`` as its
        identity; otherwise that span can be smaller, and then the picks
        can differ. Every pick enters its span, so the loop ends."""
        if not self.has_algebra:
            raise ValueError("no algebra structure present")
        gens, seeds = [], []
        sp = subalgebra_span(self.field, self.unit, seeds, self.mul_vec)
        while sp.dim < self.dim:
            gens.append(next(i for i in range(self.dim)
                             if not sp.contains(self.basis_vec(i))))
            seeds.append(self.basis_vec(gens[-1]))
            sp = subalgebra_span(self.field, self.unit, seeds, self.mul_vec,
                                 sp)
        return tuple(gens)

    def _cheap_generators(self) -> tuple | None:
        """:attr:`generators` when they are known already, or when the full
        associativity sweep would visit more than 4 dim^2 triples, so that
        the sweeps a generating set shortens cost more than finding it;
        None otherwise. The function algebra k^G, whose greedy generating
        set has |G| - 1 elements, is the case the bound leaves out."""
        n = self.dim
        if "generators" in self.__dict__ or _sweep_triples(self) > 4 * n * n:
            return self.generators
        return None

    @cached_property
    def dual(self) -> "FinBialgebra":
        """:func:`dualize` of this structure, built once; its ``dual`` is
        this instance, so a certificate cached on either side is seen from
        the other."""
        D = dualize(self)
        D.dual = self
        return D

    @cached_property
    def algebra_laws(self) -> bool:
        """Whether the product is associative with ``unit`` as its
        identity. The coalgebra laws of A are the algebra laws of A*:
        ``A.dual.algebra_laws``.

        The unit laws are checked first. Associativity is then certified
        on triples (s, y, z) with s in a generating set when
        :meth:`_cheap_generators` gives one: the x with (xy)z = x(yz) for
        all y, z form a subspace closed under products, and it holds 1, so
        it holds every word in the generators, and those span A. Otherwise
        every triple is swept. Constructors that know the answer (the
        monoid algebra of a :class:`FiniteMonoid`, the reconstructed A_X)
        record it here."""
        if not self.has_algebra:
            raise ValueError("no algebra structure present")
        if next(_unit_law_failures(self), None) is not None:
            return False
        gens = self._cheap_generators()
        firsts = range(self.dim) if gens is None else gens
        return next(_associativity_failures(self, firsts), None) is None

    def is_commutative(self) -> bool:
        dense = self.mult
        for (i, j, k), c in dense.items():
            if dense.get((j, i, k), self.field.zero) != c:
                return False
        return True

    def is_cocommutative(self) -> bool:
        dense = self.comult
        for (k, i, j), c in dense.items():
            if dense.get((k, j, i), self.field.zero) != c:
                return False
        return True

    def name_of(self, i: int) -> str:
        return self.basis[i]

    def __repr__(self):
        parts = [p for p, flag in (("algebra", self.has_algebra),
                                   ("coalgebra", self.has_coalgebra),
                                   ("antipode", self.has_antipode)) if flag]
        return f"FinBialgebra(dim={self.dim}, {self.field.describe()}, " \
               f"{'+'.join(parts) or 'bare'})"


@dataclass(frozen=True)
class BialgebraMorphism:
    """Linear map between structure-constant algebras, as a matrix.

    ``matrix`` is target-dim x source-dim and acts on coefficient vectors.
    """
    source: FinBialgebra
    target: FinBialgebra
    matrix: Matrix

    def __post_init__(self):
        if self.source.field != self.target.field:
            raise FieldMismatch("morphism across different fields")
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise ValueError("morphism matrix has wrong shape")

    def apply(self, vec) -> tuple:
        return self.matrix.apply(vec)


# -- axiom sweeps -------------------------------------------------------------
#
# Each law is certified as cheaply as its premises allow, and a failed
# certificate falls back to the full sweep, which names every violated
# instance in the order it always has. Only passes are ever certified.

def _sweep_triples(A: FinBialgebra) -> int:
    """The number of triples (i, j, k) :func:`_associativity_failures`
    visits over every i: those where e_i e_j or e_j e_k is nonzero."""
    n = A.dim
    into, out = [0] * n, [0] * n
    for i, j in A._products:
        out[i] += 1
        into[j] += 1
    return sum(a * n + n * b - a * b for a, b in zip(into, out))


def _associativity_failures(A: FinBialgebra, firsts):
    """Witnesses ``"(x,y,z)"`` of (e_i e_j) e_k != e_i (e_j e_k) for i in
    ``firsts`` and every j, k, in lexicographic order. A triple where e_i
    e_j and e_j e_k are both zero is skipped, as both sides vanish there."""
    f = A.field
    n = A.dim
    products = A._products
    right_of = [[] for _ in range(n)]  # the k with e_j e_k != 0, ascending
    for j, k in sorted(products):
        right_of[j].append(k)
    every = range(n)
    for i in firsts:
        for j in every:
            ij = products.get((i, j))
            ij_items = ij.items() if ij else ()
            for k in (every if ij else right_of[j]):
                diff = {}
                get = diff.get
                for s, c in ij_items:
                    for t, m in products.get((s, k), _NO_TERMS).items():
                        diff[t] = get(t, 0) + c * m
                for s, c in products.get((j, k), _NO_TERMS).items():
                    for t, m in products.get((i, s), _NO_TERMS).items():
                        diff[t] = get(t, 0) - c * m
                if not vanishes(f, diff):
                    yield f"({A.name_of(i)},{A.name_of(j)},{A.name_of(k)})"


def _unit_law_failures(A: FinBialgebra):
    """``(law, name)`` for each basis element with 1 e_i != e_i (the left
    unit law) or e_i 1 != e_i (the right one), in basis order, left
    first."""
    f = A.field
    products = A._products
    ones = [(s, u) for s, u in enumerate(A.unit) if u]
    for i in range(A.dim):
        for law, side in (("left unit law", 0), ("right unit law", 1)):
            diff = {i: -1}
            get = diff.get
            for s, u in ones:
                for k, m in products.get((s, i) if side == 0 else (i, s),
                                         _NO_TERMS).items():
                    diff[k] = get(k, 0) + u * m
            if not vanishes(f, diff):
                yield law, A.name_of(i)


def verify_algebra(A: FinBialgebra) -> Report:
    """Check associativity and the two unit laws. A pass is certified as
    :attr:`FinBialgebra.algebra_laws` describes; otherwise every triple is
    swept, as :func:`_associativity_failures` skips, so the failures name
    every violated triple in lexicographic order."""
    if not A.has_algebra:
        raise ValueError("no algebra structure present")
    rep = Report(f"algebra axioms ({A!r})")
    unit_bad = list(_unit_law_failures(A))
    if not unit_bad and A.algebra_laws:
        rep.add("associativity", True)
    else:
        rep.sweep("associativity", _associativity_failures(A, range(A.dim)))
    for law, name in unit_bad:
        rep.add(law, False, name)
    if not unit_bad:
        rep.add("unit laws", True)
    return rep


def verify_coalgebra(A: FinBialgebra) -> Report:
    """Check coassociativity and both counit laws entrywise.

    They are the associativity and unit laws of A* = ``A.dual``. So when
    the counit laws hold and A* has a cheap generating set (a dense
    coproduct, as in the function algebra k^G, whose dual kG is generated
    by a few group elements), coassociativity is certified as the
    associativity of A* on it. Otherwise, or when that fails, every basis
    element is swept."""
    if not A.has_coalgebra:
        raise ValueError("no coalgebra structure present")
    f = A.field
    rep = Report(f"coalgebra axioms ({A!r})")
    n = A.dim
    counit_bad = []
    for k in range(n):
        left = [0] * n
        right = [0] * n
        for (i, j), c in A.deltas[k].items():
            left[j] += A.counit[i] * c
            right[i] += A.counit[j] * c
        e = list(A.basis_vec(k))
        if list(map(f.canonical, left)) != e:
            counit_bad.append(("left counit law", A.name_of(k)))
        if list(map(f.canonical, right)) != e:
            counit_bad.append(("right counit law", A.name_of(k)))
    if (not counit_bad and A.dual._cheap_generators() is not None
            and A.dual.algebra_laws):
        rep.add("coassociativity", True)
    else:
        coassociativity_sweep(rep, "coassociativity", f, A.deltas, A.basis)
    for law, name in counit_bad:
        rep.add(law, False, name)
    if not counit_bad:
        rep.add("counit laws", True)
    return rep


def _outer_square(f: FieldSpec, a) -> dict:
    """a (x) a as a sparse pair tensor."""
    nz = nonzero(f, a).items()
    return {(i, j): f.mul(ci, cj) for i, ci in nz for j, cj in nz}


def verify_bialgebra(A: FinBialgebra) -> Report:
    """Full sweep: algebra + coalgebra axioms plus the compatibility laws
    (Delta and epsilon are algebra morphisms)."""
    if not (A.has_algebra and A.has_coalgebra):
        raise ValueError("bialgebra verification needs all five structures")
    rep = Report(f"bialgebra axioms ({A!r})")
    rep.extend(verify_algebra(A))
    rep.extend(verify_coalgebra(A))
    rep.extend(verify_compatibility(A))
    return rep


def _multiplicativity_route(A: FinBialgebra, comult_unit: bool,
                            counit_mult: bool) -> tuple:
    """``(X, firsts)``: the sweep of Delta(e_a e_b) = Delta(e_a) Delta(e_b)
    over a in ``firsts`` and every b, on X = A or X = A*, that certifies
    the law on A reading the fewest coproduct terms: the terms of each
    Delta(e_a) times all terms of Delta, plus one per pair. The candidates
    are the full sweeps of A and A*, and the generator sweep of each side
    that has cheap generators and whose premises hold: its algebra laws
    and Delta(1) = 1 (x) 1, which on A* is epsilon multiplicative."""
    n = A.dim
    options = []
    for X, premise in ((A, lambda: comult_unit and A.algebra_laws),
                       (A.dual, lambda: counit_mult and A.dual.algebra_laws)):
        size = [len(d) for d in X.deltas]
        total = sum(size)
        options.append((total * total + n * n, X, range(n), None))
        gens = X._cheap_generators()
        if gens is not None:
            options.append((sum(size[s] for s in gens) * total
                            + len(gens) * n, X, gens, premise))
    for _, X, firsts, premise in sorted(options, key=lambda o: o[0]):
        if premise is None or premise():
            return X, firsts


def verify_compatibility(A: FinBialgebra) -> Report:
    """The compatibility laws alone: Delta and epsilon are algebra
    morphisms; :func:`verify_bialgebra` runs them after the algebra and
    coalgebra axioms.

    Delta(xy) = Delta(x) Delta(y) is self-dual: A* = ``A.dual`` (product
    Delta^T, coproduct m^T) has the same equations. It is certified on the
    side and pairs :func:`_multiplicativity_route` picks: the generator
    pairs suffice, as in :func:`algebra_map_failures`, when that side is
    associative with its unit and Delta(1) = 1 (x) 1. When that fails every
    pair of A is swept, naming each violated pair in A's order. epsilon: A
    -> k (x) k goes through :func:`algebra_map_failures`."""
    if not (A.has_algebra and A.has_coalgebra):
        raise ValueError("bialgebra verification needs all five structures")
    f = A.field
    rep = Report(f"compatibility laws ({A!r})")
    n = A.dim
    one = A.unit
    comult_unit = A.comult_vec(one) == _outer_square(f, one)
    counit_one = A.counit_vec(one) == f.one
    counit_bad = algebra_map_failures(
        A, [{(0, 0): e} if e else {} for e in A.counit], counit_one)

    def failures(X, firsts):
        mul = X.mul_basis
        return multiplicativity_failures(
            f, X.deltas, mul, mul, mul, X.basis,
            ((a, b) for a in firsts for b in range(n)))
    X, firsts = _multiplicativity_route(A, comult_unit, not counit_bad)
    if ((X is not A or len(firsts) < n)
            and next(failures(X, firsts), None) is None):
        rep.add("comult multiplicative", True)
    else:
        rep.sweep("comult multiplicative", failures(A, range(n)))
    rep.add("comult(1) = 1 (x) 1", comult_unit)
    rep.sweep("counit multiplicative", counit_bad)
    rep.add("counit(1) = 1", counit_one)
    return rep


def check_hopf(A: FinBialgebra) -> Report:
    """Verify the antipode identities m(S (x) id)Delta = u eps =
    m(id (x) S)Delta, on each basis element as one sparse difference per
    side, summed raw over the terms of Delta(e_k), the columns of S and the
    product tensor."""
    if not A.has_antipode:
        raise ValueError("antipode absent")
    f = A.field
    rep = Report(f"antipode axioms ({A!r})")
    antipode = [nonzero(f, A.antipode.column(i)) for i in range(A.dim)]
    products = A._products
    ones = [(t, u) for t, u in enumerate(A.unit) if u]
    ok = True
    for k in range(A.dim):
        # start from -eps(e_k) 1 on both sides
        left = {t: -A.counit[k] * u for t, u in ones}
        right = dict(left)
        for (i, j), c in A.deltas[k].items():
            for a, s in antipode[i].items():
                for t, m in products.get((a, j), _NO_TERMS).items():
                    left[t] = left.get(t, 0) + c * s * m
            for b, s in antipode[j].items():
                for t, m in products.get((i, b), _NO_TERMS).items():
                    right[t] = right.get(t, 0) + c * s * m
        if not vanishes(f, left):
            ok = False
            rep.add("antipode left identity", False, A.name_of(k))
        if not vanishes(f, right):
            ok = False
            rep.add("antipode right identity", False, A.name_of(k))
    if ok:
        rep.add("antipode identities", True)
    return rep


def find_antipode(A: FinBialgebra) -> Matrix | None:
    """Solve the (linear) antipode equations exhaustively; None if none exists.

    The antipode conditions are linear in the entries of S, so existence is
    decided exactly by one kernel/solve computation.
    """
    f = A.field
    n = A.dim
    # unknowns: S[a][b], flattened a*n + b
    rows, rhs = [], []
    for k in range(n):
        dk = A.comult_basis(k)
        for t in range(n):
            # m(S (x) id) Delta(e_k) coefficient at e_t
            row = [f.zero] * (n * n)
            for (i, j), c in dk.items():
                # S(e_i) = sum_a S[a][i] e_a ; e_a * e_j contributes mult
                for (a, b, s), m in A.mult.items():
                    if b == j and s == t:
                        row[a * n + i] = f.add(row[a * n + i], f.mul(c, m))
            rows.append(row)
            rhs.append(f.mul(A.counit[k], A.unit[t]))
            row2 = [f.zero] * (n * n)
            for (i, j), c in dk.items():
                for (a, b, s), m in A.mult.items():
                    if a == i and s == t:
                        row2[b * n + j] = f.add(row2[b * n + j], f.mul(c, m))
            rows.append(row2)
            rhs.append(f.mul(A.counit[k], A.unit[t]))
    sol = solve(Matrix(f, rows), tuple(rhs))
    if sol is None:
        return None
    return Matrix(f, [[sol[a * n + b] for b in range(n)] for a in range(n)])


def dualize(A: FinBialgebra) -> FinBialgebra:
    """The duality functor on structure constants.

    Products and coproducts trade places (with the (k) and (i, j) index
    roles swapped), unit and counit trade places, and the antipode
    transposes. Under the dual-basis convention this is an involution on
    the nose: dualize(dualize(A)) has identical tensors and basis names.
    """
    mult = comult = unit = counit = None
    if A.has_coalgebra:
        mult = {(i, j, k): c for (k, i, j), c in A.comult.items()}
        unit = A.counit
    if A.has_algebra:
        comult = {(k, i, j): c for (i, j, k), c in A.mult.items()}
        counit = A.unit
    names = tuple(n[:-1] if n.endswith("*") else n + "*" for n in A.basis)
    antipode = A.antipode.transpose() if A.has_antipode else None
    return FinBialgebra(A.field, A.dim, names, mult, unit, comult, counit,
                        antipode)


def tensor_bialgebra(A: FinBialgebra, B: FinBialgebra) -> FinBialgebra:
    """Tensor product on the Kronecker-indexed basis (i, j) -> i*dim(B)+j."""
    if A.field != B.field:
        raise FieldMismatch("tensor over mixed fields")
    f = A.field
    nb = B.dim
    dim = A.dim * nb
    names = tuple(f"({a},{b})" for a in A.basis for b in B.basis)
    mult = unit = comult = counit = None
    if A.has_algebra and B.has_algebra:
        mult = {}
        for (i1, j1, k1), c1 in A.mult.items():
            for (i2, j2, k2), c2 in B.mult.items():
                mult[(i1 * nb + i2, j1 * nb + j2, k1 * nb + k2)] = f.mul(c1, c2)
        unit = tuple(f.mul(a, b) for a in A.unit for b in B.unit)
    if A.has_coalgebra and B.has_coalgebra:
        comult = {}
        for (k1, i1, j1), c1 in A.comult.items():
            for (k2, i2, j2), c2 in B.comult.items():
                comult[(k1 * nb + k2, i1 * nb + i2, j1 * nb + j2)] = f.mul(c1, c2)
        counit = tuple(f.mul(a, b) for a in A.counit for b in B.counit)
    antipode = None
    if A.has_antipode and B.has_antipode:
        antipode = kron(A.antipode, B.antipode)
    return FinBialgebra(f, dim, names, mult, unit, comult, counit, antipode)


def same_structure(A: FinBialgebra, B: FinBialgebra,
                   compare_names: bool = False) -> Report:
    """Exact comparison of structure constants (and optionally basis names)."""
    rep = Report("structure comparison")
    if not rep.add("field", A.field == B.field,
                   f"{A.field.describe()} vs {B.field.describe()}"):
        return rep
    if not rep.add("dimension", A.dim == B.dim, f"{A.dim} vs {B.dim}"):
        return rep
    if compare_names:
        rep.add("basis names", A.basis == B.basis,
                f"{A.basis} vs {B.basis}")
    rep.add("mult tensor", A.mult == B.mult)
    rep.add("unit", A.unit == B.unit)
    rep.add("comult tensor", A.comult == B.comult)
    rep.add("counit", A.counit == B.counit)
    ant_a = A.antipode.entries if A.has_antipode else None
    ant_b = B.antipode.entries if B.has_antipode else None
    rep.add("antipode", ant_a == ant_b)
    return rep


def same_algebra(A: FinBialgebra, B: FinBialgebra) -> bool:
    """A and B have one product table, one unit and one field."""
    return A is B or (A.mult == B.mult and A.unit == B.unit
                      and A.field == B.field)


def check_morphism(f_map: BialgebraMorphism, kind: str = "bialgebra") -> Report:
    """Check a linear map for the algebra, coalgebra or bialgebra property.

    F(xy) = F(x)F(y) is F: A -> k (x) B through :func:`algebra_map_failures`,
    which certifies it on a generating set of the source when it can."""
    if kind not in ("algebra", "coalgebra", "bialgebra"):
        raise ValueError(f"unknown morphism kind {kind!r}")
    A, B, F = f_map.source, f_map.target, f_map.matrix
    for role, X in (("source", A), ("target", B)):
        if kind != "coalgebra" and not X.has_algebra:
            raise ValueError(f"no algebra structure present on the {role}")
        if kind != "algebra" and not X.has_coalgebra:
            raise ValueError(f"no coalgebra structure present on the {role}")
    f = A.field
    rep = Report(f"{kind} morphism check")
    columns = [F.column(k) for k in range(A.dim)]
    images = [nonzero(f, col) for col in columns]
    if kind in ("algebra", "bialgebra"):
        unit_kept = F.apply(A.unit) == B.unit
        rep.sweep("f(xy) = f(x)f(y)", algebra_map_failures(
            A, into_ground(images), unit_kept, B))
        rep.add("f(1) = 1", unit_kept)
    if kind in ("coalgebra", "bialgebra"):
        comult_morphism_sweep(rep, "Delta f = (f (x) f) Delta", f, images,
                              A.deltas, B.deltas, A.basis)
        rep.sweep("counit f = counit", (
            A.name_of(k) for k in range(A.dim)
            if B.counit_vec(columns[k]) != A.counit[k]))
    return rep


def primitives(A: FinBialgebra) -> list:
    """Basis of the space of primitive elements: Delta(a) = a (x) 1 + 1 (x) a."""
    if not A.has_coalgebra:
        raise ValueError("no coalgebra structure present")
    if not A.has_algebra:
        raise ValueError("no algebra structure present (primitives need "
                         "the unit)")
    return primitive_space(A.field, A.deltas, A.unit)


def check_grouplike(A: FinBialgebra, a) -> bool:
    """True iff Delta(a) = a (x) a and counit(a) = 1."""
    f = A.field
    if A.counit_vec(a) != f.one:
        return False
    return A.comult_vec(a) == _outer_square(f, a)
