"""Representations of finite monoids; the monoid-algebra module equivalence;
invariants, invariant integrals and Reynolds averaging; invariant exactness;
character twists; complete reducibility; primary decomposition of a single
invertible matrix over F_p; and the truncated formal-matrix integral.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce

from . import polys
from .bialgebra import (BialgebraMorphism, FinBialgebra, check_morphism,
                        same_algebra)
from .exact import (FieldMismatch, FieldSpec, Matrix, Span, augment,
                    block_diag, first_bad_product, inverse, kernel_basis,
                    kron, lincomb, rank, rref, span_of, stack, vbasis)
from .monoids import BudgetExceeded, Character, FiniteMonoid, monoid_algebra
from .report import Report


class NotAGroup(ValueError):
    """The operation needs inverses the monoid does not have."""


class CharDividesOrder(ValueError):
    """The group order vanishes in the coefficient field."""


class NotASection(ValueError):
    """The supplied linear map is not a section of the projection."""


def _first_bad_law(mats, generators, target):
    """The first (s, h), s in generators and h indexing mats, with mats[s]
    mats[h] != target(s, h), or None, from one :func:`first_bad_product`
    batch (over Q on packed rows, with no product unpacked)."""
    pairs = [(s, h) for s in generators for h in range(len(mats))]
    bad = first_bad_product((mats[s], mats[h], target(s, h))
                            for s, h in pairs)
    return None if bad is None else pairs[bad]


class Representation:
    """A finite monoid acting on F^dim through one matrix per element.

    Validation checks that the unit acts as the identity and that
    action(s) * action(h) == action(sh) for every s in the monoid's greedy
    generating set and every element h. That is as strong as checking the
    whole table: by induction on the length of a word g = s g' in the
    generators, action(g) action(h) = action(s) action(g') action(h) =
    action(s) action(g'h) = action(s(g'h)) = action(gh), using the
    associativity that FiniteMonoid verifies. It takes |S| |G| products
    instead of |G|^2, in the one batch :class:`AlgebraModule` uses too
    (:func:`_first_bad_law`), and a failure names the first pair (s, h) in
    that order.

    ``certified`` is True when the matrices are known to form a
    representation: validation passed, or :meth:`regular` built them."""

    def __init__(self, monoid: FiniteMonoid, field: FieldSpec, matrices,
                 validate: bool = True):
        self.monoid = monoid
        self.field = field
        self.matrices = tuple(matrices)
        if len(self.matrices) != monoid.size:
            raise ValueError("one matrix per monoid element required")
        dims = {(m.rows, m.cols) for m in self.matrices}
        if len(dims) != 1 or len(set(d for pair in dims for d in pair)) > 1:
            raise ValueError("action matrices must be square of equal size")
        self.dim = self.matrices[0].rows
        for m in self.matrices:
            if m.field != field:
                raise FieldMismatch("action matrix over the wrong field")
        if validate:
            ident = Matrix.identity(field, self.dim)
            if self.matrices[monoid.unit] != ident:
                raise ValueError("unit must act as the identity")
            mats, table = self.matrices, monoid.table
            bad = _first_bad_law(mats, monoid.generators,
                                 lambda i, j: mats[table[i][j]])
            if bad is not None:
                i, j = bad
                raise ValueError(
                    f"action({monoid.names[i]})*action({monoid.names[j]})"
                    " disagrees with the table")
        self.certified = validate

    def action(self, i: int) -> Matrix:
        return self.matrices[i]

    def action_inv(self, i: int) -> Matrix:
        return self.matrices[self.monoid.inv(i)]

    def __repr__(self):
        return f"Representation(dim={self.dim} of {self.monoid!r} " \
               f"over {self.field.describe()})"

    @staticmethod
    def trivial(monoid: FiniteMonoid, field: FieldSpec,
                dim: int = 1) -> "Representation":
        ident = Matrix.identity(field, dim)
        return Representation(monoid, field, [ident] * monoid.size,
                              validate=False)

    @staticmethod
    def regular(monoid: FiniteMonoid, field: FieldSpec) -> "Representation":
        """Left translation on the monoid algebra: g sends e_h to e_{gh},
        each matrix written straight as 0/1 int rows (:meth:`Matrix.from_map`).
        It is certified without a check: the table is associative with its
        unit, which FiniteMonoid verified, so (gg')h = g(g'h) and 1h = h."""
        mats = [Matrix.from_map(field, row) for row in monoid.table]
        rho = Representation(monoid, field, mats, validate=False)
        rho.certified = True
        return rho

    @staticmethod
    def direct_sum(a: "Representation", b: "Representation") -> "Representation":
        if a.monoid != b.monoid or a.field != b.field:
            raise ValueError("direct sum needs one monoid and one field")
        mats = [block_diag(a.field, pair)
                for pair in zip(a.matrices, b.matrices)]
        return Representation(a.monoid, a.field, mats, validate=False)

    @staticmethod
    def tensor(a: "Representation", b: "Representation") -> "Representation":
        if a.monoid != b.monoid or a.field != b.field:
            raise ValueError("tensor needs one monoid and one field")
        mats = [kron(ma, mb) for ma, mb in zip(a.matrices, b.matrices)]
        return Representation(a.monoid, a.field, mats, validate=False)

    def conjugate(self, q: Matrix) -> "Representation":
        qinv = inverse(q)
        if qinv is None:
            raise ValueError("base change must be invertible")
        return Representation(self.monoid, self.field,
                              [q * m * qinv for m in self.matrices],
                              validate=False)

    def contragredient(self) -> "Representation":
        """g -> action(g^{-1})^T; needs a group."""
        if not self.monoid.is_group:
            raise NotAGroup("contragredient needs inverses")
        mats = [self.action_inv(g).transpose()
                for g in range(self.monoid.size)]
        return Representation(self.monoid, self.field, mats, validate=False)


class AlgebraModule:
    """A finite-dimensional module over a structure-constant algebra A,
    which must be associative.

    Validation checks that 1 acts as the identity and that act(e_s) act(e_b)
    == act(e_s e_b) for every s in the algebra's greedy generating set
    ``algebra.generators`` and every basis element b. That is as strong as
    checking every pair of basis elements: the elements a with act(a)
    act(b) = act(ab) for all b form a subspace that holds 1, and it is
    closed under products, because for two of them a and a',
    act(aa') act(b) = act(a) act(a') act(b) = act(a) act(a'b) =
    act(a(a'b)) = act((aa')b) by associativity. A unital subalgebra that
    holds the generators is all of A. It takes |S| dim(A) products instead
    of dim(A)^2, in the batch of :class:`Representation`
    (:func:`_first_bad_law`) against act(e_s e_b) (the matrix of e_s e_b
    itself when that is one basis element), and a failure names the first
    pair (s, b) in that order.

    ``certified`` is True when the matrices are known to form a module:
    validation passed, or the module comes from a certified
    :class:`Representation` (:func:`rep_to_module`) or from
    ``annihilator_quotient``."""

    def __init__(self, algebra: FinBialgebra, matrices, validate: bool = True):
        if not algebra.has_algebra:
            raise ValueError("module needs an algebra")
        self.algebra = algebra
        self.matrices = tuple(matrices)
        if len(self.matrices) != algebra.dim:
            raise ValueError("one matrix per algebra basis element required")
        self.dim = self.matrices[0].rows if self.matrices else 0
        for m in self.matrices:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise ValueError("action matrices must be square, equal size")
            if m.field != algebra.field:
                raise FieldMismatch("module over the wrong field")
        if validate:
            f = algebra.field
            if self.act(algebra.unit) != Matrix.identity(f, self.dim):
                raise ValueError("1 must act as the identity")
            mats = self.matrices

            def act_product(i, j):  # act(e_i e_j)
                return lincomb(f, self.dim, self.dim,
                               [(c, mats[k]) for k, c
                                in algebra.mul_basis(i, j).items()])
            bad = _first_bad_law(mats, algebra.generators, act_product)
            if bad is not None:
                i, j = bad
                raise ValueError(f"module law fails at ({algebra.name_of(i)},"
                                 f"{algebra.name_of(j)})")
        self.certified = validate

    def act(self, vec) -> Matrix:
        """Action of an algebra element given by its coefficient vector."""
        return lincomb(self.algebra.field, self.dim, self.dim,
                       zip(vec, self.matrices))


def rep_to_module(rho: Representation) -> AlgebraModule:
    """Linear extension of a representation to its monoid algebra; it
    carries the representation's certificate."""
    A = monoid_algebra(rho.monoid, rho.field)
    mod = AlgebraModule(A, rho.matrices, validate=False)
    mod.certified = rho.certified
    return mod


def module_to_rep(mod: AlgebraModule, monoid: FiniteMonoid) -> Representation:
    """Restriction of a monoid-algebra module back to the monoid basis."""
    if mod.algebra.dim != monoid.size:
        raise ValueError("module is not over the monoid algebra of this monoid")
    return Representation(monoid, mod.algebra.field, mod.matrices,
                          validate=False)


def _intertwiners(field, gens, src, tgt) -> list:
    """Basis of the maps f: src -> tgt with f L = R f for L = src(s) and
    R = tgt(s), s in gens, each a tgt.dim x src.dim Matrix. The unknowns
    are the entries of f read row by row, so vec(f L) = (I (x) L^T) vec(f)
    and vec(R f) = (R (x) I) vec(f)."""
    i_src = Matrix.identity(field, src.dim)
    i_tgt = Matrix.identity(field, tgt.dim)
    blocks = [kron(i_tgt, src.matrices[s].transpose())
              - kron(tgt.matrices[s], i_src) for s in gens]
    return [Matrix(field, [v]).reshape(tgt.dim, src.dim)
            for v in kernel_basis(stack(blocks) if blocks else
                                  Matrix.zero(field, 0, src.dim * tgt.dim))]


def hom_dim_reps(a: Representation, b: Representation) -> int:
    """Dimension of the space of equivariant maps a -> b. A map that
    commutes with the action of every generator commutes with every
    product of them, so the equations are those of the monoid's
    generating set."""
    if a.monoid != b.monoid or a.field != b.field:
        raise ValueError("hom needs one monoid and one field")
    return len(_intertwiners(a.field, a.monoid.generators, a, b))


def hom_dim_modules(a: AlgebraModule, b: AlgebraModule) -> int:
    """Dimension of the space of module maps a -> b. A map that commutes
    with the action of every generator commutes with the action of every
    product of them, and with that of 1, the identity; so the equations
    are those of ``algebra.generators``."""
    if not same_algebra(a.algebra, b.algebra):
        raise ValueError("hom needs one algebra")
    return len(_intertwiners(a.algebra.field, a.algebra.generators, a, b))


def invariants(rho: Representation) -> list:
    """Basis of the joint fixed space of the action matrices: the kernel of
    the stacked action(s) - I for s in the monoid's greedy generating set.
    A vector fixed by every generator is fixed by every product of them,
    so by all of G: the null space, and with it the unique reduced form and
    kernel basis, is that of the stack over every element. With no
    generators (the trivial monoid) every vector is invariant."""
    f = rho.field
    blocks = [rho.action(g).shift(-1) for g in rho.monoid.generators]
    if not blocks:
        return [vbasis(f, rho.dim, i) for i in range(rho.dim)]
    return kernel_basis(stack(blocks))


@dataclass(frozen=True)
class InvariantIntegral:
    """The two-sided invariant idempotent of a monoid algebra, normalized
    against the all-ones character."""
    group: FiniteMonoid
    field: FieldSpec
    vector: tuple


def integral_system(G: FiniteMonoid, F: FieldSpec):
    """Solve {g*w = w = w*g for all g, sum of coefficients = 1} in RG.

    Returns (solution or None, unique flag). Works for any finite monoid;
    this is the generic route that also certifies uniqueness. The
    invariance equations are stacked for the generators of G only: if
    s*w = w for every generator s then g*w = w for every product g of
    them, and likewise on the right, so the solution space, the reduced
    form, the solution and the uniqueness flag are those of the system
    over every element. The trivial monoid has no generators and keeps
    only the normalisation row.
    """
    A = monoid_algebra(G, F)
    n = G.size
    blocks = []
    for g in G.generators:
        e = A.basis_vec(g)
        blocks.append(A.left_mult_matrix(e).shift(-1))
        blocks.append(A.right_mult_matrix(e).shift(-1))
    # counit row: all ones (the trivial character pairing)
    blocks.append(Matrix(F, [[F.one] * n]))
    full = stack(blocks)
    rhs = Matrix(F, [[F.zero]] * (full.rows - 1) + [[F.one]], cols=1)
    # one elimination of [full | rhs]: the solution is unique iff full has
    # rank n, that is n pivots among the first n columns; the system has
    # no solution iff the last column holds the one pivot past them
    ech = rref(augment(full, rhs))
    x = ech.solution(n)
    w = None if x is None else x.column(0)
    unique = ech.rank - (x is None) == n
    return w, unique


def invariant_integral(G: FiniteMonoid, F: FieldSpec) -> InvariantIntegral:
    """w = |G|^{-1} sum of the group elements, in closed form.

    For each g, h -> gh and h -> hg permute G, so g w = w = w g; the
    coefficients of w sum to 1, and w w = |G|^{-1} sum_g g w = w. It is
    the only such element: g v = v for every g makes the coefficient of gh
    in v that of h, and G acts transitively on itself, so v is constant,
    and the normalisation pins the constant at |G|^{-1}. Its consumers
    certify what they build from it (:func:`reynolds`,
    :func:`equivariant_section`, :func:`complete_reducibility`);
    :func:`integral_system` solves for it on any monoid."""
    if not G.is_group:
        raise NotAGroup(f"{G!r} is not a group; use integral_system for "
                        "general monoids")
    n = G.size
    if F.characteristic() and n % F.characteristic() == 0:
        raise CharDividesOrder(f"|G| = {n} vanishes in {F.describe()}")
    return InvariantIntegral(G, F, (F.inv(F.from_int(n)),) * n)


@dataclass
class ReynoldsSplit:
    """The projector P onto M^G and the basis of M^G that :func:`invariants`
    returned; the bases of M^G (reduced echelon) and of ker P are computed
    when first read."""
    projector: Matrix
    invariants: list

    @cached_property
    def invariant_basis(self) -> list:
        P = self.projector
        return span_of(P.field, self.invariants, P.rows).basis()

    @cached_property
    def complement_basis(self) -> list:
        return kernel_basis(self.projector)


def reynolds(rho: Representation, w: InvariantIntegral) -> ReynoldsSplit:
    """rho(w): the equivariant projector onto the invariants, together with
    the splitting image + kernel.

    One batch of products certifies P P = P and image(P) = M^G: A_s P = P
    for every generator s puts each column of P in M^G (a vector every
    generator fixes is fixed by G), and P K = K for the matrix K of the
    invariant basis puts M^G in image(P). Nothing more is eliminated: the
    split keeps the invariant vectors, so dim M^G is their number and, by
    rank-nullity, dim ker P = dim M - dim M^G."""
    if w.group != rho.monoid:
        raise ValueError("integral belongs to a different group")
    if w.field != rho.field:
        raise FieldMismatch("integral over a different field")
    f = rho.field
    P = lincomb(f, rho.dim, rho.dim, zip(w.vector, rho.matrices))
    inv = invariants(rho)
    checks = [(P, P, P)] + [(rho.action(s), P, P)
                            for s in rho.monoid.generators]
    if inv:
        K = Matrix.from_columns(f, inv)
        checks.append((P, K, K))
    bad = first_bad_product(checks)
    if bad == 0:
        raise RuntimeError("averaged operator failed to be idempotent")
    if bad is not None:
        raise RuntimeError("projector image is not the invariant subspace")
    return ReynoldsSplit(P, inv)


@dataclass
class GroupAlgebraSplit:
    integral: InvariantIntegral
    ideal_basis: list
    report: Report


def split_group_algebra(G: FiniteMonoid, F: FieldSpec) -> GroupAlgebraSplit:
    """RG = (line through w) x (kernel ideal), with the projection onto the
    first factor given by the all-ones character."""
    w = invariant_integral(G, F)
    A = monoid_algebra(G, F)
    f = F
    n = G.size
    L = A.left_mult_matrix(w.vector)
    ideal = kernel_basis(L)
    rep = Report(f"group algebra splitting for {G!r} over {F.describe()}")
    image = span_of(f, [L.column(j) for j in range(n)], n)
    rep.add("w*RG is one-dimensional", image.dim == 1, f"dim {image.dim}")
    rep.add("w*RG is spanned by w", image.dim == 1
            and image.contains(w.vector))
    rep.add("dimension count", len(ideal) == n - 1)
    # projection onto the first factor equals the all-ones character; w*g
    # = w for the generators gives it for all of G
    rep.sweep("projection equals the trivial character", (
        G.names[g] for g in G.generators
        if A.mul_vec(w.vector, A.basis_vec(g)) != w.vector))
    # the complement is a two-sided ideal: closed under multiplication by
    # the generators on both sides, hence by all of G, which spans RG
    sp = span_of(f, ideal, n)
    rep.sweep("complement is a two-sided ideal", (
        G.names[g] for b in ideal for g in G.generators
        if not sp.contains(A.mul_vec(A.basis_vec(g), b))
        or not sp.contains(A.mul_vec(b, A.basis_vec(g)))))
    # direct sum of algebras: w is orthogonal to the ideal
    ok = all(A.mul_vec(w.vector, b) == (f.zero,) * n
             and A.mul_vec(b, w.vector) == (f.zero,) * n for b in ideal)
    rep.add("factors multiply to zero across the splitting", ok)
    return GroupAlgebraSplit(w, ideal, rep)


@dataclass(frozen=True)
class RepMorphism:
    """Equivariant linear map between representations of one monoid."""
    source: Representation
    target: Representation
    matrix: Matrix

    def __post_init__(self):
        if self.source.monoid != self.target.monoid:
            raise ValueError("morphism between different monoids")
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim,
                                                    self.source.dim):
            raise ValueError("matrix shape mismatch")

    def is_equivariant(self) -> bool:
        """matrix * action(g) == action'(g) * matrix for every g, checked
        for the generators of the monoid: if it holds for g and h it holds
        for gh, and the unit acts as the identity on both sides."""
        return first_bad_product(
            (self.matrix, self.source.action(g),
             self.target.action(g) * self.matrix)
            for g in self.source.monoid.generators) is None

    def is_surjective(self) -> bool:
        return rank(self.matrix) == self.target.dim


def _average(w: InvariantIntegral, M: Representation, N: Representation,
             s: Matrix) -> Matrix:
    """sum_g w_g M(g) s N(g^{-1}) for a linear map s: N -> M."""
    f = M.field
    return lincomb(f, M.dim, N.dim,
                   ((c, M.action(g) * s * N.action_inv(g))
                    for g, c in enumerate(w.vector) if c != f.zero))


def equivariant_section(pi: RepMorphism, s: Matrix,
                        w: InvariantIntegral) -> Matrix:
    """Average a linear section of an equivariant surjection into an
    equivariant one: s' = sum_g w_g rho_M(g) s rho_N(g^{-1})."""
    M, N = pi.source, pi.target
    if not pi.is_equivariant() or not pi.is_surjective():
        raise ValueError("projection must be equivariant and surjective")
    if (s.rows, s.cols) != (M.dim, N.dim):
        raise ValueError("section has the wrong shape")
    ident = Matrix.identity(M.field, N.dim)
    if first_bad_product([(pi.matrix, s, ident)]) is not None:
        raise NotASection("pi o s is not the identity")
    if not M.monoid.is_group:
        raise NotAGroup("averaging a section needs inverses")
    acc = _average(w, M, N, s)
    if first_bad_product([(pi.matrix, acc, ident)]) is not None:
        raise RuntimeError("averaged map stopped being a section")
    if not RepMorphism(N, M, acc).is_equivariant():
        raise RuntimeError("averaged section is not equivariant")
    return acc


def check_invariant_exactness(pi: RepMorphism) -> bool:
    """True iff the invariants of the source surject onto the invariants of
    the target. An equivariant map sends M^G into N^G, so it is onto N^G
    iff the image of M^G has the dimension of N^G."""
    if not pi.is_equivariant():
        raise ValueError("map is not equivariant")
    if not pi.is_surjective():
        raise ValueError("map is not surjective")
    f = pi.source.field
    inv_target = invariants(pi.target)
    if not inv_target:
        return True
    image = span_of(f, [pi.matrix.apply(v) for v in invariants(pi.source)],
                    pi.target.dim)
    return image.dim == len(inv_target)


def _require_invariant(rho: Representation, products) -> None:
    """Raise unless a b = tail A_s S = 0 for each pair (a, b) of products,
    one per generator s in order, for the tail of :func:`_adapted_basis`,
    which kills exactly the subspace, and the matrix S of its spanning
    vectors: a subspace every generator keeps is kept by G. A failure names
    the first generator, and the first spanning vector it moves out."""
    bad = first_bad_product((a, b, Matrix.zero(rho.field, a.rows, b.cols))
                            for a, b in products)
    if bad is not None:
        a, b = products[bad]
        i = next(j for j, col in enumerate(zip(*(a * b).ints)) if any(col))
        g = rho.monoid.names[rho.monoid.generators[bad]]
        raise ValueError(f"subspace is not invariant: {g} moves spanning "
                         f"vector {i} out of it")


def sub_rep(rho: Representation, basis) -> Representation:
    """Restriction of the action to an invariant subspace, in the
    coordinates of its basis: A_g S = S (head A_g S) for the matrix S of
    the basis and the head of :func:`_adapted_basis`, whose one elimination
    also rejects a dependent family. Invariance is checked as in
    :func:`quotient_rep`, as tail (A_s S) = 0 for the generators s."""
    return _restriction(rho, basis)[0]


def _restriction(rho: Representation, basis):
    """(:func:`sub_rep` of the basis, the head it used): head is the
    coordinate map onto the subspace along the unit-vector complement of
    :func:`_adapted_basis`."""
    f = rho.field
    basis = list(basis)
    _, head, tail = _adapted_basis(f, basis, rho.dim)
    S = Matrix(f, basis, cols=rho.dim).transpose()  # n x 0 for no vectors
    moved = [m * S for m in rho.matrices]
    _require_invariant(rho, [(tail, moved[s])
                             for s in rho.monoid.generators])
    return Representation(rho.monoid, f, [head * m for m in moved],
                          validate=False), head


def _adapted_basis(field: FieldSpec, sub, n: int):
    """Complete the independent family sub to a basis of F^n with unit
    vectors, taken greedily in index order. Returns (complement, head,
    tail): the rows of the inverse base change [sub | complement] split
    into coordinates over sub (head) and over the complement (tail).

    One elimination of the k rows [reversed s_i | e_i] gives all three.
    The greedy completion leaves e_c out exactly when some vector of the
    span has its last nonzero entry at c, so the columns K it leaves out
    are the pivots of the reversed vectors. The reduced row with pivot
    k in K is r_k | c_k: r_k is the vector of the span that is 1 at k and
    0 on the rest of K, and c_k its coordinates over sub. A vector x is
    sum_K x_k r_k plus a vector zero on K, so its coordinates over sub
    are sum_K x_k c_k (head: c_k in column k), and over the complement
    its entries off K less those of sum_K x_k r_k (tail: the identity off
    K and -r_k in column k). A pivot in the appended block is a
    dependence among the s_i."""
    sub = list(sub)
    k = len(sub)
    for v in sub:
        if len(v) != n:
            raise ValueError(f"subspace vector of length {len(v)} in "
                             f"dimension {n}")
    ech = rref(Matrix(field, [tuple(reversed(v)) + vbasis(field, k, i)
                              for i, v in enumerate(sub)], cols=n + k))
    if ech.pivots and ech.pivots[-1] >= n:
        raise ValueError("subspace basis is dependent")
    red = ech.reduced
    rows = red.ints[:k]
    left = [n - 1 - c for c in ech.pivots]  # K, one column per row
    head = [[0] * n for _ in range(k)]
    for row, c in zip(rows, left):
        for i, x in enumerate(row[n:]):
            head[i][c] = x
    out = set(left)
    tail, comp = [], []
    for j in range(n):
        if j in out:
            continue
        t = [0] * n
        t[j] = red.den
        for row, c in zip(rows, left):
            t[c] = -row[n - 1 - j]
        tail.append(t)
        comp.append(vbasis(field, n, j))
    scale = field.inv(red.den)
    return (comp, Matrix(field, head, cols=n).scale(scale),
            Matrix(field, tail, cols=n).scale(scale))


def quotient_rep(rho: Representation, sub_basis):
    """Quotient by an invariant subspace.

    Returns (quotient representation, projection matrix, linear section)
    with the complement spanned by unit vectors chosen deterministically
    (:func:`_adapted_basis`); the projection is its tail. Invariance is
    checked as (proj A_s) S = 0 for the generators s, reusing the proj A_s
    of the quotient (:func:`_require_invariant`, which :func:`sub_rep`
    shares)."""
    f = rho.field
    sub = list(sub_basis)
    comp, _, proj = _adapted_basis(f, sub, rho.dim)
    sect = Matrix(f, comp, cols=rho.dim).transpose()  # n x 0 for no vectors
    moved = [proj * m for m in rho.matrices]
    S = Matrix(f, sub, cols=rho.dim).transpose()
    _require_invariant(rho, [(moved[s], S) for s in rho.monoid.generators])
    quot = Representation(rho.monoid, f, [pm * sect for pm in moved],
                          validate=False)
    return quot, proj, sect


def twist_by_character(G: FiniteMonoid, chi: Character, F: FieldSpec):
    """The algebra automorphism of RG scaling each group basis vector by a
    character value. Returns (matrix, report)."""
    if chi.domain != G:
        raise ValueError("character of a different monoid")
    f = F
    A = monoid_algebra(G, F)
    n = G.size
    phi = Matrix(f, [[chi(j) if i == j else f.zero for j in range(n)]
                     for i in range(n)])
    rep = Report(f"character twist on R[{G!r}]")
    morph = check_morphism(BialgebraMorphism(A, A, phi), kind="algebra")
    rep.extend(morph, prefix="twist: ")
    inv_phi = Matrix(f, [[f.inv(chi(j)) if i == j else f.zero
                          for j in range(n)] for i in range(n)])
    rep.add("inverse twist inverts", first_bad_product(
        [(phi, inv_phi, Matrix.identity(f, n))]) is None)
    chi_inv = chi.inverse()
    rep.add("inverse twist is the inverse-character twist",
            all(inv_phi.entries[i][i] == chi_inv(i) for i in range(n)))
    # composing with the trivial character pairing recovers chi on elements
    rep.sweep("trivial character after twist equals chi", (
        G.names[g] for g in range(n)
        if reduce(f.add, phi.column(g), f.zero) != chi(g)))
    return phi, rep


# -- complete reducibility ------------------------------------------------------

@dataclass
class Summand:
    embedding: list          # basis of the invariant subspace, ambient coords
    rep: Representation
    certificate: str


def _field_eigenvalues(field, m: Matrix) -> list:
    """The eigenvalues of m in F_p, sorted: the roots of the linear factors
    of its characteristic polynomial. Over Q, m must have finite order, so
    that its eigenvalues are roots of unity: the candidates are -1 and 1."""
    if field.p is None:
        return [field.neg(field.one), field.one]
    cp = polys.char_poly(m)
    return sorted(field.neg(q[0]) for q in polys.factor_monic_fp(field, cp)
                  if polys.degree(q) == 1)


def _proper_spin(rho: Representation, vectors):
    """A basis of the first spin (the least invariant subspace holding v)
    of a vector v of vectors that is proper, or None."""
    for v in vectors:
        sp, todo = Span(rho.field, rho.dim), [v]
        while todo and sp.dim < rho.dim:
            u = todo.pop()
            if sp.add(u):
                todo.extend(rho.action(s).apply(u)
                            for s in rho.monoid.generators)
        if sp.dim < rho.dim:
            return sp.basis()
    return None


def _proper_invariant_subspace(rho: Representation):
    """A proper nonzero invariant subspace, or None: the invariants when
    proper, else the first proper spin of an eigenvector (Parker's MeatAxe)
    in the reduced kernel bases of A_g - lambda, for each g in G but the
    inverses of those before it (A_(g^-1) - 1/lambda has the same basis),
    the unit last, and each eigenvalue lambda in the field. Last, the spins
    of the joint eigenspace those kernels cut out: on m copies of an
    absolutely simple W it is N (x) F^m, and a line N spins to one copy, as
    in std (x) std of S3 x S3, where no A_g has an eigenline."""
    f = rho.field
    inv = invariants(rho)
    if 0 < len(inv) < rho.dim:
        return inv
    G, S = rho.monoid, Matrix.identity(f, rho.dim)
    for g in [*(h for h in range(G.size)
                if h != G.unit and G.inv(h) >= h), G.unit]:
        A = rho.action(g)
        for lam in _field_eigenvalues(f, A):
            found = _proper_spin(rho, kernel_basis(A.shift(-lam)))
            if found:
                return found
            cut = kernel_basis(A.shift(-lam) * S)
            if 0 < len(cut) < S.cols:
                S = S * Matrix.from_columns(f, cut)
    return _proper_spin(rho, (S.column(j) for j in range(S.cols)))


def _endomorphism_kernel(rho: Representation, ends):
    """Over F_p (over Q it would need factoring), a proper kernel of q(E),
    an invariant subspace, or None: q an irreducible factor of the
    characteristic polynomial of E = E_a or E_b + t E_a (a < b, t < 8) for
    the basis ends of End_G. No sum of the basis 1, i, j, k of End_G for Q8
    over F_7 is singular, but i + 2j is."""
    f, n = rho.field, rho.dim
    if f.p is None:
        return None
    lines = (lincomb(f, n, n, [(f.one, eb), (f.from_int(t), ea)])
             for i, ea in enumerate(ends) for eb in ends[i + 1:]
             for t in range(1, min(f.p, 8)))
    for E in [*ends, *lines]:
        for q in polys.factor_monic_fp(f, polys.char_poly(E)):
            ker = kernel_basis(polys.eval_at_matrix(f, q, E))
            if 0 < len(ker) < n:
                return ker
    return None


def complete_reducibility(rho: Representation,
                          w: InvariantIntegral) -> list:
    """Split a representation into direct summands at the subspaces
    :func:`_proper_invariant_subspace` finds. Each split averages the head
    h of the adapted basis of W, the reduced basis of the found subspace,
    into T = sum_g w_g sub(g) h A(g^-1), an equivariant map onto the
    restriction sub to W with T S = 1 for the matrix S of W (one product
    checks it); the complement summand is ker T.

    The search is deterministic. A piece it leaves whole whose equivariant
    endomorphisms End_G are not the scalars is split by one of them where
    :func:`_endomorphism_kernel` can; one still whole is certified
    "absolutely simple: dim End_G = 1" or labelled "not certified:
    dim End_G = k", as is the simple rational module Q^2 of Z3."""
    if w.group != rho.monoid or w.field != rho.field:
        raise ValueError("integral does not match the representation")
    f = rho.field

    def split(piece: Representation, embedding):
        if piece.dim == 0:
            return []
        found = _proper_invariant_subspace(piece)
        if found is None:
            ends = _intertwiners(f, piece.monoid.generators, piece, piece)
            k = len(ends)
            found = _endomorphism_kernel(piece, ends) if k > 1 else None
            if found is None:
                label = "absolutely simple" if k == 1 else "not certified"
                return [Summand(embedding, piece,
                                f"{label}: dim End_G = {k}")]
        W = span_of(f, found, piece.dim).basis()
        sub, head = _restriction(piece, W)
        T = _average(w, sub, piece, head)
        if first_bad_product([(T, Matrix.from_columns(f, W),
                               Matrix.identity(f, len(W)))]) is not None:
            raise RuntimeError("averaged map is not a retraction onto the "
                               "summand")
        ker = kernel_basis(T)
        push = Matrix.from_columns(f, embedding)
        return [s for part, rep in ((W, sub), (ker, sub_rep(piece, ker)))
                for s in split(rep, [push.apply(v) for v in part])]

    return split(rho, [vbasis(f, rho.dim, i) for i in range(rho.dim)])


def assemble_summands(rho: Representation, summands) -> Matrix:
    """Base change whose columns are the summand bases; conjugating by it
    block-diagonalizes the action. Raises if the sum is not direct."""
    f = rho.field
    cols = [v for s in summands for v in s.embedding]
    B = Matrix.from_columns(f, cols)
    Binv = inverse(B)
    if Binv is None:
        raise ValueError("summands do not span: sum is not direct")
    # products of block-diagonal matrices are block diagonal, so the
    # generators decide it for all of G; the rows of each block must be
    # zero outside its columns
    for g in rho.monoid.generators:
        conj = (Binv * rho.action(g) * B).ints
        start = 0
        for s in summands:
            end = start + len(s.embedding)
            if any(any(row[:start]) or any(row[end:])
                   for row in conj[start:end]):
                raise ValueError("action is not block diagonal in the "
                                 "assembled basis")
            start = end
    return B


# -- primary decomposition of one invertible matrix over F_p --------------------

@dataclass
class CyclicBlock:
    poly: tuple        # monic irreducible q, low-to-high coefficients
    exponent: int      # the block realizes F_p[x]/(q^exponent)
    generator: tuple   # cyclic vector in ambient coordinates


@dataclass
class ZRepDecomposition:
    field: FieldSpec
    blocks: list               # CyclicBlock, deterministic order
    basis: Matrix              # columns: iterated images of the generators
    companion: Matrix          # block diagonal companion form
    summary: list              # (q, exponent, multiplicity), aggregated

    def verify(self, m: Matrix) -> bool:
        """basis^-1 m basis == companion: the basis is n x n of rank n, and
        m basis == basis companion."""
        n = m.rows
        return (self.basis.cols == n and rank(self.basis) == n
                and first_bad_product([(m, self.basis, self.basis
                                        * self.companion)]) is None)


def _companion(field, poly) -> Matrix:
    n = polys.degree(poly)
    return Matrix.from_columns(field, [vbasis(field, n, j + 1)
                                       for j in range(n - 1)]
                               + [tuple(field.neg(c) for c in poly[:-1])])


def _primary_generators(m: Matrix, q, a: int) -> list:
    """(generator, exponent) pairs of the cyclic blocks of the q-primary
    component of m, of dimension deg(q) a, in ambient coordinates and from
    the top exponent down.

    With Q = q(m) and V_s = ker Q^s (one :func:`rref` per power, up to the
    first of dimension deg(q) a), the blocks of exponent s are as many as
    the dimension of V_s / (V_(s-1) + Q V_(s+1)) over F_p[x]/(q), and
    generators whose images form a basis of it can be picked top down
    (Giesbrecht, *Nearly optimal algorithms for canonical matrix forms*,
    1995). V_(s-1) + Q V_(s+1) is V_(s-1) plus the F_p[m]-span of
    Q^(t-s) g for each generator g of exponent t > s, and modulo V_(s-1)
    that span is spanned by m^j Q^(t-s) g for j < deg q. So the span W
    starts as V_(s-1) with those vectors added, and each kernel vector of
    Q^s that enlarges it is a generator of exponent s, whose orbit m^j g
    (j < deg q) W then gains; the level is done when W is V_s, so the
    orbit of a generator that completes it is not added."""
    f, n = m.field, m.rows
    d = polys.degree(q)
    Q = polys.eval_at_matrix(f, q, m)
    kernels = [[]]  # kernels[s]: a basis of ker Q^s
    power = Q
    while True:
        ech = rref(power)
        kernels.append(ech.kernel())
        if ech.rank == n - d * a:
            break
        if len(kernels) > a:
            raise RuntimeError("primary component has unexpected dimension")
        power = power * Q

    def add_orbit(W, v):  # m v, ..., m^(d-1) v
        for _ in range(d - 1):
            v = m.apply(v)
            W.add(v)
    out, images = [], []  # images: Q^(t-s) g for each generator g
    for s in range(len(kernels) - 1, 0, -1):
        W = span_of(f, kernels[s - 1], n)
        images = [Q.apply(v) for v in images]
        for v in images:
            W.add(v)
            add_orbit(W, v)
        top = len(kernels[s])
        for g in kernels[s]:
            if W.dim == top:
                break
            if W.add(g):
                out.append((g, s))
                images.append(g)
                if W.dim + d - 1 == top:
                    break  # its orbit completes the level
                add_orbit(W, g)
    return out


def decompose_rep_of_Z(m: Matrix) -> ZRepDecomposition:
    """Primary decomposition of the F_p[x]-module defined by an invertible
    matrix: factor the characteristic polynomial (Hessenberg reduction, then
    square-free, distinct-degree and Cantor-Zassenhaus splitting), then split
    each primary component into cyclic blocks with explicit companion form
    and base change, in ambient coordinates from the kernels of the powers
    of q(m) (:func:`_primary_generators`). m is singular iff the
    characteristic polynomial has constant term det(-m) = 0. The similarity
    of the companion form to m is checked once, here, and a failed check
    raises."""
    f = m.field
    if f.p is None:
        raise ValueError("decomposition implemented over prime fields")
    n = m.rows
    if m.cols != n:
        raise ValueError("square matrix required")
    cp = polys.char_poly(m)
    if not cp[0]:
        raise ValueError("singular matrix: not a representation of Z")
    factors = polys.factor_monic_fp(f, cp)
    blocks = [CyclicBlock(q, e, gen) for q in sorted(factors)
              for gen, e in _primary_generators(m, q, factors[q])]
    blocks.sort(key=lambda b: (polys.degree(b.poly), b.poly, -b.exponent))
    cols, comp_blocks = [], []
    for b in blocks:
        qe = (f.one,)
        for _ in range(b.exponent):
            qe = polys.mul(f, qe, b.poly)
        comp_blocks.append(_companion(f, qe))
        vec = b.generator
        for _ in range(polys.degree(qe)):
            cols.append(vec)
            vec = m.apply(vec)
    basis = Matrix.from_columns(f, cols)
    companion = block_diag(f, comp_blocks)
    summary = Counter((b.poly, b.exponent) for b in blocks)
    out = ZRepDecomposition(f, blocks, basis, companion, [
        (q, e, mult) for (q, e), mult in sorted(summary.items())])
    if not out.verify(m):
        raise RuntimeError("reassembled companion form is not similar to "
                           "the input")
    return out


# -- the truncated formal-matrix integral ---------------------------------------

def formal_matrix_integral(n: int, N: int, F: FieldSpec,
                           budget: int | None = None) -> Report:
    """Truncated coalgebra of the formal-matrix semigroup and its dual
    convolution algebra; reports that evaluation at the zero matrix absorbs:
    a * delta_0 = a(1) delta_0 = delta_0 * a for every dual basis vector.

    The coalgebra is spanned by the monomials kappa of degree <= N in the
    n^2 entries x_ij, with Delta x_ij = sum_l x_il (x) x_lj; the dual basis
    is the functionals a_mu dual to them. The kappa-coefficient of
    a_mu * delta_0 is the mu-coefficient of (id (x) delta_0) Delta(kappa),
    and that of a_mu(1) delta_0 is the mu-coefficient of delta_0(kappa) 1.
    Delta and delta_0 are algebra maps, so both sides are algebra maps
    k[x] -> k[x] applied to kappa, and the law holds on every monomial iff
    it holds on the n^2 generators: sum_l x_il delta_0(x_lj) = 0 =
    delta_0(x_ij) 1, since every entry of the zero matrix is 0. The left
    law is the same with (delta_0 (x) id) Delta, and delta_0 is idempotent
    by the right law at a = delta_0, as delta_0(1) = 1. So the three laws
    hold for every n, N and field, and the report states them; only the
    dual basis size C(n^2+N, N) is computed, as a running product that
    raises :class:`BudgetExceeded` as soon as it passes ``budget``.
    """
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    nv = n * n
    size = 1
    for k in range(1, N + 1):
        size = size * (nv + k) // k  # C(nv + k, k)
        if budget is not None and size > budget:
            raise BudgetExceeded(f"C({nv + N}, {N}) functionals exceed "
                                 f"budget {budget}")
    rep = Report(f"formal-matrix integral (n={n}, order {N}, "
                 f"{F.describe()})")
    rep.add("a * delta_0 = a(1) delta_0", True)
    rep.add("delta_0 * a = a(1) delta_0", True)
    rep.add("delta_0 is idempotent", True)
    rep.add("dual basis size", True, f"{size} functionals")
    return rep
