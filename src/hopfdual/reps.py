"""Representations of finite monoids; the monoid-algebra module equivalence;
invariants, invariant integrals and Reynolds averaging; invariant exactness;
character twists; complete reducibility; primary decomposition of a single
invertible matrix over F_p; and the truncated formal-matrix integral.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import polys
from .bialgebra import BialgebraMorphism, FinBialgebra, check_morphism
from .exact import (FieldMismatch, FieldSpec, Matrix, extend_to_basis,
                    inverse, kernel_basis, kron, lincomb, rank, solve,
                    solve_many, span_of, stack, vbasis, vsub)
from .monoids import Character, FiniteMonoid, monoid_algebra
from .report import Report


class NotAGroup(ValueError):
    """The operation needs inverses the monoid does not have."""


class CharDividesOrder(ValueError):
    """The group order vanishes in the coefficient field."""


class NotASection(ValueError):
    """The supplied linear map is not a section of the projection."""


class Representation:
    """A finite monoid acting on F^dim through one matrix per element."""

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
            for i in range(monoid.size):
                for j in range(monoid.size):
                    if self.matrices[i] * self.matrices[j] != \
                            self.matrices[monoid.table[i][j]]:
                        raise ValueError(
                            f"action({monoid.names[i]})*action({monoid.names[j]})"
                            " disagrees with the table")

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
        """Left translation on the monoid algebra: g sends e_h to e_{gh}."""
        n = monoid.size
        mats = []
        for g in range(n):
            cols = [vbasis(field, n, monoid.table[g][h]) for h in range(n)]
            mats.append(Matrix.from_columns(field, cols))
        return Representation(monoid, field, mats, validate=False)

    @staticmethod
    def from_character(chi: Character, field: FieldSpec) -> "Representation":
        mats = [Matrix(field, [[chi(i)]]) for i in range(chi.domain.size)]
        return Representation(chi.domain, field, mats, validate=False)

    @staticmethod
    def direct_sum(a: "Representation", b: "Representation") -> "Representation":
        if a.monoid != b.monoid or a.field != b.field:
            raise ValueError("direct sum needs one monoid and one field")
        f = a.field
        mats = []
        for ma, mb in zip(a.matrices, b.matrices):
            rows = [tuple(row) + (f.zero,) * b.dim for row in ma.entries]
            rows += [(f.zero,) * a.dim + tuple(row) for row in mb.entries]
            mats.append(Matrix(f, rows))
        return Representation(a.monoid, f, mats, validate=False)

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
    """A finite-dimensional module over a structure-constant algebra."""

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
            for i in range(algebra.dim):
                for j in range(algebra.dim):
                    lhs = self.matrices[i] * self.matrices[j]
                    rhs = lincomb(f, self.dim, self.dim,
                                  ((c, self.matrices[k]) for k, c
                                   in algebra.mul_basis(i, j).items()))
                    if lhs != rhs:
                        raise ValueError(
                            f"module law fails at ({algebra.name_of(i)},"
                            f"{algebra.name_of(j)})")

    def act(self, vec) -> Matrix:
        """Action of an algebra element given by its coefficient vector."""
        return lincomb(self.algebra.field, self.dim, self.dim,
                       zip(vec, self.matrices))


def rep_to_module(rho: Representation) -> AlgebraModule:
    """Linear extension of a representation to its monoid algebra."""
    A = monoid_algebra(rho.monoid, rho.field)
    return AlgebraModule(A, rho.matrices, validate=False)


def module_to_rep(mod: AlgebraModule, monoid: FiniteMonoid) -> Representation:
    """Restriction of a monoid-algebra module back to the monoid basis."""
    if mod.algebra.dim != monoid.size:
        raise ValueError("module is not over the monoid algebra of this monoid")
    return Representation(monoid, mod.algebra.field, mod.matrices,
                          validate=False)


def _intertwiner_space_dim(field, left_mats, right_mats, dim_src, dim_tgt):
    # f with f*L_i = R_i*f for all i; unknowns f (dim_tgt x dim_src)
    rows = []
    for L, R in zip(left_mats, right_mats):
        for a in range(dim_tgt):
            for b in range(dim_src):
                row = [field.zero] * (dim_tgt * dim_src)
                for c in range(dim_src):
                    row[a * dim_src + c] = field.add(
                        row[a * dim_src + c], L.entries[c][b])
                for c in range(dim_tgt):
                    row[c * dim_src + b] = field.sub(
                        row[c * dim_src + b], R.entries[a][c])
                rows.append(row)
    return len(kernel_basis(Matrix(field, rows)))


def hom_dim_reps(a: Representation, b: Representation) -> int:
    """Dimension of the space of equivariant maps a -> b."""
    return _intertwiner_space_dim(a.field, a.matrices, b.matrices,
                                  a.dim, b.dim)


def hom_dim_modules(a: AlgebraModule, b: AlgebraModule) -> int:
    return _intertwiner_space_dim(a.algebra.field, a.matrices, b.matrices,
                                  a.dim, b.dim)


def invariants(rho: Representation, generators=None) -> list:
    """Basis of the joint fixed space of the action matrices."""
    f = rho.field
    gens = range(rho.monoid.size) if generators is None else generators
    ident = Matrix.identity(f, rho.dim)
    blocks = [rho.action(g) - ident for g in gens]
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
    this is the generic route that also certifies uniqueness.
    """
    A = monoid_algebra(G, F)
    n = G.size
    ident = Matrix.identity(F, n)
    blocks = []
    for g in range(n):
        e = A.basis_vec(g)
        blocks.append(A.left_mult_matrix(e) - ident)
        blocks.append(A.right_mult_matrix(e) - ident)
    homogeneous = stack(blocks)
    # counit row: all ones (the trivial character pairing)
    full = stack([homogeneous, Matrix(F, [[F.one] * n])])
    rhs = (F.zero,) * homogeneous.rows + (F.one,)
    w = solve(full, rhs)
    unique = len(kernel_basis(full)) == 0
    return w, unique


def invariant_integral(G: FiniteMonoid, F: FieldSpec) -> InvariantIntegral:
    """|G|^{-1} sum of the group elements, with all its defining identities
    verified and uniqueness certified by the full linear system."""
    if not G.is_group:
        raise NotAGroup(f"{G!r} is not a group; use integral_system for "
                        "general monoids")
    n = G.size
    if F.characteristic() and n % F.characteristic() == 0:
        raise CharDividesOrder(f"|G| = {n} vanishes in {F.describe()}")
    inv_n = F.inv(F.from_int(n))
    w = tuple(inv_n for _ in range(n))
    A = monoid_algebra(G, F)
    for g in range(n):
        e = A.basis_vec(g)
        if A.mul_vec(e, w) != w or A.mul_vec(w, e) != w:
            raise RuntimeError("averaging element is not invariant")
    if A.mul_vec(w, w) != w:
        raise RuntimeError("averaging element is not idempotent")
    total = F.zero
    for c in w:
        total = F.add(total, c)
    if total != F.one:
        raise RuntimeError("averaging element is not normalized")
    solved, unique = integral_system(G, F)
    if solved != w or not unique:
        raise RuntimeError("invariance system does not pin the integral")
    return InvariantIntegral(G, F, w)


@dataclass
class ReynoldsSplit:
    projector: Matrix
    invariant_basis: list
    complement_basis: list


def reynolds(rho: Representation, w: InvariantIntegral) -> ReynoldsSplit:
    """rho(w): the equivariant projector onto the invariants, together with
    the splitting image + kernel."""
    if w.group != rho.monoid:
        raise ValueError("integral belongs to a different group")
    if w.field != rho.field:
        raise FieldMismatch("integral over a different field")
    f = rho.field
    P = lincomb(f, rho.dim, rho.dim, zip(w.vector, rho.matrices))
    if P * P != P:
        raise RuntimeError("averaged operator failed to be idempotent")
    image = span_of(f, [P.column(j) for j in range(rho.dim)], rho.dim)
    inv = span_of(f, invariants(rho), rho.dim)
    if image.basis() != inv.basis():
        raise RuntimeError("projector image is not the invariant subspace")
    return ReynoldsSplit(P, image.basis(), kernel_basis(P))


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
    # projection onto the first factor equals the all-ones character
    ok = True
    for g in range(n):
        e = A.basis_vec(g)
        if A.mul_vec(w.vector, e) != w.vector:
            ok = False
            rep.add("projection equals the trivial character", False,
                    G.names[g])
    if ok:
        rep.add("projection equals the trivial character", True)
    # the complement is a two-sided ideal
    sp = span_of(f, ideal, n)
    ok = True
    for b in ideal:
        for g in range(n):
            e = A.basis_vec(g)
            if not sp.contains(A.mul_vec(e, b)) or \
               not sp.contains(A.mul_vec(b, e)):
                ok = False
                rep.add("complement is a two-sided ideal", False, G.names[g])
    if ok:
        rep.add("complement is a two-sided ideal", True)
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
        return all(self.matrix * self.source.action(g)
                   == self.target.action(g) * self.matrix
                   for g in range(self.source.monoid.size))

    def is_surjective(self) -> bool:
        return rank(self.matrix) == self.target.dim


def equivariant_section(pi: RepMorphism, s: Matrix,
                        w: InvariantIntegral) -> Matrix:
    """Average a linear section of an equivariant surjection into an
    equivariant one: s' = sum_g w_g rho_M(g) s rho_N(g^{-1})."""
    M, N = pi.source, pi.target
    if not pi.is_equivariant() or not pi.is_surjective():
        raise ValueError("projection must be equivariant and surjective")
    if (s.rows, s.cols) != (M.dim, N.dim):
        raise ValueError("section has the wrong shape")
    if pi.matrix * s != Matrix.identity(M.field, N.dim):
        raise NotASection("pi o s is not the identity")
    if not M.monoid.is_group:
        raise NotAGroup("averaging a section needs inverses")
    f = M.field
    acc = lincomb(f, M.dim, N.dim,
                  ((c, M.action(g) * s * N.action_inv(g))
                   for g, c in enumerate(w.vector) if c != f.zero))
    if pi.matrix * acc != Matrix.identity(f, N.dim):
        raise RuntimeError("averaged map stopped being a section")
    for g in range(M.monoid.size):
        if M.action(g) * acc != acc * N.action(g):
            raise RuntimeError("averaged section is not equivariant")
    return acc


def check_invariant_exactness(pi: RepMorphism) -> bool:
    """True iff the invariants of the source surject onto the invariants of
    the target."""
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
    return all(image.contains(v) for v in inv_target)


def sub_rep(rho: Representation, basis) -> Representation:
    """Restriction of the action to an invariant subspace, in the given
    basis coordinates."""
    f = rho.field
    basis = list(basis)
    k = len(basis)
    coords = solve_many(Matrix.from_columns(f, basis),
                        [m.apply(v) for m in rho.matrices for v in basis])
    if coords is None:
        raise ValueError("subspace is not invariant")
    mats = [Matrix.from_columns(f, coords[g * k:(g + 1) * k])
            for g in range(rho.monoid.size)]
    return Representation(rho.monoid, f, mats, validate=False)


def _adapted_basis(field: FieldSpec, sub, n: int):
    """Complete the independent family sub to a basis of F^n with unit
    vectors. Returns (complement, head, tail): the rows of the inverse base
    change split into coordinates over sub (head) and over the complement
    (tail)."""
    sub = list(sub)
    comp = extend_to_basis(field, sub, n)
    if len(sub) + len(comp) != n:
        raise ValueError("subspace basis is dependent")
    rows = inverse(Matrix.from_columns(field, sub + comp)).entries
    k = len(sub)
    return (comp, Matrix(field, rows[:k], cols=n),
            Matrix(field, rows[k:], cols=n))


def quotient_rep(rho: Representation, sub_basis):
    """Quotient by an invariant subspace.

    Returns (quotient representation, projection matrix, linear section)
    with the complement spanned by unit vectors chosen deterministically.
    """
    f = rho.field
    sub = list(sub_basis)
    comp, _, proj = _adapted_basis(f, sub, rho.dim)
    sect = Matrix.from_columns(f, comp)
    quot = Representation(rho.monoid, f,
                          [proj * m * sect for m in rho.matrices],
                          validate=False)
    # well-definedness needs invariance of the subspace
    sp = span_of(f, sub, rho.dim)
    for g in range(rho.monoid.size):
        for v in sub:
            if not sp.contains(rho.action(g).apply(v)):
                raise ValueError("subspace is not invariant")
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
    rep.add("inverse twist inverts", phi * inv_phi == Matrix.identity(f, n))
    chi_inv = chi.inverse()
    rep.add("inverse twist is the inverse-character twist",
            all(inv_phi.entries[i][i] == chi_inv(i) for i in range(n)))
    # composing with the trivial character pairing recovers chi on elements
    ok = True
    for g in range(n):
        total = f.zero
        for c in phi.column(g):
            total = f.add(total, c)
        if total != chi(g):
            ok = False
            rep.add("trivial character after twist equals chi", False,
                    G.names[g])
    if ok:
        rep.add("trivial character after twist equals chi", True)
    return phi, rep


# -- complete reducibility ------------------------------------------------------

@dataclass
class Summand:
    embedding: list          # basis of the invariant subspace, ambient coords
    rep: Representation
    certificate: str


def _average_conjugates(rho: Representation, w: InvariantIntegral,
                        E: Matrix) -> Matrix:
    f = rho.field
    return lincomb(f, rho.dim, rho.dim,
                   ((c, rho.action(g) * E * rho.action_inv(g))
                    for g, c in enumerate(w.vector) if c != f.zero))


def _field_eigenvalues(field, m: Matrix) -> list:
    cp = polys.char_poly(m)
    if field.p is None:
        return polys.rational_roots(cp)
    return [x for x in range(field.p) if polys.eval_at(field, cp, x) == field.zero]


def _proper_invariant_subspace(rho, w, rng, attempts):
    """Search for a proper nonzero invariant subspace: invariants first,
    then eigenspaces of averaged seeded rank-one endomorphisms."""
    f = rho.field
    n = rho.dim
    inv = invariants(rho)
    if 0 < len(inv) < n:
        return inv
    ident = Matrix.identity(f, n)
    for _ in range(attempts):
        if f.p is None:
            u = [f.from_int(rng.randint(-5, 5)) for _ in range(n)]
            v = [f.from_int(rng.randint(-5, 5)) for _ in range(n)]
        else:
            u = [f.from_int(rng.randrange(f.p)) for _ in range(n)]
            v = [f.from_int(rng.randrange(f.p)) for _ in range(n)]
        E = Matrix(f, [[f.mul(a, b) for b in v] for a in u])
        T = _average_conjugates(rho, w, E)
        for lam in _field_eigenvalues(f, T):
            ker = kernel_basis(T - ident.scale(lam))
            if 0 < len(ker) < n:
                return ker
    return None


def complete_reducibility(rho: Representation, w: InvariantIntegral,
                          seed: int = 0, attempts: int = 12) -> list:
    """Split a representation into direct summands by repeated equivariant
    projection.

    Summands carry a certificate string: they are simple relative to this
    search (seeded random cyclic/eigenvector probing), which is exhaustive
    for the catalogued examples but not a simplicity proof.
    """
    if w.group != rho.monoid or w.field != rho.field:
        raise ValueError("integral does not match the representation")
    rng = random.Random(seed)
    f = rho.field
    cert = f"simple relative to search (seed={seed}, attempts={attempts})"

    def split(piece: Representation, embedding):
        if piece.dim == 0:
            return []
        found = _proper_invariant_subspace(piece, w, rng, attempts)
        if found is None:
            return [Summand(embedding, piece, cert)]
        # equivariant projector onto the found subspace
        _, head, _ = _adapted_basis(f, found, piece.dim)
        Q = _average_conjugates(piece, w, Matrix.from_columns(f, found) * head)
        if Q * Q != Q:
            raise RuntimeError("averaged projector failed to be idempotent")
        img = span_of(f, [Q.column(j) for j in range(piece.dim)],
                      piece.dim).basis()
        ker = kernel_basis(Q)
        out = []
        for part in (img, ker):
            sub = sub_rep(piece, part)
            emb = [_push(embedding, v, f) for v in part]
            out.extend(split(sub, emb))
        return out

    def _push(embedding, coords, field):
        # coords over the embedding basis -> ambient vector
        acc = [field.zero] * rho.dim
        for c, base in zip(coords, embedding):
            if c != field.zero:
                for t, x in enumerate(base):
                    acc[t] = field.add(acc[t], field.mul(c, x))
        return tuple(acc)

    ambient = [vbasis(f, rho.dim, i) for i in range(rho.dim)]
    return split(rho, ambient)


def assemble_summands(rho: Representation, summands) -> Matrix:
    """Base change whose columns are the summand bases; conjugating by it
    block-diagonalizes the action. Raises if the sum is not direct."""
    f = rho.field
    cols = [v for s in summands for v in s.embedding]
    B = Matrix.from_columns(f, cols)
    Binv = inverse(B)
    if Binv is None:
        raise ValueError("summands do not span: sum is not direct")
    for g in range(rho.monoid.size):
        conj = Binv * rho.action(g) * B
        offset = 0
        for s in summands:
            d = len(s.embedding)
            for i in range(rho.dim):
                for j in range(offset, offset + d):
                    inside = offset <= i < offset + d
                    if not inside and conj.entries[i][j] != f.zero:
                        raise ValueError("action is not block diagonal in "
                                         "the assembled basis")
            offset += d
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
        return inverse(self.basis) is not None and \
            m * self.basis == self.basis * self.companion


def _companion(field, poly) -> Matrix:
    n = polys.degree(poly)
    cols = []
    for j in range(n):
        if j < n - 1:
            cols.append(vbasis(field, n, j + 1))
        else:
            cols.append(tuple(field.neg(c) for c in poly[:-1]))
    return Matrix.from_columns(field, cols)


def _cyclic_generators(field, M: Matrix, q) -> list:
    """Cyclic decomposition of a space on which q(M) is nilpotent: returns
    (generator, exponent) pairs with the generator of maximal height first."""
    n = M.rows
    if n == 0:
        return []
    Qm = polys.eval_at_matrix(field, q, M)
    kernels = [span_of(field, [], n)]
    power = Matrix.identity(field, n)
    e = 0
    while kernels[-1].dim < n:
        power = power * Qm
        kernels.append(span_of(field, kernel_basis(power), n))
        e += 1
        if e > n:
            raise ValueError("q(M) is not nilpotent on this space")
    v = None
    for i in range(n):
        cand = vbasis(field, n, i)
        if not kernels[e - 1].contains(cand):
            v = cand
            break
    deg_q = polys.degree(q)
    block = deg_q * e
    cyc = [v]
    for _ in range(block - 1):
        cyc.append(M.apply(cyc[-1]))
    if block == n:  # the cyclic vectors are independent, so they span
        return [(v, e)]
    comp, _, quot_proj = _adapted_basis(field, cyc, n)
    quot_sect = Matrix.from_columns(field, comp)
    rest = _cyclic_generators(field, quot_proj * M * quot_sect, q)
    # lift each generator w of the quotient and subtract the u in the cyclic
    # span with q(M)^s u = q(M)^s w; one solve per distinct exponent s
    Cmat = Matrix.from_columns(field, cyc)
    lifts = [quot_sect.apply(wbar) for wbar, _ in rest]
    fixed = {}
    for s in sorted({s for _, s in rest}):
        P = Matrix.identity(field, n)
        for _ in range(s):
            P = P * Qm
        idx = [i for i, (_, t) in enumerate(rest) if t == s]
        coords = solve_many(P * Cmat, [P.apply(lifts[i]) for i in idx])
        if coords is None:
            raise RuntimeError("cyclic correction system is inconsistent")
        for i, x in zip(idx, coords):
            fixed[i] = vsub(field, lifts[i], Cmat.apply(x))
    return [(v, e)] + [(fixed[i], s) for i, (_, s) in enumerate(rest)]


def decompose_rep_of_Z(m: Matrix) -> ZRepDecomposition:
    """Primary decomposition of the F_p[x]-module defined by an invertible
    matrix: factor the characteristic polynomial by exhaustive trial over
    monic irreducibles, split into primary components, then into cyclic
    blocks with explicit companion form and base change."""
    f = m.field
    if f.p is None:
        raise ValueError("decomposition implemented over prime fields")
    n = m.rows
    if m.cols != n:
        raise ValueError("square matrix required")
    if rank(m) != n:
        raise ValueError("singular matrix: not a representation of Z")
    cp = polys.char_poly(m)
    factors = polys.factor_monic_fp(f, cp)
    blocks = []
    for q in sorted(factors):
        a = factors[q]
        qa = (f.one,)
        for _ in range(a):
            qa = polys.mul(f, qa, q)
        comp_basis = kernel_basis(polys.eval_at_matrix(f, qa, m))
        if len(comp_basis) != polys.degree(q) * a:
            raise RuntimeError("primary component has unexpected dimension")
        # restrict m to the primary component
        proj_cols = Matrix.from_columns(f, comp_basis)
        restricted = solve_many(proj_cols, [m.apply(v) for v in comp_basis])
        if restricted is None:
            raise RuntimeError("primary component is not invariant")
        Mq = Matrix.from_columns(f, restricted)
        for gen, e in _cyclic_generators(f, Mq, q):
            ambient = proj_cols.apply(gen)
            blocks.append(CyclicBlock(q, e, ambient))
    blocks.sort(key=lambda b: (polys.degree(b.poly), b.poly, -b.exponent))
    cols = []
    comp_blocks = []
    for b in blocks:
        size = polys.degree(b.poly) * b.exponent
        vec = b.generator
        for _ in range(size):
            cols.append(vec)
            vec = m.apply(vec)
        qe = (f.one,)
        for _ in range(b.exponent):
            qe = polys.mul(f, qe, b.poly)
        comp_blocks.append(_companion(f, qe))
    basis = Matrix.from_columns(f, cols)
    total = sum(c.rows for c in comp_blocks)
    rows = []
    off = 0
    for c in comp_blocks:
        for r in c.entries:
            rows.append((f.zero,) * off + tuple(r)
                        + (f.zero,) * (total - off - c.cols))
        off += c.rows
    companion = Matrix(f, rows)
    summary = {}
    for b in blocks:
        key = (b.poly, b.exponent)
        summary[key] = summary.get(key, 0) + 1
    summary_list = [(q, e, mult) for (q, e), mult in sorted(summary.items())]
    out = ZRepDecomposition(f, blocks, basis, companion, summary_list)
    if not out.verify(m):
        raise RuntimeError("reassembled companion form is not similar to "
                           "the input")
    return out


# -- the truncated formal-matrix integral ---------------------------------------

def _monomials_up_to(nvars: int, bound: int) -> list:
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, bound)
    out.sort(key=lambda m: (sum(m), m))
    return out


def formal_matrix_integral(n: int, N: int, F: FieldSpec) -> Report:
    """Truncated coalgebra of the formal-matrix semigroup and its dual
    convolution algebra; checks that evaluation at the zero matrix absorbs:
    a * delta_0 = a(1) delta_0 = delta_0 * a for every dual basis vector.
    """
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    nv = n * n
    monos = _monomials_up_to(nv, N)
    index = {mo: i for i, mo in enumerate(monos)}
    f = F

    def comult(mono):
        """Delta of a monomial in the matrix coproduct, as {(mL, mR): c}."""
        acc = {((0,) * nv, (0,) * nv): f.one}
        for var, exp in enumerate(mono):
            i, j = divmod(var, n)
            for _ in range(exp):
                nxt = {}
                for (ml, mr), c in acc.items():
                    for l in range(n):
                        vl = i * n + l
                        vr = l * n + j
                        ml2 = list(ml)
                        ml2[vl] += 1
                        mr2 = list(mr)
                        mr2[vr] += 1
                        key = (tuple(ml2), tuple(mr2))
                        nxt[key] = f.add(nxt.get(key, f.zero), c)
                acc = nxt
        return acc

    delta = {mono: comult(mono) for mono in monos}
    unit_mono = (0,) * nv
    rep = Report(f"formal-matrix integral (n={n}, order {N}, "
                 f"{F.describe()})")

    # delta_mu * delta_0 over the dual basis: kappa-coefficient is the
    # (mu, unit)-coefficient of Delta(kappa)
    ok_right = ok_left = True
    for mu in monos:
        pair_value = f.one if mu == unit_mono else f.zero  # a(1)
        for kappa in monos:
            right = delta[kappa].get((mu, unit_mono), f.zero)
            left = delta[kappa].get((unit_mono, mu), f.zero)
            want = f.mul(pair_value, f.one if kappa == unit_mono else f.zero)
            if right != want:
                ok_right = False
                rep.add("a * delta_0 = a(1) delta_0", False,
                        f"a = dual of {mu}, at {kappa}")
            if left != want:
                ok_left = False
                rep.add("delta_0 * a = a(1) delta_0", False,
                        f"a = dual of {mu}, at {kappa}")
    if ok_right:
        rep.add("a * delta_0 = a(1) delta_0", True)
    if ok_left:
        rep.add("delta_0 * a = a(1) delta_0", True)
    rep.add("delta_0 is idempotent",
            delta[unit_mono].get((unit_mono, unit_mono)) == f.one)
    rep.add("dual basis size", len(monos) == len(index),
            f"{len(monos)} functionals")
    return rep
