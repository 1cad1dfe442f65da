"""Reconstruction of algebras from modules: annihilator quotients, recovery
of the monoid algebra from its regular representation, and recovery of the
coproduct from tensor products of representations."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .bialgebra import (BialgebraMorphism, FinBialgebra, check_morphism,
                        same_algebra)
from .exact import (FieldSpec, Matrix, kron, lincomb, rank, rref, solve_many,
                    stack)
from .monoids import FiniteMonoid, monoid_algebra
from .report import Report
from .reps import AlgebraModule, Representation, rep_to_module


@dataclass
class ReconstructionResult:
    """Quotient of an algebra by the annihilator of a module.

    ``algebra`` is the image of the action map with its induced product
    (coalgebra data absent); ``quotient_map`` sends the ambient algebra
    onto it; ``faithful_action`` is the induced module, faithful by
    construction. ``degenerate`` flags the zero module.
    """
    algebra: FinBialgebra
    quotient_map: Matrix
    faithful_action: AlgebraModule
    degenerate: bool


def _flat_columns(mats) -> Matrix:
    """The matrix whose j-th column lists the entries of mats[j] row by
    row."""
    return stack([m.reshape(1, m.rows * m.cols) for m in mats]).transpose()


def _pivot_entries(basis_mats) -> list:
    """Positions (r, c) at which every element of the span of the
    linearly independent ``basis_mats`` is fixed by its entries: the
    pivot columns of the echelon form of the flattened matrices, taken as
    rows. There is one per matrix."""
    cols = basis_mats[0].cols
    ech = rref(stack([m.reshape(1, m.rows * cols) for m in basis_mats]))
    return [divmod(c, cols) for c in ech.pivots]


def annihilator_quotient(A: FinBialgebra, X: AlgebraModule) -> ReconstructionResult:
    """A / Ann(X), realized as the span V of the action images inside the
    endomorphism algebra of X, with the induced product.

    The basis of V is the images of the pivot basis elements of A. An
    element of V is fixed by its entries at q = dim V positions
    (:func:`_pivot_entries`), so each product of two basis matrices is
    computed at those positions only, each entry from the nonzeros of the
    left factor's row, and its coordinates, with those of the identity,
    come from one q x q system.

    Those coordinates are the product's when the product lies in V, so V
    must be a subalgebra of End(X) with I in it. When X is certified and
    A satisfies its algebra laws, that is known: the action A -> End(X) is
    then a map of unital algebras, and V is its image. Otherwise it is
    checked, not assumed: ``AlgebraModule(AX, ..., validate=True)`` checks
    phi(1) = I and phi(s) phi(b) = phi(s b) for every s in the generating
    set S of A_X and every basis element b. So I lies in V and phi(s) V
    lies in V. A_X is spanned by left words in S, and phi takes each to
    the product of the matrices phi(s), so V is spanned by such products
    and holds all of them: V is the subalgebra of End(X) that phi(S)
    generates. Either way every product of V lies in V and agrees with phi
    of the computed product at the pivot positions, hence everywhere: phi
    is an isomorphism of algebras onto V, so A_X is associative with its
    unit and V is a module over it, which is recorded on both. An X that
    is not a module fails the check with ``ValueError``."""
    if not same_algebra(X.algebra, A):
        raise ValueError("module is not over the given algebra")
    f = A.field
    if X.dim == 0:
        zero_alg = FinBialgebra(f, 0, (), {}, ())
        qmap = Matrix.zero(f, 0, A.dim)
        # the zero module: its validation passes at once, and certifies it
        return ReconstructionResult(zero_alg, qmap,
                                    AlgebraModule(zero_alg, []),
                                    degenerate=True)
    # basis of the image: pivot columns of the basis-wise action images; in
    # reduced form the entries of column i are its coordinates over them
    ech = rref(_flat_columns(X.matrices))
    pivots = ech.pivots
    dim_q = len(pivots)
    basis_mats = [X.matrices[p] for p in pivots]
    qmap = Matrix(f, ech.reduced.entries[:dim_q], cols=A.dim)
    # the basis as int rows over one denominator d, each row's nonzeros
    d = lcm(*[m.den for m in basis_mats])
    ints = [[[x * (d // m.den) for x in row] for row in m.ints]
            for m in basis_mats]
    entries = _pivot_entries(basis_mats)
    # d * (basis matrix), and d^2 * (product of two, identity last), at the
    # pivot positions; (a b)[r][c] adds up the column c of every b, read
    # as one q-vector per row t, over the nonzeros a[r][t]
    system = Matrix(f, [[m[r][c] for m in ints] for r, c in entries])
    d2 = d * d
    zero = [0] * dim_q
    rhs_rows = []
    for r, c in entries:
        column = [[b[t][c] for b in ints] for t in range(X.dim)]
        row = []
        for a in ints:
            acc = zero
            for t, x in enumerate(a[r]):
                if x:
                    acc = [s + x * y for s, y in zip(acc, column[t])]
            row.extend(acc)
        row.append(d2 if r == c else 0)
        rhs_rows.append(row)
    rhs = Matrix(f, rhs_rows)
    if d > 1:
        rhs = rhs.scale(Fraction(1, d))
    *products, unit = solve_many(system, rhs).transpose().entries
    mult = {}
    for ij, prod in enumerate(products):
        for k, c in enumerate(prod):
            if c != f.zero:
                mult[divmod(ij, dim_q) + (k,)] = c
    names = tuple(f"[{A.name_of(p)}]" for p in pivots)
    AX = FinBialgebra(f, dim_q, names, mult, unit)
    known = X.certified and A.algebra_laws
    action = AlgebraModule(AX, basis_mats, validate=not known)
    action.certified = True
    AX.algebra_laws = True
    # faithfulness: the basis matrices are linearly independent by choice
    # of pivots, so only 0 acts as 0; double-check the kernel dimensions.
    ann_dim = A.dim - dim_q
    ann = ech.kernel()
    if len(ann) != ann_dim:
        raise RuntimeError("annihilator dimension mismatch")
    for v in ann:
        if not X.act(v).is_zero():
            raise RuntimeError("annihilator vector acts nontrivially")
    return ReconstructionResult(AX, qmap, action, degenerate=False)


def reconstruct_from_regular(G: FiniteMonoid, F: FieldSpec) -> Report:
    """Reconstruct the monoid algebra from its own regular representation
    and verify the canonical comparison is the identity on structure
    constants."""
    rep = Report(f"reconstruction of R[{G!r}] from the regular module")
    A = monoid_algebra(G, F)
    reg = rep_to_module(Representation.regular(G, F))
    result = annihilator_quotient(A, reg)
    rep.add("annihilator is zero", result.algebra.dim == A.dim,
            f"dim {result.algebra.dim} vs {A.dim}")
    morph = check_morphism(
        BialgebraMorphism(A, result.algebra, result.quotient_map),
        kind="algebra")
    rep.extend(morph, prefix="canonical map: ")
    # the quotient map is the top rows of a reduced form of full row rank,
    # so with as many rows as columns it is the identity
    rep.add("canonical map is bijective", result.algebra.dim == A.dim)
    if result.algebra.dim == A.dim:
        ident = Matrix.identity(F, A.dim)
        rep.add("canonical basis matches (quotient map is the identity)",
                result.quotient_map == ident)
        rep.add("structure constants agree", result.algebra.mult == A.mult
                and result.algebra.unit == A.unit)
    return rep


def tensor_coproduct_recovery(G: FiniteMonoid, reps) -> Report:
    """For each pair of representations, compare the diagonal action on the
    tensor product with the action computed through the coproduct of the
    monoid algebra, entry by entry, on the generators of G."""
    report = Report(f"tensor products via the coproduct for {G!r}")
    reps = list(reps)
    if not reps:
        report.add("no representations supplied", True)
        return report
    F = reps[0].field
    if any(X.monoid != G or X.field != F for X in reps):
        raise ValueError("tensor needs representations of one monoid over "
                         "one field")
    A = monoid_algebra(G, F)
    # g -> X(g) (x) Y(g) and g -> sum c X(i) (x) Y(j) over Delta(g) are both
    # monoid maps (Delta is multiplicative), so they agree on all of G once
    # they agree on its generators
    for a_idx, X in enumerate(reps):
        for b_idx, Y in enumerate(reps):
            # each Kronecker product once: X(s) (x) Y(s) is also the term
            # of Delta(s) = s (x) s
            kr = cache(lambda i, j: kron(X.action(i), Y.action(j)))
            n = X.dim * Y.dim
            bad = next((s for s in G.generators if kr(s, s) != lincomb(
                F, n, n, ((c, kr(i, j)) for (i, j), c
                          in A.comult_basis(s).items()))), None)
            if bad is None:
                report.add(f"pair ({a_idx},{b_idx}) diagonal action = "
                           "coproduct action", True)
            else:
                report.add(f"pair ({a_idx},{b_idx})", False,
                           f"element {G.names[bad]}")
    return report


def image_span_dimension(X: Representation) -> int:
    """Dimension of the span of the action matrices inside End(X); equals
    the dimension of the reconstructed algebra."""
    return rank(_flat_columns(X.matrices))
