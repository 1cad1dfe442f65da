"""Reconstruction of algebras from modules: annihilator quotients, recovery
of the monoid algebra from its regular representation, and recovery of the
coproduct from tensor products of representations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm

from .bialgebra import (BialgebraMorphism, FinBialgebra, check_morphism,
                        same_algebra)
from .exact import FieldSpec, Matrix, Span, solve_many
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


def _image_span(field: FieldSpec, n: int, mats) -> tuple:
    """(span, indices): the span of the n x n matrices mats, each read row
    by row as one vector of width n^2 and added in order, and the indices
    of the mats that enlarged it. Those are the column pivots of the
    matrix whose columns are the flattened mats (greedy independence in
    order), and the span's pivot columns are those of the reduced echelon
    form of the row space, which is unique. A matrix is added as its int
    rows, a multiple of it, which decides the same."""
    span = Span(field, n * n)
    return span, [a for a, m in enumerate(mats)
                  if span.add(list(chain.from_iterable(m.ints)))]


def annihilator_quotient(A: FinBialgebra, X: AlgebraModule) -> ReconstructionResult:
    """A / Ann(X), realized as the span V of the action images inside the
    endomorphism algebra of X, with the induced product.

    One span of the flattened images X(e_a), added in basis order, gives
    the basis of V, the images that enlarge it, and its pivot columns, q =
    dim V positions at which an element of V is fixed by its entries
    (:func:`_image_span`). Each product of two basis matrices is computed
    at those positions only, each entry from the nonzeros of the left
    factor's row, and its coordinates, with those of the identity and of
    every X(e_a), come from one q x q system. Column a of
    ``quotient_map`` is the coordinates of X(e_a).

    The quotient is faithful by construction: X(e_a) less the combination
    of the basis that column a of ``quotient_map`` gives lies in V and
    vanishes at every position, hence is 0. So X(v) is the combination at
    ``quotient_map`` v, and Ann(X) is the kernel of ``quotient_map``, of
    dimension dim A - q.

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
    span, pivots = _image_span(f, X.dim, X.matrices)
    dim_q = len(pivots)
    basis_mats = [X.matrices[p] for p in pivots]
    entries = [divmod(c, X.dim) for c in span.pivots]
    # the basis as int rows over one denominator d, each row's nonzeros
    d = lcm(*[m.den for m in basis_mats])
    ints = [[[x * (d // m.den) for x in row] for row in m.ints]
            for m in basis_mats]
    # d^2 times, at the pivot positions: each basis matrix, the product of
    # two (then the identity and every X(e_a)); (a b)[r][c] adds up the
    # column c of every b, read as one q-vector per row t, over the
    # nonzeros a[r][t]
    d2 = d * d
    system = Matrix(f, [[d * m[r][c] for m in ints] for r, c in entries])
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
        row.extend(m.entries[r][c] * d2 for m in X.matrices)
        rhs_rows.append(row)
    coords = solve_many(system, Matrix(f, rhs_rows))
    *products, unit = coords.transpose().entries[:dim_q * dim_q + 1]
    qmap = Matrix(f, [row[dim_q * dim_q + 1:] for row in coords.entries],
                  cols=A.dim)
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
    # the quotient map has rank dim A_X, and with dim A_X = dim A every
    # basis element is a pivot, whose column is its unit vector
    rep.add("canonical map is bijective", result.algebra.dim == A.dim)
    if result.algebra.dim == A.dim:
        ident = Matrix.identity(F, A.dim)
        rep.add("canonical basis matches (quotient map is the identity)",
                result.quotient_map == ident)
        rep.add("structure constants agree", result.algebra.mult == A.mult
                and result.algebra.unit == A.unit)
    return rep


def tensor_coproduct_recovery(G: FiniteMonoid, reps) -> Report:
    """For each ordered pair of representations X, Y, the action of the
    monoid algebra on X (x) Y through its coproduct against the diagonal
    action. Every g in G is grouplike in the monoid algebra, Delta(g) =
    g (x) g, so through the coproduct g acts as X(g) (x) Y(g), which is
    the diagonal action by definition: the check is the grouplike law and
    passes for every pair."""
    report = Report(f"tensor products via the coproduct for {G!r}")
    reps = list(reps)
    if not reps:
        report.add("no representations supplied", True)
        return report
    F = reps[0].field
    if any(X.monoid != G or X.field != F for X in reps):
        raise ValueError("tensor needs representations of one monoid over "
                         "one field")
    for a_idx in range(len(reps)):
        for b_idx in range(len(reps)):
            report.add(f"pair ({a_idx},{b_idx}) diagonal action = "
                       "coproduct action", True)
    return report


def image_span_dimension(X: Representation) -> int:
    """Dimension of the span of the action matrices inside End(X); equals
    the dimension of the reconstructed algebra."""
    return _image_span(X.field, X.dim, X.matrices)[0].dim
