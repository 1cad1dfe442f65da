"""Reconstruction of algebras from modules: annihilator quotients, recovery
of the monoid algebra from its regular representation, and recovery of the
coproduct from tensor products of representations."""

from __future__ import annotations

from dataclasses import dataclass

from .bialgebra import BialgebraMorphism, FinBialgebra, check_morphism
from .exact import (FieldSpec, Matrix, Span, inverse, kernel_basis, kron,
                    lincomb, rref, solve, solve_many)
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


def _flatten(m: Matrix) -> tuple:
    return tuple(x for row in m.entries for x in row)


def annihilator_quotient(A: FinBialgebra, X: AlgebraModule) -> ReconstructionResult:
    """A / Ann(X), realized as the span of the action images inside the
    endomorphism algebra of X, with the induced product."""
    if X.algebra is not A:
        if X.algebra.mult != A.mult or X.algebra.unit != A.unit or \
                X.algebra.field != A.field:
            raise ValueError("module is not over the given algebra")
    f = A.field
    flat = [_flatten(m) for m in X.matrices]
    if X.dim == 0:
        zero_alg = FinBialgebra(f, 0, (), {}, (), has_bialgebra=False)
        qmap = Matrix.zero(f, 0, A.dim)
        return ReconstructionResult(zero_alg, qmap,
                                    AlgebraModule(zero_alg, [], validate=False),
                                    degenerate=True)
    # basis of the image: pivot columns of the basis-wise action images; in
    # reduced form the entries of column i are its coordinates over them
    image_cols = Matrix.from_columns(f, flat)
    ech = rref(image_cols)
    pivots = ech.pivots
    dim_q = len(pivots)
    basis_mats = [X.matrices[p] for p in pivots]
    basis_flat = Matrix.from_columns(f, [flat[p] for p in pivots])
    qmap = Matrix(f, ech.reduced.entries[:dim_q], cols=A.dim)
    # induced product and unit on the image basis, from one elimination
    ident = _flatten(Matrix.identity(f, X.dim))
    coords = solve_many(basis_flat,
                        [_flatten(a * b) for a in basis_mats for b in basis_mats]
                        + [ident])
    if coords is None:
        if solve(basis_flat, ident) is None:
            raise RuntimeError("identity action is outside the image span")
        raise RuntimeError("image span is not closed under products")
    *products, unit = coords
    mult = {}
    for ij, prod in enumerate(products):
        for k, c in enumerate(prod):
            if c != f.zero:
                mult[divmod(ij, dim_q) + (k,)] = c
    names = tuple(f"[{A.name_of(p)}]" for p in pivots)
    AX = FinBialgebra(f, dim_q, names, mult, unit, has_bialgebra=False)
    action = AlgebraModule(AX, basis_mats, validate=True)
    # faithfulness: the basis matrices are linearly independent by choice
    # of pivots, so only 0 acts as 0; double-check the kernel dimensions.
    ann_dim = A.dim - dim_q
    ann = kernel_basis(image_cols)
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
    rep.add("canonical map is bijective",
            result.algebra.dim == A.dim
            and inverse(result.quotient_map) is not None)
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
    monoid algebra, entry by entry."""
    report = Report(f"tensor products via the coproduct for {G!r}")
    reps = list(reps)
    if not reps:
        report.add("no representations supplied", True)
        return report
    F = reps[0].field
    A = monoid_algebra(G, F)
    f = F
    for a_idx, X in enumerate(reps):
        for b_idx, Y in enumerate(reps):
            XY = Representation.tensor(X, Y)
            ok = True
            for g in range(G.size):
                lhs = XY.action(g)
                rhs = lincomb(f, XY.dim, XY.dim,
                              ((c, kron(X.action(i), Y.action(j)))
                               for (i, j), c in A.comult_basis(g).items()))
                if lhs != rhs:
                    ok = False
                    report.add(f"pair ({a_idx},{b_idx})", False,
                               f"element {G.names[g]}")
                    break
            if ok:
                report.add(f"pair ({a_idx},{b_idx}) diagonal action = "
                           "coproduct action", True)
    return report


def image_span_dimension(X: Representation) -> int:
    """Dimension of the span of the action matrices inside End(X); equals
    the dimension of the reconstructed algebra."""
    f = X.field
    sp = Span(f, X.dim * X.dim)
    for m in X.matrices:
        sp.add(_flatten(m))
    return sp.dim
