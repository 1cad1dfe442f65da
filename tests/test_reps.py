import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from conftest import (random_invariant_subspace, random_invertible, rng_for,
                      s3_catalogue, seeded_module)
from hopfdual import cli, polys, reps
from hopfdual.exact import (FieldSpec, Matrix, inverse, kron, rank, span_of,
                            vbasis)
from hopfdual.monoids import (BudgetExceeded, Character, FiniteMonoid,
                             monoid_algebra)
from hopfdual.reps import (AlgebraModule, CharDividesOrder, NotAGroup,
                           NotASection, RepMorphism, Representation,
                           assemble_summands, check_invariant_exactness,
                           complete_reducibility, decompose_rep_of_Z,
                           equivariant_section, formal_matrix_integral,
                           hom_dim_modules, hom_dim_reps, integral_system,
                           invariant_integral, invariants, module_to_rep,
                           quotient_rep, rep_to_module, reynolds,
                           split_group_algebra, sub_rep, twist_by_character)
from hopfdual.reps import _field_eigenvalues

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
F31 = FieldSpec.prime(31)
F101 = FieldSpec.prime(101)

Z2 = FiniteMonoid.cyclic(2)
Z3 = FiniteMonoid.cyclic(3)
S3 = FiniteMonoid.symmetric(3)
D4 = FiniteMonoid.dihedral(4)
S3xS3 = FiniteMonoid.direct_product(S3, S3)
Z3xZ3 = FiniteMonoid.direct_product(Z3, Z3)
D4xZ2 = FiniteMonoid.direct_product(D4, Z2)
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"


def quaternion_group() -> FiniteMonoid:
    """Q8: element 4s + u is (-1)^s times the unit u of 1, i, j, k."""
    # u v = sign * unit, for the units u, v of 1, i, j, k
    units = [[(1, 0), (1, 1), (1, 2), (1, 3)],
             [(1, 1), (-1, 0), (1, 3), (-1, 2)],
             [(1, 2), (-1, 3), (-1, 0), (1, 1)],
             [(1, 3), (1, 2), (-1, 1), (-1, 0)]]

    def mul(x, y):
        (sx, ux), (sy, uy) = divmod(x, 4), divmod(y, 4)
        sign, u = units[ux][uy]
        return 4 * ((sx + sy + (sign < 0)) % 2) + u

    names = [s + u for s in ("", "-") for u in ("1", "i", "j", "k")]
    return FiniteMonoid(names, [[mul(x, y) for y in range(8)]
                                for x in range(8)], 0)


Q8 = quaternion_group()


def swap_rep(field=Q):
    return Representation(Z2, field, [Matrix.identity(field, 2),
                                      Matrix.from_int_rows(field,
                                                           [[0, 1], [1, 0]])])


class TestRepresentation:
    def test_validation_catches_non_action(self):
        with pytest.raises(ValueError):
            Representation(Z2, Q, [Matrix.identity(Q, 1),
                                   Matrix(Q, [[Q.from_int(2)]])])

    def test_regular_is_left_translation(self):
        reg = Representation.regular(Z3, Q)
        g = reg.action(1)
        assert g.apply((Q.one, Q.zero, Q.zero)) == (Q.zero, Q.one, Q.zero)

    def test_module_round_trip(self):
        _, _, _, std, _ = s3_catalogue(Q)
        mod = rep_to_module(std)
        back = module_to_rep(mod, S3)
        assert back.matrices == std.matrices

    def test_module_validation(self):
        A = monoid_algebra(Z2, Q)
        with pytest.raises(ValueError, match="module law"):
            AlgebraModule(A, [Matrix.identity(Q, 1),
                              Matrix(Q, [[Q.from_int(3)]])])

    def test_hom_dims_agree_both_ways(self):
        S3_, triv, sign, std, reg = s3_catalogue(Q)
        for a in (triv, sign, std):
            for b in (triv, sign, std, reg):
                assert hom_dim_reps(a, b) == hom_dim_modules(
                    rep_to_module(a), rep_to_module(b))

    def test_hom_dims_regular_catalogue(self):
        # Hom(X, regular) has the dimension of X for a group algebra
        _, triv, sign, std, reg = s3_catalogue(Q)
        assert hom_dim_reps(triv, reg) == 1
        assert hom_dim_reps(std, reg) == 2
        assert hom_dim_reps(triv, sign) == 0

    def test_hom_dims_reject_mismatched_inputs(self):
        a = Representation.regular(Z2, Q)
        b = Representation.regular(Z3, Q)
        with pytest.raises(ValueError, match="one monoid"):
            hom_dim_reps(a, b)
        with pytest.raises(ValueError, match="one monoid"):
            hom_dim_reps(a, Representation.regular(Z2, F5))
        with pytest.raises(ValueError, match="one algebra"):
            hom_dim_modules(rep_to_module(a), rep_to_module(b))
        with pytest.raises(ValueError, match="one algebra"):
            hom_dim_modules(rep_to_module(a),
                            rep_to_module(Representation.regular(Z2, F5)))
        # one algebra built twice is still one algebra
        assert hom_dim_modules(rep_to_module(a), rep_to_module(a)) == 2

    def test_hom_dims_s3_table(self):
        # Schur's lemma on the irreducibles; each occurs in the regular
        # module as often as its dimension, and End(regular) = QS3
        _, triv, sign, std, reg = s3_catalogue(Q)
        reps = (triv, sign, std, reg)
        assert [[hom_dim_reps(a, b) for b in reps] for a in reps] == [
            [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 2], [1, 1, 2, 6]]


def witness(G, message):
    """The pair (s, h) named by a validation failure."""
    s, h = re.match(r"action\((.+)\)\*action\((.+)\) disagrees",
                    message).groups()
    return G.index_of(s), G.index_of(h)


def generated(G, gens):
    """Elements reached from the unit by left multiplication by gens."""
    reached, todo = {G.unit}, [G.unit]
    while todo:
        x = todo.pop()
        for s in gens:
            if G.table[s][x] not in reached:
                reached.add(G.table[s][x])
                todo.append(G.table[s][x])
    return reached


BOOL = FiniteMonoid.bool_and()
VALIDATED_MONOIDS = (Z2, Z3, S3, FiniteMonoid.cyclic(4), BOOL,
                     FiniteMonoid.direct_product(BOOL, Z2),
                     FiniteMonoid.direct_product(Z2, BOOL))


class TestGeneratingSetValidation:
    def test_generating_sets(self):
        Z3xZ3 = FiniteMonoid.direct_product(Z3, Z3)
        assert S3.generators == (S3.index_of("021"), S3.index_of("102"))
        assert D4.generators == (D4.index_of("r1"), D4.index_of("s0"))
        assert len(Z3xZ3.generators) == 2
        assert BOOL.generators == (BOOL.index_of("0"),)
        assert FiniteMonoid.trivial().generators == ()
        for G in VALIDATED_MONOIDS + (D4, Z3xZ3):
            assert generated(G, G.generators) == set(range(G.size))

    def test_wrong_matrix_at_a_non_generator_is_rejected(self):
        _, _, _, std, _ = s3_catalogue(Q)
        bad = S3.index_of("210")
        assert bad not in S3.generators
        mats = list(std.matrices)
        mats[bad] = mats[bad].scale(Q.from_int(2))
        with pytest.raises(ValueError, match="disagrees") as exc:
            Representation(S3, Q, mats)
        s, h = witness(S3, str(exc.value))
        assert s in S3.generators
        assert bad in (h, S3.table[s][h])
        assert mats[s] * mats[h] != mats[S3.table[s][h]]

    def test_non_group_monoid(self):
        zero = BOOL.index_of("0")
        ident = Matrix.identity(Q, 2)
        proj = Matrix.from_int_rows(Q, [[1, 0], [0, 0]])
        mats = [None, None]
        mats[BOOL.unit], mats[zero] = ident, proj
        assert Representation(BOOL, Q, mats).action(zero) == proj
        # 0 must act idempotently; only the pair (0, 0) can see that
        mats[zero] = Matrix.from_int_rows(Q, [[2, 0], [0, 0]])
        with pytest.raises(ValueError, match=r"action\(0\)\*action\(0\)"):
            Representation(BOOL, Q, mats)
        mats[BOOL.unit], mats[zero] = proj, ident
        with pytest.raises(ValueError, match="unit"):
            Representation(BOOL, Q, mats)


def unitriangular(field, n, draw):
    return Matrix(field, [[field.one if i == j else
                           field.from_int(draw(st.integers(-2, 2))) if i < j
                           else field.zero for j in range(n)]
                          for i in range(n)])


@st.composite
def perturbed_modules(draw):
    """A monoid, a field and action matrices: a conjugated regular module,
    plus a trivial line sometimes, then perturbed or not."""
    G = draw(st.sampled_from(VALIDATED_MONOIDS))
    field = draw(st.sampled_from((Q, F2, F3, F5)))
    rho = Representation.regular(G, field)
    if draw(st.booleans()):
        rho = Representation.direct_sum(rho, Representation.trivial(G, field))
    rho = rho.conjugate(unitriangular(field, rho.dim, draw))
    mats = list(rho.matrices)
    elements = st.integers(0, G.size - 1)
    kind = draw(st.sampled_from(("none", "entry", "swap", "identity",
                                 "conjugate some", "scale")))
    if kind == "entry":
        g, i, j = draw(elements), draw(st.integers(0, rho.dim - 1)), \
            draw(st.integers(0, rho.dim - 1))
        rows = [list(row) for row in mats[g].entries]
        rows[i][j] = field.add(rows[i][j], field.one)
        mats[g] = Matrix(field, rows)
    elif kind == "swap":
        g, h = draw(elements), draw(elements)
        mats[g], mats[h] = mats[h], mats[g]
    elif kind == "identity":
        mats[draw(elements)] = Matrix.identity(field, rho.dim)
    elif kind == "conjugate some":
        q = unitriangular(field, rho.dim, draw)
        q_inv = inverse(q)
        for g in draw(st.sets(elements)):
            mats[g] = q * mats[g] * q_inv
    elif kind == "scale":
        g = draw(elements)
        mats[g] = mats[g].scale(field.from_int(draw(st.integers(-1, 2))))
    return G, field, mats


@given(perturbed_modules())
@settings(max_examples=150, deadline=None)
def test_generating_set_check_rejects_what_the_full_table_rejects(case):
    G, field, mats = case
    n = mats[0].rows
    full_table_ok = ref.equal(mats[G.unit], Matrix.identity(field, n)) and all(
        ref.equal(ref.matmul(mats[i], mats[j]), mats[G.table[i][j]])
        for i in range(G.size) for j in range(G.size))
    try:
        Representation(G, field, mats)
    except ValueError as exc:
        assert not full_table_ok
        if "disagrees" in str(exc):
            s, h = witness(G, str(exc))
            assert s in G.generators
            assert not ref.equal(ref.matmul(mats[s], mats[h]),
                                 mats[G.table[s][h]])
    else:
        assert full_table_ok


class TestInvariants:
    def test_swap(self):
        inv = invariants(swap_rep())
        assert inv == [(Fraction(1), Fraction(1))]

    def test_trivial_rep_everything(self):
        rho = Representation.trivial(S3, Q, 3)
        assert len(invariants(rho)) == 3

    def test_regular_s3_line(self):
        inv = invariants(Representation.regular(S3, Q))
        assert len(inv) == 1
        (v,) = inv
        assert len(set(v)) == 1  # the all-ones direction


class TestIntegral:
    def test_z2(self):
        w = invariant_integral(Z2, Q)
        assert w.vector == (Fraction(1, 2), Fraction(1, 2))

    def test_trivial_group(self):
        w = invariant_integral(FiniteMonoid.trivial(), Q)
        assert w.vector == (Q.one,)

    def test_char_divides_order(self):
        with pytest.raises(CharDividesOrder):
            invariant_integral(S3, F3)
        with pytest.raises(CharDividesOrder):
            invariant_integral(Z2, F2)

    def test_not_a_group(self):
        with pytest.raises(NotAGroup):
            invariant_integral(FiniteMonoid.bool_and(), Q)

    def test_generic_solver_on_bool_monoid(self):
        # the absorbing element is the unique two-sided integral
        w, unique = integral_system(FiniteMonoid.bool_and(), Q)
        assert w == (Q.zero, Q.one) and unique

    # 7 and 101 divide none of these orders, so every pair has an integral
    @pytest.mark.parametrize("field", (Q, F7, F101), ids=("Q", "F7", "F101"))
    @pytest.mark.parametrize("G", (Z3, S3, D4, S3xS3, Z3xZ3, Q8, D4xZ2),
                             ids=("Z3", "S3", "D4", "S3xS3", "Z3xZ3", "Q8",
                                  "D4xZ2"))
    def test_solver_agrees_with_averaging(self, field, G):
        w, unique = integral_system(G, field)
        assert unique
        assert w == invariant_integral(G, field).vector


class TestReynolds:
    def test_swap_projector(self):
        w = invariant_integral(Z2, Q)
        split = reynolds(swap_rep(), w)
        half = Fraction(1, 2)
        assert split.projector.entries == ((half, half), (half, half))

    def test_trivial_action_identity(self):
        w = invariant_integral(Z2, Q)
        rho = Representation.trivial(Z2, Q, 3)
        assert reynolds(rho, w).projector == Matrix.identity(Q, 3)

    def test_regular_s3_rank_one(self):
        w = invariant_integral(S3, Q)
        split = reynolds(Representation.regular(S3, Q), w)
        assert len(split.invariant_basis) == 1
        assert len(split.complement_basis) == 5

    def test_group_mismatch(self):
        w = invariant_integral(Z3, Q)
        with pytest.raises(ValueError):
            reynolds(swap_rep(), w)


class TestSplitGroupAlgebra:
    def test_z2(self):
        split = split_group_algebra(Z2, Q)
        assert split.report.passed
        sp = span_of(Q, split.ideal_basis, 2)
        assert sp.contains((Fraction(1, 2), Fraction(-1, 2)))

    def test_trivial(self):
        split = split_group_algebra(FiniteMonoid.trivial(), Q)
        assert split.report.passed and split.ideal_basis == []

    def test_s3_ideal_dim_5(self):
        split = split_group_algebra(S3, Q)
        assert split.report.passed
        assert len(split.ideal_basis) == 5


class TestEquivariantSection:
    def test_identity(self):
        w = invariant_integral(Z2, Q)
        rho = swap_rep()
        pi = RepMorphism(rho, rho, Matrix.identity(Q, 2))
        s = equivariant_section(pi, Matrix.identity(Q, 2), w)
        assert s == Matrix.identity(Q, 2)

    def test_regular_z3_onto_trivial(self):
        w = invariant_integral(Z3, Q)
        reg = Representation.regular(Z3, Q)
        triv = Representation.trivial(Z3, Q, 1)
        pi = RepMorphism(reg, triv, Matrix(Q, [[Q.one] * 3]))
        s0 = Matrix(Q, [[Q.one], [Q.zero], [Q.zero]])
        s = equivariant_section(pi, s0, w)
        third = Fraction(1, 3)
        assert s.entries == ((third,), (third,), (third,))

    def test_swap_quotient_by_invariants(self):
        w = invariant_integral(Z2, Q)
        rho = swap_rep()
        quot, proj, sect = quotient_rep(rho, invariants(rho))
        pi = RepMorphism(rho, quot, proj)
        s = equivariant_section(pi, sect, w)
        for g in range(2):
            assert rho.action(g) * s == s * quot.action(g)

    def test_quotient_by_the_whole_space_is_zero(self):
        reg = Representation.regular(Z3, Q)
        quot, proj, sect = quotient_rep(reg, [vbasis(Q, 3, i)
                                              for i in range(3)])
        assert quot.dim == 0
        assert (proj.rows, proj.cols) == (0, 3)
        assert (sect.rows, sect.cols) == (3, 0)
        assert check_invariant_exactness(RepMorphism(reg, quot, proj))

    def test_not_a_section(self):
        w = invariant_integral(Z3, Q)
        reg = Representation.regular(Z3, Q)
        triv = Representation.trivial(Z3, Q, 1)
        pi = RepMorphism(reg, triv, Matrix(Q, [[Q.one] * 3]))
        bad = Matrix(Q, [[Q.one], [Q.one], [Q.zero]])  # pi.bad = 2, not 1
        with pytest.raises(NotASection):
            equivariant_section(pi, bad, w)


def test_sub_rep_rejects_non_invariant_line():
    reg = Representation.regular(S3, Q)
    with pytest.raises(ValueError, match="not invariant"):
        sub_rep(reg, [vbasis(Q, S3.size, 0)])


def test_sub_rep_rejects_a_dependent_family():
    """The elimination of the adapted basis refuses a dependent family; the
    solve of every image restricted to it all the same."""
    reg = Representation.regular(S3, Q)
    ones = (Q.one,) * S3.size
    family = [ones, tuple(2 * x for x in ones)]
    with pytest.raises(ValueError, match="subspace basis is dependent"):
        sub_rep(reg, family)
    assert ref.sub_rep_by_solve(reg, family).dim == 2


def test_quotient_rep_rejects_dependent_basis():
    reg = Representation.regular(S3, Q)
    ones = (Q.one,) * S3.size
    with pytest.raises(ValueError, match="dependent"):
        quotient_rep(reg, [ones, tuple(2 * x for x in ones)])


# -- subspace questions against the span-and-inverse algorithms ----------------

BIG = FieldSpec.prime(2_147_483_647)
SUBSPACE_FIELDS = (Q, F2, F101, BIG)


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError or RuntimeError it
    raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def scalar(field):
    """Scalars of the field, zero often: over Q small fractions."""
    if field.p:
        return st.one_of(st.just(0), st.just(1), st.integers(0, field.p - 1))
    return st.one_of(st.just(0), st.integers(-3, 3),
                     st.builds(Fraction, st.integers(-9, 9),
                               st.integers(1, 4)).map(Q.canonical))


@st.composite
def families(draw, dependent=False):
    """(field, n, k vectors of F^n) with n <= 10 and k = 0..n; with
    dependent, one of them is a drawn combination of the others (the
    zero vector when there are no others)."""
    field = draw(st.sampled_from(SUBSPACE_FIELDS))
    n = draw(st.integers(1 if dependent else 0, 10))
    k = draw(st.integers(1 if dependent else 0, n))
    c = scalar(field)
    vectors = [tuple(draw(c) for _ in range(n)) for _ in range(k)]
    if dependent:
        coefs = [draw(c) for _ in range(k - 1)]
        combo = tuple(field.canonical(sum(
            (a * v[j] for a, v in zip(coefs, vectors)), 0)) for j in range(n))
        vectors[-1] = combo
        vectors.insert(draw(st.integers(0, k - 1)), vectors.pop())
    return field, n, vectors


@given(families())
@settings(max_examples=300, deadline=None)
def test_adapted_basis_matches_the_inverse_of_the_completed_basis(case):
    """One elimination of [reversed s_i | e_i] gives the complement, head
    and tail that the greedy unit-vector completion and the inverse of
    [sub | complement] give, or the same error."""
    field, n, sub = case
    got = outcome(reps._adapted_basis, field, sub, n)
    assert got == outcome(ref.adapted_basis_by_inverse, field, sub, n)
    event("dependent" if isinstance(got, str) else "independent")


@given(families(dependent=True))
@settings(max_examples=100, deadline=None)
def test_adapted_basis_rejects_a_dependent_family(case):
    field, n, sub = case
    want = "ValueError: subspace basis is dependent"
    assert outcome(reps._adapted_basis, field, sub, n) == want
    assert outcome(ref.adapted_basis_by_inverse, field, sub, n) == want


def test_adapted_basis_of_the_empty_and_the_full_family():
    for field in SUBSPACE_FIELDS:
        comp, head, tail = reps._adapted_basis(field, [], 3)
        assert comp == [vbasis(field, 3, i) for i in range(3)]
        assert (head.rows, head.cols) == (0, 3)
        assert tail == Matrix.identity(field, 3)
        full = [vbasis(field, 3, 2), vbasis(field, 3, 0), vbasis(field, 3, 1)]
        assert reps._adapted_basis(field, full, 3) == \
            ref.adapted_basis_by_inverse(field, full, 3)
        with pytest.raises(ValueError, match="length 2 in dimension 3"):
            reps._adapted_basis(field, [(1, 0)], 3)


@st.composite
def modules_with_subspaces(draw):
    """(module, spanning vectors): a seeded conjugated module of S3 or D4
    over a field of SUBSPACE_FIELDS, and an invariant subspace, a random
    family, or a random family with one invariant vector in it."""
    field = draw(st.sampled_from(SUBSPACE_FIELDS))
    G = draw(st.sampled_from((S3, D4)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rho = seeded_module(G, field, rng)
    kind = draw(st.sampled_from(("invariant", "random", "mixed")))
    if kind == "invariant":
        sub = random_invariant_subspace(rho, rng)
    else:
        sub = [tuple(field.from_int(rng.randint(-2, 2))
                     for _ in range(rho.dim))
               for _ in range(rng.randint(1, rho.dim - 1))]
        if kind == "mixed":
            sub[0] = invariants(rho)[0]
        sub = span_of(field, sub, rho.dim).basis()
    return rho, sub


@given(modules_with_subspaces())
@settings(max_examples=60, deadline=None)
def test_quotient_matches_the_span_membership_check(case):
    """proj A_s S = 0 decides invariance as the membership test of each
    A_s s_i does, and a failure names the same (generator, vector)."""
    rho, sub = case
    got = outcome(quotient_rep, rho, sub)
    want = outcome(ref.quotient_rep_by_span, rho, sub)
    event("refused" if isinstance(want, str) else "quotient")
    if isinstance(want, str):
        assert got == want
    else:
        (quot, proj, sect), (wquot, wproj, wsect) = got, want
        assert (quot.matrices, proj, sect) == (wquot.matrices, wproj, wsect)


@given(modules_with_subspaces())
@settings(max_examples=40, deadline=None)
def test_exactness_matches_the_membership_loop(case):
    """Comparing dim pi(M^G) with dim N^G decides exactness as testing each
    invariant of the quotient for membership in pi(M^G) does."""
    rho, sub = case
    quotient = outcome(quotient_rep, rho, sub)
    if isinstance(quotient, str):
        return
    quot, proj, _ = quotient
    pi = RepMorphism(rho, quot, proj)
    ok = check_invariant_exactness(pi)
    assert ok == ref.invariant_exactness_by_contains(pi)
    event(f"exact: {ok}")


def test_exactness_fails_as_the_membership_loop_says():
    """Over F_2 and F_3 the regular module of S3 has quotients whose
    invariants do not all lift."""
    seen = set()
    for field in (F2, F3):
        rng = rng_for("exactness-reference", field.p)
        for _ in range(6):
            rho = seeded_module(S3, field, rng)
            for sub in (invariants(rho), random_invariant_subspace(rho, rng)):
                if not sub or len(sub) == rho.dim:
                    continue
                quot, proj, _ = quotient_rep(rho, sub)
                pi = RepMorphism(rho, quot, proj)
                ok = check_invariant_exactness(pi)
                assert ok == ref.invariant_exactness_by_contains(pi)
                seen.add(ok)
    assert seen == {True, False}


@given(modules_with_subspaces())
@settings(max_examples=40, deadline=None)
def test_reynolds_matches_the_column_span(case):
    """The product certificate of image(P) = M^G accepts the averaging
    integral and returns the split the column span gave; the unit delta
    (P = I, idempotent) and twice it (not idempotent) are refused with
    the same message."""
    rho, _ = case
    f, G = rho.field, rho.monoid
    delta = tuple(f.one if g == G.unit else f.zero for g in range(G.size))
    twice = tuple(f.add(c, c) for c in delta)
    weights = [delta, twice]
    if not f.p or G.size % f.p:
        weights.append(invariant_integral(G, f).vector)
    for vector in weights:
        w = reps.InvariantIntegral(G, f, vector)
        got = outcome(reynolds, rho, w)
        want = outcome(ref.reynolds_by_span, rho, w)
        if isinstance(want, str):
            assert got == want
        else:
            assert (got.projector, got.invariant_basis,
                    got.complement_basis) == (want.projector,
                                              want.invariant_basis,
                                              want.complement_basis)
    assert outcome(reynolds, rho, reps.InvariantIntegral(G, f, delta)) == (
        "RuntimeError: projector image is not the invariant subspace")


def test_reynolds_command_eliminates_only_for_the_invariants(capsys,
                                                             monkeypatch):
    """One run of the reynolds command calls kernel_basis once, for M^G:
    the report reads dim M^G off the invariant vectors and certifies the
    dimension count, so ker P is never eliminated."""
    calls = []
    kernel_basis = reps.kernel_basis

    def counted(m):
        calls.append((m.rows, m.cols))
        return kernel_basis(m)
    monkeypatch.setattr(reps, "kernel_basis", counted)
    path = CORPUS / "rep_d4_regular.json"
    assert cli.main(["--format", "json", "reynolds", str(path)]) == 0
    assert calls == [(8 * len(D4.generators), 8)]
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[2:] == [
        {"name": "image equals the invariants", "status": "pass",
         "witness": "dimension 1"},
        {"name": "dimension count dim M = dim M^G + dim ker",
         "status": "pass"}]


@given(modules_with_subspaces())
@settings(max_examples=60, deadline=None)
def test_sub_rep_matches_the_solve_of_every_image(case):
    """head A_g S restricts the action as the solve of all |G| k images
    over the basis did; tail A_s S = 0 on the generators refuses the same
    subspaces and names a generator and vector the span test finds."""
    rho, sub = case
    got = outcome(sub_rep, rho, sub)
    want = outcome(ref.sub_rep_by_solve, rho, sub)
    event("refused" if isinstance(want, str) else "restricted")
    if isinstance(want, str):
        assert want == "ValueError: subspace is not invariant"
        g, i = re.fullmatch(r"ValueError: subspace is not invariant: (\S+) "
                            r"moves spanning vector (\d+) out of it",
                            got).groups()
        assert rho.monoid.index_of(g) in rho.monoid.generators
        assert (rho.monoid.index_of(g), int(i)) in \
            ref.invariance_failures(rho, sub)
    else:
        assert got.matrices == want.matrices


@given(st.sampled_from(SUBSPACE_FIELDS), st.sampled_from((S3, D4)),
       st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_summands_restrict_and_assemble_as_before(field, G, seed):
    """On the summands complete_reducibility finds, sub_rep gives each
    summand's own action, as the solve did, and assemble_summands the base
    change the entrywise check gave. Over F_2 the group order vanishes, so
    there is no integral."""
    if field == F2:
        return
    rho = seeded_module(G, field, random.Random(seed))
    summands = complete_reducibility(rho, invariant_integral(G, field))
    for s in summands:
        got = sub_rep(rho, s.embedding)
        assert got.matrices == s.rep.matrices
        assert got.matrices == ref.sub_rep_by_solve(rho, s.embedding).matrices
    assert assemble_summands(rho, summands) == \
        ref.assemble_summands_entrywise(rho, summands)
    event(f"{len(summands)} summands")


@given(modules_with_subspaces(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_assemble_summands_matches_the_entrywise_check(case, seed):
    """A subspace and pieces of its unit-vector complement, all of them as
    one block, or fewer vectors than a basis, are assembled or refused as
    the entry-by-entry check did, with the same message."""
    rho, sub = case
    comp = reps._adapted_basis(rho.field, sub, rho.dim)[0]
    rng = random.Random(seed)
    cut = rng.randint(0, len(comp))
    parts = [sub, comp[:cut], comp[cut:]]
    shape = rng.randrange(3)
    if shape == 1:
        parts = [sub + comp]
    elif shape == 2:
        parts[-1] = parts[-1][1:]
    summands = [reps.Summand(part, None, "") for part in parts if part]
    got = outcome(assemble_summands, rho, summands)
    want = outcome(ref.assemble_summands_entrywise, rho, summands)
    event("refused" if isinstance(want, str) else "assembled")
    assert got == want


@given(st.sampled_from(SUBSPACE_FIELDS), st.sampled_from((S3, D4)),
       st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_direct_sum_matches_the_padded_rows(field, G, seed):
    rng = random.Random(seed)
    a, b = seeded_module(G, field, rng), seeded_module(G, field, rng)
    got = Representation.direct_sum(a, b)
    assert got.dim == a.dim + b.dim
    assert got.matrices == ref.direct_sum_padded(a, b).matrices


class TestInvariantExactness:
    def test_unipotent_counterexample_over_f2(self):
        g = Matrix.from_int_rows(F2, [[1, 1], [0, 1]])
        rho = Representation(Z2, F2, [Matrix.identity(F2, 2), g])
        quot, proj, _ = quotient_rep(rho, invariants(rho))
        assert not check_invariant_exactness(RepMorphism(rho, quot, proj))

    def test_identity_map(self):
        rho = swap_rep()
        assert check_invariant_exactness(
            RepMorphism(rho, rho, Matrix.identity(Q, 2)))

    def test_char_zero_always_exact(self):
        rng = rng_for("exactness")
        for G in (Z2, Z3, S3):
            rho = seeded_module(G, Q, rng)
            sub = random_invariant_subspace(rho, rng)
            if sub is None:
                continue
            quot, proj, _ = quotient_rep(rho, sub)
            assert check_invariant_exactness(RepMorphism(rho, quot, proj))

    def test_rejects_non_equivariant(self):
        rho = swap_rep()
        triv = Representation.trivial(Z2, Q, 2)
        with pytest.raises(ValueError):
            check_invariant_exactness(
                RepMorphism(rho, triv, Matrix.from_int_rows(Q, [[1, 0],
                                                                [0, 2]])))


class TestTwist:
    def test_trivial_character(self):
        chi = Character.trivial(S3, Q)
        phi, rep = twist_by_character(S3, chi, Q)
        assert phi == Matrix.identity(Q, 6) and rep.passed

    def test_z2_sign(self):
        chi = Character(Z2, Q, (Q.one, Q.from_int(-1)))
        phi, rep = twist_by_character(Z2, chi, Q)
        assert rep.passed
        assert phi.entries == ((Fraction(1), Fraction(0)),
                               (Fraction(0), Fraction(-1)))

    def test_s3_sign_twist_is_involutive(self):
        import itertools
        perms = sorted(itertools.permutations(range(3)))
        values = []
        for p in perms:
            inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                      if p[i] > p[j])
            values.append(Q.from_int((-1) ** inv))
        chi = Character(S3, Q, values)
        phi, rep = twist_by_character(S3, chi, Q)
        assert rep.passed
        assert phi * phi == Matrix.identity(Q, 6)
        # fixes A3, negates transpositions
        for i, p in enumerate(perms):
            inv = sum(1 for a in range(3) for b in range(a + 1, 3)
                      if p[a] > p[b])
            assert phi.entries[i][i] == Q.from_int((-1) ** inv)

    def test_twist_composes_to_identity(self):
        chi = Character(Z3, F7, (F7.one, F7.from_int(2), F7.from_int(4)))
        phi, _ = twist_by_character(Z3, chi, F7)
        psi, _ = twist_by_character(Z3, chi.inverse(), F7)
        assert phi * psi == Matrix.identity(F7, 3)


class TestCompleteReducibility:
    def test_regular_z3_over_q(self):
        w = invariant_integral(Z3, Q)
        reg = Representation.regular(Z3, Q)
        summands = complete_reducibility(reg, w)
        assert sorted(len(s.embedding) for s in summands) == [1, 2]
        assemble_summands(reg, summands)

    def test_regular_z3_over_f7(self):
        w = invariant_integral(Z3, F7)
        reg = Representation.regular(Z3, F7)
        summands = complete_reducibility(reg, w)
        assert sorted(len(s.embedding) for s in summands) == [1, 1, 1]
        assemble_summands(reg, summands)

    def test_trivial_one_dim(self):
        w = invariant_integral(Z2, Q)
        rho = Representation.trivial(Z2, Q, 1)
        summands = complete_reducibility(rho, w)
        assert len(summands) == 1 and summands[0].rep.dim == 1
        assert summands[0].certificate == "absolutely simple: dim End_G = 1"

    def test_regular_s3_blocks(self):
        w = invariant_integral(S3, Q)
        reg = Representation.regular(S3, Q)
        summands = complete_reducibility(reg, w)
        dims = sorted(len(s.embedding) for s in summands)
        assert sum(dims) == 6
        assert dims[0] == 1   # the invariant line always splits off
        assemble_summands(reg, summands)
        # every summand is a subrepresentation: restriction must be valid
        for s in summands:
            Representation(S3, Q, s.rep.matrices)  # validates the action

    def test_s3_seed_2_over_q_splits_std_plus_std(self):
        # the conjugated regular module: the random search returned dims
        # 1, 1, 4 here, the 4 being std + std (dim End_G = 4) labelled
        # simple
        rho = seeded_module(S3, Q, random.Random(2))
        summands = complete_reducibility(rho, invariant_integral(S3, Q))
        assert sorted(s.rep.dim for s in summands) == [1, 1, 2, 2]
        for s in summands:
            assert s.certificate == "absolutely simple: dim End_G = 1"
            assert hom_dim_reps(s.rep, s.rep) == 1
        assemble_summands(rho, summands)

    @pytest.mark.parametrize("field", (Q, F101, BIG),
                             ids=("Q", "F101", "F2147483647"))
    @pytest.mark.parametrize("G, seed", [(S3, s) for s in range(1, 8)]
                             + [(D4, s) for s in range(5, 8)],
                             ids=[f"S3-{s}" for s in range(1, 8)]
                             + [f"D4-{s}" for s in range(5, 8)])
    def test_seeded_modules_split_into_absolutely_simple_summands(
            self, field, G, seed):
        # S3 and D4 split over Q, so every simple summand is absolutely
        # simple; over Q seeds 1, 6 and 7 of S3 and 5-7 of D4 did not
        # finish in 20 s with the random search
        rho = seeded_module(G, field, random.Random(seed))
        summands = complete_reducibility(rho, invariant_integral(G, field))
        for s in summands:
            assert s.certificate == "absolutely simple: dim End_G = 1"
            assert hom_dim_reps(s.rep, s.rep) == 1
        assemble_summands(rho, summands)

    def test_regular_z3_over_q_is_not_certified_simple(self):
        # Q^2 with a rotation of order 3 is simple over Q, but its
        # equivariant endomorphisms form Q(omega), of dimension 2
        reg = Representation.regular(Z3, Q)
        summands = complete_reducibility(reg, invariant_integral(Z3, Q))
        assert sorted(s.certificate for s in summands) == [
            "absolutely simple: dim End_G = 1",
            "not certified: dim End_G = 2"]

    @pytest.mark.parametrize("field", (Q, F101), ids=("Q", "F101"))
    def test_copies_of_std_tensor_std_split(self, field):
        # W = std (x) std of S3 x S3 is absolutely simple, but no element
        # has an eigenline in it: 101 = 2 mod 3, so over Q and F_101 the
        # 3-cycles have no eigenvalue, and the other eigenspaces are
        # planes. Over Q the spins of eigenvectors of single elements
        # left W + W whole here; joint eigenspaces are lines.
        _, _, _, std, _ = s3_catalogue(field)
        W = Representation(S3xS3, field, [kron(a, b) for a in std.matrices
                                          for b in std.matrices])
        rho = Representation.direct_sum(Representation.direct_sum(W, W), W)
        rho = rho.conjugate(random_invertible(field, 12, random.Random(0),
                                              spread=2))
        summands = complete_reducibility(rho, invariant_integral(S3xS3,
                                                                 field))
        assert [s.rep.dim for s in summands] == [4, 4, 4]
        for s in summands:
            assert s.certificate == "absolutely simple: dim End_G = 1"
        assemble_summands(rho, summands)

    @pytest.mark.parametrize("G", (S3xS3, D4xZ2), ids=("S3xS3", "D4xZ2"))
    def test_seeded_product_modules_split_into_absolutely_simple_summands(
            self, G):
        # seed 10 of S3 x S3 holds std (x) std twice in one piece that no
        # eigenvector of a single element splits over F_101
        rho = seeded_module(G, F101, random.Random(10))
        summands = complete_reducibility(rho, invariant_integral(G, F101))
        for s in summands:
            assert s.certificate == "absolutely simple: dim End_G = 1"
        assemble_summands(rho, summands)

    def test_regular_quaternion_module(self):
        # over F_7 (7 = 3 mod 4) i, j, k have no eigenvalue, so the part
        # of dimension 4 splits only by a singular element of its End_G,
        # M_2(F_7); over Q its End_G is the quaternions, a division
        # algebra: the part is simple but not absolutely simple
        for field, want in (
                (F7, [(1, 1)] * 4 + [(2, 1)] * 2),
                (Q, [(1, 1)] * 4 + [(4, 4)])):
            reg = Representation.regular(Q8, field)
            summands = complete_reducibility(reg,
                                             invariant_integral(Q8, field))
            assert sorted((s.rep.dim, hom_dim_reps(s.rep, s.rep))
                          for s in summands) == want
            assemble_summands(reg, summands)

    @given(st.sampled_from([(f, G) for f in (Q, F101, BIG)
                            for G in (S3, D4, Z3xZ3, D4xZ2, S3xS3, Q8)
                            if f != Q or G not in (D4xZ2, S3xS3)]),
           st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_certificates_agree_with_hom_dim(self, case, seed):
        # over Q the conjugated modules of D4 x Z2 and S3 x S3 take
        # seconds to minutes to split, and are left out: their summand
        # bases grow entries thousands of digits long through the nested
        # coordinates and the spins
        field, G = case
        rho = seeded_module(G, field, random.Random(seed))
        for s in complete_reducibility(rho, invariant_integral(G, field)):
            k = hom_dim_reps(s.rep, s.rep)
            label = "absolutely simple" if k == 1 else "not certified"
            assert s.certificate == f"{label}: dim End_G = {k}"

    @given(st.sampled_from((F5, F7, F101)),
           st.sampled_from((S3, D4, Z3xZ3, D4xZ2, S3xS3, Q8)),
           st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_spin_finds_at_least_the_summands_of_the_random_search(
            self, field, G, seed):
        # 5 and 101 are 2 mod 3, so the 3-cycles of S3 x S3 and Z3 x Z3
        # have no eigenvalue there; 7 is 3 mod 4, so neither have i, j, k
        # of Q8
        rho = seeded_module(G, field, random.Random(seed))
        w = invariant_integral(G, field)
        got = complete_reducibility(rho, w)
        old = ref.complete_reducibility_by_search(rho, w, seed=seed)
        event(f"{len(got)} against {len(old)} summands")
        assert len(got) >= len(old)
        assemble_summands(rho, got)


@given(st.sampled_from([(f, G) for f in (Q, F7, F101)
                        for G in (S3, D4, Z3xZ3, Q8)]
                       + [(F7, D4xZ2), (F101, D4xZ2)]),
       st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_split_matches_the_projector_split(case, seed):
    field, G = case
    rho = seeded_module(G, field, random.Random(seed))
    w = invariant_integral(G, field)
    got = complete_reducibility(rho, w)
    want = ref.complete_reducibility_by_projector(rho, w)
    assert [(s.embedding, s.rep.matrices, s.certificate) for s in got] == [
        (s.embedding, s.rep.matrices, s.certificate) for s in want]


class TestFieldEigenvalues:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 31, 101]), st.data())
    def test_matches_scan_over_the_field(self, p, data):
        f = FieldSpec.prime(p)
        n = data.draw(st.integers(0, 6))
        m = Matrix(f, [[data.draw(st.integers(0, p - 1)) for _ in range(n)]
                       for _ in range(n)], cols=n)
        assert _field_eigenvalues(f, m) == ref.field_eigenvalues(f, m)

    def test_large_prime_split(self):
        # 2^31 - 1 is 1 mod 3, so the regular module of Z3 splits into
        # three lines; a scan over the field would take 2^31 evaluations
        big = FieldSpec.prime(2**31 - 1)
        reg = Representation.regular(Z3, big)
        summands = complete_reducibility(reg, invariant_integral(Z3, big))
        assert sorted(len(s.embedding) for s in summands) == [1, 1, 1]
        assemble_summands(reg, summands)


class TestSubAndQuotient:
    def test_sub_rep_restriction(self):
        reg = Representation.regular(Z3, Q)
        line = invariants(reg)
        sub = sub_rep(reg, line)
        assert sub.dim == 1
        assert all(m == Matrix.identity(Q, 1) for m in sub.matrices)

    def test_quotient_rejects_non_invariant(self):
        reg = Representation.regular(Z3, Q)
        with pytest.raises(ValueError, match="not invariant"):
            quotient_rep(reg, [(Q.one, Q.zero, Q.zero)])


class TestZRepDecomposition:
    def test_identity(self):
        d = decompose_rep_of_Z(Matrix.identity(F5, 4))
        assert d.summary == [(((F5.from_int(-1)), F5.one), 1, 4)]

    def test_companion_mixed(self):
        # companion matrix of (x-1)^2 (x-2) over F_5
        m = Matrix.from_int_rows(F5, [[0, 0, 2], [1, 0, 0], [0, 1, 4]])
        d = decompose_rep_of_Z(m)
        assert d.verify(m)
        got = {(q, e) for q, e, _ in d.summary}
        assert got == {((3, 1), 1), ((4, 1), 2)}  # x-2 and (x-1)^2

    def test_jordan_block(self):
        m = Matrix.from_int_rows(F7, [[2, 1, 0], [0, 2, 1], [0, 0, 2]])
        d = decompose_rep_of_Z(m)
        assert d.summary == [((F7.from_int(-2), F7.one), 3, 1)]

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            decompose_rep_of_Z(Matrix.zero(F5, 2, 2))

    @pytest.mark.parametrize("field, rows", [
        # row 2 is twice row 1
        (F5, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]),
        # row 4 is row 1 plus row 2
        (F101, [[3, 0, 7, 1], [5, 2, 0, 9], [1, 1, 1, 4], [8, 2, 7, 10]]),
        # det = 1 - 6 = -5: invertible over Q, singular over F_5
        (F5, [[1, 2], [3, 1]]),
    ], ids=["rank2_of_3_F5", "rank3_of_4_F101", "det_minus5_F5"])
    def test_singular_of_rank_below_n_rejected(self, field, rows):
        m = Matrix.from_int_rows(field, rows)
        assert rank(m) == m.rows - 1
        with pytest.raises(ValueError,
                           match="^singular matrix: not a representation "
                                 "of Z$"):
            decompose_rep_of_Z(m)

    def test_singular_mod_p_through_the_cli(self, tmp_path, capsys):
        assert rank(Matrix.from_int_rows(Q, [[1, 2], [3, 1]])) == 2
        path = tmp_path / "det_minus5.json"
        path.write_text(json.dumps({"field": {"kind": "PrimeField", "p": 5},
                                    "matrix": [["1", "2"], ["3", "1"]]}),
                        encoding="utf-8")
        assert cli.main(["zrep", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: singular matrix: not a representation of Z\n"

    def test_one_similarity_check_per_cli_job(self, tmp_path, capsys,
                                              monkeypatch):
        calls = []
        check = reps.ZRepDecomposition.verify

        def counted(self, m):
            calls.append(m)
            return check(self, m)
        monkeypatch.setattr(reps.ZRepDecomposition, "verify", counted)
        path = tmp_path / "companion.json"
        # companion matrix of (x - 1)^2 (x - 2) over F_5
        path.write_text(json.dumps({
            "field": {"kind": "PrimeField", "p": 5},
            "matrix": [["0", "0", "2"], ["1", "0", "0"], ["0", "1", "4"]]}),
            encoding="utf-8")
        assert cli.main(["--format", "json", "zrep", str(path)]) == 0
        assert len(calls) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[0] == {"name": "reassembled matrix is similar to the "
                                     "input", "status": "pass"}

    def test_corrupted_companion_still_raises(self, monkeypatch):
        companion = reps._companion

        def corrupted(field, poly):
            c = companion(field, poly)
            rows = [list(row) for row in c.entries]
            rows[0][-1] = field.canonical(rows[0][-1] + 1)
            return Matrix(field, rows)
        monkeypatch.setattr(reps, "_companion", corrupted)
        m = Matrix.from_int_rows(F5, [[0, 0, 2], [1, 0, 0], [0, 1, 4]])
        with pytest.raises(RuntimeError, match="not similar"):
            decompose_rep_of_Z(m)

    def test_rationals_rejected(self):
        with pytest.raises(ValueError):
            decompose_rep_of_Z(Matrix.identity(Q, 2))

    def test_seeded_random_similarity(self):
        rng = rng_for("zrep-unit")
        for _ in range(6):
            n = rng.randint(1, 5)
            m = random_invertible(F5, n, rng, spread=4)
            d = decompose_rep_of_Z(m)
            assert d.verify(m)
            assert inverse(d.basis) is not None


def _irreducibles(field) -> list:
    """Monic irreducible polynomials over field other than x: the linear
    x + c for c = 1..5 and x^2 + c x + d, x^3 + x + d for small c, d."""
    cands = [(c, 1) for c in range(1, 6)]
    cands += [(d, c, 1) for c in range(3) for d in range(1, 9)]
    cands += [(d, 1, 0, 1) for d in range(1, 3)]
    return [q for q in ({tuple(x % field.p for x in q) for q in cands})
            if q[0] and polys.factor_monic_fp(field, q) == {q: 1}]


ZREP_FIELDS = {f: sorted(_irreducibles(f)) for f in
               (F2, F31, F101, FieldSpec.prime(2**31 - 1))}


@st.composite
def conjugated_block_companions(draw):
    """(field, m): a block-companion matrix of powers q^e of irreducible
    q over a prime field, conjugated by a random invertible matrix. The
    first q has at least two blocks, one of exponent >= 2, so that the
    cyclic decomposition lifts and corrects a generator."""
    field = draw(st.sampled_from(sorted(ZREP_FIELDS, key=lambda f: f.p)))
    p = field.p

    def irreducible():
        return draw(st.sampled_from(ZREP_FIELDS[field]))
    first = irreducible()
    blocks = [(first, draw(st.integers(2, 3))),
              (first, draw(st.integers(1, 2)))]
    for _ in range(draw(st.integers(0, 2))):
        blocks.append((irreducible(), draw(st.integers(1, 2))))
    rows = []
    size = sum(polys.degree(q) * e for q, e in blocks)
    off = 0
    for q, e in blocks:
        qe = (1,)
        for _ in range(e):
            qe = polys.mul(field, qe, q)
        d = len(qe) - 1
        for i in range(d):
            row = [0] * size
            if i:
                row[off + i - 1] = 1
            row[off + d - 1] = -qe[i] % p
            rows.append(row)
        off += d
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = Matrix.from_int_rows(field, rows)
    u = random_invertible(field, size, rng, spread=p - 1)
    return field, u * m * inverse(u)


def _poly_at_vector(field, poly, m: Matrix, v) -> tuple:
    """poly(m) v, by Horner's rule on vectors."""
    acc = tuple(field.zero for _ in v)
    for c in reversed(poly):
        acc = tuple(field.add(x, field.mul(c, y))
                    for x, y in zip(m.apply(acc), v))
    return acc


@given(conjugated_block_companions())
@settings(max_examples=100, deadline=None)
def test_decomposition_matches_the_kernel_chain(case):
    """Everything the decomposition determines, the summary and the
    companion form, is what the restriction, the kernel chain and the
    quotient recursion gave; the basis, which depends on the generators
    picked, is invertible and certified, and each generator g of a block
    of q^e has q^e(m) g = 0 and q^(e-1)(m) g != 0."""
    field, m = case
    got = decompose_rep_of_Z(m)
    want = ref.decompose_rep_of_Z_by_quotients(m)
    assert got.summary == want.summary
    assert got.companion == want.companion
    assert got.verify(m)
    assert inverse(got.basis) is not None
    for b in got.blocks:
        low = (field.one,)
        for _ in range(b.exponent - 1):
            low = polys.mul(field, low, b.poly)
        below = _poly_at_vector(field, low, m, b.generator)
        assert any(below)
        assert not any(_poly_at_vector(field, b.poly, m, below))
    assert any(e >= 2 for _, e, _ in got.summary)


class TestFormalMatrixIntegral:
    def test_scalar_case(self):
        assert formal_matrix_integral(1, 2, Q).passed

    def test_two_by_two_order_one(self):
        rep = formal_matrix_integral(2, 1, Q)
        assert rep.passed
        count = next(c for c in rep.checks if c.name == "dual basis size")
        assert count.witness == "5 functionals"

    def test_idempotent_base_point(self):
        rep = formal_matrix_integral(3, 1, Q)
        assert any(c.name == "delta_0 is idempotent" and c.ok
                   for c in rep.checks)

    def test_prime_field_also_works(self):
        assert formal_matrix_integral(2, 2, F5).passed

    @pytest.mark.parametrize("field", [Q, F2, F5], ids=FieldSpec.describe)
    @pytest.mark.parametrize("n, order", [(1, 1), (1, 5), (2, 1), (2, 3),
                                          (3, 1), (3, 2)])
    def test_matches_the_full_expansion(self, field, n, order):
        assert formal_matrix_integral(n, order, field).to_dict() == \
            ref.formal_matrix_integral_expanded(n, order, field).to_dict()

    @pytest.mark.parametrize("n, order", [(1, 5), (2, 3), (3, 2)])
    def test_no_unit_side_off_the_unit(self, n, order):
        # Delta(kappa) is bihomogeneous of bidegree (|kappa|, |kappa|), so
        # the (mu, 1) and (1, mu) coefficients the laws read vanish unless
        # kappa = mu = 1
        unit = (0,) * (n * n)
        for kappa, terms in ref.formal_matrix_delta(n, order, Q).items():
            assert all(sum(ml) == sum(mr) == sum(kappa)
                       for ml, mr in terms)
            if kappa != unit:
                assert all(unit not in pair for pair in terms)

    def test_budget_bounds_the_dual_basis(self):
        # C(4 + 3, 3) = 35 functionals at n = 2, order 3
        assert formal_matrix_integral(2, 3, Q, budget=35).passed
        with pytest.raises(BudgetExceeded, match=r"C\(7, 3\).* budget 34"):
            formal_matrix_integral(2, 3, Q, budget=34)
