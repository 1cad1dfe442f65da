from fractions import Fraction

import pytest

from conftest import (random_invariant_subspace, random_invertible, rng_for,
                      s3_catalogue, seeded_module)
from hopfdual.exact import FieldSpec, Matrix, inverse, span_of, vbasis
from hopfdual.monoids import Character, FiniteMonoid, monoid_algebra
from hopfdual.reps import (AlgebraModule, CharDividesOrder, NotAGroup,
                           NotASection, RepMorphism, Representation,
                           assemble_summands, check_invariant_exactness,
                           complete_reducibility, decompose_rep_of_Z,
                           equivariant_section, formal_matrix_integral,
                           hom_dim_modules, hom_dim_reps, integral_system,
                           invariant_integral, invariants, module_to_rep,
                           quotient_rep, rep_to_module, reynolds,
                           split_group_algebra, sub_rep, twist_by_character)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)

Z2 = FiniteMonoid.cyclic(2)
Z3 = FiniteMonoid.cyclic(3)
S3 = FiniteMonoid.symmetric(3)
D4 = FiniteMonoid.dihedral(4)


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

    def test_generating_subset_suffices(self):
        # a transposition and a 3-cycle generate S3
        reg = Representation.regular(S3, Q)
        gens = [S3.index_of("102"), S3.index_of("120")]
        assert invariants(reg, generators=gens) == invariants(reg)


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

    def test_solver_agrees_with_averaging(self):
        for G in (Z3, S3, D4):
            w, unique = integral_system(G, Q)
            assert unique
            assert w == invariant_integral(G, Q).vector


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


def test_quotient_rep_rejects_dependent_basis():
    reg = Representation.regular(S3, Q)
    ones = (Q.one,) * S3.size
    with pytest.raises(ValueError, match="dependent"):
        quotient_rep(reg, [ones, tuple(2 * x for x in ones)])


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
        summands = complete_reducibility(reg, w, seed=0)
        assert sorted(len(s.embedding) for s in summands) == [1, 2]
        assemble_summands(reg, summands)

    def test_regular_z3_over_f7(self):
        w = invariant_integral(Z3, F7)
        reg = Representation.regular(Z3, F7)
        summands = complete_reducibility(reg, w, seed=0)
        assert sorted(len(s.embedding) for s in summands) == [1, 1, 1]
        assemble_summands(reg, summands)

    def test_trivial_one_dim(self):
        w = invariant_integral(Z2, Q)
        rho = Representation.trivial(Z2, Q, 1)
        summands = complete_reducibility(rho, w)
        assert len(summands) == 1 and summands[0].rep.dim == 1
        assert "simple relative to search" in summands[0].certificate

    def test_regular_s3_blocks(self):
        w = invariant_integral(S3, Q)
        reg = Representation.regular(S3, Q)
        summands = complete_reducibility(reg, w, seed=3)
        dims = sorted(len(s.embedding) for s in summands)
        assert sum(dims) == 6
        assert dims[0] == 1   # the invariant line always splits off
        assemble_summands(reg, summands)
        # every summand is a subrepresentation: restriction must be valid
        for s in summands:
            Representation(S3, Q, s.rep.matrices)  # validates the action


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
