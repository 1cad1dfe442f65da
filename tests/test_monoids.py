from pathlib import Path

import pytest

import reference_kernel as ref
from hopfdual import io
from hopfdual.bialgebra import (FinBialgebra, check_hopf, dualize,
                                same_structure, verify_bialgebra)
from hopfdual.exact import FieldSpec
from hopfdual.monoids import (BudgetExceeded, Character, FiniteAbelianGroup,
                              FiniteMonoid, InsufficientRoots,
                              NotPositivelyGraded, cartier_check,
                              double_dual_check, dual_monoid,
                              function_bialgebra, monoid_algebra,
                              monoid_characters, points, submonoid_algebra)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"


class TestFiniteMonoid:
    def test_validation(self):
        with pytest.raises(ValueError, match="not associative"):
            FiniteMonoid(("e", "a", "b"),
                         ((0, 1, 2), (1, 2, 2), (2, 1, 2)), 0)
        with pytest.raises(ValueError, match="unit law"):
            FiniteMonoid(("e", "a"), ((0, 0), (0, 0)), 0)

    def test_flags(self):
        assert FiniteMonoid.cyclic(5).is_group
        assert FiniteMonoid.cyclic(5).is_abelian
        s3 = FiniteMonoid.symmetric(3)
        assert s3.is_group and not s3.is_abelian
        b = FiniteMonoid.bool_and()
        assert not b.is_group and b.is_abelian

    def test_dihedral(self):
        d4 = FiniteMonoid.dihedral(4)
        assert d4.size == 8 and d4.is_group and not d4.is_abelian
        # s r s = r^{-1}
        s = d4.index_of("s0")
        r = d4.index_of("r1")
        assert d4.mul(d4.mul(s, r), s) == d4.index_of("r3")

    def test_direct_product(self):
        k4 = FiniteMonoid.direct_product(FiniteMonoid.cyclic(2),
                                         FiniteMonoid.cyclic(2))
        assert k4.size == 4 and k4.is_group and k4.is_abelian
        assert all(k4.mul(i, i) == k4.unit for i in range(4))

    def test_invariant_factors(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((3, 4))
        g = FiniteAbelianGroup((2, 4))
        assert g.order == 8 and g.exponent == 4
        assert g.to_monoid().size == 8
        assert FiniteAbelianGroup(()).to_monoid().size == 1


class TestMonoidAlgebra:
    def test_trivial(self):
        A = monoid_algebra(FiniteMonoid.trivial(), Q)
        assert A.dim == 1 and verify_bialgebra(A).passed

    def test_s3_cocommutative_noncommutative(self):
        A = monoid_algebra(FiniteMonoid.symmetric(3), Q)
        assert verify_bialgebra(A).passed
        assert A.is_cocommutative() and not A.is_commutative()
        assert check_hopf(A).passed

    def test_bool_monoid_no_antipode(self):
        A = monoid_algebra(FiniteMonoid.bool_and(), Q)
        assert verify_bialgebra(A).passed
        assert not A.has_antipode


class TestFunctionBialgebra:
    def test_z2_comult(self):
        A = function_bialgebra(FiniteMonoid.cyclic(2), Q)
        assert A.comult_basis(0) == {(0, 0): Q.one, (1, 1): Q.one}
        assert verify_bialgebra(A).passed

    def test_trivial(self):
        assert function_bialgebra(FiniteMonoid.trivial(), Q).dim == 1

    def test_s3_commutative_noncocommutative(self):
        A = function_bialgebra(FiniteMonoid.symmetric(3), Q)
        assert A.is_commutative() and not A.is_cocommutative()
        assert verify_bialgebra(A).passed


class TestCartier:
    @pytest.mark.parametrize("G", [
        FiniteMonoid.cyclic(2),
        FiniteMonoid.trivial(),
        FiniteMonoid.direct_product(FiniteMonoid.cyclic(2),
                                    FiniteMonoid.cyclic(2)),
    ])
    def test_small_groups(self, G):
        assert cartier_check(G, Q).passed

    def test_klein_over_f3(self):
        K = FiniteMonoid.direct_product(FiniteMonoid.cyclic(2),
                                        FiniteMonoid.cyclic(2))
        assert cartier_check(K, F3).passed

    def test_s3_monoid_level(self):
        assert cartier_check(FiniteMonoid.symmetric(3), Q).passed

    def test_dual_identification_is_nominal(self):
        G = FiniteMonoid.cyclic(3)
        assert same_structure(function_bialgebra(G, Q),
                              dualize(monoid_algebra(G, Q)),
                              compare_names=True).passed


class TestPoints:
    def test_z2_over_f5(self):
        pts = points(monoid_algebra(FiniteMonoid.cyclic(2), F5))
        assert len(pts) == 2
        assert sorted(p[1] for p in pts) == [1, 4]  # g -> +-1

    def test_z4_over_f5(self):
        pts = points(monoid_algebra(FiniteMonoid.cyclic(4), F5))
        assert len(pts) == 4
        assert sorted(p[1] for p in pts) == [1, 2, 3, 4]

    def test_function_algebra_points_are_evaluations(self):
        for G in (FiniteMonoid.cyclic(3), FiniteMonoid.symmetric(3)):
            A = function_bialgebra(G, F5)
            pts = points(A)
            assert len(pts) == G.size
            # each point is evaluation at one element: a 0/1 indicator tuple
            for p in pts:
                assert sorted(p) == [0] * (G.size - 1) + [1]

    def test_budget(self):
        A = function_bialgebra(FiniteMonoid.symmetric(3), F5)
        with pytest.raises(BudgetExceeded):
            points(A, budget=10)

    def test_noncommutative_rejected(self):
        with pytest.raises(ValueError, match="commutative"):
            points(monoid_algebra(FiniteMonoid.symmetric(3), F5))

    def test_matches_every_value_tuple_on_the_small_corpus_monoids(self):
        small = []
        for path in sorted(CORPUS.glob("monoid_*.json")):
            G = io.load_monoid(path)
            if G.size <= 5 and G.is_abelian:
                small.append(path.stem)
                for field in (F5, F7):
                    A = monoid_algebra(G, field)
                    assert points(A) == ref.points_all(A), (path.stem, field)
        assert small == ["monoid_bool", "monoid_z2", "monoid_z2xz2",
                         "monoid_z3", "monoid_z4", "monoid_z5"]

    def test_matches_every_value_tuple_on_rg_z4_f5(self):
        A = io.load_bialgebra(CORPUS / "rg_z4_f5.json")
        assert points(A) == ref.points_all(A)
        assert len(points(A)) == 4

    @pytest.mark.parametrize("unit, pts", [((0, 0), []), ((1, 0), [(1, 0)])],
                             ids=("zero", "not-a-left-identity"))
    def test_unit_that_is_not_an_identity(self, unit, pts):
        # e0, e1 orthogonal idempotents, whose identity is e0 + e1: phi(unit)
        # = 1 and phi(e0 e1) = 0 leave only (1, 0) for the unit e0
        A = FinBialgebra(F5, 2, None, {(0, 0, 0): 1, (1, 1, 1): 1}, unit)
        assert points(A) == ref.points_all(A) == pts

    def test_bool_monoid_characters_allow_zero(self):
        chars = monoid_characters(FiniteMonoid.bool_and(), F5)
        assert len(chars) == 2
        assert (1, 0) in chars and (1, 1) in chars

    def test_counts_match_gcd_rule(self):
        for d in (2, 3, 6, 8):
            for F in (F5, F7):
                pts = monoid_characters(FiniteMonoid.cyclic(d), F)
                g = d
                p1 = F.p - 1
                while p1:
                    g, p1 = p1, g % p1
                assert len(pts) == g

    def test_counts_cross_checked_by_brute_force(self):
        import itertools
        import math
        cases = [
            (FiniteAbelianGroup((2, 2)), F3),
            (FiniteAbelianGroup((6,)), F7),
            (FiniteAbelianGroup((2, 4)), F5),
        ]
        for g, F in cases:
            G = g.to_monoid()
            got = len(monoid_characters(G, F))
            want = 1
            for d in g.invariant_factors:
                want *= math.gcd(d, F.p - 1)
            # independent oracle: enumerate every value tuple
            brute = 0
            for values in itertools.product(range(F.p), repeat=G.size):
                if values[G.unit] != 1:
                    continue
                if all(values[G.mul(i, j)]
                       == F.mul(values[i], values[j])
                       for i in range(G.size) for j in range(G.size)):
                    brute += 1
            assert got == want == brute, (g.invariant_factors, F.p)

    def test_cocommutativity_pattern(self):
        for G in (FiniteMonoid.cyclic(4), FiniteMonoid.symmetric(3),
                  FiniteMonoid.dihedral(4), FiniteMonoid.bool_and()):
            assert monoid_algebra(G, Q).is_cocommutative()
            assert function_bialgebra(G, Q).is_cocommutative() \
                == G.is_abelian


class TestDualMonoid:
    def test_z4_over_f5_is_cyclic_4(self):
        D = dual_monoid(FiniteMonoid.cyclic(4), F5)
        assert D.size == 4 and D.is_group and D.is_abelian
        orders = sorted(_element_order(D, i) for i in range(D.size))
        assert orders == [1, 2, 4, 4]

    def test_trivial(self):
        D = dual_monoid(FiniteMonoid.trivial(), F5)
        assert D.size == 1

    def test_z4_over_f7_collapses(self):
        D = dual_monoid(FiniteMonoid.cyclic(4), F7)
        assert D.size == 2

    def test_nonabelian_rejected(self):
        with pytest.raises(ValueError):
            dual_monoid(FiniteMonoid.symmetric(3), F5)

    def test_bool_dual_is_bool(self):
        D = dual_monoid(FiniteMonoid.bool_and(), F3)
        assert D.size == 2 and not D.is_group


def _element_order(G, i):
    k, x = 1, i
    while x != G.unit:
        x = G.mul(x, i)
        k += 1
    return k


class TestDoubleDual:
    def test_z4_over_f5(self):
        assert double_dual_check(FiniteAbelianGroup((4,)), F5).passed

    def test_trivial(self):
        assert double_dual_check(FiniteAbelianGroup(()), F5).passed

    def test_z2_z4_over_f17(self):
        rep = double_dual_check(FiniteAbelianGroup((2, 4)),
                                FieldSpec.prime(17))
        assert rep.passed

    def test_insufficient_roots(self):
        with pytest.raises(InsufficientRoots):
            double_dual_check(FiniteAbelianGroup((4,)), F7)


class TestSubmonoid:
    def test_natural_numbers(self):
        sa = submonoid_algebra([(1,)], 5)
        assert sa.dim == 6  # 0..5: a truncated polynomial algebra
        assert sa.product(1, 1) == sa.index_of((2,))
        assert sa.product(sa.index_of((3,)), sa.index_of((3,))) is None

    def test_numerical_semigroup_2_3(self):
        sa = submonoid_algebra([(2,), (3,)], 6)
        assert sa.dim == 6
        assert [e[0] for e in sa.elements] == [0, 2, 3, 4, 5, 6]
        assert sa.report.passed

    def test_toric_fragment(self):
        sa = submonoid_algebra([(1, 0), (1, 1), (1, 2)], 2,
                               grading=(1, 0))
        grade2 = sa.elements_of_grade(2)
        assert grade2 == [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4)]

    def test_grading_found_automatically(self):
        sa = submonoid_algebra([(1, 0), (1, 1), (1, 2)], 2)
        assert len(sa.elements_of_grade(2)) == 5

    def test_not_positively_graded(self):
        with pytest.raises(NotPositivelyGraded):
            submonoid_algebra([(1,), (-1,)], 4)
        with pytest.raises(NotPositivelyGraded):
            submonoid_algebra([(1, 0)], 3, grading=(0, 1))


class TestCharacter:
    def test_trivial(self):
        chi = Character.trivial(FiniteMonoid.symmetric(3), Q)
        assert all(chi(i) == Q.one for i in range(6))

    def test_sign_character(self):
        s3 = FiniteMonoid.symmetric(3)
        import itertools
        perms = sorted(itertools.permutations(range(3)))
        values = []
        for p in perms:
            inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                      if p[i] > p[j])
            values.append(Q.from_int((-1) ** inv))
        chi = Character(s3, Q, values)
        assert chi.inverse().values == chi.values

    def test_nonmultiplicative_rejected(self):
        z2 = FiniteMonoid.cyclic(2)
        with pytest.raises(ValueError):
            Character(z2, Q, (Q.one, Q.from_int(2)))
        with pytest.raises(ValueError):
            Character(z2, Q, (Q.one, Q.zero))
