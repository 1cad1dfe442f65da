import math
from fractions import Fraction

import pytest

from hopfdual.bialgebra import same_structure
from hopfdual.exact import FieldSpec, Matrix
from hopfdual.lie import (LieAlgebra, TensorAlgebraOracle,
                          TruncatedEnveloping, TruncationOverflow,
                          coproduct_on_U, dist_at_identity,
                          divided_power_bialgebra, enveloping_truncated,
                          graded_check, graded_piece, iadic_graded,
                          lie_morphism_functor, primitives_of_U,
                          symmetrized_pairing, verify_lie)

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


class TestLieAlgebra:
    def test_abelian_passes(self):
        assert verify_lie(LieAlgebra.abelian(Q, 3)).passed

    def test_sl2_passes(self):
        assert verify_lie(LieAlgebra.sl2(Q)).passed

    def test_heisenberg_passes(self):
        assert verify_lie(LieAlgebra.heisenberg(Q)).passed

    def test_perturbed_sl2_fails_jacobi(self):
        bad = LieAlgebra(Q, ("e", "f", "h"), {
            (0, 1): {2: Q.one, 0: Q.one},
            (0, 2): {0: Q.from_int(-2)},
            (1, 2): {1: Q.from_int(2)},
        })
        rep = verify_lie(bad)
        assert not rep.passed
        assert any(c.witness == "(e,f,h)" for c in rep.failures())

    def test_antisymmetry_enforced_by_storage(self):
        L = LieAlgebra.heisenberg(Q)
        assert L.bracket_entries(1, 0) == [(2, Q.from_int(-1))]
        with pytest.raises(ValueError, match="i < j"):
            LieAlgebra(Q, ("x", "y"), {(1, 0): {0: Q.one}})


class TestEnveloping:
    def test_abelian_truncated_polynomials(self):
        U = enveloping_truncated(LieAlgebra.abelian(Q, 2), 3)
        a = U.index[(1, 0)]
        b = U.index[(0, 1)]
        assert U.product_monomials(a, b) == U.product_monomials(b, a)

    def test_heisenberg_single_rewrite(self):
        # y x = x y - z
        heis = LieAlgebra.heisenberg(Q)
        U = enveloping_truncated(heis, 2)
        got = U.normal_form((1, 0))
        assert got == {U.index[(1, 1, 0)]: Q.one,
                       U.index[(0, 0, 1)]: Q.from_int(-1)}

    def test_sl2_basis_count(self):
        U = enveloping_truncated(LieAlgebra.sl2(Q), 2)
        assert U.dim == 10  # 1 + 3 + 6

    def test_monomial_count_formula(self):
        for d in (1, 2, 3):
            U = enveloping_truncated(LieAlgebra.abelian(Q, d), 4)
            for n in range(5):
                assert len(U.monomials_of_degree(n)) \
                    == math.comb(d + n - 1, n)

    def test_overflow(self):
        U = enveloping_truncated(LieAlgebra.sl2(Q), 2)
        top = U.index[(2, 0, 0)]
        with pytest.raises(TruncationOverflow):
            U.product_monomials(top, top)

    def test_sl2_ef_product(self):
        # e*f = (ordered monomial ef) and f*e = ef - h
        U = enveloping_truncated(LieAlgebra.sl2(Q), 2)
        e, f_, h = (U.index[(1, 0, 0)], U.index[(0, 1, 0)],
                    U.index[(0, 0, 1)])
        ef = U.index[(1, 1, 0)]
        assert U.product_monomials(e, f_) == {ef: Q.one}
        assert U.product_monomials(f_, e) == {ef: Q.one,
                                              h: Q.from_int(-1)}


class TestCoproduct:
    def test_two_commuting_generators(self):
        U = enveloping_truncated(LieAlgebra.abelian(Q, 2), 2)
        e1e2 = U.index[(1, 1)]
        one = U.index[(0, 0)]
        e1 = U.index[(1, 0)]
        e2 = U.index[(0, 1)]
        assert U.comult_monomial(e1e2) == {
            (e1e2, one): Q.one, (e1, e2): Q.one,
            (e2, e1): Q.one, (one, e1e2): Q.one}

    def test_unit_grouplike(self):
        U = enveloping_truncated(LieAlgebra.sl2(Q), 2)
        one = U.index[(0, 0, 0)]
        assert U.comult_monomial(one) == {(one, one): Q.one}

    def test_binomial_expansion(self):
        U = enveloping_truncated(LieAlgebra.abelian(Q, 1), 4)
        x3 = U.index[(3,)]
        got = U.comult_monomial(x3)
        assert got == {(U.index[(i,)], U.index[(3 - i,)]):
                       Q.from_int(math.comb(3, i)) for i in range(4)}

    def test_full_verification_sl2(self):
        _, rep = coproduct_on_U(enveloping_truncated(LieAlgebra.sl2(Q), 3))
        assert rep.passed

    def test_full_verification_heisenberg(self):
        _, rep = coproduct_on_U(
            enveloping_truncated(LieAlgebra.heisenberg(Q), 3))
        assert rep.passed

    @staticmethod
    def corrupted_sl2(mono, dropped):
        """sl2 at order 3 with the term ``dropped`` (a pair of exponent
        tuples) removed from the cached coproduct of ``mono``."""
        U = enveloping_truncated(LieAlgebra.sl2(Q), 3)
        k = U.index[mono]
        delta = dict(U.comult_monomial(k))
        del delta[tuple(U.index[m] for m in dropped)]
        U._comult_cache[k] = delta
        return U

    MUL = "Delta(xy) = Delta(x)Delta(y) in range"
    EF_PRODUCTS = ["(h,e*f)", "(f,e)", "(f,e*f)", "(e,f)", "(e,e*f)",
                   "(f*h,e)", "(e*h,f)", "(e*f,h)", "(e*f,f)", "(e*f,e)"]

    def checks(self, U):
        tensor, rep = coproduct_on_U(U)
        assert tensor == {k: U.comult_monomial(k) for k in range(U.dim)}
        return [(c.name, c.ok, c.witness) for c in rep.checks]

    def test_dropped_middle_term_witnesses(self):
        # Delta(e*f) loses e (x) f: counits and generators still hold
        U = self.corrupted_sl2((1, 1, 0), ((1, 0, 0), (0, 1, 0)))
        assert self.checks(U) == [
            ("coassociativity", False, "e*f*h"),
            ("coassociativity", False, "e*f^2"),
            ("coassociativity", False, "e^2*f"),
            ("counit laws", True, None),
            *[(self.MUL, False, w) for w in self.EF_PRODUCTS],
            ("generators are primitive", True, None)]

    def test_dropped_unit_term_breaks_counit(self):
        # Delta(e*f) loses 1 (x) e*f
        U = self.corrupted_sl2((1, 1, 0), ((0, 0, 0), (1, 1, 0)))
        assert self.checks(U) == [
            ("coassociativity", False, "e*f"),
            ("coassociativity", False, "e*f*h"),
            ("coassociativity", False, "e*f^2"),
            ("coassociativity", False, "e^2*f"),
            ("counit laws", False, "e*f"),
            *[(self.MUL, False, w) for w in self.EF_PRODUCTS],
            ("generators are primitive", True, None)]

    def test_non_primitive_generator_witnesses(self):
        # Delta(e) loses 1 (x) e
        U = self.corrupted_sl2((1, 0, 0), ((0, 0, 0), (1, 0, 0)))
        coassoc = ["e*h", "e*f", "e^2", "e*h^2", "e*f*h", "e*f^2", "e^2*h",
                   "e^2*f", "e^3"]
        products = ["(h,e)", "(f,e)", "(f,e^2)", "(e,h)", "(e,f)", "(e,e)",
                    "(e,h^2)", "(e,f*h)", "(e,f^2)", "(e,e*h)", "(e,e*f)",
                    "(e,e^2)", "(h^2,e)", "(f*h,e)", "(f^2,e)", "(e*h,e)",
                    "(e*f,e)", "(e^2,e)"]
        assert self.checks(U) == [
            *[("coassociativity", False, w) for w in coassoc],
            ("counit laws", False, "e"),
            *[(self.MUL, False, w) for w in products],
            ("generators are primitive", False, "e")]


class TestGraded:
    @pytest.mark.parametrize("L,N", [
        (LieAlgebra.abelian(Q, 1), 5),
        (LieAlgebra.sl2(Q), 4),
        (LieAlgebra.heisenberg(Q), 3),
    ])
    def test_graded_dims_and_symmetrization(self, L, N):
        assert graded_check(enveloping_truncated(L, N)).passed

    def test_char_p_rejected(self):
        U = enveloping_truncated(LieAlgebra.abelian(F5, 1), 3)
        with pytest.raises(ValueError):
            graded_check(U)

    def test_graded_piece_inverse_pair(self):
        U = enveloping_truncated(LieAlgebra.sl2(Q), 3)
        for n in (1, 2, 3):
            piece = graded_piece(U, n)
            assert piece.dim == math.comb(3 + n - 1, n)
            ident = Matrix.identity(Q, piece.dim)
            assert piece.from_symmetric * piece.to_symmetric == ident

    def test_default_size_guard(self):
        big = LieAlgebra.abelian(Q, 7)
        with pytest.raises(ValueError, match="allow_large"):
            enveloping_truncated(big, 8)
        # explicit override constructs (kept small enough to be instant)
        U = TruncatedEnveloping(LieAlgebra.abelian(Q, 6), 8,
                                allow_large=True)
        assert U.dim == math.comb(14, 8)

    def test_factorial_bookkeeping(self):
        # composite of symmetrization with the degree-one splitting is the
        # diagonal of per-variable factorials: n! times the normalized
        # symmetric embedding, visible exactly
        U = enveloping_truncated(LieAlgebra.heisenberg(Q), 3)
        for n in (2, 3):
            m = symmetrized_pairing(U, n)
            idxs = U.monomials_of_degree(n)
            for t, k in enumerate(idxs):
                mono = U.monomials[k]
                stab = 1
                for e in mono:
                    stab *= math.factorial(e)
                for s in range(len(idxs)):
                    want = Q.from_int(stab) if s == t else Q.zero
                    assert m.entries[s][t] == want


class TestPrimitives:
    def test_sl2_order3(self):
        U = enveloping_truncated(LieAlgebra.sl2(Q), 3)
        prim = primitives_of_U(U)
        assert len(prim) == 3
        for v in prim:
            assert all(v[i] == 0 for i in range(U.dim) if U.degree(i) != 1)

    def test_order_one_degenerate(self):
        U = enveloping_truncated(LieAlgebra.sl2(Q), 1)
        assert len(primitives_of_U(U)) == 3

    def test_abelian_powers_not_primitive(self):
        U = enveloping_truncated(LieAlgebra.abelian(Q, 1), 4)
        prim = primitives_of_U(U)
        assert len(prim) == 1
        (v,) = prim
        assert v[U.index[(1,)]] != 0


class TestOracle:
    @pytest.mark.parametrize("L,N", [
        (LieAlgebra.abelian(Q, 2), 3),
        (LieAlgebra.heisenberg(Q), 3),
        (LieAlgebra.sl2(Q), 3),
    ])
    def test_straightening_matches_ideal_reduction(self, L, N):
        U = enveloping_truncated(L, N)
        oracle = TensorAlgebraOracle(L, N)
        for a in range(U.dim):
            for b in range(U.dim):
                if U.degree(a) + U.degree(b) > N:
                    continue
                assert oracle.check_product(U, a, b)

    def test_oracle_rejects_wrong_expansion(self):
        heis = LieAlgebra.heisenberg(Q)
        oracle = TensorAlgebraOracle(heis, 2)
        # y x is NOT equal to x y (the bracket term is missing)
        assert not oracle.equal_mod_ideal({(1, 0): Q.one}, {(0, 1): Q.one})
        assert oracle.equal_mod_ideal(
            {(1, 0): Q.one}, {(0, 1): Q.one, (2,): Q.from_int(-1)})


class TestMorphismFunctor:
    def test_identity_sl2(self):
        sl2 = LieAlgebra.sl2(Q)
        F, rep = lie_morphism_functor(Matrix.identity(Q, 3), sl2, sl2, 3)
        assert rep.passed and F == Matrix.identity(Q, F.rows)

    def test_zero_map(self):
        sl2 = LieAlgebra.sl2(Q)
        ab = LieAlgebra.abelian(Q, 1)
        F, rep = lie_morphism_functor(Matrix.zero(Q, 1, 3), sl2, ab, 2)
        assert rep.passed
        # positive-degree monomials die, the unit survives
        Us_dim = F.cols
        assert F.column(0)[0] == Q.one
        assert all(F.column(k) == (Q.zero,) * F.rows
                   for k in range(1, Us_dim))

    def test_heisenberg_to_plane(self):
        heis = LieAlgebra.heisenberg(Q)
        ab2 = LieAlgebra.abelian(Q, 2)
        fmat = Matrix.from_int_rows(Q, [[1, 0, 0], [0, 1, 0]])
        F, rep = lie_morphism_functor(fmat, heis, ab2, 3)
        assert rep.passed and F is not None

    def test_obstruction_reported(self):
        sl2 = LieAlgebra.sl2(Q)
        ab3 = LieAlgebra.abelian(Q, 3)
        F, rep = lie_morphism_functor(Matrix.identity(Q, 3), sl2, ab3, 2)
        assert F is None
        assert any(c.witness == "(e,f)" for c in rep.failures())


class TestDividedPowers:
    def test_defining_relation(self):
        A, rep = divided_power_bialgebra(8, Q)
        assert rep.passed
        w1w1 = A.mul_vec(A.basis_vec(1), A.basis_vec(1))
        want = [Q.zero] * 9
        want[2] = Q.from_int(2)
        assert w1w1 == tuple(want)  # w1 w1 = 2 w2

    def test_power_factorials(self):
        A, _ = divided_power_bialgebra(6, Q)
        power = A.basis_vec(0)
        for n in range(1, 7):
            power = A.mul_vec(power, A.basis_vec(1))
            assert power[n] == Fraction(math.factorial(n))

    def test_w0_grouplike(self):
        A, _ = divided_power_bialgebra(3, Q)
        assert A.comult_basis(0) == {(0, 0): Q.one}

    def test_truncation_boundary_is_not_a_bialgebra(self):
        from hopfdual.bialgebra import verify_bialgebra
        A, _ = divided_power_bialgebra(1, Q)
        assert not A.has_bialgebra
        assert not verify_bialgebra(A).passed  # boundary Delta-mult fails


class TestDistributions:
    def test_ga_matches_divided_powers(self):
        D, rep = dist_at_identity("ga", 8, Q)
        assert rep.passed
        divided, _ = divided_power_bialgebra(8, Q)
        assert same_structure(D, divided).passed

    def test_u2_same_constants(self):
        D, rep = dist_at_identity("u2", 3, Q)
        assert rep.passed

    def test_gm_chart(self):
        D, rep = dist_at_identity("gm", 2, Q)
        assert rep.passed
        # delta_1 * delta_1 = delta_1 + 2 delta_2 in the u-chart
        got = D.mul_vec(D.basis_vec(1), D.basis_vec(1))
        assert got == (Q.zero, Q.one, Q.from_int(2))

    def test_tangent_primitive(self):
        for preset in ("ga", "gm", "u2"):
            D, _ = dist_at_identity(preset, 1, Q)
            assert D.comult_basis(1) == {(0, 1): Q.one, (1, 0): Q.one}

    def test_unsupported_preset(self):
        with pytest.raises(ValueError):
            dist_at_identity("sl2", 2, Q)

    def test_char_p_rejected(self):
        with pytest.raises(ValueError):
            dist_at_identity("ga", 2, F5)


class TestIadicGraded:
    def test_one_variable(self):
        assert iadic_graded("poly", 6, 1).passed

    def test_two_variables_dims(self):
        rep = iadic_graded("poly", 4, 2)
        assert rep.passed

    def test_gm_all_ones(self):
        assert iadic_graded("gm", 5).passed

    def test_unsupported(self):
        with pytest.raises(ValueError):
            iadic_graded("grassmannian", 3)
