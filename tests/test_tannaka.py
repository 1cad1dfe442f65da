import pytest

from conftest import s3_catalogue
from hopfdual.exact import FieldSpec, Matrix
from hopfdual.monoids import FiniteMonoid, monoid_algebra
from hopfdual.reps import AlgebraModule, Representation, rep_to_module
from hopfdual.tannaka import (annihilator_quotient, image_span_dimension,
                              reconstruct_from_regular,
                              tensor_coproduct_recovery)

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


class TestAnnihilatorQuotient:
    def test_trivial_rep_collapses_to_scalars(self):
        S3, triv, *_ = s3_catalogue(Q)
        res = annihilator_quotient(monoid_algebra(S3, Q),
                                   rep_to_module(triv))
        assert res.algebra.dim == 1 and not res.degenerate

    def test_regular_rep_is_faithful(self):
        S3, *_ = s3_catalogue(Q)
        A = monoid_algebra(S3, Q)
        res = annihilator_quotient(A, rep_to_module(
            Representation.regular(S3, Q)))
        assert res.algebra.dim == 6
        assert res.quotient_map == Matrix.identity(Q, 6)

    def test_zero_module_degenerate(self):
        Z2 = FiniteMonoid.cyclic(2)
        A = monoid_algebra(Z2, Q)
        zero_mod = AlgebraModule(A, [Matrix.zero(Q, 0, 0)] * 2,
                                 validate=False)
        res = annihilator_quotient(A, zero_mod)
        assert res.degenerate and res.algebra.dim == 0

    def test_idempotent_reconstruction(self):
        S3, _, sign, std, _ = s3_catalogue(Q)
        A = monoid_algebra(S3, Q)
        first = annihilator_quotient(A, rep_to_module(std))
        second = annihilator_quotient(first.algebra, first.faithful_action)
        assert second.algebra.dim == first.algebra.dim
        assert second.algebra.mult == first.algebra.mult
        assert second.algebra.unit == first.algebra.unit

    def test_dimension_bound(self):
        S3, triv, sign, std, reg = s3_catalogue(Q)
        A = monoid_algebra(S3, Q)
        for rho in (triv, sign, std, reg):
            res = annihilator_quotient(A, rep_to_module(rho))
            assert res.algebra.dim <= min(A.dim, rho.dim ** 2)

    def test_quotient_map_is_a_surjective_algebra_morphism(self):
        from hopfdual.bialgebra import BialgebraMorphism, check_morphism
        from hopfdual.exact import rank
        S3, _, _, std, _ = s3_catalogue(Q)
        A = monoid_algebra(S3, Q)
        res = annihilator_quotient(A, rep_to_module(std))
        f = BialgebraMorphism(A, res.algebra, res.quotient_map)
        assert check_morphism(f, "algebra").passed
        assert rank(res.quotient_map) == res.algebra.dim


class TestReconstructFromRegular:
    @pytest.mark.parametrize("G", [
        FiniteMonoid.trivial(),
        FiniteMonoid.cyclic(4),
        FiniteMonoid.symmetric(3),
        FiniteMonoid.dihedral(4),
        FiniteMonoid.bool_and(),
    ])
    def test_over_q(self, G):
        assert reconstruct_from_regular(G, Q).passed

    def test_z4_over_f5(self):
        assert reconstruct_from_regular(FiniteMonoid.cyclic(4), F5).passed


class TestTensorCoproductRecovery:
    def test_s3_catalogue(self):
        S3, triv, sign, std, reg = s3_catalogue(Q)
        rep = tensor_coproduct_recovery(S3, [triv, sign, std, reg])
        assert rep.passed
        # one passing check per ordered pair
        assert [(c.name, c.ok) for c in rep.checks] == [
            (f"pair ({a},{b}) diagonal action = coproduct action", True)
            for a in range(4) for b in range(4)]

    def test_representations_of_another_monoid_rejected(self):
        S3, triv, *_ = s3_catalogue(Q)
        z2 = Representation.trivial(FiniteMonoid.cyclic(2), Q)
        with pytest.raises(ValueError, match="one monoid"):
            tensor_coproduct_recovery(S3, [triv, z2])

    def test_representations_over_another_field_rejected(self):
        S3, triv, *_ = s3_catalogue(Q)
        sign_f5 = s3_catalogue(F5)[2]
        with pytest.raises(ValueError, match="one field"):
            tensor_coproduct_recovery(S3, [triv, sign_f5])

    def test_tensor_with_trivial_is_identity(self):
        S3, triv, _, std, _ = s3_catalogue(Q)
        t = Representation.tensor(std, triv)
        assert t.matrices == std.matrices

    def test_sign_squared_is_trivial(self):
        S3, triv, sign, *_ = s3_catalogue(Q)
        t = Representation.tensor(sign, sign)
        assert t.matrices == triv.matrices

    def test_corrupted_coproduct_detected(self):
        # recovery compares against the diagonal action, so a corrupt
        # comultiplication shows up as a failing pair
        from hopfdual.bialgebra import FinBialgebra
        S3, triv, sign, std, _ = s3_catalogue(Q)
        A = monoid_algebra(S3, Q)
        wrong = {(k, k, k): Q.one for k in range(5)}
        wrong[(5, 4, 4)] = Q.one
        B = FinBialgebra(Q, 6, A.basis, A.mult, A.unit, wrong, A.counit)
        from hopfdual.exact import kron
        bad_pairs = []
        for g in range(6):
            lhs = kron(std.action(g), sign.action(g))
            rhs = Matrix.zero(Q, 2, 2)
            for (i, j), c in B.comult_basis(g).items():
                rhs = rhs + kron(std.action(i), sign.action(j)).scale(c)
            if lhs != rhs:
                bad_pairs.append(g)
        assert bad_pairs


class TestImageSpan:
    def test_trivial(self):
        S3, triv, *_ = s3_catalogue(Q)
        assert image_span_dimension(triv) == 1

    def test_standard_spans_full_matrix_algebra(self):
        _, _, _, std, _ = s3_catalogue(Q)
        assert image_span_dimension(std) == 4

    def test_regular(self):
        *_, reg = s3_catalogue(Q)
        assert image_span_dimension(reg) == 6

    def test_monotone_under_direct_sum(self):
        S3, triv, sign, std, reg = s3_catalogue(Q)
        reps = [triv, sign, std]
        for a in reps:
            for b in reps:
                ab = Representation.direct_sum(a, b)
                assert image_span_dimension(ab) >= max(
                    image_span_dimension(a), image_span_dimension(b))

    def test_matches_reconstruction_dim(self):
        S3, triv, sign, std, reg = s3_catalogue(Q)
        A = monoid_algebra(S3, Q)
        for rho in (triv, sign, std, reg):
            res = annihilator_quotient(A, rep_to_module(rho))
            assert res.algebra.dim == image_span_dimension(rho)


def test_contragredient_duality_involutive():
    _, _, _, std, reg = s3_catalogue(Q)
    for rho in (std, reg):
        double = rho.contragredient().contragredient()
        assert double.matrices == rho.matrices


def test_contragredient_needs_group():
    from hopfdual.reps import NotAGroup
    B = FiniteMonoid.bool_and()
    rho = Representation.trivial(B, Q, 1)
    with pytest.raises(NotAGroup):
        rho.contragredient()
