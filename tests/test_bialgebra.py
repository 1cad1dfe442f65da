from pathlib import Path

import pytest

from hopfdual import io
from hopfdual.bialgebra import (BialgebraMorphism, FinBialgebra,
                                check_grouplike, check_hopf, check_morphism,
                                dualize, find_antipode, primitives,
                                same_structure, tensor_bialgebra,
                                verify_algebra, verify_bialgebra,
                                verify_coalgebra)
from hopfdual.exact import FieldSpec, Matrix
from hopfdual.lie import divided_power_bialgebra
from hopfdual.monoids import FiniteMonoid, function_bialgebra, monoid_algebra

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"


def one_dim_bialgebra(field=Q):
    return FinBialgebra(field, 1, ("1",), {(0, 0, 0): field.one},
                        (field.one,), {(0, 0, 0): field.one}, (field.one,),
                        Matrix.identity(field, 1))


class TestVerifiers:
    def test_one_dim_passes_everything(self):
        A = one_dim_bialgebra()
        assert verify_algebra(A).passed
        assert verify_coalgebra(A).passed
        assert verify_bialgebra(A).passed
        assert check_hopf(A).passed

    def test_group_algebra_z2(self):
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        assert verify_algebra(A).passed

    def test_s3_full_sweep(self):
        A = monoid_algebra(FiniteMonoid.symmetric(3), Q)
        rep = verify_bialgebra(A)
        assert rep.passed
        assert check_hopf(A).passed

    def test_corrupted_z2_fails_compat(self):
        # dropping g*g = e leaves an honest algebra (the dual numbers) but
        # kills counit multiplicativity and the antipode identities
        rg = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        mult = dict(rg.mult)
        del mult[(1, 1, 0)]
        A = FinBialgebra(Q, 2, rg.basis, mult, rg.unit, rg.comult, rg.counit,
                         rg.antipode)
        assert verify_algebra(A).passed
        rep = verify_bialgebra(A)
        assert not rep.passed
        assert any("(g,g)" == c.witness for c in rep.failures())
        assert not check_hopf(A).passed

    def test_dual_of_algebra_is_coalgebra(self):
        A = monoid_algebra(FiniteMonoid.symmetric(3), Q)
        assert verify_coalgebra(dualize(A)).passed

    def test_grouplike_comult_passes(self):
        A = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        assert verify_coalgebra(A).passed

    def test_broken_counit_law(self):
        A = FinBialgebra(Q, 2, ("e0", "e1"), None, None,
                         {(0, 0, 1): Q.one}, (Q.one, Q.zero))
        rep = verify_coalgebra(A)
        assert not rep.passed
        assert any("counit law" in c.name for c in rep.failures())

    def test_wrong_table_comult_is_still_a_bialgebra(self):
        # the coproduct of any honest monoid table is compatible with the
        # pointwise product; corruption needs a non-table coproduct term
        z4 = FiniteMonoid.cyclic(4)
        z2xz2 = FiniteMonoid.direct_product(FiniteMonoid.cyclic(2),
                                            FiniteMonoid.cyclic(2))
        fn = function_bialgebra(z4, Q)
        other = function_bialgebra(z2xz2, Q)
        mixed = FinBialgebra(Q, 4, fn.basis, fn.mult, fn.unit, other.comult,
                             other.counit)
        assert verify_bialgebra(mixed).passed

    def test_stray_comult_term_breaks_multiplicativity(self):
        fn = function_bialgebra(FiniteMonoid.cyclic(4), Q)
        comult = dict(fn.comult)
        comult[(3, 0, 0)] = Q.one
        A = FinBialgebra(Q, 4, fn.basis, fn.mult, fn.unit, comult, fn.counit)
        rep = verify_bialgebra(A)
        assert any("comult multiplicative" in c.name for c in rep.failures())


class TestHopf:
    def test_group_antipode(self):
        for G in (FiniteMonoid.cyclic(4), FiniteMonoid.dihedral(4)):
            assert check_hopf(monoid_algebra(G, Q)).passed

    def test_bool_monoid_has_no_antipode(self):
        A = monoid_algebra(FiniteMonoid.bool_and(), Q)
        assert not A.has_antipode
        assert find_antipode(A) is None

    def test_find_antipode_recovers_inversion(self):
        A = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        S = find_antipode(A)
        assert S == A.antipode

    def test_antipode_absent_raises(self):
        A = monoid_algebra(FiniteMonoid.bool_and(), Q)
        with pytest.raises(ValueError):
            check_hopf(A)


class TestDualize:
    def test_z2_pointwise_product_and_comult(self):
        D = dualize(monoid_algebra(FiniteMonoid.cyclic(2), Q))
        # delta_x delta_y = [x = y] delta_x
        assert D.mult == {(0, 0, 0): Q.one, (1, 1, 1): Q.one}
        # Delta(delta_e) = delta_e (x) delta_e + delta_g (x) delta_g
        assert D.comult_basis(0) == {(0, 0): Q.one, (1, 1): Q.one}

    def test_one_dim_self_dual(self):
        A = one_dim_bialgebra()
        assert same_structure(dualize(A), A).passed

    def test_involution_on_corpus_structures(self):
        samples = [
            monoid_algebra(FiniteMonoid.cyclic(5), Q),
            monoid_algebra(FiniteMonoid.symmetric(3), Q),
            function_bialgebra(FiniteMonoid.dihedral(4), Q),
            monoid_algebra(FiniteMonoid.cyclic(4), FieldSpec.prime(5)),
            divided_power_bialgebra(4, Q)[0],
        ]
        for A in samples:
            assert same_structure(dualize(dualize(A)), A,
                                  compare_names=True).passed

    def test_algebra_only_inputs(self):
        A = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        alg_only = FinBialgebra(Q, 3, A.basis, A.mult, A.unit)
        D = dualize(alg_only)
        assert not D.has_algebra and D.has_coalgebra
        assert verify_coalgebra(D).passed
        assert same_structure(dualize(D), alg_only).passed


class TestTensor:
    def test_z2_tensor_z2_is_klein(self):
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        T = tensor_bialgebra(A, A)
        K = monoid_algebra(FiniteMonoid.direct_product(
            FiniteMonoid.cyclic(2), FiniteMonoid.cyclic(2)), Q)
        assert same_structure(T, K).passed
        assert verify_bialgebra(T).passed

    def test_unit_bialgebra_neutral(self):
        A = monoid_algebra(FiniteMonoid.symmetric(3), Q)
        T = tensor_bialgebra(A, one_dim_bialgebra())
        assert same_structure(T, A).passed

    def test_dual_of_tensor_is_tensor_of_duals(self):
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        B = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        lhs = dualize(tensor_bialgebra(A, B))
        rhs = tensor_bialgebra(dualize(A), dualize(B))
        assert same_structure(lhs, rhs).passed


class TestMorphisms:
    def test_identity_all_kinds(self):
        A = monoid_algebra(FiniteMonoid.cyclic(4), Q)
        f = BialgebraMorphism(A, A, Matrix.identity(Q, 4))
        for kind in ("algebra", "coalgebra", "bialgebra"):
            assert check_morphism(f, kind).passed

    def test_counit_is_a_bialgebra_morphism(self):
        A = monoid_algebra(FiniteMonoid.symmetric(3), Q)
        target = one_dim_bialgebra()
        eps = BialgebraMorphism(A, target, Matrix(Q, [list(A.counit)]))
        assert check_morphism(eps, "bialgebra").passed

    def test_basis_swap_fails_algebra_kind(self):
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        swap = Matrix.from_int_rows(Q, [[0, 1], [1, 0]])
        rep = check_morphism(BialgebraMorphism(A, A, swap), "algebra")
        assert not rep.passed
        assert any(c.name == "f(1) = 1" for c in rep.failures())

    def test_transpose_antifunctoriality(self):
        # a bialgebra morphism transposes to one between the duals
        A = monoid_algebra(FiniteMonoid.cyclic(4), Q)
        perm = Matrix.from_columns(Q, [
            A.basis_vec(0), A.basis_vec(2), A.basis_vec(0), A.basis_vec(2)])
        # g -> g^2 is a monoid morphism Z4 -> Z4, linearized
        f = BialgebraMorphism(A, A, perm)
        assert check_morphism(f, "bialgebra").passed
        fT = BialgebraMorphism(dualize(A), dualize(A), perm.transpose())
        assert check_morphism(fT, "bialgebra").passed

    def test_shape_validation(self):
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        B = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        with pytest.raises(ValueError):
            BialgebraMorphism(A, B, Matrix.identity(Q, 2))


class TestPrimitivesAndGrouplikes:
    def test_group_algebra_has_no_primitives(self):
        for G in (FiniteMonoid.cyclic(3), FiniteMonoid.symmetric(3)):
            assert primitives(monoid_algebra(G, Q)) == []

    def test_one_dim_no_primitives(self):
        assert primitives(one_dim_bialgebra()) == []

    def test_divided_power_primitives_span_w1(self):
        A, _ = divided_power_bialgebra(4, Q)
        basis = primitives(A)
        assert len(basis) == 1
        (v,) = basis
        assert v[1] != 0 and all(v[i] == 0 for i in (0, 2, 3, 4))

    def test_basis_elements_grouplike(self):
        A = monoid_algebra(FiniteMonoid.symmetric(3), Q)
        for i in range(A.dim):
            assert check_grouplike(A, A.basis_vec(i))

    def test_unit_grouplike(self):
        assert check_grouplike(one_dim_bialgebra(), (Q.one,))

    def test_sum_not_grouplike(self):
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        assert not check_grouplike(A, (Q.one, Q.one))

    def test_no_nonzero_primitive_is_grouplike(self):
        A, _ = divided_power_bialgebra(5, Q)
        for v in primitives(A):
            assert not check_grouplike(A, v)


def test_dualize_maps_passing_algebras_to_passing_coalgebras():
    for G in (FiniteMonoid.cyclic(6), FiniteMonoid.dihedral(4),
              FiniteMonoid.bool_and()):
        A = monoid_algebra(G, Q)
        assert verify_algebra(A).passed
        assert verify_coalgebra(dualize(A)).passed


@pytest.mark.parametrize("field", [Q, F3])
def test_mult_matrices_match_products(field):
    # read off the product tensor in one pass; column j is x*e_j (or e_j*x)
    A = monoid_algebra(FiniteMonoid.symmetric(3), field)
    x = tuple(field.from_int(i * i - 7 * i) for i in range(A.dim))
    for mat, product in ((A.left_mult_matrix(x), lambda e: A.mul_vec(x, e)),
                         (A.right_mult_matrix(x), lambda e: A.mul_vec(e, x))):
        assert mat == Matrix.from_columns(
            field, [product(A.basis_vec(j)) for j in range(A.dim)])
    assert A.left_mult_matrix(x) != A.right_mult_matrix(x)


class TestMissingStructure:
    """A routine handed a structure without the half it reads raises a
    ValueError naming that half, as the verifiers do. The corpus Lie and
    representation files load as bare structures (neither half)."""

    @staticmethod
    def bare(name):
        B = io.load_bialgebra(CORPUS / name)
        assert not (B.has_algebra or B.has_coalgebra)
        return B

    def test_primitives_without_coproduct(self):
        with pytest.raises(ValueError, match="no coalgebra structure"):
            primitives(self.bare("lie_sl2.json"))

    def test_primitives_without_unit(self):
        A = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        coalg_only = FinBialgebra(Q, 3, A.basis, comult=A.comult,
                                  counit=A.counit)
        with pytest.raises(ValueError, match="no algebra structure"):
            primitives(coalg_only)

    @pytest.mark.parametrize("kind", ["coalgebra", "bialgebra"])
    def test_coalgebra_kinds_bare_source(self, kind):
        B = self.bare("lie_sl2.json")
        A = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        f = BialgebraMorphism(B, A, Matrix.identity(Q, 3))
        with pytest.raises(ValueError, match="structure present on the "
                                             "source"):
            check_morphism(f, kind)

    @pytest.mark.parametrize("kind", ["coalgebra", "bialgebra"])
    def test_coalgebra_kinds_bare_target(self, kind):
        B = self.bare("rep_s3_standard.json")
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        f = BialgebraMorphism(A, B, Matrix.identity(Q, 2))
        with pytest.raises(ValueError, match="structure present on the "
                                             "target"):
            check_morphism(f, kind)

    def test_coalgebra_kind_names_the_coproduct(self):
        # an algebra-only target: the coalgebra kind misses the coproduct
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        alg_only = FinBialgebra(Q, 2, A.basis, A.mult, A.unit)
        f = BialgebraMorphism(A, alg_only, Matrix.identity(Q, 2))
        with pytest.raises(ValueError, match="no coalgebra structure "
                                             "present on the target"):
            check_morphism(f, "coalgebra")
        assert check_morphism(f, "algebra").passed

    def test_algebra_kind_bare_source(self):
        B = self.bare("rep_s3_standard.json")
        A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
        f = BialgebraMorphism(B, A, Matrix.identity(Q, 2))
        with pytest.raises(ValueError, match="no algebra structure present "
                                             "on the source"):
            check_morphism(f, "algebra")

    def test_algebra_kind_bare_target(self):
        B = self.bare("lie_sl2.json")
        A = monoid_algebra(FiniteMonoid.cyclic(3), Q)
        f = BialgebraMorphism(A, B, Matrix.identity(Q, 3))
        with pytest.raises(ValueError, match="no algebra structure present "
                                             "on the target"):
            check_morphism(f, "algebra")
