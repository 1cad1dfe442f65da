import copy
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from hopfdual import io, lie
from hopfdual.bialgebra import same_structure
from hopfdual.exact import FieldSpec, Matrix
from hopfdual.lie import (LieAlgebra, TensorAlgebraOracle,
                          TruncatedEnveloping, TruncationOverflow,
                          coproduct_on_U, coproduct_work, dist_at_identity,
                          divided_power_bialgebra, enveloping_truncated,
                          graded_check, graded_piece, iadic_graded,
                          lie_morphism_functor, line_product_work,
                          oracle_work, primitives_of_U, symmetrized_pairing,
                          verify_lie)
from hopfdual.monoids import BudgetExceeded

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)
ROOT = Path(__file__).resolve().parents[1]
LIE_FILES = sorted((ROOT / "src" / "hopfdual" / "corpus").glob("lie_*.json")) \
    + [ROOT / "tests" / "data" / "lie_sl2_f7.json"]


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

    def test_pairs_in_range_are_the_defined_products(self):
        U = enveloping_truncated(LieAlgebra.sl2(Q), 3)
        pairs = list(U.pairs_in_range())
        assert pairs == sorted(pairs)
        for a, b in itertools.product(range(U.dim), repeat=2):
            if (a, b) in pairs:
                U.product_monomials(a, b)
            else:
                with pytest.raises(TruncationOverflow):
                    U.product_monomials(a, b)

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

    def test_truncation_has_no_size_cap(self):
        # the sweeps over the truncation are bounded by their budgets;
        # building its basis is linear in its size
        U = TruncatedEnveloping(LieAlgebra.abelian(Q, 7), 8)
        assert U.dim == math.comb(15, 8) == 6435

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

    def test_failing_products_names_the_wrong_pairs_in_basis_order(self):
        heis = LieAlgebra.heisenberg(Q)
        U = enveloping_truncated(heis, 2)
        oracle = TensorAlgebraOracle(heis, 2)
        assert oracle.failing_products(U) == []
        x, y, z = (U.index[m] for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        # y x without its bracket term -z, and z x = 2 xz
        U._products[(y, x)] = {U.index[(1, 1, 0)]: Q.one}
        U._products[(z, x)] = {U.index[(1, 0, 1)]: Q.from_int(2)}
        assert oracle.failing_products(U) == [
            (U.names[a], U.names[b]) for a, b in sorted([(y, x), (z, x)])]


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


# -- memoized straightening against the work-list reference ---------------------

def words_up_to(dim, order):
    return [w for n in range(order + 1)
            for w in itertools.product(range(dim), repeat=n)]


@pytest.mark.parametrize("path", LIE_FILES, ids=lambda p: p.stem)
def test_normal_forms_match_the_work_list(path):
    L = io.load_lie(path)
    U = TruncatedEnveloping(L, 4)
    for w in words_up_to(L.dim, 4):
        assert U.normal_form(w) == ref.normal_form(U, w)
    # and straightening longest words first, on a fresh truncation
    V = TruncatedEnveloping(L, 4)
    for w in reversed(words_up_to(L.dim, 4)):
        assert V.normal_form(list(w)) == ref.normal_form(V, w)


@st.composite
def bracket_tables(draw, field):
    """Any antisymmetric bracket table on 1 to 3 letters, Jacobi or not,
    with a word to straighten at order 4."""
    dim = draw(st.integers(1, 3))
    if field.p:
        coeff = st.integers(0, field.p - 1)
    else:
        coeff = st.fractions(-3, 3, max_denominator=4).map(
            lambda x: field.add(field.zero, x))
    brackets = {(i, j): {k: draw(coeff) for k in range(dim)}
                for i in range(dim) for j in range(i + 1, dim)}
    word = draw(st.lists(st.integers(0, dim - 1), max_size=4))
    return LieAlgebra(field, [f"x{i}" for i in range(dim)], brackets), word


@pytest.mark.parametrize("field", (Q, F5), ids=("Q", "F5"))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normal_forms_match_on_any_bracket_table(field, data):
    L, word = data.draw(bracket_tables(field))
    U = TruncatedEnveloping(L, 4)
    assert U.normal_form(word) == ref.normal_form(U, word)
    for a in range(U.dim):
        for b in range(U.dim):
            if U.degree(a) + U.degree(b) <= 4:
                assert U.product_monomials(a, b) == ref.normal_form(
                    U, U.word_of(U.monomials[a]) + U.word_of(U.monomials[b]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=7))
def test_rearrangements_match_the_permutation_sweep(word):
    assert list(lie._rearrangements(word)) == ref.distinct_rearrangements(
        word)


def test_overflow_before_straightening():
    U = enveloping_truncated(LieAlgebra.sl2(Q), 2)
    with pytest.raises(TruncationOverflow):
        U.normal_form((1, 0, 2))
    assert U._normal_forms == {}


def test_deep_word_straightens_without_recursion():
    # [x, y] = y, so y x = (x - 1) y and y^30 x^30 = (x - 30)^30 y^30;
    # the first swap chain alone is 30 * 30 inversions deep
    L = LieAlgebra(Q, ("x", "y"), {(0, 1): {1: Q.one}})
    U = TruncatedEnveloping(L, 60)
    got = U.normal_form((1,) * 30 + (0,) * 30)
    assert got == {U.index[(k, 30)]: math.comb(30, k) * (-30) ** (30 - k)
                   for k in range(31)}


# -- the caches --------------------------------------------------------------------

def assert_caches_hold_normal_forms(U):
    """Every cached word and product still maps to its reference form."""
    for w, form in U._normal_forms.items():
        assert form == ref.normal_form(U, w)
    for (a, b), form in U._products.items():
        assert form == ref.normal_form(
            U, U.word_of(U.monomials[a]) + U.word_of(U.monomials[b]))


def test_each_word_and_pair_is_straightened_once():
    U = enveloping_truncated(LieAlgebra.sl2(Q), 4)
    first = {(a, b): U.product_monomials(a, b) for a in range(U.dim)
             for b in range(U.dim) if U.degree(a) + U.degree(b) <= 4}
    assert all(U.product_monomials(a, b) is form
               for (a, b), form in first.items())
    assert U.normal_form((1, 0)) is U.normal_form([1, 0])


@pytest.mark.parametrize("L", [LieAlgebra.sl2(Q), LieAlgebra.heisenberg(Q)],
                         ids=("sl2", "heisenberg"))
def test_cached_forms_survive_every_caller(L):
    U = enveloping_truncated(L, 4)
    for w in words_up_to(L.dim, 4):
        U.normal_form(w)
    for a in range(U.dim):
        for b in range(U.dim):
            if U.degree(a) + U.degree(b) <= 4:
                U.product_monomials(a, b)
    snapshot = copy.deepcopy((U._normal_forms, U._products))
    assert coproduct_on_U(U)[1].passed
    assert graded_check(U).passed
    assert len(primitives_of_U(U)) == L.dim
    oracle = TensorAlgebraOracle(L, 4)
    assert all(oracle.check_product(U, a, b) for a, b in U._products)
    assert (U._normal_forms, U._products) == snapshot
    assert_caches_hold_normal_forms(U)


def test_morphism_functor_leaves_its_caches_intact(monkeypatch):
    made = []

    class Recorded(TruncatedEnveloping):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    monkeypatch.setattr(lie, "TruncatedEnveloping", Recorded)
    heis = LieAlgebra.heisenberg(Q)
    fmat = Matrix.from_int_rows(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    F, rep = lie_morphism_functor(fmat, heis, heis, 3)
    assert rep.passed and F == Matrix.identity(Q, F.rows)
    assert len(made) == 2 and all(U._products for U in made)
    for U in made:
        assert_caches_hold_normal_forms(U)


# -- the oracle --------------------------------------------------------------------

@pytest.mark.parametrize("path", LIE_FILES, ids=lambda p: p.stem)
def test_longest_first_oracle_matches_the_ascending_one(path):
    L = io.load_lie(path)
    U = TruncatedEnveloping(L, 3)
    new, old = TensorAlgebraOracle(L, 3), ref.AscendingOracle(L, 3)
    assert new.ideal.dim == old.ideal.dim
    assert sorted(new.words) == sorted(old.words)
    f = L.field
    for a in range(U.dim):
        for b in range(U.dim):
            if U.degree(a) + U.degree(b) > 3:
                continue
            assert new.check_product(U, a, b) == old.check_product(U, a, b)
            # and on an expansion with its leading coefficient moved by one
            word = U.word_of(U.monomials[a]) + U.word_of(U.monomials[b])
            wrong = {U.word_of(U.monomials[k]): c
                     for k, c in U.product_monomials(a, b).items()}
            top = max(wrong, key=lambda w: (len(w), w))
            wrong[top] = f.add(wrong[top], f.one)
            assert new.equal_mod_ideal({word: f.one}, wrong) \
                == old.equal_mod_ideal({word: f.one}, wrong)


def test_oracle_work_counts_rows_times_width():
    for L, N in ((LieAlgebra.sl2(Q), 3), (LieAlgebra.heisenberg(Q), 4),
                 (LieAlgebra.abelian(Q, 1), 3)):
        oracle = ref.AscendingOracle(L, N)
        rows = sum(1 for i in range(L.dim) for j in range(i + 1, L.dim)
                   for u in oracle.words for v in oracle.words
                   if len(u) + 2 + len(v) <= N)
        assert oracle_work(L.dim, N) == rows * len(oracle.words)
    assert oracle_work(3, 6) == 1_793_613
    assert oracle_work(6, 5) == 137_865_525


def test_coproduct_work_counts_the_delta_sweep_pairs():
    for L, N in ((LieAlgebra.sl2(Q), 3), (LieAlgebra.heisenberg(Q), 2),
                 (LieAlgebra.abelian(Q, 1), 6)):
        U = enveloping_truncated(L, N)
        read = sum(len(U.comult_monomial(a)) * len(U.comult_monomial(b))
                   for a in range(U.dim) for b in range(U.dim)
                   if U.degree(a) + U.degree(b) <= N)
        assert coproduct_work(L.dim, N) == read
    assert coproduct_work(3, 3) == 455
    assert coproduct_work(1, 100) == 4_598_126
    assert coproduct_work(3, 0) == coproduct_work(3, -5) == 0
    # never below the truncation's basis, so it bounds building U too
    assert all(coproduct_work(d, N) >= math.comb(N + d, N)
               for d in range(1, 8) for N in range(1, 12))


@pytest.mark.parametrize("preset", ("ga", "gm"))
def test_line_product_work_bounds_the_line_sweep(preset):
    N = 6
    D, _ = dist_at_identity(preset, N, Q)
    powers = [D.basis_vec(0)]
    for _ in range(N):
        powers.append(D.mul_vec(powers[-1], D.basis_vec(1)))
    support = [sum(1 for c in v if c) for v in powers]
    read = sum(support[i] * support[j]
               for i in range(N + 1) for j in range(N + 1 - i))
    assert read <= line_product_work(N) == (N + 1) ** 3 * (N + 2) // 2
    assert line_product_work(4) == 375
    assert line_product_work(160) == 338_035_761
    assert line_product_work(-1000000) == line_product_work(0) == 1


def test_oracle_refuses_over_budget_before_building():
    sl2 = LieAlgebra.sl2(Q)
    assert oracle_work(3, 3) == 840
    with pytest.raises(BudgetExceeded, match="840 .* exceeds budget 839"):
        TensorAlgebraOracle(sl2, 3, budget=839)
    assert TensorAlgebraOracle(sl2, 3, budget=oracle_work(3, 3)).ideal.dim
