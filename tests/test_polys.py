"""The Hessenberg characteristic polynomial and the Cantor-Zassenhaus
factoring in ``hopfdual.polys`` against the slow routines they replaced
(``reference_kernel``): minor expansion over column subsets and trial
division over every monic candidate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from conftest import is_canonical
from hopfdual.exact import FieldSpec, Matrix
from hopfdual.polys import (char_poly, degree, eval_at_matrix,
                            factor_monic_fp, mul)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)
BIG = FieldSpec.prime(2**31 - 1)

# Largest degree at which trial division over F_p stays cheap: it tries the
# p^d monic candidates of every degree d up to half the degree.
TRIAL_DEGREE = {2: 10, 3: 8, 5: 6, 31: 5, 101: 3}


def scalars(field):
    if field.p is None:
        return st.builds(Fraction, st.integers(-10**6, 10**6),
                         st.integers(1, 10**6))
    return st.integers(0, field.p - 1)


@st.composite
def square_matrices(draw, field, max_n=7):
    """Dense or sparse n x n matrices, 0 <= n <= max_n."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    rows = [[draw(scalars(field))
             if draw(st.floats(0, 1)) < density else field.zero
             for _ in range(n)] for _ in range(n)]
    return Matrix(field, rows, cols=n)


def monic(field, tail):
    return tuple(field.from_int(c) for c in tail) + (field.one,)


def power(field, q, e):
    out = (field.one,)
    for _ in range(e):
        out = mul(field, out, q)
    return out


@st.composite
def factored_inputs(draw):
    """A prime and a monic product of random monic polynomials with
    exponents up to 3 (so repeated factors and, for p <= 3, p-th powers),
    of degree at most TRIAL_DEGREE[p]."""
    p = draw(st.sampled_from(sorted(TRIAL_DEGREE)))
    f = FieldSpec.prime(p)
    poly = (f.one,)
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.integers(1, 3))
        e = draw(st.integers(1, 3))
        if degree(poly) + d * e > TRIAL_DEGREE[p]:
            break
        tail = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        poly = mul(f, poly, power(f, monic(f, tail), e))
    return f, poly


def check_factorization(field, poly, factors):
    """Every factor is monic and nonconstant, and the product of the
    factors to their multiplicities is poly."""
    prod = (field.one,)
    for q, e in factors.items():
        assert degree(q) >= 1 and q[-1] == field.one and e >= 1
        prod = mul(field, prod, power(field, q, e))
    assert prod == poly


class TestCharPoly:
    @pytest.mark.parametrize("field", [Q, F2, F5, BIG],
                             ids=["Q", "F2", "F5", "F2147483647"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_minor_expansion(self, field, data):
        m = data.draw(square_matrices(field))
        got = char_poly(m)
        assert got == ref.char_poly(m)
        assert len(got) == m.rows + 1 and got[-1] == field.one
        assert all(is_canonical(field, c) for c in got)

    @pytest.mark.parametrize("field", [Q, F2, F5, BIG],
                             ids=["Q", "F2", "F5", "F2147483647"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_eval_at_matrix_matches_horner_with_identity(self, field, data):
        m = data.draw(square_matrices(field, max_n=4))
        poly = tuple(data.draw(st.lists(scalars(field), max_size=4)))
        got = eval_at_matrix(field, poly, m)
        assert got == ref.eval_at_matrix(field, poly, m)
        assert got.entries == ref.eval_at_matrix(field, poly, m).entries

    def test_companion_matrix(self):
        # companion matrix of x^3 + 2x + 3 over F_5
        m = Matrix.from_int_rows(F5, [[0, 0, -3], [1, 0, -2], [0, 1, 0]])
        assert char_poly(m) == (3, 2, 0, 1)

    def test_needs_pivot_swap(self):
        # first column below the diagonal starts with a zero
        m = Matrix.from_int_rows(Q, [[1, 2, 3, 4], [0, 1, 0, 2],
                                     [5, 0, 2, 1], [7, 1, 0, 3]])
        assert char_poly(m) == ref.char_poly(m)

    def test_empty_and_non_square(self):
        assert char_poly(Matrix(Q, [], cols=0)) == (Q.one,)
        with pytest.raises(ValueError):
            char_poly(Matrix.zero(Q, 2, 3))


class TestFactor:
    @settings(max_examples=150, deadline=None)
    @given(factored_inputs())
    def test_matches_trial_division(self, case):
        field, poly = case
        got = factor_monic_fp(field, poly)
        check_factorization(field, poly, got)
        assert list(got.items()) == list(
            ref.factor_monic_fp(field, poly).items())

    @pytest.mark.parametrize("p, tail, e, want", [
        # (x^2 + x + 1)^2 over F_2: the derivative is zero
        (2, (1, 1), 2, {(1, 1, 1): 2}),
        # x^5 - 1 = (x - 1)^5 over F_5: the derivative is zero
        (5, (4, 0, 0, 0, 0), 1, {(4, 1): 5}),
        # (x^3 + x + 1)^4 over F_2: a p-th root taken twice
        (2, (1, 1, 0), 4, {(1, 1, 0, 1): 4}),
    ])
    def test_pth_powers(self, p, tail, e, want):
        f = FieldSpec.prime(p)
        poly = power(f, monic(f, tail), e)
        got = factor_monic_fp(f, poly)
        check_factorization(f, poly, got)
        assert got == want

    def test_equal_degree_split_over_f2(self):
        # the two irreducible cubics over F_2 share a distinct-degree part
        q1, q2 = (1, 1, 0, 1), (1, 0, 1, 1)
        poly = mul(F2, mul(F2, q1, q2), power(F2, (1, 1), 3))
        assert factor_monic_fp(F2, poly) == {(1, 1): 3, q1: 1, q2: 1}

    def test_large_prime_quadratic_factor(self):
        # x^2 + 1 is irreducible mod 2^31 - 1, which is 3 mod 4; trial
        # division would need about p^2 = 2^62 candidates
        p = BIG.p
        quad = (1, 0, 1)
        poly = mul(BIG, mul(BIG, quad, (p - 3, 1)), power(BIG, (p - 5, 1), 2))
        got = factor_monic_fp(BIG, poly)
        check_factorization(BIG, poly, got)
        assert got == {(p - 5, 1): 2, (p - 3, 1): 1, quad: 1}

    def test_constant_and_rejections(self):
        assert factor_monic_fp(F5, (1,)) == {}
        with pytest.raises(ValueError):
            factor_monic_fp(F5, (1, 2))
        with pytest.raises(ValueError):
            factor_monic_fp(Q, (Q.one,))
