"""``hopfdual.polys`` against the slow routines of ``reference_kernel``:
the delayed-reduction sums, products, remainders, gcds, modular powers and
Hessenberg characteristic polynomial against their one-call-per-scalar
versions, the characteristic polynomial against minor expansion over
column subsets, evaluation at a matrix against the reference's Horner
rule, the Cantor-Zassenhaus factoring against trial division over every
monic candidate and, up to degree 40, against products of irreducibles
known in advance, and the distinct-degree split against one p-th power
per degree."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from conftest import is_canonical
from hopfdual import polys
from hopfdual.exact import FieldSpec, Matrix
from hopfdual.polys import (add, char_poly, degree, divmod_poly,
                            eval_at_matrix, factor_monic_fp, gcd_poly, mul,
                            powmod, scale)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)
F31 = FieldSpec.prime(31)
F101 = FieldSpec.prime(101)
BIG = FieldSpec.prime(2**31 - 1)

FIELDS = [Q, F2, F31, F101, BIG]
FIELD_IDS = ["Q", "F2", "F31", "F101", "F2147483647"]

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


def coefficients(field):
    """Canonical scalars. Over F_p 0, 1 and p - 1 come often; over Q small
    fractions, and numerators within 2^8 of +-2^63 over denominators up
    to 2^40."""
    if field.p is not None:
        return st.one_of(st.sampled_from([0, 1, field.p - 1]),
                         st.integers(0, field.p - 1))
    near = st.integers(2**63 - 2**8, 2**63 + 2**8)
    numerators = st.one_of(st.integers(-9, 9), near, near.map(lambda n: -n))
    denominators = st.one_of(st.integers(1, 9), st.integers(1, 2**40))
    return st.builds(lambda n, d: Q.canonical(Fraction(n, d)), numerators,
                     denominators)


@st.composite
def polynomials(draw, field, max_degree=6, min_degree=-1):
    """Normalized polynomials of canonical coefficients, of degree
    min_degree to max_degree: the zero polynomial (degree -1), constants,
    and any nonzero leading coefficient, non-monic included."""
    d = draw(st.integers(min_degree, max_degree))
    if d < 0:
        return ()
    tail = draw(st.lists(coefficients(field), min_size=d, max_size=d))
    return tuple(tail) + (draw(coefficients(field).filter(bool)),)


def all_canonical(field, poly):
    return (type(poly) is tuple and all(is_canonical(field, c) for c in poly)
            and (not poly or poly[-1] != 0))


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


def _irreducibles_by_trial(field, top: int) -> list:
    """Every monic irreducible of degree 1..top over a small field, each
    certified by trial division."""
    out = []
    for d in range(1, top + 1):
        for tail in itertools.product(range(field.p), repeat=d):
            q = monic(field, tail)
            if ref.factor_monic_fp(field, q) == {q: 1}:
                out.append(q)
    return out


def _shifted_binomials(field, degrees, count: int) -> list:
    """count monic irreducibles of each degree, 1 and those given: x + c,
    and (x + c)^d - r, irreducible by Capelli's theorem when r is no l-th
    power for any prime l | d (each such l must divide p - 1 and 4 must
    not divide d) and so irreducible after the shift x -> x + c too."""
    p = field.p
    out = [monic(field, (c,)) for c in range(count)]
    for d in degrees:
        primes = [l for l in (2, 3, 5, 7) if d % l == 0]
        assert d % 4 and all((p - 1) % l == 0 for l in primes)
        rs = [r for r in range(2, 1000)
              if all(pow(r, (p - 1) // l, p) != 1 for l in primes)][:count]
        out += [add(field, power(field, monic(field, (c,)), d), (-r,))
                for c, r in enumerate(rs)]
    return out


F3 = FieldSpec.prime(3)
# monic irreducibles known without the factoring under test, per field
IRREDUCIBLES = {
    F2: _irreducibles_by_trial(F2, 5),
    F3: _irreducibles_by_trial(F3, 4),
    F101: _shifted_binomials(F101, (2, 5, 10), 3),
    BIG: _shifted_binomials(BIG, (2, 3, 6, 7, 9), 3),
}


@st.composite
def products_of_irreducibles(draw, squarefree=False):
    """(field, poly, factors): a product of degree <= 40 of irreducibles
    drawn from IRREDUCIBLES to exponents up to 3, or up to 2p for p <= 3
    so that p-th powers occur, and its factorization {q: e}; with
    squarefree, distinct irreducibles to the first power."""
    field = draw(st.sampled_from([F2, F3, F101, BIG]))
    top = 1 if squarefree else 2 * field.p if field.p <= 3 else 3
    poly, factors = (field.one,), {}
    for _ in range(draw(st.integers(0, 10))):
        q = draw(st.sampled_from(IRREDUCIBLES[field]))
        e = draw(st.integers(1, top))
        if degree(poly) + degree(q) * e > 40 or (squarefree and q in factors):
            continue
        poly = mul(field, poly, power(field, q, e))
        factors[q] = factors.get(q, 0) + e
    return field, poly, factors


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


class TestArithmetic:
    """Each delayed-reduction routine against its one-call-per-scalar
    oracle, with canonical results."""

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_add_mul_scale(self, field, data):
        a = data.draw(polynomials(field))
        b = data.draw(polynomials(field))
        c = data.draw(coefficients(field))
        for got, want in ((add(field, a, b), ref.poly_add(field, a, b)),
                          (mul(field, a, b), ref.poly_mul(field, a, b)),
                          (scale(field, c, a), ref.poly_scale(field, c, a))):
            assert got == want
            assert all_canonical(field, got)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_divmod(self, field, data):
        a = data.draw(polynomials(field, max_degree=8))
        b = data.draw(polynomials(field, max_degree=4, min_degree=0))
        q, r = divmod_poly(field, a, b)
        assert (q, r) == ref.poly_divmod(field, a, b)
        assert all_canonical(field, q) and all_canonical(field, r)
        assert degree(r) < degree(b)
        assert ref.poly_add(field, ref.poly_mul(field, q, b), r) == a

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_divmod_of_a_raw_product(self, field, data):
        # powmod divides unreduced products: the division reduces them
        a = data.draw(polynomials(field, max_degree=4))
        b = data.draw(polynomials(field, max_degree=4))
        m = data.draw(polynomials(field, max_degree=3, min_degree=0))
        got = divmod_poly(field, polys._product(a, b), m)
        assert got == ref.poly_divmod(field, ref.poly_mul(field, a, b), m)
        assert all(all_canonical(field, x) for x in got)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod_poly(F5, (1, 2), ())

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_gcd(self, field, data):
        a = data.draw(polynomials(field, max_degree=5))
        b = data.draw(polynomials(field, max_degree=5))
        g = data.draw(polynomials(field, max_degree=2))
        a, b = mul(field, a, g), mul(field, b, g)
        got = gcd_poly(field, a, b)
        assert got == ref.poly_gcd(field, a, b)
        assert all_canonical(field, got)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_powmod(self, field, data):
        a = data.draw(polynomials(field, max_degree=5))
        mod = data.draw(polynomials(field, max_degree=4, min_degree=1))
        e = data.draw(st.integers(0, 12 if field.p is None else 200))
        got = powmod(field, a, e, mod)
        assert got == ref.poly_powmod(field, a, e, mod)
        assert all_canonical(field, got)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_char_poly_matches_the_hessenberg_oracle(self, field, data):
        n = data.draw(st.integers(0, 6))
        m = Matrix(field, [[data.draw(coefficients(field)) for _ in range(n)]
                           for _ in range(n)], cols=n)
        got = char_poly(m)
        assert got == ref.char_poly_hessenberg(m)
        assert all_canonical(field, got) and got[-1] == 1


class TestEvalAtMatrix:
    """Horner evaluation started at the top two coefficients, at every
    degree 0-12."""

    @pytest.mark.parametrize("d", range(13))
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_matches_horner(self, field, d, data):
        m = data.draw(square_matrices(field, max_n=3))
        poly = data.draw(polynomials(field, max_degree=d, min_degree=d))
        got = eval_at_matrix(field, poly, m)
        assert got == ref.eval_at_matrix(field, poly, m)

    @pytest.mark.parametrize("d", range(13))
    def test_product_count(self, d, monkeypatch):
        # d - 1 products; none for degree <= 1
        count = [0]
        product = Matrix.__mul__

        def counted(a, b):
            count[0] += 1
            return product(a, b)
        monkeypatch.setattr(Matrix, "__mul__", counted)
        m = Matrix.from_int_rows(F31, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
        poly = tuple(range(1, d + 2))
        got = eval_at_matrix(F31, poly, m)
        monkeypatch.undo()
        assert got == ref.eval_at_matrix(F31, poly, m)
        assert count[0] == max(d - 1, 0)

    def test_zero_polynomial_and_empty_matrix(self):
        m = Matrix.from_int_rows(F5, [[1, 2], [3, 4]])
        assert eval_at_matrix(F5, (), m) == Matrix.zero(F5, 2, 2)
        empty = Matrix(Q, [], cols=0)
        assert eval_at_matrix(Q, (1, 2, 3), empty) == empty


class TestFactor:
    @settings(max_examples=150, deadline=None)
    @given(factored_inputs())
    def test_matches_trial_division(self, case):
        field, poly = case
        got = factor_monic_fp(field, poly)
        check_factorization(field, poly, got)
        assert list(got.items()) == list(
            ref.factor_monic_fp(field, poly).items())

    @settings(max_examples=100, deadline=None)
    @given(products_of_irreducibles())
    def test_known_factorizations_up_to_degree_40(self, case):
        """Products of known irreducibles with repeated factors and, over
        F_2 and F_3, p-th powers (the p-th root branch of the square-free
        split) factor as built. Over F_2 and F_3 trial division agrees;
        over F_101 and F_2147483647 it would try too many candidates, and
        the irreducibles are certified by Capelli's theorem instead."""
        field, poly, factors = case
        got = factor_monic_fp(field, poly)
        check_factorization(field, poly, got)
        assert list(got.items()) == sorted(
            factors.items(), key=lambda t: (len(t[0]), t[0]))
        if field.p <= 3:
            assert got == ref.factor_monic_fp(field, poly)

    @settings(max_examples=100, deadline=None)
    @given(products_of_irreducibles(squarefree=True))
    def test_distinct_degree_matches_one_power_per_degree(self, case):
        field, poly, _ = case
        assert polys._distinct_degree(field, poly) == \
            ref.distinct_degree_by_powmod(field, poly)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_distinct_degree_on_random_squarefree(self, data):
        field = data.draw(st.sampled_from([F2, F3, F101, BIG]))
        tail = data.draw(st.lists(st.integers(0, field.p - 1), min_size=1,
                                  max_size=30))
        poly = monic(field, tail)
        deriv = polys.normalize(field, [i * c % field.p
                                        for i, c in enumerate(poly)][1:])
        assume(gcd_poly(field, poly, deriv) == (field.one,))
        assert polys._distinct_degree(field, poly) == \
            ref.distinct_degree_by_powmod(field, poly)

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
