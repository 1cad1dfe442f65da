import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfdual.exact import (FieldMismatch, FieldSpec, Matrix, inverse,
                            kernel_basis, kron, lincomb, rref, solve,
                            solve_many, span_of, vbasis)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F5 = FieldSpec.prime(5)


class TestFieldSpec:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            FieldSpec.prime(6)
        with pytest.raises(ValueError):
            FieldSpec.prime(2**31 + 11)
        assert FieldSpec.prime(2_147_483_647).p == 2**31 - 1

    def test_rational_strings(self):
        assert Q.format(Q.parse("2/4")) == "1/2"
        assert Q.format(Q.parse("-6/4")) == "-3/2"
        assert Q.format(Q.parse("7")) == "7"
        assert Q.parse("3/6") == Fraction(1, 2)

    def test_prime_field_strings(self):
        assert F5.parse("7") == 2
        assert F5.format(F5.parse("12")) == "2"
        assert F5.inv(2) == 3

    def test_bad_scalar(self):
        with pytest.raises(ValueError):
            Q.parse("1/0")
        with pytest.raises(ValueError):
            F5.parse("x")


class TestRref:
    def test_identity(self):
        ech = rref(Matrix.identity(Q, 2))
        assert ech.rank == 2 and ech.pivots == (0, 1)

    def test_proportional_rows(self):
        assert rref(Matrix.from_int_rows(Q, [[1, 2], [2, 4]])).rank == 1

    def test_f2_full_rank(self):
        # [[1,1],[1,2]] over F_2 is [[1,1],[1,0]]: determinant 1
        assert rref(Matrix.from_int_rows(F2, [[1, 1], [1, 2]])).rank == 2

    def test_idempotent(self):
        m = Matrix.from_int_rows(Q, [[2, 4, 1], [1, 2, 3], [3, 6, 4]])
        ech = rref(m)
        again = rref(ech.reduced)
        assert again.reduced == ech.reduced and again.pivots == ech.pivots

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            Matrix.identity(Q, 2) * Matrix.identity(F5, 2)


class TestKernel:
    def test_identity_empty(self):
        assert kernel_basis(Matrix.identity(Q, 3)) == []

    def test_zero_matrix(self):
        ker = kernel_basis(Matrix.zero(Q, 3, 3))
        assert len(ker) == 3

    def test_sum_zero_line(self):
        (v,) = kernel_basis(Matrix.from_int_rows(Q, [[1, 1]]))
        # spans {(1, -1)}
        assert v[0] == -v[1] != 0

    def test_rank_nullity(self):
        m = Matrix.from_int_rows(F5, [[1, 2, 3], [2, 4, 1]])
        assert rref(m).rank + len(kernel_basis(m)) == m.cols


class TestSolve:
    def test_identity(self):
        b = (Fraction(3), Fraction(-1))
        assert solve(Matrix.identity(Q, 2), b) == b

    def test_inconsistent(self):
        m = Matrix.from_int_rows(Q, [[1, 1], [2, 2]])
        assert solve(m, (Fraction(1), Fraction(3))) is None

    def test_free_variables_zero(self):
        m = Matrix.from_int_rows(Q, [[1, 1]])
        assert solve(m, (Fraction(2),)) == (Fraction(2), Fraction(0))


class TestKron:
    def test_identities(self):
        assert kron(Matrix.identity(Q, 2), Matrix.identity(Q, 3)) \
            == Matrix.identity(Q, 6)

    def test_first_entry(self):
        a = Matrix.from_int_rows(Q, [[3, 1], [0, 2]])
        b = Matrix.from_int_rows(Q, [[5, 0], [1, 1]])
        assert kron(a, b).entries[0][0] == a.entries[0][0] * b.entries[0][0]

    def test_mixed_product(self):
        a = Matrix.from_int_rows(Q, [[1, 2], [3, 4]])
        b = Matrix.from_int_rows(Q, [[0, 1], [1, 1]])
        c = Matrix.from_int_rows(Q, [[2, 0], [1, 1]])
        d = Matrix.from_int_rows(Q, [[1, 1], [0, 2]])
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_inverse_round_trip():
    m = Matrix.from_int_rows(Q, [[2, 1], [1, 1]])
    assert inverse(m) * m == Matrix.identity(Q, 2)
    assert inverse(Matrix.from_int_rows(Q, [[1, 2], [2, 4]])) is None


def test_span_membership():
    sp = span_of(Q, [(Fraction(1), Fraction(1), Fraction(0)),
                     (Fraction(0), Fraction(1), Fraction(1))], 3)
    assert sp.dim == 2
    assert sp.contains((Fraction(1), Fraction(2), Fraction(1)))
    assert not sp.contains((Fraction(1), Fraction(0), Fraction(0)))


# -- property tests --------------------------------------------------------------

small_int = st.integers(min_value=-9, max_value=9)


@st.composite
def rational_matrix(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = draw(st.lists(
        st.lists(small_int, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return Matrix.from_int_rows(Q, entries)


@given(rational_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_property(m):
    assert rref(m).rank + len(kernel_basis(m)) == m.cols


@given(rational_matrix())
@settings(max_examples=40, deadline=None)
def test_rref_idempotent_property(m):
    ech = rref(m)
    assert rref(ech.reduced).reduced == ech.reduced


@given(rational_matrix(max_dim=2), rational_matrix(max_dim=2),
       rational_matrix(max_dim=2), rational_matrix(max_dim=2))
@settings(max_examples=30, deadline=None)
def test_kron_mixed_product_property(a, b, c, d):
    if a.cols != c.rows or b.cols != d.rows:
        return
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


@given(small_int, st.integers(1, 50), small_int, st.integers(1, 50))
@settings(max_examples=200, deadline=None)
def test_exact_rational_addition_independent_path(a, b, c, d):
    # recompute (a/b) + (c/d) through raw big integers and a gcd reduction
    got = Fraction(a, b) + Fraction(c, d)
    num, den = a * d + c * b, b * d
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if den < 0:
        num, den = -num, -den
    assert (got.numerator, got.denominator) == (num, den)


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_kernel_vectors_annihilated(r, c):
    import random as _r
    rng = _r.Random(r * 13 + c)
    m = Matrix.from_int_rows(
        Q, [[rng.randint(-4, 4) for _ in range(c + 1)] for _ in range(r + 1)])
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.apply(v))


# -- batched solving and linear combinations ------------------------------------

FIELDS = (Q, F2, F5, FieldSpec.prime(7))


@st.composite
def low_rank_system(draw, max_dim=4):
    """(field, m) with m = L R through an inner dimension that is often
    smaller than both sides, so m is often rank deficient."""
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    inner = draw(st.integers(1, max_dim))

    def block(r, c):
        return Matrix.from_int_rows(field, draw(st.lists(
            st.lists(small_int, min_size=c, max_size=c),
            min_size=r, max_size=r)))
    return field, block(rows, inner) * block(inner, cols)


def _in_column_space(m, b):
    cols = [m.column(j) for j in range(m.cols)]
    return rref(Matrix.from_columns(m.field, cols + [b])).rank == rref(m).rank


@given(low_rank_system(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_many_matches_per_vector_solve(system, data):
    field, m = system
    vec = st.lists(small_int, min_size=m.cols, max_size=m.cols)
    xs = data.draw(st.lists(vec, max_size=4))
    rhs = [m.apply(tuple(field.from_int(x) for x in xv)) for xv in xs]
    sols = solve_many(m, rhs)
    assert sols == [solve(m, b) for b in rhs]
    for x, b in zip(sols, rhs):
        assert m.apply(x) == b
    # one arbitrary right-hand side, anywhere in the batch
    extra = tuple(field.from_int(x) for x in data.draw(
        st.lists(small_int, min_size=m.rows, max_size=m.rows)))
    at = data.draw(st.integers(0, len(rhs)))
    batch = rhs[:at] + [extra] + rhs[at:]
    if _in_column_space(m, extra):
        assert solve_many(m, batch) == [solve(m, b) for b in batch]
    else:
        assert solve(m, extra) is None
        assert solve_many(m, batch) is None


@given(low_rank_system())
@settings(max_examples=60, deadline=None)
def test_inverse_is_solve_many_on_identity_columns(system):
    field, m = system
    if m.rows != m.cols:
        return
    n = m.rows
    cols = solve_many(m, [vbasis(field, n, i) for i in range(n)])
    inv = inverse(m)
    if cols is None:
        assert inv is None and rref(m).rank < n
    else:
        assert inv == Matrix.from_columns(field, cols)
        assert inv * m == Matrix.identity(field, n)


def test_solve_many_no_rhs_and_length_check():
    m = Matrix.from_int_rows(Q, [[1, 2], [2, 4]])
    assert solve_many(m, []) == []
    with pytest.raises(ValueError):
        solve_many(m, [(Fraction(1),)])


@given(st.sampled_from(FIELDS), st.lists(
    st.tuples(small_int, st.lists(small_int, min_size=4, max_size=4)),
    max_size=4))
@settings(max_examples=60, deadline=None)
def test_lincomb_matches_scaled_sum(field, terms):
    terms = [(field.from_int(c), Matrix.from_int_rows(
        field, [entries[:2], entries[2:]])) for c, entries in terms]
    want = Matrix.zero(field, 2, 2)
    for c, m in terms:
        want = want + m.scale(c)
    assert lincomb(field, 2, 2, terms) == want


def test_lincomb_checks_shape_and_field():
    with pytest.raises(ValueError):
        lincomb(Q, 2, 2, [(Q.one, Matrix.identity(Q, 3))])
    with pytest.raises(FieldMismatch):
        lincomb(Q, 2, 2, [(Q.one, Matrix.identity(F5, 2))])
