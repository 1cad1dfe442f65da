import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from conftest import is_canonical
from hopfdual.exact import (_PACKED_WIDTH, FieldMismatch, FieldSpec, Matrix,
                            Span, augment, block_diag, inverse, kernel_basis,
                            kron, lincomb, rref, solve, solve_many, span_of,
                            stack, vbasis)

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

    def test_shared_rational_zero_and_one(self):
        assert Q.zero is Q.zero and Q.one is Q.one
        assert type(Q.zero) is type(Q.one) is int

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


def columns(field, rows, vectors):
    """The rows x len(vectors) matrix with the given columns."""
    return Matrix(field, [[v[i] for v in vectors] for i in range(rows)],
                  cols=len(vectors))


@given(low_rank_system(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_many_matches_per_vector_solve(system, data):
    field, m = system
    # denominators in m and in the right-hand sides that need not agree
    third = field.inv(field.from_int(3))
    if data.draw(st.booleans()):
        m = m.scale(third)
    vec = st.lists(small_int, min_size=m.cols, max_size=m.cols)
    xs = data.draw(st.lists(vec, max_size=4))
    rhs = [m.apply(tuple(field.mul(field.from_int(x), third) for x in xv))
           for xv in xs]
    sols = solve_many(m, columns(field, m.rows, rhs))
    assert_shape_and_scalars(sols, m.cols, len(rhs))
    assert [sols.column(j) for j in range(len(rhs))] == \
        [solve(m, b) for b in rhs]
    assert m * sols == columns(field, m.rows, rhs)
    # one arbitrary right-hand side, anywhere in the batch
    extra = tuple(field.from_int(x) for x in data.draw(
        st.lists(small_int, min_size=m.rows, max_size=m.rows)))
    at = data.draw(st.integers(0, len(rhs)))
    batch = rhs[:at] + [extra] + rhs[at:]
    sols = solve_many(m, columns(field, m.rows, batch))
    if _in_column_space(m, extra):
        assert [sols.column(j) for j in range(len(batch))] == \
            [solve(m, b) for b in batch]
    else:
        assert solve(m, extra) is None
        assert sols is None


@given(low_rank_system())
@settings(max_examples=60, deadline=None)
def test_inverse_is_solve_many_on_identity_columns(system):
    field, m = system
    if m.rows != m.cols:
        return
    n = m.rows
    cols = [solve(m, vbasis(field, n, i)) for i in range(n)]
    inv = inverse(m)
    if None in cols:
        assert inv is None and rref(m).rank < n
    else:
        assert inv == Matrix.from_columns(field, cols)
        assert inv * m == Matrix.identity(field, n)


def test_solve_many_no_rhs_and_length_check():
    m = Matrix.from_int_rows(Q, [[1, 2], [2, 4]])
    assert solve_many(m, columns(Q, 2, [])) == Matrix(Q, [[], []], cols=0)
    with pytest.raises(ValueError):
        solve_many(m, Matrix(Q, [[1]]))
    with pytest.raises(FieldMismatch):
        solve_many(m, Matrix(F5, [[1], [2]]))


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


# -- integer-row kernel vs the per-scalar reference ----------------------------

KERNEL_FIELDS = (Q, F2, F5, FieldSpec.prime(2_147_483_647))
dims = st.integers(0, 4)


def scalars(field):
    """Scalars of the field, zero often; over Q small integers and
    fractions with denominators up to 10**6."""
    if field.p:
        return st.one_of(st.just(0), st.integers(0, field.p - 1))
    return st.one_of(
        st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
        st.builds(Fraction, st.integers(-10**6, 10**6),
                  st.integers(1, 10**6)))


def matrices(field, rows, cols):
    return st.lists(st.lists(scalars(field), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda e: Matrix(field, e, cols=cols))


def assert_scalars(field, values):
    for x in values:
        assert is_canonical(field, x), (field, x)


def assert_normal(m):
    """The int form is the unique one: over Q a positive denominator with
    no factor common to all the entries, over F_p entries in [0, p) over
    1."""
    assert len(m.ints) == m.rows
    assert all(len(row) == m.cols for row in m.ints)
    flat = [x for row in m.ints for x in row]
    assert all(type(x) is int for x in flat) and type(m.den) is int
    if m.field.p:
        assert m.den == 1 and all(0 <= x < m.field.p for x in flat)
    else:
        assert m.den > 0 and math.gcd(m.den, *flat) == 1


def assert_shape_and_scalars(m, rows, cols):
    assert (m.rows, m.cols) == (rows, cols)
    assert_normal(m)
    assert_scalars(m.field, [x for row in m.entries for x in row])


@given(st.sampled_from(KERNEL_FIELDS), dims, dims, dims, st.data())
@settings(max_examples=150, deadline=None)
def test_products_match_reference(field, r, k, c, data):
    a = data.draw(matrices(field, r, k))
    b = data.draw(matrices(field, k, c))
    got = a * b
    assert got == ref.matmul(a, b)
    assert_shape_and_scalars(got, r, c)
    (v,) = data.draw(matrices(field, 1, k)).entries
    got = a.apply(v)
    assert got == ref.apply(a, v) and len(got) == r
    assert_scalars(field, got)


@given(st.sampled_from(KERNEL_FIELDS), dims, dims, dims, st.booleans(),
       st.data())
@settings(max_examples=150, deadline=None)
def test_rref_matches_reference(field, r, c, inner, low_rank, data):
    if low_rank:
        m = ref.matmul(data.draw(matrices(field, r, inner)),
                       data.draw(matrices(field, inner, c)))
    else:
        m = data.draw(matrices(field, r, c))
    got = rref(m)
    assert got == ref.rref(m)
    assert_shape_and_scalars(got.reduced, r, c)


@given(st.sampled_from(KERNEL_FIELDS), dims, dims, st.data())
@settings(max_examples=100, deadline=None)
def test_lincomb_matches_reference(field, r, c, data):
    terms = data.draw(st.lists(
        st.tuples(scalars(field), matrices(field, r, c)), max_size=4))
    got = lincomb(field, r, c, terms)
    assert got == ref.lincomb(field, r, c, terms)
    assert_shape_and_scalars(got, r, c)


def assert_same(got, want):
    """Equal entries and shape, and got in normal form."""
    assert got.entries == want.entries
    assert_shape_and_scalars(got, want.rows, want.cols)


@given(st.sampled_from(KERNEL_FIELDS), dims, dims, st.data())
@settings(max_examples=150, deadline=None)
def test_elementwise_ops_match_reference(field, r, c, data):
    a = data.draw(matrices(field, r, c))
    b = data.draw(matrices(field, r, c))
    k = data.draw(scalars(field))
    assert_shape_and_scalars(a, r, c)
    assert_same(a + b, ref.matadd(a, b))
    assert_same(a - b, ref.matsub(a, b))
    assert_same(a.scale(k), ref.matscale(a, k))
    assert_same(a.transpose(), ref.transpose(a))
    assert a.is_zero() == ref.is_zero(a)
    assert (a - a).is_zero() and (a.scale(field.zero)).is_zero()
    for other in (b, (a + b) - b, Matrix(field, a.entries, cols=c)):
        assert (a == other) == ref.equal(a, other)
        if a == other:
            assert hash(a) == hash(other)
    assert (a + b) - b == a


@given(st.sampled_from(KERNEL_FIELDS), dims, dims, dims, dims, st.data())
@settings(max_examples=100, deadline=None)
def test_kron_matches_reference(field, r, c, s, t, data):
    a = data.draw(matrices(field, r, c))
    b = data.draw(matrices(field, s, t))
    assert_same(kron(a, b), ref.kron(a, b))


def test_sums_keep_their_errors():
    a = Matrix.identity(Q, 2)
    for op in (Matrix.__add__, Matrix.__sub__):
        with pytest.raises(FieldMismatch):
            op(a, Matrix.identity(F5, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, Matrix.identity(Q, 3))


@given(st.sampled_from(KERNEL_FIELDS), st.lists(st.tuples(dims, dims),
                                                max_size=3), st.data())
@settings(max_examples=100, deadline=None)
def test_block_diag_matches_stacked_padded_rows(field, shapes, data):
    """block_diag is the stack of each block's rows between zero blocks,
    in normal form; a block of another field is refused."""
    blocks = [data.draw(matrices(field, r, c)) for r, c in shapes]
    got = block_diag(field, blocks)
    rows = sum(r for r, _ in shapes)
    cols = sum(c for _, c in shapes)
    assert_shape_and_scalars(got, rows, cols)
    top = left = 0
    for m in blocks:
        band = augment(augment(Matrix.zero(field, m.rows, left), m),
                       Matrix.zero(field, m.rows, cols - left - m.cols))
        assert Matrix(field, got.entries[top:top + m.rows], cols=cols) == band
        top, left = top + m.rows, left + m.cols
    other = F2 if field != F2 else Q
    with pytest.raises(FieldMismatch):
        block_diag(field, blocks + [Matrix.identity(other, 1)])


@given(st.sampled_from(KERNEL_FIELDS), dims, st.integers(0, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_shift_and_power_match_reference(field, n, e, data):
    m = data.draw(matrices(field, n, n))
    k = data.draw(scalars(field))
    ident = Matrix.identity(field, n)
    assert_same(m.shift(k), ref.matadd(m, ref.matscale(ident, k)))
    want = ident
    for _ in range(e):
        want = ref.matmul(want, m)
    assert_same(m ** e, want)


def test_entries_view_gives_the_field_scalars():
    m = Matrix(Q, [[1, 2], [3, 4]])
    assert (m.ints, m.den) == (((1, 2), (3, 4)), 1)
    assert_scalars(Q, [x for row in m.entries for x in row])
    m = Matrix(Q, [[Fraction(2, 4), Fraction(-6, 8)]])
    assert (m.ints, m.den) == (((2, -3),), 4)
    assert m.entries == ((Fraction(1, 2), Fraction(-3, 4)),)
    assert Matrix(Q, [[Fraction(1, 3)]]).scale(Fraction(3)).den == 1
    halves = Matrix(Q, [[Fraction(1, 2), Fraction(3, 2)]])
    assert halves.ints == Matrix(Q, [[1, 3]]).ints
    assert halves != Matrix(Q, [[1, 3]])
    m = Matrix(F5, [[7, -1]])
    assert m.ints == m.entries == ((2, 4),) and m.den == 1
    assert m == Matrix(F5, [[2, 4]]) and hash(m) == hash(Matrix(F5, [[2, 4]]))


def test_product_through_an_empty_inner_dimension():
    for field in (Q, F5):
        a = Matrix(field, [[], []], cols=0)
        got = a * Matrix(field, [], cols=3)
        assert got == Matrix.zero(field, 2, 3)
        assert_shape_and_scalars(got, 2, 3)


def test_no_rows_keep_the_width():
    empty = Matrix(Q, [], cols=3)
    ech = rref(empty)
    assert ech.rank == 0 and (ech.reduced.rows, ech.reduced.cols) == (0, 3)
    assert stack([empty, empty]).cols == 3
    assert kron(Matrix(Q, [], cols=2), Matrix.identity(Q, 2)).cols == 4


@st.composite
def span_programs(draw):
    """A field, a width, a sequence of (operation, vector) calls and the
    index of the call before which the span is copied. The vectors are
    fresh, zero, repeated, or sums of multiples of earlier ones, so that
    both members and non-members come up. Widths reach past
    ``_PACKED_WIDTH``, so that spans over F_p with list rows and with
    packed rows both run, and 40 calls reach full rank, where packed
    lanes grow the most."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    width = draw(st.integers(0, 24))
    seen = [(field.zero,) * width]
    calls = []
    # a filling program mostly adds fresh vectors
    fill = 4 * draw(st.booleans()) + 1
    kinds = ("fresh",) * fill + ("zero", "repeat", "combine")
    ops = ("add",) * fill + ("contains", "reduce")
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            vec = tuple(draw(st.lists(scalars(field), min_size=width,
                                      max_size=width)))
        elif kind == "zero":
            vec = (field.zero,) * width
        elif kind == "repeat":
            vec = draw(st.sampled_from(seen))
        else:
            u, w = draw(st.sampled_from(seen)), draw(st.sampled_from(seen))
            c = draw(scalars(field))
            vec = tuple(field.add(field.mul(c, x), y) for x, y in zip(u, w))
        seen.append(vec)
        calls.append((draw(st.sampled_from(ops)), vec))
    return field, width, calls, draw(st.integers(0, len(calls)))


def assert_same_rows(sp, want):
    """The int rows of sp, read as ``bialgebra.subalgebra_span`` reads
    them, are the reference's echelon rows up to a nonzero scalar each
    (over F_p exactly them)."""
    rows = sp.rows
    assert len(rows) == want.dim and sp.pivots == want.pivots
    for row, c, ref_row in zip(rows, sp.pivots, want.rows):
        assert len(row) == sp.width and all(type(x) is int for x in row)
        if sp.field.p:
            assert list(row) == list(ref_row)
        else:
            assert [Fraction(x, row[c]) for x in row] == list(ref_row)


@given(span_programs())
@settings(max_examples=200, deadline=None)
def test_span_matches_reference(program):
    field, width, calls, fork = program
    sp, want = Span(field, width), ref.Span(field, width)
    for i, (op, vec) in enumerate(calls):
        if i == fork:
            # the copy carries on; the original must not move with it
            kept, sp = sp, sp.copy()
            kept_rows, kept_basis = list(map(list, kept.rows)), kept.basis()
        got = getattr(sp, op)(vec)
        assert got == getattr(want, op)(vec)
        if op == "reduce":
            assert_scalars(field, got)
        if op == "contains":
            assert got == (want.coordinates(vec) is not None)
        assert sp.dim == want.dim
        assert sp.basis() == want.basis()
        assert_scalars(field, [x for row in sp.basis() for x in row])
    assert_same_rows(sp, want)
    event(f"{'packed' if sp._w else 'list'} rows, "
          f"{'full' if sp.dim == width else 'partial'} rank")
    if fork < len(calls):
        assert list(map(list, kept.rows)) == kept_rows
        assert kept.basis() == kept_basis


@given(st.sampled_from([f for f in KERNEL_FIELDS if f.p]),
       st.integers(_PACKED_WIDTH, 24), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_packed_span_filled_to_full_rank(field, width, seed):
    """Packed rows up to full rank, half the entries p - 1: every stored
    row takes large multiples of the later rows, and a reduction of a
    vector of p - 1's takes p - 1 times every row, the sums the lanes are
    sized for."""
    p, rng = field.p, random.Random(seed)
    sp, want = Span(field, width), ref.Span(field, width)
    while sp.dim < width:
        vec = tuple(rng.choice((p - 1, rng.randrange(p)))
                    for _ in range(width))
        assert sp.add(vec) == want.add(vec)
        assert_same_rows(sp, want)
    assert sp._w is not None
    probe = (p - 1,) * width
    assert sp.reduce(probe) == (0,) * width and sp.contains(probe)
    assert sp.contains_terms({0: p - 1, width - 1: 1})
    assert rref(Matrix(field, [probe] * 2 + sp.basis())).reduced.entries[
        :width] == tuple(sp.basis())


def test_span_rejects_a_vector_of_the_wrong_length():
    sp = Span(Q, 3)
    for op in (sp.add, sp.contains, sp.reduce):
        for vec in ((Q.one, Q.zero), (Q.one,) * 4):
            with pytest.raises(ValueError, match="length"):
                op(vec)
    assert sp.dim == 0
    sp.add((Q.one, Q.zero, Q.zero))
    assert not sp.contains((Q.one, Q.zero, Fraction(5)))
