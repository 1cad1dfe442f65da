"""The packed-row product and ``first_bad_product`` at their lane
boundaries, against the per-scalar reference product; the validations
that call ``first_bad_product`` against the per-pair reference loop; and
the regular representation written as int rows against its construction
from basis columns."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from conftest import random_invertible
from hopfdual import exact
from hopfdual import io as hio
from hopfdual.exact import (FieldMismatch, FieldSpec, Matrix,
                            first_bad_product, vbasis)
from hopfdual.lie import divided_power_bialgebra
from hopfdual.monoids import FiniteMonoid, monoid_algebra
from hopfdual.reps import AlgebraModule, Representation

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F7 = FieldSpec.prime(7)
F31 = FieldSpec.prime(31)
BIG = FieldSpec.prime(2_147_483_647)
FIELDS = (Q, F2, F31, BIG)
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"
dims = st.integers(0, 20)


def scalars(field):
    """Zero often; over Q integers and fractions with numerators around
    +-2^31, +-2^63 and +-2^100 and denominators up to 2^40, over F_p the
    residues near 0 and near p - 1 as well as any."""
    if field.p:
        return st.one_of(st.just(0), st.integers(0, field.p - 1),
                         st.integers(max(0, field.p - 3), field.p - 1))
    edge = st.builds(lambda e, d, s: s * ((1 << e) + d),
                     st.sampled_from((31, 63, 100)), st.integers(-2, 2),
                     st.sampled_from((1, -1)))
    numerators = st.one_of(st.integers(-9, 9), edge)
    return st.one_of(st.just(0), numerators,
                     st.builds(Fraction, numerators,
                               st.integers(1, 1 << 40)))


@st.composite
def matrices(draw, field, rows, cols):
    """Rows drawn as all zero, as permutation rows (one 1), or at
    random."""
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("zero", "unit", "any")))
        if kind == "zero" or (kind == "unit" and not cols):
            out.append([0] * cols)
        elif kind == "unit":
            out.append(list(vbasis(field, cols, draw(
                st.integers(0, cols - 1)))))
        else:
            out.append(draw(st.lists(scalars(field), min_size=cols,
                                     max_size=cols)))
    return Matrix(field, out, cols=cols)


def assert_normal(m):
    flat = [x for row in m.ints for x in row]
    assert type(m.ints) is tuple and all(type(r) is tuple for r in m.ints)
    assert len(m.ints) == m.rows and all(len(r) == m.cols for r in m.ints)
    if m.field.p:
        assert m.den == 1 and all(0 <= x < m.field.p for x in flat)
    else:
        from math import gcd
        assert m.den > 0 and gcd(m.den, *flat) == 1


@given(st.sampled_from(FIELDS), dims, dims, dims, st.data())
@settings(max_examples=120, deadline=None)
def test_products_at_lane_boundaries_match_reference(field, r, k, c, data):
    a = data.draw(matrices(field, r, k))
    b = data.draw(matrices(field, k, c))
    got = a * b
    assert got == ref.matmul(a, b)
    assert (got.rows, got.cols) == (r, c)
    assert_normal(got)


@given(st.integers(5, 20), dims, dims, st.data())
@settings(max_examples=40, deadline=None)
def test_wide_prime_lanes_match_reference(k, r, c, data):
    # k (p - 1)^2 > 2^64: the lanes are wider than 8 bytes
    top = st.integers(BIG.p - 3, BIG.p - 1)
    a = Matrix(BIG, data.draw(st.lists(st.lists(top, min_size=k, max_size=k),
                                       min_size=r, max_size=r)), cols=k)
    b = Matrix(BIG, data.draw(st.lists(st.lists(top, min_size=c, max_size=c),
                                       min_size=k, max_size=k)), cols=c)
    assert k * (BIG.p - 1) ** 2 > 2**64
    want = ref.matmul(a, b)
    assert a * b == want
    assert first_bad_product([(a, b, want)]) is None


BOUNDARY_BITS = (7, 8, 15, 16, 31, 32, 63, 64, 127, 128)


def test_products_at_each_lane_width_boundary():
    # lane values at 2^e - 1, 2^e and 2^e + 1 for every e where a lane of
    # 1, 2, 4, 8 or 16 bytes ends, signed or not
    for e in BOUNDARY_BITS:
        for x in ((1 << e) - 1, 1 << e, (1 << e) + 1):
            for s in (1, -1):
                for a, b in (([[1]], [[s * x]]), ([[s * x]], [[1]]),
                             ([[1, 1]], [[s * x, 0], [0, s * x]]),
                             ([[1, -1]], [[x, 1], [-x, s]]),
                             ([[1], [2]], [[s * x, -s * x]])):
                    a, b = Matrix(Q, a), Matrix(Q, b)
                    assert a * b == ref.matmul(a, b), (a, b)
    for p in (2, 3, 17, 257, 65537, 2_147_483_647):
        f = FieldSpec.prime(p)
        for k in (1, 2, 3, 4, 5):
            # every lane is the bound k (p - 1)^2 itself
            a = Matrix(f, [[p - 1] * k] * 2)
            b = Matrix(f, [[p - 1] * 3] * k)
            assert a * b == ref.matmul(a, b), (p, k)


def test_first_bad_product_lanes_do_not_alias():
    # in signed lanes of one byte [[254, 0]] and [[-2, 1]] are the same
    # int; the true lanes of a * b reach 254, so the width must exceed a
    # byte
    b = Matrix(Q, [[127, 0]])
    assert first_bad_product([(Matrix(Q, [[2]]), b,
                               Matrix(Q, [[-2, 1]]))]) == 0
    # the same with the factor den_c = 2 making the lane 254
    assert first_bad_product([(Matrix(Q, [[1]]), b,
                               Matrix(Q, [[-1, Fraction(1, 2)]]))]) == 0


def test_a_factor_used_again_at_another_lane_width():
    # a matrix keeps its packed rows; a left factor that needs wider
    # lanes must repack it, and a narrower one again after that
    b = Matrix(Q, [[1, -1, Fraction(1, 3)], [2, 3, -4], [0, 5, 1]])
    small = Matrix(Q, [[1, 0, 2], [0, -1, 0]])
    large = Matrix(Q, [[1 << 70, 1, 0], [0, -(1 << 70), 3]])
    for a in (small, large, small, large, small):
        assert a * b == ref.matmul(a, b)
        assert b * b.transpose() == ref.matmul(b, b.transpose())


@given(st.sampled_from(FIELDS), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_portable_lanes_match_reference(field, r, k, c, data):
    # with no machine integer codes (a big-endian machine) every lane is
    # packed and unpacked byte by byte
    a = data.draw(matrices(field, r, k))
    b = data.draw(matrices(field, k, c))
    want = ref.matmul(a, b)
    codes = dict(exact._LANE_CODES)
    exact._LANE_CODES.clear()
    try:
        assert a * b == want
        assert first_bad_product([(a, b, want)]) is None
    finally:
        exact._LANE_CODES.update(codes)


@given(st.booleans(), st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_sixteen_byte_lanes_unpack_as_from_bytes(signed, rows, cols, data):
    # 16-byte lanes are read as two 8-byte words each, the high one
    # signed if the lanes are; the extremes of both words are drawn often
    edges = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 127) - 1, (1 << 128) - 1,
             1 << 127, (1 << 127) + (1 << 63)]
    lane = st.one_of(st.sampled_from(edges), st.integers(0, (1 << 128) - 1))
    raw = [data.draw(lane) for _ in range(rows * cols)]
    packed = b"".join(x.to_bytes(16, "little") for x in raw)
    want = [[int.from_bytes(packed[j:j + 16], "little", signed=signed)
             for j in range(i, i + 16 * cols, 16)]
            for i in range(0, len(packed), 16 * cols)]
    assert exact._unpacked(packed, 16, cols, signed) == want
    codes = dict(exact._LANE_CODES)
    exact._LANE_CODES.clear()
    try:
        assert exact._unpacked(packed, 16, cols, signed) == want
    finally:
        exact._LANE_CODES.update(codes)


def reference_first_bad(triples):
    return next((i for i, (a, b, c) in enumerate(triples)
                 if not ref.equal(ref.matmul(a, b), c)), None)


def corrupt(m, i, j, step=1):
    f = m.field
    rows = [list(row) for row in m.entries]
    rows[i][j] = f.add(rows[i][j], f.from_int(step))
    return Matrix(f, rows)


@given(st.sampled_from(FIELDS), st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 12), st.data())
@settings(max_examples=80, deadline=None)
def test_first_bad_product_matches_reference(field, r, k, c, data):
    pool_a = data.draw(st.lists(matrices(field, r, k), min_size=1,
                                max_size=3))
    pool_b = data.draw(st.lists(matrices(field, k, c), min_size=1,
                                max_size=3))
    triples = []
    for _ in range(data.draw(st.integers(1, 6))):
        a, b = data.draw(st.sampled_from(pool_a)), \
            data.draw(st.sampled_from(pool_b))
        want = ref.matmul(a, b)
        if data.draw(st.booleans()):
            # one entry off by a drawn nonzero step; over Q a step of one
            # part in the denominator, the smallest change
            i, j = data.draw(st.integers(0, r - 1)), \
                data.draw(st.integers(0, c - 1))
            step = data.draw(st.sampled_from((1, -1, 2)))
            if field.p:
                want = corrupt(want, i, j, step)
            else:
                rows = [list(row) for row in want.entries]
                rows[i][j] += Fraction(step, want.den)
                want = Matrix(field, rows)
        triples.append((a, b, want))
    assert first_bad_product(triples) == reference_first_bad(triples)


def test_first_bad_product_shapes_and_fields():
    a = Matrix.identity(Q, 3)
    b = Matrix.from_int_rows(Q, [[1, 2], [3, 4], [5, 6]])
    good = (a, b, b)
    assert first_bad_product([]) is None
    assert first_bad_product([good]) is None
    # a c of the wrong shape or field is a bad product, found in order
    wide = Matrix.from_int_rows(Q, [[1, 2, 0], [3, 4, 0], [5, 6, 0]])
    assert first_bad_product([good, (a, b, wide), good]) == 1
    assert first_bad_product([good, good, (a, b, b.transpose())]) == 2
    assert first_bad_product([(a, b, Matrix.from_int_rows(F7, [
        [1, 2], [3, 4], [5, 6]]))]) == 0
    # empty products: only the empty or zero c of their shape agrees
    empty = Matrix.zero(Q, 3, 0)
    assert first_bad_product([(empty, Matrix.zero(Q, 0, 2),
                               Matrix.zero(Q, 3, 2))]) is None
    assert first_bad_product([(empty, Matrix.zero(Q, 0, 2), b)]) == 0
    # with no rows only the column count tells the shapes apart
    assert first_bad_product([(Matrix.zero(Q, 0, 3), a,
                               Matrix.zero(Q, 0, 2))]) == 0
    # a and b that do not multiply raise, as for *
    with pytest.raises(ValueError, match="shape mismatch"):
        first_bad_product([good, (b, b, b)])
    with pytest.raises(FieldMismatch):
        first_bad_product([(a, Matrix.identity(F7, 3), a)])


D4 = FiniteMonoid.dihedral(4)


def conjugated_d4(field):
    """The action of D4 on two copies of its regular module, conjugated
    by a seeded random invertible matrix: dimension 16."""
    reg = Representation.regular(D4, field)
    rho = Representation.direct_sum(reg, reg)
    return rho.conjugate(random_invertible(field, rho.dim,
                                           random.Random(16), spread=2))


def reference_pair(G, mats):
    return next(((s, h) for s in G.generators for h in range(G.size)
                 if not ref.equal(ref.matmul(mats[s], mats[h]),
                                  mats[G.table[s][h]])), None)


@pytest.mark.parametrize("field", (Q, F7), ids=("Q", "F7"))
def test_validation_names_the_reference_pair(field):
    rho = conjugated_d4(field)
    Representation(D4, field, rho.matrices)
    rng = random.Random(7)
    # every element but the unit corrupted once, the generators twice
    for g in list(D4.generators) + [g for g in range(D4.size)
                                    if g != D4.unit]:
        mats = list(rho.matrices)
        mats[g] = corrupt(mats[g], rng.randrange(16), rng.randrange(16))
        s, h = reference_pair(D4, mats)
        with pytest.raises(ValueError) as exc:
            Representation(D4, field, mats)
        assert str(exc.value) == (f"action({D4.names[s]})*action("
                                  f"{D4.names[h]}) disagrees with the table")
        A = monoid_algebra(D4, field)
        i, j = next((i, j) for i in A.generators for j in range(A.dim)
                    if not ref.equal(ref.matmul(mats[i], mats[j]), ref.lincomb(
                        field, 16, 16, ((c, mats[k]) for k, c
                                        in A.mul_basis(i, j).items()))))
        with pytest.raises(ValueError) as exc:
            AlgebraModule(A, mats)
        assert str(exc.value) == (f"module law fails at ({A.name_of(i)},"
                                  f"{A.name_of(j)})")


def test_module_law_reads_the_coefficient_of_a_single_term():
    # w_i w_j = C(i+j, i) w_{i+j}: the regular module of the divided
    # powers is a module, and scaling one action matrix breaks it at the
    # pair the reference loop names first
    A = divided_power_bialgebra(4, Q)[0]
    mats = [A.left_mult_matrix(A.basis_vec(i)) for i in range(A.dim)]
    AlgebraModule(A, mats)
    for k in range(1, A.dim):
        bad = list(mats)
        bad[k] = bad[k].scale(2)
        i, j = next((i, j) for i in A.generators for j in range(A.dim)
                    if not ref.equal(ref.matmul(bad[i], bad[j]), ref.lincomb(
                        Q, A.dim, A.dim, ((c, bad[t]) for t, c
                                          in A.mul_basis(i, j).items()))))
        with pytest.raises(ValueError) as exc:
            AlgebraModule(A, bad)
        assert str(exc.value) == (f"module law fails at ({A.name_of(i)},"
                                  f"{A.name_of(j)})")


def columns_construction(G, field):
    n = G.size
    return [Matrix.from_columns(field, [vbasis(field, n, G.table[g][h])
                                        for h in range(n)])
            for g in range(n)]


@pytest.mark.parametrize("name", sorted(
    p.name for p in CORPUS.glob("monoid_*.json")) + ["S4"])
def test_regular_int_rows_match_the_column_construction(name):
    G = FiniteMonoid.symmetric(4) if name == "S4" else \
        hio.load_monoid(CORPUS / name)
    for field in (Q, F2, F7):
        reg = Representation.regular(G, field)
        assert reg.certified
        want = columns_construction(G, field)
        assert list(reg.matrices) == want
        for m in reg.matrices:
            assert_normal(m)
