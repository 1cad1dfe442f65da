"""The canonical rational scalar: over Q every value the library hands back
is an ``int`` when integral and a ``Fraction`` with denominator > 1
otherwise, whatever form its inputs took; and results do not depend on the
form of the inputs."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_canonical
from hopfdual import io
from hopfdual.bialgebra import (BialgebraMorphism, FinBialgebra, check_hopf,
                                check_morphism, verify_algebra,
                                verify_bialgebra, verify_coalgebra)
from hopfdual.exact import FieldSpec, Matrix, kernel_basis, solve, span_of
from hopfdual.lie import LieAlgebra, TruncatedEnveloping, coproduct_on_U
from hopfdual.polys import char_poly, rational_roots

Q = FieldSpec.rationals()
F7 = FieldSpec.prime(7)
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"


# -- parse ----------------------------------------------------------------------

def test_parse_forms():
    assert type(Q.parse(" -12 ")) is int and Q.parse(" -12 ") == -12
    assert type(Q.parse("4/2")) is int and Q.parse("4/2") == 2
    assert type(Q.parse("1.0e1")) is int and Q.parse("1.0e1") == 10
    assert Q.parse("3/6") == Fraction(1, 2) and is_canonical(Q, Q.parse("3/6"))
    assert Q.parse("-0.25") == Fraction(-1, 4)
    assert F7.parse(" 12 ") == 5
    for bad in ("", "0x10", "1__0", "_1", "1/0", "a/0"):
        with pytest.raises(ValueError, match="bad scalar"):
            Q.parse(bad)
    with pytest.raises(ValueError, match="bad scalar"):
        F7.parse("3/4")


# -- every Q result is canonical ------------------------------------------------

def q_scalars():
    """Rationals in every form a caller may pass: ints, Fractions with
    denominator 1 and proper fractions."""
    return st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(Fraction),
                     st.builds(Fraction, st.integers(-60, 60),
                               st.integers(1, 12)))


@given(q_scalars(), q_scalars())
@settings(max_examples=300, deadline=None)
def test_field_ops_are_canonical(a, b):
    for got, want in ((Q.add(a, b), Fraction(a) + b),
                      (Q.sub(a, b), Fraction(a) - b),
                      (Q.mul(a, b), Fraction(a) * b),
                      (Q.neg(a), -Fraction(a))):
        assert got == want and is_canonical(Q, got)
    if a:
        got = Q.inv(a)
        assert got == 1 / Fraction(a) and is_canonical(Q, got)
    for x in (Q.zero, Q.one, Q.from_int(a.numerator)):
        assert is_canonical(Q, x)


def q_matrices(rows, cols):
    return st.lists(st.lists(q_scalars(), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda e: Matrix(Q, e, cols=cols))


def assert_canonical(values):
    for x in values:
        assert is_canonical(Q, x), x


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_results_are_canonical(r, c, data):
    m = data.draw(q_matrices(r, c))
    v = tuple(data.draw(st.lists(q_scalars(), min_size=c, max_size=c)))
    b = tuple(data.draw(st.lists(q_scalars(), min_size=r, max_size=r)))
    assert_canonical(x for row in m.entries for x in row)
    assert_canonical(x for j in range(c) for x in m.column(j))
    assert_canonical(m.apply(v))
    for k in kernel_basis(m):
        assert_canonical(k)
        assert all(x == 0 for x in m.apply(k))
    x = solve(m, b)
    if x is not None:
        assert_canonical(x)
        assert m.apply(x) == b
    sp = span_of(Q, m.entries, c)
    assert_canonical(x for row in sp.basis() for x in row)
    assert_canonical(sp.reduce(v))


@given(st.integers(0, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_char_poly_and_roots_are_canonical(n, data):
    m = data.draw(q_matrices(n, n))
    cp = char_poly(m)
    assert_canonical(cp)
    for root in rational_roots(cp):
        assert is_canonical(Q, root)
        assert char_poly(m.shift(Q.neg(root)))[0] == 0


def test_rational_roots_of_a_product_of_linear_factors():
    # (2x - 1)(x + 3) x (x^2 + 1), with Fraction coefficients
    poly = (0, Fraction(-3), 5, Fraction(-1), 5, Fraction(2))
    assert rational_roots([Fraction(c) for c in poly]) == \
        [-3, 0, Fraction(1, 2)]
    assert [type(x) for x in rational_roots(poly)] == [int, int, Fraction]
    assert rational_roots(()) == [] and rational_roots((5,)) == []


def test_structure_constants_stay_ints():
    A = io.load_bialgebra(CORPUS / "rg_d4.json")
    values = [*A.mult.values(), *A.unit, *A.comult.values(), *A.counit,
              *(x for row in A.antipode.entries for x in row)]
    assert values and all(type(x) is int for x in values)


# -- results do not depend on the form of the inputs ---------------------------

def q_corpus_bialgebras():
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        if io.classify_file(obj) == "bialgebra" and \
                obj["field"]["kind"] == "Rationals":
            out.append(path.name)
    return out


def as_fractions(A: FinBialgebra) -> FinBialgebra:
    """A with every structure constant a Fraction, ints included."""
    def tensor(t):
        return None if t is None else {k: Fraction(c) for k, c in t.items()}

    def vector(v):
        return None if v is None else tuple(Fraction(c) for c in v)
    return FinBialgebra(A.field, A.dim, A.basis, tensor(A.mult),
                        vector(A.unit), tensor(A.comult), vector(A.counit),
                        A.antipode, has_bialgebra=A.has_bialgebra)


def checks(rep):
    return [(c.name, c.ok, c.witness) for c in rep.checks]


def sweeps(A: FinBialgebra) -> list:
    out = []
    if A.has_algebra:
        out += checks(verify_algebra(A))
    if A.has_coalgebra:
        out += checks(verify_coalgebra(A))
    if A.has_algebra and A.has_coalgebra:
        out += checks(verify_bialgebra(A))
        ident = BialgebraMorphism(A, A, Matrix.identity(A.field, A.dim))
        for kind in ("algebra", "coalgebra", "bialgebra"):
            out += checks(check_morphism(ident, kind))
    if A.has_antipode:
        out += checks(check_hopf(A))
    return out


@pytest.mark.parametrize("name", q_corpus_bialgebras())
def test_sweeps_ignore_the_scalar_form(name):
    A = io.load_bialgebra(CORPUS / name)
    B = as_fractions(A)
    assert all(type(c) is Fraction for c in (B.mult or B.comult).values())
    want = sweeps(A)
    assert want and sweeps(B) == want
    if A.has_algebra and A.has_coalgebra:
        # a morphism from one form to the other reads both
        ident = Matrix.identity(Q, A.dim)
        for kind in ("algebra", "coalgebra", "bialgebra"):
            assert checks(check_morphism(BialgebraMorphism(A, B, ident),
                                         kind)) == \
                checks(check_morphism(BialgebraMorphism(A, A, ident), kind))


@pytest.mark.parametrize("name", ["lie_sl2.json", "lie_heisenberg.json",
                                  "lie_abelian2.json", "lie_sl2_bad.json"])
def test_coproduct_on_U_ignores_the_scalar_form(name):
    L = io.load_lie(CORPUS / name)
    F = LieAlgebra(L.field, L.names, {
        key: {k: Fraction(c) for k, c in entry.items()}
        for key, entry in L.brackets.items()})
    tensor_a, rep_a = coproduct_on_U(TruncatedEnveloping(L, 3))
    tensor_b, rep_b = coproduct_on_U(TruncatedEnveloping(F, 3))
    assert checks(rep_a) == checks(rep_b)
    assert tensor_a == tensor_b
    assert_canonical(c for d in tensor_b.values() for c in d.values())
