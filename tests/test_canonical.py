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
from hopfdual.polys import char_poly

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


def fraction_parse(s: str):
    """The oracle: the canonical rational of ``Fraction(s.strip())``, or
    the message ``FieldSpec.parse`` must raise."""
    s = s.strip()
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        return None, f"bad scalar {s!r} for Rationals: {exc}"
    return (x.numerator if x.denominator == 1 else x), None


def parse_or_error(field, s):
    try:
        return field.parse(s), None
    except ValueError as exc:
        return None, str(exc)


# fragments of scalar strings: signs, whitespace (ASCII and Unicode),
# ASCII, Arabic-Indic, fullwidth and superscript digits, underscores,
# slashes, decimal points, exponents, hex and words
FRAGMENTS = ("-", "+", " ", "\t", "\n", "\u00a0", "\u2003", "0", "1", "7",
             "12", "00", "\u0661", "\u0663", "\uff11", "\u00b2", "_", "/",
             " / ", "/-", ".", "e", "E", "e-", "x", "0x", "a", "inf", "nan")


def scalar_strings():
    return st.one_of(
        st.lists(st.sampled_from(FRAGMENTS), max_size=7).map("".join),
        st.builds("{}/{}".format, st.integers(-10**30, 10**30),
                  st.integers(-3, 10**6)),
        st.integers(-10**40, 10**40).map(str),
        st.text(alphabet="0123456789-+/_. e", max_size=8))


@given(scalar_strings())
@settings(max_examples=1500, deadline=None)
def test_parse_agrees_with_fraction(s):
    got, err = parse_or_error(Q, s)
    want, want_err = fraction_parse(s)
    assert err == want_err
    if err is None:
        assert got == want and type(got) is type(want)
        assert is_canonical(Q, got)


@pytest.mark.parametrize("s", ["", "1_0", "_1", "1__0", "\u0661\u0662", "1.5",
                               "-2e3", "3 / 4", "3/-4", "a/0", "1/0", "-0/0",
                               "0x10", "+7", " 4/6 ", "1" * 5000,
                               "1/" + "2" * 5000, "-0", "007/014"])
def test_parse_edge_cases_agree_with_fraction(s):
    got, err = parse_or_error(Q, s)
    want, want_err = fraction_parse(s)
    assert (got, err) == (want, want_err)
    assert type(got) is type(want)


@given(st.sampled_from((Q, F7)), st.integers(0, 4), st.integers(0, 4),
       st.data())
@settings(max_examples=300, deadline=None)
def test_matrix_parse_agrees_with_entrywise_parse(field, rows, cols, data):
    serial = st.one_of(st.integers(-99, 99).map(str),
                       st.builds("{}/{}".format, st.integers(-99, 99),
                                 st.integers(1, 30)),
                       st.integers(-5, 5))  # JSON numbers are read by str
    entry = st.one_of(serial, serial, serial, scalar_strings())
    grid = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows and data.draw(st.booleans()):
        grid[-1] = grid[-1][:-1]  # ragged, or an empty row
    try:
        want = Matrix(field, [[field.parse(str(c)) for c in row]
                              for row in grid])
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Matrix.parse(field, grid)
        assert str(got.value) == str(exc)
    else:
        got = Matrix.parse(field, grid)
        assert (got.ints, got.den, got.cols) == (want.ints, want.den,
                                                 want.cols)
        assert got == want and got.entries == want.entries


def test_files_read_serialized_scalars_without_fraction_strings(monkeypatch):
    """No Q entry in serialized form reaches ``Fraction(str)`` when a file
    is read: every corpus representation, bialgebra and matrix file loads
    with string construction of ``Fraction`` forbidden."""
    import hopfdual.exact as exact

    class NoStrings(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            if isinstance(numerator, str):
                raise AssertionError(f"Fraction({numerator!r})")
            return Fraction(numerator, denominator)

    monkeypatch.setattr(exact, "Fraction", NoStrings)
    loaded = 0
    for path in sorted(CORPUS.glob("*.json")):
        kind = io.classify_file(json.loads(path.read_text()))
        if kind == "representation":
            rho = io.load_representation(path)
            loaded += rho.field.p is None
        elif kind == "bialgebra":
            A = io.load_bialgebra(path)
            loaded += A.field.p is None
        elif kind == "matrix":
            io.load_matrix(path)
    assert loaded > 20
    with pytest.raises(AssertionError, match="Fraction"):
        Q.parse("1.5")


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
def test_char_poly_is_canonical(n, data):
    assert_canonical(char_poly(data.draw(q_matrices(n, n))))


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
                        A.antipode)


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


PARSE_EDGES = ["+5", " 5", "1_2", "١٢", "1/0", "1/-2", "5/", "/5",
               "1,2", "", "-0", "007/010", "1/2/3", "-", "5-", "3/-0",
               " 1/2 ", "1/00", "-7/3"]


def entrywise_parse(rows):
    """``Matrix.parse`` over Q with the one-scan read switched off, so that
    every entry goes through ``_ratio``: its matrix, or its error."""
    import hopfdual.exact as exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_serial_ratios", lambda cells: None)
        try:
            return Matrix.parse(Q, rows)
        except ValueError as exc:
            return f"error: {exc}"


def one_scan_parse(rows):
    try:
        return Matrix.parse(Q, rows)
    except ValueError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("s", PARSE_EDGES)
def test_one_scan_parse_matches_the_entrywise_read(s):
    """Each edge string alone, after a serialized entry, before one and in
    a later row: the same matrix or the same error either way."""
    for rows in ([[s]], [["1/2", s]], [[s, "3"]], [["1", "2"], ["4/3", s]],
                 [[s, s], ["-1", "0"]]):
        got = one_scan_parse(rows)
        assert got == entrywise_parse(rows), rows
        if isinstance(got, Matrix):
            assert got.ints == entrywise_parse(rows).ints


@pytest.mark.parametrize("rows", [
    [], [[]], [[], []], [["1"], []], [["1", "2"], ["3"]], [["x"], ["1", "2"]],
    [[1, 2], [3, 4]], [[1, "1/2"], ["3", -4]], [[0.5, "2"]], [[True]],
    [[None, "1"]], [[[1], "2"]], ["12", "34"], [("1", "2/3"), ("4", "5")],
], ids=["no_rows", "one_empty_row", "two_empty_rows", "ragged_empty",
        "ragged", "bad_then_ragged", "ints", "mixed", "float", "bool",
        "none", "list", "string_rows", "tuple_rows"])
def test_one_scan_parse_of_other_values_and_shapes(rows):
    assert one_scan_parse(rows) == entrywise_parse(rows)


@pytest.mark.parametrize("s", PARSE_EDGES)
def test_one_scan_takes_exactly_the_serialized_form(s):
    """The one-scan read takes a string iff it matches "a" or "a/b" with b
    positive, and then gives ``_ratio``'s (n, d); it leaves every other
    string to ``_ratio``."""
    import hopfdual.exact as exact
    m = exact._SERIAL.fullmatch(s)
    serial = m is not None and (m.group(2) is None or int(m.group(2)) > 0)
    got = exact._serial_ratios([s])
    assert (got is not None) == serial
    if serial:
        assert [(n, d) for n, d in zip(*got)] == [exact._ratio(s)]
