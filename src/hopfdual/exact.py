"""Exact scalars and dense linear algebra over the rationals and prime fields.

Scalars are plain Python values. Over the rationals a scalar is an ``int``
when its value is an integer and a reduced ``fractions.Fraction`` with
denominator > 1 otherwise; over a prime field it is an int in ``[0, p)``.
A :class:`FieldSpec` carries the arithmetic and returns every result in
that canonical form, so the integral structure constants of the paper's
objects (0, +-1, binomials, factorials) stay machine integers through the
axiom sweeps. Callers may pass any ``Fraction`` in, ``Fraction(3)``
included. Vectors are tuples of scalars.

A :class:`Matrix` is immutable and stores int rows plus one denominator:
the matrix is ints / den. Over Q the form is normalised (den positive and
coprime to the entries taken together), so it is unique; over F_p the
entries are in ``[0, p)`` and den is 1. :func:`lincomb` (sums and
scaling), products, Kronecker products, transposes, :func:`block_diag`,
equality and hashing work on that form with plain int arithmetic (over F_p
one reduction per entry) and never build a scalar; ``Matrix.entries`` is a
view of the scalars, built when it is first read. Over Q
:meth:`Matrix.parse` reads rows whose entries are all "a" or "a/b" in
ASCII digits in one scan, with one ``int`` per entry and one per distinct
denominator.

Products work on packed rows (Kronecker substitution with delayed
reduction): each row of the right factor becomes one int with a lane of
w whole bytes per column, wide enough for every entry of the product, and
a row of the product is the sum of those ints weighted by the nonzeros of
the left row, unpacked once: lanes of 1, 2, 4 or 8 bytes by one
``memoryview.cast``, and lanes of 16 bytes, the width of most products
over F_2147483647 and over Q with entries of a few dozen bits, by two,
one for the low and one for the high word of each lane. A matrix keeps
the bounds that size its lanes and its packed rows once they are read,
so a factor used again is not read again. :func:`first_bad_product`
checks a batch of products a * b == c on the same packed rows, and over
Q compares packed ints without unpacking or normalising a product.

:class:`Span` keeps a row space in reduced echelon form, and its insert
step is the only elimination loop: a new row is reduced against the
stored rows, pivots on its first nonzero entry and clears that column from
the stored rows. Over Q the rows are int rows and a reduction step is
v <- pivot * v - v[c] * row, divided by its gcd. Over F_p a span of width
at least ``_PACKED_WIDTH`` keeps its rows packed like the factors of a
product, in lanes wide enough for unreduced sums: the stored rows are
fully reduced, so a vector is reduced by the one int v + sum (p - v[c])
row over the stored rows, unpacked and reduced mod p once, a new pivot
column is cleared by one multiply-add per stored row, and the rows are
reduced mod p only when they are read; a narrower span keeps int rows and
reduces mod p at each step, which is faster at those widths. The reduced
echelon form is unique, so every output is reproducible. :func:`rref`
feeds a matrix's int rows through that step; the :class:`Echelon` it
returns reads off the kernel and, for the form of [m | B], a solution of
m X = B (:meth:`Echelon.solution`). :func:`solve_many` solves m X = B
from one :func:`rref` of :func:`augment` (m, B), and :func:`solve` and
:func:`inverse` are its one-vector and identity cases.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect, bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import attrgetter, itemgetter, mul


class FieldMismatch(ValueError):
    """Operands live over different coefficient fields."""


def is_prime(n: int) -> bool:
    """Trial-division primality test. Fine for moduli below 2**31."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


RATIONALS = "Rationals"
PRIME_FIELD = "PrimeField"


def _q(x):
    """The canonical rational of an int or Fraction: an int when it is
    integral."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


# the serialized form of a rational, "a" or "a/b", in ASCII digits
_SERIAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(s: str) -> tuple:
    """(n, d) with d > 0 and n / d the value of the stripped scalar string
    s over Q. The serialized form is read with ``int`` and builds no
    ``Fraction``; every other string, "a/0" included, goes through
    ``Fraction(s)``. ``Fraction`` accepts each string the pattern takes,
    with the same value, so exactly the strings ``Fraction`` accepts are
    accepted, with its errors."""
    try:
        m = _SERIAL.fullmatch(s)
        if m is not None:
            num, den = m.groups()
            if den is None:
                return int(num), 1
            d = int(den)
            if d:
                return int(num), d
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar {s!r} for {RATIONALS}: {exc}") from exc
    return x.numerator, x.denominator


# every character of the serialized forms
_SERIAL_CHARS = str.maketrans("", "", "-/0123456789")


def _serial_ratios(cells: list) -> tuple | None:
    """(numerators, denominators), as :func:`_ratio` reads them, of a list
    of strings that are all in the serialized form "a" or "a/b", or None
    if some cell is not. The joined text is checked once for characters
    other than ASCII digits, "-" and "/". On such strings ``int`` reads
    the part before the first "/" exactly when it matches -?[0-9]+, and
    reads the part after it as a positive int exactly when it matches
    [0-9]+ and is not zero; each distinct part after a "/" is read once.
    A cell with a "/" and nothing after it, or with two "/", makes the
    count of "/" differ from the count of nonempty parts after one."""
    try:
        text = "".join(cells)
    except TypeError:
        return None
    if not text.isascii() or text.translate(_SERIAL_CHARS):
        return None
    parts = list(map(str.partition, cells, repeat("/")))
    tails = list(map(itemgetter(2), parts))
    if text.count("/") != len(tails) - tails.count(""):
        return None
    try:
        nums = list(map(int, map(itemgetter(0), parts)))
        dens = {b: int(b) if b else 1 for b in set(tails)}
    except ValueError:
        return None
    if min(dens.values(), default=1) <= 0:
        return None
    return nums, list(map(dens.__getitem__, tails))


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient domain: the rationals, or F_p for a prime p < 2**31.

    Scalars are canonical: over Q an ``int`` when integral and a
    ``Fraction`` with denominator > 1 otherwise, over F_p an int in
    ``[0, p)``. Every operation returns that form for any int or
    ``Fraction`` operands."""

    kind: str
    p: int | None = None

    zero = 0
    one = 1

    def __post_init__(self):
        if self.kind == RATIONALS:
            if self.p is not None:
                raise ValueError("rationals carry no modulus")
        elif self.kind == PRIME_FIELD:
            if self.p is None or not (2 <= self.p < 2**31):
                raise ValueError(f"modulus out of range: {self.p!r}")
            if not is_prime(self.p):
                raise ValueError(f"modulus {self.p} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(RATIONALS)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(PRIME_FIELD, p)

    # -- arithmetic on raw scalar values ------------------------------------

    def characteristic(self) -> int:
        return self.p or 0

    def from_int(self, n: int):
        return n % self.p if self.p else n

    def add(self, a, b):
        if self.p:
            return (a + b) % self.p
        return _q(a + b)

    def sub(self, a, b):
        if self.p:
            return (a - b) % self.p
        return _q(a - b)

    def neg(self, a):
        if self.p:
            return (-a) % self.p
        return _q(-a)

    def mul(self, a, b):
        if self.p:
            return (a * b) % self.p
        return _q(a * b)

    def canonical(self, a):
        """The canonical scalar of a raw value: an int or ``Fraction``
        built with plain ``+``, ``-`` and ``*`` from scalars, as when a sum
        of products is accumulated first and reduced once."""
        return a % self.p if self.p else _q(a)

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _q(1 / Fraction(a))

    # -- string forms --------------------------------------------------------

    def parse(self, s: str):
        """Parse a scalar string: "a/b" or "a" over Q, a decimal over F_p."""
        s = s.strip()
        if not self.p:
            n, d = _ratio(s)
            return n if d == 1 else _q(Fraction(n, d))
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise ValueError(f"bad scalar {s!r} for {self.kind}: {exc}") from exc

    def format(self, a) -> str:
        if self.p:
            return str(a % self.p)
        return str(a)  # "a/b" reduced, or "a" for integers

    def describe(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


# -- vector helpers (tuples of scalars) --------------------------------------

def vbasis(field: FieldSpec, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


# -- integer rows ------------------------------------------------------------

def _as_ints(field: FieldSpec, rows):
    """(int rows, d) with rows of scalars == int rows / d; one d for all.
    The lcm is taken over the distinct denominators, and with d = 1 each
    entry is an integer, so ``int`` reads it in C."""
    if field.p:
        return rows, 1
    d = lcm(*set(map(attrgetter("denominator"), chain.from_iterable(rows))))
    if d == 1:
        return [list(map(int, row)) for row in rows], 1
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in rows], d


def _scalars(field: FieldSpec, ints, d: int):
    """The field's canonical scalars ints[j] / d (d > 0); ints itself when
    d is 1 over Q."""
    if field.p:
        return [x % field.p for x in ints]
    if d == 1:
        return ints
    return [Fraction(x, d) if x % d else x // d for x in ints]


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _normal(field: FieldSpec, ints, den: int, cols: int) -> "Matrix":
    """The matrix ints / den. Over F_p the entries must be in [0, p) and
    den 1; over Q the rows and den are divided by their common gcd."""
    if den != 1:
        g = gcd(den, *[gcd(*row) for row in ints])
        if g > 1:
            ints = [[x // g for x in row] for row in ints]
            den //= g
    return Matrix._of(field, ints, den, cols)


# -- packed rows -------------------------------------------------------------

# byte width -> typecode of the unsigned machine integer of that width; a
# lane of such a width unpacks in C through ``memoryview.cast``. Lanes are
# laid out little-endian, so only a little-endian machine has the C path.
_LANE_CODES = ({array(c).itemsize: c for c in "BHIQ"}
               if sys.byteorder == "little" else {})


def _lane_bytes(bound: int, signed: bool) -> int:
    """The bytes w of a lane that holds every value of absolute value at
    most bound: below 2^(8w), or below 2^(8w - 1) if lanes are signed.
    Widths up to 8 round up to 1, 2, 4 or 8, wider ones to a multiple of
    8."""
    w = max(1, -(-(bound.bit_length() + signed) // 8))
    return 1 << (w - 1).bit_length() if w <= 8 else -(-w // 8) * 8


def _ones(w: int, cols: int) -> int:
    """The packed row of cols ones in lanes of w bytes."""
    return ((1 << 8 * w * cols) - 1) // ((1 << 8 * w) - 1)


def _row_norm(m: "Matrix") -> int:
    """The largest |.|-sum of a row of the int rows of m, read once per
    matrix."""
    if m._norm is None:
        object.__setattr__(m, "_norm", max(
            [sum(map(abs, row)) for row in m.ints], default=0))
    return m._norm


def _extent(m: "Matrix") -> tuple:
    """(low, big): the least int entry of a nonempty m, or 0 if it is
    larger, and the largest absolute value; read once per matrix."""
    if m._extent is None:
        low = min(0, min(map(min, m.ints)))
        object.__setattr__(m, "_extent", (
            low, max(-low, max(map(max, m.ints)))))
    return m._extent


def _packed_rows(ints, cols: int, w: int, low: int = 0) -> list:
    """The int rows ints, of cols > 0 columns, each as the one int
    sum_j x_j 2^(8wj) of its entries x_j: lane j is bytes [jw, (j+1)w),
    little-endian. The entries are packed less low, a lower bound of
    theirs, and low is added back to each packed row, so a row with
    negative entries packs exactly; max - low must be below 2^(8w)."""
    flat = list(chain.from_iterable(ints))
    if low:
        flat = [x - low for x in flat]
    code = _LANE_CODES.get(w)
    if code:
        data = array(code, flat).tobytes()
    else:
        data = b"".join([x.to_bytes(w, "little") for x in flat])
    size = w * cols
    rows = [int.from_bytes(data[i:i + size], "little")
            for i in range(0, len(data), size)]
    if low:
        shift = low * _ones(w, cols)
        rows = [x + shift for x in rows]
    return rows


def _packed(m: "Matrix", w: int) -> list:
    """The rows of m packed in lanes of w bytes (:func:`_packed_rows`),
    over Q less its least entry when that is negative; kept with m for
    the last w asked."""
    if m._packed is None or m._packed[0] != w:
        low = 0 if m.field.p else _extent(m)[0]
        object.__setattr__(m, "_packed", (w, _packed_rows(m.ints, m.cols, w,
                                                          low)))
    return m._packed[1]


def _product_rows(a: "Matrix", packed: list, w: int, cols: int,
                  bias: int = 0) -> list:
    """The int rows of lanes of sum of u[t] packed[t] over the nonzeros
    u[t] of each row u of a. With no bias the lanes must be in
    [0, 2^(8w)). A bias, the packed row of 2^(8w - 1) in every lane, makes
    them signed, in [-2^(8w - 1), 2^(8w - 1)): adding it makes every lane
    non-negative, so the packed int has exactly those digits, and flipping
    the top bit of each lane back leaves each lane in two's complement."""
    size = w * cols
    data = b"".join([
        (sum(map(mul, compress(u, u), compress(packed, u)), bias)
         ^ bias).to_bytes(size, "little") for u in a.ints])
    return _unpacked(data, w, cols, bias != 0)


def _unpacked(data: bytes, w: int, cols: int, signed: bool = False) -> list:
    """The rows of cols lanes of w bytes each that make up the nonempty
    little-endian bytes data, as int rows; the lanes are read in two's
    complement if signed. A lane of a machine width is read by one
    ``memoryview.cast``, a 16-byte lane by two, of its low and its high
    8-byte words, and any other lane by ``int.from_bytes``."""
    code = _LANE_CODES.get(w)
    if code:
        return memoryview(data).cast(code.lower() if signed else code,
                                     (len(data) // (w * cols), cols)).tolist()
    word = _LANE_CODES.get(8)
    if w == 16 and word:
        # lane j is the words 2j (low, unsigned) and 2j + 1 (high, signed
        # if the lane is)
        words = memoryview(data).cast(word)
        high = memoryview(data).cast(word.lower() if signed else word)[1::2]
        lanes = [lo + (hi << 64) for lo, hi in zip(words[::2].tolist(),
                                                   high.tolist())]
        return [lanes[i:i + cols] for i in range(0, len(lanes), cols)]
    size = w * cols
    return [[int.from_bytes(data[j:j + w], "little", signed=signed)
             for j in range(i, i + size, w)]
            for i in range(0, len(data), size)]


class Matrix:
    """Immutable dense matrix over one field, stored as int rows ``ints``
    and one denominator ``den``: the matrix is ints / den.

    Over Q den is positive and has no common factor with all the entries
    of ints, so the form is unique; over F_p the entries are in ``[0, p)``
    and den is 1. Equality and hashing compare the int form. ``entries``
    is the view as the field's scalars, built when it is first read; so
    are the row norm, the extent and the packed rows that products read
    (:func:`_row_norm`, :func:`_extent`, :func:`_packed`)."""

    __slots__ = ("field", "rows", "cols", "ints", "den", "_entries",
                 "_norm", "_extent", "_packed")

    def __init__(self, field: FieldSpec, entries, cols: int | None = None):
        entries = [tuple(row) for row in entries]
        if cols is None:
            cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
        ints, den = _as_ints(field, entries)
        if field.p:
            ints = [[x % field.p for x in row] for row in ints]
        self._set(field, ints, den, cols)

    def _set(self, field, ints, den, cols):
        ints = tuple(map(tuple, ints))
        put = object.__setattr__
        put(self, "field", field)
        put(self, "rows", len(ints))
        put(self, "cols", cols)
        put(self, "ints", ints)
        put(self, "den", den)
        put(self, "_entries", None)
        put(self, "_norm", None)
        put(self, "_extent", None)
        put(self, "_packed", None)

    @classmethod
    def _of(cls, field: FieldSpec, ints, den: int, cols: int) -> "Matrix":
        """The matrix ints / den from int rows already in normal form."""
        m = object.__new__(cls)
        m._set(field, ints, den, cols)
        return m

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @property
    def entries(self) -> tuple:
        """Rows of canonical scalars: the int rows themselves over F_p or
        when den is 1."""
        if self.field.p or self.den == 1:
            return self.ints
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(
                tuple(_scalars(self.field, row, self.den))
                for row in self.ints))
        return self._entries

    @staticmethod
    def parse(field: FieldSpec, rows) -> "Matrix":
        """The matrix of rows of scalar strings (or of values whose ``str``
        is one), each read as :meth:`FieldSpec.parse` reads it and with the
        same errors, the first bad entry in row order first. Over Q the
        entries go straight to int rows over one common denominator and one
        normalisation, with no ``Fraction`` for an entry in serialized
        form: rows of strings that are all "a" or "a/b" in ASCII digits
        are read in one scan (:func:`_serial_ratios`), and any other matrix
        entry by entry (:func:`_ratio`)."""
        if field.p:
            return Matrix(field, [[field.parse(str(c)) for c in row]
                                  for row in rows])
        rows = [list(row) for row in rows]
        cells = list(chain.from_iterable(rows))
        read = _serial_ratios(cells)
        if read is None:
            ratios = [_ratio(str(c).strip()) for c in cells]
            read = [n for n, _ in ratios], [d for _, d in ratios]
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged rows")
        nums, dens = read
        den = lcm(*set(dens))
        flat = [n * (den // d) for n, d in zip(nums, dens)]
        return _normal(field, [flat[i * cols:(i + 1) * cols]
                               for i in range(len(rows))], den, cols)

    @staticmethod
    def from_int_rows(field: FieldSpec, rows) -> "Matrix":
        return Matrix(field, rows)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix._of(field, [[int(i == j) for j in range(n)]
                                  for i in range(n)], 1, n)

    @staticmethod
    def zero(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._of(field, [[0] * cols] * rows, 1, cols)

    @staticmethod
    def from_map(field: FieldSpec, images) -> "Matrix":
        """The square 0/1 matrix sending e_h to e_{images[h]}, written
        straight as int rows: column h has its one in row images[h]."""
        n = len(images)
        rows = [[0] * n for _ in range(n)]
        for h, i in enumerate(images):
            rows[i][h] = 1
        return Matrix._of(field, rows, 1, n)

    @staticmethod
    def from_columns(field: FieldSpec, columns) -> "Matrix":
        columns = list(columns)
        n = len(columns[0]) if columns else 0
        return Matrix(field, [[col[i] for col in columns] for i in range(n)])

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.cols == other.cols and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self):
        return hash((self.field, self.den, self.ints))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in row)
                         for row in self.entries)
        return f"Matrix({self.field.describe()}, [{body}])"

    def __add__(self, other: "Matrix") -> "Matrix":
        return lincomb(self.field, self.rows, self.cols,
                       ((1, self), (1, other)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return lincomb(self.field, self.rows, self.cols,
                       ((1, self), (-1, other)))

    def __mul__(self, other: "Matrix") -> "Matrix":
        """The product on packed rows (:func:`_packed_rows`): row i is
        bias + sum of u[t] P[t] over the nonzeros u[t] of row i of self,
        for the packed rows P[t] of ``other``, unpacked once. Over F_p a
        lane holds an unreduced sum, at most k (p - 1)^2 for the inner
        dimension k, and is reduced once; over Q it holds a signed sum, at
        most the largest row |.|-sum of self times the largest |entry| of
        ``other``, and a bias of half a lane makes it non-negative."""
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        f, cols = self.field, other.cols
        if not (self.rows and self.cols and cols):
            return Matrix.zero(f, self.rows, cols)
        p = f.p
        if p:
            w = _lane_bytes(self.cols * (p - 1) ** 2, False)
            rows = _product_rows(self, _packed(other, w), w, cols)
            return Matrix._of(f, [[x % p for x in row] for row in rows], 1,
                              cols)
        w = _lane_bytes(max(_row_norm(self), 1) * _extent(other)[1], True)
        rows = _product_rows(self, _packed(other, w), w, cols,
                             _ones(w, cols) << (8 * w - 1))
        return _normal(f, rows, self.den * other.den, cols)

    def scale(self, c) -> "Matrix":
        return lincomb(self.field, self.rows, self.cols, ((c, self),))

    def shift(self, c) -> "Matrix":
        """self + c * identity, for a square matrix."""
        if self.rows != self.cols:
            raise ValueError("not square")
        p = self.field.p
        if p:
            rows = [list(row) for row in self.ints]
            for i, row in enumerate(rows):
                row[i] = (row[i] + c) % p
            return Matrix._of(self.field, rows, 1, self.cols)
        den = lcm(self.den, c.denominator)
        k = den // self.den
        rows = [[k * x for x in row] for row in self.ints]
        a = c.numerator * (den // c.denominator)
        for i, row in enumerate(rows):
            row[i] += a
        return _normal(self.field, rows, den, self.cols)

    def __pow__(self, e: int) -> "Matrix":
        """self ** e for a square matrix and e >= 0, by repeated squaring."""
        if self.rows != self.cols:
            raise ValueError("not square")
        if e < 0:
            raise ValueError("negative power")
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return Matrix.identity(self.field, self.rows) if out is None else out

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The entries, read row by row, as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError("shape mismatch")
        flat = [x for row in self.ints for x in row]
        return Matrix._of(self.field, [flat[i * cols:(i + 1) * cols]
                                       for i in range(rows)], self.den, cols)

    def transpose(self) -> "Matrix":
        ints = list(zip(*self.ints)) if self.rows else [()] * self.cols
        return Matrix._of(self.field, ints, self.den, self.rows)

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("length mismatch")
        (v,), d = _as_ints(self.field, [vec])
        return tuple(_scalars(self.field, [sum(map(mul, row, v))
                                           for row in self.ints],
                              d * self.den))

    def column(self, j: int) -> tuple:
        return tuple(_scalars(self.field, [row[j] for row in self.ints],
                              self.den))

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))


def first_bad_product(triples) -> int | None:
    """The index of the first (a, b, c) in triples with a * b != c, or
    None. Each a and b must multiply, as for ``*``; a c over another field
    or of another shape than a * b makes a bad triple.

    Over Q no product is unpacked or normalised. One lane width w serves
    the whole batch, and each distinct b and c is packed once
    (:func:`_packed_rows`). Row i of a * b equals row i of c exactly when
    (sum_t a_it P_t(b)) den_c == P_i(c) den_a den_b, and w is chosen so
    that every lane of either side is below 2^(8w - 1) in absolute value:
    balanced base-2^(8w) digits are unique, so equal ints mean equal rows.
    Over F_p each product is the packed product of ``*``, compared with c
    as int rows."""
    triples = list(triples)
    for a, b, _ in triples:
        a._check(b)
        if a.cols != b.rows:
            raise ValueError(f"shape mismatch {a.cols} vs {b.rows}")
    # the triples over Q whose c has the field and shape of a nonempty a * b
    packed = {i for i, (a, b, c) in enumerate(triples)
              if not a.field.p and c.field == a.field
              and (c.rows, c.cols) == (a.rows, b.cols)
              and a.rows and a.cols and b.cols}
    bound = 0
    for i in packed:
        a, b, c = triples[i]
        big_b, big_c = _extent(b)[1], _extent(c)[1]
        # the lanes of both sides, and the entries of b and c to pack
        bound = max(bound, _row_norm(a) * big_b * c.den,
                    big_c * a.den * b.den, big_b, big_c)
    w = _lane_bytes(bound, True)
    for i, (a, b, c) in enumerate(triples):
        if i not in packed:
            if a * b != c:
                return i
            continue
        pb, dc, dab = _packed(b, w), c.den, a.den * b.den
        for u, r in zip(a.ints, _packed(c, w)):
            if sum(map(mul, compress(u, u), compress(pb, u))) * dc != r * dab:
                return i
    return None


@dataclass(frozen=True)
class Echelon:
    rank: int
    pivots: tuple
    reduced: Matrix

    def kernel(self) -> list:
        """Basis of the right null space of the matrix this is the form of;
        one vector per free column."""
        red = self.reduced
        free = sorted(set(range(red.cols)) - set(self.pivots))
        basis = []
        for j in free:
            v = [0] * red.cols
            v[j] = red.den
            for r, c in enumerate(self.pivots):
                v[c] = -red.ints[r][j]
            basis.append(tuple(_scalars(red.field, v, red.den)))
        return basis

    def solution(self, n: int) -> Matrix | None:
        """For the form of [m | b] with n columns in m: a solution X of
        m X = b, free variables set to zero, or None if a pivot lies in b
        (a column of b outside the column space of m)."""
        if self.pivots and self.pivots[-1] >= n:
            return None
        red = self.reduced
        x = [[0] * (red.cols - n) for _ in range(n)]
        for r, c in enumerate(self.pivots):
            x[c] = red.ints[r][n:]
        return _normal(red.field, x, red.den, red.cols - n)


def rref(m: Matrix) -> Echelon:
    """Reduced row-echelon form; unique.

    The int rows go one by one through the insert step of a fresh
    :class:`Span`, which keeps them reduced (scaling a row does not change
    the row space, so the denominator plays no part); the span's rows,
    each divided by its pivot, are the nonzero part of the form."""
    f = m.field
    sp = Span(f, m.cols)
    for row in m.ints:
        if sp.dim == m.cols:
            break
        sp._insert(row)
    zero = [0] * m.cols
    if f.p:
        den = 1
        rows = sp.rows
    else:
        den = lcm(*[row[c] for row, c in zip(sp.rows, sp.pivots)])
        rows = [[den // row[c] * x for x in row]
                for row, c in zip(sp.rows, sp.pivots)]
    reduced = _normal(f, rows + [zero] * (m.rows - sp.dim), den, m.cols)
    return Echelon(sp.dim, tuple(sp.pivots), reduced)


def rank(m: Matrix) -> int:
    return rref(m).rank


def kernel_basis(m: Matrix) -> list:
    """Basis of the right null space; one vector per free column."""
    return rref(m).kernel()


def augment(m: Matrix, b: Matrix) -> Matrix:
    """The matrix [m | b] of the columns of m followed by those of b."""
    m._check(b)
    if b.rows != m.rows:
        raise ValueError("rhs length mismatch")
    den = lcm(m.den, b.den)
    k, kb = den // m.den, den // b.den
    return _normal(m.field, [[k * x for x in row] + [kb * y for y in rb]
                             for row, rb in zip(m.ints, b.ints)],
                   den, m.cols + b.cols)


def solve_many(m: Matrix, b: Matrix) -> Matrix | None:
    """A solution X of m X = b, one column per column of b, from one
    elimination of [m | b], or None if a column of b is outside the column
    space of m; free variables are set to zero."""
    return rref(augment(m, b)).solution(m.cols)


def solve(m: Matrix, b) -> tuple | None:
    """One solution of m x = b, or None; free variables are set to zero."""
    x = solve_many(m, Matrix(m.field, [[c] for c in b], cols=1))
    return None if x is None else x.column(0)


def inverse(m: Matrix) -> Matrix | None:
    if m.rows != m.cols:
        raise ValueError("not square")
    return solve_many(m, Matrix.identity(m.field, m.rows))


def lincomb(field: FieldSpec, rows: int, cols: int, terms) -> Matrix:
    """Sum of c * M over the (c, M) pairs of terms, as a rows x cols matrix,
    with one common denominator; zero coefficients are skipped, and a sum
    of one term 1 * M is M itself. Each row is summed in one pass per
    term: it starts from its first term's row (that row itself when the
    coefficient is 1), and over F_p the last term's pass also reduces
    mod p."""
    scaled = []
    for c, m in terms:
        if m.field != field:
            raise FieldMismatch(f"{m.field} vs {field}")
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch")
        if c:
            scaled.append((c, m))
    if not scaled:
        return Matrix.zero(field, rows, cols)
    if len(scaled) == 1 and scaled[0][0] == 1:
        return scaled[0][1]
    p = field.p
    # over Q, c * ints / d == c.numerator * k * ints / den for
    # k = den / (d * c.denominator)
    den = 1 if p else lcm(*[m.den * c.denominator for c, m in scaled])
    ks = [(c if p else c.numerator * (den // (m.den * c.denominator)),
           m.ints) for c, m in scaled]
    (k, acc), *rest = ks
    if p and not rest:
        return Matrix._of(field, [[k * x % p for x in row] for row in acc],
                          1, cols)
    if k != 1:
        acc = [[k * x for x in row] for row in acc]
    for j, (k, ints) in enumerate(rest, 1):
        if p and j == len(rest):
            return Matrix._of(field, [[(s + k * x) % p for s, x in zip(a, row)]
                                      for a, row in zip(acc, ints)], 1, cols)
        acc = [[s + k * x for s, x in zip(a, row)]
               for a, row in zip(acc, ints)]
    return _normal(field, acc, den, cols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i, j) of the tensor basis maps to i*dim(b)+j."""
    a._check(b)
    p = a.field.p
    out = [[x * y for x in ra for y in rb] for ra in a.ints for rb in b.ints]
    if p:
        out = [[x % p for x in row] for row in out]
    return _normal(a.field, out, a.den * b.den, a.cols * b.cols)


def stack(matrices) -> Matrix:
    """Vertical stack; all blocks must share field and column count."""
    matrices = list(matrices)
    f = matrices[0].field
    cols = matrices[0].cols
    for m in matrices:
        if m.field != f:
            raise FieldMismatch("stack over mixed fields")
        if m.cols != cols:
            raise ValueError("stack with unequal widths")
    # each block is in normal form, so the rows over the lcm of the
    # denominators are too
    den = lcm(*[m.den for m in matrices])
    rows = []
    for m in matrices:
        k = den // m.den
        rows.extend(m.ints if k == 1 else [[k * x for x in row]
                                           for row in m.ints])
    return Matrix._of(f, rows, den, cols)


def block_diag(field: FieldSpec, blocks) -> Matrix:
    """The matrix with the blocks down its diagonal and zeros elsewhere,
    written as int rows over the lcm of the blocks' denominators (in
    normal form, as for :func:`stack`); no blocks give the 0 x 0 matrix."""
    blocks = list(blocks)
    if any(m.field != field for m in blocks):
        raise FieldMismatch(f"block_diag over {field} of mixed fields")
    den = lcm(*[m.den for m in blocks])
    cols = sum(m.cols for m in blocks)
    rows, off = [], 0
    for m in blocks:
        k = den // m.den
        left, right = [0] * off, [0] * (cols - off - m.cols)
        rows.extend(left + [k * x for x in row] + right for row in m.ints)
        off += m.cols
    return Matrix._of(field, rows, den, cols)


# Spans over F_p at least this wide keep packed rows (see :class:`Span`).
_PACKED_WIDTH = 10


class Span:
    """Row space kept in reduced echelon form, for membership tests.

    The rows are in pivot order, each zero in the pivot column of every
    other row: over Q primitive int rows with a positive pivot, over F_p
    rows with pivot 1. :meth:`basis` divides a row by its pivot when it is
    read.

    Over F_p a span of width at least ``_PACKED_WIDTH`` keeps each row
    packed (:func:`_packed_rows`) in lanes of ``_w`` bytes and unreduced:
    lane j holds a non-negative int congruent to entry j mod p. Because
    the rows are fully reduced, a vector v with entries in [0, p) is
    reduced by the one int v + sum (p - v[c_r]) row_r over the stored rows
    r with pivot c_r and v[c_r] != 0, unpacked and reduced mod p once;
    inserting a row with pivot c adds (p - b) times it to each stored row
    whose lane c is b != 0 mod p, one multiply-add per row. ``_w`` is
    sized once from p and the width for the largest such sum. The rows
    are reduced mod p only when they are read (:attr:`rows`). Narrower
    spans keep int rows and reduce each step mod p: below that width the
    packing costs more than it saves. On ``rref`` and ``span_of`` of random
    square matrices packed rows won from width 7-8 for p <= 101 and from
    about 12 for p = 2147483647 (measured when its 16-byte lanes were
    still unpacked lane by lane); but ``monoids.points`` on Z8 over F_7,
    many inserts into spans of width 9 with few rows, ran 1.13 times
    slower."""

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.pivots = []    # pivot column of each row
        self._rows = []     # int echelon rows, or packed ones
        self._w = None      # the lane bytes of packed rows
        p = field.p
        if p and width >= _PACKED_WIDTH:
            # a stored row starts in [0, p) and gains at most (p - 1)^2 a
            # lane at each of at most width - 1 later inserts; a reduction
            # adds at most p - 1 times each stored row to a row in [0, p)
            stored = (p - 1) * (1 + (width - 1) * (p - 1))
            self._w = _lane_bytes((p - 1) * (1 + width * stored), False)
            self._code = _LANE_CODES.get(self._w)

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list:
        """The echelon rows as int rows, in pivot order."""
        if self._w is None:
            return self._rows
        p = self.field.p
        return [[x % p for x in self._unpack(row)] for row in self._rows]

    def _pack(self, v) -> int:
        """The row v, entries in [0, p), packed in lanes of ``_w`` bytes."""
        if self._code:
            return int.from_bytes(array(self._code, v).tobytes(), "little")
        return _packed_rows([v], self.width, self._w)[0]

    def _unpack(self, x: int) -> list:
        """The lanes of a packed row x."""
        data = x.to_bytes(self._w * self.width, "little")
        if self._code:
            return memoryview(data).cast(self._code).tolist()
        return _unpacked(data, self._w, self.width)[0]

    def _ints(self, vec) -> tuple:
        """(int row, d) with vec == int row / d."""
        if len(vec) != self.width:
            raise ValueError(f"vector of length {len(vec)} for a span of "
                             f"width {self.width}")
        (v,), d = _as_ints(self.field, [vec])
        return v, d

    def _cancel(self, u, row, c: int) -> tuple:
        """(w, g): w = (row[c] * u - u[c] * row) / g, which is zero in
        column c, the pivot column of row. Over Q g is the gcd of the
        entries (0 if they all vanish); over F_p row[c] is 1, w is reduced
        mod p and g is 1."""
        p = self.field.p
        b = u[c]
        if p:
            return [(x - b * y) % p for x, y in zip(u, row)], 1
        a = row[c]
        h = gcd(a, b)
        if h > 1:
            a //= h
            b //= h
        w = [a * x - b * y for x, y in zip(u, row)]
        g = gcd(*w)
        return ([x // g for x in w] if g > 1 else w), g * h

    def _reduce(self, v) -> tuple:
        """(w, n, d) with v == (n / d) * w modulo the span and w zero in
        every pivot column."""
        if self._w is not None:
            p = self.field.p
            coefs = [-v[c] % p for c in self.pivots]
            if not any(coefs):
                return v, 1, 1
            acc = sum(map(mul, compress(coefs, coefs),
                          compress(self._rows, coefs)), self._pack(v))
            return [x % p for x in self._unpack(acc)], 1, 1
        n = d = 1
        for row, c in zip(self._rows, self.pivots):
            if v[c]:
                d *= row[c]
                v, g = self._cancel(v, row, c)
                n *= g
        return v, n, d

    def _insert(self, v) -> bool:
        """Reduce an int row, normalise it, clear its pivot column from the
        stored rows and insert it in pivot order; True if the span grew."""
        v = self._reduce(v)[0]
        c = next(compress(count(), v), None)
        if c is None:
            return False
        p = self.field.p
        if p:
            if v[c] != 1:
                inv = pow(v[c], -1, p)
                v = [x * inv % p for x in v]
        else:
            v = _primitive(v)
            if v[c] < 0:
                v = [-x for x in v]
        rows = self._rows
        if self._w is not None:
            v = self._pack(v)
            shift, mask = 8 * self._w * c, (1 << 8 * self._w) - 1
            for i, row in enumerate(rows):
                b = (row >> shift & mask) % p
                if b:
                    rows[i] = row + (p - b) * v
        else:
            for i, row in enumerate(rows):
                if row[c]:
                    rows[i] = self._cancel(row, v, c)[0]
        at = bisect(self.pivots, c)
        rows.insert(at, v)
        self.pivots.insert(at, c)
        return True

    def reduce(self, vec) -> tuple:
        """Residue of vec modulo the current span."""
        v, d = self._ints(vec)
        w, n, e = self._reduce(v)
        return tuple(_scalars(self.field, [n * x for x in w], d * e))

    def contains(self, vec) -> bool:
        return not any(self._reduce(self._ints(vec)[0])[0])

    def contains_terms(self, terms: dict) -> bool:
        """:meth:`contains` for the vector with the entries ``{index:
        scalar}`` of ``terms`` and zeros elsewhere. The stored rows are
        fully reduced, so cancelling one of them leaves the vector's
        entries in every other pivot column as they were: only the rows
        whose pivot lies in the support are visited, each found by
        bisection (packed rows are all read, as by :meth:`contains`)."""
        (values,), _ = _as_ints(self.field, [list(terms.values())])
        v = [0] * self.width
        for i, x in zip(terms, values):
            v[i] = x
        if self._w is not None:
            return not any(self._reduce(v)[0])
        pivots = self.pivots
        for c in sorted(terms):
            at = bisect_left(pivots, c)
            if at < len(pivots) and pivots[at] == c and v[c]:
                v = self._cancel(v, self._rows[at], c)[0]
        return not any(v)

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        return self._insert(self._ints(vec)[0])

    def basis(self) -> list:
        return [tuple(_scalars(self.field, row, row[c]))
                for row, c in zip(self.rows, self.pivots)]

    def copy(self) -> "Span":
        # rows are replaced, never changed in place, so sharing them is safe
        sp = Span(self.field, self.width)
        sp._rows = list(self._rows)
        sp.pivots = list(self.pivots)
        return sp


def span_of(field: FieldSpec, vectors, width: int) -> Span:
    sp = Span(field, width)
    for v in vectors:
        sp.add(v)
    return sp
