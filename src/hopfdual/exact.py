"""Exact scalars and dense linear algebra over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always reduced, positive denominator), ints in ``[0, p)`` over a prime
field. A :class:`FieldSpec` carries the arithmetic; :class:`Matrix` is an
immutable dense matrix over one field. Every entry a caller reads or passes
in has one of those two forms.

Inside, matrix products, matrix-vector products, :func:`lincomb` and
elimination run on rows of plain ints and build scalars only at the end.
Over Q an operand is scaled to integers by one common denominator; over F_p
a dot product or row operation sums int products and reduces mod p once per
entry. Zero rows and zero pivot-column entries are skipped.

:class:`Span` keeps a row space in reduced echelon form as int rows, and
its insert step is the only elimination loop: a new row is reduced against
the stored rows by v <- pivot * v - v[c] * row (then divided by its gcd
over Q, or reduced mod p), pivots on its first nonzero entry and clears
that column from the stored rows. The reduced echelon form is unique, so
every output is reproducible. :func:`rref` feeds a matrix's rows through
that step; :func:`kernel_basis` reads its result, :func:`solve_many` solves
for many right-hand sides from one :func:`rref` of the augmented matrix,
and :func:`solve` and :func:`inverse` are its one-vector and identity
cases. :func:`lincomb` sums scaled matrices in one pass.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul


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
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient domain: the rationals, or F_p for a prime p < 2**31."""

    kind: str
    p: int | None = None

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

    @property
    def zero(self):
        return 0 if self.p else _Q_ZERO

    @property
    def one(self):
        return 1 if self.p else _Q_ONE

    def characteristic(self) -> int:
        return self.p or 0

    def from_int(self, n: int):
        return n % self.p if self.p else Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- string forms --------------------------------------------------------

    def parse(self, s: str):
        """Parse a scalar string: "a/b" or "a" over Q, a decimal over F_p."""
        s = s.strip()
        try:
            if self.p:
                return int(s) % self.p
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad scalar {s!r} for {self.kind}: {exc}") from exc

    def format(self, a) -> str:
        if self.p:
            return str(a % self.p)
        return str(a)  # Fraction prints "a/b" reduced, or "a" for integers

    def describe(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


# -- vector helpers (tuples of scalars) --------------------------------------

def vzero(field: FieldSpec, n: int) -> tuple:
    return (field.zero,) * n


def vbasis(field: FieldSpec, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vadd(field: FieldSpec, u, v) -> tuple:
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vsub(field: FieldSpec, u, v) -> tuple:
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vscale(field: FieldSpec, c, u) -> tuple:
    return tuple(field.mul(c, a) for a in u)


# -- integer rows ------------------------------------------------------------

def _as_ints(field: FieldSpec, rows):
    """(int rows, d) with rows == int rows / d; one d for all the rows."""
    if field.p:
        return rows, 1
    d = lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in rows], d


def _scalars(field: FieldSpec, ints, d: int) -> list:
    """The field's scalars ints[j] / d."""
    if field.p:
        return [x % field.p for x in ints]
    if d == 1:
        return [Fraction(x) for x in ints]
    return [Fraction(x, d) for x in ints]


def _products(field: FieldSpec, left, right) -> list:
    """[[u . v for v in right] for u in left] as the field's scalars."""
    a, da = _as_ints(field, left)
    b, db = _as_ints(field, right)
    zero_row = [field.zero] * len(b)
    return [_scalars(field, [sum(map(mul, u, v)) for v in b], da * db)
            if any(u) else zero_row for u in a]


def _primitive(row: list) -> list:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class Matrix:
    """Immutable dense matrix; entries share one FieldSpec."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, entries, cols: int | None = None):
        entries = tuple(tuple(row) for row in entries)
        if cols is None:
            cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_int_rows(field: FieldSpec, rows) -> "Matrix":
        return Matrix(field, [[field.from_int(x) for x in row] for row in rows])

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Matrix":
        return Matrix(field, [vbasis(field, n, i) for i in range(n)])

    @staticmethod
    def zero(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, [vzero(field, cols)] * rows, cols=cols)

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
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in row)
                         for row in self.entries)
        return f"Matrix({self.field.describe()}, [{body}])"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        return Matrix(f, [vadd(f, r, s) for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        return Matrix(f, [vsub(f, r, s) for r, s in zip(self.entries, other.entries)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        cols = list(zip(*other.entries)) if other.rows else [()] * other.cols
        return Matrix(self.field, _products(self.field, self.entries, cols),
                      cols=other.cols)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [vscale(f, c, row) for row in self.entries])

    def transpose(self) -> "Matrix":
        if not self.entries:
            return Matrix(self.field, [[]] * self.cols, cols=0)
        return Matrix(self.field, list(zip(*self.entries)), cols=self.rows)

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("length mismatch")
        return tuple(_products(self.field, [vec], self.entries)[0])

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)


@dataclass(frozen=True)
class Echelon:
    rank: int
    pivots: tuple
    reduced: Matrix


def rref(m: Matrix) -> Echelon:
    """Reduced row-echelon form; unique.

    The rows go one by one through the insert step of a fresh
    :class:`Span`, which keeps them reduced; the span's basis is the
    nonzero part of the form."""
    f = m.field
    sp = Span(f, m.cols)
    for row in _as_ints(f, m.entries)[0]:
        if sp.dim == m.cols:
            break
        sp._insert(row)
    reduced = sp.basis() + [[f.zero] * m.cols] * (m.rows - sp.dim)
    return Echelon(sp.dim, tuple(sp.pivots), Matrix(f, reduced, cols=m.cols))


def rank(m: Matrix) -> int:
    return rref(m).rank


def kernel_basis(m: Matrix) -> list:
    """Basis of the right null space; one vector per free column."""
    ech = rref(m)
    f = m.field
    pivot_set = set(ech.pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [f.zero] * m.cols
        v[j] = f.one
        for r, c in enumerate(ech.pivots):
            v[c] = f.neg(ech.reduced.entries[r][j])
        basis.append(tuple(v))
    return basis


def solve_many(m: Matrix, rhs) -> list | None:
    """Solutions of m x = b for every b in rhs from one elimination of
    [m | b_1 ... b_k], or None if any b is outside the column space; free
    variables are set to zero."""
    rhs = [tuple(b) for b in rhs]
    if any(len(b) != m.rows for b in rhs):
        raise ValueError("rhs length mismatch")
    f = m.field
    n = m.cols
    aug = Matrix(f, [row + tuple(b[i] for b in rhs)
                     for i, row in enumerate(m.entries)], cols=n + len(rhs))
    ech = rref(aug)
    if ech.pivots and ech.pivots[-1] >= n:
        return None  # pivot in an augmented column: inconsistent
    out = []
    for k in range(n, n + len(rhs)):
        x = [f.zero] * n
        for r, c in enumerate(ech.pivots):
            x[c] = ech.reduced.entries[r][k]
        out.append(tuple(x))
    return out


def solve(m: Matrix, b) -> tuple | None:
    """One solution of m x = b, or None; free variables are set to zero."""
    sols = solve_many(m, [b])
    return None if sols is None else sols[0]


def inverse(m: Matrix) -> Matrix | None:
    if m.rows != m.cols:
        raise ValueError("not square")
    f = m.field
    cols = solve_many(m, [vbasis(f, m.rows, i) for i in range(m.rows)])
    return None if cols is None else Matrix(f, list(zip(*cols)), cols=m.rows)


def lincomb(field: FieldSpec, rows: int, cols: int, terms) -> Matrix:
    """Sum of c * M over the (c, M) pairs of terms, as a rows x cols matrix,
    in one pass over integer rows with one common denominator; zero
    coefficients and zero rows are skipped."""
    scaled = []
    for c, m in terms:
        if m.field != field:
            raise FieldMismatch(f"{m.field} vs {field}")
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch")
        if c:
            ints, d = _as_ints(field, m.entries)
            scaled.append((c, ints, d))
    # over Q, c * ints / d == c.numerator * k * ints / den for
    # k = den / (d * c.denominator)
    den = 1 if field.p else lcm(*[d * c.denominator for c, _, d in scaled])
    acc = [[0] * cols for _ in range(rows)]
    for c, ints, d in scaled:
        k = c if field.p else c.numerator * (den // (d * c.denominator))
        for i, row in enumerate(ints):
            if any(row):
                acc[i] = [s + k * x for s, x in zip(acc[i], row)]
    return Matrix(field, [_scalars(field, row, den) for row in acc], cols=cols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i, j) of the tensor basis maps to i*dim(b)+j."""
    a._check(b)
    f = a.field
    out = []
    for ra in a.entries:
        for rb in b.entries:
            out.append([f.mul(x, y) for x in ra for y in rb])
    return Matrix(f, out, cols=a.cols * b.cols)


def stack(matrices) -> Matrix:
    """Vertical stack; all blocks must share field and column count."""
    matrices = list(matrices)
    f = matrices[0].field
    cols = matrices[0].cols
    rows = []
    for m in matrices:
        if m.field != f:
            raise FieldMismatch("stack over mixed fields")
        if m.cols != cols:
            raise ValueError("stack with unequal widths")
        rows.extend(m.entries)
    return Matrix(f, rows, cols=cols)


class Span:
    """Row space kept in reduced echelon form, for membership tests.

    The rows are int rows in pivot order, each zero in the pivot column of
    every other row: over Q primitive with a positive pivot, over F_p with
    pivot 1. :meth:`basis` divides a row by its pivot when it is read."""

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows = []      # int echelon rows
        self.pivots = []    # pivot column of each row

    @property
    def dim(self) -> int:
        return len(self.rows)

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
        n = d = 1
        for row, c in zip(self.rows, self.pivots):
            if v[c]:
                d *= row[c]
                v, g = self._cancel(v, row, c)
                n *= g
        return v, n, d

    def _insert(self, v) -> bool:
        """Reduce an int row, normalise it, clear its pivot column from the
        stored rows and insert it in pivot order; True if the span grew."""
        v = self._reduce(v)[0]
        c = next((j for j, x in enumerate(v) if x), None)
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
        rows = self.rows
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

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        return self._insert(self._ints(vec)[0])

    def basis(self) -> list:
        return [tuple(_scalars(self.field, row, row[c]))
                for row, c in zip(self.rows, self.pivots)]


def span_of(field: FieldSpec, vectors, width: int) -> Span:
    sp = Span(field, width)
    for v in vectors:
        sp.add(v)
    return sp


def extend_to_basis(field: FieldSpec, vectors, width: int) -> list:
    """Complete the given independent family to a basis using unit vectors."""
    sp = span_of(field, vectors, width)
    extra = []
    for i in range(width):
        e = vbasis(field, width, i)
        if sp.add(e):
            extra.append(e)
    return extra
