"""Exact scalars and dense linear algebra over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always reduced, positive denominator), ints in ``[0, p)`` over a prime
field. A :class:`FieldSpec` carries the arithmetic; :class:`Matrix` is an
immutable dense matrix over one field. Elimination always pivots on the
first nonzero entry in column order, so every output is reproducible.
:func:`rref` is the only elimination loop: :func:`solve_many` solves for
many right-hand sides from one elimination of the augmented matrix, and
:func:`solve` and :func:`inverse` are its one-vector and identity cases.
:func:`lincomb` sums scaled matrices in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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
        return 0 if self.p else Fraction(0)

    @property
    def one(self):
        return 1 if self.p else Fraction(1)

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


def vdot(field: FieldSpec, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


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
        f = self.field
        cols = list(zip(*other.entries)) if other.entries else []
        return Matrix(f, [[vdot(f, row, col) for col in cols] for row in self.entries])

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
        f = self.field
        return tuple(vdot(f, row, vec) for row in self.entries)

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
    """Reduced row-echelon form with first-nonzero pivoting; unique."""
    f = m.field
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        piv = None
        for i in range(r, m.rows):
            if rows[i][c] != f.zero:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != f.zero:
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Echelon(len(pivots), tuple(pivots), Matrix(f, rows))


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
    in one pass; zero coefficients and zero entries are skipped."""
    z = field.zero
    acc = [[z] * cols for _ in range(rows)]
    for c, m in terms:
        if m.field != field:
            raise FieldMismatch(f"{m.field} vs {field}")
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch")
        if c == z:
            continue
        for out, row in zip(acc, m.entries):
            for j, x in enumerate(row):
                if x != z:
                    out[j] = field.add(out[j], field.mul(c, x))
    return Matrix(field, acc, cols=cols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i, j) of the tensor basis maps to i*dim(b)+j."""
    a._check(b)
    f = a.field
    out = []
    for ra in a.entries:
        for rb in b.entries:
            out.append([f.mul(x, y) for x in ra for y in rb])
    return Matrix(f, out)


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
    return Matrix(f, rows)


class Span:
    """Row space maintained in reduced echelon form, for membership tests."""

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self.rows = []      # echelon rows
        self.pivots = []    # pivot column of each row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> tuple:
        """Residue of vec modulo the current span."""
        f = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != f.zero:
                c = v[p]
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec) -> bool:
        z = self.field.zero
        return all(x == z for x in self.reduce(vec))

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        f = self.field
        v = list(self.reduce(vec))
        piv = next((j for j, x in enumerate(v) if x != f.zero), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(inv, x) for x in v]
        # keep earlier rows reduced against the new one
        for i, row in enumerate(self.rows):
            if row[piv] != f.zero:
                c = row[piv]
                self.rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(row, v)]
        at = next((k for k, p in enumerate(self.pivots) if p > piv),
                  len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, piv)
        return True

    def coordinates(self, vec) -> tuple | None:
        """Coefficients of vec over the stored echelon rows, or None."""
        f = self.field
        v = list(vec)
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coeffs.append(c)
            if c != f.zero:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        if any(x != f.zero for x in v):
            return None
        return tuple(coeffs)

    def basis(self) -> list:
        return [tuple(r) for r in self.rows]


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
