"""Slow reference kernel: the per-scalar product, dot, linear-combination
and elimination loops, one ``FieldSpec`` call per scalar operation. The
integer-row kernel in ``hopfdual.exact`` must agree with these exactly;
``test_exact`` compares the two."""

from hopfdual.exact import Echelon, FieldMismatch, Matrix


def vdot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.cols} vs {b.rows}")
    f = a.field
    cols = [b.column(j) for j in range(b.cols)]
    return Matrix(f, [[vdot(f, row, col) for col in cols]
                      for row in a.entries], cols=b.cols)


def apply(m: Matrix, vec) -> tuple:
    if len(vec) != m.cols:
        raise ValueError("length mismatch")
    return tuple(vdot(m.field, row, vec) for row in m.entries)


def lincomb(field, rows, cols, terms) -> Matrix:
    z = field.zero
    acc = [[z] * cols for _ in range(rows)]
    for c, m in terms:
        if m.field != field:
            raise FieldMismatch(f"{m.field} vs {field}")
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch")
        for out, row in zip(acc, m.entries):
            for j, x in enumerate(row):
                out[j] = field.add(out[j], field.mul(c, x))
    return Matrix(field, acc, cols=cols)


def rref(m: Matrix) -> Echelon:
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
    return Echelon(len(pivots), tuple(pivots), Matrix(f, rows, cols=m.cols))
