"""Dense univariate polynomials over a FieldSpec, as low-to-high tuples of
canonical scalars; the zero polynomial is ().

Each routine has one code path for Q and F_p. It computes with plain
``+``, ``-`` and ``*`` on scalars and calls ``field.canonical`` once per
coefficient it returns and once per leading coefficient it divides by:
delayed reduction, as :func:`hopfdual.exact.lincomb` does. Products and
remainders are the schoolbook ones, on coefficient lists (von zur Gathen
and Gerhard, *Modern Computer Algebra*, ch. 2). :func:`add`,
:func:`scale` and :func:`divmod_poly` also take raw coefficients, such as
an unreduced product, and return canonical ones.

:func:`char_poly` runs a Hessenberg reduction and the minors recurrence on
row lists. :func:`eval_at_matrix` evaluates at a matrix by Horner's rule,
in d - 1 products for degree d >= 1. The factoring routines work over F_p
only: square-free, distinct-degree and Cantor-Zassenhaus equal-degree
splitting (von zur Gathen and Gerhard, ch. 14), each division through the
module-level :func:`divmod_poly`. The distinct-degree split takes one
p-th power, x^p, and reads every later x^(p^d) off the Frobenius matrix
of rows x^(ip) mod f, one vector-matrix product per degree. Over Q there
is no root finder: a matrix of finite order can have no rational
eigenvalue but -1 and 1."""

from __future__ import annotations

import random

from .exact import FieldSpec, Matrix, lincomb


def normalize(field: FieldSpec, coeffs) -> tuple:
    """coeffs without its trailing zeros, as a tuple."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _reduced(field: FieldSpec, raw) -> tuple:
    """The polynomial of raw coefficients, each made canonical once."""
    return normalize(field, map(field.canonical, raw))


def degree(poly) -> int:
    return len(poly) - 1  # degree of the zero polynomial is -1


def add(field: FieldSpec, a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    return _reduced(field, [x + y for x, y in zip(a, b)] + list(a[len(b):]))


def _product(a, b) -> list:
    """The raw coefficients of a * b: the longer factor, times each nonzero
    coefficient of the shorter one, added in at its offset."""
    if len(a) < len(b):
        a, b = b, a
    la = len(a)
    out = [0] * (la + len(b) - 1) if b else []
    for i, x in enumerate(b):
        if x:
            out[i:i + la] = [s + x * y for s, y in zip(out[i:i + la], a)]
    return out


def mul(field: FieldSpec, a, b) -> tuple:
    return _reduced(field, _product(a, b))


def scale(field: FieldSpec, c, a) -> tuple:
    return _reduced(field, [c * x for x in a])


def divmod_poly(field: FieldSpec, a, b):
    """Quotient and remainder of a by b; b must be nonzero. From the top
    down, each quotient coefficient is the leading coefficient of what is
    left, made canonical once times the inverse of b's, and b times it
    is taken off the coefficients below unreduced."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    canon = field.canonical
    m, top = len(b) - 1, len(a) - len(b)
    if top < 0:
        return (), _reduced(field, a)
    inv = field.inv(b[-1])
    low = b[:-1]
    r = list(a)
    q = [0] * (top + 1)
    for k in range(top, -1, -1):
        c = q[k] = canon(r[k + m] * inv)
        if c:
            r[k:k + m] = [x - c * y for x, y in zip(r[k:k + m], low)]
    return normalize(field, q), _reduced(field, r[:m])


def eval_at_matrix(field: FieldSpec, poly, m: Matrix) -> Matrix:
    """poly(m) for a square m, by Horner's rule started at a m + b for the
    top two coefficients a, b: degree d costs d - 1 products, and degree
    <= 1 none."""
    n = m.rows
    if m.cols != n:
        raise ValueError("not square")
    if not poly:
        return Matrix.zero(field, n, n)
    d = degree(poly)
    if d == 0:
        return lincomb(field, n, n, []).shift(poly[0])
    acc = lincomb(field, n, n, [(poly[d], m)]).shift(poly[d - 1])
    for c in reversed(poly[:d - 1]):
        acc = (acc * m).shift(c)
    return acc


def char_poly(m: Matrix) -> tuple:
    """Characteristic polynomial det(xI - m), monic, in O(n^3) scalar
    operations over any FieldSpec.

    A copy of the entries is brought to upper Hessenberg form H by similarity
    (Cohen, Alg. 2.2.9): in each column c the first nonzero entry below the
    diagonal is swapped onto the subdiagonal, row r = c + 1, and row i > r
    less u_i times row r clears entry (i, c); then column r gains the sum of
    u_i times column i. The characteristic polynomials p_k of the leading
    k x k blocks of H then satisfy

        p_k = (x - h_kk) p_(k-1)
              - sum_(i<k) h_ik h_(k,k-1) h_(k-1,k-2) ... h_(i+1,i) p_(i-1).

    Each entry a step changes is made canonical once, and each p_k once per
    coefficient."""
    f = m.field
    canon = f.canonical
    n = m.rows
    if m.cols != n:
        raise ValueError("characteristic polynomial needs a square matrix")
    h = [list(row) for row in m.entries]
    for c in range(n - 2):
        r = c + 1
        piv = next((i for i in range(r, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            h[piv], h[r] = h[r], h[piv]
            for row in h:
                row[piv], row[r] = row[r], row[piv]
        inv = f.inv(h[r][c])
        # row r is zero left of column c, so the row steps start there
        hr = h[r][c:]
        steps = []
        for i in range(r + 1, n):
            if h[i][c]:
                u = canon(h[i][c] * inv)
                h[i][c:] = map(canon, [x - u * y
                                       for x, y in zip(h[i][c:], hr)])
                steps.append((i, u))
        if steps:
            for row in h:
                row[r] = canon(row[r] + sum([u * row[i] for i, u in steps]))
    minors = [(1,)]
    for k in range(n):
        prev = minors[k]
        hkk = h[k][k]
        acc = [0, *prev]
        acc[:k + 1] = [x - hkk * y for x, y in zip(acc, prev)]
        t = 1
        for i in range(k - 1, -1, -1):
            t = canon(t * h[i + 1][i])
            if not t:
                break
            s = h[i][k] * t
            if s:
                acc[:i + 1] = [x - s * y for x, y in zip(acc, minors[i])]
        minors.append(tuple(map(canon, acc)))
    return minors[n]


def gcd_poly(field: FieldSpec, a, b) -> tuple:
    """Monic greatest common divisor; () when both are zero."""
    while b:
        a, b = b, divmod_poly(field, a, b)[1]
    return scale(field, field.inv(a[-1]), a) if a else ()


def powmod(field: FieldSpec, a, e: int, mod) -> tuple:
    """a^e modulo mod (of positive degree), by repeated squaring; each
    product is reduced only by the division."""
    out = (1,)
    a = divmod_poly(field, a, mod)[1]
    while e:
        if e & 1:
            out = divmod_poly(field, _product(out, a), mod)[1]
        e >>= 1
        if e:
            a = divmod_poly(field, _product(a, a), mod)[1]
    return out


def factor_monic_fp(field: FieldSpec, poly) -> dict:
    """Factor a monic polynomial over F_p into monic irreducibles, as
    {factor: multiplicity} in increasing (degree, coefficients) order.

    Square-free split, then distinct-degree split, then Cantor-Zassenhaus
    equal-degree split. The last draws from a fixed-seed generator; the
    factorization is unique, so the result does not depend on the draws.
    """
    if field.p is None:
        raise ValueError("factorization implemented over prime fields only")
    if not poly or poly[-1] != 1:
        raise ValueError("monic polynomial required")
    rng = random.Random(0)
    factors: dict = {}
    for g, e in _squarefree(field, poly):
        for d, h in _distinct_degree(field, g):
            for q in _equal_degree(field, h, d, rng):
                factors[q] = factors.get(q, 0) + e
    return {q: factors[q] for q in sorted(factors, key=lambda q: (len(q), q))}


def _squarefree(field: FieldSpec, poly) -> list:
    """Pairs (g, e) with poly the product of the g^e: each g monic,
    square-free and nonconstant, no two with a common factor."""
    p = field.p
    deriv = _reduced(field, [i * c for i, c in enumerate(poly)][1:])
    c = gcd_poly(field, poly, deriv)
    w = divmod_poly(field, poly, c)[0]
    out = []
    e = 1
    # w: the factors of multiplicity >= e and prime to p; c: what is left
    while degree(w) > 0:
        y = gcd_poly(field, w, c)
        fac = divmod_poly(field, w, y)[0]
        if degree(fac) > 0:
            out.append((fac, e))
        w = y
        c = divmod_poly(field, c, y)[0]
        e += 1
    if degree(c) > 0:
        # c is a polynomial in x^p, and a^p = a in F_p: its p-th root
        out.extend((g, k * p) for g, k in _squarefree(field, c[::p]))
    return out


def _distinct_degree(field: FieldSpec, poly) -> list:
    """Pairs (d, g) with g the product of the irreducible factors of degree
    d of a square-free monic poly.

    The d-th step takes the gcd of poly with x^(p^d) - x. Over F_p,
    a^p = sum a_i x^(ip) for a = sum a_i x^i, so x^(p^d) mod poly is the
    coefficients of x^(p^(d-1)) times the rows x^(ip) mod poly, i < deg
    poly (the Berlekamp or Frobenius matrix; von zur Gathen and Gerhard,
    ch. 14): one vector-matrix product per step, with one reduction per
    coefficient, where a p-th power costs about log p products. The first
    step takes x^p by one :func:`powmod`; the second, if there is one,
    builds the rows as the powers of x^p, and when a factor is split off
    they are reduced modulo what is left."""
    out = []
    rows = None  # rows[i] = x^(ip) mod poly, built at the second step
    d = 0
    while 2 * (d + 1) <= degree(poly):
        d += 1
        if d == 1:
            h = powmod(field, (0, 1), field.p, poly)  # x^p mod poly
        else:
            if rows is None:
                rows = [(1,), h]
                for _ in range(degree(poly) - 2):
                    rows.append(divmod_poly(field, _product(rows[-1], h),
                                            poly)[1])
            acc = [0] * degree(poly)
            for c, row in zip(h, rows):
                if c:
                    acc[:len(row)] = [s + c * y for s, y in zip(acc, row)]
            h = _reduced(field, acc)  # x^(p^d) mod poly
        g = gcd_poly(field, poly, add(field, h, (0, -1)))
        if degree(g) > 0:
            out.append((d, g))
            poly = divmod_poly(field, poly, g)[0]
            h = divmod_poly(field, h, poly)[1]
            if rows:
                rows = [divmod_poly(field, row, poly)[1]
                        for row in rows[:degree(poly)]]
    if degree(poly) > 0:
        out.append((degree(poly), poly))
    return out


def _equal_degree(field: FieldSpec, poly, d: int, rng) -> list:
    """The irreducible factors of a square-free monic poly whose irreducible
    factors all have degree d (Cantor-Zassenhaus)."""
    n = degree(poly)
    if n == d:
        return [poly]
    p = field.p
    while True:
        a = normalize(field, [rng.randrange(p) for _ in range(n)])
        if p == 2:
            # the trace a + a^2 + ... + a^(2^(d-1)) is 0 or 1 mod each factor
            b, t = (), a
            for _ in range(d):
                b = add(field, b, t)
                t = divmod_poly(field, _product(t, t), poly)[1]
        else:
            # a^((p^d - 1)/2) is 0 or +-1 mod each factor
            b = add(field, powmod(field, a, (p ** d - 1) // 2, poly), (-1,))
        g = gcd_poly(field, poly, b)
        if 0 < degree(g) < n:
            return (_equal_degree(field, g, d, rng)
                    + _equal_degree(field, divmod_poly(field, poly, g)[0],
                                    d, rng))


def poly_str(field: FieldSpec, poly, var: str = "x") -> str:
    if not poly:
        return "0"
    terms = []
    for i, c in enumerate(poly):
        if c == field.zero:
            continue
        cs = field.format(c)
        if i == 0:
            terms.append(cs)
        elif i == 1:
            terms.append(f"{cs}*{var}" if cs != "1" else var)
        else:
            terms.append(f"{cs}*{var}^{i}" if cs != "1" else f"{var}^{i}")
    return " + ".join(terms)
