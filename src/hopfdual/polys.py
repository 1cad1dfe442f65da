"""Dense univariate polynomials over a FieldSpec, as low-to-high coefficient
tuples. Enough machinery for characteristic polynomials (Hessenberg
reduction), factorization over prime fields (square-free, distinct-degree and
Cantor-Zassenhaus equal-degree splitting) and rational root extraction over
Q."""

from __future__ import annotations

import math
import random

from .exact import FieldSpec, Matrix


def normalize(field: FieldSpec, coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return tuple(coeffs)


def degree(poly) -> int:
    return len(poly) - 1  # degree of the zero polynomial is -1


def add(field: FieldSpec, a, b) -> tuple:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return normalize(field, out)


def mul(field: FieldSpec, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return normalize(field, out)


def scale(field: FieldSpec, c, a) -> tuple:
    return normalize(field, [field.mul(c, x) for x in a])


def divmod_poly(field: FieldSpec, a, b):
    """Quotient and remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    while len(a) >= len(b) and any(x != field.zero for x in a):
        if a[-1] == field.zero:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = field.mul(a[-1], inv_lead)
        q[shift] = c
        for i, x in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(c, x))
        a.pop()
    return normalize(field, q), normalize(field, a)


def eval_at_matrix(field: FieldSpec, poly, m: Matrix) -> Matrix:
    """poly(m) by Horner's rule, each step adding c on the diagonal."""
    acc = Matrix.zero(field, m.rows, m.rows)
    for c in reversed(poly):
        acc = (acc * m).shift(c)
    return acc


def char_poly(m: Matrix) -> tuple:
    """Characteristic polynomial det(xI - m), monic, in O(n^3) field
    operations over any FieldSpec.

    A copy of the entries is brought to upper Hessenberg form H by similarity
    (Cohen, Alg. 2.2.9): in each column the first nonzero entry below the
    diagonal is swapped onto the subdiagonal and clears the entries below
    it. The characteristic polynomials p_k of the leading k x k blocks of H
    then satisfy

        p_k = (x - h_kk) p_(k-1)
              - sum_(i<k) h_ik h_(k,k-1) h_(k-1,k-2) ... h_(i+1,i) p_(i-1).
    """
    f = m.field
    n = m.rows
    if m.cols != n:
        raise ValueError("characteristic polynomial needs a square matrix")
    h = [list(row) for row in m.entries]
    for c in range(n - 2):
        r = c + 1
        piv = next((i for i in range(r, n) if h[i][c] != f.zero), None)
        if piv is None:
            continue
        if piv != r:
            h[piv], h[r] = h[r], h[piv]
            for row in h:
                row[piv], row[r] = row[r], row[piv]
        inv = f.inv(h[r][c])
        for i in range(r + 1, n):
            if h[i][c] == f.zero:
                continue
            # row_i -= u row_r, then column_r += u column_i
            u = f.mul(h[i][c], inv)
            h[i] = [f.sub(x, f.mul(u, y)) for x, y in zip(h[i], h[r])]
            for row in h:
                row[r] = f.add(row[r], f.mul(u, row[i]))
    minors = [(f.one,)]
    for k in range(n):
        pk = mul(f, (f.neg(h[k][k]), f.one), minors[k])
        t = f.one
        for i in range(k - 1, -1, -1):
            t = f.mul(t, h[i + 1][i])
            if t == f.zero:
                break
            pk = add(f, pk, scale(f, f.neg(f.mul(h[i][k], t)), minors[i]))
        minors.append(pk)
    return minors[n]


def gcd_poly(field: FieldSpec, a, b) -> tuple:
    """Monic greatest common divisor; () when both are zero."""
    while b:
        a, b = b, divmod_poly(field, a, b)[1]
    return scale(field, field.inv(a[-1]), a) if a else ()


def powmod(field: FieldSpec, a, e: int, mod) -> tuple:
    """a^e modulo mod (of positive degree), by repeated squaring."""
    out = (field.one,)
    a = divmod_poly(field, a, mod)[1]
    while e:
        if e & 1:
            out = divmod_poly(field, mul(field, out, a), mod)[1]
        e >>= 1
        if e:
            a = divmod_poly(field, mul(field, a, a), mod)[1]
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
    if not poly or poly[-1] != field.one:
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
    deriv = normalize(field, [field.mul(field.from_int(i), c)
                              for i, c in enumerate(poly)][1:])
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
    d of a square-free monic poly."""
    out = []
    h = (field.zero, field.one)
    d = 0
    while 2 * (d + 1) <= degree(poly):
        d += 1
        h = powmod(field, h, field.p, poly)  # x^(p^d) mod poly
        g = gcd_poly(field, poly, add(field, h, (field.zero,
                                                 field.neg(field.one))))
        if degree(g) > 0:
            out.append((d, g))
            poly = divmod_poly(field, poly, g)[0]
            h = divmod_poly(field, h, poly)[1]
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
                t = divmod_poly(field, mul(field, t, t), poly)[1]
        else:
            # a^((p^d - 1)/2) is 0 or +-1 mod each factor
            b = add(field, powmod(field, a, (p ** d - 1) // 2, poly),
                    (field.neg(field.one),))
        g = gcd_poly(field, poly, b)
        if 0 < degree(g) < n:
            return (_equal_degree(field, g, d, rng)
                    + _equal_degree(field, divmod_poly(field, poly, g)[0],
                                    d, rng))


def rational_roots(poly) -> list:
    """All rational roots of a polynomial with rational (int or Fraction)
    coefficients, in increasing order, as canonical scalars of Q: the
    rational root theorem on the cleared-denominator form, each candidate
    n/d in lowest terms tested in integer arithmetic as d^m p(n/d) = 0."""
    q = FieldSpec.rationals()
    den = math.lcm(*[c.denominator for c in poly])
    ints = [c.numerator * (den // c.denominator) for c in poly]
    roots = []
    # strip roots at zero first
    if ints and ints[0] == 0:
        roots.append(q.zero)
        while ints and ints[0] == 0:
            ints.pop(0)
    if len(ints) <= 1:
        return roots
    for num in _divisors(abs(ints[0])):
        for d in _divisors(abs(ints[-1])):
            if math.gcd(num, d) > 1:
                continue
            for n in (num, -num):
                acc, scale_d = ints[-1], 1
                for c in reversed(ints[:-1]):
                    scale_d *= d
                    acc = acc * n + c * scale_d
                if acc == 0:
                    roots.append(q.mul(n, q.inv(d)))
    return sorted(roots)


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


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
