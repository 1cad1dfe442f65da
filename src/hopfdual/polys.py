"""Dense univariate polynomials over a FieldSpec, as low-to-high coefficient
tuples. Enough machinery for characteristic polynomials, brute-force
factorization over prime fields, and rational root extraction over Q."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

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


def eval_at(field: FieldSpec, poly, x):
    acc = field.zero
    for c in reversed(poly):
        acc = field.add(field.mul(acc, x), c)
    return acc


def eval_at_matrix(field: FieldSpec, poly, m: Matrix) -> Matrix:
    n = m.rows
    acc = Matrix.zero(field, n, n)
    for c in reversed(poly):
        acc = acc * m + Matrix.identity(field, n).scale(c)
    return acc


def char_poly(m: Matrix) -> tuple:
    """Characteristic polynomial det(xI - m), monic, by minor expansion with
    memoization over column subsets. Exact over any FieldSpec; intended for
    small matrices."""
    f = m.field
    n = m.rows
    if m.cols != n:
        raise ValueError("characteristic polynomial needs a square matrix")

    def entry(i, j):
        # (xI - m)[i][j]
        if i == j:
            return normalize(f, (f.neg(m.entries[i][j]), f.one))
        return normalize(f, (f.neg(m.entries[i][j]),))

    memo = {}

    def det(r, cols):
        if r == n:
            return (f.one,)
        key = (r, cols)
        if key in memo:
            return memo[key]
        acc = ()
        sign = False
        for idx, j in enumerate(cols):
            e = entry(r, j)
            if e:
                sub = det(r + 1, cols[:idx] + cols[idx + 1:])
                term = mul(f, e, sub)
                if idx % 2 == 1:
                    term = scale(f, f.neg(f.one), term)
                acc = add(f, acc, term)
        memo[key] = acc
        return acc

    return det(0, tuple(range(n)))


def factor_monic_fp(field: FieldSpec, poly) -> dict:
    """Factor a monic polynomial over F_p into monic irreducibles by
    exhaustive trial division in increasing degree.

    Any divisor found at the smallest degree still dividing the remainder
    is automatically irreducible; once no factor of degree <= deg/2 is
    left, the remainder itself is irreducible.
    """
    if field.p is None:
        raise ValueError("factorization implemented over prime fields only")
    if not poly or poly[-1] != field.one:
        raise ValueError("monic polynomial required")
    p = field.p
    factors: dict = {}
    rem = poly
    d = 1
    while degree(rem) > 0:
        if 2 * d > degree(rem):
            factors[rem] = factors.get(rem, 0) + 1
            break
        for tail in itertools.product(range(p), repeat=d):
            q = normalize(field, tuple(field.from_int(c) for c in tail)
                          + (field.one,))
            quo, r = divmod_poly(field, rem, q)
            while not r:
                factors[q] = factors.get(q, 0) + 1
                rem = quo
                quo, r = divmod_poly(field, rem, q)
            if degree(rem) < 2 * d:
                break
        d += 1
    return factors


def rational_roots(poly) -> list:
    """All rational roots of a polynomial with Fraction coefficients, by the
    rational root theorem on the cleared-denominator form."""
    coeffs = [Fraction(c) for c in poly]
    if not coeffs:
        return []
    roots = []
    # strip roots at zero first
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.append(Fraction(0))
    if len(coeffs) <= 1:
        return sorted(set(roots))
    lcm = 1
    for c in coeffs:
        lcm = math.lcm(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    for num in _divisors(a0):
        for den in _divisors(an):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return sorted(set(roots))


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
