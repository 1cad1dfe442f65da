"""Slow reference kernel: the per-scalar matrix operations (sum, difference,
scaling, Kronecker product, transpose, equality, zero test, product, dot,
linear combination and elimination) and the echelon ``Span``, one
``FieldSpec`` call per scalar operation on ``Fraction`` or mod-p entries.
The integer-row kernel in ``hopfdual.exact`` must agree with these exactly;
``test_exact`` compares the two.

Below them, the polynomial routines with one ``FieldSpec`` call per scalar
operation: sum, product, scaling, division with remainder, gcd, modular
power and the Hessenberg characteristic polynomial, which ``hopfdual.polys``
computes with delayed reduction. Then the small-n ones: the characteristic
polynomial by minor expansion over column subsets (2^n), factoring over
F_p by trial division over every monic candidate (p^d), the
distinct-degree split by one p-th power per degree, and F_p eigenvalues
by evaluation at every field element (p). ``test_polys`` and
``test_reps`` compare ``hopfdual.polys`` and ``hopfdual.reps`` with them.
Then the primary decomposition of a matrix over F_p as it was: each
primary component restricted by a solve and split by a chain of kernels
of q(M)^s and a recursion on quotients; ``test_reps`` compares what the
decomposition determines with it. Then the subspace
questions as they were answered with spans and an inverse: the adapted
basis by the greedy unit-vector completion and the inverse of [sub |
complement], the quotient with invariance tested by membership in the
span of the subspace, the Reynolds image as the span of the columns of
P, invariant exactness by testing each invariant of the target for
membership in the image, the restriction to a subspace by one solve of
all its images, the direct sum by zero-padded rows, the block
diagonality of assembled summands entry by entry, complete
reducibility over F_p by the seeded random search for eigenspaces of
averaged rank-one maps, and complete reducibility by the averaged n x n
projector onto each found subspace; ``test_reps`` compares
``hopfdual.reps`` with them.

Last, the G-laws on every element: invariants, the integral system,
equivariance, subspace invariance and the module law, each over all of G
(every pair of basis elements for a module), the dimension of the module
maps from the equations of every basis element, and the greedy algebra
generating set computed by closing the span under all products of its
basis, round after round. ``hopfdual`` checks each law on a generating set
only; ``test_generating_sets`` compares the two. ``points_all`` finds the
algebra maps into F_p by trying every value tuple; ``test_monoids``
compares it with the pruned search of ``hopfdual.monoids.points``.

Last of all, the straightening of a generator word by a work list of
pending words, each rewritten at its first descent with nothing cached,
and the tensor-algebra oracle with its columns shortest word first, built
by scanning every pair of words (u, v). ``test_lie`` compares them with
the memoized ``TruncatedEnveloping.normal_form`` and with
``TensorAlgebraOracle``; and the distinct rearrangements of a word, kept
from all n! orderings, against the next-permutation steps of
``hopfdual.lie``.

And the axiom sweeps as they were before they were certified on
generating sets: associativity on every basis triple, coassociativity and
the counit laws on every basis element, Delta and epsilon multiplicative
on every basis pair, the antipode identities and the morphism laws, one
``FieldSpec`` call per scalar, with the check names and witnesses of
``hopfdual.bialgebra``; the associativity of a monoid table on every
triple; and ``annihilator_quotient`` by every product of two image
matrices in full. ``test_certificates`` compares them with the certified
checks, on the corpus and on corrupted inputs. Then the six checks of
F(xy) = F(x)F(y) as they were written before the one sparse sweep of
``hopfdual.bialgebra`` replaced them: Delta's raw sparse difference, the
morphism check's dense compare, epsilon read off the product tensor, the
enveloping extension's image of each product, the line comparison's
vector products and the point validation's per-scalar loop;
``test_algebra_map_sweep`` compares the sweep with them on corrupted maps.

At the very end, the truncated formal-matrix integral by expanding Delta
of every monomial of degree <= N and comparing every (mu, kappa) pair.
``test_reps`` compares it with
``hopfdual.reps.formal_matrix_integral``, which checks the generators
only."""

import itertools
import random
from collections import Counter
from types import SimpleNamespace

from hopfdual import polys, reps
from hopfdual.exact import (Echelon, FieldMismatch, FieldSpec, Matrix, Span,
                            block_diag, inverse, kernel_basis, solve,
                            solve_many, span_of, stack, vbasis)
from hopfdual.bialgebra import sparse_sum, vanishes
from hopfdual.lie import TensorAlgebraOracle, TruncationOverflow
from hopfdual.monoids import monoid_algebra
from hopfdual.report import Report


def _check(a: Matrix, b: Matrix):
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")


def matadd(a: Matrix, b: Matrix) -> Matrix:
    _check(a, b)
    f = a.field
    return Matrix(f, [[f.add(x, y) for x, y in zip(r, s)]
                      for r, s in zip(a.entries, b.entries)], cols=a.cols)


def matsub(a: Matrix, b: Matrix) -> Matrix:
    _check(a, b)
    f = a.field
    return Matrix(f, [[f.sub(x, y) for x, y in zip(r, s)]
                      for r, s in zip(a.entries, b.entries)], cols=a.cols)


def matscale(m: Matrix, c) -> Matrix:
    f = m.field
    return Matrix(f, [[f.mul(c, x) for x in row] for row in m.entries],
                  cols=m.cols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    f = a.field
    return Matrix(f, [[f.mul(x, y) for x in ra for y in rb]
                      for ra in a.entries for rb in b.entries],
                  cols=a.cols * b.cols)


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.field, [m.column(j) for j in range(m.cols)],
                  cols=m.rows)


def equal(a: Matrix, b: Matrix) -> bool:
    return a.field == b.field and a.entries == b.entries


def is_zero(m: Matrix) -> bool:
    z = m.field.zero
    return all(x == z for row in m.entries for x in row)


def eval_at_matrix(field, poly, m: Matrix) -> Matrix:
    """poly(m) by Horner's rule with a scaled identity added per step."""
    n = m.rows
    ident = Matrix(field, [[field.one if i == j else field.zero
                            for j in range(n)] for i in range(n)], cols=n)
    acc = Matrix(field, [[field.zero] * n for _ in range(n)], cols=n)
    for c in reversed(poly):
        acc = matadd(matmul(acc, m), matscale(ident, c))
    return acc


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

    def contains_terms(self, terms: dict) -> bool:
        """``contains`` of the dense vector with the entries ``{index:
        scalar}`` of terms, reduced against every stored row."""
        vec = [self.field.zero] * self.width
        for i, c in terms.items():
            vec[i] = c
        return self.contains(vec)

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


# -- polynomials, one FieldSpec call per scalar operation ----------------------

def normalize(field, coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == field.zero:
        coeffs.pop()
    return tuple(coeffs)


def degree(poly) -> int:
    return len(poly) - 1


def poly_add(field, a, b) -> tuple:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return normalize(field, out)


def poly_mul(field, a, b) -> tuple:
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return normalize(field, out)


def poly_scale(field, c, a) -> tuple:
    return normalize(field, [field.mul(c, x) for x in a])


def poly_divmod(field, a, b):
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


def poly_gcd(field, a, b) -> tuple:
    """Monic greatest common divisor; () when both are zero."""
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return poly_scale(field, field.inv(a[-1]), a) if a else ()


def poly_powmod(field, a, e: int, mod) -> tuple:
    """a^e modulo mod (of positive degree), by repeated squaring."""
    out = (field.one,)
    a = poly_divmod(field, a, mod)[1]
    while e:
        if e & 1:
            out = poly_divmod(field, poly_mul(field, out, a), mod)[1]
        e >>= 1
        if e:
            a = poly_divmod(field, poly_mul(field, a, a), mod)[1]
    return out


def char_poly_hessenberg(m: Matrix) -> tuple:
    """det(xI - m) by the Hessenberg reduction and the minors recurrence
    of Cohen, Alg. 2.2.9, one FieldSpec call per scalar operation: each
    row step is followed by its column step."""
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
            u = f.mul(h[i][c], inv)
            h[i] = [f.sub(x, f.mul(u, y)) for x, y in zip(h[i], h[r])]
            for row in h:
                row[r] = f.add(row[r], f.mul(u, row[i]))
    minors = [(f.one,)]
    for k in range(n):
        pk = poly_mul(f, (f.neg(h[k][k]), f.one), minors[k])
        t = f.one
        for i in range(k - 1, -1, -1):
            t = f.mul(t, h[i + 1][i])
            if t == f.zero:
                break
            pk = poly_add(f, pk, poly_scale(f, f.neg(f.mul(h[i][k], t)),
                                            minors[i]))
        minors.append(pk)
    return minors[n]


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
                term = poly_mul(f, e, sub)
                if idx % 2 == 1:
                    term = poly_scale(f, f.neg(f.one), term)
                acc = poly_add(f, acc, term)
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
            quo, r = poly_divmod(field, rem, q)
            while not r:
                factors[q] = factors.get(q, 0) + 1
                rem = quo
                quo, r = poly_divmod(field, rem, q)
            if degree(rem) < 2 * d:
                break
        d += 1
    return factors


def distinct_degree_by_powmod(field: FieldSpec, poly) -> list:
    """``polys._distinct_degree`` as it was: x^(p^d) mod poly by one
    :func:`hopfdual.polys.powmod` to the p-th power per degree d, and the
    gcd of poly with x^(p^d) - x."""
    out = []
    h = (0, 1)
    d = 0
    while 2 * (d + 1) <= degree(poly):
        d += 1
        h = polys.powmod(field, h, field.p, poly)
        g = polys.gcd_poly(field, poly, polys.add(field, h, (0, -1)))
        if degree(g) > 0:
            out.append((d, g))
            poly = polys.divmod_poly(field, poly, g)[0]
            h = polys.divmod_poly(field, h, poly)[1]
    if degree(poly) > 0:
        out.append((degree(poly), poly))
    return out


def field_eigenvalues(field, m: Matrix) -> list:
    """Eigenvalues of m over F_p, by evaluating the characteristic
    polynomial at every element of F_p."""
    cp = char_poly(m)
    return [x for x in range(field.p) if eval_at(field, cp, x) == field.zero]


def eval_at(field, poly, x):
    acc = field.zero
    for c in reversed(poly):
        acc = field.add(field.mul(acc, x), c)
    return acc


# -- the primary decomposition by kernel chains ------------------------------

def cyclic_generators_kernel_chain(field, M: Matrix, q) -> list:
    """``reps._cyclic_generators`` as it was: the kernels of q(M)^s as one
    span each until one is the whole space, the generator the first unit
    vector outside the kernel before it, and q(M)^s recomputed by a power
    for each lift."""
    n = M.rows
    if n == 0:
        return []
    Qm = polys.eval_at_matrix(field, q, M)
    kernels = [span_of(field, [], n)]
    power = Matrix.identity(field, n)
    e = 0
    while kernels[-1].dim < n:
        power = power * Qm
        kernels.append(span_of(field, kernel_basis(power), n))
        e += 1
        if e > n:
            raise ValueError("q(M) is not nilpotent on this space")
    v = next(vbasis(field, n, i) for i in range(n)
             if not kernels[e - 1].contains(vbasis(field, n, i)))
    block = polys.degree(q) * e
    cyc = [v]
    for _ in range(block - 1):
        cyc.append(M.apply(cyc[-1]))
    if block == n:
        return [(v, e)]
    comp, _, quot_proj = adapted_basis_by_inverse(field, cyc, n)
    quot_sect = Matrix.from_columns(field, comp)
    rest = cyclic_generators_kernel_chain(field, quot_proj * M * quot_sect,
                                          q)
    Cmat = Matrix.from_columns(field, cyc)
    lifts = [quot_sect.apply(wbar) for wbar, _ in rest]
    fixed = {}
    for s in sorted({s for _, s in rest}):
        P = Qm ** s
        idx = [i for i, (_, t) in enumerate(rest) if t == s]
        L = Matrix.from_columns(field, [lifts[i] for i in idx])
        coords = solve_many(P * Cmat, P * L)
        if coords is None:
            raise RuntimeError("cyclic correction system is inconsistent")
        fixed.update(zip(idx, (L - Cmat * coords).transpose().entries))
    return [(v, e)] + [(fixed[i], s) for i, (_, s) in enumerate(rest)]


def restriction_by_solve(m: Matrix, ech) -> tuple:
    """The restriction of m to the kernel basis B of ech, by solving for
    its matrix R with m B = B R: one elimination of [B | m B]."""
    B = Matrix.from_columns(m.field, ech.kernel())
    R = solve_many(B, m * B)
    if R is None:
        raise RuntimeError("primary component is not invariant")
    return B, R


def decompose_rep_of_Z_by_quotients(m: Matrix):
    """``reps.decompose_rep_of_Z`` as it was: each primary component the
    kernel of q(m)^a, m restricted to it by a solve, and its cyclic
    generators by the kernel chain and the quotient recursion, then the
    same assembly of blocks, basis, companion form and summary."""
    f = m.field
    n = m.rows
    cp = char_poly_hessenberg(m)
    if not cp[0]:
        raise ValueError("singular matrix: not a representation of Z")
    # trial division tries p^d candidates, too many for a large p
    factors = polys.factor_monic_fp(f, cp)
    blocks = []
    for q in sorted(factors):
        a = factors[q]
        ech = rref(eval_at_matrix(f, q, m) ** a)
        if n - ech.rank != degree(q) * a:
            raise RuntimeError("primary component has unexpected dimension")
        B, R = restriction_by_solve(m, ech)
        for gen, e in cyclic_generators_kernel_chain(f, R, q):
            blocks.append(reps.CyclicBlock(q, e, B.apply(gen)))
    blocks.sort(key=lambda b: (degree(b.poly), b.poly, -b.exponent))
    cols, comp_blocks = [], []
    for b in blocks:
        qe = (f.one,)
        for _ in range(b.exponent):
            qe = poly_mul(f, qe, b.poly)
        comp_blocks.append(reps._companion(f, qe))
        vec = b.generator
        for _ in range(degree(qe)):
            cols.append(vec)
            vec = apply(m, vec)
    summary = Counter((b.poly, b.exponent) for b in blocks)
    return reps.ZRepDecomposition(
        f, blocks, Matrix.from_columns(f, cols), block_diag(f, comp_blocks),
        [(q, e, k) for (q, e), k in sorted(summary.items())])


# -- subspace questions by spans and an inverse ------------------------------

def adapted_basis_by_inverse(field, sub, n: int):
    """``reps._adapted_basis`` as it was: the unit vectors that enlarge the
    span of sub, in index order, as the complement, and the head and tail
    read off the inverse of [sub | complement]."""
    sub = list(sub)
    sp = span_of(field, sub, n)
    comp = [vbasis(field, n, i) for i in range(n)
            if sp.add(vbasis(field, n, i))]
    if len(sub) + len(comp) != n:
        raise ValueError("subspace basis is dependent")
    rows = inverse(Matrix.from_columns(field, sub + comp)).entries
    k = len(sub)
    return (comp, Matrix(field, rows[:k], cols=n),
            Matrix(field, rows[k:], cols=n))


def quotient_rep_by_span(rho, sub):
    """``reps.quotient_rep`` as it was: invariance by a membership test of
    each action(s) sub[i] in the span of sub."""
    f = rho.field
    sub = list(sub)
    comp, _, proj = adapted_basis_by_inverse(f, sub, rho.dim)
    sect = Matrix.from_columns(f, comp)
    quot = reps.Representation(rho.monoid, f,
                               [proj * m * sect for m in rho.matrices],
                               validate=False)
    sp = span_of(f, sub, rho.dim)
    for g in rho.monoid.generators:
        for i, v in enumerate(sub):
            if not sp.contains(rho.action(g).apply(v)):
                raise ValueError(
                    f"subspace is not invariant: {rho.monoid.names[g]} moves "
                    f"spanning vector {i} out of it")
    return quot, proj, sect


def reynolds_by_span(rho, w):
    """``reps.reynolds`` as it was: the image of P as the span of its
    columns, compared basis for basis with the span of the invariants."""
    f = rho.field
    P = lincomb(f, rho.dim, rho.dim, zip(w.vector, rho.matrices))
    if P * P != P:
        raise RuntimeError("averaged operator failed to be idempotent")
    image = span_of(f, [P.column(j) for j in range(rho.dim)], rho.dim)
    inv = span_of(f, reps.invariants(rho), rho.dim)
    if image.basis() != inv.basis():
        raise RuntimeError("projector image is not the invariant subspace")
    return SimpleNamespace(projector=P, invariant_basis=image.basis(),
                           complement_basis=kernel_basis(P))


def invariant_exactness_by_contains(pi) -> bool:
    """``reps.check_invariant_exactness`` as it was: each invariant of the
    target tested for membership in the image of the source invariants."""
    if not pi.is_equivariant():
        raise ValueError("map is not equivariant")
    if not pi.is_surjective():
        raise ValueError("map is not surjective")
    inv_target = reps.invariants(pi.target)
    if not inv_target:
        return True
    image = span_of(pi.source.field, [pi.matrix.apply(v) for v in
                                      reps.invariants(pi.source)],
                    pi.target.dim)
    return all(image.contains(v) for v in inv_target)


def sub_rep_by_solve(rho, basis):
    """``reps.sub_rep`` as it was: the coordinates of every image A_g s_i
    over the basis from one solve of all |G| k of them; a dependent family
    is not detected."""
    f = rho.field
    basis = list(basis)
    k = len(basis)
    coords = solve_many(Matrix.from_columns(f, basis), Matrix.from_columns(
        f, [m.apply(v) for m in rho.matrices for v in basis]))
    if coords is None:
        raise ValueError("subspace is not invariant")
    coords = coords.transpose().entries
    mats = [Matrix.from_columns(f, coords[g * k:(g + 1) * k])
            for g in range(rho.monoid.size)]
    return reps.Representation(rho.monoid, f, mats, validate=False)


def direct_sum_padded(a, b):
    """``Representation.direct_sum`` as it was: each block row padded with
    zero scalars."""
    f = a.field
    mats = []
    for ma, mb in zip(a.matrices, b.matrices):
        rows = [tuple(row) + (f.zero,) * b.dim for row in ma.entries]
        rows += [(f.zero,) * a.dim + tuple(row) for row in mb.entries]
        mats.append(Matrix(f, rows))
    return reps.Representation(a.monoid, f, mats, validate=False)


def assemble_summands_entrywise(rho, summands) -> Matrix:
    """``reps.assemble_summands`` as it was: block-diagonality checked
    entry by entry, column block by column block."""
    f = rho.field
    B = Matrix.from_columns(f, [v for s in summands for v in s.embedding])
    Binv = inverse(B)
    if Binv is None:
        raise ValueError("summands do not span: sum is not direct")
    for g in rho.monoid.generators:
        conj = Binv * rho.action(g) * B
        offset = 0
        for s in summands:
            d = len(s.embedding)
            for i in range(rho.dim):
                for j in range(offset, offset + d):
                    inside = offset <= i < offset + d
                    if not inside and conj.entries[i][j] != f.zero:
                        raise ValueError("action is not block diagonal in "
                                         "the assembled basis")
            offset += d
    return B



def complete_reducibility_by_search(rho, w, seed: int = 0,
                                    attempts: int = 12) -> list:
    """``reps.complete_reducibility`` over F_p as it was: after the
    invariants, each piece is split at an eigenspace of the average of a
    seeded random rank-one map, tried ``attempts`` times; a piece no
    attempt splits is kept whole."""
    rng = random.Random(seed)
    f = rho.field

    def found(piece):
        n = piece.dim
        inv = reps.invariants(piece)
        if 0 < len(inv) < n:
            return inv
        for _ in range(attempts):
            u, v = ([f.from_int(rng.randint(0, f.p - 1)) for _ in range(n)]
                    for _ in range(2))
            T = reps._average(w, piece, piece, Matrix(
                f, [[f.mul(a, b) for b in v] for a in u]))
            for lam in reps._field_eigenvalues(f, T):
                ker = kernel_basis(T.shift(-lam))
                if 0 < len(ker) < n:
                    return ker
        return None

    def split(piece, embedding):
        sub = found(piece)
        if sub is None:
            return [reps.Summand(embedding, piece, "unsplit by search")]
        _, head, _ = reps._adapted_basis(f, sub, piece.dim)
        P = reps._average(w, piece, piece,
                          Matrix.from_columns(f, sub) * head)
        img = span_of(f, [P.column(j) for j in range(piece.dim)],
                      piece.dim).basis()
        push = Matrix.from_columns(f, embedding)
        return [s for part in (img, kernel_basis(P))
                for s in split(reps.sub_rep(piece, part),
                               [push.apply(v) for v in part])]

    return split(rho, [vbasis(f, rho.dim, i) for i in range(rho.dim)])


def complete_reducibility_by_projector(rho, w) -> list:
    """``reps.complete_reducibility`` as it was: each found subspace split
    off by the averaged n x n projector onto it, checked idempotent, its
    image re-eliminated from its n columns and its kernel taken."""
    f = rho.field

    def split(piece, embedding):
        if piece.dim == 0:
            return []
        found = reps._proper_invariant_subspace(piece)
        if found is None:
            ends = reps._intertwiners(f, piece.monoid.generators, piece,
                                      piece)
            k = len(ends)
            found = reps._endomorphism_kernel(piece, ends) if k > 1 else None
            if found is None:
                label = "absolutely simple" if k == 1 else "not certified"
                return [reps.Summand(embedding, piece,
                                     f"{label}: dim End_G = {k}")]
        _, head, _ = reps._adapted_basis(f, found, piece.dim)
        P = reps._average(w, piece, piece, Matrix.from_columns(f, found)
                          * head)
        if P * P != P:
            raise RuntimeError("averaged projector failed to be idempotent")
        img = span_of(f, [P.column(j) for j in range(piece.dim)],
                      piece.dim).basis()
        push = Matrix.from_columns(f, embedding)
        return [s for part in (img, kernel_basis(P))
                for s in split(reps.sub_rep(piece, part),
                               [push.apply(v) for v in part])]

    return split(rho, [vbasis(f, rho.dim, i) for i in range(rho.dim)])


# -- the G-laws on every element ----------------------------------------------

def invariants_all(rho) -> list:
    """Kernel basis of the action(g) - I stacked over every g."""
    f = rho.field
    ident = Matrix.identity(f, rho.dim)
    blocks = [rho.action(g) - ident for g in range(rho.monoid.size)]
    return kernel_basis(stack(blocks))


def integral_system_all(G, F):
    """(solution or None, unique flag) of {g*w = w = w*g for every g, sum
    of coefficients = 1}."""
    A = monoid_algebra(G, F)
    n = G.size
    ident = Matrix.identity(F, n)
    blocks = []
    for g in range(n):
        e = A.basis_vec(g)
        blocks.append(A.left_mult_matrix(e) - ident)
        blocks.append(A.right_mult_matrix(e) - ident)
    homogeneous = stack(blocks)
    full = stack([homogeneous, Matrix(F, [[F.one] * n])])
    rhs = (F.zero,) * homogeneous.rows + (F.one,)
    return solve(full, rhs), len(kernel_basis(full)) == 0


def equivariance_failures(pi) -> list:
    """Every g with matrix * action(g) != action'(g) * matrix."""
    return [g for g in range(pi.source.monoid.size)
            if pi.matrix * pi.source.action(g)
            != pi.target.action(g) * pi.matrix]


def invariance_failures(rho, sub) -> list:
    """Every (g, i) with action(g) sub[i] outside the span of sub."""
    sp = Span(rho.field, rho.dim)
    for v in sub:
        sp.add(v)
    return [(g, i) for g in range(rho.monoid.size)
            for i, v in enumerate(sub)
            if not sp.contains(rho.action(g).apply(v))]


def module_law_failures(algebra, matrices) -> list:
    """Every basis pair (i, j) with rho(e_i) rho(e_j) != rho(e_i e_j)."""
    f = algebra.field
    n = matrices[0].rows
    return [(i, j) for i in range(algebra.dim) for j in range(algebra.dim)
            if matrices[i] * matrices[j] != lincomb(
                f, n, n, ((c, matrices[k]) for k, c
                          in algebra.mul_basis(i, j).items()))]


def hom_dim_modules_all(a, b) -> int:
    """Dimension of the module maps a -> b: the kernel of the intertwiner
    equations f act_a(e_i) = act_b(e_i) f stacked over every basis element
    e_i of the algebra."""
    f = a.algebra.field
    blocks = [kron(Matrix.identity(f, b.dim), transpose(m))
              - kron(n, Matrix.identity(f, a.dim))
              for m, n in zip(a.matrices, b.matrices)]
    if not blocks:
        return a.dim * b.dim
    return len(kernel_basis(stack(blocks)))


def greedy_generators(A) -> list:
    """Basis elements generating A, taken greedily in basis order; after
    each one the span is closed by multiplying every pair of its reduced
    basis vectors, round after round, until a round adds nothing."""
    f = A.field
    sp = Span(f, A.dim)
    sp.add(A.unit)
    gens = []
    while sp.dim < A.dim:
        pick = next(i for i in range(A.dim) if not sp.contains(A.basis_vec(i)))
        gens.append(pick)
        sp.add(A.basis_vec(pick))
        changed = True
        while changed:
            changed = False
            vecs = sp.basis()
            for u in vecs:
                for v in vecs:
                    if sp.add(A.mul_vec(u, v)):
                        changed = True
    return gens


def points_all(A) -> list:
    """Every phi in F_p^n with phi(1) = 1 and phi(e_i e_j) = phi(e_i)
    phi(e_j) for all i, j, by trying all p^n value tuples (n <= 5), in
    sorted order."""
    f = A.field
    n = A.dim
    assert n <= 5, "p^n candidates: keep the algebra small"

    def value(x, phi):
        acc = f.zero
        for k, c in x.items():
            acc = f.add(acc, f.mul(c, phi[k]))
        return acc

    unit = dict(enumerate(A.unit))
    return [phi for phi in itertools.product(range(f.p), repeat=n)
            if value(unit, phi) == f.one
            and all(value(A.mul_basis(i, j), phi) == f.mul(phi[i], phi[j])
                    for i in range(n) for j in range(n))]


# -- straightening and the tensor-algebra oracle ------------------------------

def distinct_rearrangements(word) -> list:
    """The distinct rearrangements of word in lexicographic order: all n!
    orderings, with the repeats dropped."""
    return sorted(set(itertools.permutations(word)))


def normal_form(U, word) -> dict:
    """Rewrite a generator word to a combination of ordered monomials of the
    truncation U."""
    f = U.field
    if len(word) > U.order:
        raise TruncationOverflow(
            f"word of length {len(word)} exceeds order {U.order}")
    result = {}
    work = {tuple(word): f.one}
    while work:
        w, coeff = work.popitem()
        pos = None
        for t in range(len(w) - 1):
            if w[t] > w[t + 1]:
                pos = t
                break
        if pos is None:
            mono = [0] * U.lie.dim
            for letter in w:
                mono[letter] += 1
            idx = U.index[tuple(mono)]
            v = f.add(result.get(idx, f.zero), coeff)
            if v == f.zero:
                result.pop(idx, None)
            else:
                result[idx] = v
            continue
        j, i = w[pos], w[pos + 1]
        swapped = w[:pos] + (i, j) + w[pos + 2:]
        v = f.add(work.get(swapped, f.zero), coeff)
        if v == f.zero:
            work.pop(swapped, None)
        else:
            work[swapped] = v
        for k, c in U.lie.bracket_entries(j, i):
            shorter = w[:pos] + (k,) + w[pos + 2:]
            v = f.add(work.get(shorter, f.zero), f.mul(coeff, c))
            if v == f.zero:
                work.pop(shorter, None)
            else:
                work[shorter] = v
    return result


class AscendingOracle(TensorAlgebraOracle):
    """The span of u (x_j x_i - x_i x_j - [x_j, x_i]) v over all words u, v
    in range, with the columns indexed shortest word first and every pair
    (u, v) scanned; membership and ``check_product`` as in the parent."""

    def __init__(self, lie, order: int):
        self.lie = lie
        self.order = order
        f = lie.field
        words = []
        for length in range(order + 1):
            words.extend(itertools.product(range(lie.dim), repeat=length))
        self.words = tuple(words)
        self.word_index = {w: i for i, w in enumerate(self.words)}
        width = len(self.words)
        self.ideal = Span(f, width)
        for i in range(lie.dim):
            for j in range(i + 1, lie.dim):
                # relation: x_j x_i - x_i x_j - [x_j, x_i]
                rel = {(j, i): f.one, (i, j): f.neg(f.one)}
                for k, c in lie.bracket_entries(j, i):
                    rel[(k,)] = f.sub(rel.get((k,), f.zero), c)
                for u in self.words:
                    for v in self.words:
                        if len(u) + 2 + len(v) > order:
                            continue
                        row = [f.zero] * width
                        for mid, c in rel.items():
                            row[self.word_index[u + mid + v]] = c
                        self.ideal.add(row)


# -- the axiom sweeps over every basis tuple ----------------------------------

def _sum(f, terms) -> dict:
    acc = {}
    for key, c in terms:
        acc[key] = f.add(acc.get(key, f.zero), c)
    return {key: c for key, c in acc.items() if c != f.zero}


def _mul_vec(A, x, y) -> tuple:
    f = A.field
    acc = [f.zero] * A.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, m in A.mul_basis(i, j).items():
                acc[k] = f.add(acc[k], f.mul(f.mul(xi, yj), m))
    return tuple(acc)


def _counit_vec(A, x):
    f = A.field
    acc = f.zero
    for c, xi in zip(A.counit, x):
        acc = f.add(acc, f.mul(c, xi))
    return acc


def _comult_of(f, deltas, x: dict) -> dict:
    return _sum(f, ((key, f.mul(c, d)) for k, c in x.items()
                    for key, d in deltas[k].items()))


def verify_algebra_all(A) -> Report:
    """Associativity on every basis triple, then the unit laws on every
    basis element, with the checks and witnesses of
    ``hopfdual.bialgebra.verify_algebra``."""
    f, n, mul = A.field, A.dim, A.mul_basis
    rep = Report(f"algebra axioms ({A!r})")
    rep.sweep("associativity", (
        f"({A.name_of(i)},{A.name_of(j)},{A.name_of(k)})"
        for i in range(n) for j in range(n) for k in range(n)
        if _sum(f, ((t, f.mul(c, m)) for s, c in mul(i, j).items()
                    for t, m in mul(s, k).items()))
        != _sum(f, ((t, f.mul(c, m)) for s, c in mul(j, k).items()
                    for t, m in mul(i, s).items()))))
    ok = True
    for i in range(n):
        e = vbasis(f, n, i)
        if _mul_vec(A, A.unit, e) != e:
            ok = rep.add("left unit law", False, A.name_of(i))
        if _mul_vec(A, e, A.unit) != e:
            ok = rep.add("right unit law", False, A.name_of(i))
    if ok:
        rep.add("unit laws", True)
    return rep


def verify_coalgebra_all(A) -> Report:
    """Coassociativity and the counit laws on every basis element."""
    f, n, deltas = A.field, A.dim, A.deltas
    rep = Report(f"coalgebra axioms ({A!r})")
    rep.sweep("coassociativity", (
        A.name_of(k) for k in range(n)
        if _sum(f, (((a, b, j), f.mul(c, d)) for (i, j), c in deltas[k].items()
                    for (a, b), d in deltas[i].items()))
        != _sum(f, (((i, a, b), f.mul(c, d)) for (i, j), c in deltas[k].items()
                    for (a, b), d in deltas[j].items()))))
    ok = True
    for k in range(n):
        left = [f.zero] * n
        right = [f.zero] * n
        for (i, j), c in deltas[k].items():
            left[j] = f.add(left[j], f.mul(A.counit[i], c))
            right[i] = f.add(right[i], f.mul(A.counit[j], c))
        if tuple(left) != vbasis(f, n, k):
            ok = rep.add("left counit law", False, A.name_of(k))
        if tuple(right) != vbasis(f, n, k):
            ok = rep.add("right counit law", False, A.name_of(k))
    if ok:
        rep.add("counit laws", True)
    return rep


def verify_compatibility_all(A) -> Report:
    """Delta(e_a e_b) = Delta(e_a) Delta(e_b) and epsilon(e_a e_b) =
    epsilon(e_a) epsilon(e_b) on every basis pair, and both on the unit."""
    f, n, deltas, mul = A.field, A.dim, A.deltas, A.mul_basis
    rep = Report(f"compatibility laws ({A!r})")

    def square(a, b):
        return _sum(f, (((x, y), f.mul(f.mul(f.mul(c1, c2), cx), cy))
                        for (i1, j1), c1 in deltas[a].items()
                        for (i2, j2), c2 in deltas[b].items()
                        for x, cx in mul(i1, i2).items()
                        for y, cy in mul(j1, j2).items()))
    pairs = [(a, b) for a in range(n) for b in range(n)]
    rep.sweep("comult multiplicative", (
        f"({A.name_of(a)},{A.name_of(b)})" for a, b in pairs
        if _comult_of(f, deltas, mul(a, b)) != square(a, b)))
    unit = {i: u for i, u in enumerate(A.unit) if u != f.zero}
    rep.add("comult(1) = 1 (x) 1", _comult_of(f, deltas, unit) == {
        (i, j): f.mul(ci, cj) for i, ci in unit.items()
        for j, cj in unit.items()})
    rep.sweep("counit multiplicative", (
        f"({A.name_of(a)},{A.name_of(b)})" for a, b in pairs
        if _counit_vec(A, _mul_vec(A, vbasis(f, n, a), vbasis(f, n, b)))
        != f.mul(A.counit[a], A.counit[b])))
    rep.add("counit(1) = 1", _counit_vec(A, A.unit) == f.one)
    return rep


def verify_bialgebra_all(A) -> Report:
    rep = Report(f"bialgebra axioms ({A!r})")
    for part in (verify_algebra_all(A), verify_coalgebra_all(A),
                 verify_compatibility_all(A)):
        rep.extend(part)
    return rep


def check_morphism_all(f_map, kind: str = "bialgebra") -> Report:
    """``hopfdual.bialgebra.check_morphism`` on every basis pair and every
    basis element."""
    A, B, F = f_map.source, f_map.target, f_map.matrix
    f = A.field
    rep = Report(f"{kind} morphism check")
    if kind in ("algebra", "bialgebra"):
        rep.sweep("f(xy) = f(x)f(y)", (
            f"({A.name_of(i)},{A.name_of(j)})"
            for i in range(A.dim) for j in range(A.dim)
            if apply(F, _mul_vec(A, vbasis(f, A.dim, i), vbasis(f, A.dim, j)))
            != _mul_vec(B, F.column(i), F.column(j))))
        rep.add("f(1) = 1", apply(F, A.unit) == B.unit)
    if kind in ("coalgebra", "bialgebra"):
        cols = [{t: c for t, c in enumerate(F.column(k)) if c != f.zero}
                for k in range(A.dim)]
        rep.sweep("Delta f = (f (x) f) Delta", (
            A.name_of(k) for k in range(A.dim)
            if _comult_of(f, B.deltas, cols[k]) != _sum(f, (
                ((a, b), f.mul(c, f.mul(ca, cb)))
                for (i, j), c in A.deltas[k].items()
                for a, ca in cols[i].items() for b, cb in cols[j].items()))))
        rep.sweep("counit f = counit", (
            A.name_of(k) for k in range(A.dim)
            if _counit_vec(B, F.column(k)) != A.counit[k]))
    return rep


def check_hopf_all(A) -> Report:
    """The antipode identities on every basis element, through dense
    products of the antipode's columns with basis vectors."""
    f, n, S = A.field, A.dim, A.antipode
    rep = Report(f"antipode axioms ({A!r})")
    ok = True
    for k in range(n):
        target = tuple(f.mul(A.counit[k], u) for u in A.unit)
        left = [f.zero] * n
        right = [f.zero] * n
        for (i, j), c in A.deltas[k].items():
            lv = _mul_vec(A, S.column(i), vbasis(f, n, j))
            rv = _mul_vec(A, vbasis(f, n, i), S.column(j))
            left = [f.add(x, f.mul(c, y)) for x, y in zip(left, lv)]
            right = [f.add(x, f.mul(c, y)) for x, y in zip(right, rv)]
        if tuple(left) != target:
            ok = rep.add("antipode left identity", False, A.name_of(k))
        if tuple(right) != target:
            ok = rep.add("antipode right identity", False, A.name_of(k))
    if ok:
        rep.add("antipode identities", True)
    return rep


# -- the algebra-map loops as they were ---------------------------------------
#
# Six hand-written checks of F(xy) = F(x)F(y), each with its own scalar
# arithmetic, as they stood before ``bialgebra.multiplicativity_failures``
# took them over. ``test_algebra_map_sweep`` runs the one sweep on corrupted
# maps of each shape and compares its witnesses with these.

def comult_multiplicativity_failures(f, deltas, mul_basis, names, pairs):
    """Witnesses ``"(a,b)"``, in the order of ``pairs``, of Delta(e_a e_b)
    != Delta(e_a) Delta(e_b) in A (x) A, one raw sparse difference per
    pair."""
    for a, b in pairs:
        diff = {}
        get = diff.get
        for k, c in mul_basis(a, b).items():
            for key, d in deltas[k].items():
                diff[key] = get(key, 0) + c * d
        for (i1, j1), c1 in deltas[a].items():
            for (i2, j2), c2 in deltas[b].items():
                right = mul_basis(j1, j2).items()
                if not right:
                    continue
                c = c1 * c2
                for x, cx in mul_basis(i1, i2).items():
                    cx *= c
                    for y, cy in right:
                        key = (x, y)
                        diff[key] = get(key, 0) - cx * cy
        if not vanishes(f, diff):
            yield f"({names[a]},{names[b]})"


def morphism_multiplicativity_failures(A, B, F, firsts):
    """Witnesses ``"(x,y)"`` of F(e_i e_j) != F(e_i) F(e_j) for i in
    ``firsts`` and every j: F of the product summed into a dense vector and
    compared with ``B.mul_vec`` of the two columns."""
    f = A.field
    columns = [F.column(k) for k in range(A.dim)]
    images = [{t: c for t, c in enumerate(col) if c != f.zero}
              for col in columns]
    for i in firsts:
        for j in range(A.dim):
            acc = [0] * B.dim
            for k, c in A.mul_basis(i, j).items():
                for t, x in images[k].items():
                    acc[t] += c * x
            if (tuple(map(f.canonical, acc))
                    != B.mul_vec(columns[i], columns[j])):
                yield f"({A.name_of(i)},{A.name_of(j)})"


def counit_multiplicativity_failures(A):
    """Witnesses ``"(x,y)"``, lexicographic, of epsilon(e_i e_j) !=
    epsilon(e_i) epsilon(e_j), read off the product tensor."""
    canonical = A.field.canonical
    eps = A.counit
    for i in range(A.dim):
        for j in range(A.dim):
            e = A.mul_basis(i, j)
            value = sum(c * eps[k] for k, c in e.items()) if e else 0
            if canonical(value - eps[i] * eps[j]):
                yield f"({A.name_of(i)},{A.name_of(j)})"


def extension_multiplicativity_failures(Us, Ut, images, order):
    """Witnesses ``"(a,b)"`` of F(e_a e_b) != F(e_a) F(e_b) for the map of
    enveloping truncations with ``images[k] = F(e_k) = {t: c}``, over the
    pairs whose degrees sum within ``order``."""
    f = Us.field

    def image_of(x):
        return sparse_sum(f, ((t, c * y) for k, c in x.items()
                              for t, y in images[k].items()))
    return (f"({Us.names[a]},{Us.names[b]})"
            for a in range(Us.dim) for b in range(Us.dim)
            if Us.degree(a) + Us.degree(b) <= order
            and image_of(Us.product_monomials(a, b))
            != Ut.product_vec(images[a], images[b]))


def line_product_failures(A, vecs, N):
    """Witnesses ``"(i,j)"``, i + j <= N, of vecs[i] vecs[j] != vecs[i+j]:
    x^n -> vecs[n] on the enveloping truncation of the line."""
    return (f"({i},{j})" for i in range(N + 1) for j in range(N + 1 - i)
            if A.mul_vec(vecs[i], vecs[j]) != vecs[i + j])


def point_multiplicativity_failures(A, phi):
    """Witnesses ``"(x,y)"``, lexicographic, of phi(e_i e_j) != phi(e_i)
    phi(e_j) for the linear form with values ``phi``, one ``FieldSpec``
    call per scalar; ``points`` stopped at the first."""
    f = A.field
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = f.zero
            for k, c in A.mul_basis(i, j).items():
                lhs = f.add(lhs, f.mul(c, phi[k]))
            if lhs != f.mul(phi[i], phi[j]):
                yield f"({A.name_of(i)},{A.name_of(j)})"


def monoid_table_error(names, table, unit) -> str | None:
    """The ``ValueError`` message ``FiniteMonoid`` gives for a square table
    with entries in range, checking the unit law and then associativity on
    every triple; None if both hold."""
    n = len(names)
    for i in range(n):
        if table[unit][i] != i or table[i][unit] != i:
            return f"unit law fails at {names[i]}"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return (f"not associative at ({names[i]},{names[j]},"
                            f"{names[k]})")
    return None


def annihilator_quotient_dense(A, X) -> tuple:
    """A / Ann(X) by every product of two image basis matrices, taken in
    full and solved for its coordinates over all n^2 entries: (product
    tensor, unit, basis names, quotient map, image basis matrices), as
    ``hopfdual.tannaka.annihilator_quotient`` builds them for a nonzero
    module."""
    f = A.field

    def flat(mats):
        return stack([m.reshape(1, m.rows * m.cols) for m in mats]).transpose()
    ech = rref(flat(X.matrices))
    pivots = ech.pivots
    q = len(pivots)
    basis = [X.matrices[p] for p in pivots]
    ident = Matrix.identity(f, X.dim)
    coords = solve_many(flat(basis), flat(
        [a * b for a in basis for b in basis] + [ident]))
    *products, unit = coords.transpose().entries
    mult = {divmod(ij, q) + (k,): c for ij, prod in enumerate(products)
            for k, c in enumerate(prod) if c != f.zero}
    names = tuple(f"[{A.name_of(p)}]" for p in pivots)
    qmap = Matrix(f, ech.reduced.entries[:q], cols=A.dim)
    return mult, tuple(unit), names, qmap, basis


# -- the formal-matrix integral by full expansion ------------------------------

def monomials_up_to(nvars: int, bound: int) -> list:
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, bound)
    out.sort(key=lambda m: (sum(m), m))
    return out


def formal_matrix_delta(n: int, N: int, f) -> dict:
    """Delta of every monomial of degree <= N in the n^2 entries, as
    {kappa: {(mL, mR): c}}; each variable x_ij splits as
    sum_l x_il (x) x_lj."""
    nv = n * n

    def bump(mono, var):
        out = list(mono)
        out[var] += 1
        return tuple(out)

    def comult(mono):
        acc = {((0,) * nv, (0,) * nv): f.one}
        for var, exp in enumerate(mono):
            i, j = divmod(var, n)
            for _ in range(exp):
                acc = sparse_sum(f, (
                    ((bump(ml, i * n + l), bump(mr, l * n + j)), c)
                    for (ml, mr), c in acc.items() for l in range(n)))
        return acc

    return {mono: comult(mono) for mono in monomials_up_to(nv, N)}


def formal_matrix_integral_expanded(n: int, N: int, F) -> Report:
    """``formal_matrix_integral`` by comparing every (mu, kappa) pair of the
    expanded Delta table, with its check names and witnesses."""
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    nv = n * n
    f = F
    delta = formal_matrix_delta(n, N, f)
    monos = list(delta)
    index = {mo: i for i, mo in enumerate(monos)}
    unit_mono = (0,) * nv
    rep = Report(f"formal-matrix integral (n={n}, order {N}, "
                 f"{F.describe()})")

    # delta_mu * delta_0 over the dual basis: kappa-coefficient is the
    # (mu, unit)-coefficient of Delta(kappa)
    ok_right = ok_left = True
    for mu in monos:
        pair_value = f.one if mu == unit_mono else f.zero  # a(1)
        for kappa in monos:
            right = delta[kappa].get((mu, unit_mono), f.zero)
            left = delta[kappa].get((unit_mono, mu), f.zero)
            want = f.mul(pair_value, f.one if kappa == unit_mono else f.zero)
            if right != want:
                ok_right = False
                rep.add("a * delta_0 = a(1) delta_0", False,
                        f"a = dual of {mu}, at {kappa}")
            if left != want:
                ok_left = False
                rep.add("delta_0 * a = a(1) delta_0", False,
                        f"a = dual of {mu}, at {kappa}")
    if ok_right:
        rep.add("a * delta_0 = a(1) delta_0", True)
    if ok_left:
        rep.add("delta_0 * a = a(1) delta_0", True)
    rep.add("delta_0 is idempotent",
            delta[unit_mono].get((unit_mono, unit_mono)) == f.one)
    rep.add("dual basis size", len(monos) == len(index),
            f"{len(monos)} functionals")
    return rep
