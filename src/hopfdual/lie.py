"""Lie algebras and degree-truncated enveloping algebras.

The enveloping truncation keeps the ordered-monomial basis up to a total
degree bound; products are computed by straightening (adjacent descents
rewrite as a swap plus a bracket term, which strictly drops either the
inversion count or the degree), each word once per truncation, and are
only defined when the degree sum stays within the bound. The coproduct makes the generators primitive and
is total on the truncation.

Also here: the brute-force tensor-algebra oracle used to cross-check the
straightening product, the divided-power truncation, distribution algebras
of the preset one-parameter groups, and augmentation-power gradings.

The coassociativity, multiplicativity, morphism and primitive checks run
the sparse-tensor sweeps of ``bialgebra`` on plain data: the cached
``comult_monomial`` dicts, ``product_monomials`` and the monomial names.
Every F(xy) = F(x)F(y) check here, Delta and the maps U_s -> U_t and x^n ->
vecs[n], is ``bialgebra.multiplicativity_failures``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bialgebra import (FinBialgebra, coassociativity_sweep,
                        comult_morphism_sweep, dualize, ground_product,
                        into_ground, multiplicativity_failures, nonzero,
                        primitive_space, same_structure, sparse_sum)
from .exact import (FieldSpec, Matrix, Span, inverse, kernel_basis, span_of,
                    vbasis)
from .monoids import BudgetExceeded
from .report import Report


class TruncationOverflow(ValueError):
    """Requested product leaves the degree window of the truncation."""


class LieAlgebra:
    """Structure constants [e_i, e_j] = sum c[i][j][k] e_k, stored for i < j;
    antisymmetry fills in the rest."""

    def __init__(self, field: FieldSpec, names, brackets):
        self.field = field
        self.names = tuple(names)
        self.dim = len(self.names)
        clean = {}
        for (i, j), entry in brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bracket key ({i},{j}) must have i < j")
            entry = {k: c for k, c in entry.items() if c != field.zero}
            for k in entry:
                if not (0 <= k < self.dim):
                    raise ValueError("bracket value index out of range")
            if entry:
                clean[(i, j)] = entry
        self.brackets = clean

    def bracket_entries(self, i: int, j: int) -> list:
        """[e_i, e_j] as (index, coefficient) pairs."""
        f = self.field
        if i == j:
            return []
        if i < j:
            return list(self.brackets.get((i, j), {}).items())
        return [(k, f.neg(c)) for k, c in self.brackets.get((j, i), {}).items()]

    def bracket_vec(self, x, y) -> tuple:
        f = self.field
        acc = [f.zero] * self.dim
        for i, xi in enumerate(x):
            if xi == f.zero:
                continue
            for j, yj in enumerate(y):
                if yj == f.zero:
                    continue
                for k, c in self.bracket_entries(i, j):
                    acc[k] = f.add(acc[k], f.mul(f.mul(xi, yj), c))
        return tuple(acc)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, {self.field.describe()})"

    @staticmethod
    def abelian(field: FieldSpec, dim: int, names=None) -> "LieAlgebra":
        names = names or tuple(f"x{i+1}" for i in range(dim))
        return LieAlgebra(field, names, {})

    @staticmethod
    def heisenberg(field: FieldSpec) -> "LieAlgebra":
        # [x, y] = z, z central
        return LieAlgebra(field, ("x", "y", "z"),
                          {(0, 1): {2: field.one}})

    @staticmethod
    def sl2(field: FieldSpec) -> "LieAlgebra":
        # basis e, f, h with [e,f] = h, [h,e] = 2e i.e. [e,h] = -2e, [f,h] = 2f
        one = field.one
        two = field.from_int(2)
        return LieAlgebra(field, ("e", "f", "h"), {
            (0, 1): {2: one},
            (0, 2): {0: field.neg(two)},
            (1, 2): {1: two},
        })


def verify_lie(L: LieAlgebra) -> Report:
    """Antisymmetry (structural under the i < j storage) and the Jacobi
    identity on every basis triple, with failures enumerated."""
    f = L.field
    rep = Report(f"Lie axioms ({L!r})")
    rep.add("antisymmetry and [x,x] = 0 (by storage convention)", True)
    zero = (f.zero,) * L.dim
    basis = [vbasis(f, L.dim, i) for i in range(L.dim)]

    def jacobiator(i, j, k):
        total = zero
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            outer = L.bracket_vec(L.bracket_vec(basis[a], basis[b]), basis[c])
            total = tuple(f.add(x, y) for x, y in zip(total, outer))
        return total

    rep.sweep("Jacobi identity", (
        f"({L.names[i]},{L.names[j]},{L.names[k]})"
        for i, j, k in itertools.combinations(range(L.dim), 3)
        if jacobiator(i, j, k) != zero))
    return rep


def _monomial_name(names, exponents) -> str:
    parts = []
    for n, e in zip(names, exponents):
        if e == 1:
            parts.append(n)
        elif e > 1:
            parts.append(f"{n}^{e}")
    return "*".join(parts) or "1"


class TruncatedEnveloping:
    """Ordered monomials of total degree <= order, with the straightening
    product (partial: defined when degrees sum within the bound) and the
    primitive-generator coproduct (total)."""

    def __init__(self, lie: LieAlgebra, order: int):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.lie = lie
        self.field = lie.field
        self.order = order
        self.monomials = tuple(mono for total in range(order + 1)
                               for mono in _exponents_of_degree(lie.dim, total))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.names = tuple(_monomial_name(lie.names, m) for m in self.monomials)
        self._degrees = tuple(sum(m) for m in self.monomials)
        self._comult_cache = {}
        self._normal_forms = {}   # word -> normal form
        self._products = {}       # (a, b) -> normal form of their product

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def degree(self, idx: int) -> int:
        return self._degrees[idx]

    def pairs_in_range(self):
        """The (a, b), a then b in basis order, whose product e_a e_b is
        defined: their degrees sum within the order."""
        return ((a, b) for a in range(self.dim) for b in range(self.dim)
                if self._degrees[a] + self._degrees[b] <= self.order)

    def monomials_of_degree(self, n: int) -> list:
        return [i for i, e in enumerate(self._degrees) if e == n]

    def unit_vector(self) -> dict:
        return {self.index[(0,) * self.lie.dim]: self.field.one}

    def counit(self, idx: int):
        return self.field.one if self.degree(idx) == 0 else self.field.zero

    # -- straightening ---------------------------------------------------------

    def word_of(self, mono) -> tuple:
        word = []
        for i, e in enumerate(mono):
            word.extend([i] * e)
        return tuple(word)

    def normal_form(self, word) -> dict:
        """Rewrite a generator word to a combination of ordered monomials.

        Each word is straightened once per truncation: the result is the
        cached dict, shared with every later caller, so it must not be
        changed."""
        word = tuple(word)
        if len(word) > self.order:
            raise TruncationOverflow(
                f"word of length {len(word)} exceeds order {self.order}")
        form = self._normal_forms.get(word)
        return self._straighten(word) if form is None else form

    def _straighten(self, word) -> dict:
        """Normal forms of word and of every word its rewriting reaches.

        The first descent w[t] > w[t+1] of an unordered word rewrites it as
        the swapped word (one inversion fewer) plus the bracket terms (one
        letter shorter), so a word's form is a combination of the forms of
        smaller words. They are filled in smallest first from an explicit
        stack, since a chain of swaps is as deep as the inversion count."""
        f = self.field
        forms = self._normal_forms
        stack = [word]
        while stack:
            w = stack[-1]
            if w in forms:
                stack.pop()
                continue
            pos = next((t for t in range(len(w) - 1) if w[t] > w[t + 1]),
                       None)
            if pos is None:
                mono = [0] * self.lie.dim
                for letter in w:
                    mono[letter] += 1
                forms[w] = {self.index[tuple(mono)]: f.one}
                stack.pop()
                continue
            j, i = w[pos], w[pos + 1]
            head, tail = w[:pos], w[pos + 2:]
            terms = [(head + (i, j) + tail, f.one)]
            terms.extend((head + (k,) + tail, c)
                         for k, c in self.lie.bracket_entries(j, i))
            missing = [v for v, _ in terms if v not in forms]
            if missing:
                stack.extend(missing)
                continue
            forms[w] = sparse_sum(f, ((idx, c * x) for v, c in terms
                                      for idx, x in forms[v].items()))
            stack.pop()
        return forms[word]

    def product_monomials(self, a: int, b: int) -> dict:
        """Normal form of e_a e_b, computed once per pair; the cached dict
        must not be changed."""
        form = self._products.get((a, b))
        if form is None:
            if self._degrees[a] + self._degrees[b] > self.order:
                raise TruncationOverflow(
                    f"degree {self._degrees[a]} + {self._degrees[b]} "
                    f"exceeds order {self.order}")
            form = self.normal_form(self.word_of(self.monomials[a])
                                    + self.word_of(self.monomials[b]))
            self._products[(a, b)] = form
        return form

    def product_vec(self, x: dict, y: dict) -> dict:
        return sparse_sum(self.field, (
            (k, ca * cb * ck) for a, ca in x.items() for b, cb in y.items()
            for k, ck in self.product_monomials(a, b).items()))

    # -- coproduct --------------------------------------------------------------

    def comult_monomial(self, idx: int) -> dict:
        """Delta of a basis monomial as {(left_idx, right_idx): coeff};
        the multiplicative extension of primitive generators, which splits a
        sorted word into complementary sorted subwords with binomial
        multiplicities."""
        if idx in self._comult_cache:
            return self._comult_cache[idx]
        f = self.field
        mono = self.monomials[idx]
        out = {}
        choices = [range(e + 1) for e in mono]
        for left in itertools.product(*choices):
            right = tuple(e - l for e, l in zip(mono, left))
            coeff = 1
            for e, l in zip(mono, left):
                coeff *= math.comb(e, l)
            out[(self.index[left], self.index[right])] = f.from_int(coeff)
        self._comult_cache[idx] = out
        return out

    def __repr__(self):
        return f"TruncatedEnveloping({self.lie!r}, order={self.order}, " \
               f"dim={self.dim})"


def _exponents_of_degree(nvars: int, total: int):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _exponents_of_degree(nvars - 1, total - head):
            yield (head,) + tail


def enveloping_truncated(L: LieAlgebra, order: int) -> TruncatedEnveloping:
    return TruncatedEnveloping(L, order)


def coproduct_on_U(U: TruncatedEnveloping):
    """The comultiplication tensor {k: {(i, j): c}} together with the
    verification that it is coassociative, counital and multiplicative
    wherever the partial product is defined."""
    f = U.field
    rep = Report(f"coproduct on {U!r}")
    tensor = {k: dict(U.comult_monomial(k)) for k in range(U.dim)}
    coassociativity_sweep(rep, "coassociativity", f, tensor, U.names)
    unit_idx = U.index[(0,) * U.lie.dim]

    def counit_fails(k):
        items = tensor[k].items()
        left = sparse_sum(f, ((i, c) for (i, j), c in items if j == unit_idx))
        right = sparse_sum(f, ((j, c) for (i, j), c in items if i == unit_idx))
        return left != {k: f.one} or right != {k: f.one}
    rep.sweep("counit laws",
              (U.names[k] for k in range(U.dim) if counit_fails(k)))
    mul = U.product_monomials
    rep.sweep("Delta(xy) = Delta(x)Delta(y) in range",
              multiplicativity_failures(f, tensor, mul, mul, mul, U.names,
                                        U.pairs_in_range()))
    generators = [U.index[tuple(int(t == g) for t in range(U.lie.dim))]
                  for g in range(U.lie.dim)]
    rep.sweep("generators are primitive", (
        U.lie.names[g] for g, idx in enumerate(generators)
        if tensor[idx] != {(idx, unit_idx): f.one, (unit_idx, idx): f.one}))
    return tensor, rep


def oracle_work(dim: int, order: int) -> int:
    """Relation rows times word width of :class:`TensorAlgebraOracle`: one
    row per pair i < j and per words u, v with len(u) + 2 + len(v) <= order,
    each as wide as the number of words of length <= order."""
    pairs = sum((n + 1) * dim ** n for n in range(order - 1))
    width = sum(dim ** n for n in range(order + 1))
    return dim * (dim - 1) // 2 * pairs * width


def coproduct_work(dim: int, order: int) -> int:
    """Coefficient pairs of the Delta(xy) sweep of :func:`coproduct_on_U`:
    one per pair of monomials in range and split of each, so per four
    exponent dim-tuples of total degree <= order, C(order + 4 dim, order).
    It bounds the truncation's C(order + dim, order) monomials too."""
    return math.comb(order + 4 * dim, order) if order > 0 else 0


def line_product_work(order: int) -> int:
    """Coefficient pairs of the product sweep of :func:`_line_comparison` in
    :func:`dist_at_identity`: (N+1)(N+2)/2 pairs x^i, x^j with i + j <= N,
    each over up to (N+1)^2, at an order N (a negative one read as 0)."""
    n = max(order, 0) + 1
    return n ** 3 * (n + 1) // 2


class TensorAlgebraOracle:
    """Independent check of the straightening product: elements of the
    degree-bounded tensor algebra reduce modulo the span of
    u (x_j x_i - x_i x_j - [x_j, x_i]) v over all words u, v in range.

    Built from the bracket data alone; never calls the straightening code.
    The ``Span`` columns are the words longest first, so each relation row
    has its pivot on a longest word and not on its bracket term. Raises
    :class:`BudgetExceeded` before building when :func:`oracle_work`
    exceeds ``budget``.
    """

    def __init__(self, lie: LieAlgebra, order: int, budget: int | None = None):
        work = oracle_work(lie.dim, order)
        if budget is not None and work > budget:
            raise BudgetExceeded(
                f"oracle of {work} relation cells exceeds budget {budget}")
        self.lie = lie
        self.order = order
        f = lie.field
        by_length = [list(itertools.product(range(lie.dim), repeat=n))
                     for n in range(order + 1)]
        self.words = tuple(w for n in reversed(range(order + 1))
                           for w in reversed(by_length[n]))
        self.word_index = {w: i for i, w in enumerate(self.words)}
        width = len(self.words)
        self.ideal = Span(f, width)
        relations = []
        for i in range(lie.dim):
            for j in range(i + 1, lie.dim):
                # relation: x_j x_i - x_i x_j - [x_j, x_i]
                rel = {(j, i): f.one, (i, j): f.neg(f.one)}
                for k, c in lie.bracket_entries(j, i):
                    rel[(k,)] = f.sub(rel.get((k,), f.zero), c)
                relations.append(rel)
        # shortest u v first: the rows then meet fewer stored pivots
        for n in range(order - 1):
            for rel in relations:
                for lu in range(n + 1):
                    for u in by_length[lu]:
                        for v in by_length[n - lu]:
                            row = [f.zero] * width
                            for mid, c in rel.items():
                                row[self.word_index[u + mid + v]] = c
                            self.ideal.add(row)

    def equal_mod_ideal(self, combo_a: dict, combo_b: dict) -> bool:
        """Do two combinations of words agree modulo the ideal? Their
        difference stays a sparse dict of word indices, and only the
        ideal's rows with a pivot in its support are read."""
        index = self.word_index
        diff = sparse_sum(self.lie.field, itertools.chain(
            ((index[tuple(w)], c) for w, c in combo_a.items()),
            ((index[tuple(w)], -c) for w, c in combo_b.items())))
        return self.ideal.contains_terms(diff)

    def check_product(self, U: TruncatedEnveloping, a: int, b: int) -> bool:
        """Does word(a) word(b) agree with the straightened product in the
        quotient by the commutation ideal?"""
        word = U.word_of(U.monomials[a]) + U.word_of(U.monomials[b])
        pbw = U.product_monomials(a, b)
        expanded = {U.word_of(U.monomials[k]): c for k, c in pbw.items()}
        return self.equal_mod_ideal({word: self.lie.field.one}, expanded)

    def failing_products(self, U: TruncatedEnveloping) -> list:
        """The name pairs of the products e_a e_b in range of U, a then b in
        basis order, on which :meth:`check_product` fails."""
        return [(U.names[a], U.names[b]) for a, b in U.pairs_in_range()
                if not self.check_product(U, a, b)]


@dataclass
class GradedPiece:
    """One layer of the degree filtration: the monomials spanning
    U_n/U_{n-1} and the symmetrization comparison with the symmetric power
    on the same multiset basis (both directions)."""
    degree: int
    monomials: tuple
    from_symmetric: Matrix   # averaged products of degree-one elements
    to_symmetric: Matrix     # its inverse

    @property
    def dim(self) -> int:
        return len(self.monomials)


def graded_piece(U: TruncatedEnveloping, n: int) -> GradedPiece:
    """Symmetrization of each degree-n multiset into the top-degree part of
    its averaged product, as a matrix over the shared multiset basis.
    Characteristic zero only (the average divides by n!)."""
    if U.field.characteristic():
        raise ValueError("graded comparison divides by n!; use "
                         "characteristic zero")
    if not (0 < n <= U.order):
        raise ValueError("degree out of range")
    f = U.field
    idxs = U.monomials_of_degree(n)
    cols = []
    for k in idxs:
        sym = _symmetrization(U, k)
        cols.append([sym.get(t, f.zero) for t in idxs])
    from_sym = Matrix.from_columns(f, cols)
    to_sym = inverse(from_sym)
    if to_sym is None:
        raise ValueError(f"symmetrization into degree {n} is singular")
    return GradedPiece(n, tuple(U.monomials[k] for k in idxs), from_sym,
                       to_sym)


def graded_check(U: TruncatedEnveloping) -> Report:
    """Graded dimension count against the stars-and-bars formula and the
    symmetrization map onto each graded piece, checked to be bijective.
    Characteristic zero only."""
    if U.field.characteristic():
        raise ValueError("graded comparison divides by n!; use "
                         "characteristic zero")
    d = U.lie.dim
    rep = Report(f"graded structure of {U!r}")
    for n in range(U.order + 1):
        got = len(U.monomials_of_degree(n))
        want = math.comb(d + n - 1, n)
        rep.add(f"dim gr_{n} = C({d}+{n}-1,{n})", got == want,
                f"{got} vs {want}")
    for n in range(1, U.order + 1):
        try:
            piece = graded_piece(U, n)
            ok = piece.dim == math.comb(d + n - 1, n)
        except ValueError:
            ok = False
        rep.add(f"symmetrization S^{n}L -> gr_{n} bijective", ok)
    return rep


def _rearrangements(word):
    """The distinct rearrangements of word, in lexicographic order: each is
    the next permutation of the one before, from the sorted word."""
    w = sorted(word)
    while True:
        yield tuple(w)
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = reversed(w[i + 1:])


def _symmetrization(U: TruncatedEnveloping, k: int) -> dict:
    """Top-degree part of the average over all orderings of the word of the
    degree-n monomial e_k: (1/n!) sum over its distinct rearrangements, each
    weighted by the size of its stabilizer."""
    f = U.field
    word = U.word_of(U.monomials[k])
    n = len(word)
    weight = f.mul(f.inv(f.from_int(math.factorial(n))),
                   f.from_int(math.prod(math.factorial(e)
                                        for e in U.monomials[k])))
    return sparse_sum(f, ((t, weight * c)
                          for perm in _rearrangements(word)
                          for t, c in U.normal_form(perm).items()
                          if U.degree(t) == n))


def symmetrized_pairing(U: TruncatedEnveloping, n: int) -> Matrix:
    """Composite of symmetrization into gr_n with the n-fold split of the
    coproduct back into degree-one tensors, in the orbit-sum basis; equals
    the diagonal of per-variable factorials, an exact bookkeeping of the
    n! factors."""
    f = U.field
    idxs = U.monomials_of_degree(n)
    # split each monomial of the symmetrization into the all-degree-one
    # component of the iterated coproduct, collected in the orbit-sum basis
    orbit = [f.from_int(math.prod(math.factorial(e) for e in U.monomials[t]))
             for t in idxs]
    out_cols = []
    for k in idxs:
        sym = _symmetrization(U, k)
        out_cols.append([f.mul(sym.get(t, f.zero), o)
                         for t, o in zip(idxs, orbit)])
    return Matrix.from_columns(f, out_cols)


def primitives_of_U(U: TruncatedEnveloping) -> list:
    """Solution space of Delta(a) = a (x) 1 + 1 (x) a over the whole
    truncation; in characteristic zero this is the degree-one span."""
    unit = vbasis(U.field, U.dim, U.index[(0,) * U.lie.dim])
    return primitive_space(U.field, [U.comult_monomial(k)
                                     for k in range(U.dim)], unit)


def lie_morphism_functor(fmat: Matrix, source: LieAlgebra,
                         target: LieAlgebra, order: int):
    """Check a linear map for the bracket property; when it holds, extend it
    to the truncated enveloping algebras and verify the extension respects
    partial products, coproducts and counits.

    Returns (matrix over the ordered-monomial bases or None, report).
    """
    f = source.field
    rep = Report("enveloping extension of a linear map")
    if (fmat.rows, fmat.cols) != (target.dim, source.dim):
        raise ValueError("map shape disagrees with the Lie algebras")
    e = [vbasis(f, source.dim, i) for i in range(source.dim)]
    if not rep.sweep("bracket preserved", (
            f"({source.names[i]},{source.names[j]})"
            for i in range(source.dim) for j in range(i + 1, source.dim)
            if fmat.apply(source.bracket_vec(e[i], e[j]))
            != target.bracket_vec(fmat.column(i), fmat.column(j)))):
        return None, rep

    Us = TruncatedEnveloping(source, order)
    Ut = TruncatedEnveloping(target, order)
    letters = [{Ut.index[tuple(int(s == t) for s in range(target.dim))]: c
                for t, c in enumerate(fmat.column(g)) if c != f.zero}
               for g in range(source.dim)]
    images = []
    for mono in Us.monomials:
        acc = Ut.unit_vector()
        for letter in Us.word_of(mono):
            acc = Ut.product_vec(acc, letters[letter])
        images.append(acc)
    F = Matrix.from_columns(f, [[x.get(t, f.zero) for t in range(Ut.dim)]
                                for x in images])
    rep.sweep("extension multiplicative in range", multiplicativity_failures(
        f, into_ground(images), Us.product_monomials, ground_product,
        Ut.product_monomials, Us.names, Us.pairs_in_range()))
    comult_morphism_sweep(rep, "extension respects coproducts", f, images,
                          [Us.comult_monomial(k) for k in range(Us.dim)],
                          [Ut.comult_monomial(k) for k in range(Ut.dim)],
                          Us.names)
    unit_t = Ut.index[(0,) * target.dim]
    rep.add("unit maps to unit",
            images[Us.index[(0,) * source.dim]] == {unit_t: f.one})
    # the counit of U_t reads off the coefficient of its unit
    rep.sweep("extension respects counits", (
        Us.names[k] for k in range(Us.dim)
        if images[k].get(unit_t, f.zero) != Us.counit(k)))
    return F, rep


# -- divided powers and distribution algebras -----------------------------------

def _divided_powers(N: int, F: FieldSpec) -> FinBialgebra:
    """The structure of :func:`divided_power_bialgebra`, without its
    report."""
    if N < 1:
        raise ValueError("need N >= 1")
    names = tuple(f"w{i}" for i in range(N + 1))
    mult = {(i, j, i + j): F.from_int(math.comb(i + j, i))
            for i in range(N + 1) for j in range(N + 1 - i)}
    comult = {(n, i, n - i): F.one for n in range(N + 1)
              for i in range(n + 1)}
    unit = vbasis(F, N + 1, 0)
    return FinBialgebra(F, N + 1, names, mult, unit, comult, unit)


def divided_power_bialgebra(N: int, F: FieldSpec):
    """The degree-N divided-power truncation: w_i w_j = C(i+j, i) w_{i+j}
    (zero past the bound), Delta w_n = sum w_i (x) w_{n-i}.

    An honest algebra and coalgebra; the coproduct is multiplicative only
    within the truncation window, so no bialgebra claim is recorded.
    Returns (structure, comparison report against the enveloping truncation
    of the one-dimensional Lie algebra, x^n matching n! w_n).
    """
    A = _divided_powers(N, F)
    f = F
    rep = Report(f"divided powers at order {N} over {F.describe()}")
    pairs = [(i, j) for i in range(N + 1) for j in range(N + 1 - i)]
    rep.sweep("w_i w_j = C(i+j, i) w_{i+j}", (
        f"(w{i},w{j})" for i, j in pairs
        if A.mul_vec(A.basis_vec(i), A.basis_vec(j))
        != tuple(f.mul(f.from_int(math.comb(i + j, i)), x)
                 for x in A.basis_vec(i + j))))

    def power_failures():
        power = A.basis_vec(0)
        for n in range(1, N + 1):
            power = A.mul_vec(power, A.basis_vec(1))
            if power != tuple(f.mul(f.from_int(math.factorial(n)), x)
                              for x in A.basis_vec(n)):
                yield f"n = {n}"

    rep.sweep("w_1^n = n! w_n", power_failures())
    grouplike = A.comult_basis(0) == {(0, 0): f.one}
    rep.add("w_0 is grouplike", grouplike)

    if F.characteristic() == 0:
        U = TruncatedEnveloping(LieAlgebra.abelian(F, 1, ("x",)), N)
        _line_comparison(rep, U, A, [
            tuple(f.mul(f.from_int(math.factorial(n)), x)
                  for x in A.basis_vec(n)) for n in range(N + 1)], "n! w_n")
    mul = A.mul_basis
    rep.sweep("Delta multiplicative in range", multiplicativity_failures(
        f, A.deltas, mul, mul, mul, A.basis, pairs))
    return A, rep


def _line_comparison(rep: Report, U: TruncatedEnveloping, A: FinBialgebra,
                     vecs, label: str) -> None:
    """x^n -> vecs[n], from the enveloping truncation U of the line into A,
    intertwines products (within the truncation) and coproducts."""
    f = A.field
    # U's basis index of x^n is n, and x^i x^j = x^(i+j)
    images = [nonzero(f, v) for v in vecs]
    rep.sweep(f"x^n -> {label} intertwines products",
              multiplicativity_failures(
                  f, into_ground(images), lambda i, j: {i + j: 1},
                  ground_product, A.mul_basis, [str(n) for n in range(U.dim)],
                  U.pairs_in_range()))
    comult_morphism_sweep(rep, f"x^n -> {label} intertwines coproducts", f,
                          images, [U.comult_monomial(n) for n in range(U.dim)],
                          A.deltas, [f"n = {n}" for n in range(U.dim)])


GA, GM, U2 = "ga", "gm", "u2"


def _chart_bialgebra(preset: str, N: int, F: FieldSpec) -> FinBialgebra:
    """Coordinate functions of the preset one-parameter group in the chart
    at the identity, truncated: an honest coalgebra (the group-law coproduct
    keeps both tensor degrees bounded by the input degree) with the
    zero-truncated product."""
    f = F
    names = tuple(f"{'u' if preset == GM else 'x'}^{k}" if k != 1 else
                  ("u" if preset == GM else "x") for k in range(N + 1))
    names = ("1",) + names[1:]
    mult = {}
    for i in range(N + 1):
        for j in range(N + 1 - i):
            mult[(i, j, i + j)] = f.one
    unit = vbasis(f, N + 1, 0)
    comult = {}
    if preset in (GA, U2):
        # additive law: x -> x (x) 1 + 1 (x) x
        for k in range(N + 1):
            for i in range(k + 1):
                comult[(k, i, k - i)] = f.from_int(math.comb(k, i))
    elif preset == GM:
        # multiplicative law in the chart u = t - 1:
        # u -> u (x) u + u (x) 1 + 1 (x) u
        for k in range(N + 1):
            for a in range(k + 1):
                for b in range(k + 1):
                    n11 = a + b - k
                    if n11 < 0:
                        continue
                    n10 = k - b
                    n01 = k - a
                    coeff = math.factorial(k) // (
                        math.factorial(n11) * math.factorial(n10)
                        * math.factorial(n01))
                    comult[(k, a, b)] = f.from_int(coeff)
    else:
        raise ValueError(f"unsupported preset {preset!r}")
    counit = vbasis(f, N + 1, 0)
    return FinBialgebra(f, N + 1, names, mult, unit, comult, counit)


def dist_at_identity(preset: str, N: int, F: FieldSpec):
    """Distributions at the identity of a preset one-parameter group, to
    order N: the full linear dual of the truncated chart coalgebra, carrying
    the convolution product. Returns (dual structure, comparison report
    against the enveloping truncation of the tangent line)."""
    if F.characteristic():
        raise ValueError("distribution comparison assumes characteristic 0")
    if N < 1:
        raise ValueError("need N >= 1")
    if preset not in (GA, GM, U2):
        raise ValueError(f"unsupported preset {preset!r}")
    chart = _chart_bialgebra(preset, N, F)
    D = dualize(chart)
    f = F
    rep = Report(f"distributions of {preset} at order {N}")

    # delta_1 is the tangent vector; it must be primitive
    d1 = D.comult_basis(1)
    rep.add("delta_1 is primitive",
            d1 == {(0, 1): f.one, (1, 0): f.one})

    if preset in (GA, U2):
        rep.extend(same_structure(D, _divided_powers(N, F)),
                   prefix="matches divided powers: ")
        if preset == U2:
            rep.add("unitriangular composition is the additive law "
                    "(same chart coproduct as ga)",
                    _chart_bialgebra(GA, N, F).comult == chart.comult)

    # powers of the tangent vector: filtered comparison with U(abelian line)
    powers = [D.basis_vec(0)]
    for n in range(1, N + 1):
        powers.append(D.mul_vec(powers[-1], D.basis_vec(1)))
    ok = True
    for n in range(N + 1):
        vec = powers[n]
        lead = vec[n]
        if lead != f.from_int(math.factorial(n)):
            ok = False
            rep.add("delta_1^n has leading coefficient n!", False,
                    f"n = {n}")
        if any(vec[t] != f.zero for t in range(n + 1, N + 1)):
            ok = False
            rep.add("delta_1^n stays in filtration degree n", False,
                    f"n = {n}")
    if ok:
        rep.add("delta_1^n = n! delta_n + lower terms", True)
    U = TruncatedEnveloping(LieAlgebra.abelian(F, 1, ("x",)), N)
    _line_comparison(rep, U, D, powers, "delta_1^n")
    ok = all(len(U.monomials_of_degree(n)) == 1 for n in range(N + 1))
    rep.add("graded pieces all one-dimensional", ok)
    return D, rep


def iadic_graded(preset: str, N: int, nvars: int = 1) -> Report:
    """Dimensions of the augmentation-power graded pieces of a preset
    coordinate algebra, against the symmetric-power count C(k+n-1, n)."""
    F = FieldSpec.rationals()
    f = F
    if preset == "poly":
        if nvars < 1:
            raise ValueError("need at least one variable")
        monos = [m for total in range(N + 2)
                 for m in _exponents_of_degree(nvars, total)]
        index = {m: i for i, m in enumerate(monos)}
        dim = len(monos)
        mult = {}
        for a in monos:
            for b in monos:
                s = tuple(x + y for x, y in zip(a, b))
                if sum(s) <= N + 1:
                    mult[(index[a], index[b], index[s])] = f.one
        unit = vbasis(f, dim, 0)
        A = FinBialgebra(f, dim, tuple(str(m) for m in monos), mult, unit)
        aug = vbasis(f, dim, 0)
        k = nvars
        title = f"I-adic grading of Q[x1..x{nvars}] at the origin"
    elif preset == GM:
        A = _chart_bialgebra(GM, N + 1, F)
        aug = A.counit
        k = 1
        title = "I-adic grading of the multiplicative group at the identity"
    else:
        raise ValueError(f"unsupported preset {preset!r}")

    rep = Report(title)
    ideal = span_of(f, kernel_basis(Matrix(f, [aug])), A.dim)
    power = ideal
    dims = [A.dim, ideal.dim]
    for n in range(2, N + 2):
        nxt = Span(f, A.dim)
        for u in ideal.basis():
            for v in power.basis():
                nxt.add(A.mul_vec(u, v))
        dims.append(nxt.dim)
        power = nxt
    # dims[n] = dim I^n (with I^0 the whole algebra)
    for n in range(N + 1):
        got = dims[n] - dims[n + 1] if n > 0 else None
        if n == 0:
            continue
        want = math.comb(k + n - 1, n)
        rep.add(f"dim I^{n}/I^{n+1} = C({k}+{n}-1,{n})", got == want,
                f"{got} vs {want}")
    return rep
