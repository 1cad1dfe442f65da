"""Lie algebras and degree-truncated enveloping algebras.

The enveloping truncation keeps the ordered-monomial basis up to a total
degree bound; products are computed by straightening (adjacent descents
rewrite as a swap plus a bracket term, which strictly drops either the
inversion count or the degree) and are only defined when the degree sum
stays within the bound. The coproduct makes the generators primitive and
is total on the truncation.

Also here: the brute-force tensor-algebra oracle used to cross-check the
straightening product, the divided-power truncation, distribution algebras
of the preset one-parameter groups, and augmentation-power gradings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bialgebra import (FinBialgebra, _tensor_square_product, dualize,
                        same_structure)
from .exact import (FieldSpec, Matrix, Span, inverse, kernel_basis, span_of,
                    vbasis)
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
    ok = True
    zero = (f.zero,) * L.dim
    basis = [vbasis(f, L.dim, i) for i in range(L.dim)]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                total = [f.zero] * L.dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = L.bracket_vec(basis[a], basis[b])
                    outer = L.bracket_vec(inner, basis[c])
                    total = [f.add(x, y) for x, y in zip(total, outer)]
                if tuple(total) != zero:
                    ok = False
                    rep.add("Jacobi identity", False,
                            f"({L.names[i]},{L.names[j]},{L.names[k]})")
    if ok:
        rep.add("Jacobi identity", True)
    return rep


def _monomial_name(names, exponents) -> str:
    parts = []
    for n, e in zip(names, exponents):
        if e == 1:
            parts.append(n)
        elif e > 1:
            parts.append(f"{n}^{e}")
    return "*".join(parts) or "1"


MAX_BASIS_DEFAULT = 3003  # C(6+8, 8): d <= 6 and order <= 8 stay inside


class TruncatedEnveloping:
    """Ordered monomials of total degree <= order, with the straightening
    product (partial: defined when degrees sum within the bound) and the
    primitive-generator coproduct (total)."""

    def __init__(self, lie: LieAlgebra, order: int, allow_large=False):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        if not allow_large and \
                math.comb(lie.dim + order, order) > MAX_BASIS_DEFAULT:
            raise ValueError(
                f"basis would hold {math.comb(lie.dim + order, order)} "
                f"monomials; pass allow_large=True to go past "
                f"{MAX_BASIS_DEFAULT}")
        self.lie = lie
        self.field = lie.field
        self.order = order
        monos = []
        for total in range(order + 1):
            for mono in _exponents_of_degree(lie.dim, total):
                monos.append(mono)
        self.monomials = tuple(monos)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.names = tuple(_monomial_name(lie.names, m) for m in self.monomials)
        self._comult_cache = {}

    @property
    def dim(self) -> int:
        return len(self.monomials)

    def degree(self, idx: int) -> int:
        return sum(self.monomials[idx])

    def degrees(self) -> list:
        return [sum(m) for m in self.monomials]

    def monomials_of_degree(self, n: int) -> list:
        return [i for i, m in enumerate(self.monomials) if sum(m) == n]

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
        """Rewrite a generator word to a combination of ordered monomials."""
        f = self.field
        if len(word) > self.order:
            raise TruncationOverflow(
                f"word of length {len(word)} exceeds order {self.order}")
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
                mono = [0] * self.lie.dim
                for letter in w:
                    mono[letter] += 1
                idx = self.index[tuple(mono)]
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
            for k, c in self.lie.bracket_entries(j, i):
                shorter = w[:pos] + (k,) + w[pos + 2:]
                v = f.add(work.get(shorter, f.zero), f.mul(coeff, c))
                if v == f.zero:
                    work.pop(shorter, None)
                else:
                    work[shorter] = v
        return result

    def product_monomials(self, a: int, b: int) -> dict:
        if self.degree(a) + self.degree(b) > self.order:
            raise TruncationOverflow(
                f"degree {self.degree(a)} + {self.degree(b)} exceeds "
                f"order {self.order}")
        word = self.word_of(self.monomials[a]) + self.word_of(self.monomials[b])
        return self.normal_form(word)

    def product_vec(self, x: dict, y: dict) -> dict:
        f = self.field
        acc = {}
        for a, ca in x.items():
            for b, cb in y.items():
                c = f.mul(ca, cb)
                if c == f.zero:
                    continue
                for k, ck in self.product_monomials(a, b).items():
                    v = f.add(acc.get(k, f.zero), f.mul(c, ck))
                    if v == f.zero:
                        acc.pop(k, None)
                    else:
                        acc[k] = v
        return acc

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

    def comult_vec(self, x: dict) -> dict:
        f = self.field
        acc = {}
        for k, c in x.items():
            for key, d in self.comult_monomial(k).items():
                v = f.add(acc.get(key, f.zero), f.mul(c, d))
                if v == f.zero:
                    acc.pop(key, None)
                else:
                    acc[key] = v
        return acc

    def tensor_product_vec(self, s: dict, t: dict) -> dict:
        """Componentwise product in U (x) U of sparse pair-keyed tensors."""
        f = self.field
        acc = {}
        for (a1, b1), c1 in s.items():
            for (a2, b2), c2 in t.items():
                c = f.mul(c1, c2)
                left = self.product_monomials(a1, a2)
                right = self.product_monomials(b1, b2)
                for la, ca in left.items():
                    for rb, cb in right.items():
                        key = (la, rb)
                        v = f.add(acc.get(key, f.zero),
                                  f.mul(c, f.mul(ca, cb)))
                        if v == f.zero:
                            acc.pop(key, None)
                        else:
                            acc[key] = v
        return acc

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
    ok = True
    for k in range(U.dim):
        lhs, rhs = {}, {}
        for (i, j), c in tensor[k].items():
            for (a, b), d in tensor[i].items():
                key = (a, b, j)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(c, d))
            for (a, b), d in tensor[j].items():
                key = (i, a, b)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(c, d))
        lhs = {k2: v for k2, v in lhs.items() if v != f.zero}
        rhs = {k2: v for k2, v in rhs.items() if v != f.zero}
        if lhs != rhs:
            ok = False
            rep.add("coassociativity", False, U.names[k])
    if ok:
        rep.add("coassociativity", True)
    unit_idx = U.index[(0,) * U.lie.dim]
    ok = True
    for k in range(U.dim):
        left = {}
        right = {}
        for (i, j), c in tensor[k].items():
            if i == unit_idx:
                right[j] = f.add(right.get(j, f.zero), c)
            if j == unit_idx:
                left[i] = f.add(left.get(i, f.zero), c)
        left = {a: v for a, v in left.items() if v != f.zero}
        right = {a: v for a, v in right.items() if v != f.zero}
        if left != {k: f.one} or right != {k: f.one}:
            ok = False
            rep.add("counit laws", False, U.names[k])
    if ok:
        rep.add("counit laws", True)
    ok = True
    for a in range(U.dim):
        for b in range(U.dim):
            if U.degree(a) + U.degree(b) > U.order:
                continue
            lhs = U.comult_vec(U.product_monomials(a, b))
            rhs = U.tensor_product_vec(tensor[a], tensor[b])
            if lhs != rhs:
                ok = False
                rep.add("Delta(xy) = Delta(x)Delta(y) in range", False,
                        f"({U.names[a]},{U.names[b]})")
    if ok:
        rep.add("Delta(xy) = Delta(x)Delta(y) in range", True)
    gen_ok = True
    for g in range(U.lie.dim):
        mono = tuple(1 if t == g else 0 for t in range(U.lie.dim))
        idx = U.index[mono]
        want = {(idx, unit_idx): f.one, (unit_idx, idx): f.one}
        if tensor[idx] != want:
            gen_ok = False
            rep.add("generators are primitive", False, U.lie.names[g])
    if gen_ok:
        rep.add("generators are primitive", True)
    return tensor, rep


class TensorAlgebraOracle:
    """Independent check of the straightening product: elements of the
    degree-bounded tensor algebra reduce modulo the span of
    u (x_j x_i - x_i x_j - [x_j, x_i]) v over all words u, v in range.

    Built from the bracket data alone; never calls the straightening code.
    """

    def __init__(self, lie: LieAlgebra, order: int):
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

    def element(self, combo: dict) -> list:
        f = self.lie.field
        vec = [f.zero] * len(self.words)
        for word, c in combo.items():
            vec[self.word_index[tuple(word)]] = f.add(
                vec[self.word_index[tuple(word)]], c)
        return vec

    def equal_mod_ideal(self, combo_a: dict, combo_b: dict) -> bool:
        f = self.lie.field
        diff = {}
        for w, c in combo_a.items():
            diff[tuple(w)] = f.add(diff.get(tuple(w), f.zero), c)
        for w, c in combo_b.items():
            diff[tuple(w)] = f.sub(diff.get(tuple(w), f.zero), c)
        residue = self.ideal.reduce(self.element(diff))
        return all(x == f.zero for x in residue)

    def check_product(self, U: TruncatedEnveloping, a: int, b: int) -> bool:
        """Does word(a) word(b) agree with the straightened product in the
        quotient by the commutation ideal?"""
        word = U.word_of(U.monomials[a]) + U.word_of(U.monomials[b])
        pbw = U.product_monomials(a, b)
        expanded = {U.word_of(U.monomials[k]): c for k, c in pbw.items()}
        return self.equal_mod_ideal({word: self.lie.field.one}, expanded)


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
    pos = {k: t for t, k in enumerate(idxs)}
    inv_fact = f.inv(f.from_int(math.factorial(n)))
    cols = []
    for k in idxs:
        word = U.word_of(U.monomials[k])
        weight = f.mul(inv_fact, f.from_int(_stabilizer_size(word)))
        acc = {}
        for perm in _distinct_permutations(word):
            for t, c in U.normal_form(perm).items():
                acc[t] = f.add(acc.get(t, f.zero), f.mul(weight, c))
        col = [f.zero] * len(idxs)
        for t, c in acc.items():
            if U.degree(t) == n:
                col[pos[t]] = c
        cols.append(col)
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


def _distinct_permutations(word):
    return sorted(set(itertools.permutations(word)))


def _stabilizer_size(word) -> int:
    counts = {}
    for x in word:
        counts[x] = counts.get(x, 0) + 1
    size = 1
    for c in counts.values():
        size *= math.factorial(c)
    return size


def symmetrized_pairing(U: TruncatedEnveloping, n: int) -> Matrix:
    """Composite of symmetrization into gr_n with the n-fold split of the
    coproduct back into degree-one tensors, in the orbit-sum basis; equals
    the diagonal of per-variable factorials, an exact bookkeeping of the
    n! factors."""
    f = U.field
    idxs = U.monomials_of_degree(n)
    pos = {k: t for t, k in enumerate(idxs)}
    inv_fact = f.inv(f.from_int(math.factorial(n)))
    out_cols = []
    for k in idxs:
        word = U.word_of(U.monomials[k])
        # symmetrize into U, keep the degree-n part
        sym = {}
        for perm in _distinct_permutations(word):
            weight = f.mul(inv_fact,
                           f.from_int(_stabilizer_size(word)))
            for t, c in U.normal_form(perm).items():
                if U.degree(t) == n:
                    sym[t] = f.add(sym.get(t, f.zero), f.mul(weight, c))
        # split each monomial into the all-degree-one component of the
        # iterated coproduct, collected in the orbit-sum basis
        col = [f.zero] * len(idxs)
        for t, c in sym.items():
            mono = U.monomials[t]
            orbit_coeff = 1
            for e in mono:
                orbit_coeff *= math.factorial(e)
            col[pos[t]] = f.add(col[pos[t]],
                                f.mul(c, f.from_int(orbit_coeff)))
        out_cols.append(col)
    return Matrix.from_columns(f, out_cols)


def primitives_of_U(U: TruncatedEnveloping) -> list:
    """Solution space of Delta(a) = a (x) 1 + 1 (x) a over the whole
    truncation; in characteristic zero this is the degree-one span."""
    f = U.field
    n = U.dim
    unit_idx = U.index[(0,) * U.lie.dim]
    rows = {}
    for k in range(n):
        for (i, j), c in U.comult_monomial(k).items():
            rows.setdefault((i, j), [f.zero] * n)[k] = \
                f.add(rows.setdefault((i, j), [f.zero] * n)[k], c)
    for k in range(n):
        row = rows.setdefault((k, unit_idx), [f.zero] * n)
        row[k] = f.sub(row[k], f.one)
        row = rows.setdefault((unit_idx, k), [f.zero] * n)
        row[k] = f.sub(row[k], f.one)
    return kernel_basis(Matrix(f, [rows[key] for key in sorted(rows)]))


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
    ok = True
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            img = [f.zero] * target.dim
            for k, c in source.bracket_entries(i, j):
                for t, x in enumerate(fmat.column(k)):
                    img[t] = f.add(img[t], f.mul(c, x))
            want = target.bracket_vec(fmat.column(i), fmat.column(j))
            if tuple(img) != want:
                ok = False
                rep.add("bracket preserved", False,
                        f"({source.names[i]},{source.names[j]})")
    if ok:
        rep.add("bracket preserved", True)
    else:
        return None, rep

    Us = TruncatedEnveloping(source, order)
    Ut = TruncatedEnveloping(target, order)
    cols = []
    for idx in range(Us.dim):
        word = Us.word_of(Us.monomials[idx])
        acc = Ut.unit_vector()
        for letter in word:
            gen = {}
            for t, c in enumerate(fmat.column(letter)):
                if c != f.zero:
                    mono = tuple(1 if s == t else 0
                                 for s in range(target.dim))
                    gen[Ut.index[mono]] = c
            acc = Ut.product_vec(acc, gen) if gen else {}
        col = [f.zero] * Ut.dim
        for t, c in acc.items():
            col[t] = c
        cols.append(col)
    F = Matrix.from_columns(f, cols)

    ok = True
    for a in range(Us.dim):
        for b in range(Us.dim):
            if Us.degree(a) + Us.degree(b) > order:
                continue
            lhs = {}
            for k, c in Us.product_monomials(a, b).items():
                for t, x in enumerate(F.column(k)):
                    if x != f.zero:
                        lhs[t] = f.add(lhs.get(t, f.zero), f.mul(c, x))
            rhs = Ut.product_vec(
                {t: c for t, c in enumerate(F.column(a)) if c != f.zero},
                {t: c for t, c in enumerate(F.column(b)) if c != f.zero})
            lhs = {k2: v for k2, v in lhs.items() if v != f.zero}
            if lhs != rhs:
                ok = False
                rep.add("extension multiplicative in range", False,
                        f"({Us.names[a]},{Us.names[b]})")
    if ok:
        rep.add("extension multiplicative in range", True)
    ok = True
    for k in range(Us.dim):
        lhs = Ut.comult_vec(
            {t: c for t, c in enumerate(F.column(k)) if c != f.zero})
        rhs = {}
        for (i, j), c in Us.comult_monomial(k).items():
            fi = F.column(i)
            fj = F.column(j)
            for a, ca in enumerate(fi):
                if ca == f.zero:
                    continue
                for b, cb in enumerate(fj):
                    if cb == f.zero:
                        continue
                    key = (a, b)
                    rhs[key] = f.add(rhs.get(key, f.zero),
                                     f.mul(c, f.mul(ca, cb)))
        rhs = {k2: v for k2, v in rhs.items() if v != f.zero}
        if lhs != rhs:
            ok = False
            rep.add("extension respects coproducts", False, Us.names[k])
    if ok:
        rep.add("extension respects coproducts", True)
    rep.add("unit maps to unit",
            F.column(Us.index[(0,) * source.dim])
            == tuple(vbasis(f, Ut.dim, Ut.index[(0,) * target.dim])))
    ok = True
    for k in range(Us.dim):
        acc = f.zero
        for t, c in enumerate(F.column(k)):
            acc = f.add(acc, f.mul(c, Ut.counit(t)))
        if acc != Us.counit(k):
            ok = False
            rep.add("extension respects counits", False, Us.names[k])
    if ok:
        rep.add("extension respects counits", True)
    return F, rep


# -- divided powers and distribution algebras -----------------------------------

def divided_power_bialgebra(N: int, F: FieldSpec):
    """The degree-N divided-power truncation: w_i w_j = C(i+j, i) w_{i+j}
    (zero past the bound), Delta w_n = sum w_i (x) w_{n-i}.

    An honest algebra and coalgebra; the coproduct is multiplicative only
    within the truncation window, so no bialgebra claim is recorded.
    Returns (structure, comparison report against the enveloping truncation
    of the one-dimensional Lie algebra, x^n matching n! w_n).
    """
    if N < 1:
        raise ValueError("need N >= 1")
    f = F
    names = tuple(f"w{i}" for i in range(N + 1))
    mult = {}
    for i in range(N + 1):
        for j in range(N + 1):
            if i + j <= N:
                mult[(i, j, i + j)] = f.from_int(math.comb(i + j, i))
    unit = vbasis(f, N + 1, 0)
    comult = {}
    for n in range(N + 1):
        for i in range(n + 1):
            comult[(n, i, n - i)] = f.one
    counit = vbasis(f, N + 1, 0)
    A = FinBialgebra(f, N + 1, names, mult, unit, comult, counit,
                     has_bialgebra=False)

    rep = Report(f"divided powers at order {N} over {F.describe()}")
    ok = True
    for i in range(N + 1):
        for j in range(N + 1 - i):
            got = A.mul_vec(A.basis_vec(i), A.basis_vec(j))
            want = [f.zero] * (N + 1)
            want[i + j] = f.from_int(math.comb(i + j, i))
            if got != tuple(want):
                ok = False
                rep.add("w_i w_j = C(i+j, i) w_{i+j}", False, f"(w{i},w{j})")
    if ok:
        rep.add("w_i w_j = C(i+j, i) w_{i+j}", True)
    ok = True
    power = A.basis_vec(0)
    w1 = A.basis_vec(1)
    for n in range(1, N + 1):
        power = A.mul_vec(power, w1)
        want = [f.zero] * (N + 1)
        want[n] = f.from_int(math.factorial(n))
        if power != tuple(want):
            ok = False
            rep.add("w_1^n = n! w_n", False, f"n = {n}")
    if ok:
        rep.add("w_1^n = n! w_n", True)
    grouplike = A.comult_basis(0) == {(0, 0): f.one}
    rep.add("w_0 is grouplike", grouplike)

    if F.characteristic() == 0:
        U = TruncatedEnveloping(LieAlgebra.abelian(F, 1, ("x",)), N)
        scale = [f.from_int(math.factorial(n)) for n in range(N + 1)]
        ok = True
        for i in range(N + 1):
            for j in range(N + 1 - i):
                image = A.mul_vec(
                    tuple(f.mul(scale[i], x) for x in A.basis_vec(i)),
                    tuple(f.mul(scale[j], x) for x in A.basis_vec(j)))
                want = [f.zero] * (N + 1)
                want[i + j] = scale[i + j]
                if image != tuple(want):
                    ok = False
                    rep.add("x^n -> n! w_n intertwines products", False,
                            f"({i},{j})")
        if ok:
            rep.add("x^n -> n! w_n intertwines products", True)
        ok = True
        for n in range(N + 1):
            lhs = {}
            for (i, j), c in U.comult_monomial(U.index[(n,)]).items():
                di = sum(U.monomials[i])
                dj = sum(U.monomials[j])
                lhs[(di, dj)] = f.mul(c, f.mul(scale[di], scale[dj]))
            rhs = {}
            for (i, j), c in A.comult_basis(n).items():
                rhs[(i, j)] = f.mul(c, scale[n])
            lhs = {k: v for k, v in lhs.items() if v != f.zero}
            rhs = {k: v for k, v in rhs.items() if v != f.zero}
            if lhs != rhs:
                ok = False
                rep.add("x^n -> n! w_n intertwines coproducts", False,
                        f"n = {n}")
        if ok:
            rep.add("x^n -> n! w_n intertwines coproducts", True)
    ok = True
    for i in range(N + 1):
        for j in range(N + 1 - i):
            lhs = A.comult_vec(A.mul_vec(A.basis_vec(i), A.basis_vec(j)))
            rhs = _tensor_square_product(A, A.comult_basis(i),
                                         A.comult_basis(j))
            if lhs != rhs:
                ok = False
                rep.add("Delta multiplicative in range", False,
                        f"(w{i},w{j})")
    if ok:
        rep.add("Delta multiplicative in range", True)
    return A, rep


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
    return FinBialgebra(f, N + 1, names, mult, unit, comult, counit,
                        has_bialgebra=False)


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
        divided, _ = divided_power_bialgebra(N, F)
        rep.extend(same_structure(D, divided),
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
    ok = True
    for i in range(N + 1):
        for j in range(N + 1 - i):
            if D.mul_vec(powers[i], powers[j]) != powers[i + j]:
                ok = False
                rep.add("x^n -> delta_1^n intertwines products", False,
                        f"({i},{j})")
    if ok:
        rep.add("x^n -> delta_1^n intertwines products", True)
    U = TruncatedEnveloping(LieAlgebra.abelian(F, 1, ("x",)), N)
    ok = True
    for n in range(N + 1):
        lhs = D.comult_vec(powers[n])
        rhs = {}
        for (i, j), c in U.comult_monomial(U.index[(n,)]).items():
            di, dj = sum(U.monomials[i]), sum(U.monomials[j])
            for a, ca in enumerate(powers[di]):
                if ca == f.zero:
                    continue
                for b, cb in enumerate(powers[dj]):
                    if cb == f.zero:
                        continue
                    key = (a, b)
                    rhs[key] = f.add(rhs.get(key, f.zero),
                                     f.mul(c, f.mul(ca, cb)))
        rhs = {k: v for k, v in rhs.items() if v != f.zero}
        if lhs != rhs:
            ok = False
            rep.add("x^n -> delta_1^n intertwines coproducts", False,
                    f"n = {n}")
    if ok:
        rep.add("x^n -> delta_1^n intertwines coproducts", True)
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
        monos = []
        for total in range(N + 2):
            monos.extend(_exponents_of_degree(nvars, total))
        monos = [m for m in monos if sum(m) <= N + 1]
        monos.sort(key=lambda m: (sum(m), m))
        index = {m: i for i, m in enumerate(monos)}
        dim = len(monos)
        mult = {}
        for a in monos:
            for b in monos:
                s = tuple(x + y for x, y in zip(a, b))
                if sum(s) <= N + 1:
                    mult[(index[a], index[b], index[s])] = f.one
        unit = vbasis(f, dim, 0)
        A = FinBialgebra(f, dim, tuple(str(m) for m in monos), mult, unit,
                         has_bialgebra=False)
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
