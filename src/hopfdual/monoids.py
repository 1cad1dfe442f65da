"""Finite monoids and abelian groups; their monoid algebras and function
algebras; duality between the two; point enumeration and dual monoids over
prime fields; graded fragments of submonoids of Z^n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .bialgebra import FinBialgebra, dualize, same_structure
from .exact import FieldSpec, Matrix, PRIME_FIELD, Span, solve
from .report import Report


class InsufficientRoots(ValueError):
    """The prime field lacks the roots of unity the check requires."""


class NotPositivelyGraded(ValueError):
    """No positive grading functional exists for the given generators."""


class BudgetExceeded(RuntimeError):
    """Candidate enumeration would exceed the configured budget."""


class FiniteMonoid:
    """Explicit multiplication table with a distinguished unit.

    Associativity and the unit law are verified at construction; the
    ``is_group`` flag records whether two-sided inverses exist (for a
    finite monoid this is equivalent to every row and column of the table
    being a permutation).
    """

    def __init__(self, names, table, unit: int):
        self.names = tuple(names)
        self.table = tuple(tuple(row) for row in table)
        self.unit = unit
        n = len(self.names)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table must be square of size len(names)")
        if len(set(self.names)) != n:
            raise ValueError("element names must be distinct")
        if not (0 <= unit < n):
            raise ValueError("unit index out of range")
        for row in self.table:
            for x in row:
                if not (0 <= x < n):
                    raise ValueError("table entry out of range")
        for i in range(n):
            if self.table[unit][i] != i or self.table[i][unit] != i:
                raise ValueError(f"unit law fails at {self.names[i]}")
        for i in range(n):
            for j in range(n):
                ij = self.table[i][j]
                for k in range(n):
                    if self.table[ij][k] != self.table[i][self.table[j][k]]:
                        raise ValueError(
                            f"not associative at ({self.names[i]},"
                            f"{self.names[j]},{self.names[k]})")
        self._inverse = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == unit and self.table[j][i] == unit:
                    self._inverse[i] = j
                    break
        self.is_group = all(v is not None for v in self._inverse)
        self.is_abelian = all(self.table[i][j] == self.table[j][i]
                              for i in range(n) for j in range(n))

    @property
    def size(self) -> int:
        return len(self.names)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        v = self._inverse[i]
        if v is None:
            raise ValueError(f"{self.names[i]} has no inverse")
        return v

    def index_of(self, name: str) -> int:
        return self.names.index(name)

    def __eq__(self, other):
        return (isinstance(other, FiniteMonoid) and self.names == other.names
                and self.table == other.table and self.unit == other.unit)

    def __hash__(self):
        return hash((self.names, self.table, self.unit))

    def __repr__(self):
        kind = "group" if self.is_group else "monoid"
        return f"FiniteMonoid({kind}, order {self.size})"

    # -- stock constructions -------------------------------------------------

    @staticmethod
    def trivial() -> "FiniteMonoid":
        return FiniteMonoid(("e",), ((0,),), 0)

    @staticmethod
    def cyclic(n: int) -> "FiniteMonoid":
        if n < 1:
            raise ValueError("order must be positive")
        if n == 1:
            return FiniteMonoid.trivial()
        names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return FiniteMonoid(names, table, 0)

    @staticmethod
    def direct_product(a: "FiniteMonoid", b: "FiniteMonoid") -> "FiniteMonoid":
        names = [f"{na}|{nb}" for na in a.names for nb in b.names]
        nb = b.size
        table = [[(a.table[i1][j1]) * nb + b.table[i2][j2]
                  for j1 in range(a.size) for j2 in range(nb)]
                 for i1 in range(a.size) for i2 in range(nb)]
        return FiniteMonoid(names, table, a.unit * nb + b.unit)

    @staticmethod
    def symmetric(n: int) -> "FiniteMonoid":
        """S_n on {0..n-1}; composition (s*t)(x) = s(t(x))."""
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        names = ["".join(str(x) for x in p) for p in perms]
        table = [[index[tuple(s[t[x]] for x in range(n))] for t in perms]
                 for s in perms]
        return FiniteMonoid(names, table, index[tuple(range(n))])

    @staticmethod
    def dihedral(n: int) -> "FiniteMonoid":
        """D_n of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1}
        (sk = s*r^k), with s r s = r^{-1}."""
        names = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
        size = 2 * n

        def mul(i, j):
            fi, a = divmod(i, n)[0], i % n
            fj, b = divmod(j, n)[0], j % n
            if fi == 0 and fj == 0:
                return (a + b) % n
            if fi == 0 and fj == 1:
                return n + (b - a) % n
            if fi == 1 and fj == 0:
                return n + (a + b) % n
            return (b - a) % n

        table = [[mul(i, j) for j in range(size)] for i in range(size)]
        return FiniteMonoid(names, table, 0)

    @staticmethod
    def bool_and() -> "FiniteMonoid":
        """The multiplicative monoid {1, 0}; 0 is absorbing, not invertible."""
        return FiniteMonoid(("1", "0"), ((0, 1), (1, 1)), 0)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Abelian group by invariant factors d1 | d2 | ... | dk (each >= 2)."""

    invariant_factors: tuple

    def __post_init__(self):
        fs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"{a} does not divide {b}")

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def to_monoid(self) -> FiniteMonoid:
        m = FiniteMonoid.trivial()
        for d in self.invariant_factors:
            m = FiniteMonoid.direct_product(m, FiniteMonoid.cyclic(d)) \
                if m.size > 1 else FiniteMonoid.cyclic(d)
        return m


class Character:
    """Multiplicative character of a finite monoid, valued in nonzero scalars."""

    def __init__(self, domain: FiniteMonoid, field: FieldSpec, values):
        self.domain = domain
        self.field = field
        self.values = tuple(values)
        if len(self.values) != domain.size:
            raise ValueError("one value per element required")
        f = field
        if any(v == f.zero for v in self.values):
            raise ValueError("character values must be nonzero")
        if self.values[domain.unit] != f.one:
            raise ValueError("character must send the unit to 1")
        for i in range(domain.size):
            for j in range(domain.size):
                if self.values[domain.table[i][j]] != f.mul(self.values[i],
                                                            self.values[j]):
                    raise ValueError(
                        f"not multiplicative at ({domain.names[i]},"
                        f"{domain.names[j]})")

    def __call__(self, i: int):
        return self.values[i]

    def inverse(self) -> "Character":
        f = self.field
        return Character(self.domain, f, tuple(f.inv(v) for v in self.values))

    @staticmethod
    def trivial(domain: FiniteMonoid, field: FieldSpec) -> "Character":
        return Character(domain, field, (field.one,) * domain.size)


# -- monoid algebra and function algebra --------------------------------------

def monoid_algebra(G: FiniteMonoid, F: FieldSpec) -> FinBialgebra:
    """RG: basis G, product from the table, every element grouplike.

    Carries the inversion antipode exactly when G is a group.
    """
    n = G.size
    one = F.one
    mult = {(i, j, G.table[i][j]): one for i in range(n) for j in range(n)}
    unit = tuple(one if i == G.unit else F.zero for i in range(n))
    comult = {(k, k, k): one for k in range(n)}
    counit = (one,) * n
    antipode = None
    if G.is_group:
        antipode = Matrix(F, [[one if i == G.inv(j) else F.zero
                               for j in range(n)] for i in range(n)])
    return FinBialgebra(F, n, G.names, mult, unit, comult, counit, antipode,
                        has_bialgebra=True)


def function_bialgebra(G: FiniteMonoid, F: FieldSpec) -> FinBialgebra:
    """R^G: pointwise products of delta functions, coproduct dual to the
    table. Basis names carry a ``*`` so the identification with the dual
    basis of RG is the identity."""
    n = G.size
    one = F.one
    mult = {(k, k, k): one for k in range(n)}
    unit = (one,) * n
    comult = {}
    for i in range(n):
        for j in range(n):
            comult[(G.table[i][j], i, j)] = one
    counit = tuple(one if k == G.unit else F.zero for k in range(n))
    antipode = None
    if G.is_group:
        antipode = Matrix(F, [[one if i == G.inv(j) else F.zero
                               for j in range(n)] for i in range(n)])
    names = tuple(nm + "*" for nm in G.names)
    return FinBialgebra(F, n, names, mult, unit, comult, counit, antipode,
                        has_bialgebra=True)


def cartier_check(G: FiniteMonoid, F: FieldSpec) -> Report:
    """Duality pairing of RG and R^G, exactly, both ways round."""
    rg = monoid_algebra(G, F)
    fg = function_bialgebra(G, F)
    rep = Report(f"Cartier pairing for {G!r} over {F.describe()}")
    rep.extend(same_structure(dualize(rg), fg), prefix="(RG)* vs R^G: ")
    rep.extend(same_structure(dualize(fg), rg), prefix="(R^G)* vs RG: ")
    return rep


# -- points of a commutative algebra over a prime field ------------------------

def _greedy_generators(A: FinBialgebra) -> list:
    """Basis elements that generate A as an algebra, chosen greedily in
    basis order; the unit subalgebra is the starting span."""
    f = A.field
    sp = Span(f, A.dim)
    sp.add(A.unit)
    gens = []
    while sp.dim < A.dim:
        pick = None
        for i in range(A.dim):
            if not sp.contains(A.basis_vec(i)):
                pick = i
                break
        if pick is None:
            raise RuntimeError("span closed early; inconsistent structure")
        gens.append(pick)
        sp.add(A.basis_vec(pick))
        # close under products until stable
        changed = True
        while changed:
            changed = False
            vecs = sp.basis()
            for u in vecs:
                for v in vecs:
                    if sp.add(A.mul_vec(u, v)):
                        changed = True
    return gens


def points(A: FinBialgebra, budget: int = 10**7) -> list:
    """All unital multiplicative linear maps A -> F_p, as value tuples on
    the basis, in a deterministic order.

    Candidates assign field values to a greedy generating set and are
    pruned as soon as the partial assignment is inconsistent; zero values
    are allowed (characters of a monoid may hit zero). Raises
    :class:`BudgetExceeded` when p**generators exceeds the budget.
    """
    f = A.field
    if f.kind != PRIME_FIELD:
        raise ValueError("point enumeration runs over prime fields only")
    if not A.has_algebra:
        raise ValueError("algebra structure required")
    if not A.is_commutative():
        raise ValueError("point enumeration needs a commutative algebra")
    p = f.p
    gens = _greedy_generators(A)
    if p ** len(gens) > budget:
        raise BudgetExceeded(
            f"{p}**{len(gens)} candidates exceed budget {budget}")

    n = A.dim
    results = []

    def consistent_closure(assignment):
        """Close the span of {1} + assigned generators under products,
        tracking functional values; return the Span on (vector | value)
        rows, or None when inconsistent."""
        sp = Span(f, n + 1)
        queue = [tuple(A.unit) + (f.one,)]
        for g, val in assignment:
            queue.append(A.basis_vec(g) + (val,))
        listed = []
        while queue:
            row = queue.pop(0)
            vec, val = row[:n], row[n]
            red = sp.reduce(row)
            if not any(red):
                continue  # already implied
            # value on a vector already in span must agree
            if not any(red[:n]):
                return None  # 0 vector with nonzero value: contradiction
            sp.add(row)
            listed.append((vec, val))
            for vec2, val2 in listed[:-1]:
                queue.append(A.mul_vec(vec, vec2) + (f.mul(val, val2),))
            queue.append(A.mul_vec(vec, vec) + (f.mul(val, val),))
        return sp

    def extract(sp: Span):
        """Read the functional off a full-rank consistent closure."""
        if sp.dim < n:
            return None
        rows = sp.basis()
        mat = Matrix(f, [r[:n] for r in rows])
        rhs = tuple(r[n] for r in rows)
        return solve(mat, rhs)

    def dfs(idx, assignment):
        sp = consistent_closure(assignment)
        if sp is None:
            return
        if idx == len(gens):
            phi = extract(sp)
            if phi is None:
                return
            # final validation against every structure constant
            for i in range(n):
                for j in range(n):
                    lhs = f.zero
                    for k, c in A.mul_basis(i, j).items():
                        lhs = f.add(lhs, f.mul(c, phi[k]))
                    if lhs != f.mul(phi[i], phi[j]):
                        return
            acc = f.zero
            for k in range(n):
                acc = f.add(acc, f.mul(A.unit[k], phi[k]))
            if acc != f.one:
                return
            results.append(tuple(phi))
            return
        for v in range(p):
            dfs(idx + 1, assignment + [(gens[idx], v)])

    dfs(0, [])
    return sorted(results)


def monoid_characters(G: FiniteMonoid, F: FieldSpec) -> list:
    """Multiplicative unital maps G -> F_p (zero values allowed), each as a
    value tuple indexed like G.names; deterministic order."""
    return points(monoid_algebra(G, F))


def _character_monoid(chars, size: int, f: FieldSpec) -> FiniteMonoid:
    index = {c: i for i, c in enumerate(chars)}
    table = []
    for a in chars:
        row = []
        for b in chars:
            prod = tuple(f.mul(x, y) for x, y in zip(a, b))
            row.append(index[prod])
        table.append(row)
    unit = index[(f.one,) * size]
    names = [f"chi{i}" for i in range(len(chars))]
    return FiniteMonoid(names, table, unit)


def dual_monoid(G: FiniteMonoid, F: FieldSpec) -> FiniteMonoid:
    """The character monoid of an abelian G over F_p, under pointwise
    product; element i is the i-th tuple of :func:`monoid_characters`."""
    if not G.is_abelian:
        raise ValueError("dual monoid requires an abelian monoid")
    return _character_monoid(monoid_characters(G, F), G.size, F)


def double_dual_check(G, F: FieldSpec) -> Report:
    """Evaluation map into the double dual monoid, checked as an explicit
    isomorphism. Requires exponent(G) | p - 1."""
    if isinstance(G, FiniteAbelianGroup):
        exponent = G.exponent
        M = G.to_monoid()
    else:
        M = G
        if not M.is_group or not M.is_abelian:
            raise ValueError("double dual check needs an abelian group")
        exponent = 1
        for i in range(M.size):
            k, x = 1, i
            while x != M.unit:
                x = M.mul(x, i)
                k += 1
            exponent = math.lcm(exponent, k)
    if F.kind != PRIME_FIELD:
        raise ValueError("prime field required")
    if (F.p - 1) % exponent != 0:
        raise InsufficientRoots(
            f"exponent {exponent} does not divide p-1 = {F.p - 1}")

    rep = Report(f"double dual of {M!r} over {F.describe()}")
    chars = monoid_characters(M, F)
    rep.add("|G*| = |G|", len(chars) == M.size,
            f"{len(chars)} characters vs order {M.size}")
    D = _character_monoid(chars, M.size, F)
    bidual_chars = monoid_characters(D, F)
    DD = _character_monoid(bidual_chars, D.size, F)
    index = {c: i for i, c in enumerate(bidual_chars)}
    # evaluation g -> (chi -> chi(g))
    ev = []
    ok = True
    for g in range(M.size):
        values = tuple(c[g] for c in chars)
        if values not in index:
            ok = False
            rep.add("evaluation lands in G**", False, M.names[g])
            ev.append(None)
        else:
            ev.append(index[values])
    if ok:
        rep.add("evaluation lands in G**", True)
    if ok:
        rep.add("evaluation is bijective",
                sorted(ev) == list(range(DD.size)),
                f"image {sorted(ev)}")
        hom = all(ev[M.mul(i, j)] == DD.mul(ev[i], ev[j])
                  for i in range(M.size) for j in range(M.size))
        rep.add("evaluation is a monoid morphism", hom)
        rep.add("evaluation preserves the unit", ev[M.unit] == DD.unit)
    return rep


# -- submonoids of Z^n ---------------------------------------------------------

@dataclass
class SubmonoidAlgebra:
    """Degree-truncated monoid algebra of a finitely generated submonoid of
    Z^n. The product of two enumerated elements is defined exactly when
    their grades sum to at most the bound."""

    generators: tuple
    grading: tuple
    degree_bound: int
    elements: tuple          # sorted by (grade, lex)
    grades: tuple
    report: Report

    @property
    def dim(self) -> int:
        return len(self.elements)

    def index_of(self, vec) -> int:
        return self.elements.index(tuple(vec))

    def grade(self, idx: int) -> int:
        return self.grades[idx]

    def product(self, i: int, j: int) -> int | None:
        """Index of element i + j, or None when the grade bound is exceeded."""
        if self.grades[i] + self.grades[j] > self.degree_bound:
            return None
        s = tuple(a + b for a, b in zip(self.elements[i], self.elements[j]))
        return self.elements.index(s)

    def elements_of_grade(self, d: int) -> list:
        return [e for e, g in zip(self.elements, self.grades) if g == d]


def _find_positive_grading(generators, search_bound: int = 6):
    """Smallest (in lexicographic max-norm order) integer functional that is
    positive on every generator, or None."""
    rank = len(generators[0])
    for radius in range(1, search_bound + 1):
        for lam in itertools.product(range(-radius, radius + 1), repeat=rank):
            if max(abs(x) for x in lam) != radius:
                continue
            if all(sum(l * g for l, g in zip(lam, gen)) > 0
                   for gen in generators):
                return lam
    return None


def submonoid_algebra(generators, degree_bound: int,
                      grading=None) -> SubmonoidAlgebra:
    """Enumerate the submonoid of Z^n generated by the given vectors up to
    the grade bound and return its truncated monoid algebra.

    A positive grading functional is required for the enumeration to be
    finite; one is searched for when not supplied. Standardness facts that
    hold automatically for submonoids of Z^n (the monoid embeds in its
    associated group, and that group is torsion-free) are reported, not
    re-derived.
    """
    generators = tuple(tuple(int(x) for x in g) for g in generators)
    if not generators:
        raise ValueError("at least one generator required")
    rank = len(generators[0])
    if any(len(g) != rank for g in generators):
        raise ValueError("generators must share the ambient rank")
    if grading is not None:
        grading = tuple(int(x) for x in grading)
        if len(grading) != rank:
            raise ValueError("grading functional has wrong rank")
        if any(sum(l * g for l, g in zip(grading, gen)) <= 0
               for gen in generators):
            raise NotPositivelyGraded("supplied grading is not positive on "
                                      "every generator")
    else:
        grading = _find_positive_grading(generators)
        if grading is None:
            raise NotPositivelyGraded("no positive grading functional found "
                                      "within the search bound")

    def grade(vec):
        return sum(l * x for l, x in zip(grading, vec))

    zero = (0,) * rank
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = tuple(a + b for a, b in zip(v, g))
                if w not in seen and grade(w) <= degree_bound:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    elements = tuple(sorted(seen, key=lambda v: (grade(v), v)))
    grades = tuple(grade(v) for v in elements)

    rep = Report("standardness report")
    rep.add("finitely generated", True)
    rep.add("embeds in its associated group (submonoid of Z^n)", True)
    rep.add("associated group is torsion-free (subgroup of Z^n)", True)
    rep.add("positive grading functional", True)
    return SubmonoidAlgebra(generators, grading, degree_bound, elements,
                            grades, rep)
