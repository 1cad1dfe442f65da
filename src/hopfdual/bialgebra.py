"""Finite-dimensional algebras, coalgebras, bialgebras and Hopf algebras
presented by structure constants, with axiom sweeps and the duality functor.

Conventions, fixed globally:

* ``mult[(i, j, k)]`` is the ``e_k``-coefficient of ``e_i * e_j``.
* ``comult[(k, i, j)]`` is the ``e_i (x) e_j``-coefficient of ``Delta(e_k)``.
* The dual of a basis ``{e_i}`` is the dual basis ``{e_i*}`` with
  ``<e_i*, e_j> = delta_ij``; under this convention dualizing twice is the
  literal identity on structure tensors, not merely an isomorphism.
* Tensor-square indices follow the Kronecker rule ``(i, j) -> i*dim + j``.

Tensors are stored sparsely (zero entries dropped) and compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (FieldMismatch, FieldSpec, Matrix, kernel_basis, kron,
                    solve, vbasis)
from .report import Report


def _clean_tensor(field, tensor):
    out = {}
    for key, c in tensor.items():
        if c != field.zero:
            out[tuple(key)] = c
    return out


class FinBialgebra:
    """Structure-constant presentation of a finite-dimensional (bi)algebra.

    Any of the algebra half (``mult``/``unit``), the coalgebra half
    (``comult``/``counit``) and the antipode may be absent; verification
    routines demand what they need. ``has_bialgebra`` is a claim recorded
    by constructors that know the compatibility axioms hold (degree
    truncations, for instance, are honest algebras and coalgebras whose
    coproduct is only multiplicative within the truncation window, and
    they leave the claim unset).
    """

    def __init__(self, field: FieldSpec, dim: int, basis=None, mult=None,
                 unit=None, comult=None, counit=None, antipode=None,
                 has_bialgebra: bool | None = None):
        self.field = field
        self.dim = dim
        self.basis = tuple(basis) if basis else tuple(f"e{i}" for i in range(dim))
        if len(self.basis) != dim:
            raise ValueError("basis size disagrees with dim")
        self.mult = _clean_tensor(field, mult) if mult is not None else None
        self.unit = tuple(unit) if unit is not None else None
        self.comult = _clean_tensor(field, comult) if comult is not None else None
        self.counit = tuple(counit) if counit is not None else None
        self.antipode = antipode
        if (self.mult is None) != (self.unit is None):
            raise ValueError("mult and unit must be supplied together")
        if (self.comult is None) != (self.counit is None):
            raise ValueError("comult and counit must be supplied together")
        for (i, j, k) in (self.mult or {}):
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"mult index out of range: {(i, j, k)}")
        for (k, i, j) in (self.comult or {}):
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise ValueError(f"comult index out of range: {(k, i, j)}")
        if self.unit is not None and len(self.unit) != dim:
            raise ValueError("unit vector has wrong length")
        if self.counit is not None and len(self.counit) != dim:
            raise ValueError("counit vector has wrong length")
        if antipode is not None and (antipode.rows, antipode.cols) != (dim, dim):
            raise ValueError("antipode must be dim x dim")
        if has_bialgebra is None:
            has_bialgebra = self.has_algebra and self.has_coalgebra
        self.has_bialgebra = has_bialgebra

    # -- presence flags -------------------------------------------------------

    @property
    def has_algebra(self) -> bool:
        return self.mult is not None

    @property
    def has_coalgebra(self) -> bool:
        return self.comult is not None

    @property
    def has_antipode(self) -> bool:
        return self.antipode is not None

    # -- basic structure maps --------------------------------------------------

    def mul_basis(self, i: int, j: int) -> dict:
        return dict(self._mult_by_pair().get((i, j), ()))

    def _mult_by_pair(self):
        # cached pair-indexed view of the product tensor; safe because
        # instances are immutable by convention
        cached = getattr(self, "_pair_cache", None)
        if cached is None:
            cached = {}
            for (i, j, k), c in self.mult.items():
                cached.setdefault((i, j), {})[k] = c
            self._pair_cache = cached
        return cached

    def mul_vec(self, x, y) -> tuple:
        """Product of two coefficient vectors."""
        f = self.field
        by_pair = self._mult_by_pair()
        acc = [f.zero] * self.dim
        xs = [(i, xi) for i, xi in enumerate(x) if xi != f.zero]
        ys = [(j, yj) for j, yj in enumerate(y) if yj != f.zero]
        for i, xi in xs:
            for j, yj in ys:
                entry = by_pair.get((i, j))
                if not entry:
                    continue
                c = f.mul(xi, yj)
                for k, m in entry.items():
                    acc[k] = f.add(acc[k], f.mul(c, m))
        return tuple(acc)

    def comult_basis(self, k: int) -> dict:
        cached = getattr(self, "_comult_cache", None)
        if cached is None:
            cached = {}
            for (kk, i, j), c in self.comult.items():
                cached.setdefault(kk, {})[(i, j)] = c
            self._comult_cache = cached
        return dict(cached.get(k, ()))

    def comult_vec(self, x) -> dict:
        f = self.field
        acc = {}
        for (k, i, j), c in self.comult.items():
            if x[k] != f.zero:
                key = (i, j)
                acc[key] = f.add(acc.get(key, f.zero), f.mul(x[k], c))
        return {k: v for k, v in acc.items() if v != f.zero}

    def counit_vec(self, x):
        f = self.field
        acc = f.zero
        for k, c in enumerate(self.counit):
            acc = f.add(acc, f.mul(c, x[k]))
        return acc

    def basis_vec(self, i: int) -> tuple:
        return vbasis(self.field, self.dim, i)

    def left_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> x*y on coefficient vectors."""
        f = self.field
        cols = [self.mul_vec(x, self.basis_vec(j)) for j in range(self.dim)]
        return Matrix.from_columns(f, cols)

    def right_mult_matrix(self, x) -> Matrix:
        f = self.field
        cols = [self.mul_vec(self.basis_vec(j), x) for j in range(self.dim)]
        return Matrix.from_columns(f, cols)

    def is_commutative(self) -> bool:
        dense = self.mult
        for (i, j, k), c in dense.items():
            if dense.get((j, i, k), self.field.zero) != c:
                return False
        return True

    def is_cocommutative(self) -> bool:
        dense = self.comult
        for (k, i, j), c in dense.items():
            if dense.get((k, j, i), self.field.zero) != c:
                return False
        return True

    def name_of(self, i: int) -> str:
        return self.basis[i]

    def __repr__(self):
        parts = [p for p, flag in (("algebra", self.has_algebra),
                                   ("coalgebra", self.has_coalgebra),
                                   ("antipode", self.has_antipode)) if flag]
        return f"FinBialgebra(dim={self.dim}, {self.field.describe()}, " \
               f"{'+'.join(parts) or 'bare'})"


@dataclass(frozen=True)
class BialgebraMorphism:
    """Linear map between structure-constant algebras, as a matrix.

    ``matrix`` is target-dim x source-dim and acts on coefficient vectors.
    """
    source: FinBialgebra
    target: FinBialgebra
    matrix: Matrix

    def __post_init__(self):
        if self.source.field != self.target.field:
            raise FieldMismatch("morphism across different fields")
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise ValueError("morphism matrix has wrong shape")

    def apply(self, vec) -> tuple:
        return self.matrix.apply(vec)


# -- axiom sweeps -------------------------------------------------------------

def verify_algebra(A: FinBialgebra) -> Report:
    """Check associativity on all basis triples and the two unit laws."""
    if not A.has_algebra:
        raise ValueError("no algebra structure present")
    f = A.field
    rep = Report(f"algebra axioms ({A!r})")
    by_pair = A._mult_by_pair()
    zero = {}

    def mul_dict(d, j_right=None, j_left=None):
        # multiply a sparse e_k-combination on the right/left by a basis vector
        acc = {}
        for k, c in d.items():
            pair = (k, j_right) if j_right is not None else (j_left, k)
            for t, m in by_pair.get(pair, zero).items():
                v = f.add(acc.get(t, f.zero), f.mul(c, m))
                if v == f.zero:
                    acc.pop(t, None)
                else:
                    acc[t] = v
        return acc

    n = A.dim
    ok_assoc = True
    for i in range(n):
        for j in range(n):
            ij = by_pair.get((i, j), zero)
            for k in range(n):
                left = mul_dict(ij, j_right=k)
                right = mul_dict(by_pair.get((j, k), zero), j_left=i)
                if left != right:
                    ok_assoc = False
                    rep.add("associativity", False,
                            f"({A.name_of(i)},{A.name_of(j)},{A.name_of(k)})")
    if ok_assoc:
        rep.add("associativity", True)
    one = A.unit
    ok_unit = True
    for i in range(n):
        e = A.basis_vec(i)
        if A.mul_vec(one, e) != e:
            ok_unit = False
            rep.add("left unit law", False, A.name_of(i))
        if A.mul_vec(e, one) != e:
            ok_unit = False
            rep.add("right unit law", False, A.name_of(i))
    if ok_unit:
        rep.add("unit laws", True)
    return rep


def verify_coalgebra(A: FinBialgebra) -> Report:
    """Check coassociativity and both counit laws entrywise."""
    if not A.has_coalgebra:
        raise ValueError("no coalgebra structure present")
    f = A.field
    rep = Report(f"coalgebra axioms ({A!r})")
    n = A.dim
    delta = [A.comult_basis(k) for k in range(n)]
    ok = True
    for k in range(n):
        # (Delta (x) id) Delta vs (id (x) Delta) Delta on e_k, as (a,b,c) tensors
        lhs, rhs = {}, {}
        for (i, j), c in delta[k].items():
            for (a, b), d in delta[i].items():
                key = (a, b, j)
                lhs[key] = f.add(lhs.get(key, f.zero), f.mul(c, d))
            for (a, b), d in delta[j].items():
                key = (i, a, b)
                rhs[key] = f.add(rhs.get(key, f.zero), f.mul(c, d))
        lhs = {k2: v for k2, v in lhs.items() if v != f.zero}
        rhs = {k2: v for k2, v in rhs.items() if v != f.zero}
        if lhs != rhs:
            ok = False
            rep.add("coassociativity", False, A.name_of(k))
    if ok:
        rep.add("coassociativity", True)
    ok = True
    for k in range(n):
        left = [f.zero] * n
        right = [f.zero] * n
        for (i, j), c in delta[k].items():
            left[j] = f.add(left[j], f.mul(A.counit[i], c))
            right[i] = f.add(right[i], f.mul(A.counit[j], c))
        e = list(A.basis_vec(k))
        if left != e:
            ok = False
            rep.add("left counit law", False, A.name_of(k))
        if right != e:
            ok = False
            rep.add("right counit law", False, A.name_of(k))
    if ok:
        rep.add("counit laws", True)
    return rep


def _tensor_square_product(A: FinBialgebra, s: dict, t: dict) -> dict:
    """Product in A (x) A of two sparse (i, j)-keyed tensors."""
    f = A.field
    by_pair = A._mult_by_pair()
    zero = {}
    acc = {}
    for (i1, j1), c1 in s.items():
        for (i2, j2), c2 in t.items():
            c = f.mul(c1, c2)
            for a, ca in by_pair.get((i1, i2), zero).items():
                for b, cb in by_pair.get((j1, j2), zero).items():
                    key = (a, b)
                    acc[key] = f.add(acc.get(key, f.zero),
                                     f.mul(c, f.mul(ca, cb)))
    return {k: v for k, v in acc.items() if v != f.zero}


def verify_bialgebra(A: FinBialgebra) -> Report:
    """Full sweep: algebra + coalgebra axioms plus the compatibility laws
    (Delta and epsilon are algebra morphisms)."""
    if not (A.has_algebra and A.has_coalgebra):
        raise ValueError("bialgebra verification needs all five structures")
    f = A.field
    rep = Report(f"bialgebra axioms ({A!r})")
    rep.extend(verify_algebra(A))
    rep.extend(verify_coalgebra(A))
    n = A.dim
    delta = [A.comult_basis(k) for k in range(n)]
    ok = True
    for i in range(n):
        di = delta[i]
        for j in range(n):
            lhs = A.comult_vec(A.mul_vec(A.basis_vec(i), A.basis_vec(j)))
            rhs = _tensor_square_product(A, di, delta[j])
            if lhs != rhs:
                ok = False
                rep.add("comult multiplicative", False,
                        f"({A.name_of(i)},{A.name_of(j)})")
    if ok:
        rep.add("comult multiplicative", True)
    one = A.unit
    d1 = A.comult_vec(one)
    unit_tensor = {}
    for i, ci in enumerate(one):
        if ci == f.zero:
            continue
        for j, cj in enumerate(one):
            if cj != f.zero:
                unit_tensor[(i, j)] = f.mul(ci, cj)
    rep.add("comult(1) = 1 (x) 1", d1 == unit_tensor)
    ok = True
    for i in range(n):
        for j in range(n):
            lhs = A.counit_vec(A.mul_vec(A.basis_vec(i), A.basis_vec(j)))
            rhs = f.mul(A.counit[i], A.counit[j])
            if lhs != rhs:
                ok = False
                rep.add("counit multiplicative", False,
                        f"({A.name_of(i)},{A.name_of(j)})")
    if ok:
        rep.add("counit multiplicative", True)
    rep.add("counit(1) = 1", A.counit_vec(one) == f.one)
    return rep


def check_hopf(A: FinBialgebra) -> Report:
    """Verify the antipode identities m(S (x) id)Delta = u eps = m(id (x) S)Delta."""
    if not A.has_antipode:
        raise ValueError("antipode absent")
    f = A.field
    rep = Report(f"antipode axioms ({A!r})")
    S = A.antipode
    ok = True
    for k in range(A.dim):
        target = tuple(f.mul(A.counit[k], u) for u in A.unit)
        left = [f.zero] * A.dim
        right = [f.zero] * A.dim
        for (i, j), c in A.comult_basis(k).items():
            si = S.column(i)
            sj = S.column(j)
            for t, v in enumerate(A.mul_vec(si, A.basis_vec(j))):
                left[t] = f.add(left[t], f.mul(c, v))
            for t, v in enumerate(A.mul_vec(A.basis_vec(i), sj)):
                right[t] = f.add(right[t], f.mul(c, v))
        if tuple(left) != target:
            ok = False
            rep.add("antipode left identity", False, A.name_of(k))
        if tuple(right) != target:
            ok = False
            rep.add("antipode right identity", False, A.name_of(k))
    if ok:
        rep.add("antipode identities", True)
    return rep


def find_antipode(A: FinBialgebra) -> Matrix | None:
    """Solve the (linear) antipode equations exhaustively; None if none exists.

    The antipode conditions are linear in the entries of S, so existence is
    decided exactly by one kernel/solve computation.
    """
    f = A.field
    n = A.dim
    # unknowns: S[a][b], flattened a*n + b
    rows, rhs = [], []
    for k in range(n):
        dk = A.comult_basis(k)
        for t in range(n):
            # m(S (x) id) Delta(e_k) coefficient at e_t
            row = [f.zero] * (n * n)
            for (i, j), c in dk.items():
                # S(e_i) = sum_a S[a][i] e_a ; e_a * e_j contributes mult
                for (a, b, s), m in A.mult.items():
                    if b == j and s == t:
                        row[a * n + i] = f.add(row[a * n + i], f.mul(c, m))
            rows.append(row)
            rhs.append(f.mul(A.counit[k], A.unit[t]))
            row2 = [f.zero] * (n * n)
            for (i, j), c in dk.items():
                for (a, b, s), m in A.mult.items():
                    if a == i and s == t:
                        row2[b * n + j] = f.add(row2[b * n + j], f.mul(c, m))
            rows.append(row2)
            rhs.append(f.mul(A.counit[k], A.unit[t]))
    sol = solve(Matrix(f, rows), tuple(rhs))
    if sol is None:
        return None
    return Matrix(f, [[sol[a * n + b] for b in range(n)] for a in range(n)])


def dualize(A: FinBialgebra) -> FinBialgebra:
    """The duality functor on structure constants.

    Products and coproducts trade places (with the (k) and (i, j) index
    roles swapped), unit and counit trade places, and the antipode
    transposes. Under the dual-basis convention this is an involution on
    the nose: dualize(dualize(A)) has identical tensors and basis names.
    """
    mult = comult = unit = counit = None
    if A.has_coalgebra:
        mult = {(i, j, k): c for (k, i, j), c in A.comult.items()}
        unit = A.counit
    if A.has_algebra:
        comult = {(k, i, j): c for (i, j, k), c in A.mult.items()}
        counit = A.unit
    names = tuple(n[:-1] if n.endswith("*") else n + "*" for n in A.basis)
    antipode = A.antipode.transpose() if A.has_antipode else None
    return FinBialgebra(A.field, A.dim, names, mult, unit, comult, counit,
                        antipode, has_bialgebra=A.has_bialgebra)


def tensor_bialgebra(A: FinBialgebra, B: FinBialgebra) -> FinBialgebra:
    """Tensor product on the Kronecker-indexed basis (i, j) -> i*dim(B)+j."""
    if A.field != B.field:
        raise FieldMismatch("tensor over mixed fields")
    f = A.field
    nb = B.dim
    dim = A.dim * nb
    names = tuple(f"({a},{b})" for a in A.basis for b in B.basis)
    mult = unit = comult = counit = None
    if A.has_algebra and B.has_algebra:
        mult = {}
        for (i1, j1, k1), c1 in A.mult.items():
            for (i2, j2, k2), c2 in B.mult.items():
                mult[(i1 * nb + i2, j1 * nb + j2, k1 * nb + k2)] = f.mul(c1, c2)
        unit = tuple(f.mul(a, b) for a in A.unit for b in B.unit)
    if A.has_coalgebra and B.has_coalgebra:
        comult = {}
        for (k1, i1, j1), c1 in A.comult.items():
            for (k2, i2, j2), c2 in B.comult.items():
                comult[(k1 * nb + k2, i1 * nb + i2, j1 * nb + j2)] = f.mul(c1, c2)
        counit = tuple(f.mul(a, b) for a in A.counit for b in B.counit)
    antipode = None
    if A.has_antipode and B.has_antipode:
        antipode = kron(A.antipode, B.antipode)
    claim = A.has_bialgebra and B.has_bialgebra
    return FinBialgebra(f, dim, names, mult, unit, comult, counit, antipode,
                        has_bialgebra=claim)


def same_structure(A: FinBialgebra, B: FinBialgebra,
                   compare_names: bool = False) -> Report:
    """Exact comparison of structure constants (and optionally basis names)."""
    rep = Report("structure comparison")
    if not rep.add("field", A.field == B.field,
                   f"{A.field.describe()} vs {B.field.describe()}"):
        return rep
    if not rep.add("dimension", A.dim == B.dim, f"{A.dim} vs {B.dim}"):
        return rep
    if compare_names:
        rep.add("basis names", A.basis == B.basis,
                f"{A.basis} vs {B.basis}")
    rep.add("mult tensor", A.mult == B.mult)
    rep.add("unit", A.unit == B.unit)
    rep.add("comult tensor", A.comult == B.comult)
    rep.add("counit", A.counit == B.counit)
    ant_a = A.antipode.entries if A.has_antipode else None
    ant_b = B.antipode.entries if B.has_antipode else None
    rep.add("antipode", ant_a == ant_b)
    return rep


def check_morphism(f_map: BialgebraMorphism, kind: str = "bialgebra") -> Report:
    """Check a linear map for the algebra, coalgebra or bialgebra property."""
    if kind not in ("algebra", "coalgebra", "bialgebra"):
        raise ValueError(f"unknown morphism kind {kind!r}")
    A, B, F = f_map.source, f_map.target, f_map.matrix
    f = A.field
    rep = Report(f"{kind} morphism check")
    if kind in ("algebra", "bialgebra"):
        ok = True
        for i in range(A.dim):
            fi = F.column(i)
            for j in range(A.dim):
                lhs = F.apply(A.mul_vec(A.basis_vec(i), A.basis_vec(j)))
                rhs = B.mul_vec(fi, F.column(j))
                if lhs != rhs:
                    ok = False
                    rep.add("f(xy) = f(x)f(y)", False,
                            f"({A.name_of(i)},{A.name_of(j)})")
        if ok:
            rep.add("f(xy) = f(x)f(y)", True)
        rep.add("f(1) = 1", F.apply(A.unit) == B.unit)
    if kind in ("coalgebra", "bialgebra"):
        ok = True
        for k in range(A.dim):
            lhs = B.comult_vec(F.column(k))
            rhs = {}
            for (i, j), c in A.comult_basis(k).items():
                fi, fj = F.column(i), F.column(j)
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
                rep.add("Delta f = (f (x) f) Delta", False, A.name_of(k))
        if ok:
            rep.add("Delta f = (f (x) f) Delta", True)
        ok = True
        for k in range(A.dim):
            if B.counit_vec(F.column(k)) != A.counit[k]:
                ok = False
                rep.add("counit f = counit", False, A.name_of(k))
        if ok:
            rep.add("counit f = counit", True)
    return rep


def primitives(A: FinBialgebra) -> list:
    """Basis of the space of primitive elements: Delta(a) = a (x) 1 + 1 (x) a."""
    f = A.field
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(n):
            row = [f.zero] * n
            for k in range(n):
                row[k] = A.comult.get((k, i, j), f.zero)
            # subtract a (x) 1 and 1 (x) a contributions
            row[i] = f.sub(row[i], A.unit[j])
            row[j] = f.sub(row[j], A.unit[i])
            rows.append(row)
    return kernel_basis(Matrix(f, rows))


def check_grouplike(A: FinBialgebra, a) -> bool:
    """True iff Delta(a) = a (x) a and counit(a) = 1."""
    f = A.field
    if A.counit_vec(a) != f.one:
        return False
    outer = {}
    for i, ci in enumerate(a):
        if ci == f.zero:
            continue
        for j, cj in enumerate(a):
            if cj != f.zero:
                outer[(i, j)] = f.mul(ci, cj)
    return A.comult_vec(a) == outer
