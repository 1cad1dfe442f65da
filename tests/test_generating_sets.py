"""Every G-law is checked on a generating set: invariants, the integral
system, equivariance, subspace invariance, the module law and the greedy
algebra generating set, each against its all-elements oracle in
``reference_kernel``; the empty generating set of the trivial monoid and
of the one-dimensional algebra; and the strength of each check, on inputs
wrong only away from the generators."""

import itertools
import random
import re
from pathlib import Path

import pytest

import reference_kernel as ref
from conftest import random_invariant_subspace, random_invertible, seeded_module
from hopfdual import io
from hopfdual.bialgebra import FinBialgebra, dualize
from hopfdual.exact import (FieldSpec, Matrix, kernel_basis, kron, span_of,
                            stack, vbasis)
from hopfdual.monoids import FiniteAbelianGroup, FiniteMonoid, monoid_algebra
from hopfdual.reps import (AlgebraModule, RepMorphism, Representation,
                           assemble_summands, complete_reducibility,
                           equivariant_section, hom_dim_modules,
                           hom_dim_reps,
                           integral_system, invariant_integral, invariants,
                           quotient_rep, rep_to_module, split_group_algebra)
from hopfdual.tannaka import annihilator_quotient

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F7 = FieldSpec.prime(7)

S3 = FiniteMonoid.symmetric(3)
D4 = FiniteMonoid.dihedral(4)
Z3xZ3 = FiniteAbelianGroup((3, 3)).to_monoid()
GROUPS = (S3, D4, Z3xZ3)
BOOL = FiniteMonoid.bool_and()
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"
DATA = Path(__file__).resolve().parent / "data"

# the trivial group two ways: the stock one-element table and the group
# with no invariant factors
TRIVIAL = (FiniteMonoid.trivial(), FiniteAbelianGroup(()).to_monoid())


def modules(G, field, count):
    rng = random.Random(f"generating-sets:{G.size}:{field.p}")
    return [seeded_module(G, field, rng) for _ in range(count)], rng


def module_witness(algebra, message):
    """The pair (s, b) named by a module-law failure."""
    s, b = re.match(r"module law fails at \((.+),(.+)\)", message).groups()
    return algebra.basis.index(s), algebra.basis.index(b)


# -- each fast check against its all-elements oracle ------------------------------

@pytest.mark.parametrize("field", (Q, F7), ids=("Q", "F7"))
@pytest.mark.parametrize("G", GROUPS, ids=("S3", "D4", "Z3xZ3"))
def test_invariants_and_equivariance_match_the_full_loops(G, field):
    mods, rng = modules(G, field, 3)
    for rho in mods:
        assert invariants(rho) == ref.invariants_all(rho)
        assert len(G.generators) < G.size
        # equivariant maps: the identity, a projection onto a quotient,
        # the averaged section of that projection
        sub = random_invariant_subspace(rho, rng)
        quot, proj, sect = quotient_rep(rho, sub)
        pi = RepMorphism(rho, quot, proj)
        maps = [RepMorphism(rho, rho, Matrix.identity(field, rho.dim)), pi]
        if field.p is None or G.size % field.p:
            w = invariant_integral(G, field)
            maps.append(RepMorphism(quot, rho,
                                    equivariant_section(pi, sect, w)))
        # and maps that are not: a random matrix, a rescaled projection
        # composed with a base change
        maps.append(RepMorphism(rho, rho, random_invertible(field, rho.dim,
                                                            rng)))
        maps.append(RepMorphism(rho, quot, proj * random_invertible(
            field, rho.dim, rng)))
        for m in maps:
            assert m.is_equivariant() == (not ref.equivariance_failures(m))
        assert maps[0].is_equivariant() and maps[1].is_equivariant()


@pytest.mark.parametrize("field", (Q, F7), ids=("Q", "F7"))
@pytest.mark.parametrize("G", GROUPS, ids=("S3", "D4", "Z3xZ3"))
def test_quotient_invariance_matches_the_full_loop(G, field):
    mods, rng = modules(G, field, 3)
    for rho in mods:
        subs = [random_invariant_subspace(rho, rng)]
        for k in (1, 2, rho.dim // 2):
            subs.append(span_of(field, [
                tuple(field.from_int(rng.randint(-2, 2))
                      for _ in range(rho.dim)) for _ in range(k)],
                rho.dim).basis())
        for sub in subs:
            if not sub or len(sub) == rho.dim:
                continue
            failures = ref.invariance_failures(rho, sub)
            if failures:
                with pytest.raises(ValueError, match="not invariant"):
                    quotient_rep(rho, sub)
            else:
                quotient_rep(rho, sub)
        assert not ref.invariance_failures(rho, subs[0])


@pytest.mark.parametrize("G", GROUPS + (BOOL, FiniteMonoid.cyclic(4)),
                         ids=("S3", "D4", "Z3xZ3", "bool", "Z4"))
def test_integral_system_matches_the_full_system(G):
    for field in (Q, F2, F3, F7):
        assert integral_system(G, field) == ref.integral_system_all(G, field)


@pytest.mark.parametrize("field", (Q, F7), ids=("Q", "F7"))
@pytest.mark.parametrize("G", GROUPS, ids=("S3", "D4", "Z3xZ3"))
def test_module_law_matches_the_full_loop(G, field):
    A = monoid_algebra(G, field)
    mods, rng = modules(G, field, 2)
    for rho in mods:
        mats = list(rho.matrices)
        AlgebraModule(A, mats)
        assert not ref.module_law_failures(A, mats)
        for _ in range(4):
            bad = list(mats)
            g = rng.randrange(G.size)
            h = rng.randrange(G.size)
            bad[g], bad[h] = bad[h], bad[g]
            if rng.random() < 0.5:
                g = rng.randrange(G.size)
                bad[g] = bad[g].scale(field.from_int(2))
            failures = ref.module_law_failures(A, bad)
            unit_ok = bad[G.unit] == Matrix.identity(field, rho.dim)
            if failures or not unit_ok:
                with pytest.raises(ValueError) as exc:
                    AlgebraModule(A, bad)
                if unit_ok:
                    assert module_witness(A, str(exc.value)) in failures
            else:
                AlgebraModule(A, bad)


def reconstructed_algebra(G):
    """The A_X that annihilator_quotient builds from the regular module of
    G over Q, as a fresh FinBialgebra, so its generators are not cached."""
    A = monoid_algebra(G, Q)
    AX = annihilator_quotient(A, rep_to_module(Representation.regular(G, Q))
                              ).algebra
    return FinBialgebra(Q, AX.dim, AX.basis, AX.mult, AX.unit)


def test_generators_multiply_by_the_generators_only(monkeypatch):
    # each pick grows the span before it: the new generator times the old
    # rows, then every vector that enlarges the span times each generator
    # (at most the parent's pairwise closure: 600, 90 and 72 calls; the
    # function algebra of D4 needs 7 picks)
    cases = [(monoid_algebra(FiniteMonoid.symmetric(4), Q), 3, 72),
             (reconstructed_algebra(Z3xZ3), 2, 18),
             (dualize(monoid_algebra(D4, Q)), 7, 56)]
    calls = []
    mul_vec = FinBialgebra.mul_vec
    monkeypatch.setattr(FinBialgebra, "mul_vec", lambda self, x, y:
                        calls.append(1) or mul_vec(self, x, y))
    for A, n_gens, bound in cases:
        calls.clear()
        assert len(A.generators) == n_gens
        assert len(calls) <= bound


def test_greedy_generators_match_the_round_by_round_closure():
    algebras = []
    for path in sorted(CORPUS.glob("*.json")):
        kind = io.classify_file(io._load_json(path))
        if kind == "bialgebra":
            A = io.load_bialgebra(path)
            if A.has_algebra:
                algebras.append(A)
    for G in GROUPS + (BOOL,):
        for field in (Q, F2, F3):
            algebras.append(monoid_algebra(G, field))
    algebras.append(monoid_algebra(FiniteMonoid.symmetric(4), Q))
    algebras.append(monoid_algebra(FiniteMonoid.dihedral(6), Q))
    algebras.extend(reconstructed_algebra(G) for G in GROUPS)
    assert len(algebras) > 30
    for A in algebras:
        assert A.generators == tuple(ref.greedy_generators(A))
    assert monoid_algebra(D4, Q).generators == (D4.index_of("r1"),
                                                 D4.index_of("s0"))


def test_monoid_algebra_records_the_greedy_algebra_generators():
    # the same structure built afresh finds its generating set by growing
    # subalgebra spans; the monoid algebra records the monoid's
    monoids = [io.load_monoid(path)
               for path in sorted(CORPUS.glob("monoid_*.json"))]
    monoids += [S3, D4, FiniteMonoid.symmetric(4), FiniteMonoid.symmetric(5)]
    for G in monoids:
        for field in (Q, F2):
            A = monoid_algebra(G, field)
            assert "generators" in A.__dict__
            fresh = FinBialgebra(field, A.dim, A.basis, A.mult, A.unit)
            assert A.generators == G.generators == fresh.generators


def test_greedy_closure_on_fresh_group_algebras(monkeypatch):
    # a monoid algebra records its monoid's generators, so the greedy
    # closure is run here on the same structure tensors built afresh: it
    # matches the round-by-round closure, and on S4 keeps the call bound
    def fresh(A):
        return FinBialgebra(A.field, A.dim, A.basis, A.mult, A.unit)

    algebras = [fresh(monoid_algebra(G, field))
                for G in GROUPS + (BOOL,) for field in (Q, F2, F3)]
    algebras += [fresh(monoid_algebra(FiniteMonoid.symmetric(4), Q)),
                 fresh(monoid_algebra(FiniteMonoid.dihedral(6), Q))]
    for A in algebras:
        assert "generators" not in A.__dict__
        assert A.generators == tuple(ref.greedy_generators(A))
    S4 = fresh(monoid_algebra(FiniteMonoid.symmetric(4), Q))
    calls = []
    mul_vec = FinBialgebra.mul_vec
    monkeypatch.setattr(FinBialgebra, "mul_vec", lambda self, x, y:
                        calls.append(1) or mul_vec(self, x, y))
    assert len(S4.generators) == 3
    assert 0 < len(calls) <= 72


def test_hom_dims_match_the_full_stack():
    for G in GROUPS:
        rng = random.Random(f"hom-dims:{G.size}")
        reg = Representation.regular(G, Q)
        a = reg.conjugate(random_invertible(Q, reg.dim, rng))
        b = Representation.direct_sum(reg, Representation.trivial(G, Q))
        full = kernel_basis(stack([
            kron(Matrix.identity(Q, b.dim), a.action(g).transpose())
            - kron(b.action(g), Matrix.identity(Q, a.dim))
            for g in range(G.size)]))
        assert hom_dim_reps(a, b) == len(full) == G.size + 1


def test_hom_dim_modules_match_the_full_stack():
    reps = [io.load_representation(p) for p in sorted(CORPUS.glob("rep_*"))
            + sorted(DATA.glob("rep_*"))]
    assert any(rho.monoid == D4 and rho.dim == 8 for rho in reps)
    pairs = 0
    for a, b in itertools.product(reps, repeat=2):
        if a.monoid == b.monoid and a.field == b.field:
            ma, mb = rep_to_module(a), rep_to_module(b)
            assert len(ma.algebra.generators) < ma.algebra.dim
            assert hom_dim_modules(ma, mb) == ref.hom_dim_modules_all(ma, mb) \
                == hom_dim_reps(a, b)
            pairs += 1
    assert pairs >= 20


# -- the empty generating set -------------------------------------------------------

@pytest.mark.parametrize("G", TRIVIAL, ids=("trivial", "no-factors"))
def test_trivial_monoid_has_no_generators(G):
    assert G.size == 1 and G.generators == ()
    for field in (Q, F2, F7):
        rho = Representation.trivial(G, field, 3)
        assert invariants(rho) == [vbasis(field, 3, i) for i in range(3)]
        assert invariants(rho) == ref.invariants_all(rho)
        assert integral_system(G, field) == ((field.one,), True)
        assert integral_system(G, field) == ref.integral_system_all(G, field)
        assert invariant_integral(G, field).vector == (field.one,)
        assert split_group_algebra(G, field).report.passed
        # every map commutes with the identity action
        other = Representation.trivial(G, field, 2)
        m = Matrix.from_int_rows(field, [[1, 2, 0], [0, 5, 3]])
        assert RepMorphism(rho, other, m).is_equivariant()
        assert hom_dim_reps(rho, other) == 6
        # every subspace is invariant
        quot, _, _ = quotient_rep(rho, [vbasis(field, 3, 1)])
        assert quot.dim == 2


@pytest.mark.parametrize("G", TRIVIAL, ids=("trivial", "no-factors"))
def test_one_dimensional_algebra_has_no_generators(G):
    A = monoid_algebra(G, Q)
    assert A.dim == 1 and A.generators == ()
    ident = Matrix.identity(Q, 2)
    assert AlgebraModule(A, [ident]).dim == 2
    with pytest.raises(ValueError, match="identity"):
        AlgebraModule(A, [ident.scale(Q.from_int(2))])


def test_one_dimensional_algebra_with_another_unit():
    # e0 * e0 = 2 e0, so the unit is e0 / 2 and e0 acts as 2
    B = FinBialgebra(Q, 1, ("e0",), {(0, 0, 0): 2}, (Q.inv(2),))
    ident = Matrix.identity(Q, 2)
    assert B.generators == ()
    M = AlgebraModule(B, [ident.scale(Q.from_int(2))])
    assert M.dim == 2
    assert hom_dim_modules(M, M) == ref.hom_dim_modules_all(M, M) == 4
    with pytest.raises(ValueError, match="identity"):
        AlgebraModule(B, [ident])


def test_generators_need_an_algebra():
    C = FinBialgebra(Q, 1, ("e0",), comult={(0, 0, 0): 1}, counit=(1,))
    with pytest.raises(ValueError, match="no algebra structure"):
        C.generators


@pytest.mark.parametrize("unit, gens", [((0, 0), (0, 1)), ((1, 0), (1,))],
                         ids=("zero", "not-a-left-identity"))
def test_generators_end_when_the_unit_is_not_an_identity(unit, gens):
    # e0, e1 orthogonal idempotents, whose identity is e0 + e1; nothing
    # checks the unit law first, and every pick must still enter its span
    A = FinBialgebra(F7, 2, None, {(0, 0, 0): 1, (1, 1, 1): 1}, unit)
    assert A.generators == gens == tuple(ref.greedy_generators(A))


def test_complete_reducibility_on_the_trivial_group():
    G = FiniteMonoid.trivial()
    rho = Representation.trivial(G, Q, 2)
    parts = complete_reducibility(rho, invariant_integral(G, Q))
    assert [len(p.embedding) for p in parts] == [1, 1]
    assert assemble_summands(rho, parts).rows == 2


# -- strength: inputs wrong only away from the generators ------------------------

@pytest.mark.parametrize("G", GROUPS, ids=("S3", "D4", "Z3xZ3"))
def test_module_wrong_only_at_a_non_generator_is_rejected(G):
    A = monoid_algebra(G, Q)
    (rho,), _ = modules(G, Q, 1)
    for b in range(G.size):
        if b in A.generators or b == G.unit:
            continue
        mats = list(rho.matrices)
        mats[b] = mats[b].scale(Q.from_int(2))
        with pytest.raises(ValueError, match="module law fails") as exc:
            AlgebraModule(A, mats)
        s, c = module_witness(A, str(exc.value))
        assert s in A.generators
        assert (s, c) in ref.module_law_failures(A, mats)


def permutation_rep(field):
    """S3 permuting the coordinates of field^3."""
    mats = []
    for name in S3.names:
        p = [int(ch) for ch in name]
        mats.append(Matrix.from_columns(field, [vbasis(field, 3, p[j])
                                                for j in range(3)]))
    return Representation(S3, field, mats)


def test_no_map_is_equivariant_everywhere_but_at_a_non_generator():
    """Such a map cannot exist: a non-generator g is a product s1 ... sk of
    generators, and F rho(s) = rho'(s) F for each factor gives
    F rho(g) = rho'(g) F. So a map that fails at g fails at some
    generator too, which is the witness the generator check finds. Shown
    here on all 512 linear maps F_2^3 -> F_2^3 between the permutation
    module of S3 and itself."""
    rho = permutation_rep(F2)
    gens = S3.generators
    others = [g for g in range(S3.size) if g not in gens and g != S3.unit]
    assert others
    rejected = 0
    for bits in itertools.product((0, 1), repeat=9):
        m = Matrix.from_int_rows(F2, [bits[0:3], bits[3:6], bits[6:9]])
        pi = RepMorphism(rho, rho, m)
        failures = ref.equivariance_failures(pi)
        assert pi.is_equivariant() == (not failures)
        if failures:
            rejected += 1
            assert set(failures) & set(gens)
    assert 0 < rejected < 512


def test_no_subspace_is_moved_only_by_a_non_generator():
    """Such a subspace cannot exist: a subspace every generator keeps is
    kept by every product of generators, so by all of G. So a subspace
    some element moves is moved by some generator, which quotient_rep
    names. Shown here on all 16 subspaces of F_2^3 under the permutation
    module of S3."""
    rho = permutation_rep(F2)
    gens = S3.generators
    subspaces = {tuple(span_of(F2, vecs, 3).basis())
                 for k in range(4)
                 for vecs in itertools.combinations(
                     itertools.product((0, 1), repeat=3), k)}
    assert len(subspaces) == 16
    moved = 0
    for sub in subspaces:
        failures = ref.invariance_failures(rho, list(sub))
        if not failures:
            if 0 < len(sub) < 3:
                quotient_rep(rho, list(sub))
            continue
        moved += 1
        assert {g for g, _ in failures} & set(gens)
        with pytest.raises(ValueError, match="not invariant") as exc:
            quotient_rep(rho, list(sub))
        g, i = re.search(r": (\S+) moves spanning vector (\d+)",
                         str(exc.value)).groups()
        assert (S3.index_of(g), int(i)) in failures
        assert S3.index_of(g) in gens
    assert moved == 12
