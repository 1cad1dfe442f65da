"""The certified axiom checks against the sweeps over every basis tuple in
``reference_kernel``: equal reports on every corpus bialgebra and its dual,
and on single-constant corruptions of the group and function algebras of
D4 and the group algebra of S4, including corruptions away from the
generators; Light's associativity test of a monoid table against the full
loop; ``check_morphism`` on perturbed maps; and ``annihilator_quotient``
against the construction from dense products, with and without the module
check a certified module lets it skip."""

import random
from pathlib import Path

import pytest

import reference_kernel as ref
from conftest import s3_catalogue, seeded_module
from hopfdual import io, tannaka
from hopfdual.bialgebra import (BialgebraMorphism, FinBialgebra, check_hopf,
                                check_morphism, dualize, same_structure,
                                verify_algebra, verify_bialgebra,
                                verify_coalgebra, verify_compatibility)
from hopfdual.exact import FieldSpec, Matrix, kernel_basis
from hopfdual.monoids import FiniteMonoid, function_bialgebra, monoid_algebra
from hopfdual.reps import AlgebraModule, Representation, rep_to_module
from hopfdual.tannaka import annihilator_quotient

Q = FieldSpec.rationals()
F3 = FieldSpec.prime(3)
F7 = FieldSpec.prime(7)
F101 = FieldSpec.prime(101)
F_BIG = FieldSpec.prime(2147483647)
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"
S3 = FiniteMonoid.symmetric(3)
D4 = FiniteMonoid.dihedral(4)
S4 = FiniteMonoid.symmetric(4)


def fresh(A, **parts):
    """A copy of A with nothing cached, some of its structure replaced."""
    structure = dict(mult=A.mult, unit=A.unit, comult=A.comult,
                     counit=A.counit, antipode=A.antipode)
    structure.update(parts)
    return FinBialgebra(A.field, A.dim, A.basis, **structure)


def assert_reports_agree(A) -> bool:
    """Every certified check A's structure allows reports as the full
    sweep does; each suite runs on its own fresh copy, and verify_bialgebra
    runs the three on one. True if the full sweeps pass."""
    suites = []
    if A.has_algebra:
        suites.append((verify_algebra, ref.verify_algebra_all))
    if A.has_coalgebra:
        suites.append((verify_coalgebra, ref.verify_coalgebra_all))
    if A.has_algebra and A.has_coalgebra:
        suites.append((verify_compatibility, ref.verify_compatibility_all))
    full = {}
    for fast, slow in suites:
        full[fast] = slow(A).to_dict()
        assert fast(fresh(A)).to_dict() == full[fast], fast.__name__
    # the cached premises: the algebra laws of A, and of A* (the coalgebra
    # laws of A)
    if A.has_algebra:
        assert (fresh(A).algebra_laws
                == (full[verify_algebra]["verdict"] == "pass"))
    if A.has_coalgebra:
        assert (fresh(A).dual.algebra_laws
                == (full[verify_coalgebra]["verdict"] == "pass"))
    if A.has_algebra and A.has_coalgebra:
        got = verify_bialgebra(fresh(A)).to_dict()
        assert got["checks"] == [c for want in full.values()
                                 for c in want["checks"]]
        if A.has_antipode:
            assert (check_hopf(fresh(A)).to_dict()
                    == ref.check_hopf_all(A).to_dict())
    return all(want["verdict"] == "pass" for want in full.values())


def corpus_bialgebras():
    for path in sorted(CORPUS.glob("*.json")):
        if io.classify_file(io._load_json(path)) == "bialgebra":
            yield path


@pytest.mark.parametrize("path", list(corpus_bialgebras()),
                         ids=lambda p: p.stem)
def test_certified_reports_match_full_sweeps_on_the_corpus(path):
    A = io.load_bialgebra(path)
    assert_reports_agree(A)
    assert_reports_agree(dualize(A))


def corruptions(A, rng, targeted, count):
    """Copies of A with one constant changed: each of ``targeted`` (part,
    key) and ``count`` seeded random ones. A key of the product or
    coproduct tensor may be absent (a constant appears), and a change may
    cancel a constant (it disappears)."""
    f, n = A.field, A.dim
    picks = list(targeted)
    for _ in range(count):
        part = rng.choice(("mult", "comult", "unit", "counit"))
        if part in ("unit", "counit"):
            picks.append((part, rng.randrange(n)))
        elif rng.random() < 0.5:
            picks.append((part, rng.choice(sorted(getattr(A, part)))))
        else:
            picks.append((part, tuple(rng.randrange(n) for _ in range(3))))
    for part, key in picks:
        step = f.from_int(rng.choice((1, 2, -1)))
        if part in ("unit", "counit"):
            vec = list(getattr(A, part))
            vec[key] = f.add(vec[key], step)
            yield f"{part}[{key}]", fresh(A, **{part: vec})
        else:
            tensor = dict(getattr(A, part))
            tensor[key] = f.add(tensor.get(key, f.zero), step)
            yield f"{part}{key}", fresh(A, **{part: tensor})


def targets(G, A):
    """Corruptions away from the greedy generators of G: a product and a
    coproduct of non-generators, and the unit and counit there."""
    a, b, c = [g for g in range(G.size) if g not in G.generators
               and g != G.unit][:3]
    ab = G.table[a][b]
    return [("mult", (a, b, ab)), ("mult", (a, b, c)), ("comult", (c, c, c)),
            ("comult", (ab, a, b)), ("unit", a), ("counit", b)]


@pytest.mark.parametrize("field", (Q, F3), ids=("Q", "F3"))
@pytest.mark.parametrize("build", (monoid_algebra, function_bialgebra),
                         ids=("group", "function"))
def test_corrupted_d4_algebras_fail_as_the_full_sweeps_do(build, field):
    A = build(D4, field)
    rng = random.Random(f"corrupt:{build.__name__}:{field.p}")
    seen = failed = 0
    for label, B in corruptions(A, rng, targets(D4, A), 24):
        seen += 1
        failed += not assert_reports_agree(B)
    assert seen == 30 and failed >= 25


def test_corrupted_s4_group_algebra_fails_as_the_full_sweeps_do():
    A = monoid_algebra(S4, Q)
    rng = random.Random("corrupt:s4")
    for label, B in corruptions(A, rng, targets(S4, A)[:3], 1):
        assert not assert_reports_agree(B), label


def truncated_polynomials(n, **changes):
    """k[x]/(x^n) over Q on the basis 1, x, ..., x^(n-1), with every x^k
    for k >= 1 grouplike and the tensor entries in ``changes`` set: one
    generator, x, and more than 4 n^2 associativity triples for n >= 7."""
    mult = {(i, j, i + j): 1 for i in range(n) for j in range(n) if i + j < n}
    comult = {(k, k, k): 1 for k in range(n)}
    for part, entries in changes.items():
        {"mult": mult, "comult": comult}[part].update(entries)
    return FinBialgebra(Q, n, [f"x{k}" for k in range(n)], mult,
                        [1] + [0] * (n - 1), comult, [1] * n)


def test_certificate_on_a_single_generator():
    # (x^2 x) = 2 x^3 = 2 (x x^2) breaks associativity at triples whose
    # first element is the generator x as well as elsewhere
    A = truncated_polynomials(8, mult={(2, 1, 3): 2})
    assert fresh(A).generators == (1,)
    assert not assert_reports_agree(A)


def test_compatibility_certificate_needs_comult_of_one():
    # B = k[x]/(x^8) with Delta(1) = 1 (x) 1 + x^7 (x) x^7: Delta(x y) =
    # Delta(x) Delta(y) for every y, since x x^7 = 0, but not Delta(1 1).
    # So the sweep over the generator x of B certifies nothing, and neither
    # does the one on B for A = B*, whose counit 1_B* is not multiplicative
    B = truncated_polynomials(8, comult={(0, 7, 7): 1})
    assert fresh(B).algebra_laws and fresh(B).generators == (1,)
    for A in (B, dualize(B)):
        got = verify_compatibility(fresh(A)).to_dict()
        assert got == ref.verify_compatibility_all(A).to_dict()
        first = got["checks"][0]
        assert first["name"] == "comult multiplicative"
        assert first["status"] == "fail"


def test_function_algebra_sweeps_skip_finding_its_generators():
    # k^G has |G| - 1 greedy generators; its associativity sweep visits
    # 2|G|^2 - |G| triples, which finding them would cost more than
    A = fresh(function_bialgebra(S4, Q))
    assert verify_bialgebra(A).passed
    assert "generators" not in A.__dict__
    assert "generators" in A.dual.__dict__ and len(A.dual.generators) == 3


def test_dual_is_dualize_and_involutive():
    A = fresh(monoid_algebra(D4, F7))
    assert same_structure(A.dual, dualize(A), compare_names=True).passed
    assert A.dual.dual is A
    assert monoid_algebra(D4, Q).algebra_laws


# -- Light's test -------------------------------------------------------------

def table_error(names, table, unit):
    try:
        FiniteMonoid(names, table, unit)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("G", (S3, D4, FiniteMonoid.cyclic(6),
                               FiniteMonoid.direct_product(
                                   FiniteMonoid.cyclic(2),
                                   FiniteMonoid.bool_and())),
                         ids=("S3", "D4", "Z6", "Z2xbool"))
def test_light_test_names_the_full_loops_first_failure(G):
    n = G.size
    tables = []
    for x in range(n):
        for y in range(n):
            for v in range(n):
                if v != G.table[x][y]:
                    table = [list(row) for row in G.table]
                    table[x][y] = v
                    tables.append(table)
    rng = random.Random(f"light:{n}")
    for _ in range(100):
        table = [list(row) for row in G.table]
        for _ in range(2):
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        tables.append(table)
    failing = 0
    for table in tables:
        want = ref.monoid_table_error(G.names, table, G.unit)
        assert table_error(G.names, table, G.unit) == want
        failing += want is not None and want.startswith("not associative")
    assert failing > len(tables) // 4


# -- check_morphism -----------------------------------------------------------

def perturbed(F, rng, count):
    """F and ``count`` copies with one entry moved by one."""
    f = F.field
    yield F
    for _ in range(count):
        rows = [list(row) for row in F.entries]
        i, j = rng.randrange(F.rows), rng.randrange(F.cols)
        rows[i][j] = f.add(rows[i][j], f.one)
        yield Matrix(f, rows)


@pytest.mark.parametrize("field", (Q, F7), ids=("Q", "F7"))
def test_check_morphism_matches_the_full_sweep_on_perturbed_maps(field):
    rng = random.Random(f"morphism:{field.p}")
    A = monoid_algebra(D4, field)
    n = A.dim
    # the sign of a reflection is a character of D4
    sign = Matrix(field, [[field.from_int(-1 if i == j >= 4 else int(i == j))
                           for j in range(n)] for i in range(n)])
    # an algebra map on the rotations, not on the reflections, which it
    # doubles: only the pairs (x, y) with x a reflection fail
    double = Matrix(field, [[field.from_int(2 if i == j >= 4 else int(i == j))
                             for j in range(n)] for i in range(n)])
    # a map that does not fix the unit
    shift = Matrix(field, [[field.one if i == (j + 1) % n else field.zero
                            for j in range(n)] for i in range(n)])
    broken = fresh(A, mult={**A.mult, (5, 6, 0): field.one})
    for source, target in ((A, A), (fresh(A), fresh(A)), (broken, A),
                           (A, broken)):
        for base in (Matrix.identity(field, n), sign, double, shift):
            for F in perturbed(base, rng, 6):
                for kind in ("algebra", "bialgebra"):
                    m = BialgebraMorphism(source, target, F)
                    assert (check_morphism(m, kind).to_dict()
                            == ref.check_morphism_all(m, kind).to_dict())


def test_check_morphism_onto_the_reconstructed_algebra():
    rng = random.Random("morphism:quotient")
    _, _, _, std, _ = s3_catalogue(Q)
    X = rep_to_module(std)
    res = annihilator_quotient(X.algebra, X)
    for F in perturbed(res.quotient_map, rng, 8):
        m = BialgebraMorphism(X.algebra, res.algebra, F)
        assert (check_morphism(m, "algebra").to_dict()
                == ref.check_morphism_all(m, "algebra").to_dict())


# -- annihilator_quotient -----------------------------------------------------

def quotient_modules():
    for name in ("rep_s3_regular", "rep_s3_sign", "rep_s3_standard",
                 "rep_s3_trivial", "rep_d4_regular", "rep_z2_f2_unipotent"):
        yield name, io.load_representation(CORPUS / f"{name}.json")
    for field in (Q, F7, F101, F_BIG):
        rng = random.Random(f"quotient:{field.p}")
        for G in (S3, D4):
            yield f"conjugated {G!r} {field.describe()}", seeded_module(
                G, field, rng)
    _, _, _, std, reg = s3_catalogue(Q)
    yield "std (x) regular", Representation.tensor(std, reg)
    # monoids that are not groups: e_0 and e_1 act independently
    BOOL = FiniteMonoid.bool_and()
    yield "regular bool_and", Representation.regular(BOOL, Q)
    yield "regular bool_and x Z2", Representation.regular(
        FiniteMonoid.direct_product(BOOL, FiniteMonoid.cyclic(2)), Q)
    # a nonzero annihilator: the 6 elements of S3 span a 4-dimensional
    # End of the standard module over F_7
    yield "std F_7", s3_catalogue(F7)[3]


@pytest.mark.parametrize("name,rho", list(quotient_modules()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_annihilator_quotient_matches_dense_products(name, rho):
    X = rep_to_module(rho)
    res = annihilator_quotient(X.algebra, X)
    mult, unit, names, qmap, basis = ref.annihilator_quotient_dense(
        X.algebra, X)
    assert res.algebra.mult == mult
    assert res.algebra.unit == unit
    assert res.algebra.basis == names
    assert res.quotient_map == qmap
    assert res.faithful_action.matrices == tuple(basis)
    assert res.algebra.algebra_laws
    assert ref.verify_algebra_all(res.algebra).passed


@pytest.mark.parametrize("name,rho", list(quotient_modules()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_annihilator_is_the_kernel_of_the_quotient_map(name, rho):
    # faithful by construction: what the quotient map kills acts as 0
    X = rep_to_module(rho)
    res = annihilator_quotient(X.algebra, X)
    ann = kernel_basis(res.quotient_map)
    assert len(ann) == X.algebra.dim - res.algebra.dim
    for v in ann:
        assert X.act(v).is_zero()


def test_annihilator_quotient_refuses_a_non_module():
    # g acts as a nilpotent shift M, and M^2 is outside span(I, M): the
    # product read at the pivot entries is 0, which A_X's check refutes
    A = monoid_algebra(FiniteMonoid.cyclic(2), Q)
    shift = Matrix(Q, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    X = AlgebraModule(A, [Matrix.identity(Q, 3), shift], validate=False)
    with pytest.raises(ValueError,
                       match=r"module law fails at \(\[g\],\[g\]\)"):
        annihilator_quotient(A, X)


def test_certificate_comes_from_validation_or_the_regular_representation():
    rho = seeded_module(S3, Q, random.Random("certificate"))
    assert not rho.certified and not rep_to_module(rho).certified
    checked = Representation(S3, Q, rho.matrices)
    assert checked.certified and rep_to_module(checked).certified
    assert Representation.regular(S3, Q).certified
    assert not Representation.trivial(S3, Q).certified
    X = rep_to_module(rho)
    assert AlgebraModule(X.algebra, X.matrices).certified
    zero = AlgebraModule(X.algebra, [Matrix.zero(Q, 0, 0)] * 6,
                         validate=False)
    res = annihilator_quotient(X.algebra, zero)
    assert res.degenerate and res.faithful_action.certified


def certified_representations():
    for path in sorted(CORPUS.glob("monoid_*.json")):
        yield path.stem, Representation.regular(io.load_monoid(path), Q)
    for field in (Q, F7):
        rng = random.Random(f"certified:{field.p}")
        for G in (S3, D4):
            rho = seeded_module(G, field, rng)
            yield (f"conjugated {G!r} {field.describe()}",
                   Representation(G, field, rho.matrices))


@pytest.mark.parametrize("name,rho", list(certified_representations()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_annihilator_quotient_skips_the_check_on_a_certified_module(
        name, rho, monkeypatch):
    validated = []

    def spy(algebra, matrices, validate=True):
        validated.append(validate)
        return AlgebraModule(algebra, matrices, validate=validate)
    monkeypatch.setattr(tannaka, "AlgebraModule", spy)
    X = rep_to_module(rho)
    assert X.certified
    fast = annihilator_quotient(X.algebra, X)
    assert validated == [False]
    slow = annihilator_quotient(
        X.algebra, AlgebraModule(X.algebra, X.matrices, validate=False))
    assert validated == [False, True]
    assert fast.algebra.basis == slow.algebra.basis
    assert fast.algebra.mult == slow.algebra.mult
    assert fast.algebra.unit == slow.algebra.unit
    assert fast.quotient_map == slow.quotient_map
    assert fast.faithful_action.matrices == slow.faithful_action.matrices
    for res in (fast, slow):
        assert res.faithful_action.certified and res.algebra.algebra_laws
        assert not res.degenerate
