"""The one algebra-map sweep against the loops it replaced.

``bialgebra.multiplicativity_failures`` checks F(xy) = F(x)F(y) for every
linear map the library tests: Delta: A -> A (x) A, epsilon: A -> k (x) k
and each map into an algebra B, as a map into k (x) B. Each test below
corrupts one map of one shape and asserts that the sweep names the same
witnesses, in the same order, as the matching loop of
``reference_kernel``."""

import math
import random

import pytest

import reference_kernel as ref
from hopfdual.bialgebra import (FinBialgebra, algebra_map_failures,
                                ground_product, into_ground,
                                multiplicativity_failures, nonzero)
from hopfdual.exact import FieldSpec, Matrix
from hopfdual.lie import (LieAlgebra, TruncatedEnveloping, _line_comparison,
                          dist_at_identity, divided_power_bialgebra,
                          lie_morphism_functor)
from hopfdual.monoids import (FiniteMonoid, function_bialgebra,
                              monoid_algebra, points)
from hopfdual.report import Report

Q = FieldSpec.rationals()
F7 = FieldSpec.prime(7)
D4 = FiniteMonoid.dihedral(4)
S3 = FiniteMonoid.symmetric(3)


def every_pair(n):
    return [(a, b) for a in range(n) for b in range(n)]


def fresh(A, **parts):
    """A copy of A with nothing cached, some of its structure replaced."""
    structure = dict(mult=A.mult, unit=A.unit, comult=A.comult,
                     counit=A.counit, antipode=A.antipode)
    structure.update(parts)
    return FinBialgebra(A.field, A.dim, A.basis, **structure)


def corrupted(deltas, rng, keys, count):
    """``deltas`` and ``count`` copies with one coefficient moved: of
    Delta(e_k), at a key ``keys(k)`` picks, which may be absent."""
    yield deltas
    for _ in range(count):
        copy = [dict(d) for d in deltas]
        k = rng.randrange(1, len(copy))
        key = keys(k)
        copy[k][key] = copy[k].get(key, 0) + rng.choice((1, 2, -1))
        if not copy[k][key]:
            del copy[k][key]
        yield copy


@pytest.mark.parametrize("build", (monoid_algebra, function_bialgebra),
                         ids=("kD4", "k^D4"))
def test_comult_sweep_matches_the_old_loop_on_d4(build):
    A = build(D4, Q)
    rng = random.Random(f"comult:{build.__name__}")
    mul, n = A.mul_basis, A.dim
    failing = 0
    for deltas in corrupted(A.deltas, rng, lambda k: (rng.randrange(n),
                                                      rng.randrange(n)), 12):
        got = list(multiplicativity_failures(Q, deltas, mul, mul, mul,
                                             A.basis, every_pair(n)))
        assert got == list(ref.comult_multiplicativity_failures(
            Q, deltas, mul, A.basis, every_pair(n)))
        failing += bool(got)
    assert failing >= 10


def test_comult_sweep_matches_the_old_loop_on_sl2_at_order_3():
    U = TruncatedEnveloping(LieAlgebra.sl2(Q), 3)
    rng = random.Random("comult:sl2")
    pairs = [(a, b) for a, b in every_pair(U.dim)
             if U.degree(a) + U.degree(b) <= U.order]

    def key(k):
        # a term of degree at most deg e_k keeps every product in range
        i = rng.choice([t for t in range(U.dim)
                        if U.degree(t) <= U.degree(k)])
        return i, rng.choice([t for t in range(U.dim)
                              if U.degree(i) + U.degree(t) <= U.degree(k)])
    deltas = [U.comult_monomial(k) for k in range(U.dim)]
    mul = U.product_monomials
    failing = 0
    for tensor in corrupted(deltas, rng, key, 8):
        got = list(multiplicativity_failures(Q, tensor, mul, mul, mul,
                                             U.names, pairs))
        assert got == list(ref.comult_multiplicativity_failures(
            Q, tensor, mul, U.names, pairs))
        failing += bool(got)
    assert failing >= 6


def perturbed(F, rng, count):
    """F and ``count`` copies with one entry moved by one."""
    f = F.field
    yield F
    for _ in range(count):
        rows = [list(row) for row in F.entries]
        i, j = rng.randrange(F.rows), rng.randrange(F.cols)
        rows[i][j] = f.add(rows[i][j], f.one)
        yield Matrix(f, rows)


def inversions(word) -> int:
    return sum(a > b for i, a in enumerate(word) for b in word[i + 1:])


def s3_sign():
    # g -> sign(g) g is an automorphism of kS3
    return Matrix(Q, [[(-1) ** inversions(S3.names[j]) if i == j else 0
                       for j in range(6)] for i in range(6)])


def z3_inverse():
    # g -> g^-1 is an automorphism of kZ3; the unit is e_1, so e_0 e_0 is
    # not e_0 here as it is in k and in kS3
    return Matrix(Q, [[int(i == 2 - j) for j in range(3)] for i in range(3)])


Z3_UNIT_SECOND = FiniteMonoid(("g", "1", "g2"),
                              [[2, 0, 1], [0, 1, 2], [1, 2, 0]], 1)


@pytest.mark.parametrize("G,automorphism", ((S3, s3_sign),
                                            (Z3_UNIT_SECOND, z3_inverse)),
                         ids=("kS3", "kZ3"))
def test_morphism_sweep_matches_the_dense_compare(G, automorphism):
    A = monoid_algebra(G, Q)
    n = A.dim
    rng = random.Random(f"morphism:{G.names}")
    failing = 0
    for base in (Matrix.identity(Q, n), automorphism()):
        for F in perturbed(base, rng, 8):
            images = into_ground([nonzero(Q, F.column(k))
                                  for k in range(n)])
            for source, target in ((A, A), (fresh(A), fresh(A))):
                unit_kept = F.apply(source.unit) == target.unit
                got = algebra_map_failures(source, images, unit_kept, target)
                assert got == list(ref.morphism_multiplicativity_failures(
                    source, target, F, range(n)))
            failing += bool(got)
    assert failing >= 10


def test_counit_sweep_matches_the_product_tensor_read():
    A = monoid_algebra(D4, Q)
    rng = random.Random("counit:d4")
    failing = 0
    for trial in range(12):
        counit = list(A.counit)
        # a change at the unit breaks epsilon(1) = 1 and so the certificate
        k = A.unit.index(1) if trial < 2 else rng.randrange(A.dim)
        counit[k] += rng.choice((1, 2, -1))
        for B in (fresh(A, counit=counit), fresh(A, counit=A.counit)):
            images = [{(0, 0): e} if e else {} for e in B.counit]
            got = algebra_map_failures(B, images,
                                       B.counit_vec(B.unit) == Q.one)
            assert got == list(ref.counit_multiplicativity_failures(B))
            failing += bool(got)
    assert failing == 12


def test_counit_certificate_needs_epsilon_of_one():
    # k{z, 1} with z z = z: epsilon = (0, 2) is multiplicative on the
    # generator pairs (z, y) but not at (1, 1), which the unit premise covers
    A = monoid_algebra(FiniteMonoid(("z", "1"), [[0, 0], [0, 1]], 1), Q)
    assert A.generators == (0,)
    got = algebra_map_failures(A, [{}, {(0, 0): 2}], False)
    assert got == list(ref.counit_multiplicativity_failures(
        fresh(A, counit=[0, 2]))) == ["(1,1)"]


def test_extension_sweep_matches_the_image_of_each_product():
    sl2 = LieAlgebra.sl2(Q)
    order = 3
    F, rep = lie_morphism_functor(Matrix.identity(Q, 3), sl2, sl2, order)
    assert rep.passed
    Us, Ut = TruncatedEnveloping(sl2, order), TruncatedEnveloping(sl2, order)
    rng = random.Random("extension:sl2")
    pairs = [(a, b) for a, b in every_pair(Us.dim)
             if Us.degree(a) + Us.degree(b) <= order]
    failing = 0
    for trial in range(9):
        images = [nonzero(Q, F.column(k)) for k in range(Us.dim)]
        if trial:
            # a wrong image within e_k's filtration degree
            k = rng.randrange(1, Us.dim)
            t = rng.choice([t for t in range(Ut.dim)
                            if Ut.degree(t) <= Us.degree(k)])
            images[k][t] = images[k].get(t, 0) + 1
            if not images[k][t]:
                del images[k][t]
        got = list(multiplicativity_failures(
            Q, into_ground(images), Us.product_monomials, ground_product,
            Ut.product_monomials, Us.names, pairs))
        assert got == list(ref.extension_multiplicativity_failures(
            Us, Ut, images, order))
        failing += bool(got)
    assert failing >= 7


def line_witnesses(U, A, vecs):
    rep = Report("line")
    _line_comparison(rep, U, A, vecs, "v")
    return [c.witness for c in rep.checks
            if c.name == "x^n -> v intertwines products" and not c.ok]


@pytest.mark.parametrize("target", ("divided powers", "gm"))
def test_line_comparison_matches_the_vector_products(target):
    N = 5
    U = TruncatedEnveloping(LieAlgebra.abelian(Q, 1, ("x",)), N)
    if target == "gm":
        A, _ = dist_at_identity("gm", N, Q)
        vecs = [A.basis_vec(0)]
        for n in range(1, N + 1):
            vecs.append(A.mul_vec(vecs[-1], A.basis_vec(1)))
    else:
        A, _ = divided_power_bialgebra(N, Q)
        vecs = [tuple(math.factorial(n) * x
                      for x in A.basis_vec(n)) for n in range(N + 1)]
    assert line_witnesses(U, A, vecs) == []
    for n in range(N + 1):
        # one wrong vecs[n]
        wrong = list(vecs)
        wrong[n] = tuple(x + (t == (n + 1) % (N + 1))
                         for t, x in enumerate(vecs[n]))
        got = line_witnesses(U, A, wrong)
        assert got == list(ref.line_product_failures(A, wrong, N))
        assert got


def test_point_sweep_matches_the_per_scalar_loop_over_f7():
    A = monoid_algebra(FiniteMonoid.cyclic(6), F7)
    rng = random.Random("points:z6")
    found = points(A)
    assert found
    candidates = list(found) + [tuple(rng.randrange(7) for _ in range(A.dim))
                                for _ in range(12)]
    failing = 0
    for phi in candidates:
        images = [{(0, 0): v} if v else {} for v in phi]
        got = list(multiplicativity_failures(
            F7, images, A.mul_basis, ground_product, ground_product, A.basis,
            every_pair(A.dim)))
        assert got == list(ref.point_multiplicativity_failures(A, phi))
        failing += bool(got)
    assert failing == 12
