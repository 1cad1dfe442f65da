"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime. Every comparison is exact; time bounds are asserted."""

import json
import math
import time
from pathlib import Path

from conftest import (invariant_factor_chains, random_invariant_subspace,
                      random_invertible, rng_for, s3_catalogue, seeded_module,
                      smallest_prime_with_roots)
from hopfdual import io
from hopfdual.bialgebra import (dualize, same_structure, verify_algebra,
                                verify_coalgebra)
from hopfdual.exact import FieldSpec, Matrix, is_prime
from hopfdual.lie import (LieAlgebra, TensorAlgebraOracle,
                          TruncatedEnveloping, coproduct_on_U,
                          dist_at_identity, divided_power_bialgebra,
                          graded_check, primitives_of_U)
from hopfdual.monoids import (FiniteAbelianGroup, FiniteMonoid, cartier_check,
                              double_dual_check, monoid_characters)
from hopfdual.reps import (RepMorphism, Representation,
                           check_invariant_exactness, decompose_rep_of_Z,
                           formal_matrix_integral, integral_system,
                           invariant_integral, invariants, quotient_rep,
                           reynolds, split_group_algebra)
from hopfdual.tannaka import (image_span_dimension, reconstruct_from_regular,
                              tensor_coproduct_recovery)

Q = FieldSpec.rationals()
CORPUS = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"


class _Criterion:
    def __init__(self, number, name, budget_s=None):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.started = time.perf_counter()

    def finish(self, ok=True):
        elapsed = time.perf_counter() - self.started
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {self.number}] {self.name}: {verdict} "
              f"({elapsed:.2f}s)")
        assert ok, f"criterion {self.number} failed"
        if self.budget is not None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded {self.budget}s " \
                f"({elapsed:.2f}s)"


def _corpus_bialgebra_files():
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if io.classify_file(doc) == "bialgebra":
            out.append(path)
    return out


def test_criterion_1_duality_involution():
    crit = _Criterion(1, "duality involution on the canned corpus",
                      budget_s=5.0)
    files = _corpus_bialgebra_files()
    assert len(files) >= 10, f"corpus holds only {len(files)} bialgebra files"
    for path in files:
        A = io.load_bialgebra(path)
        assert same_structure(dualize(dualize(A)), A,
                              compare_names=True).passed, path.name
        if A.has_algebra and verify_algebra(A).passed:
            assert verify_coalgebra(dualize(A)).passed, path.name
    crit.finish()


def test_criterion_2_cartier_duality():
    crit = _Criterion(2, "Cartier duality for abelian groups of order <= 16 "
                         "and S3", budget_s=10.0)
    groups = []
    for order in range(1, 17):
        for chain in invariant_factor_chains(order):
            groups.append(FiniteAbelianGroup(chain))
    assert len(groups) == 25
    for g in groups:
        assert cartier_check(g.to_monoid(), Q).passed, g.invariant_factors
    assert cartier_check(FiniteMonoid.symmetric(3), Q).passed
    for g in groups:
        p = smallest_prime_with_roots(g.exponent)
        assert double_dual_check(g, FieldSpec.prime(p)).passed, \
            (g.invariant_factors, p)
    crit.finish()


def _primes_above(d, count):
    out = []
    p = d + 1
    while len(out) < count:
        if is_prime(p):
            out.append(p)
        p += 1
    return out


def test_criterion_3_point_counts():
    crit = _Criterion(3, "point counts match gcd(d, p-1) and brute force")
    for d in range(1, 13):
        for p in _primes_above(d, 3):
            F = FieldSpec.prime(p)
            pts = monoid_characters(FiniteMonoid.cyclic(d), F)
            # independent oracle: enumerate d-th roots of unity in F_p
            roots = sum(1 for x in range(p) if pow(x, d, p) == 1)
            assert len(pts) == roots == math.gcd(d, p - 1), (d, p)
    crit.finish()


def test_criterion_4_reynolds_suite():
    crit = _Criterion(4, "Reynolds suite over Q plus the F_2 counterexample",
                      budget_s=30.0)
    groups = [FiniteMonoid.cyclic(2), FiniteMonoid.cyclic(3),
              FiniteMonoid.symmetric(3), FiniteMonoid.dihedral(4)]
    for G in groups:
        w = invariant_integral(G, Q)       # the closed form |G|^-1 sum g
        solved, unique = integral_system(G, Q)
        assert unique and solved == w.vector, "integral is not pinned"
        split = split_group_algebra(G, Q)  # RG = R x B with projection Theta
        assert split.report.passed
        rng = rng_for("criterion4", G.size)
        for _ in range(20):
            rho = seeded_module(G, Q, rng)
            r = reynolds(rho, w)           # verifies P*P = P, image = M^G
            assert len(r.invariant_basis) + len(r.complement_basis) == rho.dim
        for _ in range(10):
            rho = seeded_module(G, Q, rng)
            sub = random_invariant_subspace(rho, rng)
            assert sub is not None
            quot, proj, _ = quotient_rep(rho, sub)
            assert check_invariant_exactness(RepMorphism(rho, quot, proj))
    # the unipotent counterexample over F_2
    F2 = FieldSpec.prime(2)
    Z2 = FiniteMonoid.cyclic(2)
    rho = Representation(Z2, F2, [Matrix.identity(F2, 2),
                                  Matrix.from_int_rows(F2, [[1, 1], [0, 1]])])
    quot, proj, _ = quotient_rep(rho, invariants(rho))
    assert not check_invariant_exactness(RepMorphism(rho, quot, proj))
    crit.finish()


def test_criterion_5_formal_matrix_integral():
    crit = _Criterion(5, "formal-matrix integral absorbs at n=2, order 3")
    rep = formal_matrix_integral(2, 3, Q)
    assert rep.passed
    crit.finish()


def test_criterion_6_pbw():
    crit = _Criterion(6, "PBW truncations: dimensions, oracle, primitives, "
                         "coproduct", budget_s=60.0)
    algebras = [LieAlgebra.abelian(Q, 1), LieAlgebra.abelian(Q, 2),
                LieAlgebra.abelian(Q, 3), LieAlgebra.heisenberg(Q),
                LieAlgebra.sl2(Q)]
    N = 4
    for L in algebras:
        U = TruncatedEnveloping(L, N)
        for n in range(N + 1):
            assert len(U.monomials_of_degree(n)) \
                == math.comb(L.dim + n - 1, n)
        assert graded_check(U).passed
        oracle = TensorAlgebraOracle(L, N)
        for a in range(U.dim):
            for b in range(U.dim):
                if U.degree(a) + U.degree(b) > N:
                    continue
                assert oracle.check_product(U, a, b), \
                    (U.names[a], U.names[b])
        assert len(primitives_of_U(U)) == L.dim
        _, corep = coproduct_on_U(U)   # includes in-range multiplicativity
        assert corep.passed
    crit.finish()


def test_criterion_7_divided_powers():
    crit = _Criterion(7, "divided powers against big-integer binomials up "
                         "to degree 8")
    N = 8
    A, rep = divided_power_bialgebra(N, Q)
    assert rep.passed
    for i in range(N + 1):
        for j in range(N + 1 - i):
            got = A.mul_vec(A.basis_vec(i), A.basis_vec(j))
            want = [Q.zero] * (N + 1)
            want[i + j] = Q.from_int(math.comb(i + j, i))
            assert got == tuple(want), (i, j)
    power = A.basis_vec(0)
    for n in range(1, N + 1):
        power = A.mul_vec(power, A.basis_vec(1))
        want = [Q.zero] * (N + 1)
        want[n] = Q.from_int(math.factorial(n))
        assert power == tuple(want), n
    D, drep = dist_at_identity("ga", N, Q)
    assert drep.passed
    assert same_structure(D, A).passed
    crit.finish()


def test_criterion_8_tannaka():
    crit = _Criterion(8, "reconstruction from regular modules and tensor "
                         "recovery")
    for n in range(1, 9):
        assert reconstruct_from_regular(FiniteMonoid.cyclic(n), Q).passed, n
    assert reconstruct_from_regular(FiniteMonoid.symmetric(3), Q).passed
    assert reconstruct_from_regular(FiniteMonoid.dihedral(4), Q).passed
    S3, triv, sign, std, reg = s3_catalogue(Q)
    assert image_span_dimension(std) == 4
    assert tensor_coproduct_recovery(S3, [triv, sign, std, reg]).passed
    crit.finish()


def test_criterion_9_zrep_decomposition():
    crit = _Criterion(9, "primary decomposition of seeded matrices over F_5")
    F5 = FieldSpec.prime(5)
    rng = rng_for("criterion9")
    for i in range(20):
        n = rng.randint(1, 6)
        m = random_invertible(F5, n, rng, spread=4)
        dec = decompose_rep_of_Z(m)
        assert dec.verify(m), f"matrix {i} (size {n})"
        total = sum((len(b.poly) - 1) * b.exponent for b in dec.blocks)
        assert total == n
    crit.finish()
