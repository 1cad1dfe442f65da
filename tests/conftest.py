import itertools
import random
from fractions import Fraction

import pytest

from hopfdual.exact import FieldSpec, Matrix, inverse, solve
from hopfdual.monoids import FiniteMonoid
from hopfdual.reps import Representation


@pytest.fixture(scope="session")
def Q():
    return FieldSpec.rationals()


def is_canonical(field, x) -> bool:
    """x is in the field's canonical scalar form: over Q an int when
    integral and a Fraction with denominator > 1 otherwise, over F_p an int
    in [0, p)."""
    if field.p:
        return type(x) is int and 0 <= x < field.p
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def s3_catalogue(field):
    """Trivial, sign, standard and regular representations of S_3."""
    S3 = FiniteMonoid.symmetric(3)
    perms = sorted(itertools.permutations(range(3)))
    triv = Representation.trivial(S3, field)
    sign_mats = []
    for p in perms:
        inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                  if p[i] > p[j])
        sign_mats.append(Matrix(field, [[field.from_int((-1) ** inv)]]))
    sign = Representation(S3, field, sign_mats)
    v1 = (field.one, field.from_int(-1), field.zero)
    v2 = (field.zero, field.one, field.from_int(-1))
    B = Matrix.from_columns(field, [v1, v2])
    std_mats = []
    for p in perms:
        P = Matrix.from_columns(field, [
            tuple(field.one if i == p[j] else field.zero for i in range(3))
            for j in range(3)])
        std_mats.append(Matrix.from_columns(
            field, [solve(B, P.apply(v)) for v in (v1, v2)]))
    std = Representation(S3, field, std_mats)
    reg = Representation.regular(S3, field)
    return S3, triv, sign, std, reg


def random_invertible(field, n, rng, spread=3):
    while True:
        m = Matrix(field, [[field.from_int(rng.randint(-spread, spread))
                            for _ in range(n)] for _ in range(n)])
        if inverse(m) is not None:
            return m


def seeded_module(G, field, rng):
    """A conjugated block sum of regular and trivial pieces; a valid module
    by construction."""
    pieces = [Representation.regular(G, field)]
    if rng.random() < 0.7:
        pieces.append(Representation.trivial(G, field, rng.randint(1, 2)))
    if rng.random() < 0.3:
        pieces.append(Representation.regular(G, field))
    rho = pieces[0]
    for p in pieces[1:]:
        rho = Representation.direct_sum(rho, p)
    q = random_invertible(field, rho.dim, rng, spread=2)
    return rho.conjugate(q)


def random_invariant_subspace(rho, rng, attempts=12):
    """A proper nonzero invariant subspace: the cyclic submodule of a random
    vector when proper, else the invariants."""
    from hopfdual.exact import span_of
    from hopfdual.reps import invariants
    f = rho.field
    for _ in range(attempts):
        v = tuple(f.from_int(rng.randint(-2, 2)) for _ in range(rho.dim))
        sp = span_of(f, [rho.action(g).apply(v)
                         for g in range(rho.monoid.size)], rho.dim)
        if 0 < sp.dim < rho.dim:
            return sp.basis()
    inv = invariants(rho)
    if 0 < len(inv) < rho.dim:
        return inv
    return None


def invariant_factor_chains(n):
    """All invariant-factor decompositions d1 | d2 | ... | dk of order n."""
    if n == 1:
        return [()]
    out = []
    for d in range(2, n + 1):
        if n % d:
            continue
        for rest in _chains_dividing(n // d, d):
            out.append(rest + (d,))
    return out


def _chains_dividing(n, top):
    if n == 1:
        return [()]
    out = []
    for d in range(2, n + 1):
        if n % d or top % d:
            continue
        for rest in _chains_dividing(n // d, d):
            out.append(rest + (d,))
    return out


def smallest_prime_with_roots(exponent):
    """Smallest prime p with exponent | p - 1."""
    from hopfdual.exact import is_prime
    p = exponent + 1
    while True:
        if is_prime(p) and (p - 1) % exponent == 0:
            return p
        p += 1


def rng_for(name, index=0):
    return random.Random(f"{name}:{index}")
