#!/usr/bin/env python3
"""Regenerate the canned corpus shipped in src/hopfdual/corpus.

Deterministic: every file is written in canonical form, so rerunning this
script leaves the tree unchanged.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hopfdual import io  # noqa: E402
from hopfdual.bialgebra import FinBialgebra  # noqa: E402
from hopfdual.exact import FieldSpec, Matrix, solve  # noqa: E402
from hopfdual.lie import LieAlgebra, divided_power_bialgebra  # noqa: E402
from hopfdual.monoids import (FiniteMonoid, function_bialgebra,  # noqa: E402
                              monoid_algebra)
from hopfdual.reps import Representation  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "src" / "hopfdual" / "corpus"
Q = FieldSpec.rationals()


def write(name, text):
    (OUT / name).write_text(text, encoding="utf-8")
    print(f"wrote {name}")


def bialgebra_file(name, A):
    write(name, io.dump_canonical(io.bialgebra_to_json(A)))


def monoid_file(name, G):
    write(name, io.dump_canonical(io.monoid_to_json(G)))


def rep_file(name, rho, monoid_ref=None):
    doc = io.representation_to_json(rho)
    if monoid_ref is not None:
        doc["monoid"] = monoid_ref
    write(name, io.dump_canonical(doc))


def s3_catalogue():
    S3 = FiniteMonoid.symmetric(3)
    triv = Representation.trivial(S3, Q)
    sign_mats = []
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    for p in perms:
        inversions = sum(1 for i in range(3) for j in range(i + 1, 3)
                         if p[i] > p[j])
        sign_mats.append(Matrix(Q, [[Q.from_int((-1) ** inversions)]]))
    sign = Representation(S3, Q, sign_mats)
    v1 = (Q.one, Q.from_int(-1), Q.zero)
    v2 = (Q.zero, Q.one, Q.from_int(-1))
    B = Matrix.from_columns(Q, [v1, v2])
    std_mats = []
    for p in perms:
        P = Matrix.from_columns(Q, [
            tuple(Q.one if i == p[j] else Q.zero for i in range(3))
            for j in range(3)])
        cols = [solve(B, P.apply(v)) for v in (v1, v2)]
        std_mats.append(Matrix.from_columns(Q, cols))
    std = Representation(S3, Q, std_mats)
    reg = Representation.regular(S3, Q)
    return S3, triv, sign, std, reg


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    monoids = {
        "monoid_z2": FiniteMonoid.cyclic(2),
        "monoid_z3": FiniteMonoid.cyclic(3),
        "monoid_z4": FiniteMonoid.cyclic(4),
        "monoid_z5": FiniteMonoid.cyclic(5),
        "monoid_z6": FiniteMonoid.cyclic(6),
        "monoid_z7": FiniteMonoid.cyclic(7),
        "monoid_z8": FiniteMonoid.cyclic(8),
        "monoid_z2xz2": FiniteMonoid.direct_product(FiniteMonoid.cyclic(2),
                                                    FiniteMonoid.cyclic(2)),
        "monoid_s3": FiniteMonoid.symmetric(3),
        "monoid_d4": FiniteMonoid.dihedral(4),
        "monoid_bool": FiniteMonoid.bool_and(),
    }
    for name, G in monoids.items():
        monoid_file(f"{name}.json", G)

    # group algebras over Q
    for name, G in monoids.items():
        if name == "monoid_bool":
            continue
        bialgebra_file(f"rg_{name.removeprefix('monoid_')}.json",
                       monoid_algebra(G, Q))
    bialgebra_file("rg_bool.json", monoid_algebra(monoids["monoid_bool"], Q))
    bialgebra_file("rg_z4_f5.json",
                   monoid_algebra(monoids["monoid_z4"], FieldSpec.prime(5)))

    # function algebras
    for short in ("z2", "z4", "s3", "d4"):
        bialgebra_file(f"fn_{short}.json",
                       function_bialgebra(monoids[f"monoid_{short}"], Q))

    # divided-power truncations (honest algebra + coalgebra; the coproduct
    # is multiplicative only inside the degree window)
    for order in (4, 8):
        A, _ = divided_power_bialgebra(order, Q)
        bialgebra_file(f"divided_power_{order}.json", A)

    # Lie algebras
    write("lie_sl2.json", io.dump_canonical(io.lie_to_json(
        LieAlgebra.sl2(Q))))
    write("lie_heisenberg.json", io.dump_canonical(io.lie_to_json(
        LieAlgebra.heisenberg(Q))))
    for d in (1, 2, 3):
        write(f"lie_abelian{d}.json", io.dump_canonical(io.lie_to_json(
            LieAlgebra.abelian(Q, d))))
    bad = LieAlgebra(Q, ("e", "f", "h"), {
        (0, 1): {2: Q.one, 0: Q.one},          # [e,f] = h + e: breaks Jacobi
        (0, 2): {0: Q.from_int(-2)},
        (1, 2): {1: Q.from_int(2)},
    })
    write("lie_sl2_bad.json", io.dump_canonical(io.lie_to_json(bad)))

    # S3 representation catalogue (referencing the monoid file)
    S3, triv, sign, std, reg = s3_catalogue()
    rep_file("rep_s3_trivial.json", triv, monoid_ref="monoid_s3")
    rep_file("rep_s3_sign.json", sign, monoid_ref="monoid_s3")
    rep_file("rep_s3_standard.json", std, monoid_ref="monoid_s3")
    rep_file("rep_s3_regular.json", reg, monoid_ref="monoid_s3")
    rep_file("rep_d4_regular.json",
             Representation.regular(monoids["monoid_d4"], Q),
             monoid_ref="monoid_d4")

    # the unipotent counterexample over F_2 and its quotient spec
    F2 = FieldSpec.prime(2)
    Z2 = monoids["monoid_z2"]
    unipotent = Representation(Z2, F2, [
        Matrix.identity(F2, 2), Matrix.from_int_rows(F2, [[1, 1], [0, 1]])])
    rep_file("rep_z2_f2_unipotent.json", unipotent, monoid_ref="monoid_z2")
    write("quotient_z2_f2.json", io.dump_canonical(
        {"subspace": [["1", "0"]]}))

    # corrupted negative examples
    rg = monoid_algebra(Z2, Q)
    bad_mult = dict(rg.mult)
    del bad_mult[(1, 1, 0)]                    # g*g becomes 0
    corrupted = FinBialgebra(Q, 2, rg.basis, bad_mult, rg.unit, rg.comult,
                             rg.counit, rg.antipode)
    bialgebra_file("bad_rg_z2_gg_zero.json", corrupted)

    fn = function_bialgebra(monoids["monoid_z4"], Q)
    bad_comult = dict(fn.comult)
    bad_comult[(3, 0, 0)] = Q.one              # stray coproduct term
    bialgebra_file("bad_fn_z4_comult.json", FinBialgebra(
        Q, 4, fn.basis, fn.mult, fn.unit, bad_comult, fn.counit))

    bad_coalg = FinBialgebra(Q, 2, ("e0", "e1"), None, None,
                             {(0, 0, 1): Q.one}, (Q.one, Q.zero))
    bialgebra_file("bad_counit_law.json", bad_coalg)

    # a zrep demo matrix over F_5 (invertible companion-style)
    write("matrix_f5.json", io.dump_canonical({
        "field": {"kind": "PrimeField", "p": 5},
        "matrix": [["0", "0", "2"], ["1", "0", "0"], ["0", "1", "4"]],
    }))

    # a submonoid fragment: the numerical semigroup generated by 2 and 3
    write("submonoid_23.json", io.dump_canonical({
        "ambient_rank": 1, "generators": [[2], [3]], "degree_bound": 6,
    }))


if __name__ == "__main__":
    main()
