#!/usr/bin/env python3
"""Layer microbenchmarks for the exact kernel and the polynomial routines.

    python3 scripts/bench.py --label after [--out DIR]
    python3 scripts/bench.py --label after --other-src OTHER/src

Times matrix sums, products, Kronecker products and equality tests,
``rref``, ``inverse`` (``solve_many`` on the identity), ``Span.add``,
``Span.reduce``, the validation of a ``Representation`` and the completion
of a subspace to an adapted basis (``reps._adapted_basis``, the one
elimination behind ``quotient_rep``) on the action of the dihedral group
D4 on two copies of its regular module (dimension 16), conjugated by a
fixed random invertible matrix q, over Q and over F_101; the subspace is
the augmentation ideal of the first copy, carried through q.
``Span.reduce`` reduces the 64 flattened products and 64 seeded random
vectors against the span of the products; ``kron`` takes each action
matrix times the top-left 4x4 block of another; ``eq`` compares each of
the 64 products with the action of the product element.
Times ``rref`` and ``span_of(...).basis()`` on 100 seeded random square
matrices each, 3x3 over F_5 and 4x4 and 8x8 over F_7, the widths of the
spans of ``points --p`` and ``cartier --p``.
Times two more shapes of product: each matrix of the regular
representation of S4 over Q (0/1 columns, one nonzero per column) times
the matrix of each generator of S4, and every product of eight seeded
random 15x15 matrices over F_31.
Times the routines ``zrep`` is built on: ``char_poly`` of a conjugated
14x14 block-companion matrix over F_31, ``factor_monic_fp`` of a
degree-4 irreducible times three linear factors over F_101 and of the
characteristic polynomial of the n = 40 ``zrep`` input over F_2147483647
below, and
``eval_at_matrix`` of a seeded degree-7 polynomial at a seeded 15x15
matrix over F_31. Times in-process ``cli.main`` calls of ``--format json
zrep`` on seeded dense random invertible matrices built in the script,
n = 40 and n = 80 over F_101 and n = 40 over F_2147483647 (hashing the
exit code and the output without the timing field). Times the
structure-tensor sweeps: ``verify_bialgebra`` on the monoid and function
algebras of D4, each on a copy made in the case so that no certificate
cached by an earlier repeat is reused, ``coproduct_on_U`` on sl2 at order 5,
``dist_at_identity("gm", 6)`` and ``divided_power_bialgebra(8)``,
``check_morphism`` of the identity algebra map of the group algebra of S5
and ``lie_morphism_functor`` of the identity of sl2 at order 4, all over
Q; their hash is of the report's checks; and an in-process ``cli.main``
call of ``--format json dist --preset gm --order 40``, whose product sweep
is within the default budget. Times ten in-process
``cli.main`` calls of ``--format json verify`` on the corpus file
``rg_d4.json``, hashing their exit codes and output without the timing
field. Times the representation pipeline over Q on a file:
``Matrix.parse`` of the eight matrices of the conjugated 16-dimensional
D4 module above, as its representation file holds them, loading that
file (parsing plus validation), ``sub_rep`` of that module on its
augmentation-ideal subspace, in-process ``cli.main`` calls of
``--format json reynolds`` on it and of ``--format json exactness`` on it
and its augmentation-ideal subspace saved as a subspace file (hashing
their output without the timing field and with the file's directory
dropped), and ``reconstruct_from_regular`` on Z3 x Z3.
Times ``complete_reducibility`` on the seeded conjugated modules of
``tests/conftest.py``: S3 with seed 5 (dimension 8) and D4 x Z2 with seed
3 (dimension 17) over Q and D4 with seed 5 (dimension 10) over F_101,
hashing the sorted summand dimensions.
Times the subalgebra closure: ``generators`` of the group algebra of S4
over Q, rebuilt from its structure tensors inside the case so that the
greedy closure runs on every repeat (the monoid algebra itself records the
monoid's generating set), and ``points`` of the monoid algebra of the
corpus file ``monoid_z8.json`` over F_7. Times the enveloping truncation:
in-process ``cli.main`` calls of ``--format json pbw`` on the corpus file
``lie_sl2.json`` at orders 5 and 6 (hashing the exit code and the output
without the timing field), and the tensor-algebra oracle of sl2 at order 6
built alone (hashing its word count and the dimension of its ideal, which
do not depend on the order of its columns).
Times the per-command bookkeeping of small jobs: in-process ``cli.main``
calls of ``--format json`` ``canonicalize fn_s3.json``, ``dualize
rg_d4.json``, ``cartier monoid_d4.json``, ``tannaka monoid_d4.json`` and
``tannaka monoid_d4.json rep_d4_regular.json`` on corpus files (hashing
the exit code and the output without the timing field).
Times the scaled axiom sweeps and reconstruction, built in the script:
in-process ``cli.main`` calls of ``--format json verify`` on the group
algebras of S4 and S5 and the function algebra of S5 over Q, each saved to
a bialgebra file (hashing the exit code and the output without the timing
field), and ``reconstruct_from_regular`` on S4 x Z2 and on S5 over Q.
For each of ``RUNS`` runs and each case, one fresh child process per
tree times the case ``REPEAT_CHILD`` times. With one label the tree is
this checkout's ``src``. With ``--other-src`` there are two trees, this
one and the other, labelled ``before``, timed in alternation: the tree
that goes first alternates from case to case and run to run, so that a
slow spell of a shared machine lands on both trees and not on one label.
A case's ``best_s`` is the median over the runs of each run's best,
its ``median_s`` the median of all its times, and ``run_best_s`` lists
each run's best in run order, so that the two files can be compared run
by run. Each case keeps a SHA-256 of its results so that two labels
can be checked to compute the same thing. The hash prints every rational
as "a/b" or "a", so it does not depend on whether an integral rational is
an ``int`` or a ``Fraction``. Writes ``BENCH_<label>.json`` (and, with
``--other-src``, ``BENCH_before.json``) to ``--out`` (default: the root
of the checkout), a directory it creates, or checks it can write to,
before the first case. Runs from the root of the
checkout it sits in, whatever the working directory; the corpus files are
this checkout's for both trees.
End-to-end timings of the command line live in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a child process of --other-src imports hopfdual from the tree it is given
sys.path.insert(0, os.environ.get("BENCH_SRC", str(ROOT / "src")))

from hopfdual import cli, reps  # noqa: E402
from hopfdual import io as hio  # noqa: E402
from hopfdual.exact import (FieldSpec, Matrix, inverse, kron,  # noqa: E402
                            rank, rref, span_of)
from hopfdual.bialgebra import (BialgebraMorphism,  # noqa: E402
                                FinBialgebra, check_morphism,
                                verify_bialgebra)
from hopfdual.lie import (LieAlgebra, TensorAlgebraOracle,  # noqa: E402
                          TruncatedEnveloping, coproduct_on_U,
                          dist_at_identity, divided_power_bialgebra,
                          lie_morphism_functor)
from hopfdual.monoids import (FiniteAbelianGroup,  # noqa: E402
                              FiniteMonoid, function_bialgebra,
                              monoid_algebra, points)
from hopfdual.polys import (char_poly, eval_at_matrix,  # noqa: E402
                            factor_monic_fp, mul)
from hopfdual.reps import Representation  # noqa: E402
from hopfdual.tannaka import reconstruct_from_regular  # noqa: E402

# the seeded modules of the tests; they import hopfdual from the tree above
sys.path.insert(1, str(ROOT / "tests"))
from conftest import seeded_module  # noqa: E402

SEED = 16
RUNS = 11
REPEAT_CHILD = 3
CORPUS = "src/hopfdual/corpus/"
RG_D4 = CORPUS + "rg_d4.json"
MONOID_Z8 = CORPUS + "monoid_z8.json"
LIE_SL2 = CORPUS + "lie_sl2.json"
TIMING = re.compile(r'^ "timing_ms": -?\d+,\n', re.M)


D4 = FiniteMonoid.dihedral(4)


def cli_json(argv, work=None):
    """(exit code, output without the timing field) of one in-process
    ``cli.main`` call with ``--format json``; paths under work are printed
    relative to it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json", *argv])
    text = TIMING.sub("", out.getvalue())
    if work is not None:
        text = text.replace(str(work) + os.sep, "")
    return code, text


def d4_module(field: FieldSpec) -> tuple:
    """(action matrices, subspace) of D4 on a sum of two regular modules
    conjugated by q: the subspace is the augmentation ideal of the first
    copy, spanned by e_h - e_{h+1} for h < 7, carried through q."""
    reg = Representation.regular(D4, field)
    rho = Representation.direct_sum(reg, reg)
    rng = random.Random(SEED)
    while True:
        q = Matrix(field, [[field.from_int(rng.randint(-2, 2))
                            for _ in range(rho.dim)] for _ in range(rho.dim)])
        if inverse(q) is not None:
            break
    rho = rho.conjugate(q)
    sub = [q.apply([field.one if j == h else field.neg(field.one)
                    if j == h + 1 else field.zero for j in range(rho.dim)])
           for h in range(D4.size - 1)]
    return [rho.action(g) for g in range(D4.size)], sub


def cases(field: FieldSpec) -> dict:
    """name -> (number of kernel calls, thunk returning printable results)."""
    acts, sub = d4_module(field)
    n = acts[0].rows
    ident = Matrix.identity(field, n)
    augmented = [Matrix(field, [r + e for r, e in zip(a.entries,
                                                      ident.entries)])
                 for a in acts]
    products = [(a * b, acts[D4.table[i][j]]) for i, a in enumerate(acts)
                for j, b in enumerate(acts)]
    blocks = [Matrix(field, [row[:4] for row in a.entries[:4]])
              for a in acts]
    flat = [tuple(x for row in (a * b).entries for x in row)
            for a in acts for b in acts]
    built = span_of(field, flat, n * n)
    rng = random.Random(SEED)
    probes = flat + [tuple(field.mul(field.from_int(rng.randint(-9, 9)),
                                     field.inv(field.from_int(
                                         rng.randint(1, 9))))
                           for _ in range(n * n)) for _ in flat]
    return {
        "matmul": (len(acts) ** 2,
                   lambda: [a * b for a in acts for b in acts]),
        "add": (len(acts) ** 2,
                lambda: [a + b for a in acts for b in acts]),
        "kron": (len(acts), lambda: [kron(a, b) for a, b in
                                     zip(acts, blocks[1:] + blocks[:1])]),
        "eq": (len(products), lambda: [ab == c for ab, c in products]),
        "rref": (len(augmented), lambda: [rref(m) for m in augmented]),
        "inverse": (len(acts), lambda: [inverse(a) for a in acts]),
        "span_add": (len(flat),
                     lambda: span_of(field, flat, n * n).basis()),
        "span_reduce": (len(probes),
                        lambda: [built.reduce(v) for v in probes]),
        "validate": (1, lambda: Representation(D4, field, acts).dim),
        "adapted_basis.d4_16": (1, lambda: reps._adapted_basis(field, sub,
                                                               n)),
    }


def product_cases() -> dict:
    """name -> (number of products, thunk) for a sparse product over Q, the
    regular representation of S4, and a dense one over F_31."""
    s4 = FiniteMonoid.symmetric(4)
    reg = Representation.regular(s4, FieldSpec.rationals()).matrices
    gens = [reg[g] for g in s4.generators]
    f31 = FieldSpec.prime(31)
    rng = random.Random(SEED)
    dense = [Matrix(f31, [[rng.randrange(31) for _ in range(15)]
                          for _ in range(15)]) for _ in range(8)]
    return {
        "Q.matmul.s4_regular": (len(reg) * len(gens), lambda: [
            a * b for a in reg for b in gens]),
        "F31.matmul.15x15": (len(dense) ** 2, lambda: [
            a * b for a in dense for b in dense]),
    }


def small_cases() -> dict:
    """name -> (number of calls, thunk) for ``rref`` and
    ``span_of(...).basis()`` on 100 seeded random square matrices each,
    3x3 over F_5 and 4x4 and 8x8 over F_7: the widths of the spans of
    ``points --p`` and ``cartier --p``."""
    out = {}
    for p, n in ((5, 3), (7, 4), (7, 8)):
        field = FieldSpec.prime(p)
        rng = random.Random(f"small:{p}:{n}:{SEED}")
        mats = [Matrix(field, [[rng.randrange(p) for _ in range(n)]
                               for _ in range(n)]) for _ in range(100)]
        out[f"F{p}.rref.{n}x{n}"] = (len(mats), lambda mats=mats: [
            rref(m).reduced.entries for m in mats])
        out[f"F{p}.span_basis.{n}x{n}"] = (
            len(mats), lambda mats=mats, field=field, n=n: [
                span_of(field, m.entries, n).basis() for m in mats])
    return out


def block_companion(field: FieldSpec, polys) -> Matrix:
    """Block-diagonal matrix of the companion matrices of monic polynomials
    (low-to-high coefficients)."""
    n = sum(len(poly) - 1 for poly in polys)
    rows = []
    off = 0
    for poly in polys:
        d = len(poly) - 1
        for i in range(d):
            row = [field.zero] * n
            if i:
                row[off + i - 1] = field.one
            row[off + d - 1] = field.neg(poly[i])
            rows.append(row)
        off += d
    return Matrix(field, rows)


def polys_cases() -> dict:
    """name -> (number of calls, thunk) for ``char_poly``,
    ``factor_monic_fp`` (twice: a small product over F_101, and the
    characteristic polynomial of the n = 40 ``zrep`` input over
    F_2147483647) and ``eval_at_matrix``."""
    f31 = FieldSpec.prime(31)
    rng = random.Random(SEED)
    m = block_companion(f31, [tuple(rng.randrange(31) for _ in range(d))
                              + (f31.one,) for d in (6, 5, 3)])
    while True:
        q = Matrix(f31, [[rng.randrange(31) for _ in range(m.rows)]
                         for _ in range(m.rows)])
        q_inv = inverse(q)
        if q_inv is not None:
            break
    m = q * m * q_inv
    f101 = FieldSpec.prime(101)
    poly = (2, 0, 0, 0, 1)  # x^4 + 2, irreducible over F_101
    for root in (1, 2, 3):
        poly = mul(f101, poly, (f101.from_int(-root), 1))
    square = Matrix(f31, [[rng.randrange(31) for _ in range(15)]
                          for _ in range(15)])
    deg7 = (tuple(rng.randrange(31) for _ in range(7))
            + (1 + rng.randrange(30),))
    big = FieldSpec.prime(2**31 - 1)
    cp40 = char_poly(Matrix(big, zrep_rows(40, big.p)))
    return {
        "F31.char_poly": (1, lambda: char_poly(m)),
        "F101.factor_monic_fp": (1, lambda: factor_monic_fp(f101, poly)),
        "F2147483647.factor_monic_fp.n40": (
            1, lambda: factor_monic_fp(big, cp40)),
        "F31.eval_at_matrix.deg7_15x15": (
            1, lambda: eval_at_matrix(f31, deg7, square).entries),
    }


def sweep_cases() -> dict:
    """name -> (number of calls, thunk returning the report's checks) for
    the bialgebra axiom sweeps, the enveloping/divided-power/distribution
    comparisons built on them and the two algebra-map checks: the identity
    of kS5 through ``check_morphism`` and of sl2 through
    ``lie_morphism_functor`` at order 4."""
    q = FieldSpec.rationals()
    rg = monoid_algebra(D4, q)
    fn = function_bialgebra(D4, q)
    k_s5 = monoid_algebra(FiniteMonoid.symmetric(5), q)
    ident = BialgebraMorphism(k_s5, k_s5, Matrix.identity(q, k_s5.dim))
    sl2 = LieAlgebra.sl2(q)

    def verify(A):
        # a copy with nothing cached and nothing recorded, as a file gives
        return lambda: verify_bialgebra(FinBialgebra(
            A.field, A.dim, A.basis, A.mult, A.unit, A.comult, A.counit,
            A.antipode)).checks
    return {
        "Q.verify_bialgebra.rg_d4": (1, verify(rg)),
        "Q.verify_bialgebra.fn_d4": (1, verify(fn)),
        "Q.coproduct_on_U.sl2_5": (1, lambda: coproduct_on_U(
            TruncatedEnveloping(LieAlgebra.sl2(q), 5))[1].checks),
        "Q.dist_at_identity.gm_6": (
            1, lambda: dist_at_identity("gm", 6, q)[1].checks),
        "Q.divided_power_bialgebra.8": (
            1, lambda: divided_power_bialgebra(8, q)[1].checks),
        "Q.dist.gm_40": (1, lambda: cli_json(
            ["dist", "--preset", "gm", "--order", "40"])),
        "Q.check_morphism.k_s5": (
            1, lambda: check_morphism(ident, "algebra").checks),
        "Q.lie_morphism_functor.sl2_4": (1, lambda: lie_morphism_functor(
            Matrix.identity(q, 3), sl2, sl2, 4)[1].checks),
    }


def cli_cases() -> dict:
    """Ten in-process ``verify`` runs of the command line, one parser per
    process: (exit codes, output without the timing field)."""
    argv = ["--format", "json", "verify", RG_D4]

    def repeat():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(argv) for _ in range(10)]
        return codes, TIMING.sub("", out.getvalue())
    return {"cli_repeat": (10, repeat)}


def bookkeeping_cases() -> dict:
    """name -> (number of calls, thunk) for one small command each, whose
    report encoding and input digests cost about as much as its algebra."""
    return {f"cli_{argv[0]}." + ".".join(Path(a).stem for a in argv[1:]): (
        1, lambda argv=argv: cli_json(argv)) for argv in (
            ["canonicalize", CORPUS + "fn_s3.json"],
            ["dualize", CORPUS + "rg_d4.json"],
            ["cartier", CORPUS + "monoid_d4.json"],
            ["tannaka", CORPUS + "monoid_d4.json"],
            ["tannaka", CORPUS + "monoid_d4.json",
             CORPUS + "rep_d4_regular.json"])}


def rep_cases(work: Path) -> dict:
    """name -> (number of calls, thunk) for the representation pipeline
    over Q: the D4 module of :func:`d4_module` written to a file under
    work, its matrices parsed, the file loaded, restricted to its subspace,
    averaged by the ``reynolds`` command and put through the ``exactness``
    command with its subspace, and the reconstruction of QZ3xZ3 from its
    regular module."""
    q = FieldSpec.rationals()
    path = work / "rep_d4_16.json"
    acts, sub = d4_module(q)
    rho = Representation(D4, q, acts, validate=False)
    hio.save_representation(rho, path)
    sub_path = work / "sub_d4_16.json"
    sub_path.write_text(json.dumps({"subspace": [[str(x) for x in v]
                                                 for v in sub]}),
                        encoding="utf-8")
    rows = list(json.loads(path.read_text(encoding="utf-8"))
                ["matrices"].values())
    z3xz3 = FiniteAbelianGroup((3, 3)).to_monoid()
    return {
        "Q.parse.d4_16": (len(rows), lambda: [Matrix.parse(q, m)
                                               for m in rows]),
        "Q.load_representation.d4_16": (
            1, lambda: hio.load_representation(path).matrices),
        "Q.sub_rep.d4_16": (1, lambda: reps.sub_rep(rho, sub).matrices),
        "Q.cli_reynolds.d4_16": (
            1, lambda: cli_json(["reynolds", str(path)], work)),
        "Q.cli_exactness.d4_16": (
            1, lambda: cli_json(["exactness", str(path), str(sub_path)],
                                work)),
        "Q.reconstruct_from_regular.z3xz3": (
            1, lambda: reconstruct_from_regular(z3xz3, q).checks),
    }


def reducibility_cases() -> dict:
    """name -> (number of calls, thunk) for ``complete_reducibility`` on
    the seeded modules of S3 with seed 5 and D4 x Z2 with seed 3 over Q and
    of D4 with seed 5 over F_101, each hashing the sorted summand
    dimensions."""
    def split(G, field, seed):
        rho = seeded_module(G, field, random.Random(seed))
        w = reps.invariant_integral(G, field)
        return lambda: sorted(s.rep.dim for s in
                              reps.complete_reducibility(rho, w))
    return {
        "Q.complete_reducibility.s3_5": (
            1, split(FiniteMonoid.symmetric(3), FieldSpec.rationals(), 5)),
        "Q.complete_reducibility.d4xz2_3": (
            1, split(FiniteMonoid.direct_product(D4, FiniteMonoid.cyclic(2)),
                     FieldSpec.rationals(), 3)),
        "F101.complete_reducibility.d4_5": (
            1, split(D4, FieldSpec.prime(101), 5)),
    }


def subalgebra_cases() -> dict:
    """name -> (number of calls, thunk) for the two users of the subalgebra
    closure: the greedy generators of a group algebra built in the case,
    and the points of a cyclic group algebra over F_7."""
    q = FieldSpec.rationals()
    k_s4 = monoid_algebra(FiniteMonoid.symmetric(4), q)
    z8 = monoid_algebra(hio.load_monoid(MONOID_Z8), FieldSpec.prime(7))
    return {
        "Q.generators.s4": (1, lambda: FinBialgebra(
            q, k_s4.dim, k_s4.basis, k_s4.mult, k_s4.unit).generators),
        "F7.points.z8": (1, lambda: points(z8)),
    }


def pbw_cases() -> dict:
    """name -> (number of calls, thunk) for the enveloping truncation of
    sl2: the ``pbw`` command at orders 5 and 6, and its oracle alone."""
    def pbw(order):
        return lambda: cli_json(["pbw", LIE_SL2, "--order", str(order)])

    def oracle():
        built = TensorAlgebraOracle(LieAlgebra.sl2(FieldSpec.rationals()), 6)
        return len(built.words), built.ideal.dim
    return {
        "Q.cli_pbw.sl2_5": (1, pbw(5)),
        "Q.cli_pbw.sl2_6": (1, pbw(6)),
        "Q.oracle.sl2_6": (1, oracle),
    }


def scaled_cases(work: Path) -> dict:
    """name -> (number of calls, thunk) for the axiom sweeps and the
    reconstruction at the sizes of S4 and S5: the ``verify`` command on the
    group algebras of S4 and S5 and the function algebra of S5, saved
    under work, and the reconstruction of Q[S4 x Z2] and Q[S5] from their
    regular modules."""
    q = FieldSpec.rationals()
    s4 = FiniteMonoid.symmetric(4)
    s5 = FiniteMonoid.symmetric(5)

    def verify(name, algebra):
        path = work / f"{name}.json"
        hio.save_bialgebra(algebra, path)
        return 1, lambda: cli_json(["verify", str(path)], work)
    s4xz2 = FiniteMonoid.direct_product(s4, FiniteMonoid.cyclic(2))
    return {
        "Q.cli_verify.k_s4": verify("k_s4", monoid_algebra(s4, q)),
        "Q.cli_verify.k_s5": verify("k_s5", monoid_algebra(s5, q)),
        "Q.cli_verify.fn_s5": verify("fn_s5", function_bialgebra(s5, q)),
        "Q.reconstruct_from_regular.s4xz2": (
            1, lambda: reconstruct_from_regular(s4xz2, q).checks),
        "Q.reconstruct_from_regular.s5": (
            1, lambda: reconstruct_from_regular(s5, q).checks),
    }


def zrep_rows(n: int, p: int) -> list:
    """The int rows of the seeded dense random invertible n x n matrix over
    F_p that the ``zrep`` cases decompose."""
    rng = random.Random(f"zrep:{n}:{p}:{SEED}")
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank(Matrix(FieldSpec.prime(p), rows)) == n:
            return rows


def zrep_cases(work: Path) -> dict:
    """name -> (number of calls, thunk) for the ``zrep`` command on seeded
    dense random invertible matrices, saved under work: n = 40 and n = 80
    over F_101 and n = 40 over F_2147483647."""
    out = {}
    for n, p in ((40, 101), (80, 101), (40, 2**31 - 1)):
        rows = zrep_rows(n, p)
        path = work / f"zrep_f{p}_n{n}.json"
        path.write_text(json.dumps({
            "field": {"kind": "PrimeField", "p": p},
            "matrix": [[str(x) for x in row] for row in rows]}),
            encoding="utf-8")
        out[f"F{p}.cli_zrep.n{n}"] = (
            1, lambda path=path: cli_json(["zrep", str(path)], work))
    return out


def printed(x) -> str:
    """x printed with every rational as "a/b" or "a"."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(map(printed, x)) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{printed(k)}: {printed(v)}"
                               for k, v in x.items()) + "}"
    return repr(x)


def groups(work: Path) -> list:
    """One builder per group of cases; a builder returns name -> (number of
    calls, thunk) and builds the inputs its cases share."""
    return [
        lambda: {f"Q.{name}": case for name, case in
                 cases(FieldSpec.rationals()).items()},
        lambda: {f"F101.{name}": case for name, case in
                 cases(FieldSpec.prime(101)).items()},
        small_cases,
        product_cases,
        polys_cases,
        sweep_cases,
        cli_cases,
        bookkeeping_cases,
        lambda: rep_cases(work),
        reducibility_cases,
        subalgebra_cases,
        pbw_cases,
        lambda: scaled_cases(work),
        lambda: zrep_cases(work),
    ]


def timed(thunk, repeat: int) -> tuple:
    """(seconds of each of repeat calls, SHA-256 of the printed result)."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        result = thunk()
        times.append(time.perf_counter() - start)
    return times, hashlib.sha256(printed(result).encode()).hexdigest()


def child(work: Path, group: int, name: str) -> dict:
    """One case of one group, timed REPEAT_CHILD times in this process; the
    group's other cases are built but not run."""
    calls, thunk = groups(work)[group]()[name]
    times, digest = timed(thunk, REPEAT_CHILD)
    return {"calls": calls, "times": times, "result_sha256": digest}


def alternate(trees: list) -> dict:
    """label -> cases, for the (label, src) pairs of trees timed case by
    case in fresh child processes, alternating which tree goes first."""
    with tempfile.TemporaryDirectory() as work:
        listing = [(g, name) for g, build in
                   enumerate(groups(Path(work))) for name in build()]
    got = {label: {name: [] for _, name in listing} for label, _ in trees}
    for r in range(RUNS):
        for i, (g, name) in enumerate(listing):
            order = trees if (r + i) % 2 == 0 else trees[::-1]
            for label, src in order:
                done = subprocess.run(
                    [sys.executable, __file__, "--child", "--group", str(g),
                     "--case", name], env=dict(os.environ, BENCH_SRC=src),
                    capture_output=True, text=True, check=True)
                got[label][name].append(
                    json.loads(done.stdout.splitlines()[-1]))
            print(f"run {r + 1}/{RUNS} {name}", file=sys.stderr)
    out = {}
    for label, per_case in got.items():
        out[label] = {}
        for name, results in per_case.items():
            digests = {res["result_sha256"] for res in results}
            if len(digests) != 1:
                raise RuntimeError(f"{label} {name}: results differ between "
                                   "runs")
            bests = [min(res["times"]) for res in results]
            times = [t for res in results for t in res["times"]]
            out[label][name] = {
                "calls": results[0]["calls"],
                "best_s": round(statistics.median(bests), 6),
                "median_s": round(statistics.median(times), 6),
                "repeat": REPEAT_CHILD, "runs": RUNS,
                "result_sha256": digests.pop(),
                "run_best_s": [round(t, 6) for t in bests]}
    return out


def write(out_dir: Path, label: str, results: dict) -> None:
    doc = {
        "label": label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": results,
    }
    path = out_dir / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    for name, case in doc["cases"].items():
        print(f"{name:30s} {case['calls']:4d} calls  best "
              f"{case['best_s'] * 1000:9.2f} ms  median "
              f"{case['median_s'] * 1000:9.2f} ms")
    print(f"wrote {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--out", default=str(ROOT))
    ap.add_argument("--other-src", default=None,
                    help="src directory of a second tree to time in "
                         "alternation with this one")
    # one case in a child process
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--group", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--case", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    out_dir = Path(args.out).resolve()
    os.chdir(ROOT)
    if args.child:
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(child(Path(work), args.group, args.case)))
        return 0
    if args.label is None or (args.other_src and args.label == "before"):
        ap.error("--label is required, and with --other-src it names this "
                 "tree, not the other one (before)")
    # the runs take minutes: a directory that cannot take the files fails
    # now, not after the last case
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        ap.error(f"--out: {exc}")
    if not os.access(out_dir, os.W_OK):
        ap.error(f"--out {out_dir} is not writable")
    trees = [(args.label, str(ROOT / "src"))]
    if args.other_src is not None:
        trees.append(("before", str(Path(args.other_src).resolve())))
    for label, results in alternate(trees).items():
        write(out_dir, label, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
