"""Command-line front end: parse definition files, dispatch verifications
and constructions, emit text or machine-readable reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 malformed
input or usage error. Machine-readable reports are byte-reproducible for
fixed inputs and seed, except for the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__, io
from .bialgebra import (check_hopf, dualize, verify_algebra, verify_bialgebra,
                        verify_coalgebra)
from .exact import FieldSpec, PRIME_FIELD
from .lie import (TruncatedEnveloping, TensorAlgebraOracle, coproduct_on_U,
                  dist_at_identity, graded_check, primitives_of_U, verify_lie)
from .monoids import (BudgetExceeded, InsufficientRoots, NotPositivelyGraded,
                      cartier_check, monoid_algebra, points)
from .polys import poly_str
from .report import Report
from .reps import (CharDividesOrder, NotAGroup, NotASection, RepMorphism,
                   check_invariant_exactness, decompose_rep_of_Z,
                   formal_matrix_integral, invariant_integral,
                   quotient_rep, reynolds)
from .tannaka import reconstruct_from_regular, tensor_coproduct_recovery

SCHEMA = "hopfdual-report/1"

_DOMAIN_ERRORS = (CharDividesOrder, NotAGroup, NotASection, InsufficientRoots,
                  NotPositivelyGraded, BudgetExceeded)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(report: Report, args, inputs, started) -> int:
    verdict = "pass" if report.passed else "fail"
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "tool": {"name": "hopfdual", "version": __version__},
            "command": args.command,
            "inputs": [{"path": str(p), "sha256": _sha256(p)}
                       for p in inputs],
            "seed": args.seed,
            "verdict": verdict,
            "checks": report.to_dict()["checks"],
            "timing_ms": int((time.perf_counter() - started) * 1000),
        }
        print(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1))
    else:
        print(report.title)
        for c in report.checks:
            line = f"  {'PASS' if c.ok else 'FAIL'}  {c.name}"
            if c.witness:
                line += f"  [{c.witness}]"
            print(line)
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_verify(args):
    A = io.load_bialgebra(args.file)
    rep = Report(f"axiom suites for {args.file}")
    if A.has_algebra:
        rep.extend(verify_algebra(A), prefix="algebra: ")
    if A.has_coalgebra:
        rep.extend(verify_coalgebra(A), prefix="coalgebra: ")
    if A.has_algebra and A.has_coalgebra:
        rep.extend(verify_bialgebra(A), prefix="bialgebra: ")
    if A.has_antipode:
        rep.extend(check_hopf(A), prefix="hopf: ")
    if not (A.has_algebra or A.has_coalgebra):
        rep.add("nothing to verify", False, "no structure present")
    return rep, [args.file]


def _cmd_dualize(args):
    A = io.load_bialgebra(args.file)
    D = dualize(A)
    text = io.dump_canonical(io.bialgebra_to_json(D))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    rep = Report(f"dualize {args.file}")
    rep.add("dual written", True,
            args.output if args.output else "stdout")
    return rep, [args.file]


def _cmd_canonicalize(args):
    text = io.canonicalize(args.file)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    rep = Report(f"canonicalize {args.file}")
    rep.add("canonical form written", True,
            args.output if args.output else "stdout")
    return rep, [args.file]


def _cmd_cartier(args):
    G = io.load_monoid(args.file)
    field = FieldSpec.prime(args.p) if args.p else FieldSpec.rationals()
    return cartier_check(G, field), [args.file]


def _cmd_points(args):
    field = FieldSpec.prime(args.p)
    obj = io._load_json(args.file)
    kind = io.classify_file(obj)
    if kind == "monoid":
        G = io.monoid_from_json(obj, str(args.file))
        A = monoid_algebra(G, field)
    elif kind == "bialgebra":
        A = io.bialgebra_from_json(obj, str(args.file))
        if A.field != field:
            raise io.FileFormatError(
                f"{args.file}: file is over {A.field.describe()}, "
                f"--p asked for F_{args.p}")
    else:
        raise io.FileFormatError(f"{args.file}: need a monoid or bialgebra")
    rep = Report(f"points of {args.file} over F_{args.p}")
    pts = points(A, budget=args.budget)
    rep.add("point count", True, str(len(pts)))
    for t, phi in enumerate(pts):
        rep.add(f"point {t}", True,
                "(" + ", ".join(field.format(v) for v in phi) + ")")
    return rep, [args.file]


def _cmd_reynolds(args):
    rho = io.load_representation(args.file)
    rep = Report(f"Reynolds operator for {args.file}")
    w = invariant_integral(rho.monoid, rho.field)
    rep.add("invariant integral exists and is unique", True)
    split = reynolds(rho, w)
    rep.add("averaged operator is idempotent", True)
    rep.add("image equals the invariants", True,
            f"dimension {len(split.invariant_basis)}")
    rep.add("dimension count dim M = dim M^G + dim ker",
            rho.dim == len(split.invariant_basis)
            + len(split.complement_basis))
    return rep, [args.file]


def _cmd_exactness(args):
    rho = io.load_representation(args.file)
    spec = io._load_json(args.quotient)
    if not isinstance(spec, dict) or "subspace" not in spec:
        raise io.FileFormatError(
            f"{args.quotient}: expected an object with 'subspace'")
    f = rho.field
    try:
        sub = [tuple(f.parse(str(c)) for c in row)
               for row in spec["subspace"]]
    except ValueError as exc:
        raise io.FileFormatError(f"{args.quotient}: {exc}")
    quot, proj, _ = quotient_rep(rho, sub)
    pi = RepMorphism(rho, quot, proj)
    rep = Report(f"invariant exactness for {args.file} -> quotient")
    ok = check_invariant_exactness(pi)
    rep.add("invariants surject onto quotient invariants", ok,
            None if ok else "invariant vector with no invariant preimage")
    return rep, [args.file, args.quotient]


def _cmd_pbw(args):
    L = io.load_lie(args.file)
    rep = Report(f"enveloping truncation of {args.file} at order {args.order}")
    rep.extend(verify_lie(L), prefix="input: ")
    U = TruncatedEnveloping(L, args.order)
    _, corep = coproduct_on_U(U)
    rep.extend(corep, prefix="coproduct: ")
    if L.field.characteristic() == 0:
        rep.extend(graded_check(U), prefix="graded: ")
        prim = primitives_of_U(U)
        rep.add("primitive space is the degree-one span",
                len(prim) == L.dim, f"dim {len(prim)} vs {L.dim}")
    oracle = TensorAlgebraOracle(L, args.order)
    bad = []
    for a in range(U.dim):
        for b in range(U.dim):
            if U.degree(a) + U.degree(b) > args.order:
                continue
            if not oracle.check_product(U, a, b):
                bad.append((U.names[a], U.names[b]))
    rep.add("straightening agrees with the tensor-algebra oracle",
            not bad, str(bad[:3]) if bad else None)
    return rep, [args.file]


def _cmd_dist(args):
    field = FieldSpec.rationals()
    _, rep = dist_at_identity(args.preset, args.order, field)
    return rep, []


def _cmd_tannaka(args):
    G = io.load_monoid(args.monoid)
    field = FieldSpec.prime(args.p) if args.p else FieldSpec.rationals()
    rep = Report(f"reconstruction for {args.monoid}")
    rep.extend(reconstruct_from_regular(G, field), prefix="regular: ")
    inputs = [args.monoid]
    if args.reps:
        reps = [io.load_representation(p) for p in args.reps]
        inputs.extend(args.reps)
        for rho in reps:
            if rho.monoid != G:
                raise io.FileFormatError(
                    "representation file is over a different monoid")
        rep.extend(tensor_coproduct_recovery(G, reps), prefix="tensor: ")
    return rep, inputs


def _cmd_zrep(args):
    m = io.load_matrix(args.file)
    if m.field.kind != PRIME_FIELD:
        raise io.FileFormatError(f"{args.file}: matrix must be over a "
                                 "prime field")
    if args.p and m.field.p != args.p:
        raise io.FileFormatError(
            f"{args.file}: matrix is over F_{m.field.p}, --p said {args.p}")
    rep = Report(f"primary decomposition of {args.file}")
    dec = decompose_rep_of_Z(m)
    rep.add("reassembled matrix is similar to the input", dec.verify(m))
    for q, e, mult in dec.summary:
        rep.add(f"summand F_p[x]/(({poly_str(m.field, q)})^{e})^{mult}",
                True)
    return rep, [args.file]


def _cmd_formal_matrices(args):
    field = FieldSpec.rationals()
    rep = formal_matrix_integral(args.n, args.order, field)
    return rep, []


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hopfdual",
        description="exact structure-constant bialgebra toolkit")
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--seed", type=int, default=None,
                     help="seed recorded in reports and used by randomized "
                          "searches")
    top.add_argument("--budget", type=int, default=10**7,
                     help="candidate cap for enumerations")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the axiom suites on a bialgebra file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("dualize", help="write the dual structure constants")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_dualize)

    p = sub.add_parser("canonicalize", help="normalize a definition file")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_cmd_canonicalize)

    p = sub.add_parser("cartier", help="monoid algebra vs function algebra "
                                       "duality")
    p.add_argument("file")
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(run=_cmd_cartier)

    p = sub.add_parser("points", help="algebra maps into a prime field")
    p.add_argument("file")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(run=_cmd_points)

    p = sub.add_parser("reynolds", help="averaging projector of a "
                                        "representation")
    p.add_argument("file")
    p.set_defaults(run=_cmd_reynolds)

    p = sub.add_parser("exactness", help="invariant exactness of a quotient")
    p.add_argument("file")
    p.add_argument("quotient")
    p.set_defaults(run=_cmd_exactness)

    p = sub.add_parser("pbw", help="ordered-monomial truncation checks")
    p.add_argument("file")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(run=_cmd_pbw)

    p = sub.add_parser("dist", help="distributions of a preset group")
    p.add_argument("--preset", choices=("ga", "gm", "u2"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(run=_cmd_dist)

    p = sub.add_parser("tannaka", help="reconstruction from the regular "
                                       "module")
    p.add_argument("monoid")
    p.add_argument("reps", nargs="*")
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(run=_cmd_tannaka)

    p = sub.add_parser("zrep", help="primary decomposition of an invertible "
                                    "matrix over F_p")
    p.add_argument("file")
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(run=_cmd_zrep)

    p = sub.add_parser("formal-matrices", help="truncated formal-matrix "
                                               "integral")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(run=_cmd_formal_matrices)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        report, inputs = args.run(args)
    except io.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        report = Report(f"{args.command}")
        report.add(type(exc).__name__, False, str(exc))
        return _emit(report, args, [], started)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args, inputs, started)


if __name__ == "__main__":
    sys.exit(main())
