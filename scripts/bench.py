#!/usr/bin/env python3
"""Layer microbenchmarks for the exact kernel.

    python3 scripts/bench.py --label after [--out DIR]

Times matrix products, ``rref``, ``solve_many`` and ``Span.add`` on the
action of the dihedral group D4 on two copies of its regular module
(dimension 16), conjugated by a fixed random invertible matrix, over Q and
over F_101. Each case runs ``REPEAT`` times; the best and the median
seconds are kept, with a SHA-256 of the case's results so that two labels
can be checked to compute the same thing. Writes ``BENCH_<label>.json``.
End-to-end timings of the command line live in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hopfdual.exact import (FieldSpec, Matrix, inverse, rref,  # noqa: E402
                            solve_many, span_of)
from hopfdual.monoids import FiniteMonoid  # noqa: E402
from hopfdual.reps import Representation  # noqa: E402

SEED = 16
REPEAT = 11


def d4_action(field: FieldSpec) -> list:
    """Action matrices of D4 on a conjugated sum of two regular modules."""
    D4 = FiniteMonoid.dihedral(4)
    reg = Representation.regular(D4, field)
    rho = Representation.direct_sum(reg, reg)
    rng = random.Random(SEED)
    while True:
        q = Matrix(field, [[field.from_int(rng.randint(-2, 2))
                            for _ in range(rho.dim)] for _ in range(rho.dim)])
        if inverse(q) is not None:
            break
    rho = rho.conjugate(q)
    return [rho.action(g) for g in range(D4.size)]


def cases(field: FieldSpec) -> dict:
    """name -> (number of kernel calls, thunk returning printable results)."""
    acts = d4_action(field)
    n = acts[0].rows
    ident = Matrix.identity(field, n)
    augmented = [Matrix(field, [r + e for r, e in zip(a.entries,
                                                      ident.entries)])
                 for a in acts]
    squares = [a * a for a in acts]
    flat = [tuple(x for row in (a * b).entries for x in row)
            for a in acts for b in acts]
    return {
        "matmul": (len(acts) ** 2,
                   lambda: [a * b for a in acts for b in acts]),
        "rref": (len(augmented), lambda: [rref(m) for m in augmented]),
        "solve_many": (len(acts), lambda: [
            solve_many(a, [s.column(j) for j in range(n)])
            for a, s in zip(acts, squares)]),
        "span_add": (len(flat),
                     lambda: span_of(field, flat, n * n).basis()),
    }


def run() -> dict:
    out = {}
    for label, field in (("Q", FieldSpec.rationals()),
                         ("F101", FieldSpec.prime(101))):
        for name, (calls, thunk) in cases(field).items():
            times = []
            for _ in range(REPEAT):
                start = time.perf_counter()
                result = thunk()
                times.append(time.perf_counter() - start)
            out[f"{label}.{name}"] = {
                "calls": calls,
                "best_s": round(min(times), 6),
                "median_s": round(statistics.median(times), 6),
                "repeat": REPEAT,
                "result_sha256": hashlib.sha256(
                    repr(result).encode()).hexdigest(),
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default=str(ROOT))
    args = ap.parse_args(argv)
    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": run(),
    }
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    for name, case in doc["cases"].items():
        print(f"{name:16s} {case['calls']:4d} calls  best "
              f"{case['best_s'] * 1000:9.2f} ms  median "
              f"{case['median_s'] * 1000:9.2f} ms")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
