"""Seeded input generators for the `q-reps` and `fp-zrep` workloads.

Everything here is the benchmark's own exact arithmetic (``Fraction`` over Q,
ints mod p over F_p); it never calls hopfdual, so a change to the program
cannot change the inputs it is measured on. Each generator writes its files
under a directory it is given and returns the job list that runs on them,
with what each job's report must show beyond a pass verdict.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

# -- dense matrices over Q (Fraction) or F_p (int) -----------------------------


def mat_mul(a, b, p=None):
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col) if x and y) for col in cols]
           for row in a]
    if p:
        out = [[x % p for x in row] for row in out]
    return out


def mat_inverse(m, p=None):
    """Gauss-Jordan inverse, or None when m is singular."""
    n = len(m)
    one = 1 if p else Fraction(1)
    rows = [[(x % p) if p else Fraction(x) for x in row]
            + [one if i == j else 0 * one for j in range(n)]
            for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p) if p else 1 / rows[c][c]
        rows[c] = [(x * inv) % p if p else x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [((x - f * y) % p) if p else x - f * y
                           for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def det_int(m) -> int:
    """Determinant of an integer matrix (fraction-free Bareiss)."""
    rows = [list(r) for r in m]
    n, sign, prev = len(rows), 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        for i in range(c + 1, n):
            rows[i] = [(rows[i][j] * rows[c][c] - rows[i][c] * rows[c][j])
                       // prev for j in range(n)]
        prev = rows[c][c]
    return sign * prev


def random_invertible_mod(rng, n, p):
    """A uniformly random invertible n x n matrix over F_p and its inverse."""
    while True:
        m = [[rng.randint(1 - p, p - 1) % p for _ in range(n)]
             for _ in range(n)]
        inv = mat_inverse(m, p)
        if inv is not None:
            return m, inv


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


# -- q-reps: conjugated regular + trivial modules over Q ------------------------


def cyclic(n):
    names = [f"c{k}" for k in range(n)]
    return names, [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral(n):
    """D_n of order 2n: rotations r_k then reflections s_k = s r^k."""
    names = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]

    def mul(i, j):
        fi, a = divmod(i, n)
        fj, b = divmod(j, n)
        if fi == 0:
            return (a + b) % n if fj == 0 else n + (b - a) % n
        return n + (a + b) % n if fj == 0 else (b - a) % n

    return names, [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]


def symmetric3():
    perms = sorted(itertools.permutations(range(3)))
    index = {q: i for i, q in enumerate(perms)}
    names = ["".join(map(str, q)) for q in perms]
    return names, [[index[tuple(s[t[x]] for x in range(3))] for t in perms]
                   for s in perms]


def direct_product(a, b):
    (na, ta), (nb, tb) = a, b
    names = [f"{x}|{y}" for x in na for y in nb]
    k = len(nb)
    table = [[ta[i1][j1] * k + tb[i2][j2] for j1 in range(len(na))
              for j2 in range(k)] for i1 in range(len(na)) for i2 in range(k)]
    return names, table


# The same groups on every seed: the tannaka and Reynolds costs grow like a
# high power of |G|, so drawing the group from the seed would make wall_s
# depend on the seed more than on the code. The seed draws the conjugators,
# the invariant subspaces and the job order.
Q_REPS_GROUPS = {
    "s3": symmetric3(),
    "d4": dihedral(4),
    "z3xz3": direct_product(cyclic(3), cyclic(3)),
}
Q_REPS_DIM = 16
# Bit length of |det q| for the conjugator q. Every denominator in the
# module divides det q, so fixing its size fixes the size of the numbers the
# elimination works with. Unbanded, |det q| ran from 2^20 to 2^32 and the
# time of four such modules (S3, Z6, D4, Z3xZ3) moved by 13% across eight
# seeds.
Q_REPS_DET_BITS = (28, 30)


def _fmt(x) -> str:
    return str(Fraction(x))


def q_reps(seed: int, out: Path) -> list:
    """One module, one quotient and one group file per group; three jobs
    (reynolds, exactness, tannaka) per group."""
    rng = random.Random(f"q-reps:{seed}")
    jobs = []
    for gname, (names, table) in Q_REPS_GROUPS.items():
        order = len(names)
        copies = (Q_REPS_DIM - 1) // order
        trivial = Q_REPS_DIM - copies * order
        regular = [[[1 if table[g][h] == i else 0 for h in range(order)]
                    for i in range(order)] for g in range(order)]
        mats = [block_diag([regular[g]] * copies + [[[1]]] * trivial)
                for g in range(order)]
        while True:
            q = [[rng.randint(-2, 2) for _ in range(Q_REPS_DIM)]
                 for _ in range(Q_REPS_DIM)]
            bits = abs(det_int(q)).bit_length()
            if Q_REPS_DET_BITS[0] <= bits <= Q_REPS_DET_BITS[1]:
                break
        qinv = mat_inverse(q)
        conj = [mat_mul(mat_mul(q, m), qinv) for m in mats]
        # invariant subspace: the augmentation ideal of the first regular
        # copy plus a seeded share of the trivial lines, carried through q
        sub = []
        for h in range(order - 1):
            v = [0] * Q_REPS_DIM
            v[h], v[h + 1] = 1, -1
            sub.append(v)
        lines = rng.sample(range(copies * order, Q_REPS_DIM),
                           rng.randint(1, trivial - 1))
        for i in sorted(lines):
            v = [0] * Q_REPS_DIM
            v[i] = 1
            sub.append(v)
        sub = [[sum(q[r][c] * v[c] for c in range(Q_REPS_DIM))
                for r in range(Q_REPS_DIM)] for v in sub]
        group_file = out / f"group_{gname}.json"
        rep_file = out / f"rep_{gname}.json"
        sub_file = out / f"sub_{gname}.json"
        write_json(group_file, {"elements": names, "table": table, "unit": 0})
        write_json(rep_file, {
            "field": {"kind": "Rationals"},
            "monoid": group_file.name,
            "dim": Q_REPS_DIM,
            "matrices": {names[g]: [[_fmt(x) for x in row] for row in conj[g]]
                         for g in range(order)},
        })
        write_json(sub_file, {"subspace": [[_fmt(x) for x in v] for v in sub]})
        # M^G of copies * regular + trivial lines has one line per summand
        jobs.append({"argv": ["reynolds", rep_file],
                     "witness": {"image equals the invariants":
                                 f"dimension {copies + trivial}"}})
        jobs.append({"argv": ["exactness", rep_file, sub_file]})
        jobs.append({"argv": ["tannaka", group_file]})
    rng.shuffle(jobs)
    return jobs


# -- fp-zrep: conjugated block companion matrices over F_p ---------------------


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def poly_rem(a, m, p):
    a = list(a)
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = a[-1] * inv % p
        shift = len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_gcd(a, b, p):
    while b:
        a, b = b, poly_rem(a, b, p)
    return a


def poly_powmod(base, e, m, p):
    result, base = [1], poly_rem(base, m, p)
    while e:
        if e & 1:
            result = poly_rem(poly_mul(result, base, p), m, p)
        base = poly_rem(poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def is_irreducible(f, p) -> bool:
    """Ben-Or: f has no factor of degree i <= deg/2, i.e. gcd(f, x^(p^i) - x)
    is 1 for every such i."""
    xp = [0, 1]
    for _ in range(1, (len(f) - 1) // 2 + 1):
        xp = poly_powmod(xp, p, f, p)
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        while diff and diff[-1] == 0:
            diff.pop()
        if not diff or len(poly_gcd(f, diff, p)) > 1:
            return False
    return True


def random_irreducible(rng, degree, p):
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if f[0] and is_irreducible(f, p):
            return f


def companion(poly, p):
    """Companion matrix of a monic poly (low-to-high coefficients)."""
    n = len(poly) - 1
    m = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        m[j + 1][j] = 1
    for i in range(n):
        m[i][n - 1] = (-poly[i]) % p
    return m


def poly_str(poly, p) -> str:
    """The CLI's rendering of a polynomial in a summand name."""
    terms = []
    for i, c in enumerate(poly):
        if c == 0:
            continue
        cs = str(c % p)
        if i == 0:
            terms.append(cs)
        elif i == 1:
            terms.append(f"{cs}*x" if cs != "1" else "x")
        else:
            terms.append(f"{cs}*x^{i}" if cs != "1" else f"x^{i}")
    return " + ".join(terms)


# (p, n, big-factor degrees, small-factor degrees). Trial factoring finds the
# small factors and then tries every monic candidate of degree <= big/2
# against the big irreducible factor alone, so its work is fixed by the shape
# and not by where a factor happens to fall in enumeration order.
FP_ZREP_SLOTS = (
    (31, 13, (6, 7), (1, 2)),
    (31, 14, (6, 7), (1, 2)),
    (31, 15, (6, 7), (1, 2)),
    (101, 10, (4, 5), (1,)),
    (101, 11, (4, 5), (1,)),
    (101, 12, (4, 5), (1,)),
)


def fp_zrep(seed: int, out: Path) -> list:
    rng = random.Random(f"fp-zrep:{seed}")
    jobs = []
    for slot, (p, n, big_degrees, small_degrees) in enumerate(FP_ZREP_SLOTS):
        big = random_irreducible(rng, rng.choice(big_degrees), p)
        blocks = [(big, 1)]
        left = n - (len(big) - 1)
        pool = []
        while left:
            d = rng.choice([d for d in small_degrees if d <= left])
            same = [q for q in pool if len(q) - 1 == d]
            if same and rng.random() < 0.3:
                q = rng.choice(same)
            else:
                q = random_irreducible(rng, d, p)
                pool.append(q)
            e = rng.randint(1, min(3, left // d))
            blocks.append((q, e))
            left -= d * e
        comps = []
        for q, e in blocks:
            qe = [1]
            for _ in range(e):
                qe = poly_mul(qe, q, p)
            comps.append(companion(qe, p))
        P, Pinv = random_invertible_mod(rng, n, p)
        m = mat_mul(mat_mul(P, block_diag(comps)), Pinv, p)
        path = out / f"matrix_{slot:02d}_f{p}_n{n}.json"
        write_json(path, {"field": {"kind": "PrimeField", "p": p},
                          "matrix": [[str(x) for x in row] for row in m]})
        counts = {}
        for q, e in blocks:
            counts[(tuple(q), e)] = counts.get((tuple(q), e), 0) + 1
        summands = sorted(f"summand F_p[x]/(({poly_str(q, p)})^{e})^{k}"
                          for (q, e), k in counts.items())
        jobs.append({"argv": ["zrep", path], "summands": summands})
    rng.shuffle(jobs)
    return jobs
