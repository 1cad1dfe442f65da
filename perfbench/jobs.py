"""Job lists of the three workloads.

A job is one ``hopfdual`` command line plus the outcome it must produce:
``exit`` (0 pass, 1 a check failed, 2 usage or input error), the report
``verdict`` (None when no report is printed), check names that must be
present and pass (``require``), and exact check witnesses (``witness``).
"""

from __future__ import annotations

import random
from pathlib import Path

import gen

CORPUS = Path("src/hopfdual/corpus")

ORACLE = "straightening agrees with the tensor-algebra oracle"


def job(argv, exit=0, require=(), witness=None, summands=None):
    verdict = {0: "pass", 1: "fail", 2: None}[exit]
    out = {"argv": [str(a) for a in argv], "exit": exit, "verdict": verdict}
    if require:
        out["require"] = list(require)
    if witness:
        out["witness"] = witness
    if summands is not None:
        out["summands"] = summands
    return out


def _corpus(prefix):
    return sorted(CORPUS.glob(prefix + "*.json"))


# Commutative monoids: `points` accepts only these.
COMMUTATIVE = ("monoid_bool", "monoid_z2", "monoid_z2xz2", "monoid_z3",
               "monoid_z4", "monoid_z5", "monoid_z6", "monoid_z7",
               "monoid_z8")


def corpus_sweep(seed: int, out: Path) -> list:
    """Every command on every shipped file it accepts, the deliberately
    broken files (exit 1) and malformed invocations (exit 2)."""
    jobs = [job(["canonicalize", f]) for f in sorted(CORPUS.glob("*.json"))]
    for f in _corpus("rg_") + _corpus("fn_") + _corpus("divided_power_") \
            + _corpus("bad_"):
        # divided-power truncations fail compatibility at the degree
        # boundary by design; the bad_* files are corrupted on purpose
        broken = f.name.startswith(("bad_", "divided_power_"))
        jobs.append(job(["verify", f], exit=1 if broken else 0))
        jobs.append(job(["dualize", f]))
    for f in _corpus("monoid_"):
        jobs.append(job(["cartier", f]))
        jobs.append(job(["cartier", f, "--p", "7"]))
        jobs.append(job(["tannaka", f]))
        if f.stem in COMMUTATIVE:
            jobs.append(job(["points", f, "--p", "5"]))
            jobs.append(job(["points", f, "--p", "7"]))
    jobs.append(job(["points", CORPUS / "rg_z4_f5.json", "--p", "5"]))
    s3_reps = [CORPUS / f"rep_s3_{k}.json"
               for k in ("trivial", "sign", "standard")]
    jobs.append(job(["tannaka", CORPUS / "monoid_s3.json", *s3_reps]))
    jobs.append(job(["tannaka", CORPUS / "monoid_d4.json",
                     CORPUS / "rep_d4_regular.json"]))
    for f in _corpus("rep_"):
        # |G| = 2 vanishes in F_2: no invariant integral, exit 1
        jobs.append(job(["reynolds", f],
                        exit=1 if f.stem == "rep_z2_f2_unipotent" else 0))
    # the unipotent counterexample: invariants do not surject
    jobs.append(job(["exactness", CORPUS / "rep_z2_f2_unipotent.json",
                     CORPUS / "quotient_z2_f2.json"], exit=1))
    for f in _corpus("lie_"):
        for order in (1, 2, 3):
            bad = f.stem == "lie_sl2_bad"
            jobs.append(job(["pbw", f, "--order", order], exit=int(bad),
                            require=() if bad else (ORACLE,)))
    jobs.append(job(["zrep", CORPUS / "matrix_f5.json"],
                    require=("reassembled matrix is similar to the input",)))
    for preset in ("ga", "gm", "u2"):
        for order in (2, 3, 4):
            jobs.append(job(["dist", "--preset", preset, "--order", order]))
    for n, order in ((1, 3), (2, 2), (2, 3)):
        jobs.append(job(["formal-matrices", "--n", n, "--order", order]))
    malformed = [
        [],
        ["verify"],
        ["frobnicate", CORPUS / "rg_z2.json"],
        ["verify", CORPUS / "no_such_file.json"],
        ["verify", CORPUS / "monoid_z4.json"],
        ["points", CORPUS / "monoid_z4.json", "--p", "4"],
        ["points", CORPUS / "monoid_s3.json", "--p", "7"],
        ["zrep", CORPUS / "rep_s3_sign.json"],
        ["zrep", CORPUS / "matrix_f5.json", "--p", "7"],
        ["pbw", CORPUS / "lie_sl2.json", "--order", "x"],
        ["tannaka", CORPUS / "monoid_z4.json", CORPUS / "rep_s3_sign.json"],
        ["exactness", CORPUS / "rep_s3_regular.json",
         CORPUS / "rep_s3_sign.json"],
    ]
    jobs.extend(job(argv, exit=2) for argv in malformed)
    random.Random(f"corpus-sweep:{seed}").shuffle(jobs)
    return jobs


def q_reps(seed: int, out: Path) -> list:
    return [job(j["argv"], witness=j.get("witness"),
                require=("averaged operator is idempotent",)
                if j["argv"][0] == "reynolds" else ())
            for j in gen.q_reps(seed, out)]


def fp_zrep(seed: int, out: Path) -> list:
    return [job(j["argv"], summands=j["summands"],
                require=("reassembled matrix is similar to the input",))
            for j in gen.fp_zrep(seed, out)]


WORKLOADS = {
    "corpus-sweep": corpus_sweep,
    "q-reps": q_reps,
    "fp-zrep": fp_zrep,
}

# Workloads whose inputs do not depend on the seed: their golden report
# digests hold on every seed, not only the default one.
SEED_FREE = ("corpus-sweep",)
