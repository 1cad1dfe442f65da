"""Golden reports: every command's ``--format json`` output, with
``timing_ms`` removed, must match the SHA-256 digests recorded in
``golden_reports.json`` byte for byte.

The cases cover every command that computes, over Q and over prime fields,
on corpus files and on the seeded files in ``tests/data`` (conjugated
modules with fractional entries, their invariant subspaces, sl2 over F_7
and conjugated block-companion matrices over F_31 and F_2). Paths are relative to
the repository root, as the report prints them. After an intended output
change, rewrite the digests with

    python tests/test_golden_reports.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
TIMING = re.compile(r'^ "timing_ms": -?\d+,\n', re.M)
C = "src/hopfdual/corpus/"
D = "tests/data/"

CASES = [
    ["verify", C + "rg_s3.json"],
    ["verify", C + "fn_d4.json"],
    ["verify", C + "divided_power_8.json"],
    ["verify", C + "rg_z4_f5.json"],
    ["verify", C + "bad_counit_law.json"],
    ["dualize", C + "rg_d4.json"],
    ["dualize", C + "divided_power_4.json"],
    ["dualize", C + "rg_z4_f5.json"],
    ["cartier", C + "monoid_s3.json"],
    ["cartier", C + "monoid_d4.json", "--p", "7"],
    ["cartier", C + "monoid_z4.json", "--p", "5"],
    ["points", C + "monoid_z4.json", "--p", "5"],
    ["points", C + "monoid_z2xz2.json", "--p", "7"],
    ["points", C + "rg_z4_f5.json", "--p", "5"],
    ["reynolds", C + "rep_s3_regular.json"],
    ["reynolds", C + "rep_d4_regular.json"],
    ["reynolds", C + "rep_z2_f2_unipotent.json"],
    ["reynolds", D + "rep_d4_conj_q.json"],
    ["reynolds", D + "rep_s3_conj_f7.json"],
    ["exactness", D + "rep_d4_conj_q.json", D + "quotient_d4_conj_q.json"],
    ["exactness", D + "rep_s3_conj_f7.json", D + "quotient_s3_conj_f7.json"],
    ["exactness", C + "rep_z2_f2_unipotent.json", C + "quotient_z2_f2.json"],
    ["pbw", C + "lie_sl2.json", "--order", "3"],
    ["pbw", C + "lie_sl2.json", "--order", "4"],
    ["pbw", C + "lie_sl2.json", "--order", "5"],
    ["pbw", C + "lie_heisenberg.json", "--order", "3"],
    ["pbw", C + "lie_heisenberg.json", "--order", "5"],
    ["pbw", C + "lie_sl2_bad.json", "--order", "2"],
    ["pbw", D + "lie_sl2_f7.json", "--order", "3"],
    ["tannaka", C + "monoid_s3.json"],
    ["tannaka", C + "monoid_s3.json", C + "rep_s3_sign.json",
     C + "rep_s3_standard.json"],
    ["tannaka", C + "monoid_d4.json", D + "rep_d4_conj_q.json"],
    ["tannaka", C + "monoid_z4.json", "--p", "5"],
    ["tannaka", C + "monoid_s3.json", D + "rep_s3_conj_f7.json", "--p", "7"],
    ["zrep", C + "matrix_f5.json"],
    ["zrep", D + "matrix_f31.json"],
    ["zrep", D + "matrix_f2.json"],
    ["formal-matrices", "--n", "1", "--order", "3"],
    ["formal-matrices", "--n", "2", "--order", "3"],
    ["formal-matrices", "--n", "3", "--order", "4"],
    ["verify", C + "divided_power_4.json"],
    ["dist", "--preset", "ga", "--order", "4"],
    ["dist", "--preset", "gm", "--order", "4"],
    ["dist", "--preset", "u2", "--order", "4"],
]


def case_id(argv) -> str:
    return " ".join(argv)


def run_json(argv):
    """Exit code and SHA-256 of the JSON report, timing removed, run from
    the repository root."""
    from hopfdual.cli import main  # after --record has put src/ on the path
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(["--format", "json", *argv])
    finally:
        os.chdir(cwd)
    text = TIMING.sub("", out.getvalue())
    return code, hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert sorted(load_golden()) == sorted(case_id(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_report_matches_golden(argv):
    want = load_golden()[case_id(argv)]
    code, digest = run_json(argv)
    assert code == want["exit"]
    assert digest == want["sha256"]


def record() -> None:
    golden = {}
    for argv in CASES:
        code, digest = run_json(argv)
        golden[case_id(argv)] = {"exit": code, "sha256": digest}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))
    record()
