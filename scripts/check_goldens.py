#!/usr/bin/env python3
"""Replay the golden reports on the interpreter that runs this script.

    python3 scripts/check_goldens.py

Each key of ``tests/golden_reports.json`` is a command line; it runs through
``cli.main`` in process with ``--format json``, from the repository root,
and the exit code and the SHA-256 of the report with its ``timing_ms`` line
removed are compared with the recorded ones, as
``tests/test_golden_reports.py`` does. Stdlib only, so it checks the digests
on any supported CPython, with or without pytest. Prints one line per case
that differs and exits 1 if any does, else 0.
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

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hopfdual.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_reports.json"
TIMING = re.compile(r'^ "timing_ms": -?\d+,\n', re.M)


def replay(argv):
    """Exit code and digest of the JSON report of one case."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", *argv])
    text = TIMING.sub("", out.getvalue())
    return code, hashlib.sha256(text.encode()).hexdigest()


def main_check() -> int:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    os.chdir(ROOT)
    differ = 0
    for case, want in sorted(golden.items()):
        code, digest = replay(case.split())
        if code != want["exit"]:
            print(f"{case}: exit {code}, recorded {want['exit']}")
            differ += 1
        elif digest != want["sha256"]:
            print(f"{case}: digest {digest}, recorded {want['sha256']}")
            differ += 1
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {len(golden) - differ} of {len(golden)} "
          "golden reports match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main_check())
