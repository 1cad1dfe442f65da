"""One workload run inside a fresh interpreter.

Drives ``hopfdual.cli.main(argv)`` in process, one job after the other (a
closed loop with one client), and checks every job's exit code, verdict,
required checks and report digest. Reads a job file written by run.py and
writes its measurements as JSON.

    python3 perfbench/child.py JOBS.json OUT.json SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, "src")
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hopfdual import cli  # noqa: E402

import tracer  # noqa: E402

TIMING = re.compile(r'^ "timing_ms": -?\d+,\n', re.M)
REPORT_START = '{\n "checks"'
MIN_PASSES = 2


def run_job(argv):
    """(seconds, exit code, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--format", "json", *argv])
    except Exception as exc:  # a job that raises is a failed job
        return time.perf_counter() - start, None, out.getvalue(), repr(exc)
    return time.perf_counter() - start, code, out.getvalue(), None


def check(job, code, stdout, error, golden):
    """(digest, reason the job failed or None)."""
    if error is not None:
        return None, f"raised {error}"
    digest = hashlib.sha256(TIMING.sub("", stdout).encode()).hexdigest()
    if code != job["exit"]:
        return digest, f"exit {code}, expected {job['exit']}"
    at = stdout.rfind(REPORT_START)
    if job["verdict"] is None:
        if at >= 0:
            return digest, "printed a report on a usage error"
    else:
        if at < 0:
            return digest, "no report"
        report = json.loads(stdout[at:])
        if report["verdict"] != job["verdict"]:
            return digest, f"verdict {report['verdict']}"
        status = {c["name"]: c for c in report["checks"]}
        for name in job.get("require", ()):
            if status.get(name, {}).get("status") != "pass":
                return digest, f"check {name!r} missing or failed"
        for name, witness in job.get("witness", {}).items():
            if status.get(name, {}).get("witness") != witness:
                return digest, f"check {name!r} witness differs"
        if "summands" in job:
            got = sorted(n for n in status if n.startswith("summand "))
            if got != job["summands"]:
                return digest, f"summands {got}"
    if golden is not None:
        key = " ".join(job["argv"])
        if golden.get(key) != digest:
            return digest, "report digest differs from the golden one"
    return digest, None


def run_pass(jobs, golden, trace=None):
    """Run the job list once: per-job seconds, digests and failures."""
    times, digests, failures = [], [], []
    for n, job in enumerate(jobs):
        if trace is not None:
            trace.job = n
        dt, code, stdout, error = run_job(job["argv"])
        digest, reason = check(job, code, stdout, error, golden)
        times.append(dt)
        digests.append(digest)
        if reason:
            failures.append(f"{' '.join(job['argv'])}: {reason}")
    return {"wall_s": sum(times), "job_s": times, "digests": digests,
            "failures": failures}


def main(argv):
    spec_path, out_path, seconds, trace = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    jobs, golden = spec["jobs"], spec["golden"]
    result = {"passes": []}
    if trace == "0":
        # At least MIN_PASSES, so that each job has a best of several; then
        # more while the next pass is expected to end within the measuring
        # time.
        started = time.perf_counter()
        while True:
            result["passes"].append(run_pass(jobs, golden))
            elapsed = time.perf_counter() - started
            if len(result["passes"]) >= MIN_PASSES and \
                    elapsed + result["passes"][-1]["wall_s"] > float(seconds):
                break
    else:
        plain = run_pass(jobs, golden)
        tr = tracer.Tracer()
        tr.install()
        first = run_pass(jobs, golden, tr)
        metrics = tr.metrics(first["wall_s"] / plain["wall_s"])
        tr.write_spans(Path(out_path).with_suffix(".spans.tsv"))
        tr.reset()
        second = run_pass(jobs, golden, tr)
        result["passes"] = [plain, first, second]
        result["metrics"] = metrics
        result["counts_repeat"] = tr.count_metrics() == {
            k: metrics[k] for k in tracer.COUNTS}
        result["traced_digests_equal"] = (
            plain["digests"] == first["digests"] == second["digests"])
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
