#!/usr/bin/env python3
"""hopfdual benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --record-golden

Run from the root of a hopfdual checkout. The workload's inputs are made
from the seed under .bench_work/, the jobs run in a fresh child interpreter
(child.py), and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones from a separate
traced run. ``--record-golden`` rewrites golden.json from the current
program at the default seed. README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as workloads  # noqa: E402
import tracer  # noqa: E402

DEFAULT_SEED = 1
GOLDEN = HERE / "golden.json"
WORK = Path(".bench_work")
SETUP_SPAWNS = 12
CHILD_TIMEOUT_S = 170
READY = ("import sys; sys.path.insert(0, 'src'); import hopfdual.cli; "
         "hopfdual.cli.build_parser(); print('ready', flush=True)")


def setup_samples(count: int) -> list:
    """Seconds from starting a fresh interpreter until hopfdual.cli is
    imported and its parser built, once per start."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("hopfdual.cli failed to import")
        samples.append(ready - start)
    return samples


def load_golden() -> dict:
    if GOLDEN.is_file():
        return json.loads(GOLDEN.read_text(encoding="utf-8"))["workloads"]
    return {}


def run_child(name, seed, seconds, trace, golden):
    """Make the inputs, run the child interpreter, return its result."""
    work = WORK / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job_list = workloads.WORKLOADS[name](seed, work)
    spec = work / "jobs.json"
    spec.write_text(json.dumps({"jobs": job_list, "golden": golden}),
                    encoding="utf-8")
    out = work / ("trace.json" if trace else "result.json")
    subprocess.run([sys.executable, str(HERE / "child.py"), str(spec),
                    str(out), str(seconds), str(trace)],
                   check=True, timeout=CHILD_TIMEOUT_S)
    return job_list, json.loads(out.read_text(encoding="utf-8"))


def record_golden() -> None:
    """Digest every job's report at the default seed and store them."""
    out = {}
    for name in workloads.WORKLOADS:
        job_list, result = run_child(name, DEFAULT_SEED, 0, 0, None)
        passes = result["passes"]
        failures = [f for p in passes for f in p["failures"]]
        if failures:
            sys.exit(f"{name}: jobs failed, golden digests not written:\n"
                     + "\n".join(failures))
        if any(p["digests"] != passes[0]["digests"] for p in passes):
            sys.exit(f"{name}: reports differ between passes, golden "
                     "digests not written")
        out[name] = {" ".join(j["argv"]): d for j, d in
                     zip(job_list, passes[0]["digests"])}
        print(f"{name}: {len(job_list)} digests")
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": out},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if not Path("src/hopfdual/cli.py").is_file():
        print("error: run from the root of a hopfdual checkout "
              "(src/hopfdual/cli.py not found)", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    name = args.workload
    golden = None
    if name in workloads.SEED_FREE or args.seed == DEFAULT_SEED:
        golden = load_golden().get(name)
        if golden is None:
            print(f"error: no golden digests for {name}; run with "
                  "--record-golden", file=sys.stderr)
            return 2
    # One unmeasured start writes the bytecode caches, which a user pays
    # once. Half the set-up samples are taken after the workload, so that
    # a slow spell of the machine touches fewer of them.
    setup_samples(1)
    setup = setup_samples(SETUP_SPAWNS // 2)
    job_list, result = run_child(name, args.seed, args.seconds, args.trace,
                                 golden)
    setup += setup_samples(SETUP_SPAWNS - len(setup))
    setup_s = statistics.median(setup)
    passes = result["passes"]
    attempted = sum(len(p["job_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}")
    correct = not failures
    if args.trace:
        metrics = {name_: {"value": result["metrics"][name_], "unit": unit}
                   for name_, unit in tracer.METRICS}
        if not result["counts_repeat"]:
            print("FAILED count metrics differ between two traced passes")
            correct = False
        if not result["traced_digests_equal"]:
            print("FAILED traced report digests differ from untraced ones")
            correct = False
        print(f"traced run: {len(job_list)} jobs; one untraced pass, two "
              f"traced passes; spans in {WORK}/{name}-s{args.seed}/")
    else:
        # Each job's time is its best over the passes. On a shared machine
        # the speed flips between two levels about 1.5x apart for spells of
        # 1 to 15 s, and the slow share of a run varies from a fifth to
        # two thirds, so a per-job median flips with it; the best of the
        # passes stays on the fast level.
        best = [min(times) for times in zip(*(p["job_s"] for p in passes))]
        metrics = {
            "wall_s": {"value": sum(best), "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(best),
                           "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{name}: {len(job_list)} jobs per pass, {len(passes)} passes; "
              f"job_p50_ms is over {len(best)} per-job best times")
        if len(job_list) >= 100:
            p90 = 1000 * statistics.quantiles(best, n=10)[-1]
            print(f"  job_p90_ms {p90:.3f} ms ({len(best)} samples)")
        print(f"  failed_frac {len(failures) / attempted:.4f} "
              f"({len(failures)}/{attempted})")
    for name_, m in metrics.items():
        print(f"  {name_} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
