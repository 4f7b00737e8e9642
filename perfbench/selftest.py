"""Self-test of the benchmark: its work counters must repeat exactly.

    python3 perfbench/selftest.py [--seed 1] [--workload NAME ...]

Checks, for each workload (default: all):

1. ``BENCHMARK.json`` names only workloads ``harness.py`` defines, and
   the metrics, with their units, that ``run.py`` prints.
2. Two ``run.py --trace 1`` runs in fresh processes both report
   ``correct`` — inside each, the traced and untraced repetitions agree on
   every cell's payload digest and work counters — and report identical
   values for every count, and for every ratio derived from counts.
3. For the campaign: sweeping with ``jobs=1`` and with ``jobs=2`` into
   fresh stores writes the same cells with the same payload digests, event
   counts and store behaviour.

Takes about twice the traced run time of the chosen workloads.  Exits 0
when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import run  # noqa: E402

#: Ratios that depend on timing, not only on counts.
TIMED_RATIOS = {"experiments.parallel.utilization", "trace.overhead"}


def check_manifest() -> list[str]:
    manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    problems = [
        "BENCHMARK.json workload %s is not in harness.WORKLOADS" % w["name"]
        for w in manifest["workloads"]
        if w["name"] not in harness.WORKLOADS
    ]
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in manifest[key]}
        if listed != table:
            problems.append("%s metrics differ from run.py" % key)
    return problems


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit("run.py --trace 1 exited with %d" % done.returncode)
    return json.loads(done.stdout.splitlines()[-1])


def check_repeat(workload: str, seed: int) -> list[str]:
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = [
        "%s: run %d not correct" % (workload, index)
        for index, result in enumerate((first, second), 1)
        if not result["correct"]
    ]
    for name, (unit, _) in run.PER_LAYER.items():
        deterministic = unit == "count" or (unit == "ratio" and name not in TIMED_RATIOS)
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if deterministic and a != b:
            problems.append("%s: %s differs between runs (%s vs %s)" % (workload, name, a, b))
    return problems


def check_jobs(workload, seed: int) -> list[str]:
    serial = harness.run_campaign(workload, seed, jobs=1)
    pooled = harness.run_campaign(workload, seed, jobs=2)
    problems = []
    for name, rep in (("jobs=1", serial), ("jobs=2", pooled)):
        problems += ["%s: %s" % (name, p) for p in harness.campaign_checks(workload, seed, rep)]
    if serial.digests != pooled.digests:
        problems.append("payload digests differ between jobs=1 and jobs=2")
    if serial.counters != pooled.counters:
        problems.append("event counts differ between jobs=1 and jobs=2")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(harness.WORKLOADS))
    args = parser.parse_args()

    problems = check_manifest()
    for name in args.workload:
        workload = harness.WORKLOADS[name]
        problems += check_repeat(name, args.seed)
        if workload.pooled:
            problems += check_jobs(workload, args.seed)
        print("checked %s" % name, flush=True)
    for problem in problems:
        print("FAIL %s" % problem)
    if problems:
        raise SystemExit(1)
    print("ok: counters repeat across runs, traced/untraced and jobs=1/jobs=2")


if __name__ == "__main__":
    main()
