"""One cold set-up of a workload in a fresh interpreter; prints JSON.

``run.py`` starts this several times per run and reports the median as
``setup_s``: ``import repro`` plus all work before ``run()`` — placement,
network assembly (which freezes the channel geometry) for every serial
cell, or the parent-side scenario and store set-up of the campaign.

    python3 perfbench/probe_setup.py --workload large-odpm --seed 1
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
    t0 = time.perf_counter()
    import harness
    t1 = time.perf_counter()

    workload = harness.WORKLOADS[args.workload]
    placement_s = assemble_s = 0.0
    if workload.pooled:
        harness.OUT_DIR.mkdir(exist_ok=True)
        store_dir = tempfile.mkdtemp(prefix="probe-", dir=harness.OUT_DIR)
        try:
            t2 = time.perf_counter()
            workload.scenario(args.seed)
            harness.ResultStore(store_dir)
            assemble_s = time.perf_counter() - t2
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
    else:
        for cell in workload.cells(args.seed):
            t2 = time.perf_counter()
            placement = cell.scenario.placement(cell.instance)
            t3 = time.perf_counter()
            harness.WirelessNetwork(cell.config(placement))
            t4 = time.perf_counter()
            placement_s += t3 - t2
            assemble_s += t4 - t3
    import_s = t1 - t0
    print(json.dumps({
        "import_s": import_s,
        "placement_s": placement_s,
        "assemble_s": assemble_s,
        "setup_s": import_s + placement_s + assemble_s,
    }))


if __name__ == "__main__":
    main()
