"""Benchmark of the paper's evaluation, end to end and layer by layer.

    python3 perfbench/run.py --workload large-odpm --seed 1 --seconds 40 --trace 0

``--trace 0`` measures end to end: a few cold set-ups in fresh
interpreters (``setup_s``), then as many untraced repetitions of the
workload as fit in ``--seconds`` (at least one).  ``--trace 1`` runs the
workload once untraced and once serially under cProfile, and reports
per-layer self time, work counters and spans (written to
``perfbench/out/``).  Every cell's payload sha256 is checked against
``digests.json``; ``--record`` (re)writes the digests of one workload and
seed from the code at hand.

Every metric is printed as ``name value unit``; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
DIGESTS = BENCH_DIR / "digests.json"

#: Cold set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: name -> (unit, better); the order in which metrics are printed.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "cells_ok_frac": ("ratio", "higher"),
}

PER_LAYER = {
    "routing.proactive.self_s": ("s", "lower"),
    "routing.proactive.updates": ("count", "lower"),
    "sim.phy.self_s": ("s", "lower"),
    "sim.phy.rx": ("count", "lower"),
    "sim.phy.rx_per_tx": ("ratio", "lower"),
    "sim.phy.rx_start_calls": ("count", "lower"),
    "sim.phy.useful_rx_frac": ("ratio", "higher"),
    "sim.phy.collided_frac": ("ratio", "lower"),
    "core.energy_model.self_s": ("s", "lower"),
    "core.energy_model.charge_calls": ("count", "lower"),
    "sim.channel.self_s": ("s", "lower"),
    "sim.channel.tx": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.events": ("count", "lower"),
    "sim.mac.self_s": ("s", "lower"),
    "sim.mac.unicast": ("count", "lower"),
    "sim.mac.broadcast": ("count", "lower"),
    "sim.mac.retry_frac": ("ratio", "lower"),
    "sim.psm.self_s": ("s", "lower"),
    "sim.psm.beacons": ("count", "lower"),
    "sim.psm.atim": ("count", "lower"),
    "routing.reactive.self_s": ("s", "lower"),
    "routing.reactive.rreq": ("count", "lower"),
    "routing.control_packets": ("count", "lower"),
    "traffic.self_s": ("s", "lower"),
    "metrics.collectors.payload_s": ("s", "lower"),
    "setup.import_s": ("s", "lower"),
    "net.topology.placement_s": ("s", "lower"),
    "sim.network.assemble_s": ("s", "lower"),
    "sim.network.run_s": ("s", "lower"),
    "experiments.parallel.utilization": ("ratio", "higher"),
    "experiments.parallel.idle_worker_s": ("s", "lower"),
    "experiments.store.writes": ("count", "lower"),
    "experiments.store.bytes": ("bytes", "lower"),
    "experiments.store.reread_s": ("s", "lower"),
    "trace.overhead": ("x", "lower"),
}


def _fail(message: str) -> None:
    print("perfbench: %s" % message, file=sys.stderr)
    raise SystemExit(2)


def load_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())


def setup_probes(workload: str, seed: int) -> list[float]:
    """``setup_s`` of ``SETUP_PROBES`` cold set-ups, each in a new process."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe_setup.py"),
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            _fail("set-up probe exited with %d" % done.returncode)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def check_reps(workload, seed: int, reps: list) -> tuple[int, list[str]]:
    """Cells attempted and failed over ``reps``.

    A cell fails when it raised, when its payload digest differs from the
    one recorded for this seed (or, for a seed with none recorded, from the
    first rep's), or when a work counter differs between reps.
    """
    expected = load_digests().get(workload.name, {}).get(str(seed))
    if expected is None:
        print(
            "perfbench: no digests recorded for %s seed %d; checking that "
            "repetitions agree" % (workload.name, seed),
            file=sys.stderr,
        )
        expected = reps[0].digests
    labels = [cell.label for cell in workload.cells(seed)]
    failed = []
    for index, rep in enumerate(reps):
        for label in labels:
            reason = None
            if label not in rep.digests:
                reason = "no result"
            elif rep.digests[label] != expected.get(label):
                reason = "payload digest differs"
            else:
                first = reps[0].counters.get(label, {})
                mine = rep.counters[label]
                shared = first.keys() & mine.keys()
                if any(first[key] != mine[key] for key in shared):
                    reason = "work counters differ from repetition 1"
            if reason:
                failed.append("rep %d %s: %s" % (index + 1, label, reason))
    return len(labels) * len(reps), failed


def end_to_end(harness, workload, seed: int, seconds: float) -> tuple[dict, list]:
    setups = setup_probes(workload.name, seed)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(harness.run_workload(workload, seed))
        elapsed = time.perf_counter() - start
        if elapsed + reps[-1].wall_s > seconds:
            break
    metrics = {
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "setup_s": statistics.median(setups),
        "events_per_s": statistics.median(
            rep.events / rep.simulate_s for rep in reps
        ),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    return metrics, reps


def per_layer(harness, workload, seed: int, import_s: float) -> tuple[dict, list]:
    untraced = harness.run_workload(workload, seed)
    traced, stats = harness.run_traced(workload, seed)
    harness.write_spans(
        harness.OUT_DIR / ("spans-%s-seed%d.json" % (workload.name, seed)), traced
    )
    self_s, calls = harness.profile_layers(stats)
    work = traced.totals()
    sweep = untraced.sweep
    if workload.pooled:
        # The pool's busy worker-seconds stand in for an untraced serial run.
        busy_s = untraced.wall_s * harness.CAMPAIGN_JOBS * sweep.get("utilization", 0.0)
    else:
        busy_s = untraced.wall_s

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "routing.proactive.self_s": self_s.get("routing.proactive", 0.0),
        "routing.proactive.updates": work["dv_updates"],
        "sim.phy.self_s": self_s.get("sim.phy", 0.0),
        "sim.phy.rx": work["rx"],
        "sim.phy.rx_per_tx": ratio(work["rx"], work["tx"]),
        "sim.phy.rx_start_calls": calls["rx_start"],
        "sim.phy.useful_rx_frac": ratio(work["rx"], calls["rx_start"]),
        "sim.phy.collided_frac": ratio(work["collided"], calls["rx_start"]),
        "core.energy_model.self_s": self_s.get("core.energy_model", 0.0),
        "core.energy_model.charge_calls": calls["charge"],
        "sim.channel.self_s": self_s.get("sim.channel", 0.0),
        "sim.channel.tx": work["tx"],
        "sim.engine.self_s": self_s.get("sim.engine", 0.0),
        "sim.engine.events": work["events"],
        "sim.mac.self_s": self_s.get("sim.mac", 0.0),
        "sim.mac.unicast": work["mac_unicast"],
        "sim.mac.broadcast": work["mac_broadcast"],
        "sim.mac.retry_frac": ratio(
            work["mac_retries"], work["mac_retries"] + work["mac_unicast"]
        ),
        "sim.psm.self_s": self_s.get("sim.psm", 0.0),
        "sim.psm.beacons": work["beacons"],
        "sim.psm.atim": work["atim"],
        "routing.reactive.self_s": self_s.get("routing.reactive", 0.0),
        "routing.reactive.rreq": work["rreq"],
        "routing.control_packets": work["control_packets"],
        "traffic.self_s": sum(
            seconds for module, seconds in self_s.items()
            if module == "traffic" or module.startswith("traffic.")
        ),
        "metrics.collectors.payload_s": traced.span_total(
            "metrics.collectors.payload_s"
        ),
        "setup.import_s": import_s,
        "net.topology.placement_s": traced.span_total("net.topology.placement_s"),
        "sim.network.assemble_s": traced.span_total("sim.network.assemble_s"),
        "sim.network.run_s": traced.span_total("sim.network.run_s"),
        "experiments.parallel.utilization": sweep.get("utilization", 0.0),
        "experiments.parallel.idle_worker_s": sweep.get("idle_worker_s", 0.0),
        "experiments.store.writes": sweep.get("writes", 0),
        "experiments.store.bytes": sweep.get("bytes", 0),
        "experiments.store.reread_s": sweep.get("reread_s", 0.0),
        "trace.overhead": ratio(traced.wall_s, busy_s),
    }
    shares = sorted(self_s.items(), key=lambda item: -item[1])
    total = sum(self_s.values())
    print("self time by module (traced, serial): %.2f s" % total, file=sys.stderr)
    for module, seconds in shares[:12]:
        print("  %-28s %7.2f s  %5.1f%%" % (module, seconds, 100 * seconds / total),
              file=sys.stderr)
    return metrics, [untraced, traced]


def record(harness, workload, seed: int) -> None:
    rep = harness.run_workload(workload, seed)
    if len(rep.digests) != len(workload.cells(seed)) or harness.campaign_checks(
        workload, seed, rep
    ):
        _fail("not recording: a cell failed")
    digests = load_digests()
    digests.setdefault(workload.name, {})[str(seed)] = dict(sorted(rep.digests.items()))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("recorded %d digests for %s seed %d" % (len(rep.digests), workload.name, seed))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this workload's digests for --seed")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail("no repro sources at %s; run from a full checkout" % SRC)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    t0 = time.perf_counter()
    import harness
    import_s = time.perf_counter() - t0

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        _fail("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(harness.WORKLOADS)))
    if args.record:
        record(harness, workload, args.seed)
        return

    if args.trace:
        metrics, reps = per_layer(harness, workload, args.seed, import_s)
        units = PER_LAYER
    else:
        metrics, reps = end_to_end(harness, workload, args.seed, args.seconds)
        units = END_TO_END
    attempted, failed = check_reps(workload, args.seed, reps)
    problems = failed + [
        problem for rep in reps if rep.sweep
        for problem in harness.campaign_checks(workload, args.seed, rep)
    ]
    for problem in problems:
        print("perfbench: FAILED %s" % problem, file=sys.stderr)
    if not args.trace:
        metrics["cells_ok_frac"] = 1.0 - len(failed) / attempted

    for name, (unit, _) in units.items():
        print("%-36s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in units.items()
        },
    }))


if __name__ == "__main__":
    main()
