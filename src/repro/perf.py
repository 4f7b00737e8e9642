"""Performance observability: profiling helpers and kernel benchmarks.

Two audiences:

* **Humans hunting regressions** — every CLI command accepts ``--profile``,
  which wraps the command in :mod:`cProfile` and prints a top-N hot-spot
  report (optionally dumping the raw stats for ``snakeviz``/``pstats``).
  :func:`profile_call` is the library form of the same thing.
* **The perf trajectory** — :func:`run_kernel_benchmarks` measures
  events-per-second throughput of the simulation kernel at three altitudes
  (bare scheduler, scheduler under timer-restart churn, and a full §5.2
  fig8-style cell) and :func:`write_benchmark_report` serializes the result
  to ``BENCH_kernel.json``.  CI runs ``python -m repro perf`` on every push
  and uploads that file as an artifact, so each PR records the throughput
  it inherited and the throughput it ships.
  :func:`run_scale_benchmarks` does the same for the node axis (freeze,
  mobility repair and large-grid cells, ``BENCH_scale.json`` via
  ``python -m repro perf-scale``).

Wall-clock numbers are machine-dependent; the JSON therefore records the
interpreter and platform next to every figure.  Events-per-second is the
metric of record because it is what the ROADMAP's "as fast as the hardware
allows" north star constrains: a fixed scenario always schedules the same
event sequence, so throughput differences are pure kernel/hot-path speed.
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import sys
import time
from typing import Any, Callable, TextIO

#: Bump when the report layout changes.
BENCH_FORMAT_VERSION = 1

#: Default location of the committed baseline, relative to the repo root.
DEFAULT_REPORT_PATH = "BENCH_kernel.json"


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def profile_call(
    func: Callable[[], Any],
    top: int = 25,
    sort: str = "cumulative",
    dump_path: str | None = None,
) -> tuple[Any, str]:
    """Run ``func`` under :mod:`cProfile`; return ``(result, report)``.

    ``report`` is the top-``top`` table sorted by ``sort`` (any key
    :mod:`pstats` accepts: ``cumulative``, ``tottime``, ``calls`` ...).
    ``dump_path`` additionally saves the raw profile for later analysis
    with ``pstats.Stats(path)`` or snakeviz.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = func()
    finally:
        profiler.disable()
    if dump_path:
        profiler.dump_stats(dump_path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    return result, buffer.getvalue()


def print_profile_report(
    report: str, dump_path: str | None = None, stream: TextIO | None = None
) -> None:
    """Print a :func:`profile_call` report (to stderr by default)."""
    stream = stream if stream is not None else sys.stderr
    print(report, file=stream)
    if dump_path:
        print(
            "raw profile dumped to %s (inspect with python -m pstats, or "
            "snakeviz)" % dump_path,
            file=stream,
        )


# ----------------------------------------------------------------------
# Kernel benchmarks
# ----------------------------------------------------------------------
def _bench_schedule_fire(events: int) -> dict:
    """Raw schedule-then-fire throughput of the bare event kernel."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    start = time.perf_counter()
    schedule = sim.schedule
    noop = lambda: None  # noqa: E731 - deliberate minimal callback
    for i in range(events):
        schedule(i * 1e-6, noop)
    sim.run()
    seconds = time.perf_counter() - start
    return {
        "events": sim.events_processed,
        "seconds": seconds,
        "events_per_second": sim.events_processed / seconds if seconds else 0.0,
    }


def _bench_timer_churn(timers: int, restarts: int) -> dict:
    """Scheduler throughput under Timer.restart churn.

    Exercises the cancellation skip-count and heap compaction: each restart
    leaves a dead entry behind, which the naive kernel kept until the end
    of the run.  Throughput counts restarts + fires per wall second.
    """
    from repro.sim.engine import Simulator, Timer

    sim = Simulator()
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    start = time.perf_counter()
    pool = [Timer(sim, tick) for _ in range(timers)]
    for round_no in range(restarts):
        for timer in pool:
            timer.restart(1.0 + round_no * 1e-3)
        sim.run(until=0.5 + round_no * 1e-3)
    sim.run()
    seconds = time.perf_counter() - start
    operations = timers * restarts + fired[0]
    return {
        "timers": timers,
        "restarts": restarts,
        "operations": operations,
        "seconds": seconds,
        "events_per_second": operations / seconds if seconds else 0.0,
        "final_queue_size": sim.queue_size(),
    }


def _bench_fig8_cell(rate_kbps: float, seed: int) -> dict:
    """Events-per-second of one full fig8 (small-network) smoke cell.

    This is the end-to-end number: kernel dispatch plus channel fan-out,
    PHY state machine, MAC transactions, routing and energy accounting —
    the same stack every §5.2 grid cell pays.
    """
    from repro.experiments.runner import run_single
    from repro.experiments.scenarios import small_network

    scenario = small_network(scale="smoke")
    start = time.perf_counter()
    result = run_single(scenario, "DSR-ODPM", rate_kbps, seed)
    seconds = time.perf_counter() - start
    return {
        "scenario": "small-network/smoke",
        "protocol": "DSR-ODPM",
        "rate_kbps": rate_kbps,
        "seed": seed,
        "events": result.events_processed,
        "seconds": seconds,
        "events_per_second": (
            result.events_processed / seconds if seconds else 0.0
        ),
        "simulated_seconds_per_second": (
            scenario.duration / seconds if seconds else 0.0
        ),
    }


def _scale_positions(node_count: int) -> dict[int, tuple[float, float]]:
    """Uniform-random positions at the paper's Table 2 density.

    ~1300 m field at 300 nodes (the Table 2 density), scaled so every
    node count keeps the same nodes-per-km^2, without the connectivity
    re-draw — the geometry benchmarks
    measure the pair scan, and requiring connectivity at 5k nodes would
    spend minutes drawing placements instead.
    """
    import random as _random

    from repro.net.topology import uniform_random_placement

    field = 1300.0 * (node_count / 300.0) ** 0.5
    rng = _random.Random("perf-scale/%d" % node_count)
    return uniform_random_placement(node_count, field, field, rng).positions


def _bench_scale_freeze(node_counts: tuple[int, ...]) -> dict:
    """Freeze-time spatial hash against the reference, plus identity check.

    Times :meth:`ChannelGeometry.from_positions` per method — ``grid``
    (the cell-list spatial hash) and ``bruteforce`` (the pure-python
    O(N^2) reference) — on the same positions, best-of-N (best-of-1 for
    brute force above 2k nodes: the reference path is quadratic and exists to be compared against, not
    lingered in).  Every entry records ``verified_identical``: the grid
    and brute-force geometries are compared table-for-table before the
    timings are trusted.
    """
    import time as _time

    from repro.sim.channel import ChannelGeometry

    max_range = 250.0  # the paper's Cabletron range
    results = {}
    for node_count in node_counts:
        positions = _scale_positions(node_count)

        def time_method(method: str, reps: int):
            best, geometry = None, None
            for _ in range(reps):
                start = _time.perf_counter()
                geometry = ChannelGeometry.from_positions(
                    positions, max_range, method=method
                )
                elapsed = _time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            return best, geometry

        grid_seconds, grid_geometry = time_method("grid", 3)
        brute_reps = 3 if node_count <= 2000 else 1
        brute_seconds, brute_geometry = time_method("bruteforce", brute_reps)
        identical = (
            grid_geometry.dists == brute_geometry.dists
            and grid_geometry.dist_ranks == brute_geometry.dist_ranks
            and grid_geometry.ranks == brute_geometry.ranks
            and grid_geometry.ids == brute_geometry.ids
        )
        results["nodes_%d" % node_count] = {
            "node_count": node_count,
            "grid_seconds": grid_seconds,
            "bruteforce_seconds": brute_seconds,
            "speedup_vs_bruteforce": (
                brute_seconds / grid_seconds if grid_seconds else 0.0
            ),
            "verified_identical": identical,
        }
    return results


def _bench_scale_mobility(node_counts: tuple[int, ...], moves: int) -> dict:
    """Mobility-repair cost per move: spatial index on vs off.

    Builds two frozen channels over identical positions (``spatial_index``
    forced on / off), applies the same random move script to both, and
    times the ``update_position`` loop.  The resulting tables are compared
    afterwards — the benchmark doubles as a scale-sized equivalence check
    (``verified_identical``).
    """
    import random as _random
    import time as _time

    from repro.core.energy_model import NodeEnergy
    from repro.core.radio import CABLETRON
    from repro.sim.channel import Channel
    from repro.sim.engine import Simulator
    from repro.sim.phy import Phy

    results = {}
    for node_count in node_counts:
        positions = _scale_positions(node_count)
        field = 1300.0 * (node_count / 300.0) ** 0.5

        def build(spatial: bool) -> Channel:
            sim = Simulator(seed=1)
            channel = Channel(
                sim, positions, CABLETRON.max_range, spatial_index=spatial
            )
            for node_id in positions:
                Phy(sim, channel, node_id, CABLETRON, NodeEnergy(card=CABLETRON))
            channel.freeze()
            return channel

        rng = _random.Random("perf-scale-moves/%d" % node_count)
        script = [
            (
                rng.randrange(node_count),
                (rng.uniform(0, field), rng.uniform(0, field)),
            )
            for _ in range(moves)
        ]

        def time_moves(channel: Channel) -> float:
            start = _time.perf_counter()
            update = channel.update_position
            for mover, target in script:
                update(mover, target)
            return _time.perf_counter() - start

        indexed_channel = build(True)
        full_channel = build(False)
        indexed_seconds = time_moves(indexed_channel)
        full_seconds = time_moves(full_channel)
        identical = all(
            indexed_channel._tables[node_id].dists
            == full_channel._tables[node_id].dists
            and indexed_channel._tables[node_id].ids
            == full_channel._tables[node_id].ids
            for node_id in positions
        ) and indexed_channel.link_changes == full_channel.link_changes
        results["nodes_%d" % node_count] = {
            "node_count": node_count,
            "moves": moves,
            "indexed_seconds": indexed_seconds,
            "full_seconds": full_seconds,
            "per_move_indexed_ms": indexed_seconds / moves * 1e3,
            "per_move_full_ms": full_seconds / moves * 1e3,
            "repair_speedup": (
                full_seconds / indexed_seconds if indexed_seconds else 0.0
            ),
            "verified_identical": identical,
        }
    return results


def _bench_large_grid_cell(node_count: int) -> dict:
    """One full ``large_grid`` smoke cell, end to end, at ``node_count``.

    Times assembly (placement -> wired network, including the frozen
    geometry pass) and the simulation separately, and reports the columnar
    node-state summary the run leaves behind — the number the acceptance
    bar "a 5k-node cell completes in minutes, not hours" tracks.
    """
    import time as _time

    from repro.experiments.scenarios import large_grid
    from repro.sim.network import WirelessNetwork

    scenario = large_grid(node_count, scale="smoke")
    config = scenario.config("DSR-Active", scenario.rates_kbps[0], 1)
    start = _time.perf_counter()
    network = WirelessNetwork(config)
    assembled = _time.perf_counter()
    result = network.run()
    finished = _time.perf_counter()
    state_summary = network.node_state_snapshot().summary()
    run_seconds = finished - assembled
    return {
        "scenario": scenario.name,
        "node_count": node_count,
        "protocol": "DSR-Active",
        "duration": scenario.duration,
        "assembly_seconds": assembled - start,
        "run_seconds": run_seconds,
        "total_seconds": finished - start,
        "events": result.events_processed,
        "events_per_second": (
            result.events_processed / run_seconds if run_seconds else 0.0
        ),
        "delivery_ratio": result.delivery_ratio,
        "mean_node_energy_j": (
            state_summary["energy_total"] / node_count if node_count else 0.0
        ),
    }


def run_scale_benchmarks(
    node_counts: tuple[int, ...] = (1000, 2000, 5000),
    moves: int = 200,
    cell_nodes: tuple[int, ...] = (1024, 5041),
) -> dict:
    """Node-axis scaling report (``BENCH_scale.json``).

    Three sections: freeze-time spatial hash vs the brute-force
    reference (with identity verification), per-move mobility-repair
    cost (live spatial index on vs off), and full end-to-end ``large_grid`` smoke cells.  CI runs
    ``python -m repro perf-scale`` per push and uploads the report as
    ``BENCH_scale_ci.json``; the committed ``BENCH_scale.json`` is the
    dev-machine baseline quoted in ``docs/performance.md``.
    """
    return {
        "version": BENCH_FORMAT_VERSION,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "benchmarks": {
            "freeze_scaling": _bench_scale_freeze(node_counts),
            "mobility_repair": _bench_scale_mobility(node_counts, moves),
            "large_grid_cell": {
                "nodes_%d" % count: _bench_large_grid_cell(count)
                for count in cell_nodes
            },
        },
    }


def format_scale_report(report: dict) -> str:
    """Aligned per-node-count lines of a scale benchmark report."""
    lines = [
        "Node-axis scaling (%s %s, %s)"
        % (report["implementation"], report["python"], report["platform"])
    ]
    benchmarks = report["benchmarks"]
    lines.append("  freeze (grid vs bruteforce):")
    for _name, entry in sorted(
        benchmarks["freeze_scaling"].items(),
        key=lambda item: item[1]["node_count"],
    ):
        lines.append(
            "    %5d nodes: grid %7.1f ms, brute %8.1f ms  (%.1fx%s)"
            % (
                entry["node_count"],
                entry["grid_seconds"] * 1e3,
                entry["bruteforce_seconds"] * 1e3,
                entry["speedup_vs_bruteforce"],
                "" if entry["verified_identical"] else "; MISMATCH",
            )
        )
    lines.append("  mobility repair (per move, indexed vs full patch):")
    for _name, entry in sorted(
        benchmarks["mobility_repair"].items(),
        key=lambda item: item[1]["node_count"],
    ):
        lines.append(
            "    %5d nodes: indexed %7.3f ms, full %7.3f ms  (%.1fx%s)"
            % (
                entry["node_count"],
                entry["per_move_indexed_ms"],
                entry["per_move_full_ms"],
                entry["repair_speedup"],
                "" if entry["verified_identical"] else "; MISMATCH",
            )
        )
    lines.append("  large_grid smoke cells (end to end):")
    for _name, entry in sorted(
        benchmarks["large_grid_cell"].items(),
        key=lambda item: item[1]["node_count"],
    ):
        lines.append(
            "    %5d nodes: assembly %6.2f s, run %6.2f s, "
            "%9.0f events/s, delivery %.3f"
            % (
                entry["node_count"],
                entry["assembly_seconds"],
                entry["run_seconds"],
                entry["events_per_second"],
                entry["delivery_ratio"],
            )
        )
    return "\n".join(lines)


def run_kernel_benchmarks(
    events: int = 200_000,
    timers: int = 200,
    restarts: int = 100,
    rate_kbps: float = 8.0,
    seed: int = 1,
) -> dict:
    """Run the three kernel benchmarks and return the full report dict."""
    return {
        "version": BENCH_FORMAT_VERSION,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "benchmarks": {
            "schedule_fire": _bench_schedule_fire(events),
            "timer_churn": _bench_timer_churn(timers, restarts),
            "fig8_cell": _bench_fig8_cell(rate_kbps, seed),
        },
    }


def write_benchmark_report(report: dict, path: str) -> None:
    """Serialize a :func:`run_kernel_benchmarks` report to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_benchmark_report(report: dict) -> str:
    """One aligned line per benchmark, for terminal output."""
    lines = [
        "Kernel throughput (%s %s, %s)"
        % (report["implementation"], report["python"], report["platform"])
    ]
    for name, entry in sorted(report["benchmarks"].items()):
        lines.append(
            "  %-16s %12.0f events/s  (%.3f s)"
            % (name, entry["events_per_second"], entry["seconds"])
        )
    return "\n".join(lines)
