"""Workloads, execution, counters and tracing for the repro benchmark.

Everything here drives ``repro`` through its public surface only:
``Scenario`` presets and ``Scenario.placement``/``Scenario.config``,
``WirelessNetwork(config).run()``, ``RunResult.to_payload``,
``runner.sweep(..., jobs=, store=, progress=)``, ``ResultStore``,
``ProgressReporter`` and counters the simulator keeps on public
attributes.  No dispatch or geometry option is passed, so the benchmark
measures whatever the default code path is at the commit under test.

Importing this module imports ``repro``; ``run.py`` times that import as
``setup.import_s``.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.experiments.parallel import ProgressReporter
from repro.experiments.runner import sweep
from repro.experiments.scenarios import Scenario, large_network, small_network
from repro.experiments.store import ResultStore, cell_key
from repro.net.topology import Placement
from repro.sim.network import NetworkConfig, WirelessNetwork

BENCH_DIR = Path(__file__).resolve().parent
SRC_PACKAGE = BENCH_DIR.parent / "src" / "repro"
OUT_DIR = BENCH_DIR / "out"

#: Pool size of the campaign, as ``repro fig8 --jobs 2`` runs it.
CAMPAIGN_JOBS = 2
#: The rates ``repro fig8`` sweeps at bench scale.
CAMPAIGN_RATES = (2.0, 4.0, 6.0)

now = time.perf_counter


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One simulation: a scenario instance run with one simulator seed.

    ``instance`` seeds the scenario's placement and flows; ``seed`` is the
    ``NetworkConfig.seed`` of the run.  They are equal in every cell the
    paper's runners build.
    """

    scenario: Scenario
    protocol: str
    rate_kbps: float
    instance: int
    seed: int

    @property
    def label(self) -> str:
        return "%s@%g#%d" % (self.protocol, self.rate_kbps, self.seed)

    def config(self, placement: Placement | None = None) -> NetworkConfig:
        config = self.scenario.config(
            self.protocol, self.rate_kbps, self.instance, placement=placement
        )
        return replace(config, seed=self.seed)


@dataclass(frozen=True)
class Workload:
    """A named set of cells; ``pooled`` ones run through ``runner.sweep``."""

    name: str
    scenario: Callable[[int], Scenario]
    protocols: tuple[str, ...]
    rate_kbps: tuple[float, ...]
    pooled: bool = False

    def cells(self, seed: int) -> list[Cell]:
        scenario = self.scenario(seed)
        if self.pooled:
            # runner.sweep runs the preset's own seeds 1..runs; the
            # benchmark seed picked the scenario instance (_campaign).
            pairs = [(run, run) for run in range(1, scenario.runs + 1)]
        else:
            # One fig11 cell's cost moves up to 1.6x with the placement and
            # flows a seed draws, so the serial workloads keep the seed-1
            # instance and the benchmark seed drives the simulator alone.
            pairs = [(1, seed)]
        return [
            Cell(scenario, protocol, rate, instance, cell_seed)
            for protocol in self.protocols
            for rate in self.rate_kbps
            for instance, cell_seed in pairs
        ]


def _large(duration: float) -> Callable[[int], Scenario]:
    return lambda seed: large_network("bench").scaled(duration=duration, runs=1)


def _campaign(seed: int) -> Scenario:
    # runner.sweep always runs seeds 1..runs, so the benchmark seed picks
    # the scenario instance: the name seeds the placement and flow RNG
    # streams (see scenario_fingerprint).  Seed 1 is fig8's own instance.
    scenario = small_network("bench").scaled(duration=36.0, runs=2)
    if seed != 1:
        scenario = replace(scenario, name="%s~%d" % (scenario.name, seed))
    return scenario


#: Workloads by name; README.md gives each one's reason.  ``large-dsdvh``
#: and ``large-flood`` are runnable by hand but not listed in
#: BENCHMARK.json: their times spread too widely between runs to gate on.
WORKLOADS = {
    workload.name: workload
    for workload in (
        # fig11/12's healthy data path at the top rate: phy, energy, MAC,
        # PSM and channel fan-out do the work.
        Workload(
            name="large-odpm",
            scenario=_large(40.0),
            protocols=("TITAN-PC", "DSR-ODPM-PC", "DSR-ODPM"),
            rate_kbps=(6.0,),
        ),
        # Distance-vector update processing dominates its self time.
        Workload(
            name="large-dsdvh",
            scenario=_large(40.0),
            protocols=("DSDVH-ODPM",),
            rate_kbps=(6.0,),
        ),
        # The only workload where pool scheduling and store I/O do work.
        Workload(
            name="fig8-campaign",
            scenario=_campaign,
            protocols=small_network("bench").protocols,
            rate_kbps=CAMPAIGN_RATES,
            pooled=True,
        ),
        # fig11/12's largest cost, a control-broadcast storm.  6 Kbit/s, not
        # 4: on the seed-1 instance both collapse, but at 4 the collapse
        # needs 32 simulated seconds, at 6 it shows within 28.
        Workload(
            name="large-flood",
            scenario=_large(28.0),
            protocols=("DSRH-ODPM(norate)",),
            rate_kbps=(6.0,),
        ),
    )
}


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
def payload_digest(payload: dict) -> str:
    """sha256 of a run payload's canonical JSON (independent of the store)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Span:
    """A timed call; ``cell`` ties the phases of one cell to its span."""

    name: str
    start: float
    end: float
    cell: str | None = None
    parent: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class RepOutcome:
    """Everything one repetition of a workload produced."""

    wall_s: float = 0.0
    events: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    #: Per-cell work counters, read from public attributes after a run.
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    #: Sweep-layer measurements (pooled workloads only).
    sweep: dict[str, float] = field(default_factory=dict)

    def span_total(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    @property
    def simulate_s(self) -> float:
        """Seconds inside ``run()``; the whole wall for a pooled campaign."""
        return self.span_total("sim.network.run_s") or self.wall_s

    def totals(self) -> Counter:
        """Counters summed over cells; 0 for a counter no cell reported."""
        summed: Counter = Counter()
        for counters in self.counters.values():
            summed.update(counters)
        return summed


def network_counters(net: WirelessNetwork) -> dict[str, int]:
    """Work counters of one finished network, from public attributes."""
    nodes = list(net.nodes.values())
    mac = [node.mac.stats for node in nodes]
    routing = [node.routing.stats for node in nodes]
    return {
        "events": net.sim.events_processed,
        "tx": net.channel.transmissions_started,
        "rx": sum(node.phy.frames_received for node in nodes),
        "collided": sum(node.phy.frames_collided for node in nodes),
        "mac_unicast": sum(stats.sent_unicast for stats in mac),
        "mac_broadcast": sum(stats.sent_broadcast for stats in mac),
        "mac_retries": sum(stats.retries for stats in mac),
        "dv_updates": sum(stats.updates_sent for stats in routing),
        "rreq": sum(stats.rreq_sent + stats.rreq_forwarded for stats in routing),
        "control_packets": net.control_packet_count(),
        "beacons": net.psm.beacons,
        "atim": net.psm.atim_announcements,
    }


def _report_failure(what: str) -> None:
    print("perfbench: %s failed:" % what, file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_cells(cells: list[Cell]) -> RepOutcome:
    """Run ``cells`` one after another in this process, timing each phase."""
    rep = RepOutcome()
    start = now()
    for cell in cells:
        label = cell.label
        try:
            t0 = now()
            placement = cell.scenario.placement(cell.instance)
            t1 = now()
            net = WirelessNetwork(cell.config(placement))
            t2 = now()
            result = net.run()
            t3 = now()
            payload = result.to_payload()
            t4 = now()
        except Exception:  # one broken cell must not hide the others
            _report_failure("cell %s" % label)
            continue
        rep.spans += [
            Span("cell", t0, t4, label),
            Span("net.topology.placement_s", t0, t1, label, "cell"),
            Span("sim.network.assemble_s", t1, t2, label, "cell"),
            Span("sim.network.run_s", t2, t3, label, "cell"),
            Span("metrics.collectors.payload_s", t3, t4, label, "cell"),
        ]
        rep.digests[label] = payload_digest(payload)
        rep.counters[label] = network_counters(net)
        rep.events += result.events_processed
    rep.wall_s = now() - start
    return rep


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def run_campaign(
    workload: Workload, seed: int, jobs: int = CAMPAIGN_JOBS
) -> RepOutcome:
    """Sweep the campaign at ``jobs`` into a fresh store, then re-read
    every cell and re-run the sweep against the filled store."""
    rep = RepOutcome()
    OUT_DIR.mkdir(exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=OUT_DIR))
    try:
        start = now()
        scenario = workload.scenario(seed)
        store = ResultStore(store_dir)
        reporter = ProgressReporter(
            total=len(workload.cells(seed)), enabled=False
        )
        try:
            sweep(
                scenario,
                protocols=workload.protocols,
                rates_kbps=workload.rate_kbps,
                jobs=jobs,
                store=store,
                progress=reporter,
            )
        except Exception:  # reported; every cell then counts as failed
            _report_failure("sweep")
            return rep
        rep.wall_s = now() - start

        # Read every cell back through a second store handle, so the
        # campaign's own hit/miss counters stay untouched.
        reader = ResultStore(store_dir)
        for cell in workload.cells(seed):
            result = reader.get_run(
                cell_key(scenario, cell.protocol, cell.rate_kbps, cell.seed)
            )
            if result is None:
                continue
            rep.digests[cell.label] = payload_digest(result.to_payload())
            rep.counters[cell.label] = {"events": result.events_processed}
            rep.events += result.events_processed

        # A rerun against the filled store must be served from it entirely.
        rerun = ResultStore(store_dir)
        t0 = now()
        sweep(
            scenario,
            protocols=workload.protocols,
            rates_kbps=workload.rate_kbps,
            jobs=jobs,
            store=rerun,
            progress=ProgressReporter(total=len(rep.digests), enabled=False),
        )
        reread_s = now() - t0

        utilization = reporter.utilization or 0.0
        rep.sweep = {
            "writes": store.writes,
            "bytes": _tree_bytes(store_dir),
            "events_done": reporter.events_done,
            "utilization": utilization,
            "idle_worker_s": jobs * rep.wall_s * (1.0 - utilization),
            "reread_s": reread_s,
            "reread_hits": rerun.hits,
            "reread_writes": rerun.writes,
        }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    return rep


def run_workload(workload: Workload, seed: int) -> RepOutcome:
    """One untraced repetition, as a user would run the workload."""
    if workload.pooled:
        return run_campaign(workload, seed)
    return run_cells(workload.cells(seed))


def run_traced(workload: Workload, seed: int) -> tuple[RepOutcome, pstats.Stats]:
    """The workload's cells, serially, under cProfile (campaign: jobs=1)."""
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        rep = run_cells(workload.cells(seed))
    finally:
        profiler.disable()
    return rep, pstats.Stats(profiler)


def campaign_checks(workload: Workload, seed: int, rep: RepOutcome) -> list[str]:
    """Problems with a pooled rep's store behaviour (empty when sound)."""
    if not workload.pooled:
        return []
    cells = len(workload.cells(seed))
    problems = []
    if rep.sweep.get("writes") != cells:
        problems.append("store writes %s != %d cells" % (rep.sweep.get("writes"), cells))
    if rep.sweep.get("reread_writes") != 0 or rep.sweep.get("reread_hits") != cells:
        problems.append(
            "rerun against the filled store made %s writes and %s hits"
            % (rep.sweep.get("reread_writes"), rep.sweep.get("reread_hits"))
        )
    if rep.sweep.get("events_done") != rep.events:
        problems.append(
            "reporter counted %s events, store holds %d"
            % (rep.sweep.get("events_done"), rep.events)
        )
    return problems


# ----------------------------------------------------------------------
# Profile -> per-layer numbers
# ----------------------------------------------------------------------
def _module_of(filename: str) -> str | None:
    """``repro`` module name (without the ``repro.`` prefix) of a file."""
    try:
        relative = Path(filename).resolve().relative_to(SRC_PACKAGE)
    except ValueError:
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or "__init__"


def profile_layers(stats: pstats.Stats) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds per ``repro`` module and call counts of public methods."""
    self_s: dict[str, float] = {}
    calls = {"rx_start": 0, "charge": 0}
    for (filename, _, function), (_, total_calls, tottime, _, _) in stats.stats.items():
        module = _module_of(filename)
        if module is None:
            continue
        self_s[module] = self_s.get(module, 0.0) + tottime
        if module == "sim.phy" and function == "rx_start":
            calls["rx_start"] += total_calls
        elif module == "core.energy_model" and function.startswith("charge_"):
            calls["charge"] += total_calls
    return self_s, calls


def write_spans(path: Path, rep: RepOutcome) -> None:
    """Write a traced rep's spans (kept in memory until now) as JSON."""
    path.parent.mkdir(exist_ok=True)
    origin = min((span.start for span in rep.spans), default=0.0)
    path.write_text(json.dumps([
        {
            "name": span.name,
            "cell": span.cell,
            "parent": span.parent,
            "start_s": span.start - origin,
            "end_s": span.end - origin,
        }
        for span in rep.spans
    ], indent=1))


def peak_rss_mb() -> float:
    """Max RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
