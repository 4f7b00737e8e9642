"""Parallel experiment orchestration over the (protocol, rate, seed) grid.

The paper's evaluation (§5.2) is an embarrassingly-parallel workload: every
``(protocol, rate, seed)`` cell is an independent simulation whose outcome
depends only on its own configuration.  This module is the run layer that
exploits that — it fans grid cells out across a
:class:`~concurrent.futures.ProcessPoolExecutor`, reuses completed cells
from a :class:`~repro.experiments.store.ResultStore`, and reports
progress/ETA while a sweep is running.

The unit of dispatch is a **batch of seeds**: all cells of one
``(protocol, rate)`` group travel to a worker as one :class:`GridBatch`,
so a group pays process startup once and — for scenarios whose placement
does not depend on the seed — derives its placement and frozen channel
geometry once (see :func:`repro.experiments.runner.run_batch`).  Workers
return the finished :class:`~repro.metrics.collectors.RunResult` objects
and the parent persists them; the result store stays **per cell**, so
batching changes how work reaches a worker, never what is cached or
under which key.  Pending units are dispatched in grid order through a
bounded in-flight window, so parent-side memory stays O(jobs), not
O(grid).

Determinism is preserved by construction: each cell re-derives every random
stream from its own seed (see :meth:`repro.sim.engine.Simulator.rng`), so a
parallel sweep is **bit-identical** to a serial one.  With the resilience
layer (:mod:`repro.experiments.resilience`) and the sharded-campaign layer
(:mod:`repro.experiments.backends`) the contract is **five-way**:
serial == parallel == cached == interrupted-then-resumed ==
sharded-then-merged, pinned by ``tests/test_orchestration.py``,
``tests/test_resilience.py`` and ``tests/test_backends.py`` — the resumed
leg including runs with injected worker crashes and retries, the merged
leg including shards cached under different store backends on
byte-identity of the merged store.
Aggregation always folds runs in ascending-seed order so even
floating-point summation order matches the serial path.

Failure handling is policy-driven (:class:`~repro.experiments.resilience.
FaultPolicy`): transient failures — a worker killed by the OOM reaper
(``BrokenProcessPool``), a wedged cell past its timeout — are retried
with exponential backoff and a rebuilt pool; deterministic simulation
failures (:class:`GridCellError`) either abort the sweep naming the cell
(``on_error="fail"``) or are collected into a
:class:`~repro.experiments.resilience.SweepFailureReport` while sibling
cells keep running (``on_error="continue"``).

The public surface:

* :class:`GridCell` — one point of the sweep grid.
* :class:`GridBatch` — one dispatch unit: a (protocol, rate) group's seeds.
* :func:`run_grid` — execute a set of cells (serial or parallel, cached),
  under a fault policy, optionally checkpointed into a
  :class:`~repro.experiments.resilience.SweepManifest`.
* :func:`run_sweep` — full protocol x rate grid, aggregated per cell group;
  the engine behind :func:`repro.experiments.runner.sweep` and the
  ``repro sweep`` CLI command.
* :class:`GridCellError` — failure wrapper naming the offending cell.
"""

from __future__ import annotations

import sys
import time
import traceback as _traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence, TextIO, TypeVar

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

from repro.experiments.resilience import (
    CellFailure,
    FaultPolicy,
    InterruptGuard,
    SweepFailureReport,
    SweepInterrupted,
    SweepManifest,
    _mark_worker,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.store import ResultStore, cell_key, scenario_fingerprint
from repro.metrics.collectors import AggregateResult, RunResult, aggregate_runs

#: Dispatcher poll period while futures are outstanding: how often the
#: interrupt flag and the per-cell timeout watchdog are evaluated.
_POLL_INTERVAL_S = 0.05

#: In-flight submission window, in multiples of ``jobs``: enough queued
#: futures that no worker ever idles waiting for the parent's poll loop,
#: small enough that parent-side memory stays O(jobs) instead of O(grid).
_INFLIGHT_FACTOR = 2


@dataclass(frozen=True, order=True)
class GridCell:
    """One point of the sweep grid: a (protocol, rate, seed) triple."""

    protocol: str
    rate_kbps: float
    seed: int

    def __str__(self) -> str:
        return "%s @ %g Kbit/s, seed %d" % (
            self.protocol,
            self.rate_kbps,
            self.seed,
        )


@dataclass(frozen=True)
class GridBatch:
    """One dispatch unit: every seed of a ``(protocol, rate)`` group.

    Workers execute a whole batch per invocation
    (:func:`repro.experiments.runner.run_batch`), amortizing process
    startup and shared scenario setup across its seeds.  ``seeds`` keeps
    the order the cells arrived in (ascending for grids built by
    :func:`grid_cells`), and results come back in the same order, so
    batching never reorders observable computation.
    """

    protocol: str
    rate_kbps: float
    seeds: tuple[int, ...]

    def cells(self) -> list[GridCell]:
        """The individual grid cells this batch covers, in seed order."""
        return [
            GridCell(self.protocol, self.rate_kbps, seed)
            for seed in self.seeds
        ]

    def __len__(self) -> int:
        return len(self.seeds)

    def __str__(self) -> str:
        seeds = self.seeds
        if len(seeds) == 1:
            span = "seed %d" % seeds[0]
        elif seeds == tuple(range(seeds[0], seeds[0] + len(seeds))):
            span = "seeds %d-%d" % (seeds[0], seeds[-1])
        else:
            span = "seeds %s" % ",".join(str(seed) for seed in seeds)
        return "%s @ %g Kbit/s, %s" % (self.protocol, self.rate_kbps, span)


def batch_cells(cells: Iterable[GridCell]) -> list[GridBatch]:
    """Group cells into per-(protocol, rate) batches.

    Groups appear in first-encounter order and each batch's seeds keep
    their cell order, so iterating the batches visits the cells in the
    order they were given.
    """
    groups: dict[tuple[str, float], list[int]] = {}
    for cell in cells:
        groups.setdefault((cell.protocol, cell.rate_kbps), []).append(
            cell.seed
        )
    return [
        GridBatch(protocol, rate_kbps, tuple(seeds))
        for (protocol, rate_kbps), seeds in groups.items()
    ]


def _split_for_jobs(batches: list[GridBatch], jobs: int) -> list[GridBatch]:
    """Split seed groups until there are enough units to occupy ``jobs``.

    A sweep with fewer ``(protocol, rate)`` groups than workers would
    otherwise leave workers idle — the extreme being ``run_many`` (one
    group), where batching would silently serialize every seed.  Each
    group is cut into contiguous seed chunks (seed order preserved, so
    results and store writes are unchanged); chunks stay as large as
    possible to keep the shared-setup amortization.
    """
    if jobs <= 1 or not batches or len(batches) >= jobs:
        return batches
    pieces = -(-jobs // len(batches))  # ceil: chunks wanted per group
    split: list[GridBatch] = []
    for batch in batches:
        count = min(len(batch.seeds), pieces)
        if count <= 1:
            split.append(batch)
            continue
        base, extra = divmod(len(batch.seeds), count)
        start = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            split.append(
                GridBatch(
                    batch.protocol,
                    batch.rate_kbps,
                    batch.seeds[start:start + size],
                )
            )
            start += size
    return split


class GridCellError(RuntimeError):
    """A simulation failed; names the offending cell.

    Mid-grid failures used to surface as an opaque traceback with no hint
    of *which* configuration died; this wrapper carries the
    ``(protocol, rate, seed)`` triple in both the message and the ``cell``
    attribute, and survives pickling across process boundaries.

    Chained ``__cause__`` exceptions do **not** survive pickling (the
    pool re-raises only the outer exception), so :meth:`from_exception`
    captures the original traceback *text* into
    :attr:`cause_traceback`, which :meth:`__reduce__` carries across the
    boundary — failure reports can then name the real exception site
    even when the failure happened in a worker process.
    """

    def __init__(
        self,
        cell: GridCell,
        cause: str,
        cause_traceback: str | None = None,
    ) -> None:
        super().__init__(
            "simulation failed for protocol=%s rate=%g Kbit/s seed=%d: %s"
            % (cell.protocol, cell.rate_kbps, cell.seed, cause)
        )
        self.cell = cell
        self._cause = cause
        self.cause_traceback = cause_traceback

    @property
    def cause_summary(self) -> str:
        """The one-line cause (exception type and message)."""
        return self._cause

    @classmethod
    def from_exception(
        cls, cell: GridCell, exc: BaseException, prefix: str = ""
    ) -> "GridCellError":
        """Wrap ``exc`` for ``cell``, preserving its full traceback text."""
        tb_text = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return cls(
            cell,
            "%s%s: %s" % (prefix, type(exc).__name__, exc),
            cause_traceback=tb_text,
        )

    def __reduce__(self):
        return (type(self), (self.cell, self._cause, self.cause_traceback))


def grid_cells(
    scenario: Scenario,
    protocols: Sequence[str] | None = None,
    rates_kbps: Sequence[float] | None = None,
    seeds: Sequence[int] | None = None,
) -> list[GridCell]:
    """Enumerate the full protocol x rate x seed grid of a scenario.

    Defaults come from the scenario preset: its protocol line-up, its rate
    grid and seeds ``1..runs``.  Cells are returned in deterministic
    (protocol, rate, seed) order.
    """
    protocols = tuple(protocols or scenario.protocols)
    rates = tuple(rates_kbps or scenario.rates_kbps)
    seeds = tuple(seeds or range(1, scenario.runs + 1))
    return [
        GridCell(protocol, float(rate), int(seed))
        for protocol in protocols
        for rate in rates
        for seed in seeds
    ]


def _execute_batch(scenario: Scenario, batch: GridBatch) -> list[RunResult]:
    """Run one batch's seeds; top-level so the process pool can pickle it.

    Failures arrive as :class:`GridCellError` already naming the exact
    failing ``(protocol, rate, seed)`` (see
    :func:`repro.experiments.runner.run_batch`).
    """
    from repro.experiments.runner import run_batch

    return run_batch(scenario, batch.protocol, batch.rate_kbps, batch.seeds)


def _probe_routes(
    scenario: Scenario,
    protocol: str,
    seed: int = 1,
    probe_rate_kbps: float = 2.0,
) -> dict[int, tuple[int, ...]]:
    """Worker: run one §5.2.3 probe simulation, return its stabilized routes."""
    from repro.experiments.runner import stabilize_routes

    try:
        _, routes = stabilize_routes(scenario, protocol, seed, probe_rate_kbps)
        return routes
    except Exception as exc:
        cell = GridCell(protocol, probe_rate_kbps, seed)
        raise GridCellError.from_exception(cell, exc) from exc


def _unit_size(item: object) -> int:
    """Grid cells a dispatch unit covers (scales its timeout budget)."""
    return len(item) if isinstance(item, GridBatch) else 1


def _terminate_workers(
    pool: ProcessPoolExecutor, join_timeout_s: float = 5.0
) -> None:
    """Kill a pool's worker processes and reap them (timeout enforcement).

    ``ProcessPoolExecutor`` has no public "kill a stuck worker" API; a
    worker wedged inside a simulation never observes a cooperative
    cancel, so the only recovery is termination.  Reaches into
    ``pool._processes`` (stable since 3.8) defensively — if the attribute
    moves, timeouts degrade to "wait forever", never to a crash.

    ``terminate()`` alone leaves the dead child a zombie until someone
    waits on it; across many retry rounds of a long campaign those
    defunct entries accumulate and eat the process table.  So every
    terminated worker is ``join()``-ed against one shared, bounded
    deadline, and a worker that still has not died by then (SIGTERM
    blocked mid-syscall) is escalated to ``kill()`` and joined briefly
    again.  A worker that ignores SIGKILL is the kernel's problem, not
    ours — the bound guarantees the sweep never hangs in reaping.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead worker
            pass
    deadline = time.monotonic() + join_timeout_s
    for process in processes:
        try:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(1.0)
        except Exception:  # pragma: no cover - already-reaped worker
            pass


class _Dispatcher:
    """Fault-tolerant execution of dispatch units over a process pool.

    One instance per :func:`_dispatch` call.  Responsibilities:

    * fan units out across workers (or run serially for ``jobs<=1``);
    * classify failures — :class:`GridCellError` is deterministic (never
      retried), ``BrokenProcessPool``/timeout are transient (retried up
      to ``policy.max_retries`` with deterministic backoff, under a
      rebuilt pool);
    * drain in-flight work and raise :class:`SweepInterrupted` when the
      :class:`InterruptGuard` fires;
    * in ``continue`` mode, route permanent failures to ``on_failure``
      (per grid cell) and ask ``split`` for replacement units (a batch
      minus its poisoned seed) instead of aborting siblings.
    """

    def __init__(
        self,
        task: Callable,
        record: Callable,
        jobs: int,
        policy: FaultPolicy,
        interrupt: InterruptGuard | None,
        cells_of: Callable[[object], list] | None,
        on_failure: Callable | None,
        split: Callable | None,
        reporter: "ProgressReporter | None" = None,
    ) -> None:
        self.task = task
        self.record = record
        self.jobs = jobs
        self.policy = policy
        self.interrupt = interrupt
        self.cells_of = cells_of or (lambda item: [item])
        self.on_failure = on_failure or (lambda *args: None)
        self.split = split
        self.reporter = reporter

    # -- shared failure handling ---------------------------------------
    def _deterministic_failure(
        self, item: object, error: GridCellError, attempts: int
    ) -> list:
        """Handle a simulation-raised failure; returns replacement units.

        In ``fail`` mode the error propagates (pre-resilience
        behaviour).  In ``continue`` mode the named cell is reported and
        a batch sheds the poisoned seed so its siblings still run.
        """
        if not self.policy.continue_on_error:
            raise error
        self.on_failure(
            CellFailure(
                cell=error.cell,
                cause=error.cause_summary,
                attempts=attempts,
                transient=False,
                detail=error.cause_traceback,
            )
        )
        return list(self.split(item, error)) if self.split is not None else []

    def _transient_failure(self, item: object, cause: str, attempts: int) -> None:
        """A unit exhausted its retry budget on crashes/timeouts."""
        cells = self.cells_of(item)
        if not self.policy.continue_on_error:
            raise GridCellError(
                cells[0], "%s (%d attempt(s))" % (cause, attempts)
            )
        for cell in cells:
            self.on_failure(
                CellFailure(
                    cell=cell, cause=cause, attempts=attempts, transient=True
                )
            )

    def _check_interrupt(self, remaining: int) -> None:
        if self.interrupt is not None and self.interrupt.interrupted:
            raise SweepInterrupted(remaining=remaining)

    # -- serial path ----------------------------------------------------
    def run_serial(self, pending: Sequence) -> None:
        queue = list(pending)
        index = 0
        while index < len(queue):
            self._check_interrupt(len(queue) - index)
            item = queue[index]
            index += 1
            try:
                result = self.task(item)
            except GridCellError as exc:
                queue.extend(self._deterministic_failure(item, exc, attempts=1))
                continue
            self.record(item, result)

    # -- pooled path ----------------------------------------------------
    def run_pooled(self, pending: Sequence) -> None:
        queue = list(pending)
        attempts = {item: 0 for item in queue}
        while queue:
            self._check_interrupt(len(queue))
            self._backoff(queue, attempts)
            queue = self._pool_round(queue, attempts)

    def _backoff(self, queue: Sequence, attempts: dict) -> None:
        """Sleep before a retry round (first round: all attempts 0 → no-op).

        The delay is the maximum of the retried units' deterministic
        backoff schedules; sleeping affects only wall-clock, never
        results (jitter is derived from unit keys, not entropy).
        """
        delay = max(
            (
                self.policy.backoff_delay(attempts[item], str(item))
                for item in queue
                if attempts.get(item, 0) > 0
            ),
            default=0.0,
        )
        if delay > 0:
            time.sleep(delay)

    def _pool_round(self, queue: list, attempts: dict) -> list:
        """One pool lifetime; returns the units still needing work.

        Units are submitted through a bounded in-flight window
        (:data:`_INFLIGHT_FACTOR` x ``jobs``) that is topped up as
        futures complete, so the parent holds O(jobs) pending futures —
        not O(grid) — however large the campaign; the unsubmitted tail
        just waits in the queue.

        The pool dies (and is rebuilt by the next round) whenever a
        worker crashes or a timeout forces termination; units that
        neither completed nor failed permanently are re-queued with an
        incremented attempt count.  Everything in flight when a crash
        hits is a casualty — the executor cannot attribute the death to
        one unit — so all *submitted* unfinished units share the attempt
        penalty; the never-submitted tail was not in harm's way and is
        re-queued without one.
        """
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(queue)),
            initializer=_mark_worker,
        )
        window = max(self.jobs * _INFLIGHT_FACTOR, self.jobs + 1)
        futures: dict = {}
        waiting: set = set()
        next_up = 0

        def _top_up() -> None:
            nonlocal next_up
            while next_up < len(queue) and len(waiting) < window:
                item = queue[next_up]
                next_up += 1
                future = pool.submit(self.task, item)
                futures[future] = item
                waiting.add(future)

        handled: set = set()  # recorded, permanently failed, or replaced
        replacements: list = []
        timed_out: set = set()
        running_since: dict = {}
        broken = False
        interrupted = False
        _top_up()
        try:
            while waiting:
                done, waiting = wait(
                    waiting, timeout=_POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    item = futures[future]
                    try:
                        result = future.result()
                    except GridCellError as exc:
                        for extra in self._deterministic_failure(
                            item, exc, attempts.get(item, 0) + 1
                        ):
                            attempts.setdefault(extra, attempts.get(item, 0))
                            replacements.append(extra)
                        handled.add(item)
                    except (BrokenProcessPool, CancelledError):
                        broken = True
                    else:
                        self.record(item, result)
                        handled.add(item)
                if broken:
                    break
                if self.interrupt is not None and self.interrupt.interrupted:
                    interrupted = True
                    handled |= self._drain(futures, waiting, attempts)
                    break
                if self.policy.cell_timeout_s is not None and waiting:
                    if self._past_deadline(
                        futures, waiting, running_since, timed_out
                    ):
                        # The only way to reclaim a wedged worker is to
                        # kill it; the pool breaks and the next loop
                        # iteration observes BrokenProcessPool.
                        _terminate_workers(pool)
                if self.reporter is not None:
                    self.reporter.note_busy(
                        sum(1 for future in waiting if future.running())
                    )
                _top_up()
        except BrokenProcessPool:
            broken = True
        finally:
            if self.reporter is not None:
                self.reporter.note_busy(0)
            pool.shutdown(wait=False, cancel_futures=True)
        tail = queue[next_up:]
        if interrupted:
            remaining = sum(
                1 for item in futures.values() if item not in handled
            ) + len(tail)
            raise SweepInterrupted(remaining=remaining)
        next_queue = []
        for item in futures.values():  # insertion order == queue order
            if item in handled:
                continue
            attempts[item] = attempts.get(item, 0) + 1
            if item in timed_out:
                cause = "cell timed out after %.1f s" % (
                    self.policy.cell_timeout_s * _unit_size(item)
                )
            else:
                cause = "worker process crashed (BrokenProcessPool)"
            if attempts[item] > self.policy.max_retries:
                self._transient_failure(item, cause, attempts[item])
            else:
                next_queue.append(item)
        return next_queue + tail + replacements

    def _drain(self, futures: dict, waiting: set, attempts: dict) -> set:
        """Graceful interruption: cancel queued units, collect running ones.

        Queued futures cancel cleanly and stay pending (the resume
        re-dispatches them); already-running cells are allowed to finish
        and are recorded/persisted so their work is not thrown away.
        """
        handled = set()
        still_running = [f for f in waiting if not f.cancel()]
        for future in still_running:
            item = futures[future]
            try:
                result = future.result()
            except GridCellError as exc:
                if self.policy.continue_on_error:
                    self._deterministic_failure(
                        item, exc, attempts.get(item, 0) + 1
                    )
                    handled.add(item)
                # fail mode: leave it pending; the resume will retry it.
            except (BrokenProcessPool, CancelledError):
                pass
            else:
                self.record(item, result)
                handled.add(item)
        return handled

    def _past_deadline(
        self, futures: dict, waiting: set, running_since: dict, timed_out: set
    ) -> bool:
        """Watchdog: note when futures start running, flag budget overruns.

        ``running_since`` records the first poll at which each future was
        observed running (queued-but-unstarted units never accrue time),
        with poll-interval granularity.
        """
        now = time.monotonic()
        for future in waiting:
            if future.running():
                running_since.setdefault(future, now)
        hit = False
        for future in waiting:
            since = running_since.get(future)
            if since is None:
                continue
            item = futures[future]
            limit = self.policy.cell_timeout_s * _unit_size(item)
            if now - since > limit:
                timed_out.add(item)
                hit = True
        return hit


def _dispatch(
    pending: Sequence[_Item],
    task: Callable[[_Item], _Result],
    record: Callable[[_Item, _Result], None],
    jobs: int,
    policy: FaultPolicy | None = None,
    interrupt: InterruptGuard | None = None,
    cells_of: Callable[[_Item], list] | None = None,
    on_failure: Callable[[CellFailure], None] | None = None,
    split: Callable[[_Item, GridCellError], list] | None = None,
    reporter: "ProgressReporter | None" = None,
) -> None:
    """Run ``task`` over ``pending`` serially or via a process pool.

    ``task`` must be picklable (a top-level function or a
    :func:`functools.partial` of one).  ``record`` is always invoked in
    the parent process.  Failure behaviour, retries and timeouts follow
    ``policy`` (default: fail fast, no retries — the pre-resilience
    contract); ``interrupt`` enables graceful SIGINT/SIGTERM draining.
    ``reporter`` receives worker-utilization samples from the poll loop.
    See :class:`_Dispatcher` for the semantics.
    """
    dispatcher = _Dispatcher(
        task=task,
        record=record,
        jobs=jobs,
        policy=policy if policy is not None else FaultPolicy(),
        interrupt=interrupt,
        cells_of=cells_of,
        on_failure=on_failure,
        split=split,
        reporter=reporter,
    )
    if jobs <= 1 or len(pending) <= 1:
        dispatcher.run_serial(pending)
    else:
        dispatcher.run_pooled(pending)


def _partition_cached(
    items: Sequence[_Item],
    get: Callable[[_Item], _Result | None],
    reporter: ProgressReporter,
) -> tuple[dict[_Item, _Result], list[_Item]]:
    """Split ``items`` into store hits and still-pending work."""
    results: dict[_Item, _Result] = {}
    pending: list[_Item] = []
    for item in items:
        cached = get(item)
        if cached is not None:
            results[item] = cached
        else:
            pending.append(item)
    reporter.cached(len(results))
    return results, pending


def _run_cached(
    items: Sequence[_Item],
    get: Callable[[_Item], _Result | None],
    put: Callable[[_Item, _Result], None],
    task: Callable[[_Item], _Result],
    label: Callable[[_Item], GridCell],
    jobs: int,
    reporter: ProgressReporter,
    policy: FaultPolicy | None = None,
    interrupt: InterruptGuard | None = None,
    on_failure: Callable[[CellFailure], None] | None = None,
) -> dict[_Item, _Result]:
    """Cached per-item fan-out (:func:`discover_routes`).

    Looks every item up via ``get`` first, dispatches the misses through
    :func:`_dispatch`, persists fresh results via ``put`` (in the parent
    process), and feeds the reporter throughout.
    """
    results, pending = _partition_cached(items, get, reporter)

    def _record(item: _Item, result: _Result) -> None:
        results[item] = result
        put(item, result)
        reporter.advance(label(item))

    _dispatch(
        pending,
        task,
        _record,
        jobs,
        policy=policy,
        interrupt=interrupt,
        cells_of=lambda item: [label(item)],
        on_failure=on_failure,
        reporter=reporter,
    )
    return results


def _make_reporter(
    progress: bool | ProgressReporter, total: int
) -> ProgressReporter:
    """Coerce the ``progress`` argument into a live reporter."""
    if isinstance(progress, ProgressReporter):
        return progress
    return ProgressReporter(total=total, enabled=bool(progress))


class ProgressReporter:
    """Console progress/ETA for a running sweep.

    Writes one line per completed dispatch unit — a :class:`GridBatch`,
    or one §5.2.3 route probe — to ``stream`` (default stderr, so figures
    piped to a file stay clean)::

        [ 7/24] TITAN-PC @ 4 Kbit/s, seed 2       elapsed 12.3s  ETA 29.8s
        [20/24] TITAN-PC @ 4 Kbit/s, seeds 1-5    elapsed 41.0s  ETA  8.2s

    ``done``/``total`` and the ETA are always counted in **cells**, never
    dispatch units, so a sweep of a few large batches reports its true
    scale.  ETA
    extrapolates from the mean wall-clock of live (non-cached) cells,
    measured on the **live clock** — it starts when the cache partition
    finishes, so time spent reading (possibly thousands of) cache hits
    never skews the projected rate of the cells still to simulate.  Cache
    hits are reported once, up front.

    The dispatcher additionally feeds the reporter aggregate simulation
    throughput (:meth:`note_events`, from per-cell event counts) and
    worker-occupancy samples (:meth:`note_busy`, from its poll loop);
    when present, progress lines grow an events/s column and
    :meth:`finish` prints a one-line summary with mean events/s and
    worker utilization.
    """

    def __init__(
        self,
        total: int,
        enabled: bool = True,
        stream: TextIO | None = None,
    ) -> None:
        self.total = total
        self.done = 0
        self.events_done = 0
        self.jobs = 1
        self._live_done = 0
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        self._start = time.monotonic()
        self._live_start: float | None = None
        self._busy_s = 0.0
        self._busy_sample: tuple[float, int] | None = None

    def _emit(self, line: str) -> None:
        if self.enabled:
            print(line, file=self.stream, flush=True)

    def _live_elapsed(self) -> float:
        anchor = self._live_start if self._live_start is not None else self._start
        return time.monotonic() - anchor

    def cached(self, count: int) -> None:
        """Record ``count`` cells satisfied from the result store.

        Also anchors the live clock: everything before this moment was
        cache lookups, not simulation, and must not count toward the
        per-live-cell rate the ETA extrapolates from.
        """
        self.done += count
        self._live_start = time.monotonic()
        if count:
            self._emit(
                "[%*d/%d] reused from cache"
                % (len(str(self.total)), self.done, self.total)
            )

    def note_events(self, events: int) -> None:
        """Add a finished unit's simulation events to the aggregate."""
        self.events_done += events

    def note_busy(self, running: int) -> None:
        """One worker-occupancy sample from the dispatcher's poll loop.

        Integrates busy worker-seconds between samples (clamped to
        ``jobs`` — a future briefly observed running during handover
        cannot make utilization exceed 100%).  ``running=0`` closes the
        current integration span (end of a pool round).
        """
        now = time.monotonic()
        if self._busy_sample is not None:
            then, busy = self._busy_sample
            self._busy_s += min(busy, self.jobs) * (now - then)
        self._busy_sample = (now, running) if running > 0 else None

    @property
    def utilization(self) -> float | None:
        """Mean busy fraction of the worker pool, or None before samples."""
        if self._busy_s <= 0.0 or self.jobs <= 0:
            return None
        elapsed = self._live_elapsed()
        if elapsed <= 0.0:
            return None
        return min(1.0, self._busy_s / (elapsed * self.jobs))

    def advance(self, label: object, cells: int = 1) -> None:
        """Record ``cells`` freshly-simulated cells and print progress + ETA.

        ``label`` names the finished dispatch unit (a :class:`GridCell` or
        :class:`GridBatch`); ``cells`` is how many grid cells it covered.
        Extrapolating from cells — not dispatch units — keeps batched ETAs
        honest: a 5-seed batch advances the clock 5 cells' worth.
        """
        self.done += cells
        self._live_done += cells
        elapsed = time.monotonic() - self._start
        live = self._live_elapsed()
        remaining = self.total - self.done
        eta = live / self._live_done * remaining
        line = "[%*d/%d] %-40s elapsed %6.1fs  ETA %6.1fs" % (
            len(str(self.total)), self.done, self.total, label, elapsed, eta,
        )
        if self.events_done and live > 0.0:
            line += "  %9.0f ev/s" % (self.events_done / live)
        self._emit(line)

    def finish(self) -> None:
        """One summary line after the sweep: throughput and utilization.

        Printed only when live (non-cached) cells actually ran; a fully
        cache-served sweep has no throughput to report.
        """
        if not self._live_done:
            return
        live = self._live_elapsed()
        line = "[%*d/%d] %d cell(s) simulated in %.1fs" % (
            len(str(self.total)), self.done, self.total,
            self._live_done, live,
        )
        if self.events_done and live > 0.0:
            line += ", %.0f events/s" % (self.events_done / live)
        if self.utilization is not None:
            line += ", %d%% worker utilization" % round(self.utilization * 100)
        self._emit(line)


def _split_batch(unit: GridBatch, error: GridCellError) -> list[GridBatch]:
    """Replacement units for a batch poisoned by one failing seed.

    ``continue`` mode sheds the failed seed and re-dispatches the rest of
    the batch as one new unit (seed order preserved), so one bad seed
    costs its own cell, not its siblings'.
    """
    survivors = tuple(
        seed for seed in unit.seeds if seed != error.cell.seed
    )
    if not survivors:
        return []
    return [GridBatch(unit.protocol, unit.rate_kbps, survivors)]


def run_grid(
    scenario: Scenario,
    cells: Iterable[GridCell],
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: bool | ProgressReporter = False,
    policy: FaultPolicy | None = None,
    manifest: SweepManifest | None = None,
    failures: SweepFailureReport | None = None,
    interrupt: InterruptGuard | None = None,
) -> dict[GridCell, RunResult]:
    """Execute ``cells``, fanning out across processes and reusing the store.

    The pending cells of each ``(protocol, rate)`` pair travel to a worker
    as one :class:`GridBatch` (:func:`repro.experiments.runner.run_batch`),
    amortizing process startup and — for shared-placement scenarios — the
    placement/geometry pass across the group's seeds.  A failing seed
    discards its batch's earlier, not-yet-persisted seeds.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs serially in this process; results are
        identical either way (each cell derives all randomness from its own
        seed).
    store:
        Optional :class:`ResultStore`; completed cells are looked up before
        simulating and persisted (by this process) after, so repeated
        invocations with the same store perform zero new simulations.
        Lookups and writes are always per cell, whatever the dispatch unit.
    progress:
        ``True`` for stderr progress/ETA lines, or a pre-built
        :class:`ProgressReporter`.
    policy:
        :class:`~repro.experiments.resilience.FaultPolicy` governing
        retries, timeouts and fail-vs-continue.  Default: fail fast.
    manifest:
        Optional :class:`~repro.experiments.resilience.SweepManifest`
        checkpoint; cell completions/failures are recorded as they
        happen so an interrupted campaign can resume.
    failures:
        :class:`~repro.experiments.resilience.SweepFailureReport`
        collecting permanently-failed cells under
        ``policy.on_error == "continue"``.  Such cells are simply absent
        from the returned mapping.
    interrupt:
        Armed :class:`~repro.experiments.resilience.InterruptGuard`;
        when it fires, in-flight cells are drained and persisted and
        :class:`~repro.experiments.resilience.SweepInterrupted` is
        raised with progress attached.

    Raises
    ------
    GridCellError
        If any cell's simulation fails (``on_error="fail"``), naming the
        offending ``(protocol, rate, seed)``.
    SweepInterrupted
        When ``interrupt`` fired; the manifest (if any) is flushed first.
    """
    cells = list(cells)
    policy = policy if policy is not None else FaultPolicy()

    def _key(cell: GridCell) -> str:
        return cell_key(scenario, cell.protocol, cell.rate_kbps, cell.seed)

    get = (
        (lambda cell: store.get_run(_key(cell)))
        if store is not None
        else lambda cell: None
    )
    if store is not None:
        store.clean_tmp()  # reap tmp droppings from crashed writers
        fingerprint = scenario_fingerprint(scenario)

    if manifest is not None:
        manifest.register(scenario, cells)

    def _on_failure(failure: CellFailure) -> None:
        if failures is not None:
            failures.add(failure)
        if manifest is not None:
            manifest.mark_failed(
                failure.cell, failure.cause, failure.attempts
            )

    reporter = _make_reporter(progress, len(cells))
    reporter.jobs = max(1, jobs)

    try:
        results, pending = _partition_cached(cells, get, reporter)
        if manifest is not None and results:
            manifest.note_done(list(results))

        def _record(unit: GridBatch, batch_results: list[RunResult]) -> None:
            for cell, result in zip(unit.cells(), batch_results):
                results[cell] = result
                if store is not None:
                    store.put_run(_key(cell), result, fingerprint=fingerprint)
                if manifest is not None:
                    manifest.mark_done(cell)
            reporter.note_events(
                sum(result.events_processed for result in batch_results)
            )
            reporter.advance(unit, cells=len(batch_results))

        _dispatch(
            _split_for_jobs(batch_cells(pending), jobs),
            partial(_execute_batch, scenario),
            _record,
            jobs,
            policy=policy,
            interrupt=interrupt,
            cells_of=lambda unit: unit.cells(),
            on_failure=_on_failure,
            split=_split_batch,
            reporter=reporter,
        )
        reporter.finish()
        return results
    except SweepInterrupted as exc:
        exc.done = reporter.done
        exc.total = reporter.total
        if manifest is not None:
            exc.manifest_path = str(manifest.path)
            manifest.flush()
        raise


def discover_routes(
    scenario: Scenario,
    protocols: Sequence[str],
    seed: int = 1,
    probe_rate_kbps: float = 2.0,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: bool | ProgressReporter = False,
    policy: FaultPolicy | None = None,
    interrupt: InterruptGuard | None = None,
    failures: SweepFailureReport | None = None,
) -> dict[str, dict[int, tuple[int, ...]]]:
    """Stabilized route sets for several protocols, fanned out and cached.

    The §5.2.3 probe simulations (routes discovered at ``probe_rate_kbps``,
    then frozen for the high-rate analytic evaluation) are the expensive
    half of Figs. 13–16 and are independent per protocol, so they
    parallelize and cache exactly like grid cells.  Returns
    ``{protocol: {flow_id: path}}``; under ``policy.on_error ==
    "continue"`` a failed probe lands in ``failures`` and its protocol is
    absent from the mapping.
    """
    from repro.experiments.store import routes_key

    protocols = tuple(protocols)

    def _key(protocol: str) -> str:
        return routes_key(scenario, protocol, seed, probe_rate_kbps)

    return _run_cached(
        protocols,
        get=(lambda protocol: store.get_routes(_key(protocol)))
        if store is not None
        else lambda protocol: None,
        put=(
            lambda protocol, routes: store.put_routes(
                _key(protocol), routes,
                fingerprint=scenario_fingerprint(scenario),
            )
        )
        if store is not None
        else lambda protocol, routes: None,
        task=partial(
            _probe_routes, scenario, seed=seed, probe_rate_kbps=probe_rate_kbps
        ),
        label=lambda protocol: GridCell(protocol, probe_rate_kbps, seed),
        jobs=jobs,
        reporter=_make_reporter(progress, len(protocols)),
        policy=policy,
        interrupt=interrupt,
        on_failure=(failures.add if failures is not None else None),
    )


def run_sweep(
    scenario: Scenario,
    protocols: Sequence[str] | None = None,
    rates_kbps: Sequence[float] | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
    progress: bool = False,
    on_aggregate: Callable[[str, float, AggregateResult], None] | None = None,
    policy: FaultPolicy | None = None,
    manifest: SweepManifest | None = None,
    failures: SweepFailureReport | None = None,
    interrupt: InterruptGuard | None = None,
) -> dict[tuple[str, float], AggregateResult]:
    """Full protocol x rate grid, aggregated over seeds with 95% CIs.

    The parallel, cached engine behind
    :func:`repro.experiments.runner.sweep`.  Runs every
    ``(protocol, rate, seed)`` cell via :func:`run_grid`, then folds each
    (protocol, rate) group over its seeds
    **in ascending-seed order**, so aggregates match the serial path
    bit-for-bit.  ``on_aggregate`` fires once per finished group
    (console reporting hooks).

    Under ``policy.on_error == "continue"`` a group aggregates over its
    surviving seeds only; a group with no surviving seed is absent from
    the returned grid (its failures are in ``failures``).
    """
    protocols = tuple(protocols or scenario.protocols)
    rates = tuple(rates_kbps or scenario.rates_kbps)
    seeds = tuple(range(1, scenario.runs + 1))
    cells = grid_cells(scenario, protocols, rates, seeds)
    results = run_grid(
        scenario,
        cells,
        jobs=jobs,
        store=store,
        progress=progress,
        policy=policy,
        manifest=manifest,
        failures=failures,
        interrupt=interrupt,
    )
    grid: dict[tuple[str, float], AggregateResult] = {}
    for protocol in protocols:
        for rate in rates:
            runs = [
                results[cell]
                for cell in (
                    GridCell(protocol, float(rate), seed) for seed in seeds
                )
                if cell in results
            ]
            if not runs:
                continue  # every seed failed (continue mode): no aggregate
            aggregate = aggregate_runs(runs)
            grid[(protocol, float(rate))] = aggregate
            if on_aggregate is not None:
                on_aggregate(protocol, float(rate), aggregate)
    return grid
