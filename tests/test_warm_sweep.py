"""Pooled-sweep tests: shared-placement campaigns and the dispatch helpers.

A pooled sweep of a shared-placement scenario must leave exactly the
store a serial sweep leaves — on both store backends, and when injected
worker crashes force retries.  The module also covers the pieces of the
dispatch layer around it: ``_split_for_jobs`` properties, the reporter's
events/s + utilization readout and its cache-skew-free ETA, and the
zombie-free worker reaper.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.experiments.parallel import (
    GridBatch,
    GridCell,
    ProgressReporter,
    _split_for_jobs,
    _terminate_workers,
    batch_cells,
    grid_cells,
    run_grid,
)
from repro.experiments.resilience import (
    FAULT_INJECT_ENV,
    FaultPolicy,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.store import ResultStore

#: The pinned digest of the tiny fixture's (DSR-ODPM, 2 Kbit/s, seed 1)
#: cell — the same constant the orchestration and resilience suites pin
#: their legs of the determinism contract against.
TINY_CELL_DIGEST = (
    "d038f4c678d5f4e86895ea42fa481e55b91603ff1abe311a95bff03765dfc914"
)

PINNED_CELL = GridCell("DSR-ODPM", 2.0, 1)


@pytest.fixture
def tiny() -> Scenario:
    """The same 3x3 grid the orchestration tests pin their digest on."""
    return Scenario(
        name="tiny-test",
        node_count=9,
        field_size=120.0,
        flow_count=3,
        rates_kbps=(2.0, 4.0),
        duration=10.0,
        runs=2,
        grid=True,
        protocols=("DSR-ODPM",),
    )


def _digest(result) -> str:
    canonical = json.dumps(
        result.to_payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _tree(root) -> dict[str, bytes]:
    """Every file under ``root`` as ``{relative_path: bytes}``."""
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _logical_entries(store: ResultStore) -> dict[str, dict]:
    """Backend-independent view of a store's run entries."""
    return dict(store.backend.entries("runs"))


def _arm_faults(monkeypatch, tmp_path, spec: str):
    """Point REPRO_FAULT_INJECT at a fresh marker dir; returns the dir."""
    directory = tmp_path / "faults"
    monkeypatch.setenv(FAULT_INJECT_ENV, "%s%s" % (directory, spec))
    return directory


class TestSharedPlacementPooled:
    """A shared-placement campaign fanned out over a pool.

    The tiny grid shares one placement across seeds, so every batch
    reuses one frozen channel geometry inside its worker.  Two (protocol,
    rate) groups x 2 seeds at ``jobs=2`` must leave the exact store a
    ``jobs=1`` sweep leaves, on both backends, and reproduce the pinned
    digest — also when workers die mid-batch and are retried.
    """

    def test_tiny_grid_shares_placement(self, tiny):
        assert tiny.shares_placement
        assert len(batch_cells(grid_cells(tiny))) == 2

    def test_pooled_json_store_bytes_match_serial(self, tiny, tmp_path):
        cells = grid_cells(tiny)
        serial_store = ResultStore(tmp_path / "serial", backend="json")
        pooled_store = ResultStore(tmp_path / "pooled", backend="json")
        run_grid(tiny, cells, jobs=1, store=serial_store)
        pooled = run_grid(tiny, cells, jobs=2, store=pooled_store)
        assert _tree(tmp_path / "pooled") == _tree(tmp_path / "serial")
        assert pooled_store.writes == len(cells)
        assert _digest(pooled[PINNED_CELL]) == TINY_CELL_DIGEST

    def test_pooled_sqlite_entries_match_serial(self, tiny, tmp_path):
        """Compared logically: two sqlite files with identical rows can
        differ in page bytes."""
        cells = grid_cells(tiny)
        serial_store = ResultStore(tmp_path / "serial", backend="sqlite")
        pooled_store = ResultStore(tmp_path / "pooled", backend="sqlite")
        run_grid(tiny, cells, jobs=1, store=serial_store)
        pooled = run_grid(tiny, cells, jobs=2, store=pooled_store)
        entries = _logical_entries(pooled_store)
        assert entries == _logical_entries(serial_store)
        assert len(entries) == len(cells)
        assert _digest(pooled[PINNED_CELL]) == TINY_CELL_DIGEST

    def test_worker_crash_heals_to_serial_bytes(
        self, tiny, monkeypatch, tmp_path
    ):
        """Every cell's first execution kills its worker with os._exit;
        retries must still converge on the serial store's bytes."""
        cells = grid_cells(tiny)
        serial_store = ResultStore(tmp_path / "serial", backend="json")
        run_grid(tiny, cells, jobs=1, store=serial_store)
        faults = _arm_faults(monkeypatch, tmp_path, ":1")
        pooled_store = ResultStore(tmp_path / "pooled", backend="json")
        policy = FaultPolicy(max_retries=6, backoff_base_s=0.01)
        results = run_grid(
            tiny, cells, jobs=2, store=pooled_store, policy=policy
        )
        assert len(list(faults.iterdir())) == len(cells)  # all crashed once
        assert set(results) == set(cells)
        assert _tree(tmp_path / "pooled") == _tree(tmp_path / "serial")
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST


class TestSplitForJobs:
    """Properties of the batch splitter, over a grid of shapes."""

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("group_sizes", [(1,), (6,), (3, 3), (5, 2, 1)])
    def test_split_preserves_cells_and_order(self, group_sizes, jobs):
        batches = [
            GridBatch("P%d" % index, 2.0 * (index + 1),
                      tuple(range(1, size + 1)))
            for index, size in enumerate(group_sizes)
        ]
        split = _split_for_jobs(batches, jobs)
        # No cell lost, none duplicated, none moved between groups —
        # and within a group the seed order survives concatenation.
        for original in batches:
            parts = [
                unit for unit in split
                if (unit.protocol, unit.rate_kbps)
                == (original.protocol, original.rate_kbps)
            ]
            rejoined = tuple(
                seed for unit in parts for seed in unit.seeds
            )
            assert rejoined == original.seeds
        assert all(unit.seeds for unit in split)

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("group_sizes", [(1,), (6,), (3, 3), (5, 2, 1)])
    def test_split_feeds_every_worker_it_can(self, group_sizes, jobs):
        batches = [
            GridBatch("P%d" % index, 2.0 * (index + 1),
                      tuple(range(1, size + 1)))
            for index, size in enumerate(group_sizes)
        ]
        split = _split_for_jobs(batches, jobs)
        total = sum(group_sizes)
        assert len(split) >= min(jobs, total, len(batches))
        # Splitting never explodes past one unit per cell.
        assert len(split) <= total

    def test_exact_pinned_shape_unchanged(self):
        """The shape test_batch.py pins, as a regression anchor for
        the splitter."""
        one_group = [GridBatch("DSR-ODPM", 2.0, (1, 2, 3, 4, 5, 6))]
        assert [unit.seeds for unit in _split_for_jobs(one_group, 4)] == [
            (1, 2), (3, 4), (5,), (6,)
        ]


class TestReporterReadout:
    def test_events_per_second_column(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=2, enabled=True, stream=stream)
        reporter.note_events(50_000)
        reporter.advance(GridCell("DSR-ODPM", 2.0, 1))
        assert "ev/s" in stream.getvalue()

    def test_eta_ignores_time_spent_reading_the_cache(self):
        """A long cache-read prefix must not inflate the live ETA."""
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=4, enabled=True, stream=stream)
        # Pretend the sweep spent ages before the cache partition ended.
        reporter._start = time.monotonic() - 1000.0
        reporter.cached(2)
        reporter.advance(GridCell("DSR-ODPM", 2.0, 1))
        line = stream.getvalue().splitlines()[-1]
        eta = float(line.split("ETA")[1].split("s")[0])
        # One live cell took ~0s, one remains: ETA must be seconds, not
        # the ~500s a total-elapsed extrapolation would project.
        assert eta < 100.0

    def test_busy_samples_integrate_to_utilization(self):
        reporter = ProgressReporter(total=4, enabled=False)
        reporter.jobs = 2
        reporter._live_start = time.monotonic() - 1.0
        reporter.note_busy(2)
        reporter._busy_sample = (time.monotonic() - 1.0, 2)
        reporter.note_busy(0)
        assert reporter._busy_s == pytest.approx(2.0, rel=0.05)
        assert 0.0 < reporter.utilization <= 1.0

    def test_finish_prints_summary_only_after_live_cells(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=2, enabled=True, stream=stream)
        reporter.cached(2)
        reporter.finish()
        assert "simulated" not in stream.getvalue()
        stream = io.StringIO()
        reporter = ProgressReporter(total=1, enabled=True, stream=stream)
        reporter.note_events(1000)
        reporter.advance(GridCell("DSR-ODPM", 2.0, 1))
        reporter.finish()
        summary = stream.getvalue().splitlines()[-1]
        assert "1 cell(s) simulated" in summary
        assert "events/s" in summary


class TestTerminateWorkers:
    def test_terminated_workers_are_reaped_not_zombied(self):
        """After _terminate_workers every worker is dead *and* waited on
        (exitcode collected), so no defunct entries accumulate."""
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=2)
        pool.submit(time.sleep, 60)
        pool.submit(time.sleep, 60)
        # Let the workers actually spawn and pick the tasks up.
        deadline = time.monotonic() + 10.0
        while len(pool._processes) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        processes = list(pool._processes.values())
        _terminate_workers(pool, join_timeout_s=10.0)
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode is not None
        pool.shutdown(wait=False, cancel_futures=True)
