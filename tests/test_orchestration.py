"""Tests for the parallel orchestrator and the persistent result store.

Covers the contracts the run layer promises: cache hit/miss behaviour,
config-hash stability across interpreter processes, serial-vs-parallel
result equality, and actionable mid-grid failure messages.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.parallel import (
    GridCell,
    GridCellError,
    ProgressReporter,
    discover_routes,
    grid_cells,
    run_grid,
    run_sweep,
)
from repro.experiments.runner import frozen_routes, run_many, run_single, sweep
from repro.experiments.scenarios import Scenario, grid_network
from repro.experiments.store import (
    ResultStore,
    cell_key,
    routes_key,
    scenario_fingerprint,
)


@pytest.fixture
def tiny() -> Scenario:
    """A 3x3 grid that simulates in well under a second."""
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


class TestConfigHash:
    def test_key_is_stable_within_process(self, tiny):
        assert cell_key(tiny, "DSR-ODPM", 2.0, 1) == cell_key(
            tiny, "DSR-ODPM", 2.0, 1
        )

    def test_key_distinguishes_cells(self, tiny):
        base = cell_key(tiny, "DSR-ODPM", 2.0, 1)
        assert cell_key(tiny, "TITAN-PC", 2.0, 1) != base
        assert cell_key(tiny, "DSR-ODPM", 4.0, 1) != base
        assert cell_key(tiny, "DSR-ODPM", 2.0, 2) != base
        assert cell_key(tiny.scaled(duration=20.0, runs=2), "DSR-ODPM", 2.0, 1) != base

    def test_key_ignores_presentation_fields(self, tiny):
        """runs / rate grid / protocol line-up do not invalidate a cell."""
        from dataclasses import replace

        reshaped = replace(
            tiny, runs=99, rates_kbps=(8.0,), protocols=("TITAN-PC",)
        )
        assert cell_key(reshaped, "DSR-ODPM", 2.0, 1) == cell_key(
            tiny, "DSR-ODPM", 2.0, 1
        )

    def test_key_is_stable_across_processes(self, tiny):
        """sha256-of-canonical-JSON, not hash(): identical in a fresh interpreter."""
        script = (
            "from repro.experiments.scenarios import Scenario\n"
            "from repro.experiments.store import cell_key\n"
            "s = Scenario(name='tiny-test', node_count=9, field_size=120.0,\n"
            "             flow_count=3, rates_kbps=(2.0, 4.0), duration=10.0,\n"
            "             runs=2, grid=True, protocols=('DSR-ODPM',))\n"
            "print(cell_key(s, 'DSR-ODPM', 2.0, 1))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = "%s%s%s" % (
            src, os.pathsep, env.get("PYTHONPATH", "")
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == cell_key(tiny, "DSR-ODPM", 2.0, 1)

    def test_fingerprint_covers_card_physics(self, tiny):
        fingerprint = scenario_fingerprint(tiny)
        assert fingerprint["card"]["p_idle"] == tiny.card.p_idle
        assert fingerprint["duration"] == tiny.duration


class TestResultStore:
    def test_miss_then_hit_roundtrip(self, tiny, tmp_path):
        store = ResultStore(tmp_path)
        key = cell_key(tiny, "DSR-ODPM", 2.0, 1)
        assert store.get_run(key) is None
        assert store.misses == 1

        result = run_single(tiny, "DSR-ODPM", 2.0, seed=1)
        store.put_run(key, result)
        assert store.writes == 1
        assert len(store) == 1

        cached = store.get_run(key)
        assert store.hits == 1
        assert cached is not None
        assert cached.to_payload() == result.to_payload()
        assert cached.delivery_ratio == result.delivery_ratio
        assert cached.energy_goodput == result.energy_goodput

    def test_corrupt_entry_is_a_miss(self, tiny, tmp_path):
        store = ResultStore(tmp_path)
        key = cell_key(tiny, "DSR-ODPM", 2.0, 1)
        store.put_run(key, run_single(tiny, "DSR-ODPM", 2.0, seed=1))
        path = store._path("runs", key)
        path.write_text("not json", encoding="utf-8")
        assert store.get_run(key) is None

    def test_shape_mismatched_entry_is_a_miss(self, tiny, tmp_path):
        """Valid JSON with an alien payload shape must not crash the sweep."""
        store = ResultStore(tmp_path)
        key = cell_key(tiny, "DSR-ODPM", 2.0, 1)
        store.put_run(key, run_single(tiny, "DSR-ODPM", 2.0, seed=1))
        store._path("runs", key).write_text(
            '{"result": {"unexpected": true}}', encoding="utf-8"
        )
        assert store.get_run(key) is None
        assert store.misses == 1
        routes_k = routes_key(tiny, "DSR-ODPM", 1, 2.0)
        store.put_routes(routes_k, {0: (0, 1)})
        store._path("routes", routes_k).write_text(
            '{"routes": 7}', encoding="utf-8"
        )
        assert store.get_routes(routes_k) is None

    def test_clear_removes_everything(self, tiny, tmp_path):
        store = ResultStore(tmp_path)
        key = cell_key(tiny, "DSR-ODPM", 2.0, 1)
        store.put_run(key, run_single(tiny, "DSR-ODPM", 2.0, seed=1))
        assert store.clear() == 1
        assert len(store) == 0

    def test_routes_roundtrip(self, tiny, tmp_path):
        store = ResultStore(tmp_path)
        key = routes_key(tiny, "DSR-ODPM", 1, 2.0)
        routes = {0: (0, 1, 2), 1: (3, 4, 5)}
        assert store.get_routes(key) is None
        store.put_routes(key, routes)
        assert store.get_routes(key) == routes


class TestRunGrid:
    def test_serial_and_parallel_results_identical(self, tiny):
        cells = grid_cells(tiny)
        assert len(cells) == 4  # 1 protocol x 2 rates x 2 seeds
        serial = run_grid(tiny, cells, jobs=1)
        parallel = run_grid(tiny, cells, jobs=2)
        for cell in cells:
            assert serial[cell].to_payload() == parallel[cell].to_payload()

    def test_second_invocation_hits_cache_only(self, tiny, tmp_path):
        store = ResultStore(tmp_path)
        cells = grid_cells(tiny)
        first = run_grid(tiny, cells, jobs=2, store=store)
        assert store.writes == len(cells)
        again = run_grid(tiny, cells, jobs=2, store=store)
        assert store.writes == len(cells)  # zero new simulations
        assert store.hits == len(cells)
        for cell in cells:
            assert again[cell].to_payload() == first[cell].to_payload()

    def test_cache_shared_between_serial_and_parallel(self, tiny, tmp_path):
        store = ResultStore(tmp_path)
        cells = grid_cells(tiny, seeds=(1,))
        run_grid(tiny, cells, jobs=1, store=store)
        writes = store.writes
        run_grid(tiny, cells, jobs=2, store=store)
        assert store.writes == writes

    def test_sweep_matches_legacy_serial_path(self, tiny):
        """runner.sweep (orchestrated) equals per-cell run_single aggregation."""
        from repro.metrics.collectors import aggregate_runs

        grid = sweep(tiny)
        for (protocol, rate), agg in grid.items():
            expected = aggregate_runs(
                [run_single(tiny, protocol, rate, seed) for seed in (1, 2)]
            )
            assert agg == expected

    def test_run_sweep_parallel_equals_serial(self, tiny):
        serial = run_sweep(tiny, jobs=1)
        parallel = run_sweep(tiny, jobs=2)
        assert serial == parallel

    def test_progress_reporter_counts_and_eta(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(total=2, enabled=True, stream=stream)
        reporter.cached(1)
        reporter.advance(GridCell("DSR-ODPM", 2.0, 1))
        lines = stream.getvalue().splitlines()
        assert "[1/2] reused from cache" in lines[0]
        assert "[2/2]" in lines[1] and "ETA" in lines[1]
        assert reporter.done == 2


class TestDeterminismContract:
    """The simulator's observable output is pinned bit-for-bit.

    The digest below was recorded from the PR 1 hot path *before* the
    kernel/channel/PHY optimizations and must survive any change that
    claims to be a pure performance improvement.  If a PR intentionally
    changes simulation behaviour, re-record the digest AND bump
    ``repro.experiments.store.CACHE_FORMAT_VERSION`` so stale cached runs
    are invalidated; bumping the version is NOT needed for payload-shape
    churn alone (the digest only covers ``RunResult.to_payload()``).
    """

    #: sha256 of the canonical-JSON payload of the fig8 (small-network,
    #: smoke scale) cell at (DSR-ODPM, 8 Kbit/s, seed 1).
    FIG8_CELL_DIGEST = (
        "e7f78a1e177bf4fa28276f333aedf61afe16c8e0c6c2ef3d84136795be3a86bc"
    )

    #: sha256 of the tiny fixture's (DSR-ODPM, 2 Kbit/s, seed 1) payload —
    #: the cell the serial == parallel == cached legs of the contract
    #: below are pinned against (the resumed and merged legs pin it in
    #: ``tests/test_resilience.py`` and ``tests/test_backends.py``).
    TINY_CELL_DIGEST = (
        "d038f4c678d5f4e86895ea42fa481e55b91603ff1abe311a95bff03765dfc914"
    )

    @staticmethod
    def _digest(payload: dict) -> str:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def test_fig8_cell_digest_pinned(self):
        from repro.experiments.scenarios import small_network

        scenario = small_network(scale="smoke")
        result = run_single(scenario, "DSR-ODPM", 8.0, seed=1)
        assert self._digest(result.to_payload()) == self.FIG8_CELL_DIGEST

    def test_fig8_cell_digest_pinned_under_batched_dispatch(self):
        """The historical digest must also come out of the batch path."""
        from repro.experiments.scenarios import small_network

        scenario = small_network(scale="smoke")
        cell = GridCell("DSR-ODPM", 8.0, 1)
        results = run_grid(scenario, [cell])
        assert self._digest(results[cell].to_payload()) == self.FIG8_CELL_DIGEST

    def test_four_way_contract_pinned(self, tiny, tmp_path):
        """serial == parallel == cached, bit for bit.

        One grid, three execution modes; every mode must reproduce the
        recorded digest for the pinned cell and identical payloads for
        every other cell.  The parallel leg runs pooled and store-backed;
        the pooled store's bytes are pinned against a serial store's in
        ``tests/test_warm_sweep.py``.
        """
        cells = grid_cells(tiny)
        serial = run_grid(tiny, cells, jobs=1)
        parallel = run_grid(
            tiny, cells, jobs=2, store=ResultStore(tmp_path / "pooled")
        )
        store = ResultStore(tmp_path / "cached")
        run_grid(tiny, cells, jobs=1, store=store)
        cached = run_grid(tiny, cells, jobs=1, store=store)
        assert store.hits == len(cells)  # second pass was pure cache
        for cell in cells:
            reference = serial[cell].to_payload()
            assert parallel[cell].to_payload() == reference
            assert cached[cell].to_payload() == reference
        pinned = GridCell("DSR-ODPM", 2.0, 1)
        assert self._digest(serial[pinned].to_payload()) == self.TINY_CELL_DIGEST

    def test_digest_survives_payload_roundtrip(self):
        from repro.metrics.collectors import RunResult

        scenario = grid_network(scale="smoke").scaled(duration=10.0, runs=1)
        result = run_single(scenario, "DSR-ODPM", 2.0, seed=1)
        clone = RunResult.from_payload(result.to_payload())
        assert self._digest(clone.to_payload()) == self._digest(
            result.to_payload()
        )


class TestFailureReporting:
    def test_run_many_names_offending_cell(self, tiny):
        from dataclasses import replace

        bad = replace(tiny, protocols=("NOPE",))
        with pytest.raises(GridCellError) as excinfo:
            run_many(bad, "NOPE", 2.0)
        message = str(excinfo.value)
        assert "protocol=NOPE" in message
        assert "rate=2" in message
        assert "seed=1" in message
        assert excinfo.value.cell == GridCell("NOPE", 2.0, 1)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_failure_crosses_process_boundary(self, tiny):
        with pytest.raises(GridCellError) as excinfo:
            run_grid(
                tiny,
                [GridCell("NOPE", 2.0, 1), GridCell("NOPE", 2.0, 2)],
                jobs=2,
            )
        assert "protocol=NOPE" in str(excinfo.value)

    def test_grid_cell_error_pickles(self):
        error = GridCellError(GridCell("TITAN-PC", 4.0, 3), "boom")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.cell == error.cell
        assert str(clone) == str(error)


class TestFrozenRouteCache:
    def test_frozen_routes_cached(self, tmp_path):
        scenario = grid_network(scale="smoke").scaled(duration=30.0, runs=1)
        store = ResultStore(tmp_path)
        routes = frozen_routes(scenario, "DSR-ODPM", store=store)
        assert store.writes == 1
        cached = frozen_routes(scenario, "DSR-ODPM", store=store)
        assert store.hits == 1
        assert store.writes == 1  # no new probe simulation
        assert cached == routes

    def test_discover_routes_parallel_matches_serial(self, tmp_path):
        scenario = grid_network(scale="smoke").scaled(duration=30.0, runs=1)
        protocols = ("DSR-ODPM", "TITAN-PC")
        serial = discover_routes(scenario, protocols, jobs=1)
        store = ResultStore(tmp_path)
        parallel = discover_routes(scenario, protocols, jobs=2, store=store)
        assert parallel == serial
        assert store.writes == len(protocols)
        # Warm pass: served from the routes cache, no probe simulations.
        warm = discover_routes(scenario, protocols, jobs=2, store=store)
        assert warm == serial
        assert store.writes == len(protocols)
        assert store.hits == len(protocols)

    def test_discover_routes_failure_names_protocol(self):
        scenario = grid_network(scale="smoke").scaled(duration=30.0, runs=1)
        with pytest.raises(GridCellError) as excinfo:
            discover_routes(scenario, ("DSR-ODPM", "NOPE"), jobs=2)
        assert "protocol=NOPE" in str(excinfo.value)
