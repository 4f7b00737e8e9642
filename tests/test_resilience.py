"""Resilient sweep campaigns: retries, resume, interruption, self-healing.

Covers the contracts the resilience layer adds on top of the PR 1/5
orchestrator:

* :class:`FaultPolicy` — validation, deterministic exponential backoff;
* worker-crash recovery — real ``os._exit`` deaths injected via
  ``REPRO_FAULT_INJECT``, retried under a rebuilt pool to results
  byte-identical with an undisturbed serial run (the five-way contract's
  hardest leg), plus the retry-exhausted paths in both error modes;
* the cell-timeout watchdog against genuinely-wedged workers;
* ``continue`` mode — healthy cells finish, failed cells are reported
  with their cause/attempt count, a poisoned batch sheds only its bad
  seed;
* :class:`GridCellError` carrying the original traceback text across the
  process-pool boundary;
* :class:`SweepManifest` round-trip, fingerprint guarding, and
  interrupted-then-resumed determinism (pinned against the recorded
  TINY digest from ``tests/test_orchestration.py``);
* the self-healing store — corrupt entries quarantined on read and in
  bulk via ``verify --repair``, stale temp files reaped;
* the CLI surface: exit 130 on interrupt, exit 1 + failure report under
  ``--continue-on-error``, ``--manifest``/``--resume`` round-trip.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import time

import pytest

from repro.cli import main as cli_main
from repro.experiments.parallel import (
    GridBatch,
    GridCell,
    GridCellError,
    ProgressReporter,
    _split_batch,
    grid_cells,
    run_grid,
)
from repro.experiments.resilience import (
    FAULT_INJECT_ENV,
    INTERRUPT_EXIT_CODE,
    CellFailure,
    FaultPolicy,
    InterruptGuard,
    ManifestMismatchError,
    SweepFailureReport,
    SweepInterrupted,
    SweepManifest,
)
from repro.experiments.runner import run_many
from repro.experiments.scenarios import Scenario
from repro.experiments.store import ResultStore, cell_key

#: The pinned digest of the tiny fixture's (DSR-ODPM, 2 Kbit/s, seed 1)
#: cell — the same constant ``tests/test_orchestration.py`` pins the
#: serial == parallel == cached legs against.  The resilience legs below
#: (crashed-and-retried, interrupted-then-resumed) must reproduce it bit
#: for bit.
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


def _digests(results) -> dict:
    return {cell: _digest(result) for cell, result in results.items()}


@pytest.fixture
def serial_digests(tiny):
    """Reference digests from an undisturbed serial run."""
    return _digests(run_grid(tiny, grid_cells(tiny)))


@pytest.fixture
def one_seed_cells() -> list[GridCell]:
    """Four (protocol, rate) groups of one seed each: every batch is one
    cell, so per-cell progress, timeouts and failures stay per cell."""
    return [GridCell("DSR-ODPM", rate, 1) for rate in (2.0, 4.0, 6.0, 8.0)]


def _arm_faults(monkeypatch, tmp_path, spec: str):
    """Point REPRO_FAULT_INJECT at a fresh marker dir; returns the dir."""
    directory = tmp_path / "faults"
    monkeypatch.setenv(FAULT_INJECT_ENV, "%s%s" % (directory, spec))
    return directory


class TestFaultPolicy:
    def test_defaults_are_the_pre_resilience_contract(self):
        policy = FaultPolicy()
        assert policy.max_retries == 0
        assert policy.cell_timeout_s is None
        assert not policy.continue_on_error

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.1},
            {"cell_timeout_s": 0.0},
            {"cell_timeout_s": -5.0},
            {"on_error": "explode"},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)

    def test_backoff_is_deterministic_and_exponential(self):
        policy = FaultPolicy(max_retries=3, backoff_base_s=0.5)
        first = policy.backoff_delay(1, "cell-a")
        assert first == policy.backoff_delay(1, "cell-a")  # no entropy
        assert 0.5 <= first < 0.5 * 1.25
        second = policy.backoff_delay(2, "cell-a")
        assert 1.0 <= second < 1.0 * 1.25
        assert policy.backoff_delay(0, "cell-a") == 0.0

    def test_backoff_jitter_depends_on_the_key(self):
        policy = FaultPolicy(backoff_base_s=0.5)
        assert policy.backoff_delay(1, "cell-a") != policy.backoff_delay(
            1, "cell-b"
        )


class TestTracebackAcrossPool:
    """Satellite: the original exception site survives pickling."""

    def test_from_exception_captures_the_traceback_text(self):
        try:
            raise ValueError("inner detail")
        except ValueError as exc:
            error = GridCellError.from_exception(GridCell("P", 2.0, 1), exc)
        assert "ValueError: inner detail" in error.cause_traceback
        assert "Traceback" in error.cause_traceback
        assert "test_resilience" in error.cause_traceback  # the real site

    def test_pickle_keeps_the_cause_traceback(self):
        try:
            raise ValueError("inner detail")
        except ValueError as exc:
            error = GridCellError.from_exception(GridCell("P", 2.0, 1), exc)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.cause_traceback == error.cause_traceback
        assert clone.cell == error.cell
        assert str(clone) == str(error)

    def test_two_argument_construction_still_works(self):
        """Pre-resilience callers (and old pickles) pass no traceback."""
        error = GridCellError(GridCell("P", 4.0, 3), "boom")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.cause_traceback is None
        assert clone.cause_summary == "boom"

    def test_worker_failure_names_the_real_site(self, tiny):
        """Across the pool boundary the report still shows the origin."""
        with pytest.raises(GridCellError) as excinfo:
            run_grid(
                tiny,
                [GridCell("NOPE", 2.0, 1), GridCell("NOPE", 4.0, 1)],
                jobs=2,
            )
        assert excinfo.value.cause_traceback is not None
        assert "ValueError" in excinfo.value.cause_traceback
        assert "Traceback" in excinfo.value.cause_traceback

    def test_failure_report_line_includes_the_site(self):
        failure = CellFailure(
            cell=GridCell("P", 2.0, 1),
            cause="ValueError: boom",
            attempts=1,
            transient=False,
            detail=(
                "Traceback (most recent call last):\n"
                '  File "repro/sim/network.py", line 42, in run\n'
                "    raise ValueError('boom')\n"
                "ValueError: boom\n"
            ),
        )
        line = str(failure)
        assert "ValueError: boom" in line
        assert 'File "repro/sim/network.py", line 42' in line


class TestContinueOnError:
    def test_healthy_cells_complete_and_failures_are_reported(self, tiny):
        cells = [
            GridCell("DSR-ODPM", 2.0, 1),
            GridCell("NOPE", 2.0, 1),
            GridCell("DSR-ODPM", 4.0, 1),
        ]
        failures = SweepFailureReport()
        results = run_grid(
            tiny,
            cells,
            policy=FaultPolicy(on_error="continue"),
            failures=failures,
        )
        assert set(results) == {cells[0], cells[2]}
        assert len(failures) == 1
        (failure,) = list(failures)
        assert failure.cell == GridCell("NOPE", 2.0, 1)
        assert failure.attempts == 1
        assert not failure.transient
        assert "NOPE" in failures.render()

    def test_fail_mode_is_unchanged(self, tiny):
        with pytest.raises(GridCellError):
            run_grid(
                tiny,
                [GridCell("NOPE", 2.0, 1)],
                policy=FaultPolicy(on_error="fail"),
            )

    def test_split_batch_sheds_only_the_poisoned_seed(self):
        unit = GridBatch("P", 2.0, (1, 2, 3))
        error = GridCellError(GridCell("P", 2.0, 2), "boom")
        (survivor,) = _split_batch(unit, error)
        assert survivor.seeds == (1, 3)
        assert _split_batch(GridBatch("P", 2.0, (2,)), error) == []

    def test_batched_continue_runs_the_siblings(self, tiny, monkeypatch, tmp_path):
        """A deterministic mid-batch failure costs one cell, not the batch."""
        _arm_faults(monkeypatch, tmp_path, ":99:error:2#1")
        failures = SweepFailureReport()
        results = run_grid(
            tiny,
            grid_cells(tiny),
            jobs=2,
            policy=FaultPolicy(on_error="continue"),
            failures=failures,
        )
        # (2.0, seed 1) was poisoned; its batch sibling (2.0, seed 2) and
        # the whole 4.0 batch must still have completed.
        assert PINNED_CELL not in results
        assert GridCell("DSR-ODPM", 2.0, 2) in results
        assert GridCell("DSR-ODPM", 4.0, 1) in results
        assert GridCell("DSR-ODPM", 4.0, 2) in results
        assert [f.cell for f in failures] == [PINNED_CELL]
        assert "FaultInjected" in list(failures)[0].cause


class TestCrashRecovery:
    def test_retry_recovers_to_serial_digests(
        self, tiny, monkeypatch, tmp_path, serial_digests
    ):
        """Every cell's first execution dies via os._exit; retries heal.

        Each (protocol, rate) batch crashes at least twice (once per
        seed's first execution), so this is the acceptance row's
        ">= 2 injected worker crashes + retries" leg.  The generous
        retry budget absorbs collateral attempts: a pool collapse
        penalizes every in-flight unit, not just the guilty one.
        """
        faults = _arm_faults(monkeypatch, tmp_path, ":1")
        results = run_grid(
            tiny,
            grid_cells(tiny),
            jobs=2,
            policy=FaultPolicy(max_retries=6, backoff_base_s=0.01),
        )
        markers = list(faults.iterdir())
        assert len(markers) >= 2  # at least two real worker deaths
        assert _digests(results) == serial_digests
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST

    def test_exhausted_retries_fail_fast_by_default(
        self, tiny, monkeypatch, tmp_path
    ):
        _arm_faults(monkeypatch, tmp_path, ":99")
        with pytest.raises(GridCellError) as excinfo:
            run_grid(
                tiny,
                grid_cells(tiny),
                jobs=2,
                policy=FaultPolicy(max_retries=0, backoff_base_s=0.01),
            )
        assert "crashed" in str(excinfo.value)

    def test_exhausted_retries_continue_mode_reports_transient(
        self, tiny, monkeypatch, tmp_path
    ):
        _arm_faults(monkeypatch, tmp_path, ":99")
        failures = SweepFailureReport()
        results = run_grid(
            tiny,
            grid_cells(tiny),
            jobs=2,
            policy=FaultPolicy(
                max_retries=0, backoff_base_s=0.01, on_error="continue"
            ),
            failures=failures,
        )
        assert results == {}
        assert sorted(failures.cells()) == sorted(grid_cells(tiny))
        for failure in failures:
            assert failure.transient
            assert failure.attempts == 1
            assert "crashed" in failure.cause

    def test_timeout_watchdog_reclaims_a_wedged_worker(
        self, tiny, one_seed_cells, monkeypatch, tmp_path
    ):
        """A cell that hangs forever is terminated and reported, siblings run."""
        _arm_faults(monkeypatch, tmp_path, ":99:hang:2#1")
        failures = SweepFailureReport()
        started = time.monotonic()
        results = run_grid(
            tiny,
            one_seed_cells,
            jobs=2,
            policy=FaultPolicy(
                max_retries=1,
                backoff_base_s=0.01,
                cell_timeout_s=1.0,
                on_error="continue",
            ),
            failures=failures,
        )
        elapsed = time.monotonic() - started
        assert elapsed < 60.0  # never waited for the hour-long sleep
        assert PINNED_CELL not in results
        assert PINNED_CELL in [f.cell for f in failures]
        hung = next(f for f in failures if f.cell == PINNED_CELL)
        assert "timed out" in hung.cause
        assert hung.transient
        # The three healthy cells all completed despite collateral kills.
        assert set(results) == set(one_seed_cells) - {PINNED_CELL}


class TestManifest:
    def test_round_trip_preserves_states(self, tiny, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = SweepManifest.open(path)
        cells = grid_cells(tiny)
        manifest.register(tiny, cells)
        manifest.mark_done(cells[0])
        manifest.mark_failed(cells[1], "ValueError: boom", attempts=2)
        clone = SweepManifest.load(path)
        assert clone.state(cells[0]) == "done"
        assert clone.state(cells[1]) == "failed"
        assert clone.state(cells[2]) == "pending"
        assert clone.counts() == {"pending": 2, "done": 1, "failed": 1}
        assert sorted(clone.cells()) == sorted(cells)

    def test_open_starts_empty_then_loads(self, tmp_path):
        path = tmp_path / "manifest.json"
        first = SweepManifest.open(path)
        assert first.counts() == {"pending": 0, "done": 0, "failed": 0}
        assert not path.exists()  # nothing flushed yet

    def test_register_degrades_done_to_pending(self, tiny, tmp_path):
        """The store, not the manifest, vouches for completed results."""
        path = tmp_path / "manifest.json"
        manifest = SweepManifest.open(path)
        cells = grid_cells(tiny)
        manifest.register(tiny, cells)
        manifest.mark_done(cells[0])
        resumed = SweepManifest.load(path)
        resumed.register(tiny, cells)
        assert resumed.state(cells[0]) == "pending"

    def test_register_rejects_a_different_scenario(self, tiny, tmp_path):
        from dataclasses import replace

        path = tmp_path / "manifest.json"
        manifest = SweepManifest.open(path)
        manifest.register(tiny, grid_cells(tiny))
        other = replace(tiny, duration=20.0)
        resumed = SweepManifest.load(path)
        with pytest.raises(ManifestMismatchError):
            resumed.register(other, grid_cells(other))

    def test_load_rejects_alien_files(self, tmp_path):
        path = tmp_path / "not-a-manifest.json"
        path.write_text('{"kind": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            SweepManifest.load(path)

    def test_flush_is_atomic_no_tmp_left_behind(self, tiny, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = SweepManifest.open(path)
        manifest.register(tiny, grid_cells(tiny))
        assert path.exists()
        assert list(tmp_path.glob(".*.tmp")) == []


def _worker_signal_disposition():
    return (
        signal.getsignal(signal.SIGINT) is signal.SIG_IGN,
        signal.getsignal(signal.SIGTERM) is signal.SIG_DFL,
    )


class TestInterruptGuard:
    def test_pool_workers_shed_the_inherited_handler(self):
        """Forked workers must not inherit the parent's drain handler.

        SIGINT must be ignored (a terminal Ctrl-C hits the whole process
        group; the parent owns draining) and SIGTERM must stay lethal —
        the timeout watchdog and the executor's broken-pool cleanup both
        depend on it.
        """
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.resilience import _mark_worker

        with InterruptGuard():
            with ProcessPoolExecutor(
                max_workers=1, initializer=_mark_worker
            ) as pool:
                ignored, lethal = pool.submit(
                    _worker_signal_disposition
                ).result()
        assert ignored and lethal
    def test_first_signal_sets_the_flag(self, capsys):
        with InterruptGuard() as guard:
            assert not guard.interrupted
            signal.raise_signal(signal.SIGINT)
            assert guard.interrupted  # flag, not an exception
        assert "draining" in capsys.readouterr().err

    def test_second_signal_aborts_immediately(self, capsys):
        with InterruptGuard() as guard:
            signal.raise_signal(signal.SIGINT)
            with pytest.raises(KeyboardInterrupt):
                signal.raise_signal(signal.SIGINT)
        assert guard.interrupted

    def test_handlers_are_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with InterruptGuard():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before


class TestInterruptedThenResumed:
    def test_five_way_contract_interrupted_leg(
        self, tiny, one_seed_cells, tmp_path
    ):
        """Interrupt after one cell, resume, match the serial digests.

        The interruption is triggered deterministically (the guard flag
        flips after the first completed batch, here one cell), so this
        test pins the exact done/pending split rather than racing a real
        signal.
        """
        cells = one_seed_cells
        serial_digests = _digests(run_grid(tiny, cells))
        store = ResultStore(tmp_path / "cache")
        manifest_path = tmp_path / "manifest.json"
        guard = InterruptGuard()

        class InterruptAfterFirst(ProgressReporter):
            def advance(self, label, cells=1):
                super().advance(label, cells=cells)
                guard.trigger()

        with pytest.raises(SweepInterrupted) as excinfo:
            run_grid(
                tiny,
                cells,
                store=store,
                progress=InterruptAfterFirst(total=len(cells), enabled=False),
                manifest=SweepManifest.open(manifest_path),
                interrupt=guard,
            )
        assert excinfo.value.done == 1
        assert excinfo.value.total == len(cells)
        assert excinfo.value.manifest_path == str(manifest_path)

        checkpoint = SweepManifest.load(manifest_path)
        counts = checkpoint.counts()
        assert counts["done"] == 1
        assert counts["pending"] == len(cells) - 1

        resumed_store = ResultStore(tmp_path / "cache")
        resumed = run_grid(
            tiny,
            cells,
            store=resumed_store,
            manifest=checkpoint,
            interrupt=InterruptGuard(),
        )
        assert resumed_store.hits == 1  # the pre-interrupt cell came back
        assert _digests(resumed) == serial_digests
        assert _digest(resumed[PINNED_CELL]) == TINY_CELL_DIGEST
        final = SweepManifest.load(manifest_path)
        assert final.counts()["done"] == len(cells)

    def test_crashed_campaign_resumes_to_serial_digests(
        self, tiny, monkeypatch, tmp_path, serial_digests
    ):
        """Crash-interrupted (no retries) then resumed-with-retries.

        First pass: every first execution crashes and the budget is
        zero, so the campaign fails; the store keeps whatever finished.
        Second pass: retries absorb the remaining injected crashes and
        the merged results are byte-identical to the serial reference.
        """
        faults = _arm_faults(monkeypatch, tmp_path, ":1")
        store = ResultStore(tmp_path / "cache")
        manifest_path = tmp_path / "manifest.json"
        with pytest.raises(GridCellError):
            run_grid(
                tiny,
                grid_cells(tiny),
                jobs=2,
                store=store,
                manifest=SweepManifest.open(manifest_path),
                policy=FaultPolicy(max_retries=0, backoff_base_s=0.01),
            )
        assert len(list(faults.iterdir())) >= 1

        resumed = run_grid(
            tiny,
            grid_cells(tiny),
            jobs=2,
            store=ResultStore(tmp_path / "cache"),
            manifest=SweepManifest.open(manifest_path),
            policy=FaultPolicy(max_retries=6, backoff_base_s=0.01),
        )
        assert len(list(faults.iterdir())) >= 2  # more deaths, absorbed
        assert _digests(resumed) == serial_digests
        assert _digest(resumed[PINNED_CELL]) == TINY_CELL_DIGEST


class TestSelfHealingStore:
    def _populate(self, tiny, root) -> tuple[ResultStore, str]:
        store = ResultStore(root)
        run_grid(tiny, [PINNED_CELL], store=store)
        return store, cell_key(tiny, "DSR-ODPM", 2.0, 1)

    def test_corrupt_entry_quarantined_on_read(self, tiny, tmp_path):
        store, key = self._populate(tiny, tmp_path)
        path = store._path("runs", key)
        raw = bytearray(path.read_bytes())
        start = raw.index(b'"result"')
        offset = next(
            i for i in range(start, len(raw)) if chr(raw[i]).isdigit()
        )
        raw[offset] ^= 0x01  # real bit rot: file still parses, digest wrong
        path.write_bytes(bytes(raw))

        fresh = ResultStore(tmp_path)
        assert fresh.get_run(key) is None  # miss, not corrupt data
        assert fresh.misses == 1
        assert fresh.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantine").exists()

    def test_quarantined_cell_transparently_reruns(
        self, tiny, tmp_path, serial_digests
    ):
        store, key = self._populate(tiny, tmp_path)
        path = store._path("runs", key)
        path.write_text("{ not json", encoding="utf-8")
        healer = ResultStore(tmp_path)
        results = run_grid(tiny, [PINNED_CELL], store=healer)
        assert healer.quarantined == 1
        assert _digest(results[PINNED_CELL]) == TINY_CELL_DIGEST
        # The store holds a sound entry again.
        assert ResultStore(tmp_path).get_run(key) is not None

    def test_verify_repair_quarantines_in_bulk(self, tiny, tmp_path):
        store, key = self._populate(tiny, tmp_path)
        path = store._path("runs", key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["delivery_ratio"] = 0.5
        path.write_text(json.dumps(entry), encoding="utf-8")

        report = store.verify_sample(repair=True)
        assert len(report["failures"]) == 1
        assert report["quarantined"] == 1
        assert not path.exists()
        # A second verify pass sees a clean (empty) sample space.
        assert ResultStore(tmp_path).verify_sample()["failures"] == []

    def test_clean_tmp_reaps_only_stale_files(self, tiny, tmp_path):
        store, key = self._populate(tiny, tmp_path)
        bucket = store._path("runs", key).parent
        stale = bucket / ".deadbeef.12345.tmp"
        stale.write_text("{}", encoding="utf-8")
        two_hours_ago = time.time() - 7200
        os.utime(stale, (two_hours_ago, two_hours_ago))
        fresh = bucket / ".cafebabe.12345.tmp"
        fresh.write_text("{}", encoding="utf-8")

        assert store.clean_tmp() == 1  # default horizon: stale only
        assert not stale.exists()
        assert fresh.exists()
        assert store.clean_tmp(older_than_s=0.0) == 1  # explicit: all
        assert not fresh.exists()

    def test_run_grid_reaps_stale_tmp_at_sweep_start(self, tiny, tmp_path):
        store, key = self._populate(tiny, tmp_path)
        bucket = store._path("runs", key).parent
        stale = bucket / ".deadbeef.12345.tmp"
        stale.write_text("{}", encoding="utf-8")
        two_hours_ago = time.time() - 7200
        os.utime(stale, (two_hours_ago, two_hours_ago))
        run_grid(tiny, [PINNED_CELL], store=store)
        assert not stale.exists()


class TestCLI:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def raises(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.fig7_curves", raises)
        assert cli_main(["fig7"]) == INTERRUPT_EXIT_CODE
        assert "interrupted" in capsys.readouterr().err

    def test_continue_on_error_sweep_reports_and_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                [
                    "sweep", "--scenario", "grid", "--scale", "smoke",
                    "--protocols", "DSR-ODPM", "NOPE", "--rates", "2",
                    "--continue-on-error",
                ]
            )
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert "DSR-ODPM" in captured.out  # the healthy row printed
        assert "1 cell(s) failed" in captured.err
        assert "NOPE @ 2 Kbit/s, seed 1" in captured.err
        assert "attempt 1" in captured.err

    def test_manifest_resume_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        manifest = tmp_path / "manifest.json"
        argv = [
            "sweep", "--scenario", "grid", "--scale", "smoke",
            "--protocols", "DSR-ODPM", "--rates", "2",
            "--cache-dir", str(cache), "--manifest", str(manifest),
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "1 done, 0 failed, 0 pending" in out

        resume_argv = argv[:-2] + ["--resume", str(manifest)]
        assert cli_main(resume_argv) == 0
        out = capsys.readouterr().out
        assert "1 hits, 0 misses, 0 new runs written" in out

    def test_resume_requires_an_existing_manifest(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                [
                    "sweep", "--scenario", "grid", "--scale", "smoke",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--resume", str(tmp_path / "nope.json"),
                ]
            )
        assert "no sweep manifest" in str(excinfo.value)

    def test_manifest_requires_cache_dir(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                [
                    "sweep", "--scenario", "grid", "--scale", "smoke",
                    "--manifest", str(tmp_path / "manifest.json"),
                ]
            )
        assert "--cache-dir" in str(excinfo.value)

    def test_cache_verify_repair_heals_the_store(self, tmp_path, capsys):
        tiny = Scenario(
            name="tiny-test", node_count=9, field_size=120.0, flow_count=3,
            rates_kbps=(2.0, 4.0), duration=10.0, runs=2, grid=True,
            protocols=("DSR-ODPM",),
        )
        store = ResultStore(tmp_path)
        run_grid(tiny, [PINNED_CELL], store=store)
        key = cell_key(tiny, "DSR-ODPM", 2.0, 1)
        path = store._path("runs", key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["delivery_ratio"] = 0.5
        path.write_text(json.dumps(entry), encoding="utf-8")

        # Without --repair: corruption detected, exit 1, file untouched.
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["cache", "verify", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert path.exists()
        capsys.readouterr()

        # With --repair: quarantined, exit 0, next verify is clean.
        assert cli_main(
            ["cache", "verify", "--cache-dir", str(tmp_path), "--repair"]
        ) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 corrupt entry" in out
        assert not path.exists()
        assert path.with_name(path.name + ".quarantine").exists()
        assert cli_main(
            ["cache", "verify", "--cache-dir", str(tmp_path)]
        ) == 0


class TestRunManyPolicy:
    def test_run_many_forwards_the_policy(self, tiny, monkeypatch, tmp_path):
        """A crashing cell heals inside run_many too, not just run_grid."""
        _arm_faults(monkeypatch, tmp_path, ":1")
        aggregate = run_many(
            tiny, "DSR-ODPM", 2.0, jobs=2,
            policy=FaultPolicy(max_retries=6, backoff_base_s=0.01),
        )
        reference = run_many(tiny, "DSR-ODPM", 2.0)
        assert aggregate == reference
