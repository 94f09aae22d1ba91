"""Distributed sweep fabric: leases, stealing, crash recovery, merging.

The acceptance property (ISSUE 7): a fabric run with >= 2 workers, one
of them SIGKILLed mid-cell, completes with zero lost cells and output
bit-identical to the serial executor.
"""

import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.fabric import (
    FabricConfig,
    FabricError,
    FabricWorker,
    FilesystemClock,
    Heartbeat,
    LeaseBoard,
    ResultsScanner,
    _heartbeat_payload_fresh,
    function_ref,
    load_grid,
    resolve_function_ref,
    run_fabric,
    write_grid,
)


def _square(x):
    return x * x


def _nested_sum(x):
    from repro.analysis.sweep import sweep

    assert multiprocessing.parent_process() is None  # ran in the coordinator
    return sum(sweep([x, x + 1], _square))


def _fast_config(fabric_dir, workers=2, **overrides):
    defaults = dict(
        workers=workers,
        lease_ttl=1.0,
        heartbeat_interval=0.25,
        poll_interval=0.05,
        fabric_dir=fabric_dir,
        cache_dir=None,
    )
    defaults.update(overrides)
    return FabricConfig(**defaults)


class TestFabricConfig:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="workers must be non-negative"):
            FabricConfig(workers=-1)

    def test_rejects_non_positive_lease_ttl(self):
        with pytest.raises(ValueError, match="lease_ttl must be positive"):
            FabricConfig(lease_ttl=0)

    def test_rejects_heartbeat_at_or_above_ttl(self):
        with pytest.raises(ValueError, match="below lease_ttl"):
            FabricConfig(lease_ttl=5.0, heartbeat_interval=5.0)

    def test_heartbeat_defaults_to_third_of_ttl(self):
        assert FabricConfig(lease_ttl=9.0).effective_heartbeat_interval == 3.0


class TestFunctionRef:
    def test_importable_function_round_trips(self):
        ref = function_ref(_square)
        assert ref is not None and ref.endswith(":_square")
        assert resolve_function_ref(ref) is _square

    def test_closure_has_no_ref(self):
        def local(x):
            return x

        assert function_ref(local) is None
        assert function_ref(lambda x: x) is None

    def test_malformed_ref_raises(self):
        with pytest.raises(FabricError):
            resolve_function_ref("no-colon")


class TestGrid:
    def test_round_trip(self, tmp_path):
        items = [(i, "x" * i) for i in range(5)]
        write_grid(tmp_path, "sweep123", "label", items, None, FabricConfig())
        header, loaded = load_grid(tmp_path)
        assert header["sweep"] == "sweep123"
        assert header["n_items"] == 5
        assert loaded == items

    def test_missing_grid_raises(self, tmp_path):
        with pytest.raises(FabricError, match="no grid"):
            load_grid(tmp_path)

    def test_torn_grid_is_fatal(self, tmp_path):
        write_grid(tmp_path, "s", "l", [1, 2, 3], None, FabricConfig())
        lines = (tmp_path / "grid.jsonl").read_text().splitlines()
        (tmp_path / "grid.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FabricError, match="torn grid"):
            load_grid(tmp_path)

    def test_corrupt_item_checksum_is_fatal(self, tmp_path):
        write_grid(tmp_path, "s", "l", [1, 2], None, FabricConfig())
        path = tmp_path / "grid.jsonl"
        lines = path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["sha"] = "0" * 64
        lines[1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FabricError, match="corrupt grid item"):
            load_grid(tmp_path)


class TestLeaseBoard:
    def test_first_claim_wins_second_loses(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", lease_ttl=60.0)
        b = LeaseBoard(tmp_path, "b", lease_ttl=60.0)
        claimed, victim = a.try_claim(0)
        assert claimed and victim is None
        claimed, victim = b.try_claim(0)
        assert not claimed

    def test_live_heartbeat_blocks_steal(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", lease_ttl=0.1)
        hb = Heartbeat(tmp_path, "a", lease_ttl=60.0, interval=10.0)
        hb.beat()  # fresh heartbeat with a 60s deadline
        a.try_claim(0)
        time.sleep(0.2)  # claim is older than the TTL...
        b = LeaseBoard(tmp_path, "b", lease_ttl=0.1)
        claimed, _ = b.try_claim(0)
        assert not claimed  # ...but the owner is demonstrably alive

    def test_expired_lease_is_stolen_with_epoch_bump(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", lease_ttl=0.1)
        a.try_claim(0)  # worker "a" never heartbeats
        time.sleep(0.2)
        b = LeaseBoard(tmp_path, "b", lease_ttl=0.1)
        claimed, victim = b.try_claim(0)
        assert claimed and victim == "a"
        lease = b.read(0)
        assert lease.worker == "b"
        assert lease.epoch == 1
        assert lease.stolen_from == "a"

    def test_departed_worker_lease_expires_by_claim_age(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", lease_ttl=0.1)
        hb = Heartbeat(tmp_path, "a", lease_ttl=0.1, interval=10.0)
        hb.beat(left=True)  # clean exit: deadline = now, left flag set
        a.try_claim(0)
        time.sleep(0.2)
        claimed, victim = LeaseBoard(tmp_path, "b", lease_ttl=0.1).try_claim(0)
        assert claimed and victim == "a"

    def test_torn_lease_file_becomes_stealable(self, tmp_path):
        board = LeaseBoard(tmp_path, "b", lease_ttl=0.1)
        board.directory.mkdir(parents=True)
        (board.path(0)).write_text('{"kind": "lea')  # killed mid-create
        time.sleep(0.2)
        claimed, _ = board.try_claim(0)
        assert claimed

    def test_stats_count_claims_and_steals(self, tmp_path):
        a = LeaseBoard(tmp_path, "a", lease_ttl=0.05)
        a.try_claim(0)
        a.try_claim(1)
        time.sleep(0.1)
        b = LeaseBoard(tmp_path, "b", lease_ttl=0.05)
        b.try_claim(1)
        claims, steals = b.stats()
        assert claims == 2
        assert steals == 1

    def test_same_worker_reclaim_is_idempotent(self, tmp_path):
        """At-least-once RPC delivery may replay a claim whose response
        was lost; the owner must see success, not a deadlock."""
        a = LeaseBoard(tmp_path, "a", lease_ttl=60.0)
        assert a.try_claim(0) == (True, None)
        assert a.try_claim(0) == (True, None)
        assert a.read(0).epoch == 0


class _SkewedClock:
    """A worker whose wall clock runs one hour fast (no correction)."""

    def __init__(self, skew=3600.0):
        self.skew = skew

    def now(self):
        return time.time() + self.skew


class TestClockSkew:
    """Cross-host skew regression: a worker with a fast wall clock must
    not prematurely steal a live lease (ISSUE 9 satellite)."""

    def test_filesystem_clock_measures_local_skew(self, tmp_path):
        skewed = FilesystemClock(
            tmp_path, time_fn=lambda: time.time() + 3600.0
        )
        offset = skewed.sample()
        # Probe mtimes come from the (unskewed) filesystem, so the
        # measured offset cancels the injected skew.
        assert offset == pytest.approx(-3600.0, abs=5.0)
        assert skewed.now() == pytest.approx(time.time(), abs=5.0)

    def test_filesystem_clock_survives_unwritable_directory(self, tmp_path):
        clock = FilesystemClock(tmp_path / "missing" / "x" / "y")
        # mkdir will create it; point at a file to force the OSError path.
        (tmp_path / "blocked").write_text("")
        clock = FilesystemClock(tmp_path / "blocked" / "sub")
        assert clock.sample() == 0.0
        assert clock.now() == pytest.approx(time.time(), abs=5.0)

    def test_uncorrected_fast_clock_steals_a_live_lease(self, tmp_path):
        """The hazard itself: with raw wall clocks, one hour of skew
        makes a fresh lease look expired."""
        a = LeaseBoard(tmp_path, "a", lease_ttl=60.0)
        Heartbeat(tmp_path, "a", lease_ttl=60.0, interval=10.0).beat()
        a.try_claim(0)
        rogue = LeaseBoard(
            tmp_path, "b", lease_ttl=60.0, clock=_SkewedClock()
        )
        claimed, victim = rogue.try_claim(0)
        assert claimed and victim == "a"  # the bug this PR fixes

    def test_corrected_fast_clock_cannot_steal_a_live_lease(self, tmp_path):
        """The fix: the same skewed worker, using FilesystemClock,
        judges lease and heartbeat ages in fileserver time."""
        a = LeaseBoard(tmp_path, "a", lease_ttl=60.0)
        Heartbeat(tmp_path, "a", lease_ttl=60.0, interval=10.0).beat()
        a.try_claim(0)
        corrected = FilesystemClock(
            tmp_path, time_fn=lambda: time.time() + 3600.0
        )
        b = LeaseBoard(tmp_path, "b", lease_ttl=60.0, clock=corrected)
        claimed, _ = b.try_claim(0)
        assert not claimed

    def test_skewed_writer_lease_age_anchored_to_mtime(self, tmp_path):
        """A lease whose recorded claimed_at is absurd (skewed writer)
        ages by its file mtime, not the recorded timestamp."""
        a = LeaseBoard(tmp_path, "a", lease_ttl=60.0)
        a.try_claim(0)
        # Rewrite the lease with a claimed_at one hour in the past, as
        # a slow-clocked writer would have stamped it.
        lease = a.read(0)
        payload = lease.to_json()
        payload["claimed_at"] = time.time() - 3600.0
        a.path(0).write_text(json.dumps(payload))
        b = LeaseBoard(tmp_path, "b", lease_ttl=60.0)
        claimed, _ = b.try_claim(0)
        assert not claimed  # file is seconds old, whatever it claims

    def test_heartbeat_freshness_ignores_writer_deadline_when_ttl_present(
        self, tmp_path
    ):
        """A heartbeat from a slow-clocked worker records a deadline
        that is already past; freshness must come from mtime + ttl."""
        path = tmp_path / "workers" / "a.json"
        path.parent.mkdir(parents=True)
        payload = {
            "kind": "heartbeat",
            "worker": "a",
            "deadline": time.time() - 3600.0,  # skewed writer's clock
            "ttl": 60.0,
            "left": False,
        }
        path.write_text(json.dumps(payload))
        assert _heartbeat_payload_fresh(path, payload, time.time()) is True

    def test_heartbeat_freshness_falls_back_to_deadline_without_ttl(
        self, tmp_path
    ):
        path = tmp_path / "workers" / "a.json"
        path.parent.mkdir(parents=True)
        fresh = {"kind": "heartbeat", "deadline": time.time() + 60.0}
        stale = {"kind": "heartbeat", "deadline": time.time() - 60.0}
        path.write_text(json.dumps(fresh))
        assert _heartbeat_payload_fresh(path, fresh, time.time()) is True
        assert _heartbeat_payload_fresh(path, stale, time.time()) is False

    def test_left_heartbeat_is_never_fresh(self, tmp_path):
        path = tmp_path / "workers" / "a.json"
        path.parent.mkdir(parents=True)
        payload = {"kind": "heartbeat", "ttl": 60.0, "left": True}
        path.write_text(json.dumps(payload))
        assert _heartbeat_payload_fresh(path, payload, time.time()) is False


class TestResultsScanner:
    def _write(self, path: Path, lines):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line)

    def test_torn_trailing_line_waits_for_next_scan(self, tmp_path):
        from repro.runtime.journal import encode_cell_entry

        path = tmp_path / "results" / "w0.jsonl"
        good = json.dumps(encode_cell_entry(0, "done")) + "\n"
        partial = json.dumps(encode_cell_entry(1, "later"))
        self._write(path, [good, partial[:20]])

        scanner = ResultsScanner(tmp_path, n_items=2)
        scanner.scan()
        assert scanner.cells == {0: "done"}
        assert scanner.corrupt_lines == 0  # in-flight, not corrupt

        self._write(path, [partial[20:] + "\n"])
        scanner.scan()
        assert scanner.cells == {0: "done", 1: "later"}

    def test_corrupt_complete_line_is_counted_and_skipped(self, tmp_path):
        from repro.runtime.journal import encode_cell_entry

        path = tmp_path / "results" / "w0.jsonl"
        entry = encode_cell_entry(0, "value")
        entry["sha"] = "0" * 64
        self._write(path, [json.dumps(entry) + "\n", "not json at all\n"])
        scanner = ResultsScanner(tmp_path, n_items=1)
        scanner.scan()
        assert scanner.cells == {}
        assert scanner.corrupt_lines == 2

    def test_failure_record_superseded_by_later_success(self, tmp_path):
        from repro.runtime.journal import encode_cell_entry

        path = tmp_path / "results" / "w0.jsonl"
        self._write(path, [
            json.dumps(
                {"kind": "failed", "index": 0, "error": "boom", "attempts": 3}
            ) + "\n",
        ])
        scanner = ResultsScanner(tmp_path, n_items=1)
        scanner.scan()
        assert scanner.failed == {0: "boom"}
        assert scanner.attempts == {0: 3}
        assert scanner.done == {0}

        self._write(
            tmp_path / "results" / "w1.jsonl",
            [json.dumps(encode_cell_entry(0, "recovered")) + "\n"],
        )
        scanner.scan()
        assert scanner.cells == {0: "recovered"}
        assert scanner.failed == {}

    def test_per_worker_counts(self, tmp_path):
        from repro.runtime.journal import encode_cell_entry

        for worker, indices in (("w0", [0, 1]), ("w1", [2])):
            self._write(
                tmp_path / "results" / f"{worker}.jsonl",
                [json.dumps(encode_cell_entry(i, i)) + "\n" for i in indices],
            )
        scanner = ResultsScanner(tmp_path, n_items=3)
        scanner.scan()
        assert scanner.per_worker == {"w0": 2, "w1": 1}


class TestRunFabric:
    def test_matches_serial_executor(self, tmp_path):
        items = list(range(12))
        serial = [_square(x) for x in items]
        results, report = run_fabric(
            _square, items, config=_fast_config(tmp_path / "fab"), label="sq"
        )
        assert results == serial
        assert not report.degraded
        assert not report.failed
        assert report.computed == 12
        assert sum(report.per_worker.values()) >= 12

    def test_closure_runs_via_fork_inheritance(self, tmp_path):
        offset = 17

        def cell(x):
            return x + offset

        results, report = run_fabric(
            cell, [1, 2, 3], config=_fast_config(tmp_path / "fab"), label="clos"
        )
        assert results == [18, 19, 20]
        # A closure grid carries no fn_ref: external joiners must fail
        # with a clear error instead of computing garbage.
        header, _ = load_grid(report.fabric_dir)
        assert header["fn_ref"] is None
        with pytest.raises(FabricError, match="no importable cell function"):
            FabricWorker(report.fabric_dir, worker_id="ext")

    def test_coordinator_restart_recomputes_nothing(self, tmp_path):
        mark_dir = tmp_path / "marks"
        mark_dir.mkdir()

        def cell(x):
            (mark_dir / f"{x}-{os.getpid()}").touch()
            return x * 3

        config = _fast_config(tmp_path / "fab")
        first, report1 = run_fabric(cell, [1, 2, 3, 4], config=config, label="re")
        n_marks = len(list(mark_dir.iterdir()))
        assert n_marks >= 4

        second, report2 = run_fabric(cell, [1, 2, 3, 4], config=config, label="re")
        assert second == first == [3, 6, 9, 12]
        assert report2.resumed == 4
        assert report2.computed == 0
        assert report2.workers_spawned == 0  # nothing pending, no forks
        assert len(list(mark_dir.iterdir())) == n_marks  # zero recompute

    def test_wrong_sweep_in_fabric_dir_is_rejected(self, tmp_path):
        config = _fast_config(tmp_path / "fab")
        run_fabric(_square, [1, 2], config=config, label="one")
        with pytest.raises(FabricError, match="different sweep"):
            run_fabric(_square, [3, 4, 5], config=config, label="two")

    def test_all_workers_dead_degrades_to_serial(self, tmp_path):
        # Every forked worker dies on its first cell; the coordinator
        # (same pid as the test) must notice, warn, and finish the grid
        # serially in-process.
        main_pid = os.getpid()

        def cell(x):
            if os.getpid() != main_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return x + 1

        results, report = run_fabric(
            cell, [1, 2, 3],
            config=_fast_config(
                tmp_path / "fab", lease_ttl=0.6, heartbeat_interval=0.2
            ),
            label="dead",
        )
        assert results == [2, 3, 4]
        assert report.degraded
        assert "no live workers" in report.warning
        assert report.per_worker.get("coordinator", 0) >= 1

    def test_failed_cell_is_reported_not_lost(self, tmp_path):
        def cell(x):
            if x == 2:
                raise ValueError("doomed cell")
            return x

        results, report = run_fabric(
            cell, [1, 2, 3], config=_fast_config(tmp_path / "fab"), label="fail"
        )
        assert results[0] == 1 and results[2] == 3
        assert results[1] is None
        assert list(report.failed) == [1]
        assert "doomed cell" in report.failed[1]

    def test_empty_sweep_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one item"):
            run_fabric(_square, [], config=_fast_config(tmp_path / "fab"))

    def test_telemetry_publishes_fabric_counters(self, tmp_path):
        from repro.runtime import use_runtime

        with use_runtime(telemetry=True) as context:
            run_fabric(
                _square, [1, 2, 3],
                config=_fast_config(tmp_path / "fab"), label="tele",
            )
        runs = context.telemetry.runs
        fabric_runs = [(k, rt) for k, rt in runs if k.startswith("fabric:")]
        assert len(fabric_runs) == 1
        _, run_telemetry = fabric_runs[0]
        snapshot = run_telemetry.registry.snapshot()
        assert snapshot["counters"]["fabric/cells-computed"] == 3
        assert snapshot["counters"]["fabric/lease-claims"] == 3
        assert snapshot["gauges"]["fabric/workers"] == 2.0
        per_worker = [
            name for name in snapshot["counters"]
            if name.startswith("fabric/cells-by/")
        ]
        assert per_worker


class TestSupervisedMapBackend:
    """``use_runtime(fabric=...)`` sends every sweep through the fabric
    under the same failure policy as the local supervisor."""

    @staticmethod
    def _doomed(x):
        if x == 2:
            raise ValueError("doomed cell")
        return x

    def test_sweep_runs_on_the_fabric_without_a_sweep_journal(self, tmp_path):
        from repro.analysis.sweep import sweep
        from repro.runtime import use_runtime

        with use_runtime(
            jobs=3,
            fabric=_fast_config(tmp_path / "fab", workers=2),
            journal_dir=tmp_path / "journal",
        ) as context:
            assert sweep([1, 2, 3, 4], _square) == [1, 4, 9, 16]
        (report,) = context.fabric_reports
        assert report.workers_spawned == 2  # from the config, not jobs
        assert report.computed == 4
        assert context.journal_stats.recorded == 0
        assert not (tmp_path / "journal").exists()

    def test_failed_cell_raises_worker_error_by_default(self, tmp_path):
        from repro.analysis.sweep import sweep
        from repro.runtime import WorkerError, use_runtime

        with use_runtime(jobs=2, fabric=_fast_config(tmp_path / "fab")):
            with pytest.raises(WorkerError, match="doomed cell") as info:
                sweep([1, 2, 3], self._doomed)
        assert (info.value.index, info.value.item) == (1, 2)

    def test_quarantine_yields_none_and_a_failure_report(self, tmp_path):
        from repro.analysis.sweep import sweep
        from repro.runtime import RetryPolicy, use_runtime

        policy = RetryPolicy(max_attempts=2, backoff=0.0, on_failure="quarantine")
        with use_runtime(
            jobs=2, retry=policy, fabric=_fast_config(tmp_path / "fab")
        ) as context:
            assert sweep([1, 2, 3], self._doomed) == [1, None, 3]
        (report,) = context.failure_reports
        assert report.quarantined_indices == [1]
        (record,) = report.failures
        assert record.attempts == 2
        assert "doomed cell" in record.message

    def test_no_live_worker_finishes_in_process_without_nested_fabric(
        self, tmp_path, monkeypatch
    ):
        import repro.runtime.fabric as fabric_module
        from repro.analysis.sweep import sweep
        from repro.runtime import use_runtime

        calls = []
        real_run_fabric = fabric_module.run_fabric

        def counting_run_fabric(*args, **kwargs):
            calls.append(args)
            return real_run_fabric(*args, **kwargs)

        monkeypatch.setattr(fabric_module, "run_fabric", counting_run_fabric)
        with use_runtime(
            jobs=2,
            fabric=_fast_config(tmp_path / "fab", workers=0, lease_ttl=0.3),
        ) as context:
            assert sweep([1, 2], _nested_sum) == [1 + 4, 4 + 9]
        assert len(calls) == 1
        (report,) = context.fabric_reports
        assert report.workers_spawned == 0
        assert report.degraded
        assert report.per_worker == {"coordinator": 2}


    def test_closure_cells_are_refused(self, tmp_path):
        from repro.analysis.sweep import sweep
        from repro.runtime import use_runtime

        offset = 17
        with use_runtime(fabric=_fast_config(tmp_path / "fab")):
            with pytest.raises(FabricError, match="not importable by name"):
                sweep([1, 2], lambda x: x + offset)
        assert not (tmp_path / "fab").exists()

    def test_telemetry_is_refused_with_a_fabric(self, tmp_path):
        from repro.runtime import use_runtime

        with pytest.raises(ValueError, match="telemetry"):
            with use_runtime(telemetry=True, fabric=_fast_config(tmp_path)):
                pass  # pragma: no cover - never entered


class TestSigkillRecovery:
    """The headline acceptance test: kill a worker mid-cell, nothing lost."""

    def test_sigkilled_worker_cell_is_stolen_and_rerun(self, tmp_path):
        flag = tmp_path / "block.flag"
        marker = tmp_path / "victim.pid"
        flag.touch()

        def cell(x):
            if x == 99:
                # First executor of this cell announces itself and then
                # blocks while the flag exists; the test SIGKILLs it
                # mid-cell.  The stealing worker finds the flag gone
                # and completes instantly.
                if not marker.exists():
                    marker.write_text(str(os.getpid()))
                    while flag.exists():
                        time.sleep(0.02)
            return x * 2

        items = [1, 2, 99, 3, 4, 5]
        outcome = {}

        def coordinate():
            outcome["out"] = run_fabric(
                cell, items,
                config=_fast_config(
                    tmp_path / "fab", lease_ttl=0.8, heartbeat_interval=0.2
                ),
                label="sigkill",
            )

        thread = threading.Thread(target=coordinate)
        thread.start()
        deadline = time.time() + 30
        while not marker.exists() and time.time() < deadline:
            time.sleep(0.02)
        assert marker.exists(), "no worker ever reached the blocking cell"
        victim_pid = int(marker.read_text())
        os.kill(victim_pid, signal.SIGKILL)
        flag.unlink()  # the re-run must not block
        thread.join(timeout=120)
        assert not thread.is_alive()

        results, report = outcome["out"]
        assert results == [x * 2 for x in items]  # bit-identical, zero lost
        assert not report.failed
        # The victim's lease lapsed and its cell was re-dispatched: the
        # steal is visible either in the lease epochs or in the
        # coordinator's own degraded takeover.
        assert report.steals + report.reclaims >= 1

    def test_worker_journals_survive_torn_final_line(self, tmp_path):
        # A SIGKILL can tear the very line being written; the scanner
        # must treat it as in-flight/corrupt, never crash, and the cell
        # must be recomputed by the next run.
        from repro.runtime.journal import encode_cell_entry, sweep_fingerprint

        results_dir = tmp_path / "fab" / "results"
        results_dir.mkdir(parents=True)
        good = json.dumps(encode_cell_entry(0, 100)) + "\n"
        torn = json.dumps(encode_cell_entry(1, 200))[:25]  # no newline
        (results_dir / "dead-worker.jsonl").write_text(good + torn)

        write_grid(
            tmp_path / "fab",
            sweep_fingerprint("torn", [10, 20]),
            "torn",
            [10, 20],
            None,
            FabricConfig(),
        )

        def cell(x):
            return x + 1000

        results, report = run_fabric(
            cell, [10, 20],
            config=_fast_config(tmp_path / "fab", workers=1),
            label="torn",
        )
        assert results[0] == 100  # the verified line was resumed as-is
        assert results[1] == 1020  # the torn cell was recomputed
        assert report.resumed == 1


class TestExternalWorker:
    def test_worker_joins_and_completes_grid(self, tmp_path):
        from repro.runtime.journal import sweep_fingerprint

        items = [3, 4, 5]
        config = _fast_config(tmp_path / "fab", workers=0)
        write_grid(
            tmp_path / "fab",
            sweep_fingerprint("ext", items),
            "ext",
            items,
            function_ref(_square),
            config,
        )
        worker = FabricWorker(
            tmp_path / "fab", worker_id="ext-1", poll_interval=0.02
        )
        computed = worker.run()
        assert computed == 3

        scanner = ResultsScanner(tmp_path / "fab", n_items=3)
        scanner.scan()
        assert [scanner.cells[i] for i in range(3)] == [9, 16, 25]
