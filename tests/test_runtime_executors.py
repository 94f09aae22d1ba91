"""Sweep execution contract: ordering, fan-out, failure propagation.

Every sweep runs through one runner (:mod:`repro.runtime.supervisor`);
these tests pin what ``sweep()`` guarantees under ``use_runtime(jobs=N)``.
"""

import pickle
import time

import pytest

from repro.analysis.sweep import ReplicationError, replicate, sweep
from repro.runtime import RetryPolicy, Supervisor, WorkerError, use_runtime
from repro.runtime import supervisor as supervisor_module


def _pool_forbidden(*args, **kwargs):
    raise AssertionError("ProcessPoolExecutor must not be built")


class TestSerialSweep:
    def test_preserves_order(self):
        assert sweep([3, 1, 2], lambda x: x * x) == [9, 1, 4]

    def test_empty(self):
        assert Supervisor(RetryPolicy()).run(lambda x: x, []) == ([], None)


class TestParallelSweep:
    def test_preserves_order_across_workers(self):
        with use_runtime(jobs=4):
            result = sweep(list(range(23)), lambda x: x * 10)
        assert result == [x * 10 for x in range(23)]

    def test_closure_state_ships_to_workers(self):
        offset = 1000
        with use_runtime(jobs=2):
            result = sweep([1, 2, 3], lambda x: x + offset)
        assert result == [1001, 1002, 1003]

    def test_worker_exception_carries_item_and_traceback(self):
        def explode(x):
            if x == 2:
                raise ValueError("boom on two")
            return x

        with use_runtime(jobs=2):
            with pytest.raises(WorkerError) as excinfo:
                sweep([0, 1, 2, 3], explode)
        assert excinfo.value.index == 2
        assert excinfo.value.item == 2
        assert "boom on two" in str(excinfo.value)
        assert "ValueError" in excinfo.value.remote_traceback

    def test_first_failure_aborts_without_waiting(self):
        # Fail fast: the failing cell raises at once and the pool is
        # killed, so the hung co-flight cell never holds the sweep up.
        def cell(x):
            if x == 0:
                raise ValueError("first")
            time.sleep(60)

        started = time.monotonic()
        with use_runtime(jobs=2):
            with pytest.raises(WorkerError) as excinfo:
                sweep([0, 1], cell)
        assert excinfo.value.index == 0
        assert time.monotonic() - started < 30

    def test_single_item_runs_serially(self, monkeypatch):
        # One item never builds a pool: exceptions surface raw, not
        # wrapped.
        monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor", _pool_forbidden)

        def explode(x):
            raise ValueError("raw")

        with use_runtime(jobs=4):
            with pytest.raises(ValueError):
                sweep([1], explode)

    def test_nested_map_degrades_to_serial(self):
        def run_inner(x):
            # In a forked worker _IN_WORKER is set, so this inner sweep
            # must not fork again.
            return sum(sweep([10, 20], lambda y: y + x))

        with use_runtime(jobs=2):
            assert sweep([1, 2], run_inner) == [32, 34]
        assert supervisor_module._ACTIVE is None  # always disarmed after


class TestWorkerErrorContract:
    def test_message_carries_serial_repro_command(self):
        error = WorkerError(3, ("rcad", 2.0), "ValueError('x')", "tb")
        assert "--jobs 1" in str(error)
        assert "repro" in str(error)
        assert "sweep item 3" in str(error)

    def test_repro_command_rewrites_jobs_from_argv(self, monkeypatch):
        monkeypatch.setattr(
            "sys.argv", ["repro", "fig2", "--jobs", "8", "--packets", "50"]
        )
        assert (
            supervisor_module._serial_repro_command()
            == "repro fig2 --packets 50 --jobs 1"
        )
        monkeypatch.setattr("sys.argv", ["repro", "chaos", "--jobs=4"])
        assert supervisor_module._serial_repro_command() == "repro chaos --jobs 1"

    def test_repro_command_drops_fabric_options(self, monkeypatch):
        monkeypatch.setattr(
            "sys.argv",
            ["repro", "fig2", "--fabric-dir", "/tmp/fab", "--listen=h:1",
             "--lease-ttl", "5", "--jobs", "2", "--packets", "50"],
        )
        assert (
            supervisor_module._serial_repro_command()
            == "repro fig2 --packets 50 --jobs 1"
        )

    def test_repro_command_without_cli_context(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["pytest"])
        assert supervisor_module._serial_repro_command() == "repro <command> --jobs 1"

    def test_index_and_item_round_trip_through_pickle(self):
        original = WorkerError(7, {"case": "rcad", "load": 2.0}, "boom", "trace")
        restored = pickle.loads(pickle.dumps(original))
        assert isinstance(restored, WorkerError)
        assert restored.index == 7
        assert restored.item == {"case": "rcad", "load": 2.0}
        assert restored.message == "boom"
        assert restored.remote_traceback == "trace"
        assert "sweep item 7" in str(restored)


class TestForkUnavailableDegradation:
    def test_map_runs_serially_without_fork(self, monkeypatch):
        # Platform without fork (e.g. Windows/macOS-spawn): a parallel
        # sweep must quietly take the serial path -- same results, no
        # pool construction at all.
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor", _pool_forbidden)
        with use_runtime(jobs=4):
            assert sweep([1, 2, 3], lambda x: x * 3) == [3, 6, 9]

    def test_map_runs_serially_inside_worker(self, monkeypatch):
        # The _IN_WORKER guard: a sweep dispatched from within a forked
        # worker must not open a nested pool (fork bomb).
        monkeypatch.setattr(supervisor_module, "_IN_WORKER", True)
        monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor", _pool_forbidden)
        with use_runtime(jobs=4):
            assert sweep([1, 2, 3], lambda x: x + 1) == [2, 3, 4]

    def test_exceptions_surface_raw_on_serial_fallback(self, monkeypatch):
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods", lambda: ["spawn"]
        )

        def explode(x):
            raise ValueError("raw, not WorkerError")

        with use_runtime(jobs=4):
            with pytest.raises(ValueError, match="raw"):
                sweep([1, 2], explode)


class TestSweepIntegration:
    def test_sweep_uses_active_executor(self):
        with use_runtime(jobs=3):
            assert sweep([1, 2, 3, 4], lambda x: x * 2) == [2, 4, 6, 8]

    def test_sweep_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep([], lambda x: x)

    def test_replicate_names_offending_seed(self):
        def run_one(seed):
            if seed == 7:
                raise RuntimeError("bad draw")
            return float(seed)

        with pytest.raises(ReplicationError, match="seed 7"):
            replicate(4, run_one, base_seed=5)

    def test_replicate_names_offending_seed_in_parallel(self):
        def run_one(seed):
            if seed == 2:
                raise RuntimeError("bad draw")
            return float(seed)

        with use_runtime(jobs=2):
            with pytest.raises(WorkerError, match="seed 2"):
                replicate(4, run_one, base_seed=0)

    def test_replicate_summary_matches_serial(self):
        serial = replicate(6, lambda seed: float(seed * seed), base_seed=3)
        with use_runtime(jobs=3):
            parallel = replicate(6, lambda seed: float(seed * seed), base_seed=3)
        assert serial == parallel
