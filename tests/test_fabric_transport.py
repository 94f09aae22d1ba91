"""Networked fabric end-to-end: TCP workers, chaos, degradation ladder.

The acceptance property (ISSUE 9): a sweep run over TCP through the
chaos proxy -- drops, duplicates, a mid-run partition -- merges
bit-identical to the serial executor, and losing the coordinator's
listener mid-run degrades to shared-directory or serial completion
with zero lost cells.
"""

import json
import socket
import threading
import time

import pytest

from repro.runtime.chaosnet import ChaosProxy, NetFaultPlan, PartitionWindow
from repro.runtime.fabric import (
    FabricConfig,
    FabricError,
    FabricWorker,
    ResultsScanner,
    run_fabric,
    write_grid,
)
from repro.runtime.transport import (
    Backoff,
    FabricEndpoint,
    TransportClient,
)


def _cube(x):
    return x**3


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _grid(tmp_path, items, lease_ttl=60.0):
    config = FabricConfig(workers=0, lease_ttl=lease_ttl)
    write_grid(tmp_path, "sweep-net", "test", list(items), None, config)


def _merge(tmp_path, n):
    scanner = ResultsScanner(tmp_path, n)
    scanner.scan()
    return [scanner.cells.get(i) for i in range(n)]


class TestNetworkedWorker:
    def test_tcp_worker_matches_serial_bit_for_bit(self, tmp_path):
        items = list(range(8))
        _grid(tmp_path, items)
        endpoint = FabricEndpoint(tmp_path)
        port = endpoint.start()
        try:
            worker = FabricWorker(
                fn=_cube,
                connect=f"127.0.0.1:{port}",
                worker_id="net0",
                max_retry_elapsed=10.0,
            )
            assert worker.run() == len(items)
            assert worker.transport_degraded is False
        finally:
            endpoint.stop()
        assert _merge(tmp_path, len(items)) == [_cube(x) for x in items]

    def test_worker_heartbeats_count_as_external_liveness(self, tmp_path):
        _grid(tmp_path, range(3))
        endpoint = FabricEndpoint(tmp_path)
        port = endpoint.start()
        try:
            client = TransportClient(
                ("127.0.0.1", port), "nethb", max_retry_elapsed=5.0
            )
            client.call("heartbeat", cells_done=0)
            client.close()
            payload = json.loads(
                (tmp_path / "workers" / "nethb.json").read_text()
            )
            assert payload["via"] == "tcp"
            assert payload["pid"] is None
            from repro.runtime.fabric import _any_external_heartbeat

            assert _any_external_heartbeat(tmp_path, []) is True
        finally:
            endpoint.stop()

    def test_chaos_run_matches_serial_bit_for_bit(self, tmp_path):
        """Drops + duplicates + mid-frame resets + one full partition:
        the merged grid is still byte-identical to serial."""
        items = list(range(9))
        _grid(tmp_path, items)
        endpoint = FabricEndpoint(tmp_path)
        port = endpoint.start()
        proxy = ChaosProxy(
            "127.0.0.1",
            port,
            NetFaultPlan(
                drop_probability=0.10,
                duplicate_probability=0.10,
                reset_probability=0.05,
                partitions=(PartitionWindow(start=0.5, duration=0.8),),
                seed=3,
            ),
        )
        chaos_port = proxy.start()
        try:
            client = TransportClient(
                ("127.0.0.1", chaos_port),
                "net0",
                call_timeout=0.5,
                max_retry_elapsed=60.0,
                backoff=Backoff(base=0.01, cap=0.1),
            )
            worker = FabricWorker(fn=_cube, transport_client=client)
            assert worker.run() == len(items)
            # The chaos plan actually fired.
            assert (
                proxy.stats.frames_dropped
                + proxy.stats.frames_duplicated
                + proxy.stats.resets
            ) > 0
            assert client.stats.retransmitted_frames > 0
        finally:
            proxy.stop()
            endpoint.stop()
        assert _merge(tmp_path, len(items)) == [_cube(x) for x in items]

    def test_duplicate_uploads_replayed_twice_merge_identically(self, tmp_path):
        """Satellite: every journal upload delivered twice end-to-end
        still merges bit-identical to serial (dedup by worker/index/sha
        at the endpoint, by item index at merge time)."""
        items = list(range(6))
        _grid(tmp_path, items)
        endpoint = FabricEndpoint(tmp_path)
        port = endpoint.start()
        try:
            client = TransportClient(
                ("127.0.0.1", port), "net0", max_retry_elapsed=10.0
            )

            original_call = client.call

            def duplicating_call(op, **kwargs):
                response = original_call(op, **kwargs)
                if op == "upload":
                    replay = original_call(op, **kwargs)
                    assert replay["deduped"] is True
                return response

            client.call = duplicating_call
            worker = FabricWorker(fn=_cube, transport_client=client)
            assert worker.run() == len(items)
            assert endpoint.stats.uploads_deduped == len(items)
        finally:
            endpoint.stop()
        assert _merge(tmp_path, len(items)) == [_cube(x) for x in items]
        journal = (tmp_path / "results" / "net0.jsonl").read_text()
        assert journal.count('"kind": "cell"') == len(items)


def _slow_cube(x):
    time.sleep(0.2)
    return x**3


class TestDegradationLadder:
    def test_endpoint_loss_falls_back_to_shared_directory(self, tmp_path):
        """Kill the listener mid-run: a worker with the directory
        mounted continues there; zero cells are lost."""
        items = list(range(6))
        _grid(tmp_path, items)
        endpoint = FabricEndpoint(tmp_path)
        port = endpoint.start()
        client = TransportClient(
            ("127.0.0.1", port),
            "net0",
            call_timeout=0.5,
            max_retry_elapsed=1.5,
            backoff=Backoff(base=0.01, cap=0.05),
        )
        worker = FabricWorker(tmp_path, fn=_slow_cube, transport_client=client)
        killer = threading.Timer(0.5, endpoint.stop)
        killer.start()
        try:
            assert worker.run() == len(items)
        finally:
            killer.cancel()
            endpoint.stop()
        assert worker.transport_degraded is True
        assert _merge(tmp_path, len(items)) == [_slow_cube(x) for x in items]

    def test_endpoint_loss_without_directory_abandons_clearly(self, tmp_path):
        items = list(range(6))
        _grid(tmp_path, items)
        endpoint = FabricEndpoint(tmp_path)
        port = endpoint.start()
        client = TransportClient(
            ("127.0.0.1", port),
            "net0",
            call_timeout=0.5,
            max_retry_elapsed=1.0,
            backoff=Backoff(base=0.01, cap=0.05),
        )
        worker = FabricWorker(fn=_slow_cube, transport_client=client)
        threading.Timer(0.3, endpoint.stop).start()
        with pytest.raises(FabricError, match="no shared fabric directory"):
            worker.run()
        assert worker.transport_degraded is True

    def test_wrong_sweep_in_fallback_directory_is_rejected(self, tmp_path):
        net_dir = tmp_path / "net"
        other_dir = tmp_path / "other"
        _grid(net_dir, range(4))
        config = FabricConfig(workers=0, lease_ttl=60.0)
        write_grid(
            other_dir, "different-sweep", "test", list(range(4)), None, config
        )
        endpoint = FabricEndpoint(net_dir)
        port = endpoint.start()
        client = TransportClient(
            ("127.0.0.1", port),
            "net0",
            call_timeout=0.5,
            max_retry_elapsed=1.0,
            backoff=Backoff(base=0.01, cap=0.05),
        )
        worker = FabricWorker(
            other_dir, fn=_slow_cube, transport_client=client
        )
        threading.Timer(0.3, endpoint.stop).start()
        with pytest.raises(FabricError, match="different sweep"):
            worker.run()

    def test_version_mismatch_is_rejected_at_hello(self, tmp_path):
        _grid(tmp_path, range(3))
        endpoint = FabricEndpoint(tmp_path)
        port = endpoint.start()
        try:
            client = TransportClient(
                ("127.0.0.1", port), "net0", max_retry_elapsed=5.0
            )
            original_call = client.call

            def skewed_call(op, **kwargs):
                response = original_call(op, **kwargs)
                if op == "hello":
                    response["version"] = 999
                return response

            client.call = skewed_call
            with pytest.raises(FabricError, match="transport.*version|version"):
                FabricWorker(fn=_cube, transport_client=client)
        finally:
            endpoint.stop()


class TestCoordinatorEndpoint:
    def test_run_fabric_serves_tcp_workers(self, tmp_path):
        items = list(range(8))
        port = _free_port()
        config = FabricConfig(
            workers=0,
            lease_ttl=15.0,
            poll_interval=0.05,
            fabric_dir=tmp_path / "fab",
            listen=f"127.0.0.1:{port}",
        )
        computed = {}

        def join():
            # Give run_fabric a moment to bind the endpoint.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    worker = FabricWorker(
                        fn=_cube,
                        connect=f"127.0.0.1:{port}",
                        worker_id="ext0",
                        max_retry_elapsed=5.0,
                    )
                    break
                except Exception:
                    time.sleep(0.05)
            else:  # pragma: no cover - endpoint never came up
                return
            computed["n"] = worker.run()

        thread = threading.Thread(target=join)
        thread.start()
        try:
            results, report = run_fabric(
                _cube, items, config=config, label="net-e2e"
            )
        finally:
            thread.join(timeout=30.0)
        assert results == [_cube(x) for x in items]
        assert computed.get("n") == len(items)
        assert report.endpoint == f"127.0.0.1:{port}"
        assert report.transport["uploads"] == len(items)
        assert report.transport["connections"] >= 1
        assert "client_reconnects" in report.transport
        assert f"endpoint 127.0.0.1:{port}" in report.render()

    def test_listen_port_conflict_is_a_fabric_error(self, tmp_path):
        blocker = socket.socket()
        blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            config = FabricConfig(
                workers=0,
                lease_ttl=1.0,
                fabric_dir=tmp_path / "fab",
                listen=f"127.0.0.1:{port}",
            )
            with pytest.raises(FabricError, match="cannot listen"):
                run_fabric(_cube, list(range(3)), config=config, label="conflict")
        finally:
            blocker.close()

    def test_completed_grid_skips_the_endpoint(self, tmp_path):
        """Rerunning a finished sweep must not bind a socket at all."""
        items = list(range(4))
        fabric_dir = tmp_path / "fab"
        config = FabricConfig(
            workers=0, lease_ttl=1.0, poll_interval=0.05, fabric_dir=fabric_dir
        )
        results, _ = run_fabric(_cube, items, config=config, label="pre")
        assert results == [_cube(x) for x in items]
        # Same sweep again, now with a listen endpoint on a port that
        # is deliberately already taken: no bind may be attempted.
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            config2 = FabricConfig(
                workers=0,
                lease_ttl=1.0,
                poll_interval=0.05,
                fabric_dir=fabric_dir,
                listen=f"127.0.0.1:{port}",
            )
            results2, report2 = run_fabric(
                _cube, items, config=config2, label="pre"
            )
        finally:
            blocker.close()
        assert results2 == results
        assert report2.endpoint is None
        assert report2.resumed == len(items)

    def test_config_validates_listen_endpoint_eagerly(self, tmp_path):
        with pytest.raises(ValueError, match="host:port"):
            FabricConfig(listen="not-an-endpoint")
