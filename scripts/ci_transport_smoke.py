#!/usr/bin/env python
"""CI smoke test for the fabric's TCP transport + chaos proxy.

Runs ``repro fig2 --listen ... --jobs 1`` -- a fabric coordinator
serving the Figure 2 grid over TCP with zero forked workers -- then
joins two networked workers:

* one in-process worker whose connection is routed through the
  :class:`repro.runtime.chaosnet.ChaosProxy` with frame drops,
  duplicate delivery, and one full mid-run partition;
* one ``repro worker --connect`` subprocess that is SIGKILLed after it
  lands at least one cell (its leases expire on the coordinator's
  clock and the surviving worker steals the rest).

Asserts that the run completes with zero failed cells, that the chaos
plan actually fired (frames dropped/duplicated, partition enforced),
and that the exported tables are byte-identical to a serial ``repro
fig2`` run against a *different* cache directory -- equality therefore
proves real recomputation over a faulty network, not cache aliasing.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runtime.chaosnet import ChaosProxy, NetFaultPlan, PartitionWindow
from repro.runtime.fabric import FabricWorker
from repro.runtime.transport import Backoff, TransportClient

N_CELLS = 9  # 3 cases x 3 interarrivals
SWEEP = ["--packets", "300", "--interarrivals", "2,3,4", "--seed", "0"]
ENV = {**os.environ, "PYTHONPATH": "src"}
LEASE_TTL = 15.0


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def wait_for_listener(port: int, process: subprocess.Popen, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            out, err = process.communicate()
            raise AssertionError(
                f"coordinator exited early ({process.returncode}):\n{out}\n{err}"
            )
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
            return
        except OSError:
            time.sleep(0.1)
    raise AssertionError(f"coordinator never listened on port {port}")


def cells_in(journal: Path) -> int:
    if not journal.is_file():
        return 0
    return sum(
        1
        for line in journal.read_text(errors="replace").splitlines()
        if '"cell"' in line
    )


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="repro-transport-smoke-"))
    fabric_dir = work / "fabric"
    fabric_cache = work / "cache-fabric"
    serial_cache = work / "cache-serial"
    fabric_json = work / "fabric.json"
    serial_json = work / "serial.json"
    port = free_port()

    coordinator = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fig2", *SWEEP,
            "--jobs", "1", "--listen", f"127.0.0.1:{port}",
            "--lease-ttl", str(LEASE_TTL),
            "--fabric-dir", str(fabric_dir), "--cache-dir", str(fabric_cache),
            "--json", str(fabric_json),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    wait_for_listener(port, coordinator, timeout=120)

    # The chaos path: drops, duplicate delivery, and one 2-second full
    # partition starting mid-run, all frame-aligned and deterministic.
    proxy = ChaosProxy(
        "127.0.0.1",
        port,
        NetFaultPlan(
            drop_probability=0.05,
            duplicate_probability=0.05,
            partitions=(PartitionWindow(start=8.0, duration=2.0),),
            seed=7,
        ),
    )
    chaos_port = proxy.start()

    # Worker 1: in-process, through the chaos proxy.  A short call
    # timeout turns every dropped frame into a quick retransmission.
    # The fabric directory is mounted as the fallback rung: if the
    # partition happens to swallow the final "complete" acquire, the
    # worker degrades to the shared directory instead of erroring.
    client = TransportClient(
        ("127.0.0.1", chaos_port),
        "chaos-worker",
        call_timeout=2.0,
        max_retry_elapsed=30.0,
        backoff=Backoff(base=0.05, cap=0.5),
    )
    chaos_worker = FabricWorker(fabric_dir, transport_client=client)
    chaos_result: dict = {}

    def run_chaos_worker() -> None:
        try:
            chaos_result["computed"] = chaos_worker.run()
        except Exception as exc:  # surfaced after the join below
            chaos_result["error"] = exc

    chaos_thread = threading.Thread(target=run_chaos_worker, daemon=True)
    chaos_thread.start()

    # Worker 2: a plain subprocess, direct to the coordinator; SIGKILLed
    # once it has journaled at least one cell.
    victim = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", f"127.0.0.1:{port}",
            "--worker-id", "victim", "--cache-dir", str(work / "cache-victim"),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=ENV,
    )
    victim_journal = fabric_dir / "results" / "victim.jsonl"
    killed = False
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline and coordinator.poll() is None:
        if victim.poll() is not None:
            break  # finished everything before the kill landed
        if cells_in(victim_journal) >= 1:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
            killed = True
            break
        time.sleep(0.1)

    out, err = coordinator.communicate(timeout=500)
    chaos_thread.join(timeout=120)
    proxy.stop()
    print(f"coordinator: exit={coordinator.returncode} victim_killed={killed}")
    print(out)
    print(
        f"chaos worker: computed={chaos_result.get('computed')} "
        f"stats={client.stats.to_json()}"
    )
    print(f"proxy: {proxy.stats}")

    if "error" in chaos_result:
        raise AssertionError(f"chaos worker crashed: {chaos_result['error']!r}")
    assert coordinator.returncode == 0, (
        f"coordinator failed ({coordinator.returncode}):\n{out}\n{err}"
    )
    assert f"fabric: {N_CELLS} cells" in out, f"wrong cell count:\n{out}"
    assert "FAILED" not in out, f"cells failed:\n{out}"
    assert "endpoint 127.0.0.1" in out, f"no transport trailer:\n{out}"

    # The chaos plan must actually have fired.
    assert proxy.stats.partitions_enforced == 1, proxy.stats
    assert proxy.stats.frames_dropped + proxy.stats.frames_duplicated > 0, (
        proxy.stats
    )
    assert client.stats.retransmitted_frames + client.stats.reconnects > 0, (
        client.stats.to_json()
    )

    serial = subprocess.run(
        [
            sys.executable, "-m", "repro", "fig2", *SWEEP,
            "--cache-dir", str(serial_cache), "--json", str(serial_json),
        ],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=600,
    )
    assert serial.returncode == 0, (
        f"serial reference failed ({serial.returncode}):\n"
        f"{serial.stdout}\n{serial.stderr}"
    )
    for suffix in ("", ".latency.json"):
        fabric_bytes = Path(str(fabric_json) + suffix).read_bytes()
        serial_bytes = Path(str(serial_json) + suffix).read_bytes()
        assert fabric_bytes == serial_bytes, (
            f"fabric output differs from serial in *{suffix or '.json'}"
        )

    kill_note = (
        "victim SIGKILLed mid-run, leases stolen"
        if killed
        else "victim finished before the kill landed"
    )
    print(
        f"transport smoke: OK (drops + duplicates + partition survived, "
        f"{kill_note}, serial-identical output)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
