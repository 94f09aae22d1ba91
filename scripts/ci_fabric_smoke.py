#!/usr/bin/env python
"""CI smoke test for the distributed sweep fabric.

Runs ``repro fig2 --fabric-dir ... --jobs 2`` -- the Figure 2 sweep on
the fabric, with 2 forked lease workers -- on a small grid, SIGKILLs one
worker mid-run, and asserts:

* the run still completes with exit code 0 and zero failed cells (the
  killed worker's lease lapses and its cell is stolen and rerun);
* the exported tables are byte-identical to a serial ``repro fig2`` run
  against a *different* cache directory -- so the equality proves real
  recomputation, not cache aliasing.

If the run finishes before the kill lands (a very fast machine), the
check degrades to "fabric output is serial-identical", which is still
the acceptance property.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

N_CELLS = 9  # 3 cases x 3 interarrivals
SWEEP = ["--packets", "300", "--interarrivals", "2,3,4", "--seed", "0"]
ENV = {**os.environ, "PYTHONPATH": "src"}


def results_cells(fabric_dir: Path) -> int:
    total = 0
    results_dir = fabric_dir / "results"
    if results_dir.is_dir():
        for path in results_dir.glob("*.jsonl"):
            total += sum(
                1
                for line in path.read_text(errors="replace").splitlines()
                if '"cell"' in line
            )
    return total


def live_worker_pids(fabric_dir: Path) -> list[int]:
    pids = []
    worker_dir = fabric_dir / "workers"
    if worker_dir.is_dir():
        for path in worker_dir.glob("*.json"):
            if path.stem == "coordinator":
                continue
            try:
                payload = json.loads(path.read_text())
            except Exception:
                continue
            if not payload.get("left") and payload.get("pid"):
                pids.append(int(payload["pid"]))
    return sorted(pids)


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="repro-fabric-smoke-"))
    fabric_dir = work / "fabric"
    fabric_cache = work / "cache-fabric"
    serial_cache = work / "cache-serial"
    fabric_json = work / "fabric.json"
    serial_json = work / "serial.json"

    coordinator = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fig2", *SWEEP,
            "--jobs", "2", "--lease-ttl", "3",
            "--fabric-dir", str(fabric_dir), "--cache-dir", str(fabric_cache),
            "--json", str(fabric_json),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    )

    # Wait until the workers are up and at least one cell has landed,
    # then SIGKILL one worker -- ideally mid-cell.
    killed = None
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline and coordinator.poll() is None:
        pids = live_worker_pids(fabric_dir)
        if len(pids) >= 2 and results_cells(fabric_dir) >= 1:
            killed = pids[0]
            try:
                os.kill(killed, signal.SIGKILL)
            except ProcessLookupError:
                killed = None  # it exited first; the run is nearly done
            break
        time.sleep(0.1)
    out, err = coordinator.communicate(timeout=500)
    print(f"coordinator: exit={coordinator.returncode} killed_pid={killed}")
    print(out)
    assert coordinator.returncode == 0, (
        f"coordinator failed ({coordinator.returncode}):\n{out}\n{err}"
    )
    assert f"fabric: {N_CELLS} cells" in out, f"wrong cell count:\n{out}"
    assert "FAILED" not in out, f"cells failed:\n{out}"
    completed = results_cells(fabric_dir)
    assert completed >= N_CELLS, (
        f"journals hold {completed} of {N_CELLS} cells"
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
    if killed is None:
        print("fabric smoke: OK (run finished before the kill; "
              "serial-identical output verified)")
    else:
        print("fabric smoke: OK (worker SIGKILLed mid-run, zero lost "
              "cells, serial-identical output)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
