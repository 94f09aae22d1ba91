#!/usr/bin/env python
"""CI smoke test for the result cache's warm path.

Runs ``repro fig2 --packets 200`` three times:

1. cold, into an empty ``--cache-dir``;
2. warm, against the same directory;
3. cold again under ``REPRO_FASTPATH=0`` (the event-driven engine), into
   a second, empty directory;

and asserts:

* all three runs print byte-identical tables and write byte-identical
  ``--json`` exports (the cache line aside);
* the warm run is served entirely from the cache: ``30 hits, 0 misses``;
* the warm run's ``bytes read`` equals the cold run's ``bytes written``:
  a hit loads back exactly the entry the cold run stored.

Run from the repository root: ``python scripts/ci_cache_smoke.py``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWEEP = ["fig2", "--packets", "200", "--seed", "0"]
N_CELLS = 30  # 3 cases x 10 interarrivals
CACHE_LINE = re.compile(
    r"^cache: (\d+) hits, (\d+) misses, (\d+) stored, .*"
    r"; (\d+) bytes read, (\d+) bytes written$",
    re.M,
)


def run(cache_dir: Path, json_path: Path, fastpath: bool) -> tuple[str, dict]:
    env = {**os.environ, "PYTHONPATH": "src", "REPRO_FASTPATH": "1" if fastpath else "0"}
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", *SWEEP,
            "--cache-dir", str(cache_dir), "--json", str(json_path),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert done.returncode == 0, f"fig2 failed:\n{done.stdout}\n{done.stderr}"
    match = CACHE_LINE.search(done.stdout)
    assert match, f"no cache line in output:\n{done.stdout}"
    hits, misses, stored, read, written = map(int, match.groups())
    # The tables come first; the "wrote PATH", cache and journal lines
    # after them name per-run paths and counters.
    tables = done.stdout.split("\nwrote ", 1)[0]
    assert "Figure 2(a)" in tables and "Figure 2(b)" in tables, done.stdout
    exports = b"".join(
        Path(str(json_path) + suffix).read_bytes() for suffix in ("", ".latency.json")
    )
    stats = dict(hits=hits, misses=misses, stored=stored, read=read, written=written)
    print(f"{json_path.stem}: {match.group(0)}")
    return tables + exports.decode(), stats


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="repro-cache-smoke-"))
    try:
        cold_tables, cold = run(work / "cache", work / "cold.json", fastpath=True)
        warm_tables, warm = run(work / "cache", work / "warm.json", fastpath=True)
        event_tables, event = run(
            work / "cache-event", work / "event.json", fastpath=False
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    assert cold_tables == warm_tables, "warm-cache tables differ from the cold run"
    assert cold_tables == event_tables, "event-engine tables differ from the fast path"
    assert (cold["hits"], cold["misses"], cold["stored"]) == (0, N_CELLS, N_CELLS), cold
    assert (warm["hits"], warm["misses"]) == (N_CELLS, 0), warm
    assert warm["read"] == cold["written"] > 0, (warm, cold)
    assert event["stored"] == N_CELLS, event
    print(
        f"cache smoke: OK ({N_CELLS} cells; warm run read {warm['read']} bytes, "
        "exactly what the cold run wrote; tables identical across cold, warm "
        "and the event-driven engine)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
