"""Distributed sweep fabric: lease-based coordinator/worker execution.

The :class:`~repro.runtime.supervisor.Supervisor` fans a sweep out over
a process pool inside *one* supervising process.  The fabric scales the
same sweeps past that boundary, as a backend of
:func:`~repro.runtime.supervisor.supervised_map`: whenever the runtime
context carries a :class:`FabricConfig` (``use_runtime(fabric=...)``,
or ``--fabric-dir``/``--listen`` on any simulation verb), every sweep
runs through :func:`run_fabric`.  A **coordinator** shards the grid
into leased work units recorded in a shared *fabric directory*, and
**workers** -- forked locally by the coordinator, or joined from
anywhere via ``repro worker`` pointed at the same directory -- claim
leases, run cells, and append results to checksummed per-worker
journals.  Sharing a result-cache directory between hosts gives free
cross-worker dedup: a cell computed anywhere is a cache hit everywhere.

Layout of one fabric directory (all writes atomic or append-only)::

    <fabric-dir>/
      grid.jsonl          # header + one checksummed pickled item per line
      leases/NNNNNN.json  # worker id + epoch + claim time, per cell
      workers/<id>.json   # heartbeat: deadline = now + lease TTL
      results/<id>.jsonl  # SweepJournal-format cell records + event lines

Robustness model
----------------

Leases are an *optimization*, not a correctness mechanism.  Every cell
is deterministic (all randomness comes from the item's seed), result
journals are checksummed line-by-line, and cache writes are atomic
temp-file + rename -- so duplicated work caused by any lease race
produces byte-identical records and the merge cannot be corrupted.
What the lease protocol buys is *liveness without duplication* in the
common case:

* a worker's lease is its id plus a heartbeat deadline; the worker
  renews its heartbeat file every ``heartbeat_interval`` seconds;
* a lease whose owner has a stale heartbeat **and** whose claim is
  older than ``lease_ttl`` is expired; any live worker steals it
  (epoch + 1, atomic replace) and reruns the cell -- work stealing
  from crashed or straggling workers;
* a SIGKILLed worker mid-cell loses nothing: its lease lapses, the
  cell is stolen and rerun, and a torn final journal line fails its
  checksum and is ignored;
* the coordinator is crash-safe: rerunning it loads the grid and every
  verified journal line, so completed cells are never recomputed;
* if every worker is dead (or none ever joins), the coordinator falls
  back to in-process serial completion with a structured warning.

Results merge in item order, so a distributed run is bit-identical to
a serial loop over the items
(``tests/test_runtime_determinism.py`` proves it).  Lease churn,
steals, reclaims and per-worker throughput publish through
:mod:`repro.telemetry` when the ambient context collects it.
"""

from __future__ import annotations

import base64
import hashlib
import importlib
import json
import multiprocessing
import os
import pickle
import re
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.runtime import supervisor as _supervisor
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.journal import (
    atomic_write,
    decode_cell_entry,
    encode_cell_entry,
    sweep_fingerprint,
)
from repro.runtime.supervisor import RetryPolicy
from repro.runtime.transport import (
    TRANSPORT_VERSION,
    FabricEndpoint,
    NetHeartbeat,
    TransportClient,
    TransportDown,
    TransportError,
    format_endpoint,
    parse_endpoint,
)

__all__ = [
    "FABRIC_VERSION",
    "FabricError",
    "FabricConfig",
    "FabricReport",
    "FabricWorker",
    "SystemClock",
    "FilesystemClock",
    "run_fabric",
    "write_grid",
    "load_grid",
    "resolve_function_ref",
]

#: Bump to orphan existing fabric directories (format changes).
FABRIC_VERSION = 1

_GRID_FILE = "grid.jsonl"
_LEASE_DIR = "leases"
_WORKER_DIR = "workers"
_RESULT_DIR = "results"


class FabricError(RuntimeError):
    """A fabric directory is unusable (torn grid, wrong sweep, no fn)."""


# ----------------------------------------------------------------------
# Small file helpers.  Every mutable file in the fabric directory
# (heartbeats, stolen leases, the grid itself) is published with
# :func:`~repro.runtime.journal.atomic_write` so no reader can ever
# observe a torn write.


def _atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write(path, json.dumps(payload).encode("utf-8"))


def _read_json(path: Path) -> dict | None:
    """Parse one JSON file, or None when missing/torn (never raises)."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return payload if isinstance(payload, dict) else None
    except Exception:
        return None


def _safe_worker_id(worker_id: str) -> str:
    """Worker ids become file names; keep them shell- and fs-safe."""
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "-", worker_id).strip("-.")
    if not cleaned:
        raise FabricError(f"unusable worker id {worker_id!r}")
    return cleaned


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique enough for externally joined workers."""
    return _safe_worker_id(f"{socket.gethostname()}-{os.getpid()}")


# ----------------------------------------------------------------------
# Clocks.  Lease expiry compares *ages* against TTLs, which is only
# meaningful when the claim timestamp and "now" come from the same time
# base.  Three bases exist:
#
# * :class:`SystemClock` -- the local wall clock; correct when every
#   participant shares one host (the forked-worker case, and tests);
# * :class:`FilesystemClock` -- the shared filesystem's notion of time,
#   sampled from a probe file's mtime.  Cross-host workers on NFS use
#   it so a skewed local wall clock cannot prematurely steal a live
#   lease: lease files are *anchored* by their mtime (fileserver time)
#   and compared against fileserver time, so the writer's and reader's
#   wall clocks both drop out of the arithmetic;
# * coordinator time over TCP -- networked workers never do expiry
#   arithmetic at all; the endpoint decides, with its own clock, and
#   stamps every response with ``"t"``.


class SystemClock:
    """The local wall clock."""

    def now(self) -> float:
        return time.time()


class FilesystemClock:
    """Wall clock corrected to the shared filesystem's time base.

    ``now()`` returns ``local_time + offset`` where ``offset`` is
    measured by writing a probe file under ``fabric_dir`` and comparing
    its mtime (stamped by the fileserver) against the local clock.  The
    offset is resampled at most every ``resample_interval`` seconds.
    On a local filesystem the offset is ~0 and this degrades to
    :class:`SystemClock`; probe failures (read-only mount, races) fall
    back to a zero offset rather than raising.

    ``time_fn`` exists for tests: injecting a skewed local clock must
    show the correction, not be hidden by it.
    """

    def __init__(
        self,
        fabric_dir: str | Path,
        resample_interval: float = 60.0,
        time_fn: Callable[[], float] = time.time,
    ) -> None:
        self.fabric_dir = Path(fabric_dir)
        self.resample_interval = float(resample_interval)
        self._time_fn = time_fn
        self.offset = 0.0
        self._sampled_at: float | None = None

    def sample(self) -> float:
        """Measure ``fileserver_time - local_time`` once."""
        probe = self.fabric_dir / f".clock-probe-{os.getpid()}"
        try:
            self.fabric_dir.mkdir(parents=True, exist_ok=True)
            before = self._time_fn()
            probe.write_bytes(b"")
            mtime = probe.stat().st_mtime
            after = self._time_fn()
            # The mtime was stamped somewhere inside [before, after];
            # compare against the midpoint to halve the sampling error.
            self.offset = mtime - (before + after) / 2.0
        except OSError:
            self.offset = 0.0
        finally:
            try:
                probe.unlink()
            except OSError:
                pass
        self._sampled_at = time.monotonic()
        return self.offset

    def now(self) -> float:
        if (
            self._sampled_at is None
            or time.monotonic() - self._sampled_at >= self.resample_interval
        ):
            self.sample()
        return self._time_fn() + self.offset


def _heartbeat_payload_fresh(path: Path, payload: dict | None, now: float) -> bool:
    """Is this heartbeat file evidence of a live worker at time ``now``?

    Freshness is anchored to the file's *mtime* (fileserver time), not
    the deadline the writer computed with its own possibly-skewed wall
    clock: fresh iff ``mtime + ttl >= now``.  Files from older writers
    without a ``ttl`` field fall back to the recorded deadline.
    """
    if payload is None or payload.get("left"):
        return False
    try:
        ttl = payload.get("ttl")
        if ttl is not None:
            return path.stat().st_mtime + float(ttl) >= now
        return float(payload["deadline"]) >= now
    except Exception:
        return False


# ----------------------------------------------------------------------
# Configuration.


@dataclass(frozen=True)
class FabricConfig:
    """Timing and sizing of one fabric run.

    Parameters
    ----------
    workers:
        Local worker processes the coordinator forks (0 = coordinate
        externally joined ``repro worker`` processes only; with none
        joining, the coordinator completes serially after one lease
        TTL).  ``repro`` commands set it from ``--jobs`` (``--jobs N``
        with N > 1 forks N workers, ``--jobs 1`` none).
    lease_ttl:
        Seconds of heartbeat silence after which a worker's leases are
        considered expired and stealable.
    heartbeat_interval:
        Heartbeat renewal period; defaults to ``lease_ttl / 3`` and
        must stay below ``lease_ttl`` (a worker must be able to renew
        several times within one TTL).
    poll_interval:
        Coordinator/worker scan period for journals and leases.
    fabric_dir:
        Shared state directory; defaults to
        ``<cache-dir>/fabric/<sweep-id[:16]>``.  An explicit directory
        holds one sweep, so a caller running several sweeps leaves it
        None.
    cache_dir:
        Result-cache directory handed to every worker (the shared-dir
        dedup trick); None disables worker-side caching.
    listen:
        ``host:port`` TCP endpoint the coordinator serves lease claims,
        heartbeats and result uploads on (port 0 binds an ephemeral
        port, printed at startup); None keeps the fabric
        shared-filesystem only.
    """

    workers: int = 2
    lease_ttl: float = 30.0
    heartbeat_interval: float | None = None
    poll_interval: float = 0.2
    fabric_dir: str | Path | None = None
    cache_dir: str | Path | None = None
    listen: str | None = None

    def __post_init__(self) -> None:
        if self.listen is not None:
            parse_endpoint(self.listen, allow_port_zero=True)
        if self.workers < 0:
            raise ValueError(f"workers must be non-negative, got {self.workers}")
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")
        if self.heartbeat_interval is not None:
            if self.heartbeat_interval <= 0:
                raise ValueError(
                    f"heartbeat_interval must be positive, "
                    f"got {self.heartbeat_interval}"
                )
            if self.heartbeat_interval >= self.lease_ttl:
                raise ValueError(
                    f"heartbeat_interval ({self.heartbeat_interval:g}s) must be "
                    f"below lease_ttl ({self.lease_ttl:g}s) or every lease "
                    f"expires between renewals"
                )
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )

    @property
    def effective_heartbeat_interval(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return self.lease_ttl / 3.0


# ----------------------------------------------------------------------
# Grid spec: the sweep's items, serialized once by the coordinator so
# any process (any host) can reconstruct the work list.


def function_ref(fn: Callable) -> str | None:
    """``module:qualname`` if ``fn`` is importable by that name, else None.

    Closures and lambdas return None: locally forked workers inherit
    them through :data:`_FABRIC_FN`, but externally joined workers
    cannot run such a grid (they get a clear :class:`FabricError`).
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module or not qualname or "<" in qualname:
        return None
    try:
        if resolve_function_ref(f"{module}:{qualname}") is not fn:
            return None
    except Exception:
        return None
    return f"{module}:{qualname}"


def resolve_function_ref(ref: str) -> Callable:
    """Import the callable named by a ``module:qualname`` reference."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise FabricError(f"malformed function reference {ref!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise FabricError(f"function reference {ref!r} is not callable")
    return obj


def write_grid(
    fabric_dir: Path,
    sweep_id: str,
    label: str,
    items: Sequence[object],
    fn_ref: str | None,
    config: FabricConfig,
) -> None:
    """Publish the grid spec atomically (header + one line per item)."""
    lines = [
        json.dumps(
            {
                "kind": "header",
                "version": FABRIC_VERSION,
                "sweep": sweep_id,
                "label": label,
                "n_items": len(items),
                "fn_ref": fn_ref,
                "lease_ttl": config.lease_ttl,
                "heartbeat_interval": config.effective_heartbeat_interval,
                "cache_dir": (
                    str(config.cache_dir) if config.cache_dir is not None else None
                ),
            }
        )
    ]
    for index, item in enumerate(items):
        data = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
        lines.append(
            json.dumps(
                {
                    "kind": "item",
                    "index": index,
                    "sha": hashlib.sha256(data).hexdigest(),
                    "data": base64.b64encode(data).decode("ascii"),
                }
            )
        )
    payload = "".join(line + "\n" for line in lines)
    atomic_write(fabric_dir / _GRID_FILE, payload.encode("utf-8"))


def _parse_grid_lines(
    lines: Sequence[str], source: str
) -> tuple[dict, list[object]]:
    """Parse grid-format lines (from a file or the ``grid`` RPC)."""
    if not lines:
        raise FabricError(f"empty grid at {source}")
    try:
        header = json.loads(lines[0])
        if header.get("kind") != "header" or header.get("version") != FABRIC_VERSION:
            raise ValueError("bad header")
        n_items = int(header["n_items"])
    except Exception as exc:
        raise FabricError(f"unreadable grid header at {source}: {exc!r}") from exc
    items: dict[int, object] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            if entry.get("kind") != "item":
                continue
            index = int(entry["index"])
            data = base64.b64decode(entry["data"], validate=True)
            if hashlib.sha256(data).hexdigest() != entry["sha"]:
                raise ValueError("checksum mismatch")
            items[index] = pickle.loads(data)
        except Exception as exc:
            raise FabricError(f"corrupt grid item at {source}: {exc!r}") from exc
    if sorted(items) != list(range(n_items)):
        raise FabricError(
            f"torn grid at {source}: {len(items)} of {n_items} items present"
        )
    return header, [items[i] for i in range(n_items)]


def load_grid(fabric_dir: Path) -> tuple[dict, list[object]]:
    """``(header, items)`` from a fabric directory.

    Unlike result journals, a torn grid is fatal: workers must agree on
    the exact item list or lease indices would name different cells.
    """
    path = Path(fabric_dir) / _GRID_FILE
    if not path.is_file():
        raise FabricError(f"no grid at {path}; start a coordinator first")
    lines = path.read_text(encoding="utf-8").splitlines()
    return _parse_grid_lines(lines, source=str(path))


# ----------------------------------------------------------------------
# Lease board.


@dataclass
class Lease:
    """One cell's current owner.

    ``claimed_at`` is what the claiming worker's clock said and is
    recorded for diagnosis only; expiry arithmetic uses ``anchor`` (the
    lease file's mtime, stamped by the filesystem holding the fabric
    directory) so a claimant with a skewed wall clock cannot make its
    lease look younger or older than it is.
    """

    index: int
    worker: str
    epoch: int
    claimed_at: float
    stolen_from: str | None = None
    anchor: float | None = None

    def to_json(self) -> dict:
        return {
            "kind": "lease",
            "index": self.index,
            "worker": self.worker,
            "epoch": self.epoch,
            "claimed_at": self.claimed_at,
            "stolen_from": self.stolen_from,
        }


class LeaseBoard:
    """Claim/steal protocol over ``<fabric-dir>/leases/``.

    A fresh claim is an ``O_CREAT | O_EXCL`` create (exactly one racing
    worker wins).  A steal of an expired lease is an atomic replace
    carrying ``epoch + 1``; two workers racing a steal may both run the
    cell, which is harmless (deterministic cells, checksummed journals,
    later-wins merge).  Re-claiming a cell this worker already owns is
    an idempotent success (same epoch) so at-least-once RPC delivery
    can safely replay claims.

    Expiry judgments are skew-tolerant: lease and heartbeat ages are
    anchored to file mtimes (the fabric filesystem's time base), and
    ``clock`` supplies "now" in that same base
    (:class:`FilesystemClock` for cross-host workers; the default
    :class:`SystemClock` is correct on a single host).
    """

    def __init__(
        self,
        fabric_dir: Path,
        worker_id: str,
        lease_ttl: float,
        clock: SystemClock | FilesystemClock | None = None,
    ) -> None:
        self.directory = Path(fabric_dir) / _LEASE_DIR
        self.worker_dir = Path(fabric_dir) / _WORKER_DIR
        self.worker_id = worker_id
        self.lease_ttl = float(lease_ttl)
        self.clock = clock if clock is not None else SystemClock()

    def path(self, index: int) -> Path:
        return self.directory / f"{index:06d}.json"

    def read(self, index: int) -> Lease | None:
        """The current lease on a cell, or None (missing or torn)."""
        path = self.path(index)
        payload = _read_json(path)
        try:
            anchor = path.stat().st_mtime
        except OSError:
            anchor = None
        if payload is None:
            if anchor is None:
                return None
            # Torn lease (killed mid-create): age it by file mtime so it
            # becomes stealable after one TTL.
            return Lease(
                index=index, worker="?", epoch=0, claimed_at=anchor,
                anchor=anchor,
            )
        try:
            return Lease(
                index=int(payload["index"]),
                worker=str(payload["worker"]),
                epoch=int(payload["epoch"]),
                claimed_at=float(payload["claimed_at"]),
                stolen_from=payload.get("stolen_from"),
                anchor=anchor,
            )
        except Exception:
            return Lease(
                index=index, worker="?", epoch=0, claimed_at=0.0, anchor=anchor
            )

    def _heartbeat_fresh(self, worker: str, now: float) -> bool:
        path = self.worker_dir / f"{worker}.json"
        return _heartbeat_payload_fresh(path, _read_json(path), now)

    def is_expired(self, lease: Lease, now: float | None = None) -> bool:
        """Stale owner heartbeat *and* claim older than one TTL.

        Ages are measured against the lease file's mtime (falling back
        to the recorded ``claimed_at`` only when the stat failed), in
        this board's clock base.
        """
        now = self.clock.now() if now is None else now
        if self._heartbeat_fresh(lease.worker, now):
            return False
        anchor = lease.anchor if lease.anchor is not None else lease.claimed_at
        return now - anchor >= self.lease_ttl

    def try_claim(self, index: int) -> tuple[bool, str | None]:
        """Attempt to own a cell.

        Returns ``(claimed, victim)``: ``victim`` is the previous owner
        when the claim was a steal of an expired lease.
        """
        path = self.path(index)
        lease = Lease(
            index=index, worker=self.worker_id, epoch=0,
            claimed_at=self.clock.now(),
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            existing = self.read(index)
            if existing is not None and existing.worker == self.worker_id:
                # Idempotent re-claim: at-least-once delivery may replay
                # a claim this worker already won (the response was
                # lost, not the claim).  Same owner, same epoch.
                return True, None
            if existing is None or not self.is_expired(existing):
                return False, None
            lease.epoch = existing.epoch + 1
            lease.stolen_from = existing.worker
            _atomic_write_json(path, lease.to_json())
            return True, existing.worker
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(lease.to_json(), handle)
            handle.flush()
        return True, None

    def stats(self) -> tuple[int, int]:
        """``(claims, steals)`` counted from the lease files on disk."""
        claims = steals = 0
        if not self.directory.is_dir():
            return 0, 0
        for path in self.directory.glob("*.json"):
            payload = _read_json(path)
            if payload is None:
                continue
            claims += 1
            steals += int(payload.get("epoch", 0))
        return claims, steals


# ----------------------------------------------------------------------
# Heartbeats.


class Heartbeat:
    """Periodic liveness record for one worker (daemon-thread renewal)."""

    def __init__(
        self,
        fabric_dir: Path,
        worker_id: str,
        lease_ttl: float,
        interval: float,
    ) -> None:
        self.path = Path(fabric_dir) / _WORKER_DIR / f"{worker_id}.json"
        self.worker_id = worker_id
        self.lease_ttl = float(lease_ttl)
        self.interval = float(interval)
        self.cells_done = 0
        self.beats = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self, left: bool = False) -> None:
        now = time.time()
        self.beats += 1
        # Readers judge freshness by this file's mtime + ttl, so the
        # writer's wall clock (and any skew in it) carries no weight;
        # deadline is kept for readers of the pre-ttl format.
        _atomic_write_json(
            self.path,
            {
                "kind": "heartbeat",
                "worker": self.worker_id,
                "pid": os.getpid(),
                "deadline": now if left else now + self.lease_ttl,
                "ttl": self.lease_ttl,
                "beats": self.beats,
                "cells_done": self.cells_done,
                "left": left,
            },
        )

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.beat()
            except OSError:  # pragma: no cover - transient fs failure
                pass

    def start(self) -> None:
        self.beat()
        self._thread = threading.Thread(
            target=self._run, name=f"fabric-heartbeat-{self.worker_id}", daemon=True
        )
        self._thread.start()

    def stop(self, left: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None
        try:
            self.beat(left=left)
        except OSError:  # pragma: no cover - transient fs failure
            pass


# ----------------------------------------------------------------------
# Incremental, torn-write-tolerant scanner over the result journals.


class ResultsScanner:
    """Accumulates verified cells from every ``results/*.jsonl``.

    Tracks a byte offset per journal so repeated polling re-reads only
    appended data.  A final line without a newline is a write in
    progress and is left for the next scan; a complete line that fails
    parsing or its checksum is counted corrupt and skipped (the cell it
    described simply stays pending and is recomputed).
    """

    def __init__(self, fabric_dir: Path, n_items: int) -> None:
        self.directory = Path(fabric_dir) / _RESULT_DIR
        self.n_items = int(n_items)
        self.cells: dict[int, object] = {}
        self.failed: dict[int, str] = {}
        self.attempts: dict[int, int] = {}
        self.per_worker: dict[str, int] = {}
        self.events: list[dict] = []
        self.corrupt_lines = 0
        self._offsets: dict[Path, int] = {}

    @property
    def done(self) -> set[int]:
        """Indices that need no further work (completed or failed)."""
        return set(self.cells) | set(self.failed)

    def scan(self) -> dict[int, object]:
        if not self.directory.is_dir():
            return self.cells
        for path in sorted(self.directory.glob("*.jsonl")):
            self._scan_file(path)
        return self.cells

    def _scan_file(self, path: Path) -> None:
        offset = self._offsets.get(path, 0)
        try:
            with path.open("rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            return
        if not chunk:
            return
        # Only complete (newline-terminated) lines are parsed; the
        # remainder is an in-flight append and stays unconsumed.
        cut = chunk.rfind(b"\n")
        if cut < 0:
            return
        complete, self._offsets[path] = chunk[: cut + 1], offset + cut + 1
        worker = path.stem
        for raw in complete.splitlines():
            if not raw.strip():
                continue
            try:
                entry = json.loads(raw.decode("utf-8"))
                kind = entry.get("kind")
                if kind == "cell":
                    index, value = decode_cell_entry(entry, self.n_items)
                    self.cells[index] = value
                    self.failed.pop(index, None)
                    self.attempts.pop(index, None)
                    self.per_worker[worker] = self.per_worker.get(worker, 0) + 1
                elif kind == "failed":
                    index = int(entry["index"])
                    if not 0 <= index < self.n_items:
                        raise ValueError(f"index {index} out of range")
                    if index not in self.cells:
                        self.failed[index] = str(entry.get("error", "unknown"))
                        self.attempts[index] = int(entry.get("attempts", 1))
                elif kind == "event":
                    self.events.append(entry)
                # header / unknown kinds: ignored.
            except Exception:
                self.corrupt_lines += 1


# ----------------------------------------------------------------------
# Worker.

#: Armed by the coordinator immediately before forking local workers so
#: the children inherit sweep closures that stdlib pickle cannot ship
#: (the same idiom as ``supervisor._ACTIVE``).
_FABRIC_FN: Callable | None = None


class FabricWorker:
    """One lease-claiming worker, attached by directory or by TCP.

    Parameters
    ----------
    fabric_dir:
        The coordinator's shared state directory.  Optional when
        ``connect`` is given; providing *both* arms the degradation
        ladder (transport loss falls back to the shared directory
        instead of giving up).
    worker_id:
        Unique id (becomes the heartbeat/journal file names); defaults
        to ``<hostname>-<pid>``.
    fn:
        The cell function.  Defaults to the grid's ``fn_ref`` import;
        required (via fork inheritance) when the grid has none.
    cache_dir:
        Result-cache root; defaults to the grid header's ``cache_dir``.
    retry:
        Per-cell :class:`~repro.runtime.supervisor.RetryPolicy`: its
        attempts and backoff apply to every cell.  A cell failing
        permanently journals a ``failed`` record (superseded if another
        worker later succeeds); the coordinator's policy then raises or
        quarantines it.
    connect:
        ``host:port`` of a coordinator endpoint
        (any simulation verb run with ``--listen``).  The worker then claims
        cells and uploads results over TCP; every RPC retries with
        capped exponential backoff for up to ``max_retry_elapsed``
        seconds before the transport is declared down.
    transport_client:
        A pre-built :class:`~repro.runtime.transport.TransportClient`
        (tests route it through a chaos proxy); overrides ``connect``.
    """

    def __init__(
        self,
        fabric_dir: str | Path | None = None,
        worker_id: str | None = None,
        fn: Callable | None = None,
        cache_dir: str | Path | None = None,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.1,
        retry: RetryPolicy | None = None,
        connect: str | None = None,
        transport_client: TransportClient | None = None,
        max_retry_elapsed: float = 60.0,
    ) -> None:
        self.fabric_dir = Path(fabric_dir) if fabric_dir is not None else None
        self.worker_id = _safe_worker_id(worker_id or default_worker_id())
        self.transport_degraded = False
        self._fell_back = False
        self._client: TransportClient | None = None
        if transport_client is not None:
            self._client = transport_client
            self.worker_id = _safe_worker_id(transport_client.worker_id)
        elif connect is not None:
            self._client = TransportClient(
                connect,
                worker_id=self.worker_id,
                max_retry_elapsed=max_retry_elapsed,
            )
        if self._client is not None:
            hello = self._client.call("hello")
            if hello.get("version") != TRANSPORT_VERSION:
                raise FabricError(
                    f"endpoint {self._client.endpoint} speaks transport "
                    f"version {hello.get('version')!r}, not {TRANSPORT_VERSION}"
                )
            lines = self._client.call("grid").get("lines") or []
            self.header, self.items = _parse_grid_lines(
                lines, source=f"endpoint {self._client.endpoint}"
            )
        else:
            if self.fabric_dir is None:
                raise FabricError(
                    "a worker needs a fabric directory or a --connect endpoint"
                )
            self.header, self.items = load_grid(self.fabric_dir)
        if fn is None:
            ref = self.header.get("fn_ref")
            if not ref:
                raise FabricError(
                    "this grid has no importable cell function (the sweep "
                    "body is a closure); only coordinator-forked workers "
                    "can run it"
                )
            fn = resolve_function_ref(ref)
        self.fn = fn
        if cache_dir is None:
            cache_dir = self.header.get("cache_dir")
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.lease_ttl = float(self.header.get("lease_ttl", 30.0))
        self.heartbeat_interval = float(
            heartbeat_interval
            if heartbeat_interval is not None
            else self.header.get("heartbeat_interval", self.lease_ttl / 3.0)
        )
        if self.heartbeat_interval <= 0:
            raise FabricError(
                f"heartbeat interval must be positive, "
                f"got {self.heartbeat_interval}"
            )
        self.poll_interval = float(poll_interval)
        self.retry = retry if retry is not None else RetryPolicy()
        self.board: LeaseBoard | None = None
        self.scanner: ResultsScanner | None = None
        if self._client is not None:
            self.heartbeat: Heartbeat | NetHeartbeat = NetHeartbeat(
                self._client, self.heartbeat_interval
            )
        else:
            self._init_dir_state()
        self._journal = None
        self.cells_computed = 0
        self.steals = 0

    def _init_dir_state(self) -> None:
        """Boards/scanner/heartbeat for shared-directory operation."""
        clock = FilesystemClock(self.fabric_dir)
        self.board = LeaseBoard(
            self.fabric_dir, self.worker_id, self.lease_ttl, clock=clock
        )
        self.scanner = ResultsScanner(self.fabric_dir, len(self.items))
        self.heartbeat = Heartbeat(
            self.fabric_dir, self.worker_id, self.lease_ttl,
            self.heartbeat_interval,
        )

    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.fabric_dir / _RESULT_DIR / f"{self.worker_id}.jsonl"

    def _journal_write(self, entry: dict) -> None:
        """Durably record one result.

        Directory mode appends to the worker's own journal, fsynced so
        a SIGKILL tears at most the line being written (which the
        scanner's checksum rejects).  Network mode uploads the same
        record over the transport (the endpoint appends it, fsynced,
        server-side); if the transport dies here the worker falls back
        to the shared directory *before* writing, so a computed value
        is never dropped on the floor.
        """
        if self._client is not None:
            try:
                self._client.call("upload", entry=entry)
                return
            except TransportDown:
                self._enter_dir_fallback()
        if self._journal is None:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.journal_path.exists()
            self._journal = self.journal_path.open("a", encoding="utf-8")
            if fresh:
                self._journal_write(
                    {
                        "kind": "header",
                        "version": FABRIC_VERSION,
                        "sweep": self.header["sweep"],
                        "worker": self.worker_id,
                        "n_items": len(self.items),
                    }
                )
        self._journal.write(json.dumps(entry) + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def close(self) -> None:
        if self._journal is not None:
            try:
                self._journal.close()
            finally:
                self._journal = None
        if self._client is not None:
            client, self._client = self._client, None
            client.close()

    # ------------------------------------------------------------------
    def _enter_dir_fallback(self) -> None:
        """Transport lost: degrade to shared-directory mode if possible.

        Raises :class:`FabricError` when no usable fabric directory is
        mounted -- the last rung of the ladder; the coordinator's own
        serial completion then covers the remaining cells.
        """
        client, self._client = self._client, None
        if client is not None:
            client.close()
        if isinstance(self.heartbeat, NetHeartbeat):
            self.heartbeat.stop(left=False)  # no farewell over a dead link
        self.transport_degraded = True
        self._fell_back = True
        if self.fabric_dir is None or not (self.fabric_dir / _GRID_FILE).is_file():
            raise FabricError(
                "transport to the coordinator is down and no shared fabric "
                "directory is mounted; abandoning (leases will lapse and "
                "the coordinator completes the remaining cells)"
            )
        header, _ = load_grid(self.fabric_dir)
        if header.get("sweep") != self.header.get("sweep"):
            raise FabricError(
                f"shared fabric directory {self.fabric_dir} holds a "
                f"different sweep; cannot fall back to it"
            )
        self._init_dir_state()

    # ------------------------------------------------------------------
    def _claim_next(self) -> tuple[int, str | None] | None:
        """The next cell this worker now owns, or None when nothing is
        claimable right now (all pending cells are validly leased)."""
        done = self.scanner.done
        n = len(self.items)
        if len(done) >= n:
            return None
        # Start each worker at a different point of the index space so
        # concurrent claims rarely collide on the same lease file.
        start = (
            int(hashlib.sha256(self.worker_id.encode()).hexdigest(), 16) % n
        )
        for step in range(n):
            index = (start + step) % n
            if index in done:
                continue
            claimed, victim = self.board.try_claim(index)
            if claimed:
                return index, victim
        return None

    def _run_cell(self, index: int) -> None:
        # A one-item Supervisor run applies the policy's attempts and
        # backoff; a cell that still fails is journaled as failed with
        # the attempts it used, so quarantine stays the coordinator's
        # decision.
        supervisor = _supervisor.Supervisor(
            replace(self.retry, on_failure="quarantine"),
            label=f"fabric:{self.header['sweep'][:12]}[{index}]",
        )
        (value,), failure = supervisor.run(self.fn, [self.items[index]])
        if failure is not None and failure.failures:
            (record,) = failure.failures
            self._journal_failed(index, record.message, record.attempts)
            return
        entry = encode_cell_entry(index, value)
        if entry is None:
            self._journal_failed(index, "result is not picklable", 1)
            return
        entry["worker"] = self.worker_id
        self._journal_write(entry)
        self.cells_computed += 1
        self.heartbeat.cells_done = self.cells_computed

    def _journal_failed(self, index: int, message: str, attempts: int) -> None:
        self._journal_write(
            {
                "kind": "failed",
                "index": index,
                "worker": self.worker_id,
                "error": message[:500],
                "attempts": attempts,
            }
        )

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Claim-and-compute until the whole grid is complete.

        Returns the number of cells this worker computed.  Network
        workers that lose the transport walk the degradation ladder:
        reconnect with backoff (inside every RPC), then continue in
        shared-directory mode when a matching directory is mounted,
        else abandon with :class:`FabricError` (the coordinator's
        serial completion covers what is left).
        """
        if self._client is not None:
            self._run_net()
            if not self._fell_back:
                return self.cells_computed
            # The transport died and _enter_dir_fallback re-armed the
            # directory state; continue where the TCP phase stopped.
        return self._run_dir()

    def _run_net(self) -> None:
        """Claim over TCP until the grid completes or the link dies."""
        from repro.runtime.context import use_runtime

        self.heartbeat.start()
        cache = ResultCache(self.cache_dir) if self.cache_dir else None
        clean = False
        try:
            with use_runtime(jobs=1, cache=cache, retry=self.retry):
                while self._client is not None:
                    try:
                        response = self._client.call("acquire")
                    except TransportDown:
                        self._enter_dir_fallback()
                        return
                    index = response.get("index")
                    if index is None:
                        if response.get("complete"):
                            clean = True
                            return
                        # Every pending cell is validly leased elsewhere;
                        # poll so this worker can steal from a straggler.
                        time.sleep(self.poll_interval)
                        continue
                    if response.get("victim") is not None:
                        self.steals += 1
                        self._journal_write(
                            {
                                "kind": "event",
                                "event": "steal",
                                "index": int(index),
                                "worker": self.worker_id,
                                "victim": response["victim"],
                            }
                        )
                    if self._client is None:
                        return  # the event upload above fell back
                    self._run_cell(int(index))
        finally:
            if self._client is not None:
                self.heartbeat.stop(left=clean)
                self.close()

    def _run_dir(self) -> int:
        """Claim against the shared directory until the grid completes."""
        from repro.runtime.context import use_runtime

        self.heartbeat.start()
        cache = ResultCache(self.cache_dir) if self.cache_dir else None
        try:
            with use_runtime(jobs=1, cache=cache, retry=self.retry):
                while True:
                    self.scanner.scan()
                    if len(self.scanner.done) >= len(self.items):
                        break
                    claim = self._claim_next()
                    if claim is None:
                        time.sleep(self.poll_interval)
                        continue
                    index, victim = claim
                    if victim is not None:
                        self.steals += 1
                        self._journal_write(
                            {
                                "kind": "event",
                                "event": "steal",
                                "index": index,
                                "worker": self.worker_id,
                                "victim": victim,
                            }
                        )
                    # The victim may have finished between our scan and
                    # the steal; re-scan so a completed cell is never
                    # recomputed.
                    self.scanner.scan()
                    if index in self.scanner.done:
                        continue
                    self._run_cell(index)
        finally:
            self.heartbeat.stop(left=True)
            self.close()
        return self.cells_computed


def _forked_worker_main(
    fabric_dir: str,
    worker_id: str,
    poll_interval: float,
    retry: RetryPolicy | None,
) -> None:
    """Entry point of a coordinator-forked worker process."""
    # Nested sweeps inside a cell must stay serial in here.
    _supervisor._IN_WORKER = True
    worker = FabricWorker(
        fabric_dir,
        worker_id=worker_id,
        fn=_FABRIC_FN,
        poll_interval=poll_interval,
        retry=retry,
    )
    worker.run()


# ----------------------------------------------------------------------
# Coordinator.


@dataclass
class FabricReport:
    """Structured outcome of one fabric run (the CLI's trailer lines)."""

    label: str
    n_items: int
    fabric_dir: Path
    sweep_id: str
    workers_spawned: int = 0
    resumed: int = 0
    computed: int = 0
    claims: int = 0
    steals: int = 0
    reclaims: int = 0
    corrupt_lines: int = 0
    degraded: bool = False
    warning: str | None = None
    per_worker: dict[str, int] = field(default_factory=dict)
    failed: dict[int, str] = field(default_factory=dict)
    attempts: dict[int, int] = field(default_factory=dict)
    """Attempts the worker spent on each failed cell."""
    wall_seconds: float = 0.0
    endpoint: str | None = None
    transport: dict | None = None

    def render(self) -> str:
        lines = [
            f"fabric: {self.n_items} cells ({self.resumed} resumed, "
            f"{self.computed} computed) in {self.wall_seconds:.1f}s; "
            f"{self.claims} leases, {self.steals} steals, "
            f"{self.reclaims} reclaims, {self.corrupt_lines} corrupt lines"
        ]
        if self.endpoint is not None:
            t = self.transport or {}
            lines.append(
                f"  endpoint {self.endpoint}: "
                f"{t.get('connections', 0)} connections, "
                f"{t.get('frames_in', 0)} frames in / "
                f"{t.get('frames_out', 0)} out, "
                f"{t.get('uploads', 0)} uploads "
                f"({t.get('uploads_deduped', 0)} deduped), "
                f"{t.get('client_reconnects', 0)} worker reconnects, "
                f"{t.get('client_retransmitted_frames', 0)} retransmits, "
                f"{t.get('client_partitions', 0)} partitions, "
                f"{t.get('client_backoff_seconds', 0.0):.1f}s backoff"
            )
        for worker in sorted(self.per_worker):
            count = self.per_worker[worker]
            rate = count / self.wall_seconds if self.wall_seconds > 0 else 0.0
            lines.append(
                f"  worker {worker}: {count} cells ({rate:.2f} cells/s)"
            )
        if self.degraded:
            lines.append(f"  WARNING: {self.warning or 'degraded run'}")
        for index in sorted(self.failed):
            lines.append(f"  cell {index} FAILED: {self.failed[index]}")
        return "\n".join(lines)


def _publish_fabric_telemetry(report: FabricReport) -> None:
    """Fold the fabric counters into the ambient telemetry aggregate."""
    from repro.runtime.context import current_runtime

    telemetry = current_runtime().telemetry
    if telemetry is None:
        return
    from repro.telemetry import RunTelemetry

    run = RunTelemetry()
    registry = run.registry
    registry.counter("fabric/cells-computed").inc(report.computed)
    registry.counter("fabric/cells-resumed").inc(report.resumed)
    registry.counter("fabric/lease-claims").inc(report.claims)
    registry.counter("fabric/lease-steals").inc(report.steals)
    registry.counter("fabric/lease-reclaims").inc(report.reclaims)
    registry.counter("fabric/corrupt-lines").inc(report.corrupt_lines)
    registry.counter("fabric/cells-failed").inc(len(report.failed))
    registry.gauge("fabric/workers").set(float(report.workers_spawned))
    registry.gauge("fabric/degraded").set(1.0 if report.degraded else 0.0)
    registry.gauge("fabric/wall-seconds").set(report.wall_seconds)
    if report.transport:
        t = report.transport
        for name, key in (
            ("fabric/transport-connections", "connections"),
            ("fabric/transport-frames-in", "frames_in"),
            ("fabric/transport-frames-out", "frames_out"),
            ("fabric/transport-frame-errors", "frame_errors"),
            ("fabric/transport-uploads", "uploads"),
            ("fabric/transport-uploads-deduped", "uploads_deduped"),
            ("fabric/transport-reconnects", "client_reconnects"),
            ("fabric/transport-retransmitted-frames",
             "client_retransmitted_frames"),
            ("fabric/transport-partitions", "client_partitions"),
        ):
            registry.counter(name).inc(int(t.get(key, 0)))
        registry.gauge("fabric/transport-backoff-seconds").set(
            float(t.get("client_backoff_seconds", 0.0))
        )
    for worker in sorted(report.per_worker):
        registry.counter(f"fabric/cells-by/{worker}").inc(
            report.per_worker[worker]
        )
    telemetry.add_run(f"fabric:{report.sweep_id[:12]}", run)


def run_fabric(
    fn: Callable,
    items: Sequence[object],
    config: FabricConfig | None = None,
    label: str | None = None,
    fn_ref: str | None = None,
    retry: RetryPolicy | None = None,
) -> tuple[list[object | None], FabricReport]:
    """Run one sweep through the distributed fabric.

    Returns ``(results, report)`` with ``results`` in item order --
    bit-identical to ``[fn(item) for item in items]`` for every cell
    that succeeds (permanently failed cells hold ``None`` and are
    listed in ``report.failed``).

    The fabric directory is derived from the sweep's fingerprint, so
    rerunning an interrupted coordinator resumes it: every verified
    journal line is loaded back and only the missing cells are
    dispatched.  ``fn_ref`` (``module:qualname``) is resolved
    automatically for importable functions; grids carrying one accept
    externally joined ``repro worker`` processes.
    """
    config = config if config is not None else FabricConfig()
    items = list(items)
    if not items:
        raise ValueError("fabric sweep needs at least one item")
    if label is None:
        label = _supervisor._sweep_label(fn)
    try:
        sweep_id = sweep_fingerprint(label, items)
    except TypeError as exc:
        raise FabricError(
            f"sweep items are not fingerprintable ({exc}); the fabric "
            f"cannot identify the grid across processes"
        ) from exc
    if fn_ref is None:
        fn_ref = function_ref(fn)

    cache_dir = config.cache_dir
    if cache_dir is None:
        from repro.runtime.context import current_runtime

        active_cache = current_runtime().cache
        if active_cache is not None:
            cache_dir = active_cache.directory
    if config.fabric_dir is not None:
        fabric_dir = Path(config.fabric_dir)
    else:
        root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        fabric_dir = root / "fabric" / sweep_id[:16]
    config = replace(config, fabric_dir=fabric_dir, cache_dir=cache_dir)

    started = time.monotonic()
    report = FabricReport(
        label=label, n_items=len(items), fabric_dir=fabric_dir, sweep_id=sweep_id
    )

    grid_path = fabric_dir / _GRID_FILE
    if grid_path.is_file():
        header, _ = load_grid(fabric_dir)
        if header.get("sweep") != sweep_id:
            raise FabricError(
                f"{fabric_dir} holds a different sweep "
                f"({header.get('sweep', '?')[:12]} != {sweep_id[:12]}); "
                f"point --fabric-dir elsewhere or remove it"
            )
    else:
        write_grid(fabric_dir, sweep_id, label, items, fn_ref, config)

    scanner = ResultsScanner(fabric_dir, len(items))
    scanner.scan()
    report.resumed = len(scanner.done)

    board = LeaseBoard(fabric_dir, "coordinator", config.lease_ttl)
    endpoint = None
    if config.listen is not None and len(scanner.done) < len(items):
        host, port = parse_endpoint(config.listen, allow_port_zero=True)
        endpoint = FabricEndpoint(fabric_dir, host, port)
        try:
            bound_port = endpoint.start()
        except TransportError as exc:
            raise FabricError(str(exc)) from exc
        report.endpoint = format_endpoint(host, bound_port)
        print(
            f"fabric endpoint listening on {report.endpoint} "
            f"(join with: repro worker --connect {report.endpoint})",
            flush=True,
        )
    processes: list = []
    global _FABRIC_FN
    try:
        pending = len(items) - len(scanner.done)
        can_fork = "fork" in multiprocessing.get_all_start_methods()
        if pending and config.workers > 0 and can_fork:
            context = multiprocessing.get_context("fork")
            _FABRIC_FN = fn
            try:
                for slot in range(config.workers):
                    process = context.Process(
                        target=_forked_worker_main,
                        args=(
                            str(fabric_dir),
                            f"w{slot}",
                            config.poll_interval,
                            retry,
                        ),
                        name=f"fabric-worker-{slot}",
                    )
                    process.start()
                    processes.append(process)
            finally:
                _FABRIC_FN = None
            report.workers_spawned = len(processes)
        elif pending and config.workers > 0 and not can_fork:
            report.degraded = True
            report.warning = (
                "platform has no fork start method; completed serially "
                "in-process"
            )

        while pending:
            scanner.scan()
            pending = len(items) - len(scanner.done)
            if not pending:
                break
            local_alive = any(p.is_alive() for p in processes)
            external_alive = _any_external_heartbeat(fabric_dir, processes)
            if not local_alive and not external_alive:
                if (
                    report.degraded
                    or time.monotonic() - started >= config.lease_ttl
                    or (report.workers_spawned and processes)
                ):
                    _complete_serially(
                        fn, items, scanner, report, fabric_dir, retry
                    )
                    break
            time.sleep(config.poll_interval)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        deadline = time.monotonic() + 10.0
        for process in processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5.0)
        if endpoint is not None:
            # Linger briefly once the grid is done so TCP workers can
            # observe completion on their next acquire and say goodbye,
            # instead of finding a dead socket and walking the full
            # retry/fallback ladder for nothing.
            scanner.scan()
            if len(scanner.done) >= len(items):
                endpoint.drain()
            endpoint.stop()

    scanner.scan()
    results: list[object | None] = [scanner.cells.get(i) for i in range(len(items))]
    report.failed = {
        i: scanner.failed[i] for i in range(len(items)) if i in scanner.failed
    }
    report.attempts = {i: scanner.attempts[i] for i in report.failed}
    report.computed = len(scanner.done) - report.resumed
    report.corrupt_lines = scanner.corrupt_lines
    report.per_worker = dict(scanner.per_worker)
    report.claims, report.steals = board.stats()
    report.steals -= report.reclaims  # coordinator takeovers counted apart
    if report.steals < 0:  # pragma: no cover - defensive
        report.steals = 0
    report.wall_seconds = time.monotonic() - started
    if endpoint is not None:
        report.transport = _collect_transport_stats(endpoint, fabric_dir)

    missing = [i for i in range(len(items)) if results[i] is None and i not in report.failed]
    if missing:
        raise FabricError(
            f"fabric run lost cells {missing[:8]}{'...' if len(missing) > 8 else ''}: "
            f"{len(scanner.done)}/{len(items)} complete"
        )
    _publish_fabric_telemetry(report)
    return results, report


def _collect_transport_stats(
    endpoint: FabricEndpoint, fabric_dir: Path
) -> dict:
    """Endpoint counters plus the worker-side counters each client
    shipped in its heartbeats (prefixed ``client_``)."""
    transport = endpoint.stats.to_json()
    totals = {
        "reconnects": 0,
        "retransmitted_frames": 0,
        "backoff_seconds": 0.0,
        "partitions": 0,
        "frame_errors": 0,
    }
    worker_dir = fabric_dir / _WORKER_DIR
    if worker_dir.is_dir():
        for path in worker_dir.glob("*.json"):
            payload = _read_json(path)
            client = (payload or {}).get("transport")
            if not isinstance(client, dict):
                continue
            for key, zero in totals.items():
                try:
                    totals[key] = totals[key] + type(zero)(client.get(key, 0))
                except (TypeError, ValueError):
                    pass
    transport.update({f"client_{key}": value for key, value in totals.items()})
    return transport


def _any_external_heartbeat(fabric_dir: Path, processes: list) -> bool:
    """A live worker we did not fork (an externally joined process)?"""
    worker_dir = fabric_dir / _WORKER_DIR
    if not worker_dir.is_dir():
        return False
    local = {f"fabric-worker-{i}" for i in range(len(processes))}
    now = time.time()
    for path in worker_dir.glob("*.json"):
        payload = _read_json(path)
        if payload is None or payload.get("left"):
            continue
        # Local workers are covered by is_alive(); treat a fresh
        # heartbeat from a dead local worker as stale once its process
        # object is gone.
        if any(
            p.name in local and p.is_alive() and p.pid == payload.get("pid")
            for p in processes
        ):
            continue
        if payload.get("pid") is not None and any(
            p.pid == payload.get("pid") for p in processes
        ):
            continue  # one of ours, already known dead
        if _heartbeat_payload_fresh(path, payload, now):
            return True
    return False


def _complete_serially(
    fn: Callable,
    items: list,
    scanner: ResultsScanner,
    report: FabricReport,
    fabric_dir: Path,
    retry: RetryPolicy | None,
) -> None:
    """Degraded mode: every worker is dead, finish in-process.

    Pending cells run serially in the coordinator, journaled to
    ``results/coordinator.jsonl`` under reclaimed leases, so a later
    rerun (or late-joining worker) still sees a consistent journal.
    """
    report.degraded = True
    if report.warning is None:
        report.warning = (
            f"no live workers; coordinator completed "
            f"{len(items) - len(scanner.done)} pending cells serially "
            f"in-process"
        )
    worker = FabricWorker(
        fabric_dir,
        worker_id="coordinator",
        fn=fn,
        cache_dir=None,  # the coordinator's ambient cache context applies
        poll_interval=0.05,
        retry=retry,
    )
    # Reuse the coordinator's scanners/boards state where it matters:
    # the worker re-reads journals itself, so nothing is recomputed.
    try:
        for index in range(len(items)):
            worker.scanner.scan()
            if index in worker.scanner.done:
                continue
            claimed, victim = worker.board.try_claim(index)
            if victim is not None:
                report.reclaims += 1
            if not claimed:
                # Valid lease held by a worker that died without a
                # heartbeat lapse yet; take it anyway -- there is no
                # live owner, that is why we are here.
                lease = worker.board.read(index)
                worker.board.try_claim(index)
                if lease is not None:
                    report.reclaims += 1
            worker._run_cell(index)
    finally:
        worker.heartbeat.stop(left=True)
        worker.close()
