"""Experiment runtime: one sweep runner, result cache, sweep fabric.

Every figure and ablation funnels its simulations through two seams --
the :func:`repro.analysis.sweep.sweep`/``replicate`` loop and the
per-cell simulator invocation.  This package instruments both:

* :mod:`repro.runtime.supervisor` -- the one sweep runner.  Every
  sweep runs through :class:`Supervisor`: in-process for ``jobs=1``,
  otherwise over a ``fork`` process pool with one future per item and
  results reassembled in item order.  Determinism is preserved because
  every simulation seeds its own named RNG streams from its
  configuration (:class:`repro.des.rng.RngRegistry`), so results do not
  depend on which worker ran which cell.  The same runner adds per-item
  wall-clock timeouts, crash detection with suspect probing, bounded
  retries with exponential backoff, quarantine of repeatedly failing
  cells (:class:`FailureReport`), and mid-sweep degradation to serial
  when the pool cannot be rebuilt.  Under the default policy a
  parallel sweep fails fast: the first failing cell raises
  :class:`WorkerError` and the pool is killed;
* :mod:`repro.runtime.cache` -- a content-addressed on-disk result
  cache keyed by a stable fingerprint of ``(SimulationConfig, seed,
  code-version salt)``: re-running a figure after touching only
  analysis code skips the simulations entirely;
* :mod:`repro.runtime.context` -- the ambient :class:`RuntimeContext`
  (:func:`use_runtime`) that ties the two together and the
  cache-aware :func:`run_simulation` entry point all experiment
  drivers call;
* :mod:`repro.runtime.journal` -- the append-only checkpoint journal
  (JSONL of completed cell results, checksummed line-by-line) that
  makes interrupted sweeps resumable via ``--resume``, plus
  :func:`atomic_write`, the one temp-file + fsync + rename publisher
  behind cache entries, compacted journals and fabric files;
* :mod:`repro.runtime.fabric` -- the distributed sweep fabric, the
  supervisor's backend when the context carries a ``FabricConfig``: a
  lease-based coordinator/worker layer over the journal and cache that
  shards one grid across worker processes (or hosts sharing a cache
  directory), steals work from crashed workers, and merges results in
  item order so distributed runs stay bit-identical to serial;
* :mod:`repro.runtime.transport` -- the fabric's TCP access path:
  length-prefixed sha256-checksummed frames, an idempotent RPC client
  with capped exponential backoff, and the coordinator-side asyncio
  endpoint that gateways RPCs onto the fabric directory;
* :mod:`repro.runtime.chaosnet` -- an in-process frame-aware chaos
  proxy (latency, drops, duplicates, mid-frame resets, partitions)
  that proves the transport's fault tolerance in tests and CI.
"""

from repro.runtime.cache import (
    CacheDiskStats,
    CacheStats,
    CacheVerifyReport,
    ResultCache,
    default_cache_dir,
)
from repro.runtime.context import (
    RuntimeContext,
    RuntimeStats,
    current_runtime,
    run_simulation,
    use_runtime,
)
from repro.runtime.fingerprint import code_salt, stable_fingerprint
from repro.runtime.journal import (
    CompactionStats,
    JournalStats,
    SweepJournal,
    atomic_write,
    compact_journal,
    sweep_fingerprint,
)
from repro.runtime.supervisor import (
    FailureRecord,
    FailureReport,
    RetryPolicy,
    Supervisor,
    WorkerError,
    supervised_map,
)

# Imported last: the fabric layers on top of every module above.
from repro.runtime.chaosnet import (  # noqa: E402
    ChaosProxy,
    ChaosStats,
    NetFaultPlan,
    PartitionWindow,
)
from repro.runtime.fabric import (  # noqa: E402
    FabricConfig,
    FabricError,
    FabricReport,
    FabricWorker,
    FilesystemClock,
    SystemClock,
    run_fabric,
)
from repro.runtime.transport import (  # noqa: E402
    Backoff,
    FabricEndpoint,
    FrameError,
    TransportClient,
    TransportDown,
    TransportError,
    TransportStats,
    parse_endpoint,
)

__all__ = [
    "CacheDiskStats",
    "CacheStats",
    "CacheVerifyReport",
    "ResultCache",
    "default_cache_dir",
    "RuntimeContext",
    "RuntimeStats",
    "current_runtime",
    "run_simulation",
    "use_runtime",
    "code_salt",
    "stable_fingerprint",
    "CompactionStats",
    "JournalStats",
    "SweepJournal",
    "atomic_write",
    "compact_journal",
    "sweep_fingerprint",
    "FailureRecord",
    "FailureReport",
    "RetryPolicy",
    "Supervisor",
    "WorkerError",
    "supervised_map",
    "FabricConfig",
    "FabricError",
    "FabricReport",
    "FabricWorker",
    "FilesystemClock",
    "SystemClock",
    "run_fabric",
    "Backoff",
    "FabricEndpoint",
    "FrameError",
    "TransportClient",
    "TransportDown",
    "TransportError",
    "TransportStats",
    "parse_endpoint",
    "ChaosProxy",
    "ChaosStats",
    "NetFaultPlan",
    "PartitionWindow",
]
