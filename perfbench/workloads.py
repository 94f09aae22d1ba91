"""The benchmark's workloads: set-up, one timed pass, and output checks.

Each workload imports the program's layers (:meth:`import_layers`) and
builds what a user's first call needs (:meth:`build`); that is what
``setup_s`` times, from a fresh interpreter.  It does untimed
preconditions in :meth:`prepare`,
and then runs timed passes of its top-level public call.  A pass checks
its own outputs and reports how many operations it attempted and how
many failed.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import serve_load

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: Input variants: the workload seed picks one of these, so every input a
#: run can get has a reference digest recorded at the commit that defined
#: the benchmark.
VARIANTS = 8


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (floats as exact hex)."""

    def canon(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        return value

    text = json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def count_mismatches(expected: dict | None, panels: list[str], cells: list[str]) -> int:
    """Cells whose output differs from the reference.

    A differing cell digest fails that cell; a differing panel digest
    (or a missing reference) fails every cell of the pass.
    """
    if not expected or expected.get("panels") != panels:
        return len(cells)
    reference_cells = expected.get("cells", [])
    if len(reference_cells) != len(cells):
        return len(cells)
    return sum(1 for got, want in zip(cells, reference_cells) if got != want)


@dataclass
class PassResult:
    """What one timed pass measured and checked."""

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    digest: str
    extra: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
class Workload:
    name = ""
    #: Which instrumentation groups a traced pass installs.
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        #: Set by the worker while a traced pass runs.
        self.instrumentation = None
        self.variant = variant_of(seed)
        self.scale = scale
        self.workdir = workdir
        self.reference = load_reference().get(scale, {})

    def import_layers(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        """Everything between the imports and the first timed call."""

    def prepare(self) -> None:
        """Untimed preconditions of the timed passes."""

    def run_pass(self, traced: bool) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
FIG2_SCALES = {
    # 3 cases x 10 rates x 4 flows x 1000 packets: the paper's grid.
    "full": {"interarrivals": (2, 4, 6, 8, 10, 12, 14, 16, 18, 20), "n_packets": 1000},
    "small": {"interarrivals": (2, 10, 20), "n_packets": 40},
}


class Fig2(Workload):
    """Figure 2 at paper scale, serial, through the on-disk result cache."""

    layers = ("batch", "cells")

    def import_layers(self) -> None:
        from repro.experiments import fig2
        from repro import runtime

        self._fig2 = fig2
        self._runtime = runtime

    def build(self) -> None:
        from repro.runtime.fingerprint import code_salt

        code_salt()  # the cache's code-version key, computed once per process
        params = FIG2_SCALES[self.scale]
        self.interarrivals = params["interarrivals"]
        self.n_packets = params["n_packets"]
        self._passes = 0

    def _figure2(self, cache_dir: Path) -> tuple[float, float, object, object]:
        cache = self._runtime.ResultCache(cache_dir)
        with self._runtime.use_runtime(cache=cache):
            cpu0 = time.process_time()
            start = time.perf_counter()
            tables = self._fig2.figure2(
                interarrivals=self.interarrivals, n_packets=self.n_packets, seed=self.variant
            )
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
        return wall, cpu, tables, cache

    def _check(self, wall: float, cpu: float, tables, cache) -> PassResult:
        mse_table, latency_table = tables
        panels = [digest(_table_dict(t)) for t in (mse_table, latency_table)]
        cells = [
            digest([mse_series.label, x, mse, latency])
            for mse_series, latency_series in zip(mse_table.series, latency_table.series)
            for x, mse, latency in zip(
                mse_series.x_values, mse_series.y_values, latency_series.y_values
            )
        ]
        expected = self.reference.get("fig2", {}).get(str(self.variant))
        sizes = {path.stem: path.stat().st_size for path in cache.iter_entry_paths()}
        read = written = 0
        if self.instrumentation is not None:
            read = sum(sizes.get(cache.key_for(c), 0) for c in self.instrumentation.cache_hit_configs)
            written = sum(sizes.get(cache.key_for(c), 0) for c in self.instrumentation.cache_put_configs)
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            attempted=len(cells),
            failed=count_mismatches(expected, panels, cells),
            digest=digest(panels),
            extra={
                "panels": panels,
                "cells": cells,
                "cache_bytes": sum(sizes.values()),
                "bytes_read": read,
                "bytes_written": written,
                "cache_hits": cache.stats.hits,
                "cache_misses": cache.stats.misses,
            },
        )


def _table_dict(table) -> dict:
    return {
        "title": table.title,
        "x_label": table.x_label,
        "y_label": table.y_label,
        "series": [[s.label, list(s.x_values), list(s.y_values)] for s in table.series],
    }


class Fig2Cold(Fig2):
    """Every pass starts from an empty result cache."""

    name = "fig2-cold"

    def run_pass(self, traced: bool) -> PassResult:
        self._passes += 1
        cache_dir = self.workdir / f"cold-{self._passes}"
        try:
            return self._check(*self._figure2(cache_dir))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class Fig2Warm(Fig2):
    """Every pass finds all 30 cells in the result cache."""

    name = "fig2-warm"

    def prepare(self) -> None:
        self._cache_dir = self.workdir / "warm"
        self._figure2(self._cache_dir)

    def run_pass(self, traced: bool) -> PassResult:
        return self._check(*self._figure2(self._cache_dir))


# ----------------------------------------------------------------------
SCENARIO_SCALES = {
    "full": {
        "topology": {"family": "random-geometric", "n_nodes": 1000,
                     "area_side": 32.0, "radio_range": 2.0},
        "sources": 8,
        "n_packets": 500,
    },
    "small": {
        "topology": {"family": "random-geometric", "n_nodes": 120,
                     "area_side": 12.0, "radio_range": 2.2},
        "sources": 3,
        "n_packets": 30,
    },
}


def scenario_suite(scale: str, variant: int) -> dict:
    """The scenario file a user would write, with the variant's seeds."""
    params = SCENARIO_SCALES[scale]
    return {
        "scenarios": [
            {
                "name": f"rg-{params['topology']['n_nodes']}",
                "topology": dict(params["topology"], seed=7 + variant),
                "sources": {"count": params["sources"], "placement": "spread"},
                "traffic": [{"model": "poisson", "interarrival": 8.0}],
                "capacity": {"base": 10, "spread": 4, "seed": variant},
                "defenses": [
                    {"name": "rcad"},
                    {"name": "drop-tail"},
                    {"name": "infinite"},
                    {"name": "phantom"},
                ],
                "n_packets": params["n_packets"],
                "seeds": [2 * variant, 2 * variant + 1],
            }
        ]
    }


class ScenariosRG1000(Workload):
    """One 1000-node random-geometric scenario, four defenses, no cache."""

    name = "scenarios-rg1000"
    layers = ("batch", "cells", "scenarios", "core")

    def import_layers(self) -> None:
        from repro.runtime import use_runtime
        from repro.scenarios import runner, spec

        self._use_runtime = use_runtime
        self._runner = runner
        self._spec = spec

    def build(self) -> None:
        text = json.dumps(scenario_suite(self.scale, self.variant))
        self.specs = self._spec.parse_suite(json.loads(text))

    def run_pass(self, traced: bool) -> PassResult:
        with self._use_runtime():
            cpu0 = time.process_time()
            start = time.perf_counter()
            summaries = self._runner.run_suite(self.specs)
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu0
        panels = [digest(self._runner.summaries_to_dict(summaries))]
        cells = [digest(summary.to_dict()) for summary in summaries]
        expected = self.reference.get("scenarios", {}).get(str(self.variant))
        attempted = len(self.specs[0].defenses) * len(self.specs[0].seeds)
        failed = count_mismatches(expected, panels, cells) + (attempted - len(cells))
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            attempted=attempted,
            failed=min(failed, attempted),
            digest=panels[0],
            extra={"panels": panels, "cells": cells},
        )


# ----------------------------------------------------------------------
SERVE_SCALES = {
    # rates in events/s, durations in seconds
    # A staircase climbs at most two octaves (24 rungs) above its start.
    "full": {"light": (2000.0, 0.5), "heavy": (16000.0, 0.5), "rungs": 24},
    "small": {"light": (2000.0, 0.2), "heavy": (16000.0, 0.1), "rungs": 3},
}


STAIRCASES_PER_PASS = 2


class ServeOpen(Workload):
    """Open-loop Poisson load on an in-process 4-shard service."""

    name = "serve-open"
    layers = ("service", "core")

    def import_layers(self) -> None:
        from repro.service.config import ServiceConfig
        from repro.service.server import TemporalPrivacyService

        self._config_cls = ServiceConfig
        self._service_cls = TemporalPrivacyService

    def build(self) -> None:
        params = SERVE_SCALES[self.scale]
        self.rng = np.random.default_rng(self.seed)
        self.phases = {
            name: serve_load.poisson_offsets(rate, int(rate * seconds), self.rng)
            for name, (rate, seconds) in (("light", params["light"]), ("heavy", params["heavy"]))
        }
        self.rungs = params["rungs"]
        self._next_service = self._new_service()
        self._ladder_start = 0

    def _new_service(self):
        # Buffers far above any occupancy the ladder reaches, so nothing
        # is preempted or shed: the benchmark measures the delay path.
        config = self._config_cls(
            shards=4,
            shard_capacity=65536,
            max_buffered_total=262144,
            mean_delay=0.05,
            seed=self.seed,
        )
        return self._service_cls(config)

    def _take_service(self):
        service, self._next_service = self._next_service, None
        return service if service is not None else self._new_service()

    async def _phase(self, offsets: np.ndarray, stop_lag_s: float | None = None):
        service = self._take_service()
        log = serve_load.PhaseLog.allocate(len(offsets))
        service.set_on_release(log.on_release)
        await service.start()
        await serve_load.drive(service, offsets, log, stop_lag_s=stop_lag_s)
        # The service is freed by the cycle collector, whenever that runs;
        # unhooking the log lets its arrays go as soon as the caller drops it.
        service.set_on_release(None)
        return log

    async def _staircase(self) -> tuple[float, int, int]:
        """One staircase up the ladder: (capacity, events sent, failures)."""
        start = self._ladder_start
        offsets, bounds = serve_load.ladder_schedule(start, self.rungs, self.rng)
        log = await self._phase(offsets, stop_lag_s=serve_load.STOP_LAG_S)
        passed = {k: serve_load.rung_passes(log, rung) for k, rung in bounds}
        best = max((k for k, ok in passed.items() if ok), default=start)
        # The next staircase starts a few rungs below where this one
        # topped out, so repeats spend their time near capacity.
        self._ladder_start = max(0, best - 4)
        return serve_load.ladder_capacity(start, passed), log.sent, log.failures()

    def run_pass(self, traced: bool) -> PassResult:
        logs = {}
        start = time.perf_counter()
        for name, offsets in self.phases.items():
            logs[name] = asyncio.run(self._phase(offsets))
        wall = sum(log.wall_s for log in logs.values())
        cpu = sum(log.cpu_s for log in logs.values())
        attempted = sum(len(log.due) for log in logs.values())
        failed = sum(log.failures() + (len(log.due) - log.sent) for log in logs.values())
        extra = {
            "overhead_ms": {name: log.overhead_ms() for name, log in logs.items()},
            "lag_ms": logs["heavy"].lag_ms(),
            "released": int(sum(log.releases.sum() for log in logs.values())),
            "released_early": int(sum(log.early.sum() for log in logs.values())),
            "shed": int(sum((log.outcome == serve_load.SHED).sum() for log in logs.values())),
        }
        # Untraced passes also climb the capacity ladder, after the fixed
        # phases (whose wall and CPU time the pass reports).  Each
        # staircase is a noisy reading of capacity and costs less than
        # the fixed phases' drains, so a pass climbs twice.
        if not traced:
            extra["capacities"] = []
            for _ in range(STAIRCASES_PER_PASS):
                capacity, sent, ladder_failed = asyncio.run(self._staircase())
                extra["capacities"].append(capacity)
                attempted += sent
                failed += ladder_failed
        extra["elapsed_s"] = time.perf_counter() - start
        digest_value = digest([int(log.releases.sum()) for log in logs.values()])
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            attempted=attempted,
            failed=failed,
            digest=digest_value,
            extra=extra,
        )


WORKLOADS = {cls.name: cls for cls in (Fig2Cold, Fig2Warm, ScenariosRG1000, ServeOpen)}
