"""Span recorder and the layer boundaries it is wrapped around.

The benchmark measures every layer from outside the program: a traced
pass swaps each layer's public entry point for a wrapper that records a
span (name, start, end, parent) and puts the original back afterwards.
Spans stay in memory and are written out once, when the run ends.

A layer's self time is the time inside its spans minus the time inside
their child spans.  Self times of all spans under the pass's root span
partition the root's duration exactly, so the named layers plus
``other`` always add up to the traced pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

#: Span name -> layer name.  Layers with several entry points (the
#: simulator's constructor and ``run``; the three scoring helpers) map
#: several span names to one layer.  Spans not listed here ("pass",
#: "cell", "service.submit") count towards ``other``.
LAYER_OF = {
    "sim.fast.init": "sim.fast",
    "sim.fast.run": "sim.fast",
    "sim.event.init": "sim.event",
    "sim.event.run": "sim.event",
    "cache.get": "cache.get",
    "cache.put": "cache.put",
    "runtime.sweep": "runtime.sweep",
    "adversary.estimate_all": "adversary.estimate_all",
    "metrics.score": "metrics.score",
    "config.paper_baseline": "config.paper_baseline",
    "scenarios.parse": "scenarios.compile",
    "scenarios.compile": "scenarios.compile",
    "net.topology": "net.topology",
    "net.routing": "net.routing",
    "core.privacy_core.offer": "core.privacy_core.offer",
    "core.privacy_core.poll_due": "core.privacy_core.poll_due",
}


class SpanRecorder:
    """In-memory spans of one workload run, in parallel lists.

    Spans nest through an explicit stack, which is only valid for
    synchronous calls; every wrapped entry point is synchronous (the
    service's pumps call the core between awaits, never across one).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.work: list[float] = []
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.work.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        work: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments.  ``work``,
        if given, maps ``(args, result)`` to a number stored with the
        span (packets simulated, estimates made, a cache hit).
        """
        names, parents, starts, ends, spans_work = (
            self.names, self.parents, self.starts, self.ends, self.work
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name(*args, **kwargs) if callable(name) else name)
            parents.append(stack[-1])
            spans_work.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if work is not None:
                spans_work[index] = work(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """Every span so far, one numpy array per field."""
        return {
            "name": np.asarray(self.names),
            "parent": np.asarray(self.parents, dtype=np.int64),
            "start": np.asarray(self.starts, dtype=np.float64),
            "end": np.asarray(self.ends, dtype=np.float64),
            "work": np.asarray(self.work, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        """Write every span (and the run id) as one compressed npz."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, run_id=np.asarray(self.run_id), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    own = duration.copy()
    nested = spans["parent"] >= 0
    np.subtract.at(own, spans["parent"][nested], duration[nested])
    return own


def layer_totals(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: call count, self seconds, work."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "work": 0.0}
    )
    for name in np.unique(spans["name"]):
        mask = spans["name"] == name
        entry = totals[str(name)]
        entry["calls"] = int(mask.sum())
        entry["self_s"] = float(own[mask].sum())
        entry["work"] = float(spans["work"][mask].sum())
    return totals


# ----------------------------------------------------------------------
class Instrumentation:
    """Installs span wrappers on the program's layer entry points.

    Functions imported by name into other modules (``from x import f``)
    are replaced in every loaded ``repro`` module that holds them, so a
    call is caught whichever module makes it.  :meth:`remove` restores
    every original object.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []
        #: configs whose cache lookups hit, and configs stored, in call
        #: order; their entry sizes are read after the pass, untimed.
        self.cache_hit_configs: list = []
        self.cache_put_configs: list = []

    # -- patching helpers ------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        # For a class, keep the raw attribute (a classmethod object, not
        # the bound method getattr would give).
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _function(self, module: str, attr: str, name, work=None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.recorder.wrap(name, original, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _method(self, cls: type, attr: str, name, work=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.recorder.wrap(name, raw.__func__, work))
        else:
            wrapped = self.recorder.wrap(name, raw, work)
        self._set(cls, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the layers ------------------------------------------------------
    def install_batch(self) -> None:
        """Boundaries of the sweep/cache/engine/scoring stack."""
        from repro.core.adversary import Adversary
        from repro.core.metrics import LatencyStats
        from repro.runtime.cache import ResultCache
        from repro.sim.config import SimulationConfig
        from repro.sim.fastpath import fastpath_eligible, fastpath_enabled
        from repro.sim.simulator import SensorNetworkSimulator

        def engine(config) -> str:
            fast = fastpath_enabled() and fastpath_eligible(config)
            return "sim.fast" if fast else "sim.event"

        def sim_init_name(sim, config, *args, **kwargs) -> str:
            return engine(config) + ".init"

        def sim_run_name(sim) -> str:
            if type(sim) is not SensorNetworkSimulator:
                return "sim.event.run"
            return engine(sim.config) + ".run"

        def sim_work(args, result) -> float:
            sim = args[0]
            if engine(sim.config) == "sim.fast":
                return float(sum(flow.n_packets for flow in sim.config.flows))
            return float(result.events_processed)

        def cache_get_work(args, result) -> float:
            if result is None:
                return 0.0
            self.cache_hit_configs.append(args[1])
            return 1.0

        def cache_put_work(args, result) -> float:
            self.cache_put_configs.append(args[1])
            return 1.0

        self._method(SensorNetworkSimulator, "__init__", sim_init_name)
        self._method(SensorNetworkSimulator, "run", sim_run_name, sim_work)
        self._method(ResultCache, "get", "cache.get", cache_get_work)
        self._method(ResultCache, "put", "cache.put", cache_put_work)
        self._method(
            Adversary, "estimate_all", "adversary.estimate_all",
            lambda args, result: float(len(result)),
        )
        self._method(SimulationConfig, "paper_baseline", "config.paper_baseline")
        self._method(LatencyStats, "from_samples", "metrics.score")
        self._function("repro.core.metrics", "summarize_flow", "metrics.score")
        self._function("repro.infotheory.mmse", "mse_of_estimator", "metrics.score")
        self._function("repro.analysis.sweep", "sweep", "runtime.sweep")

    def install_cells(self) -> None:
        """Per-cell spans, for the experiment modules loaded (cell self time is ``other``)."""
        if "repro.experiments.fig2" in sys.modules:
            self._function("repro.experiments.fig2", "fig2_cell", "cell")
        if "repro.scenarios.runner" in sys.modules:
            self._function("repro.scenarios.runner", "scenario_cell", "cell")

    def install_scenarios(self) -> None:
        """Spec parsing and compilation, and the topology and routing constructors."""
        from repro.scenarios.spec import ScenarioSpec

        self._method(ScenarioSpec, "from_dict", "scenarios.parse")
        self._method(ScenarioSpec, "compile", "scenarios.compile")
        for attr in ("line_deployment", "grid_deployment", "random_geometric_deployment"):
            self._function("repro.net.topology", attr, "net.topology")
        for attr in ("shortest_path_tree", "greedy_grid_tree"):
            self._function("repro.net.routing", attr, "net.routing")

    def install_core(self) -> None:
        """The shared temporal-privacy state machine (engine and service)."""
        from repro.core.privacy_core import TemporalPrivacyCore

        self._method(TemporalPrivacyCore, "offer", "core.privacy_core.offer")
        self._method(TemporalPrivacyCore, "poll_due", "core.privacy_core.poll_due")

    def install_service(self) -> None:
        from repro.service.server import TemporalPrivacyService

        self._method(TemporalPrivacyService, "submit", "service.submit")
