"""Per-run telemetry containers and the context-level aggregator.

Two layers:

* :class:`RunTelemetry` -- what one simulation records: a
  :class:`~repro.telemetry.registry.MetricsRegistry` of counters and
  histograms plus a :class:`~repro.telemetry.timeseries.TimeSeriesStore`
  of sampled series.  It lives on
  :attr:`repro.sim.results.SimulationResult.telemetry`, so it is cached
  and shipped across process boundaries together with the result it
  instruments;
* :class:`TelemetryAggregate` -- what one runtime context accumulates:
  the ordered list of run telemetries published by
  :func:`repro.runtime.context.run_simulation`.  All registry merging
  is deferred to :meth:`TelemetryAggregate.merged_registry`, which folds
  runs strictly in publication order.  The sweep supervisor guarantees that
  publication order equals *item order* under any worker count (workers
  capture, the parent replays captures in index order), which is what
  makes the aggregate bit-identical between ``--jobs N`` and serial.

Everything here is derived from simulated time, never wall clocks, so
aggregates are fully deterministic for a given configuration and seed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.timeseries import TimeSeriesStore

__all__ = ["RunTelemetry", "TelemetryAggregate", "CaptureSink"]


class RunTelemetry:
    """Everything one instrumented simulation run recorded."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.series = TimeSeriesStore()

    def snapshot(self) -> dict:
        """JSON-compatible view: metric snapshot + series names."""
        return {
            "metrics": self.registry.snapshot(),
            "series": self.series.names(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunTelemetry({len(self.series)} series)"


class CaptureSink:
    """Ordered run telemetries captured during one sweep item."""

    def __init__(self) -> None:
        self.runs: list[tuple[str, RunTelemetry]] = []

    def add(self, key: str, telemetry: RunTelemetry) -> None:
        self.runs.append((key, telemetry))


class TelemetryAggregate:
    """Context-level collection of run telemetries, in publication order.

    ``add_run`` publishes into the innermost active capture (or the root
    list when no capture is active); :meth:`capture` is the worker /
    supervisor seam that isolates one sweep item's publications so the
    parent can replay them in item order.
    """

    def __init__(self) -> None:
        self._runs: list[tuple[str, RunTelemetry]] = []
        self._captures: list[CaptureSink] = []

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return True

    def add_run(self, key: str, telemetry: RunTelemetry) -> None:
        """Publish one run's telemetry under its config fingerprint."""
        if self._captures:
            self._captures[-1].add(key, telemetry)
        else:
            self._runs.append((key, telemetry))

    @contextmanager
    def capture(self) -> Iterator[CaptureSink]:
        """Divert publications into a fresh sink for one sweep item."""
        sink = CaptureSink()
        self._captures.append(sink)
        try:
            yield sink
        finally:
            self._captures.pop()

    def replay(self, runs: list[tuple[str, RunTelemetry]]) -> None:
        """Re-publish captured runs (parent side, in item order)."""
        for key, telemetry in runs:
            self.add_run(key, telemetry)

    # ------------------------------------------------------------------
    @property
    def runs(self) -> list[tuple[str, RunTelemetry]]:
        return list(self._runs)

    @property
    def n_runs(self) -> int:
        return len(self._runs)

    def merged_registry(self) -> MetricsRegistry:
        """All run registries folded together, in publication order."""
        merged = MetricsRegistry()
        for _, telemetry in self._runs:
            merged.merge(telemetry.registry)
        return merged

    def snapshot(self) -> dict:
        """Deterministic aggregate view (the manifest's ``metrics``)."""
        return self.merged_registry().snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TelemetryAggregate({len(self._runs)} runs)"
