"""Simulation outputs: delivery logs, node statistics, drop records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.metrics import DeliveryRecords
from repro.net.packet import SinkTap
from repro.sim.tracing import PacketTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import RunTelemetry

__all__ = ["DELIVERY_COLUMNS", "NodeStats", "DroppedPacket", "SimulationResult"]

#: The delivery log's ten columns: the adversary tap's, then the ground
#: truth's (``hop_count`` belongs to both and is stored once).
DELIVERY_COLUMNS = tuple({**SinkTap.dtypes, **DeliveryRecords.dtypes})


@dataclass(slots=True)
class NodeStats:
    """Per-node buffer statistics over one run."""

    node_id: int
    admitted: int = 0
    dropped: int = 0
    preemptions: int = 0
    peak_occupancy: int = 0
    occupancy_time_integral: float = 0.0
    observation_time: float = 0.0
    lost_in_transit: int = 0
    """Packets this node transmitted that never reached the next hop
    (link loss, crashed receiver, or ARQ retry exhaustion)."""
    retransmissions: int = 0
    """ARQ retransmissions this node performed as a sender."""

    @property
    def mean_occupancy(self) -> float:
        """Time-averaged buffer occupancy (packets)."""
        if self.observation_time <= 0:
            return 0.0
        return self.occupancy_time_integral / self.observation_time


@dataclass(frozen=True)
class DroppedPacket:
    """A packet lost to a full drop-tail buffer."""

    flow_id: int
    packet_id: int
    created_at: float
    dropped_at: float
    dropped_by: int


@dataclass
class SimulationResult:
    """Everything a run produced.

    The delivery log is columnar: ``observations`` (a
    :class:`~repro.net.packet.SinkTap`) and ``records`` (a
    :class:`~repro.core.metrics.DeliveryRecords`) are read-only views
    holding one numpy array per field, and they share one
    ``hop_count`` column.  They are aligned index-by-index and sorted
    by arrival time: ``observations[i]`` is the adversary's view of the
    packet whose ground truth is ``records[i]``.  Keeping both in the
    interleaved arrival order preserves exactly what a stateful
    (adaptive) adversary gets to see.  Iterating either view builds its
    row objects once; :meth:`set_deliveries` is how a run stores them.
    """

    observations: SinkTap = field(default_factory=SinkTap)
    records: DeliveryRecords = field(default_factory=DeliveryRecords)
    node_stats: dict[int, NodeStats] = field(default_factory=dict)
    dropped: list[DroppedPacket] = field(default_factory=list)
    transmissions: list[tuple[float, int, int]] = field(default_factory=list)
    """Per-hop transmission log as (time, sender, receiver), recorded
    only when the configuration sets ``record_transmissions=True``."""
    packet_traces: dict[tuple[int, int], "PacketTrace"] = field(default_factory=dict)
    """(flow_id, packet_id) -> lifecycle trace, recorded only when the
    configuration sets ``record_packet_traces=True``."""
    lost_in_transit: int = 0
    end_time: float = 0.0
    events_processed: int = 0
    retransmissions: list[tuple[float, int, int]] = field(default_factory=list)
    """ARQ retransmission log as (time, sender, receiver).  Part of the
    adversary-visible surface: a retry is a physical emission whose
    timing correlates with the original send, so adversary models may
    legitimately consume this log (unlike ``packet_traces``, which are
    god-view only)."""
    duplicates_suppressed: int = 0
    """Extra physical copies (duplication faults, ARQ re-sends of
    already-received data) discarded by receivers' duplicate filters."""
    stranded_in_buffer: int = 0
    """Packets still frozen inside crashed nodes' buffers when the
    simulation horizon closed."""
    crash_blackholed: int = 0
    """Packets that vanished because their receiver was down (subset of
    ``lost_in_transit``)."""
    arq_failed: int = 0
    """Hop transfers abandoned after exhausting ARQ retries with no
    copy ever received (subset of ``lost_in_transit``)."""
    telemetry: "RunTelemetry | None" = None
    """Instrumentation recorded during the run (occupancy series,
    latency histograms, engine counters), present only when the
    configuration sets ``record_telemetry=True``.  Derived purely from
    simulated time, so it caches and pickles with the result."""

    # ------------------------------------------------------------------
    def set_deliveries(self, **columns: object) -> None:
        """Store the delivery log: the :data:`DELIVERY_COLUMNS`, aligned
        and in arrival order, split into the two views."""
        if set(columns) != set(DELIVERY_COLUMNS):
            raise TypeError(
                f"need exactly the columns {DELIVERY_COLUMNS}, got {tuple(columns)}"
            )
        self.observations = SinkTap(**{name: columns[name] for name in SinkTap.dtypes})
        columns["hop_count"] = self.observations.hop_count  # stored once, shared
        self.records = DeliveryRecords(
            **{name: columns[name] for name in DeliveryRecords.dtypes}
        )

    def delivery_log_error(self) -> str | None:
        """What is wrong with the delivery log's shape, or None if sound.

        Sound means both views are columnar and every column has one
        common length (a misaligned tap would mis-score every adversary).
        """
        tap, truth = self.observations, self.records
        if not isinstance(tap, SinkTap) or not isinstance(truth, DeliveryRecords):
            return (
                "delivery log is not columnar: "
                f"{type(tap).__name__} observations, {type(truth).__name__} records"
            )
        lengths = {
            len(column) for view in (tap, truth) for column in view.columns().values()
        }
        if len(lengths) > 1:
            return (
                f"adversary tap has {len(tap)} observations but ground truth has "
                f"{len(truth)} records (column lengths {sorted(lengths)})"
            )
        return None

    def flow_ids(self) -> list[int]:
        """Distinct flow ids present in the delivery log."""
        return np.unique(self.records.flow_id).tolist()

    def flow_indices(self, flow_id: int) -> list[int]:
        """Positions of one flow's packets within the arrival order."""
        return np.flatnonzero(self.records.flow_id == flow_id).tolist()

    def flow_records(self, flow_id: int) -> DeliveryRecords:
        """One flow's delivered packets, in arrival order."""
        return self.records[self.records.flow_id == flow_id]

    def flow_observations(self, flow_id: int) -> SinkTap:
        """One flow's observations, in arrival order."""
        return self.observations[self.records.flow_id == flow_id]

    def delivered_count(self, flow_id: int | None = None) -> int:
        """Packets delivered (optionally restricted to one flow)."""
        if flow_id is None:
            return len(self.records)
        return int(np.count_nonzero(self.records.flow_id == flow_id))

    def drop_count(self, flow_id: int | None = None) -> int:
        """Packets dropped (optionally restricted to one flow)."""
        if flow_id is None:
            return len(self.dropped)
        return sum(1 for d in self.dropped if d.flow_id == flow_id)

    def total_preemptions(self) -> int:
        """Preemption events across all nodes."""
        return sum(stats.preemptions for stats in self.node_stats.values())

    def total_retransmissions(self) -> int:
        """ARQ retransmission events across all nodes."""
        return len(self.retransmissions)

    def loss_by_node(self) -> dict[int, int]:
        """Per-hop loss locations: transmitting node -> packets lost.

        Sums to :attr:`lost_in_transit` (the per-node counts partition
        the global counter by the node whose outbound hop failed).
        """
        return {
            node: stats.lost_in_transit
            for node, stats in sorted(self.node_stats.items())
            if stats.lost_in_transit
        }

    def mean_latency(self, flow_id: int | None = None) -> float:
        """Average end-to-end latency, over all or one flow's packets."""
        records = self.records if flow_id is None else self.flow_records(flow_id)
        if not len(records):
            raise ValueError(f"no delivered packets for flow {flow_id!r}")
        # Python's sequential sum, not numpy's pairwise one: the mean
        # must not depend on how the log is stored.
        return float(sum(records.latency.tolist()) / len(records))
