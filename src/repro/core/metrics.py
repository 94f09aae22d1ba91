"""Privacy and performance metrics (paper §5.1).

Two metrics drive the whole evaluation:

* **temporal privacy** -- the adversary's mean square error over a
  flow's packets, ``MSE = sum (x_hat_i - x_i)^2 / m``; larger is more
  private;
* **performance** -- the end-to-end delivery latency; the goal is to
  "introduce minimal extra latency while maximizing temporal privacy".

:class:`PacketRecord` is the per-packet ground-truth row produced by
the simulator, and :class:`DeliveryRecords` a run's worth of them as
numpy columns; :func:`summarize_flow` matches adversary estimates
against them to produce a :class:`FlowMetrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.infotheory.mmse import mse_of_estimator
from repro.net.packet import ColumnRows

__all__ = [
    "PacketRecord",
    "DeliveryRecords",
    "LatencyStats",
    "FlowMetrics",
    "summarize_flow",
]


@dataclass(frozen=True)
class PacketRecord:
    """Ground truth for one delivered packet (simulator's god view)."""

    flow_id: int
    packet_id: int
    created_at: float
    delivered_at: float
    hop_count: int
    preemptions_experienced: int = 0

    def __post_init__(self) -> None:
        if self.delivered_at < self.created_at:
            raise ValueError(
                f"packet delivered at {self.delivered_at:g} before being "
                f"created at {self.created_at:g}"
            )

    @property
    def latency(self) -> float:
        """End-to-end delivery latency."""
        return self.delivered_at - self.created_at


class DeliveryRecords(ColumnRows):
    """A run's ground truth in arrival order, one column per field.

    The columnar form of a :class:`PacketRecord` sequence; the
    ``preemptions`` column holds each record's
    ``preemptions_experienced``.
    """

    row_type = PacketRecord
    dtypes = {
        "flow_id": np.int32,
        "packet_id": np.int32,
        "created_at": np.float64,
        "delivered_at": np.float64,
        "hop_count": np.int32,
        "preemptions": np.int32,
    }
    __slots__ = tuple(dtypes)

    @property
    def latency(self) -> np.ndarray:
        """End-to-end delivery latency of every record."""
        return self.delivered_at - self.created_at


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample."""

    mean: float
    median: float
    p95: float
    maximum: float
    minimum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Compute the summary; requires at least one sample."""
        values = np.asarray(samples, dtype=float)
        if values.size == 0:
            raise ValueError("cannot summarize an empty latency sample")
        return cls(
            mean=float(values.mean()),
            median=float(np.median(values)),
            p95=float(np.percentile(values, 95)),
            maximum=float(values.max()),
            minimum=float(values.min()),
        )


@dataclass(frozen=True)
class FlowMetrics:
    """Privacy and performance of one flow under one adversary."""

    flow_id: int
    n_packets: int
    mse: float
    mean_error: float
    latency: LatencyStats
    preemption_fraction: float

    @property
    def rmse(self) -> float:
        """Root mean square error, in time units."""
        return math.sqrt(self.mse)


def summarize_flow(
    records: Sequence[PacketRecord], estimates: Sequence[float]
) -> FlowMetrics:
    """Combine ground truth and adversary estimates into metrics.

    ``records`` and ``estimates`` must be aligned (same packets, same
    order -- arrival order, matching how the adversary consumed the
    observations) and non-empty, from a single flow.  ``records`` is
    read as columns: pass a :class:`DeliveryRecords` (what a run's
    ``records`` already is) to skip the conversion.
    """
    records = DeliveryRecords.of(records)
    n_packets = len(records)
    if not n_packets:
        raise ValueError("cannot summarize an empty flow")
    if n_packets != len(estimates):
        raise ValueError(f"{n_packets} records but {len(estimates)} estimates")
    flow_ids = np.unique(records.flow_id)
    if flow_ids.size != 1:
        raise ValueError(f"records span multiple flows: {flow_ids.tolist()}")
    truths = records.created_at
    mse = mse_of_estimator(truths, estimates)
    errors = np.asarray(estimates, dtype=float) - truths
    latency = LatencyStats.from_samples(records.latency)
    preempted = int(np.count_nonzero(records.preemptions > 0))
    return FlowMetrics(
        flow_id=int(flow_ids[0]),
        n_packets=n_packets,
        mse=mse,
        mean_error=float(errors.mean()),
        latency=latency,
        preemption_fraction=preempted / n_packets,
    )
