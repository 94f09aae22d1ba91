"""Packets: cleartext routing headers plus sealed payloads.

The split between header and payload is the crux of the threat model
(paper, Section 2):

* the **routing header** travels in the clear, mirroring the TinyOS
  1.1.7 MultiHop header (``MultiHop.h``): previous-hop id, origin id,
  routing-layer sequence number and hop count.  The adversary reads all
  of it;
* the **payload** (sensor reading, application sequence number, and the
  creation timestamp) is encrypted and authenticated by
  :mod:`repro.crypto`; the adversary cannot open it.

:class:`PacketObservation` is the *only* view handed to adversary
implementations -- constructing it strips everything but the cleartext
header and the observed arrival time, enforcing the threat model by
construction rather than by convention.  :class:`SinkTap` is the same
view for a whole run, stored as one numpy column per header field.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from repro.crypto.payload import SealedPayload

__all__ = ["RoutingHeader", "Packet", "PacketObservation", "ColumnRows", "SinkTap"]


@dataclass(frozen=True)
class RoutingHeader:
    """Cleartext multihop routing header (TinyOS MultiHop style).

    Attributes
    ----------
    previous_hop:
        Id of the node that last transmitted the packet.
    origin:
        Id of the node that generated the packet (used by the routing
        layer to tell generated from forwarded traffic).
    routing_seq:
        Routing-layer sequence number used for loop suppression.  It is
        not flow-specific, so -- as the paper notes -- it does not help
        the adversary estimate creation times.
    hop_count:
        Number of hops the packet has traversed so far.  The adversary
        reads the final value at the sink to learn the flow's path
        length h_i.
    """

    previous_hop: int
    origin: int
    routing_seq: int
    hop_count: int

    def forwarded(self, by_node: int) -> "RoutingHeader":
        """Header after one more hop, transmitted by ``by_node``."""
        return replace(self, previous_hop=by_node, hop_count=self.hop_count + 1)


@dataclass
class Packet:
    """A sensor packet in flight.

    ``created_at`` duplicates the (encrypted) payload timestamp for the
    simulator's own bookkeeping; the sink cross-checks it against the
    decrypted payload, and adversaries never see it (they receive
    :class:`PacketObservation` instead).
    """

    header: RoutingHeader
    payload: SealedPayload
    flow_id: int
    created_at: float
    packet_id: int

    def observe(self, arrival_time: float) -> "PacketObservation":
        """The eavesdropper's view of this packet arriving at the sink."""
        return PacketObservation(
            arrival_time=arrival_time,
            previous_hop=self.header.previous_hop,
            origin=self.header.origin,
            routing_seq=self.header.routing_seq,
            hop_count=self.header.hop_count,
        )


@dataclass(frozen=True)
class PacketObservation:
    """What the adversary sees: arrival time and cleartext header only.

    There is deliberately no reference back to the :class:`Packet`, no
    payload, and no creation time.  The adversary identifies the flow
    by the cleartext origin id and reads the path length from the hop
    count, exactly the two pieces of network knowledge the paper grants
    (Section 2.1).
    """

    arrival_time: float
    previous_hop: int
    origin: int
    routing_seq: int
    hop_count: int


class ColumnRows(Sequence):
    """A read-only sequence of frozen row objects stored as numpy columns.

    Subclasses name one column per field of :attr:`row_type`, in the
    row's positional order, with the column's dtype.  The columns are
    the only stored copy and are frozen on construction; the row
    objects are built on first element access, cached, and never
    pickled (a pickled view carries its columns only).  An integer
    index yields one row; any other index (slice, boolean mask, index
    array) yields a view of the same type over the selected columns.
    """

    row_type: ClassVar[type]
    dtypes: ClassVar[dict[str, type]]
    __slots__ = ("_rows",)

    def __init__(self, **columns: object) -> None:
        unknown = set(columns) - set(self.dtypes)
        if unknown:
            raise TypeError(f"unknown column(s) {sorted(unknown)} for {type(self).__name__}")
        for name, dtype in self.dtypes.items():
            column = columns.get(name, ())
            # Keep a column of the right dtype as the same object, so a
            # column two views share stays one array (also in pickles).
            if not (isinstance(column, np.ndarray) and column.dtype == dtype):
                source = np.asarray(column)
                column = source.astype(dtype)
                if column.dtype.kind == "i" and not np.array_equal(column, source):
                    raise ValueError(
                        f"column {name!r} does not fit {column.dtype.name} exactly"
                    )
            column.setflags(write=False)
            setattr(self, name, column)
        self._rows: list | None = None

    @classmethod
    def of(cls, rows: Sequence) -> "ColumnRows":
        """``rows`` as columns: itself when already columnar, else converted."""
        if isinstance(rows, cls):
            return rows
        fields = dataclasses.fields(cls.row_type)
        return cls(**{
            name: [getattr(row, field.name) for row in rows]
            for name, field in zip(cls.dtypes, fields)
        })

    def columns(self) -> dict[str, np.ndarray]:
        """Column name -> array, in row field order."""
        return {name: getattr(self, name) for name in self.dtypes}

    def _materialize(self) -> list:
        if self._rows is None:
            self._rows = list(
                map(self.row_type, *(column.tolist() for column in self.columns().values()))
            )
        return self._rows

    def __len__(self) -> int:
        return len(getattr(self, next(iter(self.dtypes))))

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self._materialize()[index]
        return type(self)(**{name: column[index] for name, column in self.columns().items()})

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return list(self) == list(other)

    def __reduce__(self):
        return (_rebuild_columns, (type(self), self.columns()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


def _rebuild_columns(cls: type, columns: dict) -> ColumnRows:
    return cls(**columns)


class SinkTap(ColumnRows):
    """Everything the sink-side adversary saw, one column per field.

    The columnar form of a run's :class:`PacketObservation` stream in
    arrival order.  Like the row type it holds the arrival times and
    cleartext headers only, so ground truth cannot reach an adversary
    through it either.
    """

    row_type = PacketObservation
    dtypes = {
        "arrival_time": np.float64,
        "previous_hop": np.int32,
        "origin": np.int32,
        "routing_seq": np.int32,
        "hop_count": np.int32,
    }
    __slots__ = tuple(dtypes)
