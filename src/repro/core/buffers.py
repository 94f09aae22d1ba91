"""Buffer disciplines: infinite, drop-tail, and RCAD's preemptive buffer.

A node's buffer holds packets that are waiting out their artificial
delay.  Three disciplines, matching the paper's three evaluation cases:

* :class:`InfiniteBuffer` -- never full; realizes the M/M/infinity
  idealization of Section 4 (evaluation case 2, "unlimited buffers");
* :class:`DropTailBuffer` -- k slots, arrivals to a full buffer are
  dropped; realizes M/M/k/k with loss (the non-RCAD alternative the
  paper mentions: "either the packet is dropped or ... a preemption
  strategy");
* :class:`RcadBuffer` -- k slots; an arrival to a full buffer preempts
  a victim (default: shortest remaining delay), which is transmitted
  immediately, and the new packet takes its slot (evaluation case 3).
  Victim selection is fully deterministic: when several entries tie on
  the policy's criterion the lowest ``entry_id`` wins (see
  :mod:`repro.core.victim`), which is what makes preemption order
  replay-stable across a snapshot/restore cycle.

The buffers are pure decision structures: they track occupancy and
decide admissions, but event scheduling stays in the simulator, which
keeps this module independently unit-testable.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

import numpy as np

from repro.core.victim import ShortestRemainingDelay, VictimPolicy

__all__ = [
    "AdmissionOutcome",
    "BufferedEntry",
    "AdmissionResult",
    "PacketBuffer",
    "InfiniteBuffer",
    "DropTailBuffer",
    "RcadBuffer",
]


def _validated_capacity(
    capacity: Any, name: str = "capacity", minimum: int = 1
) -> int:
    """Capacity as an exact integer; mirrors the erlang.py convention.

    ``operator.index`` admits any integral type (python ints, numpy
    integers) while rejecting floats -- ``DropTailBuffer(2.9)`` used to
    silently truncate to 2 slots -- and bools, which are technically
    ints but always a caller bug here.  The specs that build buffers
    (``BufferSpec``, ``CapacitySpec``) apply the same rule, naming the
    offending field in ``name``.
    """
    if isinstance(capacity, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        value = operator.index(capacity)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {type(capacity).__name__} "
            f"({capacity!r})"
        )
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


class AdmissionOutcome(Enum):
    """What happened when a packet arrived at the buffer."""

    ADMITTED = "admitted"
    DROPPED = "dropped"
    PREEMPTED_VICTIM = "preempted-victim"


@dataclass
class BufferedEntry:
    """A packet sitting in a buffer, waiting for its release time.

    ``payload`` is opaque to the buffer (the simulator stores the
    in-flight :class:`~repro.net.packet.Packet`); tests may store
    anything.  ``context`` carries the scheduler handle the simulator
    needs to cancel the pending release when the entry is preempted.
    """

    entry_id: int
    payload: Any
    arrival_time: float
    release_time: float
    context: Any = None

    def remaining_delay(self, now: float) -> float:
        """Time left until the scheduled release (>= 0)."""
        return max(self.release_time - now, 0.0)


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of offering a packet to a buffer.

    Attributes
    ----------
    outcome:
        What happened to the *arriving* packet
        (``PREEMPTED_VICTIM`` means it was admitted by evicting one).
    entry:
        The buffered entry created for the arriving packet, or None if
        it was dropped.
    victim:
        The evicted entry that must now be transmitted immediately, or
        None.
    """

    outcome: AdmissionOutcome
    entry: BufferedEntry | None
    victim: BufferedEntry | None


#: Buffer outcome -> telemetry probe event name.  A preemption's probe
#: fires once, after the victim is out and the newcomer is in, so the
#: reported occupancy is the (unchanged) post-swap value.
_PROBE_EVENTS = {
    AdmissionOutcome.ADMITTED: "admit",
    AdmissionOutcome.DROPPED: "drop",
    AdmissionOutcome.PREEMPTED_VICTIM: "preempt",
}


class PacketBuffer(abc.ABC):
    """Interface shared by all buffer disciplines."""

    def __init__(self) -> None:
        self._entries: dict[int, BufferedEntry] = {}
        self._next_id = 0
        self.admitted_count = 0
        self.dropped_count = 0
        self.preemption_count = 0
        self.peak_occupancy = 0
        #: Optional telemetry hook ``(event, occupancy) -> None`` called
        #: after every state change with the post-event occupancy, where
        #: ``event`` is ``"admit" | "drop" | "preempt" | "release"``.
        #: None (the default) keeps the hot path at one identity check.
        self.telemetry_probe = None

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of packets currently buffered."""
        return len(self._entries)

    def entries(self) -> list[BufferedEntry]:
        """Snapshot of the buffered entries (insertion order)."""
        return list(self._entries.values())

    @property
    @abc.abstractmethod
    def capacity(self) -> int | None:
        """Buffer slots, or None for an unbounded buffer."""

    @property
    def is_full(self) -> bool:
        """True if no free slot remains."""
        return self.capacity is not None and self.occupancy >= self.capacity

    # ------------------------------------------------------------------
    def offer(
        self,
        payload: Any,
        arrival_time: float,
        release_time: float,
        rng: np.random.Generator | None = None,
    ) -> AdmissionResult:
        """Offer an arriving packet to the buffer.

        Parameters
        ----------
        payload:
            Opaque packet object.
        arrival_time:
            Current simulation time.
        release_time:
            When the packet's artificial delay would expire
            (``arrival_time + sampled delay``).
        rng:
            Random stream, needed only by stochastic victim policies.
        """
        if release_time < arrival_time:
            raise ValueError(
                f"release time {release_time:g} precedes arrival {arrival_time:g}"
            )
        result = self._admit(payload, arrival_time, release_time, rng)
        if result.outcome is AdmissionOutcome.DROPPED:
            self.dropped_count += 1
        else:
            self.admitted_count += 1
            if result.outcome is AdmissionOutcome.PREEMPTED_VICTIM:
                self.preemption_count += 1
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        if self.telemetry_probe is not None:
            self.telemetry_probe(_PROBE_EVENTS[result.outcome], self.occupancy)
        return result

    def release(self, entry_id: int) -> BufferedEntry:
        """Remove and return the entry whose delay expired (or victim)."""
        try:
            entry = self._entries.pop(entry_id)
        except KeyError:
            raise KeyError(f"no buffered entry with id {entry_id}")
        if self.telemetry_probe is not None:
            self.telemetry_probe("release", self.occupancy)
        return entry

    def shortest_remaining_release_time(self) -> float | None:
        """Earliest scheduled release among buffered packets, if any."""
        if not self._entries:
            return None
        return min(entry.release_time for entry in self._entries.values())

    def restore_entry(
        self, payload: Any, arrival_time: float, release_time: float
    ) -> BufferedEntry:
        """Reinsert an already-admitted entry (snapshot/restore seam).

        Bypasses the admission decision and its counters: the entry was
        admitted -- and counted -- by the process that wrote the
        snapshot.  Raises ``ValueError`` instead of preempting or
        dropping when the buffer has no free slot, because a restore
        into a same-capacity buffer can never legitimately overflow.
        Entries restored in their original admission order receive
        ascending ``entry_id``\\ s, which keeps victim-policy
        tie-breaking replay-stable across the restore.
        """
        if release_time < arrival_time:
            raise ValueError(
                f"release time {release_time:g} precedes arrival {arrival_time:g}"
            )
        if self.is_full:
            raise ValueError(
                f"cannot restore into a full buffer (capacity {self.capacity})"
            )
        entry = self._store(payload, arrival_time, release_time)
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        return entry

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _admit(
        self,
        payload: Any,
        arrival_time: float,
        release_time: float,
        rng: np.random.Generator | None,
    ) -> AdmissionResult:
        """Discipline-specific admission decision."""

    def _store(self, payload: Any, arrival_time: float, release_time: float) -> BufferedEntry:
        entry = BufferedEntry(
            entry_id=self._next_id,
            payload=payload,
            arrival_time=arrival_time,
            release_time=release_time,
        )
        self._next_id += 1
        self._entries[entry.entry_id] = entry
        return entry


class InfiniteBuffer(PacketBuffer):
    """Unbounded buffer: every packet gets its full sampled delay.

    Evaluation case 2 ("Delay & Unlimited Buffers"); analytically an
    M/M/infinity queue when arrivals are Poisson and delays exponential.
    """

    @property
    def capacity(self) -> None:
        return None

    def _admit(self, payload, arrival_time, release_time, rng):
        entry = self._store(payload, arrival_time, release_time)
        return AdmissionResult(AdmissionOutcome.ADMITTED, entry, victim=None)


class DropTailBuffer(PacketBuffer):
    """Bounded buffer that drops arrivals when full (M/M/k/k loss)."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self._capacity = _validated_capacity(capacity)

    @property
    def capacity(self) -> int:
        return self._capacity

    def _admit(self, payload, arrival_time, release_time, rng):
        if self.is_full:
            return AdmissionResult(AdmissionOutcome.DROPPED, entry=None, victim=None)
        entry = self._store(payload, arrival_time, release_time)
        return AdmissionResult(AdmissionOutcome.ADMITTED, entry, victim=None)


class RcadBuffer(PacketBuffer):
    """RCAD: Rate-Controlled Adaptive Delaying via buffer preemption.

    "If the buffer is full, a node should select an appropriate
    buffered packet, called the victim packet, and transmit it
    immediately rather than drop packets.  Consequently, preemption
    automatically adjusts the effective mu based on buffer state."
    (Section 5.)

    Parameters
    ----------
    capacity:
        k buffer slots (the paper uses k = 10 to approximate Mica-2
        motes).
    victim_policy:
        How to choose the packet to transmit early; defaults to the
        paper's shortest-remaining-delay rule.

    Examples
    --------
    >>> buf = RcadBuffer(capacity=1)
    >>> first = buf.offer("a", arrival_time=0.0, release_time=10.0)
    >>> second = buf.offer("b", arrival_time=1.0, release_time=12.0)
    >>> second.outcome
    <AdmissionOutcome.PREEMPTED_VICTIM: 'preempted-victim'>
    >>> second.victim.payload
    'a'
    """

    def __init__(
        self, capacity: int, victim_policy: VictimPolicy | None = None
    ) -> None:
        super().__init__()
        self._capacity = _validated_capacity(capacity)
        self.victim_policy = victim_policy or ShortestRemainingDelay()

    @property
    def capacity(self) -> int:
        return self._capacity

    def _admit(self, payload, arrival_time, release_time, rng):
        victim = None
        if self.is_full:
            victim = self.victim_policy.select(
                self.entries(), now=arrival_time, rng=rng or _DEFAULT_RNG
            )
            del self._entries[victim.entry_id]
        entry = self._store(payload, arrival_time, release_time)
        outcome = (
            AdmissionOutcome.PREEMPTED_VICTIM
            if victim is not None
            else AdmissionOutcome.ADMITTED
        )
        return AdmissionResult(outcome, entry, victim=victim)


# Deterministic fall-back stream for victim policies that never use it
# (every deterministic policy); stochastic policies should always be
# given an explicit stream by the caller.
_DEFAULT_RNG = np.random.Generator(np.random.PCG64(0))
