"""Clock-agnostic temporal-privacy state machine.

:class:`TemporalPrivacyCore` is the single implementation of the
paper's mechanism (Section 5): a node delays every packet by a random
amount, and when its buffer is full it applies its discipline.  The
discipline is data, the same three values a
:class:`~repro.sim.config.BufferSpec` carries:

* ``"infinite"`` -- never full; realizes the M/M/infinity idealization
  of Section 4 (evaluation case 2, "unlimited buffers");
* ``"drop-tail"`` -- ``capacity`` slots, arrivals to a full buffer are
  dropped; realizes M/M/k/k with loss (the non-RCAD alternative the
  paper mentions: "either the packet is dropped or ... a preemption
  strategy");
* ``"rcad"`` -- ``capacity`` slots; an arrival to a full buffer
  preempts a victim chosen by ``victim_policy`` (default: shortest
  remaining delay), which is emitted immediately, and the new packet
  takes its slot (evaluation case 3).  Deterministic policies break
  ties on the lowest ``entry_id`` (see :mod:`repro.core.victim`), which
  keeps preemption order replay-stable across a snapshot/restore cycle.

The core has no notion of *how* time advances: callers pass ``now``.
It samples the artificial delay, decides admission, and owns the
node's statistics (admitted / dropped / preempted counters, peak
occupancy and the occupancy-time integral).  Scheduling stays with the
caller:

* the event engine (:class:`~repro.sim.simulator.SensorNetworkSimulator`)
  calls :meth:`TemporalPrivacyCore.offer` at packet arrival events and
  :meth:`TemporalPrivacyCore.release` from the release events it
  schedules;
* the streaming service (:mod:`repro.service`) polls
  :meth:`TemporalPrivacyCore.poll_due` from an asyncio pump against the
  wall clock, and uses :meth:`TemporalPrivacyCore.restore` to reload
  buffered entries from a crash snapshot.

The fault-free fast path (:mod:`repro.sim.fastpath`) replays the same
rules in a per-node batch loop; a differential test pins it to this
class.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, NamedTuple

import numpy as np

from repro.core.delays import DelayDistribution
from repro.core.victim import ShortestRemainingDelay, VictimPolicy

__all__ = [
    "KINDS",
    "Admission",
    "AdmissionOutcome",
    "BufferedEntry",
    "TemporalPrivacyCore",
    "check_times",
]

#: The buffer disciplines, as named by ``BufferSpec.kind``.
KINDS = ("infinite", "drop-tail", "rcad")

_INF = float("inf")


def _validated_capacity(
    capacity: Any, name: str = "capacity", minimum: int = 1
) -> int:
    """Capacity as an exact integer; mirrors the erlang.py convention.

    ``operator.index`` admits any integral type (python ints, numpy
    integers) while rejecting floats -- a capacity of 2.9 used to
    silently truncate to 2 slots -- and bools, which are technically
    ints but always a caller bug here.  The specs that build cores
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


def check_times(arrival_time: float, release_time: float) -> None:
    """Reject a non-finite time or a release before its arrival.

    A NaN or infinite release time would be admitted and never become
    due, so the entry (and any drain waiting on it) would hang forever.
    """
    if not -_INF < arrival_time <= release_time < _INF:
        raise ValueError(
            "need finite times with arrival <= release, got arrival "
            f"{arrival_time!r}, release {release_time!r}"
        )


class AdmissionOutcome(Enum):
    """What happened to an event offered to the core.

    The values double as the event engine's telemetry event names.
    """

    #: no delay distribution configured: pass straight through.
    FORWARD = "forward"
    #: buffered; released when its delay expires.
    ADMIT = "admit"
    #: buffered, but a victim was evicted and must be emitted *now*.
    PREEMPT = "preempt"
    #: refused by a full drop-tail buffer.
    DROP = "drop"


@dataclass
class BufferedEntry:
    """A packet sitting in a buffer, waiting for its release time.

    ``payload`` is opaque to the core (the simulator stores the
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


class Admission(NamedTuple):
    """Result of :meth:`TemporalPrivacyCore.offer`.

    Attributes
    ----------
    outcome:
        What happened to the arriving event.
    delay:
        The sampled artificial delay (0.0 for ``FORWARD``; still the
        sampled value for ``DROP`` -- the draw happens before admission
        so RNG consumption does not depend on buffer state).
    entry:
        The buffered entry for the arriving event (``ADMIT`` /
        ``PREEMPT``), or None.
    victim:
        The evicted entry that must be emitted immediately
        (``PREEMPT`` only), or None.
    """

    outcome: AdmissionOutcome
    delay: float
    entry: BufferedEntry | None
    victim: BufferedEntry | None


class TemporalPrivacyCore:
    """One node's (or shard's) temporal-privacy state machine.

    Parameters
    ----------
    kind:
        Buffer discipline, one of :data:`KINDS`.
    capacity:
        Buffer slots for ``"drop-tail"`` and ``"rcad"`` (the paper uses
        k = 10 to approximate Mica-2 motes); None for ``"infinite"``.
    victim_policy:
        RCAD only: how to choose the packet to emit early; defaults to
        the paper's shortest-remaining-delay rule.
    delay:
        Distribution of the artificial delay Y; ``None`` means no
        delaying at all (every offer returns ``FORWARD``).
    delay_rng:
        Stream consumed by delay sampling.  Required when ``delay``
        is given.
    victim_rng:
        Stream handed to the victim policy.  Defaults to ``delay_rng``;
        a stochastic policy without any stream is rejected, so victim
        choice is always reproducible.

    Examples
    --------
    >>> from repro.core.delays import ConstantDelay
    >>> import numpy as np
    >>> core = TemporalPrivacyCore(
    ...     "rcad", capacity=1, delay=ConstantDelay(5.0),
    ...     delay_rng=np.random.default_rng(0))
    >>> core.offer("a", now=0.0).outcome
    <AdmissionOutcome.ADMIT: 'admit'>
    >>> second = core.offer("b", now=1.0)
    >>> second.outcome, second.victim.payload
    (<AdmissionOutcome.PREEMPT: 'preempt'>, 'a')
    >>> [e.payload for e in core.poll_due(6.0)]
    ['b']
    >>> core.admitted, core.preemptions, core.occupancy_time_integral
    (2, 1, 6.0)
    """

    def __init__(
        self,
        kind: str,
        capacity: int | None = None,
        victim_policy: VictimPolicy | None = None,
        delay: DelayDistribution | None = None,
        delay_rng: np.random.Generator | None = None,
        victim_rng: np.random.Generator | None = None,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown buffer kind {kind!r}")
        if kind == "infinite":
            if capacity is not None:
                raise ValueError("infinite buffers take no capacity")
        else:
            capacity = _validated_capacity(capacity)
        if kind == "rcad":
            victim_policy = victim_policy or ShortestRemainingDelay()
        elif victim_policy is not None:
            raise ValueError("victim policies only apply to RCAD buffers")
        if delay is not None and delay_rng is None:
            raise ValueError("a delay distribution needs a delay_rng stream")
        if victim_rng is None:
            victim_rng = delay_rng
        if victim_policy is not None and victim_policy.stochastic and victim_rng is None:
            raise ValueError(
                f"victim policy {victim_policy.name!r} is random and needs a "
                "victim_rng (or delay_rng) stream"
            )
        self.kind = kind
        self.capacity = capacity
        self.victim_policy = victim_policy
        self.delay = delay
        self._delay_rng = delay_rng
        self._victim_rng = victim_rng
        self._entries: dict[int, BufferedEntry] = {}
        self._next_id = 0
        self._last_change = 0.0
        self.admitted = 0
        self.dropped = 0
        self.preemptions = 0
        self.peak_occupancy = 0
        #: Integral of occupancy over time, up to the last state change
        #: (or :meth:`settle`).
        self.occupancy_time_integral = 0.0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._entries) >= self.capacity

    def entries(self) -> list[BufferedEntry]:
        """Buffered entries in insertion order."""
        return list(self._entries.values())

    def next_release_time(self) -> float | None:
        """Earliest scheduled release, or None when empty."""
        if not self._entries:
            return None
        return min(entry.release_time for entry in self._entries.values())

    def settle(self, now: float) -> None:
        """Accumulate the occupancy-time integral up to ``now``."""
        occupancy = len(self._entries)
        if occupancy and now > self._last_change:
            self.occupancy_time_integral += occupancy * (now - self._last_change)
        self._last_change = now

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def offer(self, payload: Any, now: float, delay: float | None = None) -> Admission:
        """Offer one arriving event to the privacy mechanism at ``now``.

        ``delay`` overrides the sampled delay (the engine and the
        service do not use this; tests and replay tooling do).
        """
        if delay is None:
            if self.delay is None:
                return Admission(AdmissionOutcome.FORWARD, 0.0, None, None)
            delay = self.delay.sample(self._delay_rng)
        release_time = now + delay
        check_times(now, release_time)
        self.settle(now)
        entries = self._entries
        victim = None
        if self.capacity is not None and len(entries) >= self.capacity:
            if self.kind == "drop-tail":
                self.dropped += 1
                return Admission(AdmissionOutcome.DROP, delay, None, None)
            victim = self.victim_policy.select(
                list(entries.values()), now, self._victim_rng
            )
            del entries[victim.entry_id]
            self.preemptions += 1
        entry = self._store(payload, now, release_time)
        self.admitted += 1
        if victim is not None:
            return Admission(AdmissionOutcome.PREEMPT, delay, entry, victim)
        return Admission(AdmissionOutcome.ADMIT, delay, entry, None)

    def release(self, entry_id: int, now: float) -> BufferedEntry:
        """Remove and return one entry (an event-driven caller does this
        from the release event it scheduled at ``entry.release_time``)."""
        self.settle(now)
        try:
            return self._entries.pop(entry_id)
        except KeyError:
            raise KeyError(f"no buffered entry with id {entry_id}")

    def poll_due(self, now: float) -> list[BufferedEntry]:
        """Remove and return every entry due at or before ``now``.

        Entries come back ordered by ``(release_time, entry_id)``, so a
        polling driver emits releases in exactly the order a
        fine-grained event-driven driver would have.
        """
        entries = self._entries
        if not entries:
            return []
        due = [e for e in entries.values() if e.release_time <= now]
        if not due:
            return []
        due.sort(key=lambda e: (e.release_time, e.entry_id))
        self.settle(now)
        for entry in due:
            del entries[entry.entry_id]
        return due

    def restore(
        self, items: Iterable[tuple[Any, float, float]]
    ) -> list[BufferedEntry]:
        """Reload snapshot entries ``(payload, arrival_time, release_time)``.

        Bypasses admission (the entries were already admitted -- and
        counted -- before the snapshot was taken): no preemption can
        occur and admission counters stay untouched.  Raises
        ``ValueError`` instead of preempting or dropping when the
        buffer has no free slot, because a restore into a same-capacity
        buffer can never legitimately overflow.  Items are stored in
        iteration order, which assigns ascending ``entry_id``\\ s --
        callers must iterate in the original admission order so
        preemption tie-breaking replays identically after a restore.
        """
        restored = []
        for payload, arrival_time, release_time in items:
            check_times(arrival_time, release_time)
            if self.is_full:
                raise ValueError(
                    f"cannot restore into a full buffer (capacity {self.capacity})"
                )
            restored.append(self._store(payload, arrival_time, release_time))
        return restored

    def _store(self, payload: Any, arrival_time: float, release_time: float) -> BufferedEntry:
        entry = BufferedEntry(self._next_id, payload, arrival_time, release_time)
        self._next_id += 1
        self._entries[entry.entry_id] = entry
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemporalPrivacyCore({self.kind!r}, capacity={self.capacity}, "
            f"occupancy={self.occupancy}, delay={self.delay!r})"
        )
