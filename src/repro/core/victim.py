"""Victim-selection policies for RCAD preemption.

When an RCAD buffer is full and a new packet arrives, one buffered
packet -- the *victim* -- is transmitted immediately to make room.
The paper chooses "the packet that has the shortest remaining delay
time.  In this way, the resulting delay times for that node are the
closest to the original distribution" (Section 5).  The alternative
policies here exist for the ablation benchmark that substantiates that
design choice.

A policy receives the buffered entries and the current time and returns
the entry to preempt.  Entries expose ``release_time`` (when the packet
would have been sent) and ``arrival_time`` (when it was buffered).

**Determinism contract.**  Every non-random policy breaks ties on its
primary criterion by ``entry_id``: :class:`ShortestRemainingDelay`,
:class:`LongestRemainingDelay` and :class:`OldestArrival` pick the
*lowest* id (earliest admission) among the tied entries, while
:class:`NewestArrival` picks the highest (latest admission, matching
its LIFO semantics).  Entry ids ascend in admission order, so the
choice is independent of dict iteration order, and -- because snapshot
restore re-numbers entries in their original admission order --
preemption decisions replay identically after a service crash/restore
cycle.  The streaming service's zero-loss guarantee relies on this.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.privacy_core import BufferedEntry

__all__ = [
    "VictimPolicy",
    "ShortestRemainingDelay",
    "LongestRemainingDelay",
    "RandomVictim",
    "OldestArrival",
    "NewestArrival",
]


class VictimPolicy(abc.ABC):
    """Strategy interface: choose which buffered packet to preempt."""

    #: short name used in experiment tables
    name: str = "abstract"
    #: True if :meth:`select` draws from ``rng``; deterministic policies
    #: are called with ``rng=None`` when the caller has no stream.
    stochastic: bool = False

    @abc.abstractmethod
    def select(
        self,
        entries: Sequence["BufferedEntry"],
        now: float,
        rng: np.random.Generator | None = None,
    ) -> "BufferedEntry":
        """Return the entry to transmit immediately.

        ``entries`` is non-empty; implementations must not mutate it.
        """

    @staticmethod
    def _require_entries(entries: Sequence["BufferedEntry"]) -> None:
        if not entries:
            raise ValueError("cannot select a victim from an empty buffer")


class ShortestRemainingDelay(VictimPolicy):
    """The paper's policy: preempt the packet closest to release.

    Truncating the delay that is already nearly over perturbs the
    realized delay distribution the least, keeping the adversary's
    model of the delays maximally wrong-footed per unit of disruption.

    When several entries share the shortest remaining release time the
    one with the lowest ``entry_id`` (earliest admission) is chosen;
    see the module determinism contract.
    """

    name = "shortest-remaining"

    def select(self, entries, now, rng=None):
        self._require_entries(entries)
        return min(entries, key=lambda e: (e.release_time, e.entry_id))


class LongestRemainingDelay(VictimPolicy):
    """Anti-policy: preempt the packet furthest from release.

    Maximally distorts the realized delays (long delays become short);
    included to show the cost of choosing the victim badly.
    """

    name = "longest-remaining"

    def select(self, entries, now, rng=None):
        self._require_entries(entries)
        return max(entries, key=lambda e: (e.release_time, -e.entry_id))


class RandomVictim(VictimPolicy):
    """Uniformly random victim: the no-information baseline."""

    name = "random"
    stochastic = True

    def select(self, entries, now, rng=None):
        self._require_entries(entries)
        if rng is None:
            raise ValueError("RandomVictim needs a random stream")
        return entries[int(rng.integers(len(entries)))]


class OldestArrival(VictimPolicy):
    """FIFO-style: preempt the packet buffered the longest."""

    name = "oldest-arrival"

    def select(self, entries, now, rng=None):
        self._require_entries(entries)
        return min(entries, key=lambda e: (e.arrival_time, e.entry_id))


class NewestArrival(VictimPolicy):
    """LIFO-style: preempt the packet buffered most recently."""

    name = "newest-arrival"

    def select(self, entries, now, rng=None):
        self._require_entries(entries)
        return max(entries, key=lambda e: (e.arrival_time, e.entry_id))
