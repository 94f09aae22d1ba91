"""Open-loop load for the streaming service, with array bookkeeping.

The send schedule is built up front from the workload seed, so the
generator never decides *when* to send from how the service is doing:
an event is due at ``start + offset`` whether or not the service kept
up.  Every event is timed from when it was due, and the generator's own
lateness is reported separately.

Per-event bookkeeping lives in preallocated numpy arrays indexed by the
event's ``seq``.  Per-event Python objects (dicts, a list of release
records) put GC pauses into the very percentiles being measured.  GC
itself stays on: it is part of the service.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

#: Synthetic flow ids the generator round-robins over.  Small consecutive
#: ids are not uniform under the service's crc32 shard hash; 16 cover all
#: four shards.
FLOWS = 16

#: Outcome codes stored per event.
NOT_SENT, ADMITTED, ADMITTED_PREEMPT, SHED, REJECTED = range(5)


@dataclass
class PhaseLog:
    """Everything one open-loop phase recorded, one array slot per event."""

    due: np.ndarray
    sent_at: np.ndarray
    outcome: np.ndarray
    admitted_at: np.ndarray
    release_time: np.ndarray
    released_at: np.ndarray
    releases: np.ndarray
    early: np.ndarray
    sent: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0

    @classmethod
    def allocate(cls, n: int) -> "PhaseLog":
        nan = np.full(n, np.nan)
        return cls(
            due=np.empty(n),
            sent_at=nan.copy(),
            outcome=np.zeros(n, dtype=np.int8),
            admitted_at=nan.copy(),
            release_time=nan.copy(),
            released_at=nan.copy(),
            releases=np.zeros(n, dtype=np.int32),
            early=np.zeros(n, dtype=bool),
        )

    def on_release(self, record) -> None:
        """The service's release callback: O(1) array stores, no objects kept."""
        i = record.event.seq
        self.releases[i] += 1
        self.admitted_at[i] = record.admitted_at
        self.release_time[i] = record.release_time
        self.released_at[i] = record.released_at
        self.early[i] = record.early

    # ------------------------------------------------------------------
    def overhead_ms(self, index: slice | np.ndarray = slice(None)) -> np.ndarray:
        """Lateness the service adds beyond its own delay, per released event.

        ``released_at - (due + (release_time - admitted_at))``: counted
        from when the generator meant to send the event, so a stalled
        submit path shows up as overhead too.
        """
        due = self.due[index]
        served = self.releases[index] > 0
        extra = self.released_at[index] - (
            due + (self.release_time[index] - self.admitted_at[index])
        )
        return extra[served] * 1e3

    def lag_ms(self, index: slice | np.ndarray = slice(None)) -> np.ndarray:
        """How late the generator sent each event it sent."""
        sent = self.outcome[index] != NOT_SENT
        return (self.sent_at[index] - self.due[index])[sent] * 1e3

    def failures(self) -> int:
        """Sent events that break the service's contract.

        Counted: events shed or rejected; admitted events not released
        exactly once; and scheduled (non-early) releases that came
        before their release time.  Events a staircase never sent were
        not attempted.
        """
        sent = slice(0, self.sent)
        outcome = self.outcome[sent]
        releases = self.releases[sent]
        admitted = (outcome == ADMITTED) | (outcome == ADMITTED_PREEMPT)
        refused = int(np.count_nonzero(~admitted))
        not_once = int(np.count_nonzero(admitted & (releases != 1)))
        scheduled = admitted & (releases == 1) & ~self.early[sent]
        premature = int(
            np.count_nonzero(
                self.released_at[sent][scheduled] < self.release_time[sent][scheduled]
            )
        )
        return refused + not_once + premature


def poisson_offsets(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Send offsets (seconds from phase start) of a Poisson stream."""
    return np.cumsum(rng.exponential(1.0 / rate, n))


async def drive(service, offsets: np.ndarray, log: PhaseLog, clock=time.time,
                stop_lag_s: float | None = None) -> None:
    """Send events on the precomputed schedule, open loop.

    All events already due are sent back to back; the generator then
    sleeps until the next one is due (or yields once, if it is late), so
    the service's pumps share the loop exactly as they would with
    independent clients.  ``stop_lag_s`` ends the phase early once the
    generator falls that far behind, i.e. the service is saturated.
    """
    from repro.service.server import StreamEvent, SubmitOutcome

    codes = {
        SubmitOutcome.ADMITTED: ADMITTED,
        SubmitOutcome.ADMITTED_PREEMPT: ADMITTED_PREEMPT,
        SubmitOutcome.SHED: SHED,
        SubmitOutcome.REJECTED: REJECTED,
    }
    n = len(offsets)
    submit = service.submit
    due, sent_at, outcome = log.due, log.sent_at, log.outcome
    cpu0 = time.process_time()
    start = clock() + 0.005
    due[:] = start + offsets
    i = 0
    while i < n:
        now = clock()
        if stop_lag_s is not None and now - due[i] > stop_lag_s:
            break
        while i < n and due[i] <= now:
            code = codes[submit(StreamEvent(flow_id=i % FLOWS, seq=i))]
            sent_at[i] = now
            outcome[i] = code
            i += 1
        if i < n:
            wait = due[i] - clock()
            await asyncio.sleep(wait if wait > 0 else 0)
    log.sent = i
    # The phase's wall time is how long the schedule took to send; the
    # drain that follows waits out the service's own random delays.
    log.wall_s = clock() - start
    await service.drain(timeout=30.0)
    log.cpu_s = time.process_time() - cpu0


# ----------------------------------------------------------------------
# Capacity ladder
# ----------------------------------------------------------------------
#: Fixed ladder of offered rates (events/s): 16k upwards in twelfth-octave
#: steps, so one rung is about 6 % above the one below.
LADDER = tuple(16000.0 * 2 ** (k / 12) for k in range(37))
#: Seconds each rung is offered for.
RUNG_S = 0.15
#: A rung passes when the p99 overhead of its events stays within this...
P99_LIMIT_MS = 25.0
#: ...and the generator's median lag over the rung's last quarter stays
#: within this (a backlog that grows within a rung fails it).
LAG_LIMIT_MS = 5.0
#: The staircase stops once the generator is this far behind.
STOP_LAG_S = 0.1


def ladder_schedule(start: int, rungs: int, rng: np.random.Generator):
    """Offsets of a staircase of ``rungs`` rungs from ``start`` up, and each rung's slice."""
    parts, bounds, n = [], [], 0
    for step, k in enumerate(range(start, min(len(LADDER), start + rungs))):
        offsets = poisson_offsets(LADDER[k], int(LADDER[k] * RUNG_S), rng)
        parts.append(step * RUNG_S + offsets)
        bounds.append((k, slice(n, n + len(offsets))))
        n += len(offsets)
    return np.concatenate(parts), bounds


def rung_passes(log: PhaseLog, rung: slice) -> bool:
    """True if every event of the rung was sent, kept the limits, and none was refused."""
    if rung.stop > log.sent:
        return False
    admitted = (log.outcome[rung] == ADMITTED) | (log.outcome[rung] == ADMITTED_PREEMPT)
    if not admitted.all():
        return False
    overhead = log.overhead_ms(rung)
    lag = log.lag_ms(rung)
    tail = lag[-max(1, len(lag) // 4):]
    return (
        float(np.percentile(overhead, 99)) <= P99_LIMIT_MS
        and float(np.median(tail)) <= LAG_LIMIT_MS
    )


def ladder_capacity(start: int, passed: dict[int, bool]) -> float:
    """Capacity from one staircase: the rate where passing rungs end.

    The rate below the first offered rung, plus each passing rung's step
    up.  When the rungs that pass are contiguous from the bottom, which
    is the normal case, this is exactly the highest passing rung; an
    isolated failed (or lucky) rung moves it by one step, not to that
    rung.
    """
    capacity = LADDER[start - 1] if start > 0 else LADDER[0] / 2 ** (1 / 12)
    for k in range(start, len(LADDER)):
        if passed.get(k, False):
            capacity += LADDER[k] - (LADDER[k - 1] if k > 0 else LADDER[0] / 2 ** (1 / 12))
    return capacity
