"""Differential fuzz: the privacy core vs the fast path's per-node loops.

The event engine and the service drive :class:`TemporalPrivacyCore`;
the fault-free fast path replays the same admission, drop and
preemption rules in its own batch loops
(``fastpath._bounded_node`` / ``_infinite_node``).  The golden digests
only pin a fixed set of configurations, so this test feeds one random
single-node arrival stream to both implementations and requires every
per-node observable to match.  Times live on an integer grid so that
same-instant arrivals and release/arrival ties occur routinely.

The core has no tie policy of its own: its caller decides what happens
first at one instant.  ``_core_replay`` follows each fast-path kernel's
order -- the bounded loop releases every entry due at or before an
arrival before admitting it, while the vectorized infinite kernel
orders same-instant arrivals before releases.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.privacy_core import AdmissionOutcome, TemporalPrivacyCore
from repro.sim.fastpath import _bounded_node, _infinite_node

streams = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 12)), min_size=1, max_size=60
)


def _core_replay(kind, capacity, times, delays):
    core = TemporalPrivacyCore(kind, capacity=capacity)
    departures = []  # (time, packet) in emission order
    drops = []
    preemptions = [0] * len(times)
    release_ties_first = kind != "infinite"

    def release_before(t):
        while (due := core.next_release_time()) is not None and (
            due < t or (due == t and release_ties_first)
        ):
            departures.extend((e.release_time, e.payload) for e in core.poll_due(due))

    for packet, (t, delay) in enumerate(zip(times, delays)):
        release_before(t)
        result = core.offer(packet, t, delay=delay)
        if result.outcome is AdmissionOutcome.DROP:
            drops.append((t, packet))
        elif result.victim is not None:
            departures.append((t, result.victim.payload))
            preemptions[result.victim.payload] += 1
    release_before(math.inf)
    return core, departures, drops, preemptions


@settings(max_examples=300, deadline=None)
@given(
    streams,
    st.sampled_from(["drop-tail", "rcad", "infinite"]),
    st.integers(1, 12),
)
def test_core_matches_fastpath_node(stream, kind, capacity):
    gaps, delays = zip(*stream)
    times = np.cumsum(gaps).astype(np.float64)
    delays = np.asarray(delays, dtype=np.float64)
    packets = np.arange(len(times), dtype=np.int64)
    if kind == "infinite":
        capacity = None
        stats, dep_t, dep_p, _ = _infinite_node(0, times, packets, delays, False)
        fast_drops = []
        fast_preemptions = [0] * len(times)
    else:
        preemption_counts = np.zeros(len(times), dtype=np.int64)
        stats, dep_t, dep_p, _, node_drops, _, _ = _bounded_node(
            0, times, packets, delays, capacity, kind == "rcad",
            preemption_counts, False,
        )
        fast_drops = [(t, p) for t, p, _ in node_drops]
        fast_preemptions = preemption_counts.tolist()

    core, departures, drops, preemptions = _core_replay(
        kind, capacity, times.tolist(), delays.tolist()
    )
    assert departures == list(zip(dep_t.tolist(), dep_p.tolist()))
    assert drops == fast_drops
    assert preemptions == fast_preemptions
    assert (
        core.admitted, core.dropped, core.preemptions, core.peak_occupancy
    ) == (stats.admitted, stats.dropped, stats.preemptions, stats.peak_occupancy)
    assert core.occupancy_time_integral == stats.occupancy_time_integral
    assert core.occupancy == 0
