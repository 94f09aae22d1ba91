"""Unit tests for the buffer disciplines of the privacy core, RCAD included."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.delays import ConstantDelay
from repro.core.privacy_core import AdmissionOutcome, TemporalPrivacyCore
from repro.core.victim import LongestRemainingDelay, RandomVictim


def _offer(core, payload, arrival_time, release_time):
    return core.offer(payload, arrival_time, delay=release_time - arrival_time)


def _infinite():
    return TemporalPrivacyCore("infinite")


def _drop_tail(capacity):
    return TemporalPrivacyCore("drop-tail", capacity=capacity)


def _rcad(capacity, victim_policy=None, victim_rng=None):
    return TemporalPrivacyCore(
        "rcad", capacity=capacity, victim_policy=victim_policy, victim_rng=victim_rng
    )


class TestInfiniteBuffer:
    def test_admits_everything(self):
        core = _infinite()
        for i in range(100):
            result = _offer(core, f"p{i}", float(i), 1e6)
            assert result.outcome is AdmissionOutcome.ADMIT
        assert core.occupancy == 100
        assert core.dropped == 0
        assert not core.is_full

    def test_capacity_is_none(self):
        assert _infinite().capacity is None
        with pytest.raises(ValueError):
            TemporalPrivacyCore("infinite", capacity=4)

    def test_release_removes_entry(self):
        core = _infinite()
        entry = _offer(core, "a", 0.0, 5.0).entry
        released = core.release(entry.entry_id, 5.0)
        assert released.payload == "a"
        assert core.occupancy == 0

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            _infinite().release(42, 0.0)

    def test_peak_occupancy_tracked(self):
        core = _infinite()
        entries = [_offer(core, i, 0.0, 10.0).entry for i in range(5)]
        for entry in entries:
            core.release(entry.entry_id, 10.0)
        assert core.peak_occupancy == 5
        assert core.occupancy == 0
        assert core.occupancy_time_integral == 50.0

    def test_shortest_remaining_release_time(self):
        core = _infinite()
        _offer(core, "a", 0.0, 9.0)
        _offer(core, "b", 0.0, 4.0)
        assert core.next_release_time() == 4.0
        assert _infinite().next_release_time() is None

    def test_release_before_arrival_rejected(self):
        with pytest.raises(ValueError):
            _offer(_infinite(), "a", 5.0, 4.0)


class TestNonFiniteTimes:
    """A NaN or infinite time would be admitted and never released."""

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_offer_rejects_non_finite_delay(self, delay):
        core = _rcad(4)
        with pytest.raises(ValueError, match="finite"):
            core.offer("a", now=0.0, delay=delay)
        assert core.occupancy == 0 and core.admitted == 0

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_offer_rejects_non_finite_arrival(self, now):
        with pytest.raises(ValueError, match="finite"):
            _infinite().offer("a", now=now, delay=1.0)

    def test_offer_rejects_non_finite_sampled_delay(self):
        core = TemporalPrivacyCore(
            "infinite", delay=ConstantDelay(math.inf),
            delay_rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="finite"):
            core.offer("a", now=0.0)

    @pytest.mark.parametrize(
        "arrival, release", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)]
    )
    def test_restore_rejects_non_finite(self, arrival, release):
        core = _rcad(4)
        with pytest.raises(ValueError, match="finite"):
            core.restore([("a", arrival, release)])
        assert core.occupancy == 0


class TestDropTailBuffer:
    def test_drops_when_full(self):
        core = _drop_tail(2)
        assert _offer(core, "a", 0.0, 10.0).outcome is AdmissionOutcome.ADMIT
        assert _offer(core, "b", 0.0, 10.0).outcome is AdmissionOutcome.ADMIT
        result = _offer(core, "c", 0.0, 10.0)
        assert result.outcome is AdmissionOutcome.DROP
        assert result.entry is None and result.victim is None
        assert core.occupancy == 2
        assert core.dropped == 1

    def test_slot_freed_by_release(self):
        core = _drop_tail(1)
        entry = _offer(core, "a", 0.0, 5.0).entry
        core.release(entry.entry_id, 5.0)
        assert _offer(core, "b", 6.0, 9.0).outcome is AdmissionOutcome.ADMIT

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            _drop_tail(0)
        with pytest.raises(TypeError):
            _drop_tail(2.9)
        with pytest.raises(ValueError):
            TemporalPrivacyCore("drop-tail", capacity=2, victim_policy=RandomVictim())

    def test_counters(self):
        core = _drop_tail(1)
        _offer(core, "a", 0.0, 10.0)
        _offer(core, "b", 0.0, 10.0)
        assert core.admitted == 1
        assert core.dropped == 1
        assert core.preemptions == 0


class TestRcadBuffer:
    def test_preempts_shortest_remaining_by_default(self):
        core = _rcad(3)
        _offer(core, "slow", 0.0, 50.0)
        _offer(core, "fast", 0.0, 5.0)
        _offer(core, "mid", 0.0, 25.0)
        result = _offer(core, "new", 1.0, 40.0)
        assert result.outcome is AdmissionOutcome.PREEMPT
        assert result.victim.payload == "fast"
        assert core.occupancy == 3  # victim out, new packet in
        assert core.preemptions == 1
        assert core.dropped == 0

    def test_never_drops(self):
        core = _rcad(1)
        for i in range(50):
            outcome = _offer(core, i, float(i), float(i) + 30.0).outcome
            assert outcome is not AdmissionOutcome.DROP
        assert core.dropped == 0
        assert core.preemptions == 49

    def test_victim_removed_from_entries(self):
        core = _rcad(1)
        first = _offer(core, "a", 0.0, 30.0)
        second = _offer(core, "b", 1.0, 31.0)
        assert second.victim.entry_id == first.entry.entry_id
        remaining = core.entries()
        assert len(remaining) == 1 and remaining[0].payload == "b"
        with pytest.raises(KeyError):
            core.release(first.entry.entry_id, 30.0)

    def test_no_preemption_below_capacity(self):
        core = _rcad(3)
        assert _offer(core, "a", 0.0, 10.0).victim is None
        assert _offer(core, "b", 0.0, 10.0).victim is None
        assert core.preemptions == 0

    def test_custom_victim_policy(self):
        core = _rcad(2, LongestRemainingDelay())
        _offer(core, "short", 0.0, 5.0)
        _offer(core, "long", 0.0, 50.0)
        result = _offer(core, "new", 1.0, 20.0)
        assert result.victim.payload == "long"

    def test_random_victim_uses_supplied_rng(self):
        rng = np.random.Generator(np.random.PCG64(3))
        core = _rcad(2, RandomVictim(), victim_rng=rng)
        _offer(core, "a", 0.0, 10.0)
        _offer(core, "b", 0.0, 20.0)
        result = _offer(core, "c", 1.0, 30.0)
        assert result.victim.payload in ("a", "b")

    def test_random_victim_reproducible_per_seed(self):
        def victims(seed):
            core = _rcad(2, RandomVictim(), victim_rng=np.random.default_rng(seed))
            picked = []
            for i in range(40):
                result = _offer(core, i, float(i), float(i) + 100.0)
                if result.victim is not None:
                    picked.append(result.victim.payload)
            return picked

        assert victims(7) == victims(7)
        assert len(victims(7)) == 38

    def test_random_victim_without_stream_rejected(self):
        with pytest.raises(ValueError, match="victim_rng"):
            _rcad(2, RandomVictim())

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            _rcad(0)
        with pytest.raises(TypeError):
            TemporalPrivacyCore("rcad")
        with pytest.raises(ValueError):
            TemporalPrivacyCore("lifo", capacity=2)

    def test_effective_delay_shortened(self):
        """Preempted packets leave before their scheduled release: the
        mechanism by which RCAD adapts the effective mu."""
        core = _rcad(1)
        _offer(core, "victim-to-be", 0.0, 30.0)
        result = _offer(core, "new", 2.0, 32.0)
        victim = result.victim
        assert victim.release_time == 30.0
        assert victim.remaining_delay(now=2.0) == 28.0  # delay cut short by 28


class TestBufferInvariants:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=0.0, max_value=60.0),
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_rcad_occupancy_never_exceeds_capacity(self, offers, capacity):
        core = _rcad(capacity)
        now = 0.0
        for gap, delay in offers:
            now += gap
            result = core.offer("p", now, delay=delay)
            assert result.outcome is not AdmissionOutcome.DROP
            assert core.occupancy <= capacity
        assert core.admitted == len(offers)
        assert core.peak_occupancy <= capacity

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=100
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_droptail_conservation(self, gaps, capacity):
        """admitted + dropped == offered, occupancy <= capacity."""
        core = _drop_tail(capacity)
        now = 0.0
        for gap in gaps:
            now += gap
            core.offer("p", now, delay=30.0)
        assert core.admitted + core.dropped == len(gaps)
        assert core.occupancy <= capacity

    @given(st.integers(min_value=1, max_value=6))
    def test_rcad_preemptions_equal_overflow_offers(self, capacity):
        core = _rcad(capacity)
        total = 4 * capacity
        for i in range(total):
            core.offer(i, float(i), delay=1000.0)
        assert core.preemptions == total - capacity
