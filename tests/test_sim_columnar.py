"""The columnar delivery log: storage, views, engines and the cache.

A run's delivery log is one numpy column per field.  The adversary tap
(:class:`~repro.net.packet.SinkTap`) and the ground truth
(:class:`~repro.core.metrics.DeliveryRecords`) are read-only views over
those columns; row objects exist only once a caller iterates them, and
never reach a pickle.
"""

from __future__ import annotations

import io
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.metrics import DeliveryRecords, PacketRecord
from repro.net.packet import PacketObservation, SinkTap
from repro.runtime import ResultCache, use_runtime
from repro.runtime.cache import _unframe_payload
from repro.sim.fastpath import fastpath_eligible
from repro.sim.observables import observable_digest, reference_configs
from repro.sim.results import DELIVERY_COLUMNS, SimulationResult
from repro.sim.simulator import SensorNetworkSimulator

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_observables.json").read_text()
)["digests"]
CONFIGS = reference_configs()


def _entry_payload(cache: ResultCache, config) -> bytes:
    payload = _unframe_payload(cache._path_for(cache.key_for(config)).read_bytes())
    assert payload is not None
    return payload


class _ClassRecorder(pickle.Unpickler):
    """Unpickles while noting every class the stream references."""

    def __init__(self, data: bytes) -> None:
        super().__init__(io.BytesIO(data))
        self.classes: set[str] = set()

    def find_class(self, module, name):
        self.classes.add(name)
        return super().find_class(module, name)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cache_round_trip_keeps_the_golden_digest(name, tmp_path):
    config = CONFIGS[name]
    cache = ResultCache(tmp_path)
    cache.put(config, SensorNetworkSimulator(config).run(), elapsed=0.5)
    restored = ResultCache(tmp_path).get(config)
    assert restored is not None
    assert observable_digest(restored) == GOLDEN[name]


def test_pickled_entry_holds_no_row_objects(tmp_path):
    config = CONFIGS["fig2-rcad-ia2"]
    result = SensorNetworkSimulator(config).run()
    # Build (and cache) the row objects of both views before storing.
    assert isinstance(result.observations[0], PacketObservation)
    assert all(isinstance(record, PacketRecord) for record in result.records)
    cache = ResultCache(tmp_path)
    cache.put(config, result, elapsed=0.5)

    recorder = _ClassRecorder(_entry_payload(cache, config))
    elapsed, restored = recorder.load()
    assert {"SinkTap", "DeliveryRecords", "SimulationResult"} <= recorder.classes
    assert not {"PacketObservation", "PacketRecord"} & recorder.classes
    # One hop_count column, shared by the tap and the ground truth.
    assert restored.observations.hop_count is restored.records.hop_count


def test_fig2_rcad_cell_entry_size(tmp_path):
    """The paper-scale rcad cell at 1/lambda=2 (4000 deliveries) fits in
    340 KB: ten columns, no per-packet objects."""
    from repro.experiments.common import run_paper_case

    cache = ResultCache(tmp_path)
    with use_runtime(cache=cache):
        result = run_paper_case(interarrival=2.0, case="rcad", n_packets=1000)
    assert len(result.records) == 4000
    (entry,) = cache.iter_entry_paths()
    assert entry.stat().st_size <= 340_000
    assert cache.stats.bytes_written == entry.stat().st_size


@pytest.mark.parametrize(
    "name", sorted(n for n, config in CONFIGS.items() if fastpath_eligible(config))
)
def test_engines_write_equal_columns(name, monkeypatch):
    fast = SensorNetworkSimulator(CONFIGS[name]).run()
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    event = SensorNetworkSimulator(CONFIGS[name]).run()
    for view in ("observations", "records"):
        fast_columns = getattr(fast, view).columns()
        event_columns = getattr(event, view).columns()
        assert list(fast_columns) == list(event_columns)
        for column, values in fast_columns.items():
            assert values.dtype == event_columns[column].dtype, column
            assert np.array_equal(values, event_columns[column]), column


class TestViews:
    @pytest.fixture(scope="class")
    def result(self):
        return SensorNetworkSimulator(CONFIGS["fig2-rcad-ia2"]).run()

    def test_the_log_has_ten_columns(self, result):
        columns = {**result.observations.columns(), **result.records.columns()}
        assert tuple(columns) == DELIVERY_COLUMNS
        assert len(DELIVERY_COLUMNS) == 10

    def test_set_deliveries_takes_exactly_the_ten_columns(self, result):
        columns = {**result.observations.columns(), **result.records.columns()}
        del columns["preemptions"]
        with pytest.raises(TypeError, match="preemptions"):
            SimulationResult().set_deliveries(**columns)

    def test_columns_are_read_only(self, result):
        with pytest.raises(ValueError):
            result.observations.arrival_time[0] = 0.0
        with pytest.raises(AttributeError):
            result.records.append(None)

    def test_integer_columns_never_wrap_or_truncate(self):
        with pytest.raises(ValueError, match="routing_seq"):
            SinkTap(routing_seq=np.array([2**40]))
        with pytest.raises(ValueError, match="preemptions"):
            DeliveryRecords(preemptions=[0.5])

    def test_rows_are_built_once_from_the_columns(self, result):
        tap = result.observations
        rows = list(tap)
        assert tap[0] is rows[0]
        assert rows[5] == PacketObservation(
            arrival_time=float(tap.arrival_time[5]),
            previous_hop=int(tap.previous_hop[5]),
            origin=int(tap.origin[5]),
            routing_seq=int(tap.routing_seq[5]),
            hop_count=int(tap.hop_count[5]),
        )
        assert result.records[5].preemptions_experienced == result.records.preemptions[5]

    def test_non_integer_index_selects_a_view(self, result):
        mask = result.records.flow_id == 1
        flow = result.records[mask]
        assert isinstance(flow, DeliveryRecords)
        assert len(flow) == int(mask.sum()) == result.delivered_count(1)
        assert isinstance(result.observations[:10], SinkTap)
        assert list(result.observations[:10]) == list(result.observations)[:10]

    def test_of_converts_row_sequences(self, result):
        rows = list(result.records)
        converted = DeliveryRecords.of(rows)
        assert converted == result.records
        for column, values in converted.columns().items():
            assert np.array_equal(values, getattr(result.records, column))
        assert DeliveryRecords.of(result.records) is result.records

    def test_pickled_view_carries_columns_only(self, result):
        tap = result.observations[:50]
        list(tap)
        restored = pickle.loads(pickle.dumps(tap))
        assert restored._rows is None
        assert restored == tap
