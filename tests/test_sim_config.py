"""Unit tests for simulation configuration."""

import pytest

from repro.core.victim import LongestRemainingDelay
from repro.sim.config import BufferSpec, FlowSpec, SimulationConfig
from repro.traffic.generators import PeriodicTraffic


class TestBufferSpec:
    def test_infinite_default(self):
        spec = BufferSpec()
        assert spec.kind == "infinite"
        assert spec.capacity is None

    def test_bounded_kinds_need_capacity(self):
        with pytest.raises(ValueError):
            BufferSpec(kind="rcad")
        with pytest.raises(ValueError):
            BufferSpec(kind="drop-tail", capacity=0)

    @pytest.mark.parametrize(
        ("kwargs", "error"),
        [
            ({"capacity": 2.5}, TypeError),
            ({"capacity": True}, TypeError),
            ({"capacity": 3.0}, TypeError),
            ({"capacity": -1}, ValueError),
            ({"capacity": 4, "per_node_capacity": {7: 2.5}}, TypeError),
            ({"capacity": 4, "per_node_capacity": {7: False}}, TypeError),
            ({"capacity": 4, "per_node_capacity": {7: 0}}, ValueError),
        ],
        ids=lambda value: repr(value) if isinstance(value, dict) else None,
    )
    @pytest.mark.parametrize("kind", ["drop-tail", "rcad"])
    def test_capacity_must_be_an_exact_integer(self, kind, kwargs, error):
        """Both engines see the same buffers: a float or bool capacity
        fails when the spec is built, not later on one engine only."""
        with pytest.raises(error, match="capacity"):
            BufferSpec(kind=kind, **kwargs)

    def test_numpy_integer_capacity_accepted(self):
        import numpy as np

        spec = BufferSpec(
            kind="drop-tail", capacity=np.int64(3), per_node_capacity={1: np.int32(2)}
        )
        assert spec.capacity_for(1) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            BufferSpec(kind="magic")  # type: ignore[arg-type]

    def test_victim_policy_only_for_rcad(self):
        with pytest.raises(ValueError):
            BufferSpec(kind="infinite", victim_policy=LongestRemainingDelay())
        spec = BufferSpec(kind="rcad", capacity=5, victim_policy=LongestRemainingDelay())
        assert spec.victim_policy is not None


class TestFlowSpec:
    def test_needs_packets(self):
        with pytest.raises(ValueError):
            FlowSpec(flow_id=1, source=0, traffic=PeriodicTraffic(1.0), n_packets=0)


class TestPaperBaseline:
    def test_no_delay_case(self):
        config = SimulationConfig.paper_baseline(interarrival=2.0, case="no-delay")
        assert config.delay_plan is None
        assert config.buffers.kind == "infinite"
        assert len(config.flows) == 4
        assert all(flow.n_packets == 1000 for flow in config.flows)

    def test_unlimited_case(self):
        config = SimulationConfig.paper_baseline(interarrival=2.0, case="unlimited")
        assert config.delay_plan is not None
        assert config.buffers.kind == "infinite"

    def test_rcad_case(self):
        config = SimulationConfig.paper_baseline(interarrival=2.0, case="rcad")
        assert config.buffers.kind == "rcad"
        assert config.buffers.capacity == 10

    def test_delay_plan_mean(self):
        config = SimulationConfig.paper_baseline(interarrival=4.0, case="rcad")
        some_node = config.flows[0].source
        assert config.delay_plan.distribution_for(some_node).mean == pytest.approx(30.0)

    def test_flow_sources_are_paper_labels(self):
        config = SimulationConfig.paper_baseline(interarrival=2.0, case="rcad")
        expected = {
            config.deployment.node_for_label(label)
            for label in ("S1", "S2", "S3", "S4")
        }
        assert {flow.source for flow in config.flows} == expected

    def test_phases_staggered(self):
        config = SimulationConfig.paper_baseline(interarrival=4.0, case="no-delay")
        phases = {flow.traffic.phase for flow in config.flows}
        assert len(phases) == 4

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.paper_baseline(interarrival=2.0, case="bogus")  # type: ignore[arg-type]

    def test_nonpositive_interarrival_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.paper_baseline(interarrival=0.0)

    def test_with_seed_copies(self):
        config = SimulationConfig.paper_baseline(interarrival=2.0, case="rcad", seed=1)
        other = config.with_seed(2)
        assert other.seed == 2
        assert config.seed == 1
        assert other.flows == config.flows


class TestConfigValidation:
    def _base(self, **overrides):
        config = SimulationConfig.paper_baseline(interarrival=2.0, case="no-delay")
        defaults = dict(
            deployment=config.deployment,
            tree=config.tree,
            flows=config.flows,
            delay_plan=None,
        )
        defaults.update(overrides)
        return defaults

    def test_duplicate_flow_ids_rejected(self):
        args = self._base()
        args["flows"] = [args["flows"][0], args["flows"][0]]
        with pytest.raises(ValueError):
            SimulationConfig(**args)

    def test_empty_flows_rejected(self):
        args = self._base(flows=[])
        with pytest.raises(ValueError):
            SimulationConfig(**args)

    def test_undeployed_source_rejected(self):
        args = self._base()
        args["flows"] = [
            FlowSpec(flow_id=1, source=9999, traffic=PeriodicTraffic(1.0), n_packets=1)
        ]
        with pytest.raises(ValueError):
            SimulationConfig(**args)

    def test_sink_as_source_rejected(self):
        args = self._base()
        args["flows"] = [
            FlowSpec(flow_id=1, source=0, traffic=PeriodicTraffic(1.0), n_packets=1)
        ]
        with pytest.raises(ValueError):
            SimulationConfig(**args)

    def test_negative_transmission_delay_rejected(self):
        args = self._base(transmission_delay=-1.0)
        with pytest.raises(ValueError):
            SimulationConfig(**args)
