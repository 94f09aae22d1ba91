"""Tests for topology serialization."""

import json

import numpy as np
import pytest

from repro.net.routing import greedy_grid_tree, shortest_path_tree
from repro.net.serialization import (
    deployment_from_json,
    deployment_to_json,
    routing_tree_from_json,
    routing_tree_to_json,
)
from repro.net.topology import (
    line_deployment,
    paper_topology,
    random_geometric_deployment,
)


class TestDeploymentRoundtrip:
    def test_paper_topology_roundtrip(self):
        original = paper_topology()
        restored = deployment_from_json(deployment_to_json(original))
        assert restored.positions == original.positions
        assert restored.sink == original.sink
        assert restored.radio_range == original.radio_range
        assert restored.labels == dict(original.labels)

    def test_random_deployment_roundtrip(self):
        rng = np.random.Generator(np.random.PCG64(5))
        original = random_geometric_deployment(25, 10.0, 3.5, rng)
        restored = deployment_from_json(deployment_to_json(original))
        assert restored.positions == original.positions
        # Routing over the restored deployment is identical.
        assert dict(shortest_path_tree(restored).parent) == dict(
            shortest_path_tree(original).parent
        )

    def test_serialization_is_deterministic(self):
        deployment = paper_topology()
        assert deployment_to_json(deployment) == deployment_to_json(deployment)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            deployment_from_json('{"format": "something/else"}')

    def test_nan_radio_range_rejected(self):
        payload = json.loads(deployment_to_json(line_deployment(hops=3)))
        payload["radio_range"] = float("nan")
        text = json.dumps(payload)
        assert '"radio_range": NaN' in text
        with pytest.raises(ValueError, match="radio range must be finite"):
            deployment_from_json(text)

    def test_infinite_position_rejected(self):
        payload = json.loads(deployment_to_json(line_deployment(hops=3)))
        payload["positions"]["2"] = [float("inf"), 0.0]
        with pytest.raises(ValueError, match="node 2 has a non-finite position"):
            deployment_from_json(json.dumps(payload))


class TestRoutingTreeRoundtrip:
    def test_tree_roundtrip(self):
        deployment = paper_topology()
        original = greedy_grid_tree(deployment, width=12)
        restored = routing_tree_from_json(routing_tree_to_json(original))
        assert dict(restored.parent) == dict(original.parent)
        assert restored.sink == original.sink
        source = deployment.node_for_label("S2")
        assert restored.hop_count(source) == 22

    def test_restored_tree_is_validated(self):
        """Corrupt parent pointers fail the RoutingTree cycle check."""
        bad = '{"format": "repro/routing-tree/v1", "sink": 0, ' \
              '"parent": {"1": 2, "2": 1}}'
        with pytest.raises(ValueError):
            routing_tree_from_json(bad)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            routing_tree_from_json('{"format": "repro/deployment/v1"}')
