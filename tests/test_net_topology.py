"""Unit tests for deployments and topology builders."""

import math

import numpy as np
import pytest

from repro.net.topology import (
    PAPER_HOP_COUNTS,
    PAPER_SOURCE_POSITIONS,
    Deployment,
    grid_deployment,
    line_deployment,
    paper_topology,
    random_geometric_deployment,
)


class TestDeployment:
    def test_distance(self):
        deployment = Deployment(
            positions={0: (0.0, 0.0), 1: (3.0, 4.0)}, sink=0, radio_range=6.0
        )
        assert deployment.distance(0, 1) == pytest.approx(5.0)

    def test_connectivity_graph_edges(self):
        deployment = Deployment(
            positions={0: (0.0, 0.0), 1: (1.0, 0.0), 2: (5.0, 0.0)},
            sink=0,
            radio_range=1.5,
        )
        graph = deployment.connectivity_graph()
        assert graph == {0: [1], 1: [0], 2: []}
        assert not deployment.is_connected()

    def test_sink_must_be_deployed(self):
        with pytest.raises(ValueError):
            Deployment(positions={1: (0.0, 0.0)}, sink=0, radio_range=1.0)

    def test_radio_range_positive(self):
        with pytest.raises(ValueError):
            Deployment(positions={0: (0.0, 0.0)}, sink=0, radio_range=0.0)

    @pytest.mark.parametrize("radio_range", [math.nan, math.inf])
    def test_radio_range_must_be_finite(self, radio_range):
        with pytest.raises(ValueError, match="radio range must be finite"):
            Deployment(
                positions={0: (0.0, 0.0), 1: (1.0, 0.0)},
                sink=0,
                radio_range=radio_range,
            )

    @pytest.mark.parametrize(
        "position", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)]
    )
    def test_positions_must_be_finite(self, position):
        with pytest.raises(ValueError, match="node 1 has a non-finite position"):
            Deployment(positions={0: (0.0, 0.0), 1: position}, sink=0, radio_range=1.0)

    def test_label_resolution(self):
        deployment = line_deployment(hops=3)
        assert deployment.node_for_label("S1") == 0
        assert deployment.node_for_label("sink") == 3
        with pytest.raises(KeyError):
            deployment.node_for_label("S9")


class TestLineDeployment:
    def test_node_count_and_sink(self):
        deployment = line_deployment(hops=5)
        assert len(deployment.positions) == 6
        assert deployment.sink == 5

    def test_connected_chain(self):
        assert line_deployment(hops=10).is_connected()

    def test_spacing(self):
        deployment = line_deployment(hops=2, spacing=2.0)
        assert deployment.distance(0, 1) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            line_deployment(hops=0)
        with pytest.raises(ValueError):
            line_deployment(hops=2, spacing=0.0)


class TestGridDeployment:
    def test_shape_and_ids(self):
        deployment = grid_deployment(width=4, height=3)
        assert len(deployment.positions) == 12
        assert deployment.positions[0] == (0.0, 0.0)
        assert deployment.positions[4 * 2 + 3] == (3.0, 2.0)  # row-major

    def test_four_neighbour_connectivity(self):
        deployment = grid_deployment(width=3, height=3)
        graph = deployment.connectivity_graph()
        assert 1 in graph[0]  # horizontal
        assert 3 in graph[0]  # vertical
        assert 4 not in graph[0]  # diagonal out of range

    def test_connected(self):
        assert grid_deployment(width=5, height=5).is_connected()

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_deployment(width=0, height=3)


class TestRandomGeometric:
    def test_connected_by_construction(self):
        rng = np.random.Generator(np.random.PCG64(0))
        deployment = random_geometric_deployment(
            n_nodes=40, area_side=10.0, radio_range=3.0, rng=rng
        )
        assert deployment.is_connected()
        assert len(deployment.positions) == 40

    def test_sink_is_corner_closest(self):
        rng = np.random.Generator(np.random.PCG64(1))
        deployment = random_geometric_deployment(
            n_nodes=30, area_side=10.0, radio_range=3.5, rng=rng
        )
        sink_distance = math.hypot(*deployment.positions[deployment.sink])
        assert all(
            sink_distance <= math.hypot(*pos) + 1e-9
            for pos in deployment.positions.values()
        )

    def test_reproducible_given_seed(self):
        a = random_geometric_deployment(
            20, 10.0, 4.0, np.random.Generator(np.random.PCG64(7))
        )
        b = random_geometric_deployment(
            20, 10.0, 4.0, np.random.Generator(np.random.PCG64(7))
        )
        assert a.positions == b.positions

    def test_impossible_connectivity_raises(self):
        rng = np.random.Generator(np.random.PCG64(2))
        with pytest.raises(RuntimeError):
            random_geometric_deployment(
                n_nodes=30, area_side=100.0, radio_range=0.5, rng=rng, max_attempts=3
            )

    def test_too_few_nodes_rejected(self):
        rng = np.random.Generator(np.random.PCG64(3))
        with pytest.raises(ValueError):
            random_geometric_deployment(1, 10.0, 3.0, rng)


class TestPaperTopology:
    def test_is_a_12x12_grid(self):
        deployment = paper_topology()
        assert len(deployment.positions) == 144
        assert deployment.sink == 0

    def test_source_positions_match_constants(self):
        deployment = paper_topology()
        for label, (x, y) in PAPER_SOURCE_POSITIONS.items():
            node = deployment.node_for_label(label)
            assert deployment.positions[node] == (float(x), float(y))

    def test_manhattan_distances_equal_paper_hop_counts(self):
        """Hop counts 15, 22, 9, 11 are wired into the geometry."""
        deployment = paper_topology()
        for label, hops in PAPER_HOP_COUNTS.items():
            x, y = PAPER_SOURCE_POSITIONS[label]
            assert x + y == hops, label

    def test_connected(self):
        assert paper_topology().is_connected()
