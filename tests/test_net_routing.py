"""Unit tests for routing trees."""

import numpy as np
import pytest

from repro.net.routing import (
    RoutingTree,
    backup_parents,
    greedy_grid_tree,
    shortest_path_tree,
)
from repro.net.topology import (
    PAPER_HOP_COUNTS,
    grid_deployment,
    line_deployment,
    paper_topology,
    random_geometric_deployment,
)


class TestRoutingTree:
    def test_path_and_hop_count(self):
        tree = RoutingTree(parent={3: 2, 2: 1, 1: 0}, sink=0)
        assert tree.path(3) == [3, 2, 1, 0]
        assert tree.hop_count(3) == 3
        assert tree.hop_count(1) == 1

    def test_next_hop(self):
        tree = RoutingTree(parent={1: 0}, sink=0)
        assert tree.next_hop(1) == 0

    def test_sink_does_not_forward(self):
        tree = RoutingTree(parent={1: 0}, sink=0)
        with pytest.raises(ValueError):
            tree.next_hop(0)

    def test_unknown_node_raises(self):
        tree = RoutingTree(parent={1: 0}, sink=0)
        with pytest.raises(KeyError):
            tree.next_hop(99)

    def test_sink_with_parent_rejected(self):
        with pytest.raises(ValueError):
            RoutingTree(parent={0: 1, 1: 0}, sink=0)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            RoutingTree(parent={1: 2, 2: 3, 3: 1}, sink=0)

    def test_children_map(self):
        tree = RoutingTree(parent={1: 0, 2: 0, 3: 1}, sink=0)
        assert tree.children_map() == {0: [1, 2], 1: [3]}

    def test_nodes_on_flows(self):
        tree = RoutingTree(parent={1: 0, 2: 1, 3: 0}, sink=0)
        assert tree.nodes_on_flows([2]) == {2, 1}
        assert tree.nodes_on_flows([2, 3]) == {2, 1, 3}


class TestShortestPathTree:
    def test_line_hops(self):
        deployment = line_deployment(hops=6)
        tree = shortest_path_tree(deployment)
        assert tree.hop_count(0) == 6

    def test_hop_counts_equal_bfs_distances(self):
        # On a 4-neighbour grid with the sink at the corner, the exact
        # shortest-path hop count is the Manhattan distance.
        deployment = grid_deployment(width=5, height=4)
        tree = shortest_path_tree(deployment)
        for node in deployment.node_ids:
            if node != deployment.sink:
                x, y = deployment.positions[node]
                assert tree.hop_count(node) == int(x + y)

    def test_deterministic_tie_breaking(self):
        deployment = grid_deployment(width=4, height=4)
        a = shortest_path_tree(deployment)
        b = shortest_path_tree(deployment)
        assert dict(a.parent) == dict(b.parent)

    def test_random_deployment_routable(self):
        rng = np.random.Generator(np.random.PCG64(5))
        deployment = random_geometric_deployment(35, 10.0, 3.0, rng)
        tree = shortest_path_tree(deployment)
        for node in deployment.node_ids:
            if node != deployment.sink:
                assert tree.path(node)[-1] == deployment.sink

    def test_disconnected_deployment_rejected(self):
        from repro.net.topology import Deployment

        deployment = Deployment(
            positions={0: (0.0, 0.0), 1: (10.0, 0.0)}, sink=0, radio_range=1.0
        )
        with pytest.raises(ValueError):
            shortest_path_tree(deployment)


class TestGreedyGridTree:
    def test_paper_hop_counts(self):
        deployment = paper_topology()
        tree = greedy_grid_tree(deployment, width=12)
        for label, expected in PAPER_HOP_COUNTS.items():
            assert tree.hop_count(deployment.node_for_label(label)) == expected

    def test_hop_counts_are_manhattan(self):
        deployment = grid_deployment(width=6, height=6)
        tree = greedy_grid_tree(deployment, width=6)
        for node, (x, y) in deployment.positions.items():
            if node != deployment.sink:
                assert tree.hop_count(node) == int(x + y)

    def test_progressive_merging_on_paper_topology(self):
        """S2's path passes through S1; S1's through S4 and S3."""
        deployment = paper_topology()
        tree = greedy_grid_tree(deployment, width=12)
        paths = {
            label: tree.path(deployment.node_for_label(label))
            for label in ("S1", "S2", "S3", "S4")
        }
        assert deployment.node_for_label("S1") in paths["S2"]
        assert deployment.node_for_label("S4") in paths["S1"]
        assert deployment.node_for_label("S3") in paths["S1"]

    def test_trunk_carries_all_flows_near_sink(self):
        deployment = paper_topology()
        tree = greedy_grid_tree(deployment, width=12)
        paths = [
            set(tree.path(deployment.node_for_label(label)))
            for label in ("S1", "S2", "S3", "S4")
        ]
        shared = set.intersection(*paths)
        # Shared trunk: at least the sink plus several trunk nodes.
        assert len(shared) >= 5

    def test_steps_reduce_larger_axis_first(self):
        deployment = grid_deployment(width=8, height=8)
        tree = greedy_grid_tree(deployment, width=8)
        # Node at (2, 5): y-dominant, steps in y first -> parent (2, 4).
        node = 5 * 8 + 2
        assert tree.next_hop(node) == 4 * 8 + 2
        # Node at (5, 2): x-dominant -> parent (4, 2).
        node = 2 * 8 + 5
        assert tree.next_hop(node) == 2 * 8 + 4
        # Tie at (3, 3): steps in x -> parent (2, 3).
        node = 3 * 8 + 3
        assert tree.next_hop(node) == 3 * 8 + 2


class TestBackupParents:
    def test_line_topology_has_no_backups(self):
        """On a line every node has exactly one downstream neighbor."""
        deployment = line_deployment(hops=6)
        tree = shortest_path_tree(deployment)
        assert backup_parents(deployment, tree) == {}

    def test_grid_interior_nodes_have_backups(self):
        deployment = grid_deployment(width=5, height=5)
        tree = greedy_grid_tree(deployment, width=5)
        backups = backup_parents(deployment, tree)
        assert backups  # a grid offers alternative descent directions
        for node, backup in backups.items():
            assert backup != tree.parent[node]

    def test_backups_make_strict_progress(self):
        """Every backup is strictly closer to the sink: rerouting through
        backups can never loop."""
        deployment = paper_topology()
        tree = greedy_grid_tree(deployment, width=12)
        backups = backup_parents(deployment, tree)
        graph = deployment.connectivity_graph()
        for node, backup in backups.items():
            assert backup in graph[node]
            backup_depth = 0 if backup == tree.sink else tree.hop_count(backup)
            assert backup_depth < tree.hop_count(node)

    def test_deterministic_tie_break(self):
        """Equal-depth candidates resolve to the smallest node id."""
        deployment = grid_deployment(width=4, height=4)
        tree = greedy_grid_tree(deployment, width=4)
        assert backup_parents(deployment, tree) == backup_parents(deployment, tree)

    def test_most_paper_nodes_are_protected(self):
        """The Figure 1 grid leaves few single-points-of-failure."""
        deployment = paper_topology()
        tree = greedy_grid_tree(deployment, width=12)
        backups = backup_parents(deployment, tree)
        assert len(backups) / len(tree.parent) > 0.8
