"""Differential property tests for the plain-dict graph code.

The connectivity graph (spatial-hashed adjacency dict), the BFS hop
counts and :class:`QueueTreeModel`'s parent-pointer structure are
checked against brute-force oracles on random inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.routing import DisconnectedDeploymentError, shortest_path_tree
from repro.net.topology import Deployment, hop_distances
from repro.queueing.tandem import QueueTreeModel

# Half-unit lattice points sit at exactly 0.5, 1.0, 1.5 ... apart, so
# with a lattice radio range many pairs are exactly at the range.
_coordinate = st.one_of(
    st.integers(-12, 12).map(lambda k: k * 0.5),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
_radio_range = st.one_of(
    st.sampled_from([0.5, 1.0, 1.5, 2.5]),
    st.floats(0.05, 6.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def deployments(draw):
    ids = draw(st.lists(st.integers(-50, 500), min_size=1, max_size=60, unique=True))
    positions = {node: (draw(_coordinate), draw(_coordinate)) for node in ids}
    return Deployment(
        positions=positions,
        sink=draw(st.sampled_from(ids)),
        radio_range=draw(_radio_range),
    )


def _brute_force_edges(deployment):
    ids = list(deployment.positions)
    limit = deployment.radio_range + 1e-12
    return {
        frozenset((a, b))
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if deployment.distance(a, b) <= limit
    }


def _relaxed_hops(deployment, edges):
    """Hop counts from the sink by repeated edge relaxation."""
    hops = {deployment.sink: 0}
    for _ in range(len(deployment.positions)):
        changed = False
        for a, b in (tuple(edge) for edge in edges):
            for u, v in ((a, b), (b, a)):
                if u in hops and hops[u] + 1 < hops.get(v, len(deployment.positions)):
                    hops[v] = hops[u] + 1
                    changed = True
        if not changed:
            break
    return hops


_GRAPH_SETTINGS = settings(max_examples=150, deadline=None)


@_GRAPH_SETTINGS
@given(deployments())
def test_adjacency_equals_brute_force(deployment):
    graph = deployment.connectivity_graph()
    assert list(graph) == list(deployment.positions)
    for node, neighbours in graph.items():
        assert neighbours == sorted(set(neighbours))
        assert node not in neighbours
        assert all(node in graph[other] for other in neighbours)
    edges = {frozenset((a, b)) for a, neighbours in graph.items() for b in neighbours}
    assert edges == _brute_force_edges(deployment)


@_GRAPH_SETTINGS
@given(deployments())
def test_bfs_hops_and_connectivity_equal_relaxation(deployment):
    expected = _relaxed_hops(deployment, _brute_force_edges(deployment))
    assert hop_distances(deployment.connectivity_graph(), deployment.sink) == expected
    connected = len(expected) == len(deployment.positions)
    assert deployment.is_connected() == connected
    if connected:
        tree = shortest_path_tree(deployment)
        for node in deployment.positions:
            if node != deployment.sink:
                assert tree.hop_count(node) == expected[node]
    else:
        with pytest.raises(DisconnectedDeploymentError):
            shortest_path_tree(deployment)


@st.composite
def cyclic_parent_maps(draw):
    """A parent map holding one 1-, 2- or 3-cycle, with trees hanging off it."""
    length = draw(st.integers(1, 3))
    cycle = list(range(100, 100 + length))
    parent = {node: cycle[(i + 1) % length] for i, node in enumerate(cycle)}
    placed = list(cycle)
    for node in range(draw(st.integers(0, 8))):
        parent[node] = draw(st.sampled_from(placed))
        placed.append(node)
    items = draw(st.permutations(list(parent.items())))
    return dict(items)


@settings(max_examples=100, deadline=None)
@given(cyclic_parent_maps())
def test_queue_tree_rejects_cycles(parent):
    with pytest.raises(ValueError, match="no cycles"):
        QueueTreeModel(parent=parent, injection_rates={})


@pytest.mark.parametrize("parent", [{1: 1}, {1: 2, 2: 3, 3: 1}])
def test_queue_tree_rejects_small_cycles(parent):
    with pytest.raises(ValueError, match="no cycles"):
        QueueTreeModel(parent=parent, injection_rates={1: 0.1})


def test_queue_tree_structure_on_star():
    model = QueueTreeModel(
        parent={1: 0, 2: 1, 3: 1},
        injection_rates={2: 0.2, 3: 0.3, 7: 0.1},
        default_service_rate=1.0 / 30.0,
    )
    assert model.nodes() == [1, 0, 2, 3, 7]
    assert [model.children(n) for n in model.nodes()] == [[2, 3], [1], [], [], []]
    assert model.path_to_root(2) == [2, 1]
    assert model.path_to_root(0) == [0]
    assert model.path_to_root(7) == [7]


def test_queue_tree_structure_on_paper_tree(paper_tree, paper_deployment):
    parent = dict(paper_tree.parent)
    sources = [paper_deployment.node_for_label(s) for s in ("S1", "S2", "S3", "S4")]
    model = QueueTreeModel(parent=parent, injection_rates=dict.fromkeys(sources, 0.25))
    # Insertion order of the parent items (child, then parent), as the
    # float sums over nodes() and children() rely on.
    assert model.nodes() == list(
        dict.fromkeys(node for edge in parent.items() for node in edge)
    )
    for node in model.nodes():
        assert model.children(node) == sorted(
            child for child, par in parent.items() if par == node
        )
    for source in sources:
        assert model.path_to_root(source) == paper_tree.path(source)[:-1]
