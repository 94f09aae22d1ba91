"""Per-packet routing policies: tree routing and phantom routing.

The simulator consults a :class:`RoutingPolicy` for every forwarding
decision.  :class:`TreeRoutingPolicy` reproduces the paper's fixed
convergecast tree.  :class:`PhantomRoutingPolicy` implements the
random-walk prefix of phantom routing: each packet performs ``h_walk``
random steps over the connectivity graph (never stepping onto the
sink, which would end the walk trivially), then follows the tree from
wherever the walk left it.  Walk state is tracked per packet.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.net.routing import RoutingTree
from repro.net.topology import Deployment

__all__ = ["RoutingPolicy", "TreeRoutingPolicy", "PhantomRoutingPolicy"]


class RoutingPolicy(abc.ABC):
    """Strategy interface for per-packet forwarding decisions."""

    @abc.abstractmethod
    def first_hop_state(self, packet_key: tuple[int, int]) -> None:
        """Initialize per-packet routing state (called at creation)."""

    @abc.abstractmethod
    def next_hop(
        self, node: int, packet_key: tuple[int, int], rng: np.random.Generator
    ) -> int:
        """The node ``node`` should forward packet ``packet_key`` to."""


class TreeRoutingPolicy(RoutingPolicy):
    """The paper's model: every packet follows the routing tree."""

    def __init__(self, tree: RoutingTree) -> None:
        self.tree = tree

    def first_hop_state(self, packet_key: tuple[int, int]) -> None:
        return None

    def next_hop(self, node, packet_key, rng):
        return self.tree.next_hop(node)


class PhantomRoutingPolicy(RoutingPolicy):
    """Phantom routing: ``walk_length`` random steps, then the tree.

    Parameters
    ----------
    tree:
        The convergecast tree used after the walk phase.
    deployment:
        Supplies the connectivity graph the walk moves over.
    walk_length:
        h_walk, the number of random steps prefixed to each packet's
        route.  0 degenerates to plain tree routing.

    Notes
    -----
    The walk avoids stepping onto the sink (a walk ending at the sink
    would deliver the packet with no routing phase and leak the
    source's proximity); if the sink is a node's only neighbour the
    walk is forced there and simply ends early.
    """

    def __init__(
        self,
        tree: RoutingTree,
        deployment: Deployment,
        walk_length: int,
    ) -> None:
        if walk_length < 0:
            raise ValueError(f"walk length must be non-negative, got {walk_length}")
        self.tree = tree
        self.deployment = deployment
        self.walk_length = int(walk_length)
        self._neighbors: dict[int, list[int]] = deployment.connectivity_graph()
        self._remaining: dict[tuple[int, int], int] = {}

    def first_hop_state(self, packet_key: tuple[int, int]) -> None:
        if self.walk_length > 0:
            self._remaining[packet_key] = self.walk_length

    def next_hop(self, node, packet_key, rng):
        # Finished walk counters are removed (not left at 0) so the
        # policy object returns to its pre-run state once every packet
        # is routed: the result cache fingerprints the whole config, so
        # leftover per-packet state would make the post-run cache key
        # differ from the pre-run one and every phantom run would miss.
        remaining = self._remaining.get(packet_key, 0)
        if remaining <= 0:
            return self.tree.next_hop(node)
        candidates = [
            neighbor
            for neighbor in self._neighbors[node]
            if neighbor != self.deployment.sink
        ]
        if not candidates:
            # Cornered next to the sink: end the walk, route normally.
            del self._remaining[packet_key]
            return self.tree.next_hop(node)
        if remaining == 1:
            del self._remaining[packet_key]
        else:
            self._remaining[packet_key] = remaining - 1
        return int(candidates[int(rng.integers(len(candidates)))])
