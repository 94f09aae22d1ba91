"""Simulation configuration.

:class:`SimulationConfig` pins down everything a run needs; the
:meth:`SimulationConfig.paper_baseline` constructor reproduces the
exact Section 5.2 setup (Figure 1 topology, four periodic sources of
1000 packets, tau = 1, 1/mu = 30, k = 10) with the evaluation case --
no-delay / unlimited / RCAD -- selected by :class:`BufferSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal, Mapping

from repro.core.planner import DelayPlan, UniformPlanner
from repro.core.privacy_core import KINDS, _validated_capacity
from repro.core.victim import VictimPolicy
from repro.faults.plan import FaultPlan
from repro.net.routing import RoutingTree, greedy_grid_tree
from repro.net.topology import Deployment, paper_topology
from repro.traffic.generators import PeriodicTraffic, PoissonTraffic, TrafficModel

__all__ = ["FlowSpec", "BufferSpec", "SimulationConfig"]

#: The four flows of the paper's evaluation and their hop counts.
PAPER_FLOW_LABELS = ("S1", "S2", "S3", "S4")


@dataclass(frozen=True)
class FlowSpec:
    """One source-to-sink flow."""

    flow_id: int
    source: int
    traffic: TrafficModel
    n_packets: int

    def __post_init__(self) -> None:
        if self.n_packets < 1:
            raise ValueError(f"flow needs at least 1 packet, got {self.n_packets}")


@dataclass(frozen=True)
class BufferSpec:
    """Which buffer discipline the nodes run.

    ``kind``:

    * ``"infinite"`` -- unlimited buffers (evaluation case 2);
    * ``"drop-tail"`` -- bounded, drop on full (the §4 loss model);
    * ``"rcad"`` -- bounded, preempt on full (evaluation case 3).

    ``capacity`` is required for the bounded kinds; ``victim_policy``
    (RCAD only) defaults to the paper's shortest-remaining-delay.
    Capacities are exact integers, checked here by the rule the privacy
    core itself applies, so both engines reject a float or bool capacity
    when the spec is built.

    ``per_node_capacity`` (bounded kinds only) overrides ``capacity``
    for the listed node ids, modelling heterogeneous hardware: nodes
    absent from the mapping keep the default ``capacity`` slots.  The
    paper's homogeneous model is the ``None`` default and takes
    identical code paths.
    """

    kind: Literal["infinite", "drop-tail", "rcad"] = "infinite"
    capacity: int | None = None
    victim_policy: VictimPolicy | None = None
    per_node_capacity: Mapping[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown buffer kind {self.kind!r}")
        if self.kind in ("drop-tail", "rcad") and self.capacity is None:
            raise ValueError(f"{self.kind} buffers need capacity >= 1")
        if self.capacity is not None:
            _validated_capacity(self.capacity)
        if self.kind != "rcad" and self.victim_policy is not None:
            raise ValueError("victim policies only apply to RCAD buffers")
        if self.per_node_capacity is not None:
            if self.kind == "infinite":
                raise ValueError(
                    "per-node capacities only apply to bounded buffers"
                )
            for node, slots in self.per_node_capacity.items():
                _validated_capacity(slots, f"per-node capacity for node {node}")

    def capacity_for(self, node: int) -> int | None:
        """Buffer slots at ``node``, or None for unbounded buffers."""
        if self.kind == "infinite":
            return None
        if self.per_node_capacity is not None:
            override = self.per_node_capacity.get(node)
            if override is not None:
                return override
        return self.capacity


@dataclass
class SimulationConfig:
    """Everything one simulation run needs.

    Attributes
    ----------
    deployment, tree:
        The network and its routing tree.
    flows:
        The source flows to simulate.
    delay_plan:
        Per-node artificial delay distributions, or None for the
        no-delay baseline (nodes forward immediately; case 1).
    buffers:
        Buffer discipline for every buffering node.
    transmission_delay:
        tau, the constant per-hop transmission time.
    link_loss_probability:
        Probability that any single hop transmission is lost (0 in the
        paper's model; exposed for the robustness extensions -- lossy
        links perturb the adversary's timing picture too).  1.0 is the
        crash-equivalent link (nothing ever arrives).
    faults:
        Declarative fault plan (bursty loss, jitter, duplication, node
        crashes, link ARQ), or None for the paper's fault-free model.
        A plan whose every knob is zero is treated exactly like None:
        the simulator takes identical code paths and produces
        bit-identical results.
    routing_policy:
        Per-packet forwarding policy; None (default) follows ``tree``
        for every packet (the paper's model).  Supply a
        :class:`repro.location.policies.PhantomRoutingPolicy` for the
        source-location-privacy extension.
    record_transmissions:
        If True, every individual transmission (time, sender,
        receiver) is logged -- required by the backtracing adversary
        of :mod:`repro.location`.
    record_packet_traces:
        If True, every packet's full lifecycle (created / buffered /
        preempted / forwarded / delivered / ...) is recorded as a
        :class:`repro.sim.tracing.PacketTrace` -- the debugging view.
    record_telemetry:
        If True, the run carries a :class:`repro.telemetry.RunTelemetry`
        on its result: per-node occupancy time series, per-flow latency
        histograms, event-rate series, and engine counters.  Off by
        default; the runtime flips it on when a telemetry-enabled
        context is active (the flag participates in cache fingerprints,
        so instrumented and plain results never alias).
    seed:
        Root seed for all random streams (traffic, delays, victim
        tie-breaks): same seed, same run.
    seal_payloads:
        If True, sources encrypt payloads and the sink decrypts and
        cross-checks them (slower; exercises the full crypto path).
        Timing behaviour is identical either way.
    max_sim_time:
        Safety horizon: a run that exceeds it raises instead of
        spinning forever.
    """

    deployment: Deployment
    tree: RoutingTree
    flows: list[FlowSpec]
    delay_plan: DelayPlan | None
    buffers: BufferSpec = field(default_factory=BufferSpec)
    transmission_delay: float = 1.0
    link_loss_probability: float = 0.0
    faults: FaultPlan | None = None
    routing_policy: object | None = None
    record_transmissions: bool = False
    record_packet_traces: bool = False
    record_telemetry: bool = False
    seed: int = 0
    seal_payloads: bool = False
    max_sim_time: float = 10_000_000.0

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("need at least one flow")
        flow_ids = [flow.flow_id for flow in self.flows]
        if len(set(flow_ids)) != len(flow_ids):
            raise ValueError(f"duplicate flow ids: {flow_ids}")
        for flow in self.flows:
            if flow.source not in self.deployment.positions:
                raise ValueError(f"flow {flow.flow_id} source {flow.source} not deployed")
            if flow.source == self.deployment.sink:
                raise ValueError("the sink cannot be a traffic source")
        if self.transmission_delay < 0:
            raise ValueError("transmission delay must be non-negative")
        if not 0.0 <= self.link_loss_probability <= 1.0:
            raise ValueError("link loss probability must be in [0, 1]")
        if self.faults is not None:
            for window in self.faults.crashes:
                if window.node not in self.deployment.positions:
                    raise ValueError(
                        f"crash window targets undeployed node {window.node}"
                    )
                if window.node == self.deployment.sink:
                    raise ValueError("the sink cannot crash (it is the observer)")
            arq = self.faults.arq
            if arq is not None and arq.timeout <= 2 * self.transmission_delay:
                raise ValueError(
                    f"ARQ timeout {arq.timeout:g} must exceed one round trip "
                    f"(2 * tau = {2 * self.transmission_delay:g}); every "
                    "transmission would spuriously retransmit"
                )

    # ------------------------------------------------------------------
    @classmethod
    def paper_baseline(
        cls,
        interarrival: float,
        case: Literal["no-delay", "unlimited", "rcad"] = "rcad",
        n_packets: int = 1000,
        mean_delay: float = 30.0,
        buffer_capacity: int = 10,
        victim_policy: VictimPolicy | None = None,
        seed: int = 0,
        seal_payloads: bool = False,
        traffic: Literal["periodic", "poisson"] = "periodic",
    ) -> "SimulationConfig":
        """The Section 5.2 configuration.

        Parameters
        ----------
        interarrival:
            1/lambda, swept from 2 (highest load) to 20 in the paper.
        case:
            Which of the three evaluation situations to build:
            ``"no-delay"`` (case 1), ``"unlimited"`` (case 2) or
            ``"rcad"`` (case 3).
        n_packets:
            Packets per source (1000 in the paper).
        mean_delay:
            1/mu (30 in the paper).
        buffer_capacity:
            k (10 in the paper, approximating Mica-2 motes).
        traffic:
            ``"periodic"`` (the paper's sources) or ``"poisson"`` at
            the same mean rate.  Poisson arrivals put the source buffer
            in exactly the regime the §4 queueing predictions
            (M/M/infinity, M/M/k/k) speak about, which is what the
            telemetry acceptance tests compare against.
        """
        if interarrival <= 0:
            raise ValueError(f"interarrival must be positive, got {interarrival}")
        if traffic not in ("periodic", "poisson"):
            raise ValueError(f"unknown traffic model {traffic!r}")
        deployment = paper_topology()
        tree = greedy_grid_tree(deployment, width=12)

        def _traffic(index: int) -> TrafficModel:
            if traffic == "poisson":
                return PoissonTraffic(rate=1.0 / interarrival)
            # Stagger phases slightly so the four periodic sources do
            # not fire in lockstep (the paper's sources are independent
            # sensors, not synchronized clocks).
            return PeriodicTraffic(
                interval=interarrival,
                phase=interarrival * (index + 1) / len(PAPER_FLOW_LABELS),
            )

        flows = [
            FlowSpec(
                flow_id=index + 1,
                source=deployment.node_for_label(label),
                traffic=_traffic(index),
                n_packets=n_packets,
            )
            for index, label in enumerate(PAPER_FLOW_LABELS)
        ]
        if case == "no-delay":
            delay_plan = None
            buffers = BufferSpec(kind="infinite")
        elif case == "unlimited":
            delay_plan = UniformPlanner(mean_delay).plan(
                tree, {flow.source: flow.traffic.mean_rate() for flow in flows}
            )
            buffers = BufferSpec(kind="infinite")
        elif case == "rcad":
            delay_plan = UniformPlanner(mean_delay).plan(
                tree, {flow.source: flow.traffic.mean_rate() for flow in flows}
            )
            buffers = BufferSpec(
                kind="rcad", capacity=buffer_capacity, victim_policy=victim_policy
            )
        else:
            raise ValueError(f"unknown case {case!r}")
        return cls(
            deployment=deployment,
            tree=tree,
            flows=flows,
            delay_plan=delay_plan,
            buffers=buffers,
            transmission_delay=1.0,
            seed=seed,
            seal_payloads=seal_payloads,
        )

    def with_seed(self, seed: int) -> "SimulationConfig":
        """A copy of this configuration under a different seed."""
        return replace(self, seed=seed)

    def with_faults(self, faults: FaultPlan | None) -> "SimulationConfig":
        """A copy of this configuration under a different fault plan."""
        return replace(self, faults=faults)
