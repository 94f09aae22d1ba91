"""Chaos sweep: fault intensity vs delivery, privacy, latency, overhead.

The robustness question the fault layer exists to answer: *how do the
paper's privacy and performance conclusions degrade as the network
gets uglier?*  This driver sweeps a single scalar **fault intensity**
``epsilon in [0, 1]`` that scales every fault family at once:

* Gilbert-Elliott burst loss: bad-state entry rate and bad-state loss
  both grow with epsilon;
* per-hop delay jitter: amplitude grows to half a transmission delay;
* packet duplication: probability grows to 5%;
* node crashes: above a threshold intensity, the first-flow trunk
  parent crashes for the middle third of the run (exercising buffer
  freezing, failover and stranding);

and compares the two bounded-buffer disciplines -- **drop-tail** vs
**RCAD** -- with and without stop-and-wait link ARQ.  Reported per
cell: delivery fraction, adversary MSE (privacy), mean latency, and
retransmission overhead.

Every run is audited by the simulator's invariant checker, so the
sweep doubles as an end-to-end stress test of the fault machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.sweep import sweep
from repro.experiments.common import build_adversary, score_flow
from repro.faults.arq import ArqSpec
from repro.faults.plan import (
    BurstyLossSpec,
    CrashWindow,
    DuplicationSpec,
    FaultPlan,
    JitterSpec,
)
from repro.runtime.context import run_simulation
from repro.sim.config import BufferSpec, SimulationConfig

__all__ = ["ChaosRow", "chaos_cell", "chaos_plan", "chaos_sweep", "render_chaos_rows"]

#: intensity at and above which the trunk-parent crash window turns on
CRASH_INTENSITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class ChaosRow:
    """One (discipline, ARQ, intensity) cell of the chaos sweep."""

    discipline: str
    arq: bool
    intensity: float
    delivered_fraction: float
    mse: float
    mean_latency: float
    retransmissions: int
    lost_in_transit: int
    stranded: int
    duplicates_suppressed: int
    preemptions: int


def chaos_plan(
    intensity: float,
    config: SimulationConfig,
    arq: bool = False,
) -> FaultPlan | None:
    """The fault plan at one intensity, sized to one configuration.

    ``intensity == 0`` returns None (the fault-free baseline), keeping
    the zero cell bit-identical to the unfaulted simulator.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    if intensity == 0.0:
        return None
    crashes: tuple[CrashWindow, ...] = ()
    if intensity >= CRASH_INTENSITY_THRESHOLD:
        # Crash the first flow's trunk parent for the middle third of
        # the (approximate) active period.
        flow = config.flows[0]
        parent = config.tree.parent[flow.source]
        horizon = flow.n_packets / flow.traffic.mean_rate()
        crashes = (CrashWindow(node=parent, start=horizon / 3, end=2 * horizon / 3),)
    return FaultPlan(
        bursty_loss=BurstyLossSpec(
            p_good_to_bad=0.05 * intensity,
            p_bad_to_good=0.25,
            loss_bad=0.6 * intensity,
        ),
        jitter=JitterSpec(amplitude=0.5 * intensity * config.transmission_delay),
        duplication=DuplicationSpec(probability=0.05 * intensity),
        crashes=crashes,
        arq=ArqSpec(timeout=4.0 * config.transmission_delay, max_retries=4)
        if arq
        else None,
    )


def _discipline_config(
    discipline: str,
    interarrival: float,
    n_packets: int,
    seed: int,
) -> SimulationConfig:
    config = SimulationConfig.paper_baseline(
        interarrival=interarrival, case="rcad", n_packets=n_packets, seed=seed
    )
    if discipline == "drop-tail":
        return replace(
            config,
            buffers=BufferSpec(kind="drop-tail", capacity=config.buffers.capacity),
        )
    if discipline == "rcad":
        return config
    raise ValueError(f"unknown discipline {discipline!r}")


def chaos_cell(cell: tuple[str, bool, float, float, int, int, int]) -> ChaosRow:
    """Run and score one (discipline, ARQ, intensity) cell.

    The cell carries all of its parameters, so this module-level
    function runs unchanged on the sweep fabric.
    """
    discipline, arq, intensity, interarrival, n_packets, seed, flow_id = cell
    config = _discipline_config(discipline, interarrival, n_packets, seed)
    config = config.with_faults(chaos_plan(intensity, config, arq=arq))
    result = run_simulation(config)
    delivered = result.delivered_count(flow_id)
    if delivered:
        metrics = score_flow(result, build_adversary("baseline", "rcad"), flow_id)
        mse, latency = metrics.mse, metrics.latency.mean
    else:  # the adversary has nothing to estimate
        mse, latency = float("nan"), float("nan")
    return ChaosRow(
        discipline=discipline,
        arq=arq,
        intensity=float(intensity),
        delivered_fraction=delivered / n_packets,
        mse=mse,
        mean_latency=latency,
        retransmissions=result.total_retransmissions(),
        lost_in_transit=result.lost_in_transit,
        stranded=result.stranded_in_buffer,
        duplicates_suppressed=result.duplicates_suppressed,
        preemptions=result.total_preemptions(),
    )


def chaos_sweep(
    intensities: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0),
    disciplines: tuple[str, ...] = ("drop-tail", "rcad"),
    arq_modes: tuple[bool, ...] = (False, True),
    interarrival: float = 2.0,
    n_packets: int = 300,
    seed: int = 0,
    flow_id: int = 1,
) -> list[ChaosRow]:
    """Sweep fault intensity across disciplines and ARQ modes."""
    cells = [
        (discipline, arq, intensity, interarrival, n_packets, seed, flow_id)
        for discipline in disciplines
        for arq in arq_modes
        for intensity in intensities
    ]
    return sweep(cells, chaos_cell)


def render_chaos_rows(rows: list[ChaosRow]) -> str:
    """Aligned text table of one sweep (the CLI's output)."""
    lines = [
        "# chaos sweep: fault intensity vs delivery / privacy / latency "
        "(flow S1)",
        f"{'discipline':>10} {'arq':>5} {'eps':>5} {'deliv':>7} "
        f"{'MSE':>12} {'latency':>9} {'retx':>6} {'lost':>6} "
        f"{'strand':>6} {'dups':>6} {'preempt':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.discipline:>10} {'on' if row.arq else 'off':>5} "
            f"{row.intensity:>5.2f} {row.delivered_fraction:>7.3f} "
            f"{row.mse:>12.1f} {row.mean_latency:>9.2f} "
            f"{row.retransmissions:>6d} {row.lost_in_transit:>6d} "
            f"{row.stranded:>6d} {row.duplicates_suppressed:>6d} "
            f"{row.preemptions:>8d}"
        )
    return "\n".join(lines)
