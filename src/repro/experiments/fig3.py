"""Figure 3: the adaptive adversary against RCAD.

RCAD defeats the baseline adversary because preemption silently
shortens delays the adversary still models at full length.  The §5.4
adaptive adversary watches the sink's aggregate traffic rate, computes
the Erlang-loss probability, and -- above a 0.1 threshold -- switches
its per-hop delay estimate from 1/mu to n k / lambda_tot.

Expected shape (paper Figure 3): at low traffic (large 1/lambda) the
two adversaries coincide; at high traffic the adaptive adversary's MSE
is far below the baseline's, but remains well above zero -- RCAD
degrades gracefully rather than collapsing.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.records import ExperimentSeries, ExperimentTable
from repro.analysis.sweep import sweep
from repro.core.adversary import Adversary, PathAwareAdaptiveAdversary
from repro.experiments.common import (
    PAPER_INTERARRIVALS,
    PAPER_MEAN_DELAY,
    PAPER_N_PACKETS,
    build_adversary,
    paper_flow_knowledge,
    run_paper_case,
    score_flow,
)
from repro.net.routing import greedy_grid_tree
from repro.net.topology import paper_topology
from repro.queueing.tandem import QueueTreeModel

__all__ = ["ADVERSARY_LABELS", "fig3_cell", "figure3", "paper_path_aware_adversary"]

#: The paper's legend labels, keyed by adversary kind.
ADVERSARY_LABELS: dict[str, str] = {
    "baseline": "BaselineAdversary",
    "adaptive": "AdaptiveAdversary",
}

#: Label of the extension series (not in the paper's figure).
PATH_AWARE_LABEL = "PathAware(ext)"


def paper_path_aware_adversary(interarrival: float) -> Adversary:
    """The extension adversary, armed with the Figure 1 tree's rates."""
    deployment = paper_topology()
    tree = greedy_grid_tree(deployment, width=12)
    sources = [deployment.node_for_label(s) for s in ("S1", "S2", "S3", "S4")]
    model = QueueTreeModel(
        parent=dict(tree.parent),
        injection_rates={s: 1.0 / interarrival for s in sources},
        default_service_rate=1.0 / PAPER_MEAN_DELAY,
    )
    return PathAwareAdaptiveAdversary(
        knowledge=paper_flow_knowledge("rcad"),
        path_rates={
            s: [model.arrival_rate(n) for n in tree.path(s)[:-1]] for s in sources
        },
    )


def fig3_cell(
    cell: tuple[float, int, int, int, tuple[str, ...]],
) -> dict[str, float]:
    """One load: run RCAD once and score it by every adversary kind.

    The cell carries all of its parameters, so this module-level
    function runs unchanged on the sweep fabric.
    """
    interarrival, n_packets, seed, flow_id, kinds = cell
    result = run_paper_case(
        interarrival=interarrival, case="rcad", n_packets=n_packets, seed=seed
    )
    scores: dict[str, float] = {}
    for kind in kinds:
        if kind == "path-aware":
            adversary = paper_path_aware_adversary(interarrival)
        else:
            adversary = build_adversary(kind, "rcad")
        scores[kind] = score_flow(result, adversary, flow_id=flow_id).mse
    return scores


def figure3(
    interarrivals: Sequence[float] = PAPER_INTERARRIVALS,
    n_packets: int = PAPER_N_PACKETS,
    seed: int = 0,
    flow_id: int = 1,
    include_path_aware: bool = False,
) -> ExperimentTable:
    """Regenerate Figure 3: MSE vs 1/lambda for both adversaries.

    Each RCAD simulation is run once per load and scored by every
    adversary over the identical observation stream, exactly the
    comparison the paper draws.  With ``include_path_aware`` a third
    series adds this library's extension adversary (per-hop saturation
    modelling from full routing-tree knowledge) as an upper bound on
    adversarial capability.
    """
    table = ExperimentTable(
        title="Figure 3: baseline vs adaptive adversary under RCAD, flow S1",
        x_label="1/lambda",
        y_label="mean square error",
    )
    labels = dict(ADVERSARY_LABELS)
    if include_path_aware:
        labels["path-aware"] = PATH_AWARE_LABEL
    kinds = tuple(labels)
    cells = [
        (interarrival, n_packets, seed, flow_id, kinds)
        for interarrival in interarrivals
    ]
    per_load = sweep(cells, fig3_cell)
    for kind, label in labels.items():
        values = [scores[kind] for scores in per_load]
        table.add(ExperimentSeries(label, list(interarrivals), values))
    return table
