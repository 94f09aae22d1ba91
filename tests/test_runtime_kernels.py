"""Vectorized kernels agree with their scalar oracles (<= 1e-9).

In practice every comparison here is *exactly* equal -- the batch
kernels perform the same IEEE-754 operations in the same per-element
order as the scalar code -- but the contract asserted is the issue's
1e-9 bound.  The adversaries' scalar oracles live here, not in the
library: they are the per-observation formulas the kernels replaced.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.core.adversary import (
    AdaptiveAdversary,
    BaselineAdversary,
    FlowKnowledge,
    ModelBasedAdversary,
    NaiveAdversary,
    _PathTableAdversary,
)
from repro.experiments.common import build_adversary, run_paper_case
from repro.experiments.fig3 import paper_path_aware_adversary
from repro.infotheory.estimators import (
    _marginal_neighbor_counts,
    _marginal_neighbor_counts_scalar,
)
from repro.queueing.erlang import erlang_b, erlang_b_batch

TOL = 1e-9


def scalar_oracle(adversary, observations):
    """Per-observation estimates by the paper's formulas (Sections 2.1,
    5.1 and 5.4), with the adaptive adversary's running traffic state
    kept here rather than on the adversary."""
    knowledge = adversary.knowledge
    tau = knowledge.transmission_delay
    mean = knowledge.mean_delay_per_hop
    estimates = []
    first = None
    count = 0
    for observation in observations:
        z = observation.arrival_time
        hops = observation.hop_count
        if isinstance(adversary, NaiveAdversary):
            estimates.append(z - hops * tau)
        elif isinstance(adversary, BaselineAdversary):
            estimates.append(z - hops * (tau + mean))
        elif isinstance(adversary, _PathTableAdversary):
            extra = adversary._extra_delay(observation.origin)
            estimates.append(z - hops * tau - extra)
        elif isinstance(adversary, AdaptiveAdversary):
            if first is None:
                first = z
            count += 1
            capacity = knowledge.buffer_capacity
            extra = mean
            if count >= adversary.warmup_observations and z != first:
                rate = (count - 1) / (z - first)
                mu = 1.0 / mean
                if erlang_b(rate / mu, capacity) > adversary.preemption_threshold:
                    extra = knowledge.n_sources * capacity / rate
                    if adversary.clamp_to_advertised:
                        extra = min(extra, mean)
            estimates.append(z - hops * (tau + extra))
        else:
            raise TypeError(f"no oracle for {type(adversary).__name__}")
    return estimates


@pytest.fixture(scope="module")
def rcad_observations():
    return run_paper_case(2.0, "rcad", n_packets=200, seed=3).observations


class TestAdversaryKernels:
    @pytest.mark.parametrize("kind", ["naive", "baseline", "adaptive"])
    def test_estimate_all_matches_scalar(self, rcad_observations, kind):
        adversary = build_adversary(kind, "rcad")
        v = adversary.estimate_all(rcad_observations)
        s = scalar_oracle(build_adversary(kind, "rcad"), rcad_observations)
        assert len(v) == len(s)
        assert max(abs(a - b) for a, b in zip(v, s)) <= TOL

    def test_path_aware_matches_scalar(self, rcad_observations):
        adversary = paper_path_aware_adversary(2.0)
        v = adversary.estimate_all(rcad_observations)
        s = scalar_oracle(adversary, rcad_observations)
        assert max(abs(a - b) for a, b in zip(v, s)) <= TOL

    def test_model_based_matches_scalar(self, rcad_observations):
        knowledge = FlowKnowledge(mean_delay_per_hop=30.0, buffer_capacity=10)
        origins = sorted({o.origin for o in rcad_observations})
        rates = {origin: [0.05 * (i + 1), 0.3] for i, origin in enumerate(origins)}
        adversary = ModelBasedAdversary(knowledge, rates)
        v = adversary.estimate_all(rcad_observations)
        s = scalar_oracle(adversary, rcad_observations)
        assert max(abs(a - b) for a, b in zip(v, s)) <= TOL

        del rates[origins[0]]
        partial = ModelBasedAdversary(knowledge, rates)
        unknown = next(o for o in rcad_observations if o.origin == origins[0])
        for estimate in (partial.estimate_all, lambda _: partial.estimate(unknown)):
            with pytest.raises(KeyError, match="no path knowledge"):
                estimate(rcad_observations)

    def test_adaptive_batch_after_scalar_prefix(self, rcad_observations):
        # Feeding the stream one observation at a time and then as a
        # batch must agree with the oracle: both paths carry the
        # adaptive adversary's traffic state.
        mixed = build_adversary("adaptive", "rcad")
        prefix = [mixed.estimate(o) for o in rcad_observations[:50]]
        suffix = mixed.estimate_all(rcad_observations[50:])

        reference = scalar_oracle(build_adversary("adaptive", "rcad"), rcad_observations)
        combined = prefix + suffix
        assert max(abs(a - b) for a, b in zip(combined, reference)) <= TOL

    def test_out_of_order_arrivals_rejected(self, rcad_observations):
        adversary = build_adversary("baseline", "rcad")
        shuffled = list(rcad_observations)
        shuffled[0], shuffled[-1] = shuffled[-1], shuffled[0]
        with pytest.raises(ValueError):
            adversary.estimate_all(shuffled)


class TestErlangBatch:
    def test_matches_scalar_recursion(self):
        loads = np.linspace(0.0, 80.0, 333)
        batch_values = erlang_b_batch(loads, 10)
        scalar_values = [erlang_b(float(rho), 10) for rho in loads]
        assert max(abs(a - b) for a, b in zip(batch_values, scalar_values)) <= TOL

    def test_nan_propagates(self):
        out = erlang_b_batch(np.array([1.0, np.nan]), 5)
        assert not np.isnan(out[0]) and np.isnan(out[1])

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            erlang_b_batch(np.array([1.0, -0.5]), 5)


class TestKsgNeighborCounts:
    def test_batched_counts_match_loop(self):
        rng = np.random.Generator(np.random.PCG64(7))
        points = rng.standard_normal(300)
        radii = np.abs(rng.standard_normal(300)) * 0.5 + 1e-3
        tree = cKDTree(points[:, None])
        fast = _marginal_neighbor_counts(tree, points, radii)
        slow = _marginal_neighbor_counts_scalar(tree, points, radii)
        assert np.array_equal(fast, slow)
