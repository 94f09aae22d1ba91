"""Adversary models: estimating packet creation times at the sink.

The adversary sits at the sink, reads cleartext headers and arrival
times, and estimates each packet's creation time.  By Kerckhoff's
principle it knows the deployment, routing, per-hop transmission delay
tau, the delay distributions (mean per-hop extra delay 1/mu) and the
buffer capacity k.  Three estimators of increasing sophistication:

* :class:`NaiveAdversary` -- ``x_hat = z - h * tau`` (Section 2.1): only
  accounts for transmission time; exact against an undefended network;
* :class:`BaselineAdversary` -- ``x_hat = z - h * (tau + 1/mu)``
  (Section 5.1): additionally subtracts the *advertised* mean privacy
  delay, "neglecting the fact that some packets may have shorter delays
  ... due to packet preemptions";
* :class:`AdaptiveAdversary` -- (Section 5.4) uses the Erlang loss
  formula on the traffic rate it *observes* at the sink to detect when
  RCAD preemption dominates, and then switches its per-hop delay
  estimate from ``1/mu`` to ``n k / lambda_tot``.

All adversaries consume :class:`~repro.net.packet.PacketObservation`
objects, or their columnar :class:`~repro.net.packet.SinkTap`, only --
the construction of those types guarantees no ground truth can leak
into the estimate.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.net.packet import PacketObservation, SinkTap
from repro.queueing.erlang import erlang_b, erlang_b_batch

__all__ = [
    "FlowKnowledge",
    "Adversary",
    "NaiveAdversary",
    "BaselineAdversary",
    "AdaptiveAdversary",
    "PathAwareAdaptiveAdversary",
    "ModelBasedAdversary",
]


@dataclass(frozen=True)
class FlowKnowledge:
    """Deployment knowledge the adversary holds (Kerckhoff's principle).

    Attributes
    ----------
    transmission_delay:
        tau, the constant per-hop transmit time.
    mean_delay_per_hop:
        1/mu, the advertised mean artificial delay per hop (0 for an
        undefended network).
    buffer_capacity:
        k, per-node buffer slots (None if advertised as unbounded).
    n_sources:
        Number of sources whose flows converge before the sink; the
        adaptive adversary's ``n`` in the ``n k / lambda_tot`` rule.
    """

    transmission_delay: float = 1.0
    mean_delay_per_hop: float = 0.0
    buffer_capacity: int | None = None
    n_sources: int = 1

    def __post_init__(self) -> None:
        if self.transmission_delay < 0:
            raise ValueError("transmission delay must be non-negative")
        if self.mean_delay_per_hop < 0:
            raise ValueError("mean delay per hop must be non-negative")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if self.n_sources < 1:
            raise ValueError("need at least one source")


class Adversary(abc.ABC):
    """Creation-time estimator run over sink observations.

    Observations must be fed in arrival order; stateful adversaries
    (the adaptive one) accumulate traffic statistics as they observe.
    """

    def __init__(self, knowledge: FlowKnowledge) -> None:
        self.knowledge = knowledge

    def estimate(self, observation: PacketObservation) -> float:
        """Estimated creation time x_hat for one observed packet.

        Runs the batch kernel on a one-observation stream, so stateful
        adversaries advance exactly as :meth:`estimate_all` would.
        Adversaries without a kernel override this method.
        """
        estimates = self._estimate_batch(
            np.array([observation.arrival_time], dtype=np.float64),
            np.array([observation.hop_count], dtype=np.float64),
            np.array([observation.origin], dtype=np.int64),
        )
        return float(estimates[0])

    def estimate_all(self, observations: Sequence[PacketObservation]) -> list[float]:
        """Estimate a whole arrival sequence (must be in arrival order).

        Reads the observations as columns: a run's ``observations``
        already is a :class:`~repro.net.packet.SinkTap`, and any other
        sequence is converted to one.  Dispatches to the adversary's
        numpy batch kernel (:meth:`_estimate_batch`) when one exists;
        adversaries without one fall back to their per-observation
        :meth:`estimate`.  The per-observation formulas the kernels
        must reproduce live in the test suite as the oracle.
        """
        tap = SinkTap.of(observations)
        if not len(tap):
            return []
        arrivals = tap.arrival_time
        self._check_arrival_order(arrivals)
        batch = self._estimate_batch(
            arrivals, tap.hop_count.astype(np.float64), tap.origin
        )
        if batch is None:
            return [self.estimate(observation) for observation in tap]
        return batch.tolist()

    @staticmethod
    def _check_arrival_order(arrivals: np.ndarray) -> None:
        if arrivals.size > 1:
            steps = np.diff(arrivals)
            if np.any(steps < 0):
                offender = int(np.argmax(steps < 0))
                raise ValueError(
                    "observations must be supplied in arrival order; "
                    f"{arrivals[offender + 1]:g} after {arrivals[offender]:g}"
                )

    def _estimate_batch(
        self, arrivals: np.ndarray, hops: np.ndarray, origins: np.ndarray
    ) -> np.ndarray | None:
        """Batch estimates for a validated arrival sequence, or None.

        Subclasses with a vectorized kernel override this; returning
        None selects the per-observation fallback.  Stateful
        adversaries carry their state from one call to the next.
        """
        return None

    def reset(self) -> None:
        """Forget accumulated observation state (no-op by default)."""


class NaiveAdversary(Adversary):
    """x_hat = z - h * tau: the Section 2.1 baseline estimator.

    Exact when the network adds no artificial delay; the reference
    point showing an undefended network leaks creation times perfectly.
    """

    def _estimate_batch(self, arrivals, hops, origins):
        return arrivals - hops * self.knowledge.transmission_delay


class BaselineAdversary(Adversary):
    """x_hat = z - h * (tau + 1/mu): knows the delay distributions.

    The Section 5.1 estimator: subtracts the advertised mean artificial
    delay per hop on top of the transmission time, but keeps using the
    *original* delay distribution even when RCAD preemption has
    shortened the real delays -- the blind spot Figure 2(a) exposes.
    """

    def _estimate_batch(self, arrivals, hops, origins):
        per_hop = (
            self.knowledge.transmission_delay + self.knowledge.mean_delay_per_hop
        )
        return arrivals - hops * per_hop


class AdaptiveAdversary(Adversary):
    """The Section 5.4 adversary: detects preemption via Erlang loss.

    It estimates the aggregate sink traffic rate ``lambda_tot`` from
    the arrival stream it observes, computes the buffer-overflow
    probability ``E(lambda_tot / mu, k)`` and compares it against
    ``preemption_threshold`` (0.1 in the paper):

    * below the threshold, buffers rarely fill; it estimates like the
      baseline adversary (per-hop extra delay ``1/mu``);
    * above it, preemption dominates and the effective buffer drain
      time governs delays; it estimates the per-hop extra delay as
      ``n k / lambda_tot``.

    Parameters
    ----------
    knowledge:
        Must include ``buffer_capacity`` and ``n_sources``.
    preemption_threshold:
        Erlang-loss probability above which the adversary assumes the
        preemption-dominated regime.
    warmup_observations:
        Arrivals to observe before trusting the rate estimate; until
        then it behaves like the baseline adversary.
    clamp_to_advertised:
        If True (default), the preemption-regime estimate
        ``n k / lambda_tot`` is capped at the advertised mean ``1/mu``.
        RCAD preemption can only *shorten* realized delays, so a
        saturation estimate exceeding the advertised mean is evidence
        the saturation model does not apply at that load; without the
        clamp the raw paper formula badly overshoots at intermediate
        loads where only part of the path is saturated.
    """

    def __init__(
        self,
        knowledge: FlowKnowledge,
        preemption_threshold: float = 0.1,
        warmup_observations: int = 10,
        clamp_to_advertised: bool = True,
    ) -> None:
        super().__init__(knowledge)
        if knowledge.buffer_capacity is None:
            raise ValueError("adaptive adversary needs the buffer capacity k")
        if knowledge.mean_delay_per_hop <= 0:
            raise ValueError(
                "adaptive adversary needs the advertised mean delay 1/mu"
            )
        if not 0.0 < preemption_threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {preemption_threshold}"
            )
        if warmup_observations < 2:
            raise ValueError("need at least 2 warm-up observations")
        self.preemption_threshold = preemption_threshold
        self.warmup_observations = warmup_observations
        self.clamp_to_advertised = clamp_to_advertised
        self._first_arrival: float | None = None
        self._last_arrival: float | None = None
        self._arrival_count = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._first_arrival = None
        self._last_arrival = None
        self._arrival_count = 0

    @property
    def observed_rate(self) -> float | None:
        """Estimated aggregate arrival rate lambda_tot at the sink."""
        if self._arrival_count < 2 or self._last_arrival == self._first_arrival:
            return None
        return (self._arrival_count - 1) / (self._last_arrival - self._first_arrival)

    def preemption_probability(self) -> float | None:
        """Erlang-loss estimate E(lambda_tot/mu, k) from observed traffic."""
        rate = self.observed_rate
        if rate is None:
            return None
        mu = 1.0 / self.knowledge.mean_delay_per_hop
        return erlang_b(rate / mu, self.knowledge.buffer_capacity)

    def in_preemption_regime(self) -> bool:
        """True once observed traffic implies loss above the threshold."""
        if self._arrival_count < self.warmup_observations:
            return False
        probability = self.preemption_probability()
        return probability is not None and probability > self.preemption_threshold

    # ------------------------------------------------------------------
    def _estimate_batch(self, arrivals, hops, origins):
        """Estimates for a stream, recording it as observed traffic.

        After observation ``i`` of the batch the arrival count is
        ``prior + i + 1`` and the rate window is ``[first, z_i]``, where
        ``prior``/``first`` carry over from earlier calls, so feeding a
        stream in pieces gives the same estimates as feeding it whole.
        """
        knowledge = self.knowledge
        capacity = knowledge.buffer_capacity
        assert capacity is not None  # enforced in __init__
        if self._first_arrival is None:
            self._first_arrival = float(arrivals[0])
        counts = self._arrival_count + 1 + np.arange(arrivals.size, dtype=np.int64)
        windows = arrivals - self._first_arrival
        has_rate = (counts >= 2) & (windows != 0.0)
        safe_windows = np.where(has_rate, windows, 1.0)
        rates = np.where(has_rate, (counts - 1) / safe_windows, np.nan)
        # Same expression shapes as preemption_probability: mu = 1/(1/mu),
        # then rho = rate / mu -- *not* rate * mean_delay, which rounds
        # differently.
        mu = 1.0 / knowledge.mean_delay_per_hop
        in_regime = (
            (counts >= self.warmup_observations)
            & has_rate
            & (erlang_b_batch(rates / mu, capacity) > self.preemption_threshold)
        )
        saturation = knowledge.n_sources * capacity / np.where(has_rate, rates, 1.0)
        if self.clamp_to_advertised:
            saturation = np.minimum(saturation, knowledge.mean_delay_per_hop)
        extra = np.where(in_regime, saturation, knowledge.mean_delay_per_hop)
        # Every batch observation is now recorded traffic.
        self._last_arrival = float(arrivals[-1])
        self._arrival_count += int(arrivals.size)
        return arrivals - hops * (knowledge.transmission_delay + extra)


class _PathTableAdversary(Adversary):
    """An adversary that subtracts a precomputed extra delay per origin.

    Subclasses fill ``_path_delay`` (origin node id -> total extra path
    delay) in ``__init__``.
    """

    _path_delay: dict[int, float]

    def _extra_delay(self, origin: int) -> float:
        try:
            return self._path_delay[origin]
        except KeyError:
            raise KeyError(
                f"no path knowledge for origin {origin}; "
                f"known origins: {sorted(self._path_delay)}"
            )

    def _estimate_batch(self, arrivals, hops, origins):
        unique_origins, inverse = np.unique(origins, return_inverse=True)
        delays = np.array(
            [self._extra_delay(int(origin)) for origin in unique_origins],
            dtype=np.float64,
        )
        transmission = hops * self.knowledge.transmission_delay
        return arrivals - transmission - delays[inverse]


class PathAwareAdaptiveAdversary(_PathTableAdversary):
    """Extension: a deployment-aware adversary modelling every hop.

    The paper's adaptive adversary treats the whole path as uniformly
    saturated.  A deployment-aware adversary can do better: it knows
    the routing tree (Kerckhoff), so it knows the *aggregate* rate
    lambda_v at every node v on a flow's path.  For each hop it
    predicts the mean extra delay as ::

        1/mu                      if E(lambda_v / mu, k) <= threshold
        min(1/mu, k / lambda_v)   otherwise

    i.e. the advertised delay where the buffer rarely fills, and the
    Little's-law drain time k/lambda_v of a saturated RCAD buffer where
    it does.  This is the strongest timing adversary in the library and
    the benchmark suite uses it to upper-bound how much of RCAD's
    privacy gain survives full deployment knowledge.

    Parameters
    ----------
    knowledge:
        Baseline flow knowledge (tau, 1/mu, k).
    path_rates:
        Mapping origin node id -> list of aggregate arrival rates
        lambda_v at each buffering node on that origin's path, source
        first.  Typically computed with
        :class:`repro.queueing.tandem.QueueTreeModel`.
    preemption_threshold:
        Per-node Erlang-loss switching threshold.
    """

    def __init__(
        self,
        knowledge: FlowKnowledge,
        path_rates: dict[int, list[float]],
        preemption_threshold: float = 0.1,
    ) -> None:
        super().__init__(knowledge)
        if knowledge.buffer_capacity is None:
            raise ValueError("path-aware adversary needs the buffer capacity k")
        if knowledge.mean_delay_per_hop <= 0:
            raise ValueError("path-aware adversary needs the advertised mean 1/mu")
        if not 0.0 < preemption_threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {preemption_threshold}"
            )
        if not path_rates:
            raise ValueError("need per-path rate knowledge for at least one origin")
        self.preemption_threshold = preemption_threshold
        self._path_delay: dict[int, float] = {
            origin: self._predict_path_delay(rates)
            for origin, rates in path_rates.items()
        }

    def _predict_path_delay(self, node_rates: list[float]) -> float:
        mu = 1.0 / self.knowledge.mean_delay_per_hop
        capacity = self.knowledge.buffer_capacity
        assert capacity is not None  # enforced in __init__
        total = 0.0
        for rate in node_rates:
            if rate <= 0:
                total += self.knowledge.mean_delay_per_hop
                continue
            blocking = erlang_b(rate / mu, capacity)
            if blocking > self.preemption_threshold:
                total += min(self.knowledge.mean_delay_per_hop, capacity / rate)
            else:
                total += self.knowledge.mean_delay_per_hop
        return total


class ModelBasedAdversary(_PathTableAdversary):
    """Extension: estimates via the closed-form RCAD node model.

    The strongest analytic adversary in the library: it predicts each
    hop's mean RCAD delay with the exact Little's-law result
    ``(1 - E(lambda_v/mu, k)) / mu`` (see
    :mod:`repro.queueing.rcad_model`), which interpolates smoothly
    between the advertised delay and the saturated drain time instead
    of switching between them at a threshold.  Against RCAD its
    creation-time estimates are nearly unbiased at every load; the MSE
    that remains is pure delay *variance* -- the irreducible privacy
    floor randomness buys.

    Parameters
    ----------
    knowledge:
        Baseline flow knowledge (tau, 1/mu, k).
    path_rates:
        Mapping origin node id -> aggregate arrival rates lambda_v at
        each buffering node on that origin's path, source first.
    """

    def __init__(
        self,
        knowledge: FlowKnowledge,
        path_rates: dict[int, list[float]],
    ) -> None:
        super().__init__(knowledge)
        if knowledge.buffer_capacity is None:
            raise ValueError("model-based adversary needs the buffer capacity k")
        if knowledge.mean_delay_per_hop <= 0:
            raise ValueError("model-based adversary needs the advertised mean 1/mu")
        if not path_rates:
            raise ValueError("need per-path rate knowledge for at least one origin")
        # Imported here to keep module import costs flat for users that
        # never instantiate this adversary.
        from repro.queueing.rcad_model import RcadNodeModel

        mu = 1.0 / knowledge.mean_delay_per_hop
        capacity = knowledge.buffer_capacity
        self._path_delay: dict[int, float] = {}
        for origin, rates in path_rates.items():
            total = 0.0
            for rate in rates:
                if rate <= 0:
                    total += knowledge.mean_delay_per_hop
                    continue
                total += RcadNodeModel(
                    arrival_rate=rate, service_rate=mu, capacity=capacity
                ).mean_delay
            self._path_delay[origin] = total
