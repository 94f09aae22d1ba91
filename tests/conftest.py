"""Shared fixtures: the paper network and cached small simulation runs.

Simulation runs are comparatively expensive, so integration tests share
session-scoped results instead of re-simulating per test.  Everything
is seeded; tests asserting on shared results must treat them as
read-only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.net.routing import greedy_grid_tree
from repro.net.topology import paper_topology
from repro.sim.config import SimulationConfig
from repro.sim.simulator import SensorNetworkSimulator

# Property tests run the same examples on every run (a failure is
# reproducible from the test name alone) and write no example database.
settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the default result cache at a per-session temp directory.

    CLI commands cache simulation results by default; without this the
    test suite would write into the user's real cache and reuse entries
    across runs.
    """
    import os

    cache_dir = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def paper_deployment():
    """The Figure 1 deployment."""
    return paper_topology()


@pytest.fixture(scope="session")
def paper_tree(paper_deployment):
    """The staircase routing tree on the Figure 1 deployment."""
    return greedy_grid_tree(paper_deployment, width=12)


@pytest.fixture(scope="session")
def rng():
    """A deterministic numpy generator for unit tests."""
    return np.random.Generator(np.random.PCG64(1234))


def _run_case(interarrival: float, case: str, n_packets: int = 200, seed: int = 9):
    config = SimulationConfig.paper_baseline(
        interarrival=interarrival, case=case, n_packets=n_packets, seed=seed
    )
    return SensorNetworkSimulator(config).run()


@pytest.fixture(scope="session")
def nodelay_result():
    """Case 1 at high load (read-only)."""
    return _run_case(2.0, "no-delay")


@pytest.fixture(scope="session")
def unlimited_result():
    """Case 2 at high load (read-only)."""
    return _run_case(2.0, "unlimited")


@pytest.fixture(scope="session")
def rcad_result():
    """Case 3 at high load (read-only)."""
    return _run_case(2.0, "rcad")


@pytest.fixture(scope="session")
def rcad_result_slow():
    """Case 3 at low load, where preemption is rare (read-only)."""
    return _run_case(20.0, "rcad")
