"""Serial vs parallel sweep timing on a reduced Figure 2.

Measures the same reduced Figure 2 regeneration (three loads, 150
packets per source) through a serial sweep and through a
four-worker process pool, asserts the tables are identical, and leaves
both wall-clock numbers in ``results/BENCH_runtime.json`` via the
conftest timing hook.

No speedup is *asserted*: CI machines may expose a single core, where
the pool's fork overhead makes ``--jobs 4`` slower.  The point of the
record is the ratio on the machine at hand.
"""

from __future__ import annotations

from repro.experiments.fig2 import figure2
from repro.runtime import use_runtime

REDUCED_INTERARRIVALS = (2.0, 10.0, 20.0)
REDUCED_PACKETS = 150


def _tables_equal(a, b) -> bool:
    return all(
        sa.label == sb.label
        and sa.x_values == sb.x_values
        and sa.y_values == sb.y_values
        for table_a, table_b in zip(a, b)
        for sa, sb in zip(table_a.series, table_b.series)
    )


def test_fig2_reduced_serial(benchmark):
    mse, latency = benchmark.pedantic(
        figure2,
        kwargs={
            "interarrivals": REDUCED_INTERARRIVALS,
            "n_packets": REDUCED_PACKETS,
            "seed": 0,
        },
        rounds=1,
    )
    assert len(mse.series) == 3 and len(latency.series) == 3


def test_fig2_reduced_parallel_matches_serial(benchmark):
    serial = figure2(
        interarrivals=REDUCED_INTERARRIVALS, n_packets=REDUCED_PACKETS, seed=0
    )

    def run_parallel():
        with use_runtime(jobs=4):
            return figure2(
                interarrivals=REDUCED_INTERARRIVALS,
                n_packets=REDUCED_PACKETS,
                seed=0,
            )

    parallel = benchmark.pedantic(run_parallel, rounds=1)
    assert _tables_equal(serial, parallel)
