"""What the benchmark measures, and why: the single source of truth.

``python3 perfbench/run.py --write-manifest`` renders this module into
``BENCHMARK.json`` (the keys the benchmark contract allows) and into
``perfbench/provenance.json`` (everything else: what each workload
stresses and bypasses, its held-out seed, and the end-to-end metric each
layer metric should move).
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: Seed kept out of tuning, for confirming a later performance claim on
#: an input its author did not tune against (``--seed 7``).
HELD_OUT_SEED = 7

WORKLOADS = [
    {
        "name": "fig2-cold",
        "why": "the first repro fig2 a user runs: paper-scale Figure 2 grid, serial, empty result cache on every pass",
        "stresses": ["sim.fastpath", "runtime.cache (writes)", "core.adversary", "core.metrics", "sim.config"],
        "bypasses": ["sim.simulator event engine", "runtime.cache reads"],
    },
    {
        "name": "fig2-warm",
        "why": "the same grid with every cell already cached: cache reads and the sweep, no engine",
        "stresses": ["runtime.cache (reads)", "analysis.sweep/runtime.supervisor", "core.adversary"],
        "bypasses": ["sim (both engines)", "runtime.cache writes"],
    },
    {
        "name": "scenarios-rg1000",
        "why": "1000-node random-geometric scenario, 4 defenses x 2 seeds, no cache: phantom cells run the event engine",
        "stresses": ["sim.simulator event engine", "core.privacy_core", "scenarios.spec", "net.topology", "net.routing"],
        "bypasses": ["runtime.cache", "config.paper_baseline"],
    },
    {
        "name": "serve-open",
        "why": "open-loop Poisson load on an in-process 4-shard service at 2k and 16k ev/s plus a capacity ladder",
        "stresses": ["service.server asyncio pumps", "core.privacy_core"],
        "bypasses": ["sim", "runtime", "core.adversary"],
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "fresh interpreter until the workload's first timed call (imports, spec parsing, runtime or service build); median of 3 per run, scaled to the reference machine speed (perfbench/calibrate.py)"},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25,
     "what": "one pass of the top-level call (figure2(), run_suite()), scaled to the reference machine speed; serve-open: time to send its fixed 2k and 16k ev/s schedules (clock-paced, unscaled); median of the run's passes"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1,
     "what": "peak resident memory of the workload process"},
]

#: (name, unit, better, end-to-end metric and workloads it should move)
PER_LAYER = [
    ("sim.fast.calls", "count", "lower", "wall_s on fig2-cold; 0 on fig2-warm"),
    ("sim.fast.s", "s", "lower", "wall_s on fig2-cold; little on scenarios-rg1000; none on fig2-warm"),
    ("sim.fast.pkts_per_s", "1/s", "higher", "wall_s on fig2-cold"),
    ("sim.event.calls", "count", "lower", "wall_s on scenarios-rg1000; 0 on both fig2 workloads"),
    ("sim.event.s", "s", "lower", "wall_s on scenarios-rg1000; none on fig2"),
    ("sim.event.events_per_s", "1/s", "higher", "wall_s on scenarios-rg1000"),
    ("cache.get.s", "s", "lower", "wall_s on fig2-warm"),
    ("cache.put.s", "s", "lower", "wall_s on fig2-cold"),
    ("cache.hits", "count", "higher", "wall_s on fig2-warm"),
    ("cache.misses", "count", "lower", "wall_s on fig2-cold"),
    ("cache.bytes_read", "B", "lower", "wall_s and peak_rss_mb on fig2-warm"),
    ("cache.bytes_written", "B", "lower", "wall_s on fig2-cold"),
    ("cache.disk_mb", "MB", "lower", "the result cache's size after one grid (fig2 workloads)"),
    ("runtime.sweep.self_s", "s", "lower", "wall_s, most on fig2-warm"),
    ("adversary.estimate_all.s", "s", "lower", "wall_s on fig2-warm and fig2-cold"),
    ("adversary.estimates", "count", "lower", "wall_s on fig2-warm and fig2-cold"),
    ("metrics.score_s", "s", "lower", "wall_s on fig2-warm and fig2-cold"),
    ("config.paper_baseline_s", "s", "lower", "wall_s on the fig2 workloads (the scenarios build configs in scenarios.compile)"),
    ("scenarios.compile.self_s", "s", "lower", "wall_s on scenarios-rg1000"),
    ("net.topology_s", "s", "lower", "wall_s on scenarios-rg1000"),
    ("net.routing_s", "s", "lower", "wall_s on scenarios-rg1000"),
    ("setup.import_s", "s", "lower", "setup_s on every workload"),
    ("service.capacity_eps", "1/s", "higher", "serve-open: highest rate on a fixed ladder (16k ev/s up in twelfth-octave rungs of 0.15 s) whose events keep p99 overhead within 25 ms, with nothing shed and the generator's lag not growing; scaled to the reference machine speed; median of the run's staircases (two per untraced pass)"),
    ("service.submit.p50_us", "us", "lower", "service.capacity_eps and overheads on serve-open"),
    ("service.submit.p99_us", "us", "lower", "service.capacity_eps and overheads on serve-open"),
    ("service.released", "count", "higher", "validity: every admitted event released once (serve-open)"),
    ("service.released_early", "count", "lower", "validity: 0 with buffers sized above occupancy (serve-open)"),
    ("service.shed", "count", "lower", "validity: 0 at the fixed rates (serve-open)"),
    ("core.privacy_core.offer_s", "s", "lower", "service.capacity_eps on serve-open; wall_s on scenarios-rg1000"),
    ("core.privacy_core.poll_due_s", "s", "lower", "service.capacity_eps on serve-open"),
    ("overhead_p50_ms.light", "ms", "lower", "serve-open at 2k ev/s: lateness added beyond the service's own delay"),
    ("overhead_p99_ms.light", "ms", "lower", "serve-open at 2k ev/s"),
    ("overhead_p50_ms.heavy", "ms", "lower", "serve-open at 16k ev/s"),
    ("overhead_p99_ms.heavy", "ms", "lower", "serve-open at 16k ev/s"),
    ("loadgen.lag_p99_ms", "ms", "lower", "validity: the generator kept to its schedule (serve-open, 16k ev/s)"),
    ("loadgen.lag_end_ms", "ms", "lower", "validity: no backlog at the end of the 16k ev/s phase"),
    ("trace.wall_s", "s", "lower", "the traced pass's wall time, which the self times below add up to"),
    ("trace.overhead_frac", "ratio", "lower", "validity: traced vs untraced pass (serve-open: CPU seconds)"),
    ("other.self_s", "s", "lower", "validity: traced wall time not inside a named layer"),
]


def benchmark_json() -> dict:
    """The contract's ``BENCHMARK.json``: exactly its keys."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


def provenance_json() -> dict:
    """Everything about the workloads and metrics that BENCHMARK.json cannot hold."""
    return {
        "held_out_seed": HELD_OUT_SEED,
        "workloads": [dict(w, held_out_seed=HELD_OUT_SEED) for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better, "moves": moves}
            for name, unit, better, moves in PER_LAYER
        ],
    }
