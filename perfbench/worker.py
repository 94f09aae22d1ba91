"""One workload process: set up, then run timed passes and report.

Started by ``run.py`` from the root of a checkout.  It prints ``READY``
once set-up is done (``run.py`` times the interval from spawning it),
and, unless ``--probe`` is given, then runs passes for ``--seconds`` and
prints one JSON line with what it measured.

    python3 perfbench/worker.py --workload fig2-cold --seed 3 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from calibrate import Scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _scaled_wall(workload, result) -> float:
    # serve-open's wall time is the length of its send schedule, paced by
    # the clock rather than the CPU, so it is not scaled.
    if workload.name == "serve-open":
        return result.wall_s
    return result.wall_s * result.extra["speed_factor"]


def end_to_end(workload, passes) -> dict:
    return {
        "wall_s": statistics.median(_scaled_wall(workload, p) for p in passes),
        "wall_raw_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def capacity(passes) -> float:
    """Median over the run's staircases, scaled to the reference speed."""
    return statistics.median(
        c / p.extra["speed_factor"] for p in passes for c in p.extra["capacities"]
    )


def service_metrics(passes) -> dict:
    metrics = {}
    for phase in ("light", "heavy"):
        overhead = np.concatenate([p.extra["overhead_ms"][phase] for p in passes])
        metrics[f"overhead_p50_ms.{phase}"] = _percentile(overhead, 50)
        metrics[f"overhead_p99_ms.{phase}"] = _percentile(overhead, 99)
    lags = [p.extra["lag_ms"] for p in passes]
    metrics["loadgen.lag_p99_ms"] = _percentile(np.concatenate(lags), 99)
    metrics["loadgen.lag_end_ms"] = statistics.median(
        _percentile(lag[-max(1, len(lag) // 10):], 50) for lag in lags
    )
    return metrics


def layer_metrics(workload, recorder, traced, untraced, root_spans) -> dict:
    """Per-layer numbers, as means per traced pass."""
    n = len(traced)
    arrays = recorder.arrays()
    totals = spans.layer_totals(arrays)
    layer = {}
    for span_name, entry in totals.items():
        target = spans.LAYER_OF.get(span_name)
        if target is None:
            continue
        agg = layer.setdefault(target, {"self_s": 0.0, "work": 0.0, "calls": 0})
        agg["self_s"] += entry["self_s"] / n
        agg["work"] += entry["work"] / n
        if span_name.endswith(".run") or not span_name.startswith("sim."):
            agg["calls"] += entry["calls"] / n

    def get(name, key="self_s"):
        return layer.get(name, {}).get(key, 0.0)

    def rate(name):
        seconds = get(name)
        return get(name, "work") / seconds if seconds > 0 else 0.0

    traced_wall = statistics.mean(root_spans)
    named_self = sum(entry["self_s"] for entry in layer.values())
    if workload.name == "serve-open":
        # Paced by the clock: compare the CPU the fixed schedule cost.
        cost = [p.cpu_s * p.extra["speed_factor"] for p in untraced + traced]
    else:
        cost = [p.wall_s * p.extra["speed_factor"] for p in untraced + traced]
    base = statistics.median(cost[: len(untraced)])
    with_spans = statistics.median(cost[len(untraced):])
    is_submit = arrays["name"] == "service.submit"
    submit_us = (arrays["end"][is_submit] - arrays["start"][is_submit]) * 1e6

    cache_hits = sum(p.extra.get("cache_hits", 0) for p in traced) / n
    cache_misses = sum(p.extra.get("cache_misses", 0) for p in traced) / n
    metrics = {
        "sim.fast.calls": get("sim.fast", "calls"),
        "sim.fast.s": get("sim.fast"),
        "sim.fast.pkts_per_s": rate("sim.fast"),
        "sim.event.calls": get("sim.event", "calls"),
        "sim.event.s": get("sim.event"),
        "sim.event.events_per_s": rate("sim.event"),
        "cache.get.s": get("cache.get"),
        "cache.put.s": get("cache.put"),
        "cache.hits": cache_hits,
        "cache.misses": cache_misses,
        "cache.bytes_read": sum(p.extra.get("bytes_read", 0) for p in traced) / n,
        "cache.bytes_written": sum(p.extra.get("bytes_written", 0) for p in traced) / n,
        "cache.disk_mb": statistics.median(p.extra.get("cache_bytes", 0) for p in untraced) / 2**20,
        "runtime.sweep.self_s": get("runtime.sweep"),
        "adversary.estimate_all.s": get("adversary.estimate_all"),
        "adversary.estimates": get("adversary.estimate_all", "work"),
        "metrics.score_s": get("metrics.score"),
        "config.paper_baseline_s": get("config.paper_baseline"),
        "scenarios.compile.self_s": get("scenarios.compile"),
        "net.topology_s": get("net.topology"),
        "net.routing_s": get("net.routing"),
        "core.privacy_core.offer_s": get("core.privacy_core.offer"),
        "core.privacy_core.poll_due_s": get("core.privacy_core.poll_due"),
        "service.submit.p50_us": _percentile(submit_us, 50),
        "service.submit.p99_us": _percentile(submit_us, 99),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": with_spans / base - 1.0,
        "other.self_s": traced_wall - named_self,
    }
    if workload.name == "serve-open":
        metrics.update(service_metrics(untraced))
        metrics["service.capacity_eps"] = capacity(untraced)
        for key in ("released", "released_early", "shed"):
            metrics[f"service.{key}"] = sum(p.extra[key] for p in traced) / n
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
    started = time.perf_counter()
    workload.import_layers()
    import_s = time.perf_counter() - started
    workload.build()
    print(f"READY {import_s!r}", flush=True)
    if args.probe:
        return 0
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare()
        untraced, traced, root_spans = [], [], []
        recorder = spans.SpanRecorder(
            f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
        )
        instrumentation = spans.Instrumentation(recorder)
        checked = []
        if args.trace:
            # The first pass of a process pays one-time costs; keep it out
            # of the traced-versus-untraced comparison (its outputs are
            # still checked).
            checked.append(workload.run_pass(traced=False))
        begin = time.perf_counter()
        while True:
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            if trace_this:
                for group in workload.layers:
                    getattr(instrumentation, f"install_{group}")()
                workload.instrumentation = instrumentation
                root = recorder.open("pass")
                try:
                    with Scaled() as scale:
                        result = workload.run_pass(traced=True)
                finally:
                    recorder.close(root)
                    instrumentation.remove()
                    workload.instrumentation = None
                    instrumentation.cache_hit_configs.clear()
                    instrumentation.cache_put_configs.clear()
                root_spans.append(recorder.ends[root] - recorder.starts[root])
                traced.append(result)
            else:
                with Scaled() as scale:
                    result = workload.run_pass(traced=False)
                untraced.append(result)
            result.extra["speed_factor"] = scale.factor
            # Stop before a pass that would end past the time budget.
            elapsed = time.perf_counter() - begin
            typical = statistics.median(p.extra.get("elapsed_s", p.wall_s) for p in untraced + traced)
            if elapsed + typical > args.seconds and (not args.trace or traced):
                break
        passes = checked + untraced + traced
        report = {
            "import_s": import_s,
            "attempted": sum(p.attempted for p in passes),
            "failed": sum(p.failed for p in passes),
            "digests": sorted({p.digest for p in passes}),
            "walls": [p.wall_s for p in untraced],
            "traced_walls": [p.wall_s for p in traced],
            "speed_factors": [p.extra["speed_factor"] for p in untraced + traced],
            "capacities": [p.extra.get("capacities") for p in untraced],
        }
        if args.trace:
            report["layers"] = layer_metrics(workload, recorder, traced, untraced, root_spans)
            if args.spans_out is not None:
                recorder.save(args.spans_out)
        else:
            report["e2e"] = end_to_end(workload, untraced)
        print(json.dumps(report), flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
