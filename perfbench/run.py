"""The repository's benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig2-cold --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (self time per layer, derived from spans recorded
around each layer's public entry points).  Every metric is printed by
name with its unit, and the last line of output is one JSON object::

    {"correct": true, "attempted": 90, "failed": 0, "metrics": {...}}

Set-up time is measured in fresh interpreters: two set-up probes and the
workload process itself, reporting the median.  The workload process
checks every output it produces against digests recorded in
``perfbench/reference.json``; a mismatch is a failed operation.

``--all`` runs every workload untraced and then traced, printing the
whole table.  Other modes: ``--write-manifest`` regenerates ``BENCHMARK.json`` and
``perfbench/provenance.json`` from ``perfbench/spec.py``;
``--record-reference`` recomputes the reference digests (only when the
program's outputs are meant to change).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from calibrate import Scaled  # noqa: E402

#: Set-up samples per run: this many probes plus the workload process.
SETUP_PROBES = 2
#: Every run must end within this many seconds.
RUN_DEADLINE_S = 170.0
#: A fixed string-hash seed, so that runs do not differ by their dict and
#: set layouts; the outputs do not depend on it.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_command(args, probe: bool) -> list[str]:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    if probe:
        command.append("--probe")
    elif args.trace:
        command += ["--spans-out", str(ROOT / ".perfbench_out" / f"spans-{args.workload}.npz")]
    return command


def _spawn(args, probe: bool, deadline: float) -> tuple[float, float, list[str]]:
    """Start a worker; returns (set-up seconds, import seconds, later lines)."""
    with Scaled() as scale:
        started = time.perf_counter()
        process = subprocess.Popen(
            _worker_command(args, probe), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env=WORKER_ENV,
        )
        ready = process.stdout.readline()
        setup_raw_s = time.perf_counter() - started
    setup_s = scale.seconds(setup_raw_s)
    try:
        if not ready.startswith("READY "):
            raise BenchmarkError(f"{args.workload}: worker failed during set-up")
        import_s = float(ready.split()[1])
        remaining = max(1.0, deadline - time.perf_counter())
        out, _ = process.communicate(timeout=remaining)
    except BaseException:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise BenchmarkError(f"{args.workload}: worker exited with {process.returncode}")
    return setup_s, import_s, out.splitlines()


def run(args) -> tuple[dict, dict]:
    """Set-up probes plus one workload process: (worker report, result)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        setup_s, import_s, _ = _spawn(args, probe=True, deadline=deadline)
        setups.append(setup_s)
        imports.append(import_s)
    setup_s, import_s, lines = _spawn(args, probe=False, deadline=deadline)
    setups.append(setup_s)
    imports.append(import_s)
    if not lines:
        raise BenchmarkError(f"{args.workload}: worker printed no report")
    report = json.loads(lines[-1])

    if args.trace:
        measured = dict(report["layers"], **{"setup.import_s": statistics.median(imports)})
        wanted = [(name, unit) for name, unit, _, _ in spec.PER_LAYER]
        metrics = {name: measured.get(name, 0.0) for name, _ in wanted}
    else:
        measured = dict(report["e2e"], setup_s=statistics.median(setups))
        wanted = [(m["name"], m["unit"]) for m in spec.END_TO_END]
        metrics = {name: measured[name] for name, _ in wanted}
    # Every pass of a run computes the same inputs, so every pass must
    # produce the same output.
    consistent = len(report["digests"]) == 1
    return report, {
        "correct": report["failed"] == 0 and consistent,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]) + (0 if consistent else 1),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in wanted},
    }


def write_manifest() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    (HERE / "provenance.json").write_text(json.dumps(spec.provenance_json(), indent=2) + "\n")


def record_reference() -> None:
    """Recompute every variant's output digests from the current program."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    reference: dict = {}
    for scale in ("full", "small"):
        entry = reference.setdefault(scale, {})
        for key, cls in (("fig2", workloads.Fig2Cold), ("scenarios", workloads.ScenariosRG1000)):
            for variant in range(workloads.VARIANTS):
                workload = cls(variant, scale, ROOT / ".perfbench_work" / "reference")
                workload.import_layers()
                workload.build()
                try:
                    result = workload.run_pass(traced=False)
                finally:
                    workload.close()
                entry.setdefault(key, {})[str(variant)] = {
                    "panels": result.extra["panels"],
                    "cells": result.extra["cells"],
                }
                print(f"{scale} {key} variant {variant}: {result.extra['panels'][0][:12]}", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the benchmark's own tests")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_manifest:
        write_manifest()
        return 0
    if args.record_reference:
        record_reference()
        return 0
    if args.all:
        # Every workload, untraced then traced: the whole table at once.
        status = 0
        for workload in spec.WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace = workload["name"], trace
                status |= _report(args)
        return status
    if args.workload is None:
        parser.error("--workload or --all is required")
    return _report(args)


def _report(args) -> int:
    try:
        report, result = run(args)
    except (BenchmarkError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{args.workload} wall_raw_s = {report['e2e']['wall_raw_s']:.6g} s (unscaled median)")
    error_rate = result["failed"] / result["attempted"]
    print(f"{args.workload} error_rate = {error_rate:.6g} ({result['failed']} of {result['attempted']} failed)")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
