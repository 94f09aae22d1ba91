"""The benchmark's own tests, at reduced scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _workload(name: str, tmp_path: Path, seed: int = 3) -> workloads.Workload:
    workload = workloads.WORKLOADS[name](seed, "small", tmp_path / name)
    workload.import_layers()
    workload.build()
    workload.workdir.mkdir(parents=True, exist_ok=True)
    workload.prepare()
    return workload


def _traced_pass(workload: workloads.Workload):
    recorder = spans.SpanRecorder("test")
    instrumentation = spans.Instrumentation(recorder)
    for group in workload.layers:
        getattr(instrumentation, f"install_{group}")()
    workload.instrumentation = instrumentation
    root = recorder.open("pass")
    try:
        result = workload.run_pass(traced=True)
    finally:
        recorder.close(root)
        instrumentation.remove()
        workload.instrumentation = None
    return result, recorder, recorder.ends[root] - recorder.starts[root]


# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", [w["name"] for w in spec.WORKLOADS])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    completed = _run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.3",
        "--trace", trace, "--scale", "small",
    )
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = (
        [(m["name"], m["unit"]) for m in spec.END_TO_END]
        if trace == "0"
        else [(name, unit) for name, unit, _, _ in spec.PER_LAYER]
    )
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == named
    for name, unit in named:
        assert f"{workload} {name} = " in completed.stdout
        assert completed.stdout.split(f"{workload} {name} = ")[1].split("\n")[0].endswith(unit)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", [w["name"] for w in spec.WORKLOADS])
def test_traced_and_untraced_passes_produce_identical_outputs(name, tmp_path):
    workload = _workload(name, tmp_path)
    try:
        plain = workload.run_pass(traced=False)
        traced, recorder, _ = _traced_pass(workload)
    finally:
        workload.close()
    assert plain.failed == 0 and traced.failed == 0
    assert traced.digest == plain.digest
    assert len(recorder) > 1
    # Every wrapper was taken out again.
    import importlib

    from repro.runtime.cache import ResultCache
    from repro.sim.simulator import SensorNetworkSimulator

    assert not hasattr(ResultCache.get, "__wrapped__")
    assert not hasattr(SensorNetworkSimulator.run, "__wrapped__")
    assert not hasattr(importlib.import_module("repro.analysis.sweep").sweep, "__wrapped__")


def test_corrupted_reference_digest_is_a_failure(tmp_path):
    workload = _workload("fig2-cold", tmp_path)
    try:
        good = workload.run_pass(traced=False)
        assert good.failed == 0
        reference = json.loads(json.dumps(workload.reference))
        cells = reference["fig2"][str(workload.variant)]["cells"]
        cells[1] = "0" * len(cells[1])
        workload.reference = reference
        bad = workload.run_pass(traced=False)
    finally:
        workload.close()
    assert bad.failed == 1
    assert bad.attempted == good.attempted


def test_missing_or_corrupted_panel_reference_fails_every_cell():
    cells = ["a", "b", "c"]
    assert workloads.count_mismatches(None, ["p"], cells) == 3
    assert workloads.count_mismatches({"panels": ["q"], "cells": cells}, ["p"], cells) == 3
    assert workloads.count_mismatches({"panels": ["p"], "cells": cells}, ["p"], cells) == 0


@pytest.mark.parametrize("name", ["fig2-cold", "fig2-warm", "scenarios-rg1000"])
def test_layer_self_times_add_up_to_the_traced_wall_time(name, tmp_path):
    workload = _workload(name, tmp_path)
    try:
        plain = workload.run_pass(traced=False)
        traced, recorder, root_s = _traced_pass(workload)
    finally:
        workload.close()
    for result in (plain, traced):
        result.extra["speed_factor"] = 1.0
    metrics = worker.layer_metrics(workload, recorder, [traced], [plain], [root_s])
    layer_seconds = [
        metrics[key] for key, unit, _, _ in spec.PER_LAYER
        if unit == "s" and key not in ("trace.wall_s", "setup.import_s")
    ]
    assert sum(layer_seconds) == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["other.self_s"] >= 0
    if name.startswith("fig2"):
        assert metrics["sim.event.calls"] == 0
    if name == "fig2-warm":
        assert metrics["sim.fast.calls"] == 0
        assert metrics["cache.hits"] == len(plain.extra["cells"])
        assert metrics["cache.bytes_read"] > 0
    if name == "fig2-cold":
        assert metrics["cache.misses"] == len(plain.extra["cells"])
        assert metrics["cache.bytes_written"] > 0
    if name == "scenarios-rg1000":
        assert metrics["sim.event.calls"] > 0 and metrics["net.topology_s"] > 0


def test_service_checks_count_contract_breaches():
    log = workloads.serve_load.PhaseLog.allocate(4)
    log.sent = 4
    log.outcome[:] = [
        workloads.serve_load.ADMITTED,
        workloads.serve_load.ADMITTED,
        workloads.serve_load.SHED,
        workloads.serve_load.ADMITTED,
    ]
    log.releases[:] = [1, 2, 0, 1]
    log.release_time[:] = [1.0, 1.0, 0.0, 2.0]
    log.released_at[:] = [1.5, 1.5, 0.0, 1.9]  # event 3 released before its time
    assert log.failures() == 3


def test_spans_record_parent_and_self_time():
    recorder = spans.SpanRecorder("unit")
    inner = recorder.wrap("inner", lambda: sum(range(1000)))
    outer = recorder.wrap("outer", lambda: inner() + inner())
    outer()
    arrays = recorder.arrays()
    assert list(arrays["name"]) == ["outer", "inner", "inner"]
    assert list(arrays["parent"]) == [-1, 0, 0]
    own = spans.self_times(arrays)
    duration = arrays["end"] - arrays["start"]
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2])


def test_benchmark_json_matches_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
    assert json.loads((BENCH / "provenance.json").read_text()) == json.loads(
        json.dumps(spec.provenance_json())
    )


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run_bench("--workload", "fig2-cold", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
