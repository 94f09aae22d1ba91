"""Shared configuration for the benchmark harness.

Every figure/table of the paper has one benchmark module here.  Figure
benches regenerate their artifact at full paper scale (1000 packets per
source, the complete 1/lambda sweep), record the series as an aligned
text table (the textual equivalent of the paper's plot) and assert the
reproduction's shape criteria from DESIGN.md.  They use
``benchmark.pedantic(..., rounds=1)`` because a full regeneration is
tens of seconds; the micro-benchmarks in
``test_bench_micro_kernels.py`` use auto-calibrated rounds instead.

Recorded tables are printed in the terminal summary (so they survive
pytest's output capture) and written to ``benchmarks/results/*.txt``.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

_ARTIFACTS: list[tuple[str, str]] = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"
_TIMINGS: dict[str, float] = {}


def emit(name: str, text: str) -> None:
    """Record a regenerated figure/table for display and archival.

    ``name`` becomes the results file name; ``text`` is the rendered
    table.  Called by the figure benches instead of bare ``print`` so
    the artifact survives pytest's output capture.
    """
    _ARTIFACTS.append((name, text))
    _RESULTS_DIR.mkdir(exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
    (_RESULTS_DIR / f"{safe}.txt").write_text(text + "\n", encoding="utf-8")


@pytest.fixture(scope="session")
def full_scale():
    """Paper-scale parameters shared by the figure benches."""
    return {"n_packets": 1000, "seed": 0}


def pytest_runtest_logreport(report):
    """Collect per-test call durations for the runtime timing JSON."""
    if report.when == "call" and report.passed:
        _TIMINGS[report.nodeid] = report.duration


def pytest_sessionfinish(session, exitstatus):
    """Write ``results/BENCH_runtime.json``: wall-clock per benchmark.

    Includes pytest-benchmark statistics (min/mean/stddev/rounds) when
    the plugin collected any, alongside the coarse call durations, so
    serial-vs-parallel comparisons live in one machine-readable
    artifact.
    """
    if not _TIMINGS:
        return
    payload: dict[str, object] = {
        "call_durations_seconds": dict(sorted(_TIMINGS.items())),
    }
    benchsession = getattr(session.config, "_benchmarksession", None)
    if benchsession is not None and getattr(benchsession, "benchmarks", None):
        stats = {}
        for bench in benchsession.benchmarks:
            try:
                stats[bench.fullname] = {
                    "min": bench.stats.min,
                    "mean": bench.stats.mean,
                    "stddev": bench.stats.stddev,
                    "rounds": bench.stats.rounds,
                }
            except (AttributeError, TypeError):
                continue  # plugin disabled or stats not collected
        if stats:
            payload["benchmark_stats"] = stats
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / "BENCH_runtime.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def pytest_terminal_summary(terminalreporter):
    if not _ARTIFACTS:
        return
    terminalreporter.section("regenerated paper artifacts")
    for name, text in _ARTIFACTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"===== {name} =====")
        for line in text.splitlines():
            terminalreporter.write_line(line)
