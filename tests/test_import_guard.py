"""The user entry points import neither scipy nor networkx.

scipy is imported inside the few functions that need it and the
repository has no graph library, so `repro fig2`, `repro scenarios`
and `repro serve` start without paying for either.  Each case runs in
a fresh interpreter: the test session itself has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = (
    "repro.cli",
    "repro.experiments.fig2",
    "repro.scenarios.runner",
    "repro.scenarios.spec",
    "repro.service.server",
)


def _heavy_modules_after(code: str) -> list[str]:
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('scipy', 'networkx'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_imports_no_scipy_or_networkx(module):
    assert _heavy_modules_after(f"import {module}") == []


def test_small_figure2_run_loads_no_scipy():
    code = (
        "from repro.experiments.fig2 import figure2\n"
        "mse, latency = figure2(interarrivals=[4.0], n_packets=30)\n"
        "assert len(mse.series) == 3 and len(latency.series) == 3\n"
    )
    assert _heavy_modules_after(code) == []
