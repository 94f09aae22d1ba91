"""Bit-identical determinism: parallel sweeps equal serial sweeps.

The non-negotiable property of the runtime layer: because every
simulation derives all randomness from its configuration's seed via
named RNG streams, ``--jobs N`` must produce byte-identical results to
the serial loop -- asserted here with ``==`` on floats, not approx.
"""

from repro.analysis.sweep import sweep
from repro.experiments.common import build_adversary, run_paper_case, score_flow
from repro.runtime import use_runtime

LOADS = (2.0, 10.0, 20.0)


def _series(interarrival: float):
    result = run_paper_case(
        interarrival=interarrival, case="rcad", n_packets=80, seed=5
    )
    metrics = score_flow(result, build_adversary("adaptive", "rcad"), flow_id=1)
    return (
        [r.created_at for r in result.records],
        [r.delivered_at for r in result.records],
        [r.hop_count for r in result.records],
        metrics,
    )


class TestParallelDeterminism:
    def test_simulation_series_bit_identical(self):
        serial = sweep(list(LOADS), _series)
        with use_runtime(jobs=4):
            parallel = sweep(list(LOADS), _series)

        for (s_create, s_arrive, s_hops, s_metrics), (
            p_create, p_arrive, p_hops, p_metrics,
        ) in zip(serial, parallel):
            assert s_create == p_create
            assert s_arrive == p_arrive
            assert s_hops == p_hops

    def test_flow_metrics_bit_identical(self):
        serial = sweep(list(LOADS), _series)
        with use_runtime(jobs=4):
            parallel = sweep(list(LOADS), _series)

        for (_, _, _, s_metrics), (_, _, _, p_metrics) in zip(serial, parallel):
            assert s_metrics.mse == p_metrics.mse
            assert s_metrics.rmse == p_metrics.rmse
            assert s_metrics.n_packets == p_metrics.n_packets
            assert s_metrics.latency.mean == p_metrics.latency.mean
            assert s_metrics.latency.p95 == p_metrics.latency.p95

    def test_figure_drivers_bit_identical(self):
        from repro.experiments.fig2 import figure2
        from repro.experiments.fig3 import figure3

        serial2 = figure2(interarrivals=LOADS, n_packets=60, seed=2)
        serial3 = figure3(interarrivals=LOADS, n_packets=60, seed=2)
        with use_runtime(jobs=4):
            parallel2 = figure2(interarrivals=LOADS, n_packets=60, seed=2)
            parallel3 = figure3(interarrivals=LOADS, n_packets=60, seed=2)

        for s_table, p_table in zip(serial2 + (serial3,), parallel2 + (parallel3,)):
            for s, p in zip(s_table.series, p_table.series):
                assert s.label == p.label
                assert s.x_values == p.x_values
                assert s.y_values == p.y_values

    def test_simulation_count_survives_worker_merge(self):
        with use_runtime(jobs=4) as ctx:
            sweep(list(LOADS), _series)
        assert ctx.stats.simulations == len(LOADS)


class TestFabricDeterminism:
    """The distributed fabric is held to the same bar as --jobs N:
    bit-identical to the serial executor, asserted with ``==``."""

    def test_fabric_bit_identical_to_serial(self, tmp_path):
        from repro.experiments.fig2 import fig2_cell, fig2_cells
        from repro.runtime.fabric import FabricConfig, run_fabric

        cells = fig2_cells(LOADS, n_packets=60, seed=2)
        serial = [fig2_cell(cell) for cell in cells]
        results, report = run_fabric(
            fig2_cell, cells,
            config=FabricConfig(
                workers=2, lease_ttl=10.0, heartbeat_interval=1.0,
                poll_interval=0.05, fabric_dir=tmp_path / "fab",
            ),
            label="determinism",
        )
        assert results == serial  # == on floats, not approx
        assert not report.degraded
        assert not report.failed

    def test_fabric_tables_bit_identical_to_figure2(self, tmp_path):
        from repro.experiments.fig2 import (
            fig2_cell,
            fig2_cells,
            fig2_tables,
            figure2,
        )
        from repro.runtime.fabric import FabricConfig, run_fabric

        serial_mse, serial_latency = figure2(
            interarrivals=LOADS, n_packets=60, seed=2
        )
        cells = fig2_cells(LOADS, n_packets=60, seed=2)
        results, _ = run_fabric(
            fig2_cell, cells,
            config=FabricConfig(
                workers=2, lease_ttl=10.0, heartbeat_interval=1.0,
                poll_interval=0.05, fabric_dir=tmp_path / "fab",
            ),
            label="tables",
        )
        fabric_mse, fabric_latency = fig2_tables(cells, results)
        for serial_table, fabric_table in (
            (serial_mse, fabric_mse), (serial_latency, fabric_latency)
        ):
            for s, p in zip(serial_table.series, fabric_table.series):
                assert s.label == p.label
                assert s.x_values == p.x_values
                assert s.y_values == p.y_values


class TestFabricBackendDeterminism:
    def test_scenarios_example_through_fabric_matches_serial(
        self, tmp_path, capsys
    ):
        """A non-fig2 verb on the fabric prints serial-identical summaries."""
        from repro.cli import main

        assert main(["scenarios", "--example"]) == 0
        suite = tmp_path / "suite.json"
        suite.write_text(capsys.readouterr().out)
        serial_json, fabric_json = tmp_path / "serial.json", tmp_path / "fabric.json"

        argv = ["scenarios", str(suite), "--no-cache", "--json"]
        assert main(argv + [str(serial_json)]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + [
            str(fabric_json), "--fabric-dir", str(tmp_path / "fab"),
            "--jobs", "2",
        ]) == 0
        fabric_out = capsys.readouterr().out

        assert fabric_json.read_bytes() == serial_json.read_bytes()
        table = serial_out.split("wrote ")[0]
        assert fabric_out.split("wrote ")[0] == table
        assert "fabric: 12 cells (0 resumed, 12 computed)" in fabric_out
