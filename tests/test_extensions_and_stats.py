"""Tests for the E1 extension artifact, utilization stats and report CLI."""

import re

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentRunner
from repro.harness.extensions import generate_speedup, speedup_rows
from repro.partition import get_partitioner
from repro.sim import RandomStimulus
from repro.warped import TimeWarpSimulator, VirtualMachine


@pytest.fixture(scope="module")
def tiny_runner():
    return ExperimentRunner(ExperimentConfig(scale=0.03, num_cycles=12))


class TestSpeedupArtifact:
    def test_rows_cover_table2_cells(self, tiny_runner):
        rows = speedup_rows(tiny_runner)
        assert len(rows) == 4 + 4 + 3  # node counts per circuit
        for circuit, nodes, time, speedup, efficiency in rows:
            assert time > 0
            assert speedup == pytest.approx(
                tiny_runner.sequential_time(circuit) / time
            )
            assert efficiency == pytest.approx(speedup / nodes)

    def test_rendered_table(self, tiny_runner):
        table = generate_speedup(tiny_runner)
        assert "E1" in table and "efficiency" in table
        assert "s15850" in table


class TestUtilization:
    def test_busy_bounded_by_wall(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=2)
        assignment = get_partitioner("Multilevel", seed=3).partition(
            medium_circuit, 4
        )
        result = TimeWarpSimulator(
            medium_circuit, assignment, stim, VirtualMachine(num_nodes=4)
        ).run()
        for stats in result.node_stats:
            assert 0.0 < stats.busy_time <= stats.wall_time + 1e-9
            assert 0.0 < stats.utilization <= 1.0

    def test_single_node_fully_busy(self, small_circuit):
        stim = RandomStimulus(small_circuit, num_cycles=10, seed=2)
        assignment = get_partitioner("Random", seed=3).partition(
            small_circuit, 1
        )
        result = TimeWarpSimulator(
            small_circuit, assignment, stim, VirtualMachine(num_nodes=1)
        ).run()
        # one node never waits for anyone
        assert result.node_stats[0].utilization > 0.99


class TestReportCli:
    def test_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        status = main([
            "report", "--scale", "0.03", "--cycles", "10",
            "--output", str(out),
        ])
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "## Claims" in text
        captured = capsys.readouterr()
        assert str(out) in captured.out
        # Exit 1 exactly when the report grades a claim FAIL, naming it.
        failed = re.findall(r"\*\*\[FAIL\]\*\* (\S+) ", text)
        assert status == (1 if failed else 0)
        if failed:
            assert captured.err.strip() == (
                f"claims that fail: {', '.join(failed)}"
            )

    def test_run_conservative_kernel(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--scale", "0.03", "--cycles", "8",
            "--kernel", "conservative", "--nodes", "2",
        ]) == 0
        assert "CMB" in capsys.readouterr().out


class TestReadmeQuickstart:
    def test_quickstart_block_runs_verbatim(self):
        """The README's quickstart code must actually work."""
        import re
        from pathlib import Path

        readme = Path(__file__).parent.parent / "README.md"
        match = re.search(r"```python\n(.*?)```", readme.read_text(), re.S)
        assert match, "README lost its quickstart block"
        code = match.group(1)
        # shrink the workload so the test stays fast
        code = code.replace("scale=0.1", "scale=0.04")
        code = code.replace("num_cycles=50", "num_cycles=10")
        namespace = {}
        exec(compile(code, "<README quickstart>", "exec"), namespace)


class TestUtilizationTimeline:
    def test_samples_recorded_and_rendered(self, medium_circuit):
        from repro.warped import render_utilization_timeline

        stim = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        assignment = get_partitioner("Multilevel", seed=3).partition(
            medium_circuit, 4
        )
        result = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=4, gvt_interval=128),
        ).run()
        assert result.utilization_timeline
        for wall_now, busy_delta in result.utilization_timeline:
            assert wall_now >= 0
            assert len(busy_delta) == 4
            assert all(b >= 0 for b in busy_delta)
        text = render_utilization_timeline(result, width=40)
        lines = text.splitlines()
        assert len(lines) == 1 + 4  # header + one row per node
        assert all(len(line.split("|")[1]) == 40 for line in lines[1:])

    def test_render_handles_empty_timeline(self, small_circuit):
        from repro.warped import render_utilization_timeline

        stim = RandomStimulus(small_circuit, num_cycles=6, seed=2)
        assignment = get_partitioner("Random", seed=3).partition(
            small_circuit, 2
        )
        result = TimeWarpSimulator(
            small_circuit, assignment, stim,
            VirtualMachine(num_nodes=2, gvt_interval=10**9),
        ).run()
        text = render_utilization_timeline(result)
        assert "no utilization samples" in text
