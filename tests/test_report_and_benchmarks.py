"""Tests for the claims list, the report generator and the extended
benchmark family."""

import pathlib
import re

import pytest

from repro.circuit import circuit_stats, load_benchmark, validate_circuit
from repro.circuit.iscas89 import (
    BENCHMARKS,
    EXTENDED_BENCHMARKS,
    all_benchmarks,
)
from repro.circuit.netlists import S27_BENCH, load_s27
from repro.errors import ConfigError
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import ExperimentRunner
from repro.harness.claims import CLAIMS, evaluate
from repro.harness.report import generate_report


class TestExtendedBenchmarks:
    def test_families_disjoint(self):
        assert not set(BENCHMARKS) & set(EXTENDED_BENCHMARKS)
        assert len(all_benchmarks()) == len(BENCHMARKS) + len(
            EXTENDED_BENCHMARKS
        )

    @pytest.mark.parametrize(
        "name", ["s298", "s420", "s641", "s1423", "s1494"]
    )
    def test_small_family_members_generate_exactly(self, name):
        spec = EXTENDED_BENCHMARKS[name]
        circuit = load_benchmark(name)
        validate_circuit(circuit)
        stats = circuit_stats(circuit)
        assert stats.num_inputs == spec.num_inputs
        assert stats.num_gates == spec.num_gates
        assert stats.num_outputs == spec.num_outputs
        assert stats.num_dffs == spec.num_dffs

    def test_large_members_scale(self):
        circuit = load_benchmark("s38417", scale=0.02)
        validate_circuit(circuit)
        # Table-1 convention: logic elements, excluding primary inputs.
        assert circuit_stats(circuit).num_gates == round(23815 * 0.02)

    def test_unknown_name_lists_s27(self):
        with pytest.raises(ConfigError, match="s27"):
            load_benchmark("s99999")


class TestRealS27:
    def test_loads_real_netlist(self):
        circuit = load_benchmark("s27")
        stats = circuit_stats(circuit)
        assert stats.table1_row() == ("s27", 4, 13, 1)
        assert stats.num_dffs == 3

    def test_scale_rejected_for_real_netlist(self):
        with pytest.raises(ConfigError, match="real netlist"):
            load_benchmark("s27", scale=0.5)

    def test_embedded_source_parses_to_same_graph(self):
        from repro.circuit import parse_bench

        a = load_s27()
        b = parse_bench(S27_BENCH, name="s27")
        assert sorted(a.edges()) == sorted(b.edges())

    def test_simulates_and_partitions(self):
        from repro.partition import get_partitioner
        from repro.sim import RandomStimulus, SequentialSimulator
        from repro.warped import TimeWarpSimulator, VirtualMachine

        circuit = load_s27()
        stim = RandomStimulus(circuit, num_cycles=20, seed=3)
        seq = SequentialSimulator(circuit, stim).run()
        a = get_partitioner("Multilevel", seed=1).partition(circuit, 3)
        tw = TimeWarpSimulator(
            circuit, a, stim, VirtualMachine(num_nodes=3)
        ).run()
        assert tw.final_values == seq.final_values


BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


class TestReport:
    @pytest.fixture(scope="class")
    def tiny_runner(self):
        return ExperimentRunner(ExperimentConfig(scale=0.03, num_cycles=12))

    def test_every_claim_renders_with_evidence(self, tiny_runner):
        verdicts = evaluate(tiny_runner)
        assert [v.claim for v in verdicts] == list(CLAIMS)
        assert len({c.id for c in CLAIMS}) == len(CLAIMS)
        report = generate_report(tiny_runner)
        for v in verdicts:
            assert v.mark in ("PASS", "FAIL", "n/a")
            assert (v.mark == "n/a") == (
                tiny_runner.config.scale < v.claim.min_scale
            )
            assert isinstance(v.evidence, str) and v.evidence
            line = f"**[{v.mark}]** {v.claim.id} ({v.claim.artifact})"
            assert line in report

    def test_single_node_claims_hold_at_tiny_scale(self, tiny_runner):
        holds = {v.claim.id: v.holds for v in evaluate(tiny_runner)}
        assert holds["F5a"] is True  # no messages on one node
        assert holds["F6a"] is True  # no rollbacks on one node

    def test_every_claimed_artifact_has_a_bench_asserting_it(self):
        asserted = set()
        for bench in BENCHMARKS_DIR.glob("bench_*.py"):
            asserted.update(
                re.findall(r'assert_claims\(runner, "([^"]+)"\)',
                           bench.read_text())
            )
        assert {c.artifact for c in CLAIMS} <= asserted

    def test_cli_report_exits_1_naming_a_failed_claim(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro import cli
        from repro.harness import claims

        monkeypatch.setattr(claims, "CLAIMS", (
            claims.Claim("OK", "Table 1", "holds", lambda r: (True, "yes")),
            claims.Claim("BAD", "Table 1", "fails", lambda r: (False, "no")),
            claims.Claim("BIG", "Table 1", "n/a", lambda r: (False, "no"),
                         min_scale=1.0),
        ))
        out = tmp_path / "report.md"
        argv = ["report", "--scale", "0.03", "--cycles", "12",
                "--output", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.strip() == "claims that fail: BAD"
        assert "**[n/a]** BIG" in out.read_text()
        monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS[:1])
        assert cli.main(argv) == 0

    def test_report_contains_all_sections(self, tiny_runner):
        report = generate_report(tiny_runner)
        for section in (
            "# Reproduction report",
            "## Claims",
            "## Table 1",
            "## Table 2",
            "## Figure 4",
            "## Figure 5",
            "## Figure 6",
            "## E1",
        ):
            assert section in report
        assert "PASS" in report  # at least something holds even when tiny
