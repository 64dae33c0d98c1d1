"""Tests for the experiment harness (tiny configurations)."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.harness import experiment
from repro.harness.config import (
    ALGORITHMS,
    FIGURE_NODE_COUNTS,
    TABLE2_NODE_COUNTS,
    ExperimentConfig,
)
from repro.harness.experiment import ExperimentRunner
from repro.harness.figures import fig5_series, fig6_series
from repro.harness.table1 import PAPER_TABLE1, generate_table1, table1_rows
from repro.harness.table2 import PAPER_TABLE2, generate_table2
from repro.warped import TimeWarpCostModel, UniformNetwork


@pytest.fixture(scope="module")
def tiny_runner():
    return ExperimentRunner(ExperimentConfig(scale=0.03, num_cycles=12))


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.scale == 0.12
        assert config.optimism_window == config.period

    def test_unbounded_window(self):
        config = ExperimentConfig(window_periods=None)
        assert config.optimism_window is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scale=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(num_cycles=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(window_periods=-1.0)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        monkeypatch.setenv("REPRO_CYCLES", "99")
        config = ExperimentConfig.from_env()
        assert config.scale == 0.5
        assert config.num_cycles == 99

    def test_env_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        config = ExperimentConfig.from_env()
        assert config.scale == 1.0
        assert config.num_cycles == 400

    def test_describe_mentions_scale(self):
        assert "scale=0.12" in ExperimentConfig().describe()

    def test_paper_node_counts(self):
        # the s15850 2-node row is missing in the paper (out of memory)
        assert TABLE2_NODE_COUNTS["s15850"] == (4, 6, 8)
        assert 1 in FIGURE_NODE_COUNTS and 8 in FIGURE_NODE_COUNTS


class TestRunnerCaching:
    def test_circuit_cached(self, tiny_runner):
        assert tiny_runner.circuit("s9234") is tiny_runner.circuit("s9234")

    def test_run_cached(self, tiny_runner):
        a = tiny_runner.run("s9234", "Random", 2)
        b = tiny_runner.run("s9234", "Random", 2)
        assert a is b

    def test_partition_cached_per_key(self, tiny_runner):
        p1 = tiny_runner.partition("s9234", "Random", 2)
        p2 = tiny_runner.partition("s9234", "Random", 4)
        assert p1 is not p2
        assert p1 is tiny_runner.partition("s9234", "Random", 2)

    def test_oracle_checked_on_every_run(self, tiny_runner):
        record = tiny_runner.record("s9234", "Multilevel", 3)
        seq = tiny_runner.sequential("s9234")
        assert record.events_processed >= seq.events_processed
        tw = tiny_runner.run("s9234", "Multilevel", 3)
        assert tw.final_values == seq.final_values


class TestPolicyPath:
    """Every artifact cell runs through ``run``/``simulate``: one
    machine from the config, one oracle check."""

    def test_default_valued_policy_is_the_static_cell(self, tiny_runner):
        static = tiny_runner.run("s9234", "Random", 2)
        config = tiny_runner.config
        assert tiny_runner.run(
            "s9234", "Random", 2, checkpoint_interval=None
        ) is static
        assert tiny_runner.run(
            "s9234", "Random", 2,
            optimism_window=config.optimism_window,
            gvt_interval=config.gvt_interval,
        ) is static

    def test_policy_cell_cached_separately(self, tiny_runner):
        static = tiny_runner.run("s9234", "Random", 2)
        dynamic = tiny_runner.run(
            "s9234", "Random", 2, migration_threshold=1.5
        )
        assert dynamic is not static
        assert dynamic.migrations > 0 and static.migrations == 0
        assert tiny_runner.run(
            "s9234", "Random", 2, migration_threshold=1.5
        ) is dynamic

    def test_equal_networks_share_a_cell(self, tiny_runner):
        # Networks compare by value: two separately built models of the
        # same delay key one cache entry, a different delay another.
        first = tiny_runner.run(
            "s9234", "Random", 2, network=UniformNetwork(1e-4)
        )
        assert tiny_runner.run(
            "s9234", "Random", 2, network=UniformNetwork(1e-4)
        ) is first
        assert tiny_runner.run(
            "s9234", "Random", 2, network=UniformNetwork(2e-4)
        ) is not first

    def test_machine_takes_config_then_policy(self, tiny_runner):
        machine = tiny_runner.machine(3, cancellation="lazy")
        assert machine.num_nodes == 3
        assert machine.cancellation == "lazy"
        assert machine.optimism_window == tiny_runner.config.optimism_window
        assert machine.cost_model == TimeWarpCostModel()

    def test_conservative_kernel_agrees_with_oracle(self, tiny_runner):
        cmb = tiny_runner.run("s9234", "DFS", 2, kernel="conservative")
        assert "CMB" in cmb.summary()
        assert cmb.final_values == tiny_runner.sequential("s9234").final_values
        assert tiny_runner.run(
            "s9234", "DFS", 2, kernel="conservative"
        ) is cmb

    def test_conservative_kernel_refused_on_process_backend(self):
        runner = ExperimentRunner(
            ExperimentConfig(scale=0.03, num_cycles=12, backend="process")
        )
        with pytest.raises(ConfigError, match="conservative"):
            runner.run("s9234", "DFS", 2, kernel="conservative")

    def test_captures_differing_from_oracle_refused(
        self, tiny_runner, monkeypatch
    ):
        real_run = experiment.TimeWarpSimulator.run

        def drop_last_capture(simulator):
            result = real_run(simulator)
            assert result.committed_captures
            result.committed_captures = result.committed_captures[:-1]
            return result

        monkeypatch.setattr(
            experiment.TimeWarpSimulator, "run", drop_last_capture
        )
        assignment = tiny_runner.partition("s9234", "Random", 2)
        with pytest.raises(AssertionError, match="committed captures"):
            tiny_runner.simulate("s9234", assignment)

    def test_disagreement_names_the_first_difference(self, tiny_runner):
        oracle = tiny_runner.sequential("s9234")
        result = tiny_runner.run("s9234", "Random", 2)
        assert oracle.disagreement(result) is None
        wrong = dataclasses.replace(
            result, final_values=[1 - v for v in result.final_values]
        )
        assert "final values" in oracle.disagreement(wrong)


class TestArtifacts:
    def test_table1_renders_and_annotates_paper(self, tiny_runner):
        table = generate_table1(tiny_runner)
        assert "s9234" in table and "5597" in table  # paper column

    def test_table1_rows_cover_all_benchmarks(self, tiny_runner):
        rows = table1_rows(tiny_runner)
        assert len(rows) == 3
        assert {r[0].split("@")[0] for r in rows} == set(PAPER_TABLE1)

    def test_table2_renders(self, tiny_runner):
        table = generate_table2(tiny_runner)
        for algorithm in ALGORITHMS:
            assert algorithm in table
        # paper reference data is complete and self-consistent
        for (circuit, nodes), row in PAPER_TABLE2.items():
            assert circuit in PAPER_TABLE1
            assert len(row) == 1 + len(ALGORITHMS)

    def test_figure_series_shapes(self, tiny_runner):
        for series in (fig5_series(tiny_runner), fig6_series(tiny_runner)):
            assert set(series) == set(ALGORITHMS)
            for values in series.values():
                assert len(values) == len(FIGURE_NODE_COUNTS)
                assert values[0] == 0  # one node: no messages/rollbacks


class TestRepetitions:
    def test_record_averages_over_reps(self):
        config = ExperimentConfig(scale=0.03, num_cycles=10, repetitions=3)
        runner = ExperimentRunner(config)
        averaged = runner.record("s9234", "Random", 2)
        singles = [runner.run("s9234", "Random", 2, rep) for rep in range(3)]
        assert averaged.execution_time == pytest.approx(
            sum(r.execution_time for r in singles) / 3
        )
        assert averaged.app_messages == round(
            sum(r.app_messages for r in singles) / 3
        )

    def test_reps_use_distinct_stimuli(self):
        config = ExperimentConfig(scale=0.03, num_cycles=10, repetitions=2)
        runner = ExperimentRunner(config)
        a = runner.stimulus("s9234", 0)
        b = runner.stimulus("s9234", 1)
        pi = runner.circuit("s9234").primary_inputs[0]
        assert [a.value(pi, c) for c in range(10)] != [
            b.value(pi, c) for c in range(10)
        ] or a.seed != b.seed

    def test_sequential_time_is_mean(self):
        config = ExperimentConfig(scale=0.03, num_cycles=10, repetitions=2)
        runner = ExperimentRunner(config)
        mean = runner.sequential_time("s5378")
        parts = [runner.sequential("s5378", r).execution_time for r in (0, 1)]
        assert mean == pytest.approx(sum(parts) / 2)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "4")
        assert ExperimentConfig.from_env().repetitions == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(repetitions=0)
