"""Time Warp kernel tests: protocol behaviour and machine model."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.obs.tracer import TraceWriter, read_trace
from repro.partition import PartitionAssignment, get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import (
    FastEthernet,
    TimeWarpCostModel,
    TimeWarpSimulator,
    UniformNetwork,
    VirtualMachine,
)


def run_tw(circuit, k, stim, *, name="Random", seed=3, **machine_kwargs):
    assignment = get_partitioner(name, seed=seed).partition(circuit, k)
    machine = VirtualMachine(num_nodes=k, **machine_kwargs)
    return TimeWarpSimulator(circuit, assignment, stim, machine).run()


class TestSingleNode:
    def test_no_rollbacks_no_messages(self, small_circuit):
        stim = RandomStimulus(small_circuit, num_cycles=10, seed=1)
        result = run_tw(small_circuit, 1, stim)
        assert result.rollbacks == 0
        assert result.app_messages == 0
        assert result.anti_messages == 0
        assert result.events_rolled_back == 0

    def test_matches_sequential(self, small_circuit):
        stim = RandomStimulus(small_circuit, num_cycles=10, seed=1)
        seq = SequentialSimulator(small_circuit, stim).run()
        tw = run_tw(small_circuit, 1, stim)
        assert tw.final_values == seq.final_values


class TestParallelBehaviour:
    def test_rollbacks_happen_under_optimism(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        result = run_tw(medium_circuit, 4, stim)
        assert result.rollbacks > 0, "optimistic run should roll back sometimes"
        assert result.app_messages > 0

    def test_execution_time_decreases_with_nodes(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        t1 = run_tw(medium_circuit, 1, stim).execution_time
        t4 = run_tw(medium_circuit, 4, stim, name="Multilevel").execution_time
        assert t4 < t1

    def test_node_stats_consistent_with_totals(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=10, seed=2)
        r = run_tw(medium_circuit, 4, stim)
        assert sum(s.events_processed for s in r.node_stats) == r.events_processed
        assert sum(s.rollbacks for s in r.node_stats) == r.rollbacks
        assert sum(s.events_rolled_back for s in r.node_stats) == (
            r.events_rolled_back
        )
        assert sum(s.messages_sent_remote for s in r.node_stats) == r.app_messages
        assert sum(s.num_lps for s in r.node_stats) == medium_circuit.num_gates
        assert max(s.wall_time for s in r.node_stats) == r.execution_time

    def test_efficiency_bounds(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=10, seed=2)
        r = run_tw(medium_circuit, 4, stim)
        assert 0.0 < r.efficiency <= 1.0
        assert r.events_committed == r.events_processed - r.events_rolled_back

    def test_gvt_rounds_run(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        r = run_tw(medium_circuit, 4, stim, gvt_interval=64)
        assert r.gvt_rounds > 0

    def test_optimism_window_reduces_rolled_back_work(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=30, seed=2)
        free = run_tw(medium_circuit, 4, stim, name="Multilevel")
        tight = run_tw(
            medium_circuit, 4, stim, name="Multilevel",
            optimism_window=stim.period,
        )
        assert tight.events_rolled_back <= free.events_rolled_back

    def test_deterministic_runs(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=10, seed=2)
        a = run_tw(medium_circuit, 4, stim)
        b = run_tw(medium_circuit, 4, stim)
        assert a.execution_time == b.execution_time
        assert a.events_processed == b.events_processed
        assert a.rollbacks == b.rollbacks
        assert a.app_messages == b.app_messages
        assert a.final_values == b.final_values


class TestOracle:
    """TW must quiesce to the sequential result for every partitioner."""

    @pytest.mark.parametrize(
        "name",
        ["Random", "DFS", "Cluster", "Topological", "Multilevel", "ConePartition"],
    )
    @pytest.mark.parametrize("k", [2, 5])
    def test_matches_sequential(self, medium_circuit, name, k):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=7)
        seq = SequentialSimulator(medium_circuit, stim).run()
        tw = run_tw(medium_circuit, k, stim, name=name)
        assert tw.final_values == seq.final_values

    def test_matches_sequential_with_window(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=7)
        seq = SequentialSimulator(medium_circuit, stim).run()
        tw = run_tw(medium_circuit, 5, stim, name="Multilevel",
                    optimism_window=10)
        assert tw.final_values == seq.final_values

    def test_matches_on_s27(self, s27):
        stim = RandomStimulus(s27, num_cycles=30, seed=11)
        seq = SequentialSimulator(s27, stim).run()
        tw = run_tw(s27, 3, stim)
        assert tw.final_values == seq.final_values


class TestProtocolInternals:
    def test_trace_hook_sees_processing(self, s27, tmp_path):
        """Every event the run keeps is committed exactly once in the
        structured trace, and every rollback leaves one record."""
        stim = RandomStimulus(s27, num_cycles=10, seed=1)
        assignment = get_partitioner("Random", seed=3).partition(s27, 2)
        path = tmp_path / "t.jsonl"
        with TraceWriter(str(path)) as tracer:
            result = TimeWarpSimulator(
                s27, assignment, stim, VirtualMachine(num_nodes=2),
                tracer=tracer,
            ).run()
        records = read_trace(path)
        committed = sum(r["n"] for r in records if r["kind"] == "commit")
        assert committed == result.events_processed - result.events_rolled_back
        rollbacks = [r for r in records if r["kind"] == "rollback"]
        assert len(rollbacks) == result.rollbacks

    def test_every_cancelled_emission_is_resolved(
        self, medium_circuit, tmp_path, cancel_spy
    ):
        """Conservation law: each cancelled emission is annihilated
        exactly once (pending, processed or stashed until arrival)."""
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=7)
        assignment = get_partitioner("Cluster", seed=3).partition(
            medium_circuit, 4
        )
        path = tmp_path / "t.jsonl"
        with TraceWriter(str(path)) as tracer:
            result = TimeWarpSimulator(
                medium_circuit, assignment, stim, VirtualMachine(num_nodes=4),
                tracer=tracer,
            ).run()
        assert result.rollbacks > 0, "want a run that actually rolls back"
        rollbacks = [r for r in read_trace(path) if r["kind"] == "rollback"]
        assert len(rollbacks) == result.rollbacks
        cancelled = sum(len(r["antis"]) for r in rollbacks)
        resolved = (
            cancel_spy["pending"]
            + cancel_spy["processed"]
            + cancel_spy["stashed"]
        )
        assert cancelled == cancel_spy["annihilate"] == resolved
        # A processed copy is undone by exactly one anti-caused rollback.
        assert cancel_spy["processed"] == sum(
            r["cause_kind"] == "anti" for r in rollbacks
        )

    def test_max_events_guard(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=10, seed=1)
        assignment = get_partitioner("Random", seed=3).partition(
            medium_circuit, 2
        )
        sim = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=2), max_events=50,
        )
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()


class TestConfiguration:
    def test_k_must_match_nodes(self, s27):
        stim = RandomStimulus(s27, num_cycles=5, seed=1)
        assignment = get_partitioner("Random", seed=3).partition(s27, 2)
        with pytest.raises(SimulationError, match="machine has"):
            TimeWarpSimulator(s27, assignment, stim, VirtualMachine(num_nodes=3))

    def test_foreign_assignment_rejected(self, s27, small_circuit):
        stim = RandomStimulus(s27, num_cycles=5, seed=1)
        foreign = get_partitioner("Random", seed=3).partition(small_circuit, 2)
        with pytest.raises(SimulationError, match="different circuit"):
            TimeWarpSimulator(s27, foreign, stim, VirtualMachine(num_nodes=2))

    def test_machine_validation(self):
        with pytest.raises(ConfigError):
            VirtualMachine(num_nodes=0)
        with pytest.raises(ConfigError):
            VirtualMachine(num_nodes=2, gvt_interval=0)
        with pytest.raises(ConfigError):
            VirtualMachine(num_nodes=2, optimism_window=0)

    def test_cost_model_validation(self):
        with pytest.raises(ConfigError):
            TimeWarpCostModel(event_cost=0.0)
        with pytest.raises(ConfigError):
            TimeWarpCostModel(rollback_event_cost=-1.0)
        # Regression: these three used to slip through unvalidated.
        with pytest.raises(ConfigError):
            TimeWarpCostModel(coast_event_cost=-1e-6)
        with pytest.raises(ConfigError):
            TimeWarpCostModel(state_save_cost=-1e-6)
        with pytest.raises(ConfigError):
            TimeWarpCostModel(migrate_lp_cost=-1e-6)

    def test_cost_model_state_save_share_bounded(self):
        # state_save_cost is the share of event_cost spent on state
        # saving; at or above the whole event cost the checkpoint-mode
        # per-event charge would go non-positive (the kernel used to
        # clamp it silently).
        with pytest.raises(ConfigError, match="state_save_cost"):
            TimeWarpCostModel(event_cost=100e-6, state_save_cost=100e-6)
        with pytest.raises(ConfigError, match="state_save_cost"):
            TimeWarpCostModel(event_cost=100e-6, state_save_cost=150e-6)
        # Strictly smaller is fine, including zero.
        TimeWarpCostModel(event_cost=100e-6, state_save_cost=99e-6)
        TimeWarpCostModel(state_save_cost=0.0)

    def test_network_models(self):
        net = UniformNetwork(1e-4)
        assert net.latency(0, 0) == 0.0
        assert net.latency(0, 1) == 1e-4
        assert FastEthernet().latency(1, 2) == pytest.approx(150e-6)
        with pytest.raises(ConfigError):
            UniformNetwork(0.0)

    def test_network_latency_affects_execution_time(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=10, seed=2)
        fast = run_tw(medium_circuit, 4, stim, network=UniformNetwork(1e-6))
        slow = run_tw(medium_circuit, 4, stim, network=UniformNetwork(5e-3))
        assert slow.execution_time > fast.execution_time

    def test_summary_string(self, s27):
        stim = RandomStimulus(s27, num_cycles=5, seed=1)
        r = run_tw(s27, 2, stim)
        text = r.summary()
        assert "s27" in text and "x2" in text
