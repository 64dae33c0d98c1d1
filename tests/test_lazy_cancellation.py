"""Tests for lazy cancellation (the alternative WARPED policy)."""

import pytest

from repro.errors import ConfigError
from repro.obs.tracer import TraceWriter, read_trace
from repro.partition import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import TimeWarpSimulator, VirtualMachine


def run(circuit, stim, k, *, cancellation, name="Cluster", **kwargs):
    assignment = get_partitioner(name, seed=3).partition(circuit, k)
    machine = VirtualMachine(
        num_nodes=k, cancellation=cancellation, **kwargs
    )
    return TimeWarpSimulator(circuit, assignment, stim, machine).run()


class TestLazyCorrectness:
    @pytest.mark.parametrize(
        "name",
        ["Random", "DFS", "Cluster", "Topological", "Multilevel",
         "ConePartition"],
    )
    def test_matches_sequential(self, medium_circuit, name):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=7)
        seq = SequentialSimulator(medium_circuit, stim).run()
        result = run(medium_circuit, stim, 4, cancellation="lazy", name=name)
        assert result.final_values == seq.final_values

    def test_matches_with_window(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=7)
        seq = SequentialSimulator(medium_circuit, stim).run()
        result = run(
            medium_circuit, stim, 5, cancellation="lazy", optimism_window=20
        )
        assert result.final_values == seq.final_values

    def test_single_node_trivially_clean(self, small_circuit):
        stim = RandomStimulus(small_circuit, num_cycles=10, seed=1)
        result = run(small_circuit, stim, 1, cancellation="lazy")
        assert result.rollbacks == 0
        assert result.lazy_reuses == 0


class TestLazyBehaviour:
    def test_reuses_happen(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=25, seed=2)
        result = run(medium_circuit, stim, 4, cancellation="lazy")
        assert result.rollbacks > 0
        assert result.lazy_reuses > 0, (
            "value-correct speculation should be reused, not cancelled"
        )

    def test_reuse_plus_cancel_covers_all_undone_sends(
        self, medium_circuit, tmp_path, cancel_spy
    ):
        """Lazy never both reuses and cancels the same send: every
        rolled-back remote emission ends as exactly one of the two.
        (Whether lazy sends fewer antis overall is workload-dependent —
        wrong speculation propagates further before cancellation and
        can amplify cascades; ablation A6 reports the comparison.)"""
        stim = RandomStimulus(medium_circuit, num_cycles=25, seed=2)
        assignment = get_partitioner("Cluster", seed=3).partition(
            medium_circuit, 4
        )
        machine = VirtualMachine(num_nodes=4, cancellation="lazy")
        path = tmp_path / "t.jsonl"
        with TraceWriter(str(path)) as tracer:
            result = TimeWarpSimulator(
                medium_circuit, assignment, stim, machine, tracer=tracer,
            ).run()
        assert result.rollbacks > 0
        assert result.lazy_reuses > 0
        undone = sum(
            len(r["antis"]) for r in read_trace(path) if r["kind"] == "rollback"
        )
        resolved = (
            cancel_spy["pending"]
            + cancel_spy["processed"]
            + cancel_spy["stashed"]
        )
        assert cancel_spy["annihilate"] == resolved
        assert undone == cancel_spy["annihilate"] + result.lazy_reuses

    def test_aggressive_mode_never_reuses(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=2)
        result = run(medium_circuit, stim, 4, cancellation="aggressive")
        assert result.lazy_reuses == 0

    def test_deterministic(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=2)
        a = run(medium_circuit, stim, 4, cancellation="lazy")
        b = run(medium_circuit, stim, 4, cancellation="lazy")
        assert a.execution_time == b.execution_time
        assert a.lazy_reuses == b.lazy_reuses


class TestConfig:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigError, match="cancellation"):
            VirtualMachine(num_nodes=2, cancellation="optimistic-ish")
