"""Tests for the waveform trace, peak-history stats and work balancing."""

import pytest

from repro.circuit.netlists import load_s27
from repro.partition import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator, Trace
from repro.warped import TimeWarpSimulator, VirtualMachine


class TestTrace:
    def test_final_values_match_simulation(self):
        circuit = load_s27()
        trace = Trace(circuit)  # watch everything
        stim = RandomStimulus(circuit, num_cycles=20, seed=4)
        result = SequentialSimulator(circuit, stim, trace=trace).run()
        changed = [g for g in range(circuit.num_gates) if trace.changes(g)]
        assert circuit.index_of("G17") in changed
        for gate in changed:
            times = [t for t, _ in trace.changes(gate)]
            assert times == sorted(times)
            assert trace.changes(gate)[-1][1] == result.final_values[gate]


class TestPeakHistory:
    def test_fossil_collection_bounds_memory(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=30, seed=2)
        assignment = get_partitioner("Multilevel", seed=3).partition(
            medium_circuit, 4
        )
        frequent = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=4, gvt_interval=64),
        ).run()
        rare = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=4, gvt_interval=4096),
        ).run()
        assert frequent.peak_history > 0
        assert frequent.peak_history <= rare.peak_history
        assert frequent.final_values == rare.final_values

    def test_peak_tracked_between_gvt_rounds(self, medium_circuit):
        # Regression (ISSUE 3 satellite): the peak used to be sampled
        # only inside run_gvt_round, so a run whose gvt_interval
        # exceeds its event count reported zero. On a single node no
        # event ever rolls back and no fossil sweep fires before
        # quiescence, so the true high-water mark is exactly the full
        # history — which only incremental tracking can see.
        stim = RandomStimulus(medium_circuit, num_cycles=10, seed=2)
        assignment = get_partitioner("Random", seed=1).partition(
            medium_circuit, 1
        )
        result = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=1, gvt_interval=10**9),
        ).run()
        assert result.rollbacks == 0
        assert result.gvt_rounds == 0
        assert result.peak_history == result.events_processed


class TestWorkBalancing:
    def test_vertex_weights_rebalance_load(self, medium_circuit):
        from repro.partition.extra_activity import (
            ActivityMultilevelPartitioner,
        )
        from repro.sim.activity import profile_activity

        profile = profile_activity(medium_circuit, num_cycles=12, seed=5)

        def work_imbalance(assignment, k):
            load = [0] * k
            for gate in range(medium_circuit.num_gates):
                work = 1 + profile.changes[gate] + sum(
                    profile.changes[d] for d in medium_circuit.fanin(gate)
                )
                load[assignment[gate]] += work
            return max(load) / (sum(load) / k)

        weighted = ActivityMultilevelPartitioner(
            seed=3, profile=profile, balance_work=True
        ).partition(medium_circuit, 6)
        unweighted = ActivityMultilevelPartitioner(
            seed=3, profile=profile, balance_work=False
        ).partition(medium_circuit, 6)
        assert work_imbalance(weighted.assignment, 6) <= work_imbalance(
            unweighted.assignment, 6
        ) + 0.05

    def test_vertex_weights_validated(self, s27):
        from repro.partition.multilevel import CoarseGraph

        with pytest.raises(Exception, match="vertex_weights"):
            CoarseGraph.from_circuit(s27, vertex_weights=[1, 2, 3])

    def test_oracle_with_work_balancing(self, medium_circuit):
        from repro.partition.extra_activity import (
            ActivityMultilevelPartitioner,
        )

        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=7)
        seq = SequentialSimulator(medium_circuit, stim).run()
        assignment = ActivityMultilevelPartitioner(seed=3).partition(
            medium_circuit, 4
        )
        tw = TimeWarpSimulator(
            medium_circuit, assignment, stim, VirtualMachine(num_nodes=4)
        ).run()
        assert tw.final_values == seq.final_values
