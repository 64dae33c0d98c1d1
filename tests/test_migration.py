"""Tests for dynamic LP migration."""

import pytest

from repro.circuit.gate import GateType
from repro.circuit.graph import CircuitGraph
from repro.errors import ConfigError
from repro.partition import PartitionAssignment, get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import TimeWarpSimulator, VirtualMachine
from repro.warped.messages import Message
from repro.warped.parallel import NodeEngine
from repro.warped.queues import NodeQueue
from repro.warped.world import World
from repro.sim.event import SIG


class TestQueueExtraction:
    def entry(self, uid, dest, t=1):
        return Message(t, SIG, 0, uid, 1, dest, uid)

    def test_extracts_only_requested_dests(self):
        q = NodeQueue()
        for uid, dest in ((1, 5), (2, 6), (3, 5), (4, 7)):
            q.push(self.entry(uid, dest))
        moved = q.extract_dests({5})
        assert sorted(m.uid for m in moved) == [1, 3]
        assert len(q) == 2
        assert q.pop().uid in (2, 4)

    def test_extraction_drops_annihilated_entries(self):
        q = NodeQueue()
        q.push(self.entry(1, 5))
        q.push(self.entry(2, 5))
        assert q.annihilate(self.entry(1, 5))
        moved = q.extract_dests({5})
        assert [m.uid for m in moved] == [2]

    def test_remaining_queue_still_ordered(self):
        q = NodeQueue()
        for uid, t in ((1, 9), (2, 3), (3, 6)):
            q.push(self.entry(uid, dest=8, t=t))
        q.push(self.entry(4, dest=5, t=1))
        q.extract_dests({5})
        assert [q.pop().time for _ in range(3)] == [3, 6, 9]


class TestMigrantPolicy:
    """``World.migrants``: the one placement policy of both executives."""

    @staticmethod
    def world() -> World:
        """a, b -> g1 -> g2, and an input c driving nothing: among all
        five, c has no resident neighbour, a, b and g2 one, g1 three."""
        circuit = CircuitGraph("policy")
        a, b, c = (circuit.add_gate(n, GateType.INPUT) for n in "abc")
        g1 = circuit.add_gate("g1", GateType.AND)
        g2 = circuit.add_gate("g2", GateType.NOT)
        circuit.connect(a, g1)
        circuit.connect(b, g1)
        circuit.connect(g1, g2)
        return World(circuit.freeze(), 1, [0] * 5)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("fraction", [0.01, 0.3, 0.5, 0.9, 1.0])
    def test_budget_is_rounded_fraction_clamped(self, n, fraction):
        moved = self.world().migrants(range(n), fraction, lambda g: 0)
        assert len(moved) == min(max(1, round(fraction * n)), n - 1)

    @pytest.mark.parametrize("residents", [[], [3]])
    def test_a_node_of_at_most_one_sheds_nothing(self, residents):
        assert self.world().migrants(residents, 1.0, lambda g: 1) == []

    def test_ranked_by_attachment_then_activity_then_index(self):
        activity = {0: 1.0, 1: 5.0, 2: 0.0, 3: 9.0, 4: 5.0}.__getitem__
        world = self.world()
        # Loosest first (c), then the busier of a, b and g2 (b, g2 tie
        # on activity: lower index), then a; g1 never, whatever its
        # activity — the budget leaves one resident behind.
        assert world.migrants([4, 3, 2, 1, 0], 1.0, activity) == [2, 1, 4, 0]
        # Attachment counts residents only: without g1 every gate is
        # loose, so activity alone ranks them.
        assert world.migrants([0, 1, 2, 4], 1.0, activity) == [1, 4, 0]

    def test_kernel_and_engine_move_the_same_gates(
        self, medium_circuit, monkeypatch
    ):
        """Every choice the virtual kernel makes is the one a process
        engine makes over the same residents with the same ranking (the
        engine ranks by history size: each LP gets as many records as
        its activity's rank)."""
        calls = []
        policy = World.migrants

        def spy(world, residents, fraction, activity):
            residents = list(residents)
            scores = {g: activity(g) for g in residents}
            moved = policy(world, residents, fraction, scores.__getitem__)
            calls.append((residents, fraction, scores, moved))
            return moved

        monkeypatch.setattr(World, "migrants", spy)
        stim = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        result = TimeWarpSimulator(
            medium_circuit, imbalanced_partition(medium_circuit, 4), stim,
            VirtualMachine(num_nodes=4, migration_threshold=1.5,
                           gvt_interval=128, migration_fraction=0.05),
        ).run()
        assert calls and result.migrations == sum(len(c[3]) for c in calls)
        monkeypatch.undo()
        for residents, fraction, scores, moved in calls:
            on_node = set(residents)
            world = World(
                medium_circuit, 2,
                [0 if g in on_node else 1 for g in range(medium_circuit.num_gates)],
            )
            engine = NodeEngine(world, 0, stim, migration_enabled=True)
            rank = {s: r for r, s in enumerate(sorted(set(scores.values())))}
            for g in residents:
                engine.lps[g].processed = [None] * rank[scores[g]]
            payload = engine.extract_migrants(1, fraction, version=1)
            assert payload["gates"] == moved


def imbalanced_partition(circuit, k):
    """Deliberately skewed: 70% of gates on node 0."""
    n = circuit.num_gates
    cut = int(n * 0.7)
    assignment = [0] * n
    for i in range(cut, n):
        assignment[i] = 1 + (i % (k - 1))
    return PartitionAssignment(circuit, k, assignment, algorithm="skewed")


class TestMigration:
    def test_oracle_holds_with_migration(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        seq = SequentialSimulator(medium_circuit, stim).run()
        assignment = imbalanced_partition(medium_circuit, 4)
        result = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=4, migration_threshold=1.5,
                           gvt_interval=128),
        ).run()
        assert result.final_values == seq.final_values
        assert result.migrations > 0

    def test_migration_rescues_skewed_partition(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=25, seed=2)
        assignment = imbalanced_partition(medium_circuit, 4)
        static = TimeWarpSimulator(
            medium_circuit, assignment, stim, VirtualMachine(num_nodes=4)
        ).run()
        dynamic = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=4, migration_threshold=1.5,
                           gvt_interval=256, migration_fraction=0.1),
        ).run()
        assert dynamic.final_values == static.final_values
        assert dynamic.migrations > 0
        assert dynamic.execution_time < static.execution_time

    def test_cold_window_floor_blocks_thrash(self, medium_circuit):
        """Regression: an idle cold node degenerated the threshold test.

        The ratio gate alone (``hot <= threshold * cold``) passes for
        ANY nonzero hot window once the cold window is 0, so LPs
        ping-ponged off the hot node every GVT round however trivial
        the imbalance.  The fix adds an absolute floor — the hot window
        must at least pay for the transfer (``migrate_lp_cost``).
        Pricing the transfer out of reach must therefore pin
        migrations at zero even against this maximally skewed
        partition, where the ratio gate fires constantly.
        """
        from repro.warped import TimeWarpCostModel

        stim = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        seq = SequentialSimulator(medium_circuit, stim).run()
        assignment = imbalanced_partition(medium_circuit, 4)
        result = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(
                num_nodes=4, migration_threshold=1.5, gvt_interval=128,
                cost_model=TimeWarpCostModel(migrate_lp_cost=100.0),
            ),
        ).run()
        assert result.migrations == 0
        assert result.final_values == seq.final_values

    def test_no_migration_when_disabled(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=2)
        assignment = get_partitioner("Random", seed=3).partition(
            medium_circuit, 4
        )
        result = TimeWarpSimulator(
            medium_circuit, assignment, stim, VirtualMachine(num_nodes=4)
        ).run()
        assert result.migrations == 0

    def test_node_stats_track_moves(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=20, seed=2)
        assignment = imbalanced_partition(medium_circuit, 4)
        result = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=4, migration_threshold=1.5,
                           gvt_interval=128),
        ).run()
        assert sum(s.num_lps for s in result.node_stats) == (
            medium_circuit.num_gates
        )
        assert all(s.num_lps > 0 for s in result.node_stats)

    def test_deterministic(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=2)
        assignment = imbalanced_partition(medium_circuit, 4)

        def run():
            return TimeWarpSimulator(
                medium_circuit, assignment, stim,
                VirtualMachine(num_nodes=4, migration_threshold=1.5,
                               gvt_interval=128),
            ).run()

        a, b = run(), run()
        assert a.migrations == b.migrations
        assert a.execution_time == b.execution_time

    def test_combines_with_other_policies(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=2)
        seq = SequentialSimulator(medium_circuit, stim).run()
        assignment = imbalanced_partition(medium_circuit, 4)
        result = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(
                num_nodes=4, migration_threshold=1.5, gvt_interval=128,
                cancellation="lazy", checkpoint_interval=8,
                optimism_window=150,
            ),
        ).run()
        assert result.final_values == seq.final_values

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="migration_threshold"):
            VirtualMachine(num_nodes=2, migration_threshold=0.5)
        with pytest.raises(ConfigError, match="migration_fraction"):
            VirtualMachine(num_nodes=2, migration_fraction=0.0)
