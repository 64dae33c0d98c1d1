"""Unit tests for the three multilevel phases in isolation."""

import time

import numpy as np
import pytest

from repro.partition.multilevel import (
    CoarseGraph,
    MultilevelPartitioner,
    coarsen,
    coarsen_once,
    fm_refine,
    greedy_refine,
    initial_partition,
    kl_refine,
)
from repro.partition.multilevel.refine_greedy import cut_weight, move_gains


@pytest.fixture()
def level0(medium_circuit):
    return CoarseGraph.from_circuit(medium_circuit)


class TestCoarseGraph:
    def test_from_circuit_counts(self, medium_circuit, level0):
        assert level0.n == medium_circuit.num_gates
        assert level0.total_weight == medium_circuit.num_gates
        assert level0.edge_weight_total() == medium_circuit.num_edges

    def test_input_flags(self, medium_circuit, level0):
        assert sorted(level0.input_globules) == sorted(
            medium_circuit.primary_inputs
        )

    def test_contract_weights_sum(self, level0):
        groups, _ = coarsen_once(level0, merge_all=True)
        coarse = level0.contract(groups)
        assert sum(coarse.weight) == level0.total_weight
        assert coarse.total_weight == level0.total_weight

    def test_contract_preserves_edge_weight_minus_internal(self, level0):
        groups, _ = coarsen_once(level0, merge_all=True)
        coarse = level0.contract(groups)
        # Edges internal to a group vanish; the rest keep their weight.
        coarse_of = {}
        for gi, group in enumerate(groups):
            for v in group:
                coarse_of[v] = gi
        external = 0
        for u in range(level0.n):
            for v, w in level0.fanout[u].items():
                if coarse_of[u] != coarse_of[v]:
                    external += w
        assert coarse.edge_weight_total() == external

    def test_contract_rejects_double_cover(self, level0):
        groups = [[0, 1], [1, 2]]
        with pytest.raises(Exception, match="two coarsening groups"):
            level0.contract(groups)

    def test_project_assigns_members(self, level0):
        groups, _ = coarsen_once(level0, merge_all=True)
        coarse = level0.contract(groups)
        partition = [gi % 3 for gi in range(coarse.n)]
        fine = coarse.project(partition)
        for gi, group in enumerate(groups):
            for v in group:
                assert fine[v] == partition[gi]


class TestCoarsening:
    def test_groups_partition_vertex_set(self, level0):
        groups, merged = coarsen_once(level0, merge_all=True)
        flat = [v for g in groups for v in g]
        assert sorted(flat) == list(range(level0.n))
        assert merged > 0

    def test_no_two_inputs_in_one_group(self, level0):
        groups, _ = coarsen_once(level0, merge_all=True)
        for group in groups:
            inputs = sum(1 for v in group if level0.contains_input[v])
            assert inputs <= 1

    def test_weight_cap_enforced_after_first_level(self, level0):
        hierarchy = coarsen(level0, threshold=16)
        cap = max(2.0, 1.5 * level0.total_weight / 16)
        # first contraction is exempt; later levels respect the cap
        # provided their constituents were already under it
        for graph in hierarchy.levels[2:]:
            level1_max = max(hierarchy.levels[1].weight)
            assert max(graph.weight) <= max(cap, 2 * level1_max)

    def test_hierarchy_strictly_shrinks(self, level0):
        hierarchy = coarsen(level0, threshold=32)
        sizes = [g.n for g in hierarchy.levels]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes)

    def test_threshold_respected(self, level0):
        hierarchy = coarsen(level0, threshold=50)
        assert hierarchy.coarsest.n <= max(
            50, hierarchy.levels[-2].n if hierarchy.num_levels > 1 else 50
        )

    def test_min_vertices_floor(self, level0):
        hierarchy = coarsen(level0, threshold=2, min_vertices=8)
        assert hierarchy.coarsest.n >= 8

    def test_seeds_are_grown_globules(self, level0):
        groups, _ = coarsen_once(level0, merge_all=True)
        coarse = level0.contract(groups)
        for seed in coarse.seeds:
            assert len(coarse.members[seed]) >= 2


class TestInitialPartition:
    def test_covers_and_balances(self, level0):
        rng = np.random.default_rng(1)
        hierarchy = coarsen(level0, threshold=40, min_vertices=8)
        coarse = hierarchy.coarsest
        part = initial_partition(coarse, 4, rng)
        assert len(part) == coarse.n
        assert set(part) == {0, 1, 2, 3}
        load = [0] * 4
        for v, p in enumerate(part):
            load[p] += coarse.weight[v]
        assert max(load) <= 2.0 * min(load) + max(coarse.weight)

    def test_input_globules_spread(self, level0):
        rng = np.random.default_rng(2)
        hierarchy = coarsen(level0, threshold=40, min_vertices=8)
        coarse = hierarchy.coarsest
        k = 3
        part = initial_partition(coarse, k, rng)
        inputs = coarse.input_globules
        per_part = [0] * k
        for v in inputs:
            per_part[part[v]] += 1
        assert max(per_part) - min(per_part) <= 1

    def test_k_larger_than_globules_rejected(self, level0):
        rng = np.random.default_rng(3)
        small = CoarseGraph(3)
        with pytest.raises(Exception, match="cannot make"):
            initial_partition(small, 5, rng)


@pytest.mark.parametrize("refine", [greedy_refine, fm_refine, kl_refine])
class TestRefiners:
    def _setup(self, level0, k=4, seed=9):
        rng = np.random.default_rng(seed)
        partition = [int(rng.integers(0, k)) for _ in range(level0.n)]
        return rng, partition

    def test_cut_never_increases(self, level0, refine):
        rng, partition = self._setup(level0)
        before = cut_weight(level0, partition)
        refine(level0, partition, 4, rng, max_weight=level0.total_weight)
        after = cut_weight(level0, partition)
        assert after <= before

    def test_partition_stays_complete(self, level0, refine):
        rng, partition = self._setup(level0)
        refine(level0, partition, 4, rng, max_weight=level0.total_weight)
        assert len(partition) == level0.n
        assert set(partition) <= {0, 1, 2, 3}

    def test_balance_cap_respected(self, level0, refine):
        rng, partition = self._setup(level0)
        cap = 1.4 * level0.total_weight / 4
        load_before = [0] * 4
        for v, p in enumerate(partition):
            load_before[p] += level0.weight[v]
        refine(level0, partition, 4, rng, max_weight=cap)
        load = [0] * 4
        for v, p in enumerate(partition):
            load[p] += level0.weight[v]
        # moves into a partition stop at the cap (KL swaps keep sizes)
        assert max(load) <= max(cap, max(load_before))


class TestMoveGains:
    def test_gain_matches_cut_delta(self, level0):
        rng = np.random.default_rng(4)
        partition = [int(rng.integers(0, 3)) for _ in range(level0.n)]
        for vertex in rng.choice(level0.n, size=10, replace=False):
            vertex = int(vertex)
            before = cut_weight(level0, partition)
            for dest, gain in move_gains(level0, partition, vertex).items():
                src = partition[vertex]
                partition[vertex] = dest
                after = cut_weight(level0, partition)
                partition[vertex] = src
                assert before - after == gain


class TestMultilevelEndToEnd:
    def test_projection_invariant(self, medium_circuit):
        """The paper's invariant: every gate lands where its globule did."""
        p = MultilevelPartitioner(seed=6, refiner="none")
        a = p.partition(medium_circuit, 4)
        a.validate()

    def test_refiner_improves_over_none(self, medium_circuit):
        from repro.partition import edge_cut

        no_ref = MultilevelPartitioner(seed=6, refiner="none").partition(
            medium_circuit, 4
        )
        greedy = MultilevelPartitioner(seed=6, refiner="greedy").partition(
            medium_circuit, 4
        )
        assert edge_cut(greedy) <= edge_cut(no_ref)

    @pytest.mark.parametrize("refiner", ["greedy", "kl", "fm"])
    def test_all_refiners_produce_valid_partitions(self, medium_circuit, refiner):
        p = MultilevelPartitioner(seed=6, refiner=refiner)
        a = p.partition(medium_circuit, 4)
        a.validate()

    def test_unknown_refiner_rejected(self):
        with pytest.raises(Exception, match="unknown refiner"):
            MultilevelPartitioner(refiner="quantum")

    def test_level_sizes_recorded(self, medium_circuit):
        p = MultilevelPartitioner(seed=6)
        p.partition(medium_circuit, 4)
        assert p.last_level_sizes[0] == medium_circuit.num_gates
        assert len(p.last_level_sizes) >= 2

    def test_phase_seconds_recorded(self, medium_circuit):
        p = MultilevelPartitioner(seed=6)
        start = time.perf_counter()
        p.partition(medium_circuit, 4)
        elapsed = time.perf_counter() - start
        assert list(p.last_phase_seconds) == ["coarsen", "initial", "refine"]
        assert all(s >= 0 for s in p.last_phase_seconds.values())
        assert sum(p.last_phase_seconds.values()) <= elapsed

    def test_threshold_parameter(self, medium_circuit):
        p = MultilevelPartitioner(seed=6, coarsen_threshold=100)
        p.partition(medium_circuit, 4)
        assert p.last_level_sizes[-1] >= 4


class TestHemCoarsening:
    def test_hem_groups_partition_vertex_set(self, level0):
        import numpy as np

        from repro.partition.multilevel.coarsening import hem_coarsen_once

        rng = np.random.default_rng(3)
        groups, merged = hem_coarsen_once(level0, rng)
        flat = sorted(v for g in groups for v in g)
        assert flat == list(range(level0.n))
        assert merged > 0
        assert all(len(g) <= 2 for g in groups)  # HEM pairs, never more

    def test_hem_respects_input_rule(self, level0):
        import numpy as np

        from repro.partition.multilevel.coarsening import hem_coarsen_once

        rng = np.random.default_rng(3)
        groups, _ = hem_coarsen_once(level0, rng)
        for group in groups:
            inputs = sum(1 for v in group if level0.contains_input[v])
            assert inputs <= 1

    def test_hem_partitioner_valid_and_competitive(self, medium_circuit):
        from repro.partition import edge_cut

        fanout = MultilevelPartitioner(seed=3, coarsening="fanout")
        hem = MultilevelPartitioner(seed=3, coarsening="hem")
        a = fanout.partition(medium_circuit, 6)
        b = hem.partition(medium_circuit, 6)
        a.validate()
        b.validate()
        low, high = sorted((edge_cut(a), edge_cut(b)))
        assert high <= low * 1.5

    def test_hem_oracle(self, medium_circuit):
        from repro.sim import RandomStimulus, SequentialSimulator
        from repro.warped import TimeWarpSimulator, VirtualMachine

        stim = RandomStimulus(medium_circuit, num_cycles=12, seed=7)
        seq = SequentialSimulator(medium_circuit, stim).run()
        assignment = MultilevelPartitioner(
            seed=3, coarsening="hem"
        ).partition(medium_circuit, 4)
        tw = TimeWarpSimulator(
            medium_circuit, assignment, stim, VirtualMachine(num_nodes=4)
        ).run()
        assert tw.final_values == seq.final_values

    def test_unknown_scheme_rejected(self, medium_circuit):
        import pytest as _pytest

        from repro.errors import PartitionError
        from repro.partition.multilevel.coarse_graph import CoarseGraph
        from repro.partition.multilevel.coarsening import coarsen

        graph = CoarseGraph.from_circuit(medium_circuit)
        with _pytest.raises(PartitionError, match="unknown coarsening"):
            coarsen(graph, threshold=32, scheme="magnetic")
        with _pytest.raises(PartitionError, match="needs an rng"):
            coarsen(graph, threshold=32, scheme="hem")
