"""Cross-cutting invariants for all six partitioning algorithms."""

import pytest

from repro.errors import PartitionError
from repro.partition import (
    PARTITIONERS,
    edge_cut,
    get_partitioner,
    load_imbalance,
)

ALL_NAMES = sorted(PARTITIONERS)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestUniversalInvariants:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_valid_complete_assignment(self, name, k, medium_circuit):
        a = get_partitioner(name, seed=11).partition(medium_circuit, k)
        a.validate()
        assert a.k == k
        assert len(a) == medium_circuit.num_gates

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_no_empty_partition(self, name, k, medium_circuit):
        a = get_partitioner(name, seed=11).partition(medium_circuit, k)
        assert all(size > 0 for size in a.sizes())

    @pytest.mark.parametrize("k", [1])
    def test_single_partition_zero_cut(self, name, k, medium_circuit):
        a = get_partitioner(name, seed=11).partition(medium_circuit, k)
        assert edge_cut(a) == 0


@pytest.mark.parametrize("name", ALL_NAMES)
class TestDeterminism:
    def test_same_seed_same_partition(self, name, medium_circuit):
        a = get_partitioner(name, seed=3).partition(medium_circuit, 4)
        b = get_partitioner(name, seed=3).partition(medium_circuit, 4)
        assert a.assignment == b.assignment

    def test_algorithm_label(self, name, medium_circuit):
        a = get_partitioner(name, seed=3).partition(medium_circuit, 2)
        assert a.algorithm == PARTITIONERS[name].name


@pytest.mark.parametrize("name", ALL_NAMES)
class TestBalance:
    def test_imbalance_bounded(self, name, medium_circuit):
        a = get_partitioner(name, seed=5).partition(medium_circuit, 4)
        # All algorithms aim for ~10% slack; allow some headroom for the
        # chunk-granularity of traversal partitioners.
        assert load_imbalance(a) <= 1.35


class TestEdgeCases:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_k_equals_num_gates(self, name, s27):
        a = get_partitioner(name, seed=1).partition(s27, s27.num_gates)
        assert sorted(a.assignment) == list(range(s27.num_gates))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_k_too_large_rejected(self, name, s27):
        with pytest.raises(PartitionError):
            get_partitioner(name, seed=1).partition(s27, s27.num_gates + 1)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_k_zero_rejected(self, name, s27):
        with pytest.raises(PartitionError):
            get_partitioner(name, seed=1).partition(s27, 0)

    def test_unknown_name_rejected(self):
        with pytest.raises(PartitionError, match="unknown partitioner"):
            get_partitioner("Magic")

    def test_unfrozen_circuit_rejected(self):
        from repro.circuit import CircuitGraph, GateType

        c = CircuitGraph()
        c.add_gate("a", GateType.INPUT)
        with pytest.raises(PartitionError, match="frozen"):
            get_partitioner("Random").partition(c, 1)


class TestRelativeQuality:
    """The static-quality ordering the paper's dynamics rest on."""

    def test_multilevel_cuts_less_than_random(self, medium_circuit):
        ml = get_partitioner("Multilevel", seed=2).partition(medium_circuit, 8)
        rnd = get_partitioner("Random", seed=2).partition(medium_circuit, 8)
        assert edge_cut(ml) < edge_cut(rnd)

    def test_multilevel_cuts_less_than_topological(self, medium_circuit):
        ml = get_partitioner("Multilevel", seed=2).partition(medium_circuit, 8)
        topo = get_partitioner("Topological", seed=2).partition(medium_circuit, 8)
        assert edge_cut(ml) < edge_cut(topo)

    def test_topological_cut_is_highest_tier(self, medium_circuit):
        topo = edge_cut(
            get_partitioner("Topological", seed=2).partition(medium_circuit, 8)
        )
        dfs = edge_cut(get_partitioner("DFS", seed=2).partition(medium_circuit, 8))
        assert topo > dfs
